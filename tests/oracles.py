"""Independent reference implementations used to check the package.

Everything here is deliberately naive: dense matrices, scalar loops, and
textbook formulas, written without looking at the package internals.  Tests
compare the fast implementations against these.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# dense grid-transfer operators


def dense_restriction(ny: int, nx: int, kind: str) -> np.ndarray:
    """Matrix of R mapping a (ny, nx) image to (ny//2, nx//2), row-major."""
    nyc, nxc = ny // 2, nx // 2
    r = np.zeros((nyc * nxc, ny * nx))

    def fine(i: int, j: int) -> int:
        return (i % ny) * nx + (j % nx)

    for ic in range(nyc):
        for jc in range(nxc):
            row = ic * nxc + jc
            if kind == "constant_average":
                for di in (0, 1):
                    for dj in (0, 1):
                        r[row, fine(2 * ic + di, 2 * jc + dj)] += 0.25
            elif kind == "bilinear_full_weighting":
                # separable 1D full weighting (1,3,3,1)/8 over fine cells
                # 2i-1 .. 2i+2 in each axis
                w1 = {-1: 1 / 8, 0: 3 / 8, 1: 3 / 8, 2: 1 / 8}
                for di, wi in w1.items():
                    for dj, wj in w1.items():
                        r[row, fine(2 * ic + di, 2 * jc + dj)] += wi * wj
            else:
                raise ValueError(kind)
    return r


def dense_prolongation(nyc: int, nxc: int, kind: str) -> np.ndarray:
    """Matrix of P mapping a (nyc, nxc) image to (2*nyc, 2*nxc), row-major."""
    ny, nx = 2 * nyc, 2 * nxc
    p = np.zeros((ny * nx, nyc * nxc))

    def coarse(i: int, j: int) -> int:
        return (i % nyc) * nxc + (j % nxc)

    for i in range(ny):
        for j in range(nx):
            row = i * nx + j
            ic, jc = i // 2, j // 2
            if kind == "constant_average":
                p[row, coarse(ic, jc)] += 1.0
            elif kind == "bilinear_full_weighting":
                # fine center at 1/4 (even index) or 3/4 (odd) of the coarse
                # cell: weights 3/4 toward the containing cell, 1/4 to the
                # neighbor on the near side
                ni = ic - 1 if i % 2 == 0 else ic + 1
                nj = jc - 1 if j % 2 == 0 else jc + 1
                for a, wa in ((ic, 0.75), (ni, 0.25)):
                    for b, wb in ((jc, 0.75), (nj, 0.25)):
                        p[row, coarse(a, b)] += wa * wb
            else:
                raise ValueError(kind)
    return p


# ---------------------------------------------------------------------------
# dense circulant convolution


def dense_circulant(weights: np.ndarray, ny: int, nx: int) -> np.ndarray:
    """Matrix of the periodic cross-correlation out(i,j) = sum w(p,q) y(i+p-c, j+q-c)."""
    k = weights.shape[0]
    c = k // 2
    a = np.zeros((ny * nx, ny * nx))
    for i in range(ny):
        for j in range(nx):
            row = i * nx + j
            for p in range(k):
                for q in range(k):
                    col = ((i + p - c) % ny) * nx + ((j + q - c) % nx)
                    a[row, col] += weights[p, q]
    return a


def extract_stencil(op: np.ndarray, ny: int, nx: int, k: int) -> np.ndarray:
    """Read the k x k stencil out of a dense translation-invariant operator.

    Uses the row of the output cell at (ny//2, nx//2): its entry against the
    input cell (i + p - c, j + q - c) is the weight w(p, q).
    """
    c = k // 2
    i, j = ny // 2, nx // 2
    row = op[i * nx + j]
    w = np.empty((k, k))
    for p in range(k):
        for q in range(k):
            w[p, q] = row[((i + p - c) % ny) * nx + ((j + q - c) % nx)]
    return w


def galerkin_coarse_stencil(weights: np.ndarray, ny: int, nx: int, kind: str) -> np.ndarray:
    """Coarse stencil of R K P computed entirely with dense matrices."""
    r = dense_restriction(ny, nx, kind)
    p = dense_prolongation(ny // 2, nx // 2, kind)
    k_h = dense_circulant(weights, ny, nx)
    coarse_op = r @ k_h @ p
    return extract_stencil(coarse_op, ny // 2, nx // 2, weights.shape[0])


# ---------------------------------------------------------------------------
# naive blur / network / classifier loops


def naive_blur(img: np.ndarray, sigma: float) -> np.ndarray:
    radius = math.ceil(3.0 * sigma)
    x = np.arange(-radius, radius + 1, dtype=float)
    k1 = np.exp(-0.5 * (x / sigma) ** 2)
    k1 /= k1.sum()
    ny, nx = img.shape
    out = np.zeros_like(img)
    for i in range(ny):
        for j in range(nx):
            acc = 0.0
            for a in range(-radius, radius + 1):
                for b in range(-radius, radius + 1):
                    acc += k1[a + radius] * k1[b + radius] * img[(i + a) % ny, (j + b) % nx]
            out[i, j] = acc
    return out


def naive_bank_apply(weights: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Scalar-loop multi-channel stencil application, weights (co, ci, k, k)."""
    co, ci, k, _ = weights.shape
    c = k // 2
    ny, nx = y.shape[-2:]
    out = np.zeros((co, ny, nx))
    for o in range(co):
        for i in range(ny):
            for j in range(nx):
                acc = 0.0
                for m in range(ci):
                    for p in range(k):
                        for q in range(k):
                            acc += weights[o, m, p, q] * y[m, (i + p - c) % ny, (j + q - c) % nx]
                out[o, i, j] = acc
    return out


def padded_frame(a: np.ndarray, k: int, wrap: bool) -> np.ndarray:
    """The kernel's channel-major frames of ``a`` (``(..., c, ny, nx)``) by
    ``np.pad``: wrap-padded by ``k // 2`` on every side, or the image in the
    top-left corner of zeros, flattened to ``(c, B * H * W)``."""
    r = k // 2
    flat = np.moveaxis(a.reshape((-1,) + a.shape[-3:]), 1, 0)
    pad = [(r, r), (r, r)] if wrap else [(0, 2 * r), (0, 2 * r)]
    framed = np.pad(flat, [(0, 0), (0, 0)] + pad, mode="wrap" if wrap else "constant")
    return framed.reshape(flat.shape[0], -1)


def naive_forward(
    x: np.ndarray,
    embed_w: np.ndarray,
    bank_ws: list[np.ndarray],
    biases: np.ndarray,
    dt: float,
    act: str = "tanh",
    gain: float = 1.0,
) -> list[np.ndarray]:
    """All states of the explicit-Euler network, computed with scalar loops."""
    y = naive_bank_apply(embed_w, x[None])
    states = [y]
    for layer, w in enumerate(bank_ws):
        z = naive_bank_apply(w, states[-1])
        z = z + biases[layer][:, None, None]
        if act == "tanh":
            z = np.tanh(gain * z)
        elif act == "identity":
            z = gain * z
        else:
            raise ValueError(act)
        states.append(states[-1] + dt * z)
    return states


def naive_time_resample(values: np.ndarray, factor: int) -> np.ndarray:
    """Layer values ``values[k]`` at ``t = k`` resampled at ``t = j / factor``,
    node by node: linear between old nodes, the last value beyond them, and
    every bit kept at ``factor == 1``."""
    n = len(values)
    if factor == 1:
        return values.copy()
    out = np.empty((factor * n,) + values.shape[1:])
    for j in range(factor * n):
        tau = j / factor
        i0 = int(tau)
        if i0 >= n - 1:
            out[j] = values[n - 1]
        else:
            frac = tau - i0
            out[j] = (1.0 - frac) * values[i0] + frac * values[i0 + 1]
    return out


def naive_logits(y_out: np.ndarray, w: np.ndarray, mu: np.ndarray, h: float) -> np.ndarray:
    ell = w.shape[0]
    z = np.zeros(ell)
    for j in range(ell):
        z[j] = h * h * float((w[j] * y_out).sum()) + mu[j]
    return z


def naive_softmax(z: np.ndarray) -> np.ndarray:
    e = np.exp(z - z.max())
    return e / e.sum()


def naive_cross_entropy(z: np.ndarray, label: int) -> float:
    zs = z - z.max()
    return float(np.log(np.exp(zs).sum()) - zs[label])


# ---------------------------------------------------------------------------
# finite differences


def fd_gradient(f, x: np.ndarray, step: float = 1e-5) -> np.ndarray:
    """Central finite differences of scalar f at array x, entry by entry."""
    g = np.zeros_like(x, dtype=float)
    it = np.nditer(x, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = x[idx]
        x[idx] = orig + step
        fp = f()
        x[idx] = orig - step
        fm = f()
        x[idx] = orig
        g[idx] = (fp - fm) / (2.0 * step)
        it.iternext()
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    """Relative error with an absolute floor for near-zero blocks."""
    na = float(np.linalg.norm(np.asarray(a).ravel()))
    nb = float(np.linalg.norm(np.asarray(b).ravel()))
    diff = float(np.linalg.norm((np.asarray(a) - np.asarray(b)).ravel()))
    return diff / max(na, nb, 1e-8)


# ---------------------------------------------------------------------------
# IDX fixtures


def write_idx_images(path, images: np.ndarray) -> None:
    """images: (n, rows, cols) uint8."""
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write((0x00000803).to_bytes(4, "big"))
        f.write(n.to_bytes(4, "big"))
        f.write(rows.to_bytes(4, "big"))
        f.write(cols.to_bytes(4, "big"))
        f.write(images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    with open(path, "wb") as f:
        f.write((0x00000801).to_bytes(4, "big"))
        f.write(len(labels).to_bytes(4, "big"))
        f.write(labels.astype(np.uint8).tobytes())
