import numpy as np
import pytest

import mgcnn.stencils as stencils_mod
from mgcnn.errors import DimensionError, IllPosedError
from mgcnn.grid import Grid2D, TransferPair, prolong_values, restrict_values
from mgcnn.stencils import (
    CoarsenMap,
    StencilBank,
    bank_apply,
    build_coarsen_map,
    coarsen_bank,
    refine_bank,
    stability_report,
    stencil_symbol,
    tap_gradient,
)

from oracles import dense_circulant, galerkin_coarse_stencil, naive_bank_apply, padded_frame

CA = TransferPair.constant_average()
FW = TransferPair.bilinear_full_weighting()

# Reference stencil pair for the coarsening-convention diagnostic.  The
# coarse counterpart depends on unstated transfer conventions, so tests
# report its deviation instead of asserting it (see test_acceptance).
REFERENCE_FINE = np.array(
    [[-0.89, -2.03, 4.30], [-2.07, 0.00, -2.07], [4.39, -2.03, 1.28]]
)
REFERENCE_COARSE = np.array(
    [[-0.48, -0.17, 0.82], [-0.15, -0.80, 0.37], [0.84, 0.40, 0.07]]
)

IDENTITY = np.array([[[[0.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]]]])  # (1, 1, 3, 3)
ZERO = np.zeros((1, 1, 3, 3))


def single(w):
    """A ``(1, 1, k, k)`` bank holding one window."""
    return np.asarray(w, dtype=np.float64)[None, None]


def apply_one(w, img):
    """One window applied to one image through :func:`bank_apply`."""
    return bank_apply(single(w), img[None])[0]


class TestStencilTypes:
    def test_identity_applied_is_identity(self):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(4, 5))
        np.testing.assert_array_equal(bank_apply(IDENTITY, img[None])[0], img)

    def test_shift_stencil_moves_delta(self):
        w = np.zeros((3, 3))
        w[1, 2] = 1.0  # offset (0, +1): reads the cell one to the right
        img = np.zeros((4, 4))
        img[2, 0] = 1.0
        expect = np.zeros((4, 4))
        expect[2, 3] = 1.0  # wraps: output cell (2,3) reads input (2,0)
        np.testing.assert_array_equal(apply_one(w, img), expect)

    def test_reference_fine_stencil_matches_dense_oracle(self):
        rng = np.random.default_rng(1)
        img = rng.normal(size=(8, 8))
        dense = dense_circulant(REFERENCE_FINE, 8, 8)
        expect = (dense @ img.reshape(-1)).reshape(8, 8)
        np.testing.assert_allclose(apply_one(REFERENCE_FINE, img), expect, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.zeros((2, 2)), np.zeros((3, 4)), np.zeros(3)])
    def test_bad_shapes_rejected(self, bad):
        # an even window, a non-square one, and too few axes
        with pytest.raises(DimensionError):
            StencilBank(bad[None, None])

    def test_nonfinite_rejected(self):
        w = np.zeros((1, 1, 3, 3))
        w[0, 0, 1, 1] = np.inf
        with pytest.raises(ValueError):
            StencilBank(w)

    def test_bank_shape_checks(self):
        with pytest.raises(DimensionError):
            StencilBank(np.zeros((2, 2, 4, 4)))
        bank = StencilBank.replicate(3, 3)
        assert (bank.c_out, bank.c_in) == (3, 1)
        for co in range(3):
            np.testing.assert_array_equal(bank.weights[co, 0], IDENTITY[0, 0])

    def test_bank_apply_matches_per_channel_composition(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 2, 3, 3))
        y = rng.normal(size=(2, 6, 6))
        out = bank_apply(w, y)
        for co in range(2):
            expect = sum(apply_one(w[co, ci], y[ci]) for ci in range(2))
            np.testing.assert_allclose(out[co], expect, atol=1e-13)


# (weights shape, input shape): a non-square grid, a grid equal to the
# stencil, no batch axis, two leading axes, the 1 -> 3 embedding, and two
# single-input-channel banks whose frames span two column blocks (40 * 18^2
# and 36 * 16^2 columns, against _BLOCK = 8192).
KERNEL_CASES = [
    ((2, 2, 3, 3), (4, 2, 5, 7)),
    ((2, 2, 3, 3), (3, 2, 3, 3)),
    ((2, 2, 3, 3), (2, 6, 6)),
    ((2, 2, 3, 3), (2, 3, 2, 6, 5)),
    ((3, 1, 3, 3), (4, 1, 6, 6)),
    ((2, 3, 5, 5), (2, 3, 5, 6)),
    ((3, 1, 3, 3), (40, 1, 16, 16)),
    ((2, 1, 5, 5), (4, 9, 1, 12, 12)),
]


def naive_batched(weights, y):
    flat = y.reshape((-1,) + y.shape[-3:])
    out = np.stack([naive_bank_apply(weights, image) for image in flat])
    return out.reshape(y.shape[:-3] + out.shape[1:])


class TestKernel:
    @pytest.mark.parametrize("w_shape,y_shape", KERNEL_CASES)
    def test_bank_apply_matches_scalar_loop(self, w_shape, y_shape):
        rng = np.random.default_rng(11)
        w, y = rng.normal(size=w_shape), rng.normal(size=y_shape)
        got = bank_apply(w, y)
        assert got.shape == y_shape[:-3] + (w_shape[0],) + y_shape[-2:]
        # with one input channel each tap is one rounded product, summed in
        # the scalar loop's tap order: the values are exactly the loop's
        atol = 0.0 if w_shape[1] == 1 else 1e-12
        np.testing.assert_allclose(got, naive_batched(w, y), rtol=0, atol=atol)

    @pytest.mark.parametrize("w_shape,y_shape", KERNEL_CASES)
    def test_tap_gradient_is_the_adjoint(self, w_shape, y_shape):
        rng = np.random.default_rng(12)
        w, y = rng.normal(size=w_shape), rng.normal(size=y_shape)
        u = rng.normal(size=y_shape[:-3] + (w_shape[0],) + y_shape[-2:])
        g = tap_gradient(u, y, w_shape[2])
        assert g.shape == w_shape
        lhs = float((u * bank_apply(w, y)).sum())
        assert abs(lhs - float((g * w).sum())) <= 1e-12 * abs(lhs)

    def test_tap_gradient_entries_match_scalar_loop(self):
        rng = np.random.default_rng(13)
        y, u = rng.normal(size=(3, 2, 5, 4)), rng.normal(size=(3, 3, 5, 4))
        g = tap_gradient(u, y, 3)
        basis = np.zeros((3, 2, 3, 3))
        for idx in np.ndindex(basis.shape):
            basis[idx] = 1.0
            want = float((u * naive_batched(basis, y)).sum())
            basis[idx] = 0.0
            assert abs(g[idx] - want) <= 1e-12 * max(1.0, abs(want))

    def test_single_input_channel_takes_no_matrix_product(self, monkeypatch):
        calls = []
        matmul = np.matmul

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return matmul(*args, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        rng = np.random.default_rng(17)
        bank_apply(rng.normal(size=(3, 1, 3, 3)), rng.normal(size=(2, 1, 6, 6)))
        assert calls == []
        bank_apply(rng.normal(size=(3, 2, 3, 3)), rng.normal(size=(2, 2, 6, 6)))
        assert calls and all(shape == (3, 2) for shape in calls)

    def test_empty_batch(self):
        for c_in in (2, 1):
            w = np.ones((2, c_in, 3, 3))
            assert bank_apply(w, np.zeros((0, c_in, 4, 4))).shape == (0, 2, 4, 4)
            u, y = np.zeros((0, 2, 4, 4)), np.zeros((0, c_in, 4, 4))
            g = tap_gradient(u, y, 3)
            assert g.shape == w.shape
            np.testing.assert_array_equal(g, 0.0)

    @pytest.mark.parametrize(
        "w_shape,y_shape",
        [
            ((1, 3, 3), (1, 1, 6, 6)),  # weights with three axes
            ((1, 1, 1, 3, 3), (1, 1, 6, 6)),  # weights with five axes
            ((1, 1, 3, 5), (1, 1, 6, 6)),  # non-square windows
            ((2, 1, 3, 3), (6, 6)),  # no channel axis
        ],
    )
    def test_bank_apply_rejects_bad_shapes(self, w_shape, y_shape):
        with pytest.raises(DimensionError):
            bank_apply(np.zeros(w_shape), np.zeros(y_shape))

    @pytest.mark.parametrize(
        "u_shape,y_shape",
        [
            ((2, 3, 5, 5), (3, 2, 5, 5)),  # different batch sizes
            ((2, 3, 3, 5, 5), (6, 2, 5, 5)),  # same batch size, different axes
            ((2, 3, 5, 5), (2, 2, 5, 6)),  # different grids
            ((3, 5, 5), (5, 5)),  # y without a channel axis
        ],
    )
    def test_tap_gradient_rejects_mismatched_shapes(self, u_shape, y_shape):
        with pytest.raises(DimensionError):
            tap_gradient(np.zeros(u_shape), np.zeros(y_shape), 3)

    @pytest.mark.parametrize("grid, k", [((2, 5), 3), ((5, 2), 3), ((1, 1), 3), ((4, 6), 5)])
    def test_grid_smaller_than_the_stencil_refused(self, grid, k):
        # the periodic frame takes k // 2 rows and columns from the far side
        y, u = np.zeros((2, 2) + grid), np.zeros((2, 3) + grid)
        with pytest.raises(DimensionError, match="smaller than"):
            bank_apply(np.zeros((3, 2, k, k)), y)
        with pytest.raises(DimensionError, match="smaller than"):
            tap_gradient(u, y, k)

    @pytest.mark.parametrize("wrap", [True, False])
    @pytest.mark.parametrize("k", [1, 3, 5])
    @pytest.mark.parametrize("shape", [(1, 5, 7), (3, 1, 6, 5), (2, 3, 2, 7, 6), (4, 2, 5, 5)])
    def test_frame_matches_np_pad(self, shape, k, wrap):
        rng = np.random.default_rng(21)
        for grid in ((k, k), (k, k + 1), shape[-2:]):
            a = rng.normal(size=shape[:-2] + grid)
            got = stencils_mod._frame(a, k, wrap)
            assert got.flags.c_contiguous
            np.testing.assert_array_equal(got, padded_frame(a, k, wrap))


def coarsen_one(w, m):
    """Coarse window of ``R K(w) P`` through :func:`coarsen_bank`."""
    return coarsen_bank(StencilBank(single(w)), m).weights[0, 0]


def refine_one(w, m):
    """Fine window whose Galerkin coarsening is ``w``, through :func:`refine_bank`."""
    return refine_bank(StencilBank(single(w)), m).weights[0, 0]


def block_operator(weights, ny, nx):
    """Dense ``c*n x c*n`` matrix of a ``(c, c, k, k)`` bank, channel-major."""
    c, n = weights.shape[0], ny * nx
    op = np.zeros((c * n, c * n))
    for co in range(c):
        for ci in range(c):
            op[co * n : (co + 1) * n, ci * n : (ci + 1) * n] = dense_circulant(
                weights[co, ci], ny, nx
            )
    return op


class TestSymbol:
    def test_identity_symbol_all_ones(self):
        sym = stencil_symbol(IDENTITY[0, 0], Grid2D(4, 4))
        assert sym.shape == (4, 4)
        np.testing.assert_allclose(sym, 1.0, atol=1e-14)

    def test_zero_symbol(self):
        np.testing.assert_allclose(stencil_symbol(ZERO[0, 0], Grid2D(4, 4)), 0.0)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(3)
        w = rng.normal(size=(3, 3))
        sym = stencil_symbol(w, Grid2D(6, 6))
        dense = dense_circulant(w, 6, 6)
        eig = list(np.linalg.eigvals(dense))
        # multiset comparison: greedily match each symbol value to the
        # nearest remaining dense eigenvalue
        for v in sym.reshape(-1):
            dist = [abs(v - e) for e in eig]
            j = int(np.argmin(dist))
            assert dist[j] <= 1e-10
            eig.pop(j)

    def test_symmetric_stencil_real_symbol(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 3))
        w = w + w[::-1, ::-1]  # even under index negation
        sym = stencil_symbol(w, Grid2D(8, 8))
        assert np.abs(sym.imag).max() <= 1e-12

    def test_grid_too_small(self):
        with pytest.raises(DimensionError):
            stencil_symbol(IDENTITY, Grid2D(2, 2))

    def test_leading_axes_are_per_window(self):
        rng = np.random.default_rng(15)
        w = rng.normal(size=(2, 3, 3, 3))
        sym = stencil_symbol(w, Grid2D(5, 6))
        assert sym.shape == (2, 3, 6, 5)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(sym[idx], stencil_symbol(w[idx], Grid2D(5, 6)))


class TestStabilityReport:
    def test_zero_stencil(self):
        rep = stability_report(ZERO, Grid2D(4, 4), dt=0.3)
        assert rep.max_real == 0.0
        assert rep.spectral_radius_step == pytest.approx(1.0)

    def test_identity_stencil(self):
        rep = stability_report(IDENTITY, Grid2D(4, 4), dt=1.0)
        assert rep.max_real == pytest.approx(1.0)
        assert rep.spectral_radius_step == pytest.approx(2.0)

    def test_antisymmetric_purely_imaginary(self):
        w = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        rep = stability_report(single(w), Grid2D(8, 8), dt=0.1)
        assert abs(rep.max_real) <= 1e-12
        # dense cross-check that the whole spectrum really is imaginary
        eig = np.linalg.eigvals(dense_circulant(w, 8, 8))
        assert np.abs(eig.real).max() <= 1e-12

    @pytest.mark.parametrize("c", [2, 3])
    def test_channel_coupled_bank_matches_dense_block_operator(self, c):
        rng = np.random.default_rng(16)
        w = rng.normal(0.0, 0.4, size=(c, c, 3, 3))
        dt = 0.5
        rep = stability_report(w, Grid2D(6, 5), dt)
        lam = np.linalg.eigvals(block_operator(w, 5, 6))
        assert rep.max_real == pytest.approx(lam.real.max(), rel=1e-10)
        assert rep.spectral_radius_step == pytest.approx(np.abs(1.0 + dt * lam).max(), rel=1e-10)
        # the coupling matters: the per-window maximum misses it
        per_window = max(stencil_symbol(w, Grid2D(6, 5)).real.max(axis=(-2, -1)).ravel())
        assert abs(per_window - lam.real.max()) > 1e-3

    def test_non_square_bank_rejected(self):
        with pytest.raises(DimensionError):
            stability_report(np.zeros((2, 1, 3, 3)), Grid2D(4, 4), dt=0.1)


class TestCoarsenMap:
    def test_identity_fixed_point_constant_average(self):
        m = build_coarsen_map(3, CA)
        np.testing.assert_allclose(coarsen_one(IDENTITY[0, 0], m), IDENTITY[0, 0], atol=1e-13)

    def test_zero_maps_to_zero(self):
        m = build_coarsen_map(3, CA)
        np.testing.assert_allclose(coarsen_one(ZERO[0, 0], m), 0.0, atol=1e-15)

    @pytest.mark.parametrize("pair", [CA, FW], ids=["constant", "bilinear"])
    def test_matches_dense_galerkin_oracle(self, pair):
        m = build_coarsen_map(3, pair)
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = rng.normal(size=(3, 3))
            want = galerkin_coarse_stencil(w, 16, 16, pair.kind.value)
            np.testing.assert_allclose(coarsen_one(w, m), want, atol=1e-12)

    def test_truncation_mass(self):
        assert build_coarsen_map(3, CA).truncation_mass <= 1e-14
        # the bilinear pair widens the operator beyond 3x3, so mass is lost
        assert build_coarsen_map(3, FW).truncation_mass > 1e-3

    def test_conditioning_within_limits(self):
        for pair in (CA, FW):
            m = build_coarsen_map(3, pair)
            assert np.isfinite(m.cond)
            assert m.cond < 1e6

    def test_even_k_rejected(self):
        with pytest.raises(DimensionError):
            build_coarsen_map(2, CA)

    def test_linearity(self):
        m = build_coarsen_map(3, CA)
        rng = np.random.default_rng(6)
        s1, s2 = rng.normal(size=(2, 3, 3))
        a, b = 0.3, -1.1
        lhs = coarsen_one(a * s1 + b * s2, m)
        rhs = a * coarsen_one(s1, m) + b * coarsen_one(s2, m)
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestRefine:
    def test_identity_refines_to_identity(self):
        m = build_coarsen_map(3, CA)
        np.testing.assert_allclose(refine_one(IDENTITY[0, 0], m), IDENTITY[0, 0], atol=1e-12)

    @pytest.mark.parametrize("pair", [CA, FW], ids=["constant", "bilinear"])
    def test_roundtrip_identity(self, pair):
        m = build_coarsen_map(3, pair)
        rng = np.random.default_rng(7)
        for _ in range(20):
            w = rng.normal(size=(3, 3))
            np.testing.assert_allclose(refine_one(coarsen_one(w, m), m), w, atol=1e-10)

    def test_reference_coarse_roundtrip(self):
        m = build_coarsen_map(3, CA)
        again = coarsen_one(refine_one(REFERENCE_COARSE, m), m)
        np.testing.assert_allclose(again, REFERENCE_COARSE, atol=1e-10)

    def test_ill_conditioned_map_refuses_to_solve(self):
        m = build_coarsen_map(3, CA)
        bad = CoarsenMap(
            k=m.k, kind=m.kind, matrix=m.matrix, cond=1e13, truncation_mass=0.0
        )
        with pytest.raises(IllPosedError):
            refine_one(IDENTITY[0, 0], bad)

    def test_size_mismatch(self):
        m = build_coarsen_map(3, CA)
        with pytest.raises(DimensionError):
            coarsen_bank(StencilBank(np.zeros((1, 1, 5, 5))), m)
        with pytest.raises(DimensionError):
            refine_bank(StencilBank(np.zeros((1, 1, 5, 5))), m)

    def test_bank_refuses_ill_posed_maps(self):
        m = build_coarsen_map(3, CA)
        bank = StencilBank(np.eye(2)[:, :, None, None] * IDENTITY[0, 0])
        ill = CoarsenMap(k=m.k, kind=m.kind, matrix=m.matrix, cond=1e13, truncation_mass=0.0)
        singular = CoarsenMap(
            k=3, kind=m.kind, matrix=np.zeros((9, 9)), cond=1.0, truncation_mass=0.0
        )
        for bad in (ill, singular):
            with pytest.raises(IllPosedError):
                refine_bank(bank, bad)


class TestBanks:
    def test_identity_bank_unchanged(self):
        m = build_coarsen_map(3, CA)
        bank = StencilBank.replicate(2, 3)
        out = coarsen_bank(bank, m)
        np.testing.assert_allclose(out.weights, bank.weights, atol=1e-13)

    def test_single_entry_bank_equals_scalar_op(self):
        # a one-window bank is the coarsening map applied to the flat window
        m = build_coarsen_map(3, FW)
        rng = np.random.default_rng(8)
        w = rng.normal(size=(1, 1, 3, 3))
        out = coarsen_bank(StencilBank(w), m)
        want = (m.matrix @ w.reshape(-1)).reshape(3, 3)
        np.testing.assert_array_equal(out.weights[0, 0], want)

    def test_bank_entries_match_scalar_path(self):
        m = build_coarsen_map(3, CA)
        rng = np.random.default_rng(9)
        w = rng.normal(size=(2, 2, 3, 3))
        coarse = coarsen_bank(StencilBank(w), m)
        refined = refine_bank(coarse, m)
        for co in range(2):
            for ci in range(2):
                np.testing.assert_allclose(
                    coarse.weights[co, ci], coarsen_one(w[co, ci], m), atol=1e-13
                )
                np.testing.assert_allclose(refined.weights[co, ci], w[co, ci], atol=1e-10)


class TestGalerkinExactness:
    def test_operational_identity_on_random_stencils(self):
        # coarse operator applied to coarse data == restrict(fine op(prolonged data))
        m = build_coarsen_map(3, CA)
        rng = np.random.default_rng(10)
        for _ in range(10):
            w = rng.normal(size=(3, 3))
            y = rng.normal(size=(4, 4))
            lhs = apply_one(coarsen_one(w, m), y)
            rhs = restrict_values(apply_one(w, prolong_values(y, CA.kind)), CA.kind)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
