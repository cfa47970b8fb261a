import numpy as np
import pytest

from mgcnn.errors import DimensionError
from mgcnn.grid import (
    Grid2D,
    TransferKind,
    TransferPair,
    gaussian_blur_values,
    gaussian_kernel_1d,
    prolong_values,
    restrict_values,
)

from oracles import dense_prolongation, dense_restriction, naive_blur

CA = TransferKind.CONSTANT_AVERAGE
FW = TransferKind.BILINEAR_FULL_WEIGHTING


class TestGrid2D:
    def test_shape_and_counts(self):
        g = Grid2D(6, 4, 0.5)
        assert g.shape == (4, 6)
        assert g.ncells == 24

    def test_coarsen_refine(self):
        g = Grid2D(8, 8, 1.0)
        gc = g.coarsened()
        assert (gc.nx, gc.ny, gc.h) == (4, 4, 2.0)
        gf = g.refined()
        assert (gf.nx, gf.ny, gf.h) == (16, 16, 0.5)

    def test_odd_coarsen_rejected(self):
        with pytest.raises(DimensionError):
            Grid2D(5, 4).coarsened()

    @pytest.mark.parametrize("nx,ny,h", [(0, 4, 1.0), (4, 0, 1.0), (4, 4, 0.0), (4, 4, -1.0)])
    def test_bad_grid_rejected(self, nx, ny, h):
        with pytest.raises(DimensionError):
            Grid2D(nx, ny, h)


class TestRestrict:
    def test_constant_preserved(self):
        img = np.full((4, 4), 3.25)
        out = restrict_values(img, CA)
        assert out.shape == (2, 2)
        np.testing.assert_allclose(out, 3.25)

    def test_2x2_mean(self):
        out = restrict_values(np.array([[1.0, 2.0], [3.0, 4.0]]), CA)
        assert out.shape == (1, 1)
        assert out[0, 0] == 2.5

    def test_full_weighting_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        img = rng.normal(size=(8, 8))
        r = dense_restriction(8, 8, "bilinear_full_weighting")
        expect = (r @ img.reshape(-1)).reshape(4, 4)
        np.testing.assert_allclose(restrict_values(img, FW), expect, atol=1e-13)

    def test_constant_average_matches_dense_oracle(self):
        rng = np.random.default_rng(8)
        img = rng.normal(size=(6, 10))
        r = dense_restriction(6, 10, "constant_average")
        expect = (r @ img.reshape(-1)).reshape(3, 5)
        np.testing.assert_allclose(restrict_values(img, CA), expect, atol=1e-13)

    def test_odd_shape_rejected(self):
        with pytest.raises(DimensionError):
            restrict_values(np.zeros((5, 4)), CA)

    def test_stacked_leading_axes(self):
        rng = np.random.default_rng(9)
        batch = rng.normal(size=(3, 2, 4, 4))
        out = restrict_values(batch, CA)
        assert out.shape == (3, 2, 2, 2)
        np.testing.assert_allclose(out[1, 0], restrict_values(batch[1, 0], CA))


class TestProlong:
    def test_constant_preserved(self):
        out = prolong_values(np.full((2, 2), 1.5), FW)
        assert out.shape == (4, 4)
        np.testing.assert_allclose(out, 1.5, atol=1e-15)

    def test_injection(self):
        out = prolong_values(np.array([[5.0]]), CA)
        np.testing.assert_array_equal(out, np.full((2, 2), 5.0))

    def test_bilinear_matches_dense_oracle(self):
        rng = np.random.default_rng(10)
        img = rng.normal(size=(4, 4))
        p = dense_prolongation(4, 4, "bilinear_full_weighting")
        expect = (p @ img.reshape(-1)).reshape(8, 8)
        np.testing.assert_allclose(prolong_values(img, FW), expect, atol=1e-13)


def rp_deviation(kind, grid):
    """``max_i || R P e_i - e_i ||_inf`` over the basis images of ``grid``."""
    worst = 0.0
    e = np.zeros(grid.shape)
    for idx in range(grid.ncells):
        e.flat[idx] = 1.0
        rp = restrict_values(prolong_values(e, kind), kind)
        rp.flat[idx] -= 1.0
        worst = max(worst, float(np.abs(rp).max()))
        e.flat[idx] = 0.0
    return worst


class TestTransferIdentities:
    def test_rp_identity_constant_average(self):
        assert rp_deviation(TransferPair.constant_average().kind, Grid2D(4, 4)) <= 1e-15

    def test_rp_on_constants_bilinear(self):
        pair = TransferPair.bilinear_full_weighting()
        c = np.full((4, 4), 2.0)
        rp = restrict_values(prolong_values(c, pair.kind), pair.kind)
        np.testing.assert_allclose(rp, c, atol=1e-14)

    def test_rp_deviation_bilinear_matches_dense(self):
        # worst-case RP deviation from the identity, recomputed densely
        pair = TransferPair.bilinear_full_weighting()
        g = Grid2D(8, 8)
        r = dense_restriction(16, 16, "bilinear_full_weighting")
        p = dense_prolongation(8, 8, "bilinear_full_weighting")
        rp = r @ p - np.eye(64)
        expect = float(np.abs(rp).max(axis=1).max())
        got = rp_deviation(pair.kind, g)
        assert got == pytest.approx(expect, abs=1e-13)
        assert got > 0.01  # genuinely not the identity pointwise

    @pytest.mark.parametrize("kind", [CA, FW])
    def test_linearity(self, kind):
        rng = np.random.default_rng(11)
        u, v = rng.normal(size=(2, 8, 8))
        a, b = 1.7, -0.4
        np.testing.assert_allclose(
            restrict_values(a * u + b * v, kind),
            a * restrict_values(u, kind) + b * restrict_values(v, kind),
            atol=1e-13,
        )
        np.testing.assert_allclose(
            prolong_values(a * u + b * v, kind),
            a * prolong_values(u, kind) + b * prolong_values(v, kind),
            atol=1e-13,
        )


class TestBlur:
    def test_constant_unchanged(self):
        out = gaussian_blur_values(np.full((6, 6), 0.7), 1.0)
        np.testing.assert_allclose(out, 0.7, atol=1e-14)

    def test_delta_reproduces_kernel(self):
        k1 = gaussian_kernel_1d(1.0)
        n = 9
        img = np.zeros((n, n))
        img[4, 4] = 1.0
        out = gaussian_blur_values(img, 1.0)
        r = k1.size // 2
        expect = np.zeros((n, n))
        for a in range(-r, r + 1):
            for b in range(-r, r + 1):
                expect[4 + a, 4 + b] = k1[a + r] * k1[b + r]
        np.testing.assert_allclose(out, expect, atol=1e-15)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(12)
        img = rng.normal(size=(8, 8))
        np.testing.assert_allclose(gaussian_blur_values(img, 0.5), naive_blur(img, 0.5), atol=1e-12)

    def test_mass_preserved(self):
        rng = np.random.default_rng(13)
        img = rng.uniform(size=(8, 8))
        out = gaussian_blur_values(img, 2.0)
        assert out.sum() == pytest.approx(img.sum(), rel=1e-10)

    def test_commutes_with_translation(self):
        rng = np.random.default_rng(14)
        img = rng.normal(size=(8, 8))
        shifted = np.roll(img, (2, 3), axis=(0, 1))
        np.testing.assert_allclose(
            gaussian_blur_values(shifted, 1.0),
            np.roll(gaussian_blur_values(img, 1.0), (2, 3), axis=(0, 1)),
            atol=1e-13,
        )

    def test_bad_sigma(self):
        with pytest.raises(ValueError):
            gaussian_kernel_1d(0.0)
