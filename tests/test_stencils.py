import numpy as np
import pytest

import mgcnn.stencils as stencils_mod
from mgcnn.errors import DimensionError, IllPosedError
from mgcnn.grid import Grid2D, Image, TransferPair
from mgcnn.stencils import (
    CoarsenMap,
    Stencil,
    StencilBank,
    bank_apply,
    build_coarsen_map,
    coarsen_bank,
    coarsen_stencil,
    conv_apply,
    refine_bank,
    refine_stencil,
    stability_report,
    stencil_symbol,
    tap_gradient,
)

from oracles import dense_circulant, galerkin_coarse_stencil, naive_bank_apply

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


class TestStencilTypes:
    def test_identity_applied_is_identity(self):
        g = Grid2D(5, 4)
        rng = np.random.default_rng(0)
        img = Image(g, rng.normal(size=g.shape))
        out = conv_apply(Stencil.identity(3), img)
        np.testing.assert_array_equal(out.values, img.values)

    def test_shift_stencil_moves_delta(self):
        w = np.zeros((3, 3))
        w[1, 2] = 1.0  # offset (0, +1): reads the cell one to the right
        g = Grid2D(4, 4)
        img = np.zeros((4, 4))
        img[2, 0] = 1.0
        out = conv_apply(Stencil(w), Image(g, img))
        expect = np.zeros((4, 4))
        expect[2, 3] = 1.0  # wraps: output cell (2,3) reads input (2,0)
        np.testing.assert_array_equal(out.values, expect)

    def test_reference_fine_stencil_matches_dense_oracle(self):
        g = Grid2D(8, 8)
        rng = np.random.default_rng(1)
        img = rng.normal(size=(8, 8))
        dense = dense_circulant(REFERENCE_FINE, 8, 8)
        expect = (dense @ img.reshape(-1)).reshape(8, 8)
        out = conv_apply(Stencil(REFERENCE_FINE), Image(g, img))
        np.testing.assert_allclose(out.values, expect, atol=1e-12)

    @pytest.mark.parametrize("bad", [np.zeros((2, 2)), np.zeros((3, 4)), np.zeros(3)])
    def test_bad_shapes_rejected(self, bad):
        with pytest.raises(DimensionError):
            Stencil(bad)

    def test_bank_shape_checks(self):
        with pytest.raises(DimensionError):
            StencilBank(np.zeros((2, 2, 4, 4)))
        bank = StencilBank.replicate(3, 3)
        assert (bank.c_out, bank.c_in) == (3, 1)
        for co in range(3):
            np.testing.assert_array_equal(
                bank.stencil(co, 0).weights, Stencil.identity(3).weights
            )

    def test_bank_apply_matches_per_channel_composition(self):
        rng = np.random.default_rng(2)
        w = rng.normal(size=(2, 2, 3, 3))
        y = rng.normal(size=(2, 6, 6))
        g = Grid2D(6, 6)
        out = bank_apply(w, y)
        for co in range(2):
            expect = sum(
                conv_apply(Stencil(w[co, ci]), Image(g, y[ci])).values for ci in range(2)
            )
            np.testing.assert_allclose(out[co], expect, atol=1e-13)


# (weights shape, input shape): a non-square grid, a grid equal to the
# stencil, no batch axis, two leading axes, and the 1 -> 3 embedding.
KERNEL_CASES = [
    ((2, 2, 3, 3), (4, 2, 5, 7)),
    ((2, 2, 3, 3), (3, 2, 3, 3)),
    ((2, 2, 3, 3), (2, 6, 6)),
    ((2, 2, 3, 3), (2, 3, 2, 6, 5)),
    ((3, 1, 3, 3), (4, 1, 6, 6)),
    ((2, 3, 5, 5), (2, 3, 5, 6)),
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
        np.testing.assert_allclose(got, naive_batched(w, y), rtol=0, atol=1e-12)

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

    def test_empty_batch(self):
        w = np.ones((2, 2, 3, 3))
        assert bank_apply(w, np.zeros((0, 2, 4, 4))).shape == (0, 2, 4, 4)
        empty = np.zeros((0, 2, 4, 4))
        np.testing.assert_array_equal(tap_gradient(empty, empty, 3), 0.0)


class TestSymbol:
    def test_identity_symbol_all_ones(self):
        sym = stencil_symbol(Stencil.identity(3), Grid2D(4, 4))
        np.testing.assert_allclose(sym.values, 1.0, atol=1e-14)

    def test_zero_symbol(self):
        sym = stencil_symbol(Stencil.zeros(3), Grid2D(4, 4))
        np.testing.assert_allclose(sym.values, 0.0)

    def test_matches_dense_eigendecomposition(self):
        rng = np.random.default_rng(3)
        s = Stencil(rng.normal(size=(3, 3)))
        sym = stencil_symbol(s, Grid2D(6, 6))
        dense = dense_circulant(s.weights, 6, 6)
        eig = list(np.linalg.eigvals(dense))
        # multiset comparison: greedily match each symbol value to the
        # nearest remaining dense eigenvalue
        for v in sym.values.reshape(-1):
            dist = [abs(v - e) for e in eig]
            j = int(np.argmin(dist))
            assert dist[j] <= 1e-10
            eig.pop(j)

    def test_symmetric_stencil_real_symbol(self):
        rng = np.random.default_rng(4)
        w = rng.normal(size=(3, 3))
        w = w + w[::-1, ::-1]  # even under index negation
        sym = stencil_symbol(Stencil(w), Grid2D(8, 8))
        assert np.abs(sym.values.imag).max() <= 1e-12

    def test_grid_too_small(self):
        with pytest.raises(DimensionError):
            stencil_symbol(Stencil.identity(3), Grid2D(2, 2))


class TestStabilityReport:
    def test_zero_stencil(self):
        rep = stability_report(Stencil.zeros(3), Grid2D(4, 4), dt=0.3)
        assert rep.max_real == 0.0
        assert rep.spectral_radius_step == pytest.approx(1.0)

    def test_identity_stencil(self):
        rep = stability_report(Stencil.identity(3), Grid2D(4, 4), dt=1.0)
        assert rep.max_real == pytest.approx(1.0)
        assert rep.spectral_radius_step == pytest.approx(2.0)

    def test_antisymmetric_purely_imaginary(self):
        w = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 1.0], [0.0, -1.0, 0.0]])
        rep = stability_report(Stencil(w), Grid2D(8, 8), dt=0.1)
        assert abs(rep.max_real) <= 1e-12
        # dense cross-check that the whole spectrum really is imaginary
        eig = np.linalg.eigvals(dense_circulant(w, 8, 8))
        assert np.abs(eig.real).max() <= 1e-12


class TestCoarsenMap:
    def test_identity_fixed_point_constant_average(self):
        m = build_coarsen_map(3, CA)
        out = coarsen_stencil(Stencil.identity(3), m)
        np.testing.assert_allclose(out.weights, Stencil.identity(3).weights, atol=1e-13)

    def test_zero_maps_to_zero(self):
        m = build_coarsen_map(3, CA)
        out = coarsen_stencil(Stencil.zeros(3), m)
        np.testing.assert_allclose(out.weights, 0.0, atol=1e-15)

    @pytest.mark.parametrize("pair", [CA, FW], ids=["constant", "bilinear"])
    def test_matches_dense_galerkin_oracle(self, pair):
        m = build_coarsen_map(3, pair)
        rng = np.random.default_rng(5)
        for _ in range(5):
            w = rng.normal(size=(3, 3))
            got = coarsen_stencil(Stencil(w), m).weights
            want = galerkin_coarse_stencil(w, 16, 16, pair.kind.value)
            np.testing.assert_allclose(got, want, atol=1e-12)

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
        lhs = coarsen_stencil(Stencil(a * s1 + b * s2), m).weights
        rhs = a * coarsen_stencil(Stencil(s1), m).weights + b * coarsen_stencil(Stencil(s2), m).weights
        np.testing.assert_allclose(lhs, rhs, atol=1e-13)


class TestRefine:
    def test_identity_refines_to_identity(self):
        m = build_coarsen_map(3, CA)
        out = refine_stencil(Stencil.identity(3), m)
        np.testing.assert_allclose(out.weights, Stencil.identity(3).weights, atol=1e-12)

    @pytest.mark.parametrize("pair", [CA, FW], ids=["constant", "bilinear"])
    def test_roundtrip_identity(self, pair):
        m = build_coarsen_map(3, pair)
        rng = np.random.default_rng(7)
        for _ in range(20):
            s = Stencil(rng.normal(size=(3, 3)))
            back = refine_stencil(coarsen_stencil(s, m), m)
            np.testing.assert_allclose(back.weights, s.weights, atol=1e-10)

    def test_reference_coarse_roundtrip(self):
        m = build_coarsen_map(3, CA)
        fine = refine_stencil(Stencil(REFERENCE_COARSE), m)
        again = coarsen_stencil(fine, m)
        np.testing.assert_allclose(again.weights, REFERENCE_COARSE, atol=1e-10)

    def test_ill_conditioned_map_refuses_to_solve(self, monkeypatch):
        m = build_coarsen_map(3, CA)
        bad = CoarsenMap(
            k=m.k, kind=m.kind, matrix=m.matrix, cond=1e13, truncation_mass=0.0
        )
        with pytest.raises(IllPosedError):
            refine_stencil(Stencil.identity(3), bad)

    def test_size_mismatch(self):
        m = build_coarsen_map(3, CA)
        with pytest.raises(DimensionError):
            coarsen_stencil(Stencil.identity(5), m)

    def test_bank_refuses_ill_posed_maps(self):
        m = build_coarsen_map(3, CA)
        bank = StencilBank.identity(2)
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
        m = build_coarsen_map(3, FW)
        rng = np.random.default_rng(8)
        w = rng.normal(size=(1, 1, 3, 3))
        out = coarsen_bank(StencilBank(w), m)
        want = coarsen_stencil(Stencil(w[0, 0]), m).weights
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
                    coarse.weights[co, ci],
                    coarsen_stencil(Stencil(w[co, ci]), m).weights,
                    atol=1e-13,
                )
                np.testing.assert_allclose(refined.weights[co, ci], w[co, ci], atol=1e-10)


class TestGalerkinExactness:
    def test_operational_identity_on_random_stencils(self):
        # coarse operator applied to coarse data == restrict(fine op(prolonged data))
        from mgcnn.grid import prolong_values, restrict_values

        m = build_coarsen_map(3, CA)
        rng = np.random.default_rng(10)
        g_c = Grid2D(4, 4, 2.0)
        for _ in range(10):
            s = Stencil(rng.normal(size=(3, 3)))
            y = rng.normal(size=(4, 4))
            lhs = conv_apply(coarsen_stencil(s, m), Image(g_c, y)).values
            fine = conv_apply(Stencil(s.weights), Image(Grid2D(8, 8), prolong_values(y, CA.kind)))
            rhs = restrict_values(fine.values, CA.kind)
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)
