"""Sup-norm error metrics with derivative terms.

The three levels nest: C0 is the value sup, C1 adds the gradient sup,
C2 adds the Hessian sup, each computed with the pipeline's own stencils
and aggregated Euclidean/Frobenius style across components.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import unit_grid
from hiplab.errors import MetricsError
from hiplab.grids import ScalarField, SymTensorField, VectorField
from hiplab.metrics import error_norms


def everywhere(grid):
    return np.ones(grid.shape, dtype=bool)


def constant_scalar(grid, value):
    return ScalarField.constant(grid, value)


class TestExactCases:
    def test_identical_fields_give_zeros(self):
        grid = unit_grid(17)
        x = grid.meshgrid()[0].real
        f = ScalarField(grid, np.sin(3 * x))
        m = error_norms(f, f, everywhere(grid))
        assert m.c0 == 0.0
        assert m.c1 == 0.0
        assert m.c2 == 0.0
        assert m.c0_rel == 0.0
        assert m.c1_rel == 0.0
        assert m.c2_rel == 0.0
        assert m.region_fraction == 1.0

    def test_constant_offset_keeps_all_levels_at_one(self):
        # derivatives of a constant vanish exactly on the stencils
        grid = unit_grid(17)
        ref = constant_scalar(grid, 0.7)
        cand = ScalarField(grid, ref.values + 1.0)
        m = error_norms(cand, ref, everywhere(grid))
        assert m.c0 == 1.0
        assert m.c1 == 1.0
        assert m.c2 == 1.0

    def test_complex_offset_uses_modulus(self):
        grid = unit_grid(17)
        ref = constant_scalar(grid, 1.0)
        cand = ScalarField(grid, ref.values + 1j)
        m = error_norms(cand, ref, everywhere(grid))
        assert m.c0 == 1.0
        assert m.c2 == 1.0

    def test_absolute_norms_are_symmetric(self):
        grid = unit_grid(17)
        x, y = (c.real for c in grid.meshgrid())
        f = ScalarField(grid, np.sin(2 * x) * y)
        g = ScalarField(grid, np.cos(x + y))
        ab = error_norms(f, g, everywhere(grid))
        ba = error_norms(g, f, everywhere(grid))
        assert ab.c0 == ba.c0
        assert ab.c1 == ba.c1
        assert ab.c2 == ba.c2


class TestDerivativeWeighting:
    @pytest.mark.parametrize("delta", [1e-3, 1e-5])
    def test_oscillation_is_amplified_by_its_frequency(self, delta):
        # sin(10x) perturbation: gradient sup ~ 10 delta, Hessian sup
        # ~ 100 delta, so C2 ~ 100 delta (1 + o(1)) and the levels nest.
        grid = unit_grid(33)
        x = grid.meshgrid()[0].real
        ref = constant_scalar(grid, 0.3)
        cand = ScalarField(grid, ref.values + delta * np.sin(10 * x))
        m = error_norms(cand, ref, everywhere(grid))
        assert 0.0 <= m.c0 <= m.c1 <= m.c2
        assert m.c0 == pytest.approx(delta, rel=1e-3)
        assert 100 * delta < m.c2 < 115 * delta

    def test_levels_scale_linearly_in_amplitude(self):
        grid = unit_grid(33)
        x = grid.meshgrid()[0].real
        ref = constant_scalar(grid, 0.3)
        ms = [
            error_norms(
                ScalarField(grid, ref.values + d * np.sin(10 * x)), ref, everywhere(grid)
            )
            for d in (1e-3, 1e-5)
        ]
        assert ms[0].c2 / ms[1].c2 == pytest.approx(100.0, rel=1e-6)

    def test_ordering_holds_for_generic_fields(self):
        grid = unit_grid(17)
        rng = np.random.default_rng(11)
        vals = rng.standard_normal(grid.shape)
        zero = constant_scalar(grid, 0.0)
        m = error_norms(ScalarField(grid, vals), zero, everywhere(grid))
        assert 0.0 <= m.c0 <= m.c1 <= m.c2


class TestComponentAggregation:
    def test_vector_error_is_euclidean(self):
        grid = unit_grid(17)
        ref = VectorField.zero(grid)
        vals = np.zeros(grid.shape + (2,))
        vals[..., 0] = 3.0
        vals[..., 1] = 4.0
        m = error_norms(VectorField(grid, vals), ref, everywhere(grid))
        assert m.c0 == pytest.approx(5.0, rel=1e-14)

    def test_off_diagonal_tensor_entry_counts_twice(self):
        grid = unit_grid(17)
        zero = SymTensorField(grid, np.zeros(grid.shape + (3,)))
        off = np.zeros(grid.shape + (3,))
        off[..., 2] = 1.0  # the (1, 2) slot of the symmetric layout
        m = error_norms(SymTensorField(grid, off), zero, everywhere(grid))
        assert m.c0 == pytest.approx(np.sqrt(2.0), rel=1e-14)
        diag = np.zeros(grid.shape + (3,))
        diag[..., 0] = 1.0
        m = error_norms(SymTensorField(grid, diag), zero, everywhere(grid))
        assert m.c0 == pytest.approx(1.0, rel=1e-14)


class TestRegions:
    def test_mask_restricts_the_sup(self):
        grid = unit_grid(17)
        x = grid.meshgrid()[0].real
        ref = constant_scalar(grid, 0.0)
        cand = ScalarField(grid, x.copy())
        full = error_norms(cand, ref, everywhere(grid))
        assert full.c0 == pytest.approx(1.0, rel=1e-14)
        half = error_norms(cand, ref, mask=x <= 0.5)
        assert half.c0 == pytest.approx(0.5, rel=1e-14)
        assert half.region_fraction == pytest.approx(9 / 17, rel=1e-12)

    def test_interior_mask_object_is_accepted(self):
        grid = unit_grid(17)
        ref = constant_scalar(grid, 0.0)
        cand = constant_scalar(grid, 1.0)
        m = error_norms(cand, ref, mask=grid.interior(2))
        assert m.region_fraction == pytest.approx((13 / 17) ** 2, rel=1e-12)

    def test_exclude_removes_flagged_vertices(self):
        grid = unit_grid(17)
        x = grid.meshgrid()[0].real
        ref = constant_scalar(grid, 0.0)
        cand = ScalarField(grid, x.copy())
        flagged = x > 0.5
        m = error_norms(cand, ref, mask=everywhere(grid) & ~flagged)
        assert m.c0 == pytest.approx(0.5, rel=1e-14)
        assert m.region_fraction == pytest.approx(9 / 17, rel=1e-12)

    def test_empty_region_is_an_error(self):
        grid = unit_grid(17)
        f = constant_scalar(grid, 1.0)
        with pytest.raises(MetricsError, match="empty"):
            error_norms(f, f, mask=np.zeros(grid.shape, dtype=bool))
        flagged = everywhere(grid)
        with pytest.raises(MetricsError, match="empty"):
            error_norms(f, f, mask=grid.interior(2) & ~flagged)


class TestValidation:
    def test_type_mismatch_rejected(self):
        grid = unit_grid(17)
        with pytest.raises(MetricsError, match="compare"):
            error_norms(
                constant_scalar(grid, 1.0), VectorField.zero(grid), everywhere(grid)
            )

    def test_grid_mismatch_rejected(self):
        a = constant_scalar(unit_grid(17), 1.0)
        b = constant_scalar(unit_grid(33), 1.0)
        with pytest.raises(MetricsError, match="grid"):
            error_norms(a, b, everywhere(a.grid))

    def test_mask_shape_mismatch_rejected(self):
        grid = unit_grid(17)
        f = constant_scalar(grid, 1.0)
        with pytest.raises(MetricsError, match="shape"):
            error_norms(f, f, mask=np.ones((3, 3), dtype=bool))


class TestRelativeNorms:
    def test_relative_divides_by_reference_norm(self):
        grid = unit_grid(17)
        ref = constant_scalar(grid, 2.0)
        cand = ScalarField(grid, ref.values + 1.0)
        m = error_norms(cand, ref, everywhere(grid))
        assert m.c0_rel == pytest.approx(0.5, rel=1e-14)
        assert m.c2_rel == pytest.approx(0.5, rel=1e-14)

    def test_vanishing_reference_gives_infinity(self):
        grid = unit_grid(17)
        zero = constant_scalar(grid, 0.0)
        cand = constant_scalar(grid, 1.0)
        m = error_norms(cand, zero, everywhere(grid))
        assert m.c0_rel == float("inf")
        m0 = error_norms(zero, zero, everywhere(grid))
        assert m0.c0_rel == 0.0

    def test_to_dict_round_trips(self):
        grid = unit_grid(17)
        ref = constant_scalar(grid, 2.0)
        cand = ScalarField(grid, ref.values + 1.0)
        d = error_norms(cand, ref, everywhere(grid)).to_dict()
        assert set(d) == {
            "c0", "c1", "c2", "c0_rel", "c1_rel", "c2_rel", "region_fraction",
        }
        assert d["c0"] == 1.0
