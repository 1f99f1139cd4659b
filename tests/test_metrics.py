"""Sup-norm error metrics with derivative terms.

The three levels nest: C0 is the value sup, C1 adds the gradient sup,
C2 adds the Hessian sup, each computed with the pipeline's own stencils
and aggregated Euclidean/Frobenius style across components.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import same_bits, unit_grid
from hiplab import metrics
from hiplab.errors import MetricsError
from hiplab.grids import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    component_sum,
    gradient,
    hessian,
    sym_size,
    sym_weights,
)
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

    @pytest.mark.parametrize("value", [0.0, 1.0])
    def test_nan_error_reads_nan_against_any_reference(self, value):
        grid = unit_grid(9)
        cand = constant_scalar(grid, 0.0)
        cand.values[4, 4] = np.nan
        m = error_norms(cand, constant_scalar(grid, value), grid.interior(2))
        assert np.isnan([m.c0, m.c1, m.c2, m.c0_rel, m.c1_rel, m.c2_rel]).all()

    def test_to_dict_round_trips(self):
        grid = unit_grid(17)
        ref = constant_scalar(grid, 2.0)
        cand = ScalarField(grid, ref.values + 1.0)
        d = error_norms(cand, ref, everywhere(grid)).to_dict()
        assert set(d) == {
            "c0", "c1", "c2", "c0_rel", "c1_rel", "c2_rel", "region_fraction",
        }
        assert d["c0"] == 1.0


def whole_grid_levels(fld, region):
    """The levels as they were computed on the whole grid, with zero
    accumulators, ``np.abs(x) ** 2`` squares and every weight applied:
    the reference the box's levels must equal."""
    grid = fld.grid
    comps, weights = metrics._components(fld)

    val_sq = np.zeros(grid.shape)
    grad_sq = np.zeros(grid.shape)
    hess_sq = np.zeros(grid.shape)
    dim = grid.dim
    hess_weights = sym_weights(dim)
    for w, comp in zip(weights, comps):
        f = ScalarField(grid, comp)
        grad = gradient(f)
        hess = hessian(f, grad).values
        grad = grad.values
        val_sq += w * np.abs(comp) ** 2
        for ax in range(dim):
            grad_sq += w * np.abs(grad[..., ax]) ** 2
        hess_sq += w * component_sum(hess_weights * np.abs(hess) ** 2)
    return (
        float(np.sqrt(np.max(val_sq[region]))),
        float(np.sqrt(np.max(grad_sq[region]))),
        float(np.sqrt(np.max(hess_sq[region]))),
    )


def gathered_norms(cand, ref, mask):
    """The values of ``error_norms(cand, ref, mask).to_dict()`` with each
    maximum taken over the gathered vertices of the region, as
    :func:`whole_grid_levels` takes it."""
    grid = cand.grid
    d0, d1, d2 = whole_grid_levels(type(cand)(grid, cand.values - ref.values), mask)
    r0, r1, r2 = whole_grid_levels(ref, mask)
    errs = (d0, d0 + d1, d0 + d1 + d2)
    refs = (r0, r0 + r1, r0 + r1 + r2)
    fraction = float(np.count_nonzero(mask)) / grid.num_points
    return np.array([*errs, *(e / r for e, r in zip(errs, refs)), fraction])


def box_levels(fld, region):
    comps, weights = metrics._components(fld)
    box = metrics._box(region)
    return metrics._sup_levels(
        [c[box] for c in comps], weights, fld.grid.spacing, region[box]
    )


def random_field(grid, kind, dtype, rng):
    fields = {"scalar": ScalarField, "vector": VectorField, "tensor": SymTensorField}
    comps = {"scalar": (), "vector": (grid.dim,), "tensor": (sym_size(grid.dim),)}
    vals = rng.standard_normal(grid.shape + comps[kind])
    if dtype == "complex":
        vals = vals + 1j * rng.standard_normal(vals.shape)
    return fields[kind](grid, vals)


def region_of(grid, name, rng):
    if name == "interior":
        return grid.interior(2)
    if name == "interior minus flags":
        return grid.interior(2) & (rng.random(grid.shape) > 0.3)
    mask = np.zeros(grid.shape, dtype=bool)
    if name == "touches a face":
        mask[(slice(0, 3),) + (slice(2, 6),) * (grid.dim - 1)] = True
    else:  # a single vertex
        mask[(4,) + (1,) * (grid.dim - 1)] = True
    return mask


class TestBoxLevels:
    """Levels on the region's box equal the whole grid's, bit for bit."""

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["scalar", "vector", "tensor"])
    @pytest.mark.parametrize("dtype", ["real", "complex"])
    @pytest.mark.parametrize(
        "region", ["interior", "interior minus flags", "touches a face", "a single vertex"]
    )
    def test_box_levels_are_the_whole_grid_levels(self, dim, kind, dtype, region):
        # spacings that are not powers of two, so products round
        grid = Grid(
            bounds=((0.0, 1.3), (-0.2, 0.7), (0.1, 2.9))[:dim], shape=(11, 9, 10)[:dim]
        )
        rng = np.random.default_rng(dim * 1000 + len(kind) * 10 + len(region))
        fld = random_field(grid, kind, dtype, rng)
        mask = region_of(grid, region, rng)
        assert box_levels(fld, mask) == whole_grid_levels(fld, mask)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_box_holds_one_ring_and_five_points(self, dim):
        grid = unit_grid(12, dim)
        mask = np.zeros(grid.shape, dtype=bool)
        mask[(4,) + (0,) * (dim - 1)] = True
        mask[(6,) + (1,) * (dim - 1)] = True
        box = metrics._box(mask)
        assert box[0] == slice(3, 8)
        assert all(b == slice(0, 5) for b in box[1:])
        mask[:] = False
        mask[(11,) * dim] = True
        assert metrics._box(mask) == (slice(7, 12),) * dim

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("where", ["hole", "region"])
    def test_a_nan_counts_only_inside_the_region(self, dim, where):
        """The region is the trusted interior less a hole of radius 2
        about the centre.  A NaN at the centre lies in the region's box,
        and the stencils carry it no further than the hole, so every norm
        stays finite; a NaN at a vertex of the region makes every norm
        NaN.  Both as the gathered maxima give them."""
        grid = Grid(
            bounds=((0.0, 1.3), (-0.2, 0.7), (0.1, 2.9))[:dim], shape=(13, 12, 13)[:dim]
        )
        rng = np.random.default_rng(dim)
        cand = random_field(grid, "vector", "complex", rng)
        ref = random_field(grid, "vector", "real", rng)
        mask = grid.interior(2)
        mask[(slice(4, 9),) * dim] = False
        point = (6,) * dim if where == "hole" else (2,) * dim
        cand.values[point] = np.nan
        got = np.array(list(error_norms(cand, ref, mask).to_dict().values()))
        assert same_bits(got, gathered_norms(cand, ref, mask))
        assert np.isnan(got[:6]).all() == (where == "region")
        assert np.isfinite(got).all() == (where == "hole")

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["scalar", "vector", "tensor"])
    @pytest.mark.parametrize(
        "dtypes", [("complex", "real"), ("real", "real"), ("complex", "complex")]
    )
    def test_error_norms_keep_the_whole_grid_bits(self, dim, kind, dtypes):
        """On a region with holes, every norm is the one the gathered
        maxima of the whole grid's levels give, bit for bit, for every
        kind of field, real and complex."""
        grid = Grid(
            bounds=((0.0, 1.3), (-0.2, 0.7), (0.1, 2.9))[:dim], shape=(11, 9, 10)[:dim]
        )
        rng = np.random.default_rng(dim * 100 + len(kind) * 10 + len(dtypes[1]))
        cand = random_field(grid, kind, dtypes[0], rng)
        ref = random_field(grid, kind, dtypes[1], rng)
        mask = region_of(grid, "interior minus flags", rng)
        got = np.array(list(error_norms(cand, ref, mask).to_dict().values()))
        assert same_bits(got, gathered_norms(cand, ref, mask))
