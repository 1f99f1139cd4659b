"""Ratio fields, Gram algebra, null-space extraction, and drift recovery."""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import laplace_coefficients, unit_grid
from hiplab import recon
from hiplab.errors import (
    DegeneracyError,
    MeasurementCountError,
    NonVanishingError,
)
from hiplab.forward import BoundaryTrace, CoefficientSet, solve_dirichlet
from hiplab.grids import ScalarField, SymTensorField, VectorField, sym_to_full, sym_trace
from hiplab.phantoms import materialize_scalar
from hiplab.recon import (
    QUALITY_FLOOR,
    constraint_matrices,
    diffusion_from_constraints,
    extra_count,
    functional_budget,
    gram,
    null_weights,
    ratios,
    reconstruct,
    reconstruct_scalar_drift,
)
from hiplab.synthesis import MeasurementSet, Modality, default_traces, synthesize


def hand_measurements(grid, sources):
    """MeasurementSet whose functionals are sampled expressions.

    The traces carry the same expressions, so the boundary-quotient
    consistency check holds by construction.
    """
    traces = [BoundaryTrace.from_expression(grid, s) for s in sources]
    fields = [materialize_scalar(s, grid) for s in sources]
    return MeasurementSet(
        grid=grid,
        modality="generic",
        traces=traces,
        functionals=fields,
        weight=materialize_scalar("1", grid),
    )


class TestBudgets:
    def test_functional_counts(self):
        assert functional_budget(2) == 5
        assert functional_budget(3) == 9
        assert extra_count(2) == 2
        assert extra_count(3) == 5


class TestRatios:
    def test_harmonic_triple(self):
        grid = unit_grid(9)
        rs = ratios(hand_measurements(grid, ["1", "x", "y"]))
        x, y = grid.meshgrid()
        assert np.allclose(rs.fields[0].values, x, atol=1e-14)
        assert np.allclose(rs.fields[1].values, y, atol=1e-14)

    def weighted_set(self, grid, d):
        traces = [BoundaryTrace.from_expression(grid, s) for s in ("1", "x", "y")]
        fields = [
            ScalarField(grid, d * materialize_scalar(s, grid).values)
            for s in ("1", "x", "y")
        ]
        return MeasurementSet(
            grid=grid,
            modality="generic",
            traces=traces,
            functionals=fields,
            weight=ScalarField(grid, d.astype(np.complex128)),
        )

    def test_power_of_two_weight_cancels_bit_exactly(self):
        grid = unit_grid(9)
        x, _ = grid.meshgrid()
        rs = ratios(self.weighted_set(grid, np.full(grid.shape, 8.0)))
        assert np.array_equal(rs.fields[0].values.real, x)
        assert np.all(rs.fields[0].values.imag == 0.0)

    def test_smooth_weight_cancels_to_ulp_level(self):
        grid = unit_grid(9)
        x, _ = grid.meshgrid()
        d = 1.5 + 0.5 * np.sin(3 * x)
        rs = ratios(self.weighted_set(grid, d))
        assert np.max(np.abs(rs.fields[0].values - x)) < 4 * np.finfo(float).eps

    def test_qpat_ratios_match_hidden_solutions(self):
        grid = unit_grid(17)
        base = laplace_coefficients(grid)
        coeffs = CoefficientSet(
            a=base.a, b=base.b, c=materialize_scalar("0.5 + 0.2*x", grid)
        )
        traces = [
            BoundaryTrace.from_expression(grid, s) for s in ("2", "2 + x", "2 + y")
        ]
        ms = synthesize(coeffs, Modality.qpat(materialize_scalar("1", grid)), traces)
        rs = ratios(ms)
        u = [solve_dirichlet(coeffs, tr) for tr in traces]
        for k in (0, 1):
            hidden = u[k + 1].values / u[0].values
            assert np.max(np.abs(rs.fields[k].values - hidden)) < 1e-12

    def test_vanishing_h1_lists_a_vertex(self):
        grid = unit_grid(9)
        traces = [BoundaryTrace.from_expression(grid, s) for s in ("x", "1", "y")]
        fields = [materialize_scalar(s, grid) for s in ("x", "1", "y")]
        ms = MeasurementSet(
            grid=grid,
            modality="generic",
            traces=traces,
            functionals=fields,
            weight=materialize_scalar("1", grid),
        )
        with pytest.raises(NonVanishingError) as info:
            ratios(ms)
        assert "vertex" in str(info.value)


class TestGram:
    def test_orthonormal_pair(self):
        grid = unit_grid(9)
        gd = gram(ratios(hand_measurements(grid, ["1", "x", "y"])))
        inside = grid.interior(2).flags
        eye = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(sym_to_full(gd.gram.values, 2)[inside], eye, atol=1e-12)
        assert np.allclose(sym_to_full(gd.inverse.values, 2)[inside], eye, atol=1e-12)

    def test_hand_inverse(self):
        grid = unit_grid(9)
        gd = gram(ratios(hand_measurements(grid, ["1", "x", "x + y"])))
        inside = grid.interior(2).flags
        expect = np.array([[1.0, 1.0], [1.0, 2.0]])
        expect_inv = np.array([[2.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(sym_to_full(gd.gram.values, 2)[inside], expect, atol=1e-12)
        assert np.allclose(
            sym_to_full(gd.inverse.values, 2)[inside], expect_inv, atol=1e-12
        )

    def test_product_is_identity(self):
        grid = unit_grid(17)
        gd = gram(
            ratios(hand_measurements(grid, ["1", "x + 0.2*y^2", "y + 0.1*x^2"]))
        )
        inside = grid.interior(2).flags
        prod = sym_to_full(gd.gram.values, 2) @ sym_to_full(gd.inverse.values, 2)
        assert np.allclose(prod[inside], np.eye(2), atol=1e-10)

    def test_parallel_gradients_degenerate(self):
        grid = unit_grid(9)
        with pytest.raises(DegeneracyError):
            gram(ratios(hand_measurements(grid, ["1", "x", "2*x"])))


class TestScalarDrift:
    def test_harmonic_pair_gives_zero(self):
        grid = unit_grid(9)
        rs = ratios(hand_measurements(grid, ["1", "x", "y"]))
        out = reconstruct_scalar_drift(rs, gram(rs))
        inside = grid.interior(2).flags
        assert np.max(np.abs(out.values[inside])) < 1e-12

    def test_exponential_diffusion_leaves_only_log_derivative_drift(self):
        """With b = 0 the output is purely the gauge part of the drift.

        The ratio equation's first-order coefficient splits into the
        log-derivative of (diffusion times first solution squared) plus
        the diffusion-scaled drift.  Here the first trace is constant,
        so that solution is exactly constant and the split is known in
        closed form: subtracting it must leave zero at second order.
        """
        errs = []
        for n in (17, 33):
            grid = unit_grid(n)
            base = laplace_coefficients(grid)
            avals = np.exp(grid.meshgrid()[0])
            coeffs = CoefficientSet(
                a=SymTensorField(grid, base.a.values * avals[..., None]),
                b=base.b,
                c=base.c,
            )
            traces = [
                BoundaryTrace.from_expression(grid, s)
                for s in ("2", "2 + x", "2 + y")
            ]
            ms = synthesize(
                coeffs,
                Modality.generic(materialize_scalar("1", grid)),
                traces,
            )
            rs = ratios(ms)
            out = reconstruct_scalar_drift(rs, gram(rs))
            inside = grid.interior(2).flags
            gauge_part = np.zeros(grid.shape + (2,))
            gauge_part[..., 0] = 1.0
            errs.append(
                float(np.max(np.abs(out.values - gauge_part)[inside]))
            )
        assert errs[0] < 0.05
        assert errs[0] / errs[1] > 3.0

    def test_constant_drift_second_order_or_floor(self):
        errs = []
        for n in (17, 33, 65):
            grid = unit_grid(n)
            base = laplace_coefficients(grid)
            bvals = np.zeros(grid.shape + (2,))
            bvals[..., 0] = 0.3
            bvals[..., 1] = -0.1
            coeffs = CoefficientSet(
                a=base.a, b=VectorField(grid, bvals), c=base.c
            )
            traces = [
                BoundaryTrace.from_expression(grid, s)
                for s in ("2", "2 + x", "2 + y")
            ]
            ms = synthesize(
                coeffs, Modality.generic(materialize_scalar("1", grid)), traces
            )
            rs = ratios(ms)
            out = reconstruct_scalar_drift(rs, gram(rs))
            inside = grid.interior(2).flags
            errs.append(
                float(np.max(np.abs(out.values[inside] - bvals[inside])))
            )
        if max(errs) > 1e-8:
            rates = [
                np.log(errs[k] / errs[k + 1]) / np.log(2.0)
                for k in range(len(errs) - 1)
            ]
            assert min(rates) >= 1.5


class TestNullWeights:
    def quintet(self, n=9):
        grid = unit_grid(n)
        return grid, ratios(
            hand_measurements(grid, ["1", "x", "y", "x*y", "x^2 - y^2"])
        )

    def test_hand_checked_weights(self):
        grid, rs = self.quintet()
        theta = null_weights(rs, gram(rs))
        x, y = grid.meshgrid()
        inside = grid.interior(2).flags
        expect_1 = np.stack([-y, -x, np.ones_like(x), np.zeros_like(x)], axis=-1)
        expect_2 = np.stack(
            [-2 * x, 2 * y, np.zeros_like(x), np.ones_like(x)], axis=-1
        )
        assert np.allclose(theta[inside][:, 0, :], expect_1[inside], atol=1e-10)
        assert np.allclose(theta[inside][:, 1, :], expect_2[inside], atol=1e-10)

    def test_null_combination_residual(self):
        grid = unit_grid(17)
        rs = ratios(
            hand_measurements(
                grid,
                [
                    "1",
                    "x + 0.1*y^2",
                    "y + 0.2*x^2",
                    "x*y + 0.1*x",
                    "x^2 - y^2 + 0.2*y",
                ],
            )
        )
        theta = null_weights(rs, gram(rs))
        grads = np.stack([g.values for g in rs.gradients], axis=-2)
        scale = float(np.max(np.abs(grads)))
        inside = grid.interior(2).flags
        for m in range(theta.shape[-2]):
            combo = np.einsum("...j,...jk->...k", theta[..., m, :], grads)
            assert np.max(np.abs(combo[inside])) <= 1e-10 * scale

    def test_constraint_matrices_for_harmonic_quintet(self):
        grid, rs = self.quintet()
        theta = null_weights(rs, gram(rs))
        mats = constraint_matrices(rs, theta)
        inside = grid.interior(2).flags
        m1 = sym_to_full(mats[0].values, 2)
        m2 = sym_to_full(mats[1].values, 2)
        assert np.allclose(m1[inside], np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
        assert np.allclose(m2[inside], np.array([[2.0, 0.0], [0.0, -2.0]]), atol=1e-10)


class TestReconstruct:
    def harmonic_set(self, n=17):
        grid = unit_grid(n)
        return grid, hand_measurements(grid, ["1", "x", "y", "x*y", "x^2 - y^2"])

    def test_harmonic_identity_alpha_and_zero_beta(self):
        grid, ms = self.harmonic_set()
        nc = reconstruct(ms)
        inside = grid.interior(2).flags
        alpha = sym_to_full(nc.diffusion.values, 2)
        assert np.allclose(alpha[inside], np.eye(2), atol=1e-8)
        assert np.max(np.abs(nc.drift.values[inside])) < 1e-8
        assert not nc.degenerate[inside].any()

    def test_constant_anisotropic_diffusion(self):
        grid = unit_grid(17)
        base = laplace_coefficients(grid)
        avals = np.zeros(grid.shape + (3,))
        avals[..., 0] = 2.0
        avals[..., 1] = 0.5
        coeffs = CoefficientSet(a=SymTensorField(grid, avals), b=base.b, c=base.c)
        ms = synthesize(
            coeffs,
            Modality.generic(materialize_scalar("1", grid)),
            default_traces(grid, 5),
        )
        nc = reconstruct(ms)
        inside = grid.interior(2).flags & ~nc.degenerate
        alpha = sym_to_full(nc.diffusion.values, 2)
        expect = np.array([[2.0, 0.0], [0.0, 0.5]])
        assert np.max(np.abs(alpha[inside] - expect)) < 1e-6

    def test_determinant_is_one_everywhere_kept(self):
        grid = unit_grid(17)
        base = laplace_coefficients(grid)
        x, y = grid.meshgrid()
        avals = np.zeros(grid.shape + (3,))
        avals[..., 0] = 1.0 + 0.3 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.08)
        avals[..., 1] = 1.0
        coeffs = CoefficientSet(a=SymTensorField(grid, avals), b=base.b, c=base.c)
        ms = synthesize(
            coeffs,
            Modality.generic(materialize_scalar("1", grid)),
            default_traces(grid, 5),
        )
        nc = reconstruct(ms)
        kept = nc.mask.flags & ~nc.degenerate
        alpha = sym_to_full(nc.diffusion.values, 2)
        dets = np.linalg.det(alpha[kept])
        assert np.max(np.abs(dets - 1.0)) < 1e-8

    def test_coincident_constraints_flag_degenerate_points(self):
        grid = unit_grid(9)
        # duplicate the xy functional: M^2 becomes a multiple of M^1
        ms = hand_measurements(grid, ["1", "x", "y", "x*y", "2*x*y"])
        nc = reconstruct(ms)
        inside = grid.interior(2).flags
        assert nc.degenerate[inside].all()
        assert np.isnan(nc.diffusion.values[inside]).any()

    def test_short_sets_refused_by_mode(self):
        grid, ms = self.harmonic_set()
        short = MeasurementSet(
            grid=grid,
            modality=ms.modality,
            traces=ms.traces[:4],
            functionals=ms.functionals[:4],
            weight=ms.weight,
        )
        with pytest.raises(MeasurementCountError):
            reconstruct(short, mode="matrix")
        nc = reconstruct(short, mode="scalar")
        inside = grid.interior(2).flags
        assert np.max(np.abs(nc.drift.values[inside])) < 1e-10

    def test_scalar_reduction_matches_matrix_drift_combination(self):
        """Both drift routes agree on scalar-diffusion data.

        With a scalar, the det-one direction is the identity, so the
        matrix-mode drift equals the scalar formula's output.
        """
        grid = unit_grid(17)
        base = laplace_coefficients(grid)
        bvals = np.zeros(grid.shape + (2,))
        bvals[..., 0] = 0.2
        bvals[..., 1] = 0.1
        coeffs = CoefficientSet(a=base.a, b=VectorField(grid, bvals), c=base.c)
        ms = synthesize(
            coeffs,
            Modality.generic(materialize_scalar("1", grid)),
            default_traces(grid, 5),
        )
        nc = reconstruct(ms, mode="matrix")
        rs = ratios(ms)
        scalar = reconstruct_scalar_drift(rs, gram(rs))
        inside = grid.interior(2).flags & ~nc.degenerate
        assert np.max(np.abs(nc.drift.values[inside] - scalar.values[inside])) < 1e-10


EPS = np.finfo(float).eps
_TRACE_WEIGHTS = np.array([1.0, 1.0, np.sqrt(2.0)])


@st.composite
def constraint_stack(draw):
    """A complex 2x3 stack scaled by ``2**k``: general, exactly rank one
    (the second row is the first times a power of two and a unit from
    ``{1, -1, i, -i}``), or with one zero row."""
    entry = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    rows = np.array([[draw(entry) for _ in range(3)] for _ in range(2)])
    kind = draw(st.sampled_from(["general", "rank one", "zero row"]))
    if kind == "rank one":
        unit = draw(st.sampled_from([1, -1, 1j, -1j]))
        rows[1] = rows[0] * unit * 2.0 ** draw(st.integers(-20, 20))
    elif kind == "zero row":
        rows[draw(st.integers(0, 1))] = 0.0
    return rows * 2.0 ** draw(st.integers(-500, 500))


def constraint_fields(grid, stack):
    """Two constant constraint fields whose weighted rows are ``stack``."""
    return [
        SymTensorField(grid, np.broadcast_to(row / _TRACE_WEIGHTS, grid.shape + (3,)))
        for row in stack
    ]


class TestClosedFormNullSpace:
    """The 2-D cross-product null space against the SVD it replaces."""

    @given(stack=constraint_stack())
    # nearly orthogonal rows of equal norm: t^2 - 4 d cancels to zero
    @example(stack=np.array([[1.0, 0.0, 0.0], [1e-9, 1.0, 0.0]], dtype=complex))
    @settings(max_examples=300, deadline=None)
    def test_null_vector_and_quality_match_the_svd(self, stack):
        null, quality = recon._cross_null_space(stack)
        _, svd_quality = recon._svd_null_space(stack)
        # the null vector is the cross product of the rows scaled by a
        # power of two that brings the largest |entry| into [1/2, 1); it
        # annihilates both rows to rounding relative to the row sizes
        # (bounded without squaring, which would underflow), or to the
        # subnormal spacing where that product is subnormal
        _, e = np.frexp(np.max(np.abs(stack)))
        rows = np.ldexp(stack.real, -e) + 1j * np.ldexp(stack.imag, -e)
        sizes = np.sqrt(3.0) * np.max(np.abs(rows), axis=-1)
        bound = 16 * EPS * sizes * sizes[0] * sizes[1] + 8 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(rows @ null) <= bound)
        assert 0.0 <= quality <= 1.0 + 4 * EPS
        assert abs(quality - svd_quality) <= 8 * EPS

    @given(stack=constraint_stack())
    # a subnormal null vector, whose trace phase overflows if divided out
    @example(stack=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0**-1045 * 1j]]))
    @settings(max_examples=300, deadline=None)
    def test_direction_and_flags_match_the_svd_path(self, stack):
        grid = unit_grid(5)
        fields = constraint_fields(grid, stack)
        got, got_q, got_flags = diffusion_from_constraints(fields)
        with mock.patch.object(recon, "_cross_null_space", recon._svd_null_space):
            ref, ref_q, ref_flags = diffusion_from_constraints(fields)
        q = ref_q.values[0, 0].real
        if abs(q - QUALITY_FLOOR) <= QUALITY_FLOOR / 2:
            return  # too close to the floor to expect the same verdict
        assert np.array_equal(got_flags, ref_flags)
        if ref_flags[0, 0]:
            assert np.isnan(got.values).all()
            return
        d, r = got.values[0, 0], ref.values[0, 0]
        # the null vector moves by eps / quality; the trace phase and the
        # det-one scale amplify that by up to |direction|^2 and
        # |direction| / |trace|.  The scale's principal square root changes
        # sign across the negative real axis, where the determinant of an
        # indefinite generator lies, so the sign is compared up to that cut.
        size = np.linalg.norm(r)
        gain = 1.0 + size**2 + size / abs(sym_trace(r, 2))
        err = min(np.max(np.abs(d - r)), np.max(np.abs(d + r)))
        assert err <= 64 * EPS / q * gain * size

    def test_zero_and_coincident_rows_are_degenerate_without_warnings(self):
        grid = unit_grid(5)
        row = np.array([1.0, 2.0 - 1j, 0.5])
        for stack in (np.stack([row, 0 * row]), np.stack([row, row]), np.zeros((2, 3))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                direction, quality, degenerate = diffusion_from_constraints(
                    constraint_fields(grid, stack)
                )
            assert np.all(quality.values == 0.0)
            assert degenerate.all()
            assert np.isnan(direction.values).all()
