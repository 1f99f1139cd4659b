"""Ratio fields, Gram algebra, null-space extraction, and drift recovery."""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import laplace_coefficients, same_bits, traced_peak, unit_grid, workload_inputs
from hiplab import recon
from hiplab.config import parse_config
from hiplab.errors import (
    DegeneracyError,
    InternalConsistencyError,
    MeasurementCountError,
    NonVanishingError,
)
from hiplab.forward import BoundaryTrace, CoefficientSet, solve_dirichlet
from hiplab.grids import (
    ScalarField,
    SymTensorField,
    VectorField,
    sym_size,
    sym_to_full,
    sym_trace,
)
from hiplab.phantoms import materialize_scalar
from hiplab.recon import (
    QUALITY_FLOOR,
    analyze,
    constraint_matrices,
    diffusion_from_constraints,
    extra_count,
    functional_budget,
    gram,
    null_weights,
    reconstruct,
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


def whole_grid_weights(rs):
    """:func:`null_weights` of the whole grid of ``rs``."""
    return null_weights([g.values for g in rs.gradients], rs.gram_data.inverse.values)


def hessian_values(rs):
    return [h.values for h in rs.hessians]


def anisotropic_measurements(grid, c):
    """Five (2-D) or nine (3-D) functionals of a generic modality whose
    diffusion varies along x with an off-diagonal entry, for ``c``."""
    dim = grid.dim
    x = grid.meshgrid()[0].real
    avals = np.zeros(grid.shape + (sym_size(dim),))
    avals[..., 0] = 2.0 + x
    avals[..., 1:dim] = 0.5
    avals[..., -1] = 0.3 * x
    coeffs = CoefficientSet(
        a=SymTensorField(grid, avals),
        b=VectorField.zero(grid),
        c=materialize_scalar(c, grid),
    )
    return synthesize(
        coeffs,
        Modality.generic(materialize_scalar("1", grid)),
        default_traces(grid, functional_budget(dim)),
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
        rs = analyze(hand_measurements(grid, ["1", "x", "y"]), "scalar")
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
        rs = analyze(self.weighted_set(grid, np.full(grid.shape, 8.0)), "scalar")
        assert np.array_equal(rs.fields[0].values.real, x)
        assert np.all(rs.fields[0].values.imag == 0.0)

    def test_smooth_weight_cancels_to_ulp_level(self):
        grid = unit_grid(9)
        x, _ = grid.meshgrid()
        d = 1.5 + 0.5 * np.sin(3 * x)
        rs = analyze(self.weighted_set(grid, d), "scalar")
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
        rs = analyze(ms, "scalar")
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
            reconstruct(ms, analyze(ms, "scalar"))
        assert "vertex" in str(info.value)


class TestGram:
    def test_orthonormal_pair(self):
        grid = unit_grid(9)
        gd = gram(analyze(hand_measurements(grid, ["1", "x", "y"]), "scalar").gradients)
        inside = grid.interior(2)
        eye = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(sym_to_full(gd.inverse.values, 2)[inside], eye, atol=1e-12)
        assert np.allclose(gd.det[inside], 1.0, atol=1e-12)
        assert not gd.singular.any()

    def test_hand_inverse(self):
        grid = unit_grid(9)
        gd = gram(
            analyze(hand_measurements(grid, ["1", "x", "x + y"]), "scalar").gradients
        )
        inside = grid.interior(2)
        # the inverse of [[1, 1], [1, 2]], whose determinant is 1
        expect_inv = np.array([[2.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(
            sym_to_full(gd.inverse.values, 2)[inside], expect_inv, atol=1e-12
        )
        assert np.allclose(gd.det[inside], 1.0, atol=1e-12)

    def test_product_is_identity(self):
        grid = unit_grid(17)
        rs = analyze(
            hand_measurements(grid, ["1", "x + 0.2*y^2", "y + 0.1*x^2"]), "scalar"
        )
        g = np.stack([v.values for v in rs.gradients], axis=-2)
        gram_matrix = g @ np.swapaxes(g, -1, -2)
        inside = grid.interior(2)
        prod = gram_matrix @ sym_to_full(gram(rs.gradients).inverse.values, 2)
        assert np.allclose(prod[inside], np.eye(2), atol=1e-10)

    def test_parallel_gradients_degenerate(self):
        grid = unit_grid(9)
        ms = hand_measurements(grid, ["1", "x", "2*x"])
        with pytest.raises(DegeneracyError):
            reconstruct(ms, analyze(ms, "scalar"))


class TestScalarDrift:
    def test_harmonic_pair_gives_zero(self):
        grid = unit_grid(9)
        ms = hand_measurements(grid, ["1", "x", "y"])
        out = reconstruct(ms, analyze(ms, "scalar")).drift
        inside = grid.interior(2)
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
            out = reconstruct(ms, analyze(ms, "scalar")).drift
            inside = grid.interior(2)
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
            out = reconstruct(ms, analyze(ms, "scalar")).drift
            inside = grid.interior(2)
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
        return grid, analyze(
            hand_measurements(grid, ["1", "x", "y", "x*y", "x^2 - y^2"])
        )

    def test_hand_checked_weights(self):
        grid, rs = self.quintet()
        theta = whole_grid_weights(rs)
        x, y = grid.meshgrid()
        inside = grid.interior(2)
        # the weights of the basis ratios x, y; each extra ratio's own
        # weight is 1 and is not stored
        assert theta.shape == grid.shape + (extra_count(2), 2)
        expect_1 = np.stack([-y, -x], axis=-1)
        expect_2 = np.stack([-2 * x, 2 * y], axis=-1)
        assert np.allclose(theta[inside][:, 0, :], expect_1[inside], atol=1e-10)
        assert np.allclose(theta[inside][:, 1, :], expect_2[inside], atol=1e-10)

    def test_null_combination_residual(self):
        grid = unit_grid(17)
        rs = analyze(
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
        theta = whole_grid_weights(rs)
        grads = np.stack([g.values for g in rs.gradients], axis=-2)
        scale = float(np.max(np.abs(grads)))
        inside = grid.interior(2)
        for m in range(theta.shape[-2]):
            combo = np.einsum("...j,...jk->...k", theta[..., m, :], grads[..., :2, :])
            combo += grads[..., 2 + m, :]
            assert np.max(np.abs(combo[inside])) <= 1e-10 * scale

    def test_constraint_matrices_for_harmonic_quintet(self):
        grid, rs = self.quintet()
        mats = constraint_matrices(hessian_values(rs), whole_grid_weights(rs))
        inside = grid.interior(2)
        m1 = sym_to_full(mats[0], 2)
        m2 = sym_to_full(mats[1], 2)
        assert np.allclose(m1[inside], np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
        assert np.allclose(m2[inside], np.array([[2.0, 0.0], [0.0, -2.0]]), atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("c", ["0.5 + 0.2*x", "0.5 + 0.3*i*(1 + x)"])
    def test_constraint_matrices_match_the_full_width_weights_bitwise(self, dim, c):
        grid = unit_grid(17 if dim == 2 else 9, dim)
        rs = analyze(anisotropic_measurements(grid, c))
        extras = extra_count(dim)
        assert rs.theta.shape == grid.shape + (extras, dim)
        assert rs.theta.dtype == (np.float64 if "i" not in c else np.complex128)
        # the full-width weights (extras, dim + extras): the stored ones,
        # then each extra ratio's unit weight among stored zeros
        full = np.zeros(grid.shape + (extras, dim + extras), dtype=rs.theta.dtype)
        full[..., :dim] = rs.theta
        for m in range(extras):
            full[..., m, dim + m] = 1.0
        got = constraint_matrices(hessian_values(rs), rs.theta)
        for m in range(extras):
            ref = np.zeros(grid.shape + (sym_size(dim),), dtype=full.dtype)
            for j in range(dim + extras):
                ref += full[..., m, j][..., None] * rs.hessians[j].values
            assert same_bits(got[m], ref)


class TestReconstruct:
    def harmonic_set(self, n=17):
        grid = unit_grid(n)
        return grid, hand_measurements(grid, ["1", "x", "y", "x*y", "x^2 - y^2"])

    def test_harmonic_identity_alpha_and_zero_beta(self):
        grid, ms = self.harmonic_set()
        nc = reconstruct(ms)
        inside = grid.interior(2)
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
        inside = grid.interior(2) & ~nc.degenerate
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
        kept = nc.inside & ~nc.degenerate
        alpha = sym_to_full(nc.diffusion.values, 2)
        dets = np.linalg.det(alpha[kept])
        assert np.max(np.abs(dets - 1.0)) < 1e-8

    def test_coincident_constraints_flag_degenerate_points(self):
        grid = unit_grid(9)
        # duplicate the xy functional: M^2 becomes a multiple of M^1
        ms = hand_measurements(grid, ["1", "x", "y", "x*y", "2*x*y"])
        nc = reconstruct(ms)
        inside = grid.interior(2)
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
            reconstruct(short)
        nc = reconstruct(short, analyze(short, "scalar"))
        inside = grid.interior(2)
        assert np.max(np.abs(nc.drift.values[inside])) < 1e-10

    def test_moved_null_weight_fails_the_cancellation_check(self):
        grid, ms = self.harmonic_set()
        rs = analyze(ms)
        rs.theta[8, 8, 0, 0] += 1e-3
        with pytest.raises(InternalConsistencyError, match="gradient cancellation failed"):
            reconstruct(ms, rs)

    def test_unknown_mode_is_refused_by_the_analysis(self):
        _, ms = self.harmonic_set(9)
        with pytest.raises(MeasurementCountError, match="bogus"):
            analyze(ms, mode="bogus")

    def test_mode_and_margin_come_from_the_analysis(self):
        grid, ms = self.harmonic_set()
        scalar = analyze(ms, "scalar", margin=4)
        nc = reconstruct(ms, scalar)
        assert scalar.mode == "scalar"
        assert np.array_equal(nc.inside, grid.interior(4))
        assert np.array_equal(nc.diffusion.values, SymTensorField.identity(grid).values)

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
        nc = reconstruct(ms)
        scalar = reconstruct(ms, analyze(ms, "scalar")).drift
        inside = grid.interior(2) & ~nc.degenerate
        assert np.max(np.abs(nc.drift.values[inside] - scalar.values[inside])) < 1e-10


STAGES = ("ratios", "gram", "null_weights", "constraint_matrices", "diffusion_from_constraints")


@pytest.mark.parametrize(
    "mode, once", [("matrix", STAGES), ("scalar", ("ratios", "gram"))]
)
def test_analysis_runs_each_stage_once_and_reconstruction_none(monkeypatch, mode, once):
    """Each stage is computed by its own function, once per analysis of
    a grid that is one slab, and the reconstruction only checks and
    reads what it was handed; the stages are counted through the
    module's names, as the benchmark's tracer rebinds them."""
    counts = dict.fromkeys(STAGES, 0)
    for name in STAGES:
        original = getattr(recon, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(recon, name, counted)
    grid = unit_grid(9)
    ms = hand_measurements(grid, ["1", "x", "y", "x*y", "x^2 - y^2"])
    expected = {name: int(name in once) for name in STAGES}
    rs = analyze(ms, mode)
    assert counts == expected
    reconstruct(ms, rs)
    assert counts == expected


def qtat_measurements():
    """A 3-D qtat set on a 13x12x11 box with anisotropic ``a`` and complex ``c``."""
    cfg = parse_config(
        {
            "schema_version": 1,
            "grid": {"bounds": [[0.0, 1.0]] * 3, "shape": [13, 12, 11]},
            "coefficients": {
                "a": [
                    "3*(1 + 0.2*x)",
                    "1 + 0.1*y",
                    "1.5 + 0.1*z",
                    "0.2*x*(1-x)*y*(1-y)",
                    "0.1*y*(1-y)*z*(1-z)",
                    "0.15*x*(1-x)*z*(1-z)",
                ],
                "c": "0.5 + 0.2*i*(1 + x*y)",
            },
            "modality": {"name": "qtat", "gamma": "1 + 0.1*x*y"},
            "traces": {"corner_compatible": True},
            "study": {"type": "single"},
        }
    )
    grid = cfg.grid_for()
    coeffs = cfg.coefficients(grid)
    return synthesize(coeffs, cfg.modality(grid), cfg.traces(grid, coeffs), cfg.solver())


class TestSlabs:
    """The per-vertex tail of the analysis runs over slabs of whole
    axis-0 planes; every output is that of one whole-grid slab, bit for
    bit."""

    def slabbed_runs(self, monkeypatch, ms):
        """Analysis and reconstruction of ``ms`` in one slab, in slabs of
        two planes with a one-plane remainder, and in one-plane slabs;
        with the dtype of the direction of each slab in turn."""
        grid = ms.grid
        assert grid.shape[0] % 2 == 1
        plane = grid.num_points // grid.shape[0]
        tail = recon.diffusion_from_constraints
        runs = []
        for vertices in (grid.num_points, 2 * plane + 1, 1):
            dtypes = []

            def recorded(matrices, _dtypes=dtypes):
                out = tail(matrices)
                _dtypes.append(out[0].dtype)
                return out

            monkeypatch.setattr(recon, "_SLAB_VERTICES", vertices)
            monkeypatch.setattr(recon, "diffusion_from_constraints", recorded)
            rs = analyze(ms)
            runs.append((rs, reconstruct(ms, rs), dtypes))
        return runs

    def assert_same_bits(self, runs):
        (ref, ref_nc, _), *rest = runs
        for rs, nc, _ in rest:
            assert same_bits(rs.theta, ref.theta)
            for got, want in zip(rs.null_space, ref.null_space):
                assert same_bits(getattr(got, "values", got), getattr(want, "values", want))
            for name in ("diffusion", "drift", "quality"):
                assert same_bits(getattr(nc, name).values, getattr(ref_nc, name).values)
            assert same_bits(nc.degenerate, ref_nc.degenerate)

    @pytest.mark.parametrize(
        "dim, c",
        [
            (2, "0.5 + 0.2*x"),
            (2, "0.5 + 0.3*i*(1 + x)"),
            (3, "0.5 + 0.2*x"),
            (3, "0.5 + 0.3*i*(1 + x)"),
        ],
    )
    def test_slabs_give_the_bits_of_one_slab(self, monkeypatch, dim, c):
        grid = unit_grid(17 if dim == 2 else 9, dim)
        runs = self.slabbed_runs(monkeypatch, anisotropic_measurements(grid, c))
        assert [len(dtypes) for _, _, dtypes in runs] == [1, grid.shape[0] // 2 + 1, grid.shape[0]]
        self.assert_same_bits(runs)

    def test_slabs_give_the_bits_of_one_slab_on_a_non_cubic_qtat_box(self, monkeypatch):
        runs = self.slabbed_runs(monkeypatch, qtat_measurements())
        assert [len(dtypes) for _, _, dtypes in runs] == [1, 7, 13]
        assert runs[0][0].null_space[0].values.dtype == np.complex128
        self.assert_same_bits(runs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_degenerate_and_indefinite_slabs_keep_the_bits_of_one_slab(self, monkeypatch):
        """The generator is ``diag(-(x - 1/2), 1)`` up to scale: positive
        definite left of x = 1/2, where a slab's direction is real,
        indefinite right of it, where the negative det makes it complex,
        and degenerate on the plane x = 1/2, which a one-plane slab holds
        alone.  No division in the tail warns there.  The first slab right
        of that plane has a complex direction where the ones before it
        were real, so the tail is redone as one slab."""
        grid = unit_grid(17)
        ms = hand_measurements(grid, ["1", "x", "y", "x*y", "x^2 + (x-0.5)*y^2"])
        runs = self.slabbed_runs(monkeypatch, ms)
        direction, _, degenerate = runs[0][0].null_space
        assert direction.values.dtype == np.complex128
        assert degenerate[8].all() and np.isnan(direction.values[8]).all()
        elsewhere = np.ones(grid.shape, dtype=bool)
        elsewhere[8] = False
        assert not degenerate[elsewhere].any()
        one_plane = [np.dtype(np.float64)] * 9 + [np.dtype(np.complex128)] * 2
        assert runs[2][2] == one_plane
        self.assert_same_bits(runs)


EPS = np.finfo(float).eps
_TRACE_WEIGHTS = {
    2: np.array([1.0, 1.0, np.sqrt(2.0)]),
    3: np.array([1.0, 1.0, 1.0, np.sqrt(2.0), np.sqrt(2.0), np.sqrt(2.0)]),
}


def svd_null_space(stack):
    """Reference for ``recon._cross_null_space``: the right singular
    vector of the smallest singular value of each stack, and the gap
    ``s_min / s_max`` (0 for a zero stack)."""
    _, sing, vh = np.linalg.svd(stack, full_matrices=True)
    top = sing[..., 0]
    bottom = sing[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        quality = np.where(top > 0, bottom / np.where(top > 0, top, 1.0), 0.0)
    return np.conj(vh[..., -1, :]), quality


@st.composite
def constraint_stack(draw, rows_count=2):
    """A complex ``m x (m + 1)`` stack scaled by ``2**k``: general,
    exactly rank deficient (one row is another times a power of two and
    a unit from ``{1, -1, i, -i}``), or with one zero row."""
    entry = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    rows = np.array(
        [[draw(entry) for _ in range(rows_count + 1)] for _ in range(rows_count)]
    )
    kind = draw(st.sampled_from(["general", "rank deficient", "zero row"]))
    index = st.integers(0, rows_count - 1)
    if kind == "rank deficient":
        unit = draw(st.sampled_from([1, -1, 1j, -1j]))
        src, dst = draw(index), draw(index)
        if src == dst:
            dst = (src + 1) % rows_count
        rows[dst] = rows[src] * unit * 2.0 ** draw(st.integers(-20, 20))
    elif kind == "zero row":
        rows[draw(index)] = 0.0
    return rows * 2.0 ** draw(st.integers(-500, 500))


def constraint_fields(grid, stack):
    """Constant constraint matrices on ``grid`` whose weighted rows are ``stack``."""
    weights = _TRACE_WEIGHTS[grid.dim]
    return [np.broadcast_to(row / weights, grid.shape + (len(weights),)) for row in stack]


def scaled_rows(stack):
    """``stack`` scaled by the power of two that brings its largest
    ``|entry|`` into [1/2, 1), as ``_cross_null_space`` scales it."""
    _, e = np.frexp(np.max(np.abs(stack)))
    return np.ldexp(stack.real, -e) + 1j * np.ldexp(stack.imag, -e)


def both_paths(fields):
    """``diffusion_from_constraints`` on its own null space and on the SVD's."""
    got = diffusion_from_constraints(fields)
    with mock.patch.object(recon, "_cross_null_space", svd_null_space):
        ref = diffusion_from_constraints(fields)
    return got, ref


class TestClosedFormNullSpace:
    """The 2-D cross-product null space against the SVD it replaces."""

    @given(stack=constraint_stack())
    # nearly orthogonal rows of equal norm: t^2 - 4 d cancels to zero
    @example(stack=np.array([[1.0, 0.0, 0.0], [1e-9, 1.0, 0.0]], dtype=complex))
    @settings(max_examples=300, deadline=None)
    def test_null_vector_and_quality_match_the_svd(self, stack):
        null, quality = recon._cross_null_space(stack.copy())
        _, svd_quality = svd_null_space(stack)
        # the null vector is the cross product of the rows scaled by a
        # power of two that brings the largest |entry| into [1/2, 1); it
        # annihilates both rows to rounding relative to the row sizes
        # (bounded without squaring, which would underflow), or to the
        # subnormal spacing where that product is subnormal
        rows = scaled_rows(stack)
        sizes = np.sqrt(3.0) * np.max(np.abs(rows), axis=-1)
        bound = 16 * EPS * sizes * sizes[0] * sizes[1] + 8 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(rows @ null) <= bound)
        assert 0.0 <= quality <= 1.0 + 4 * EPS
        assert abs(quality - svd_quality) <= 8 * EPS

    @given(stack=constraint_stack())
    # a subnormal null vector, whose trace phase overflows if divided out
    @example(stack=np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 2.0**-1045 * 1j]]))
    # an indefinite generator whose det lies on the negative real axis
    @example(stack=np.array([[1.0, 1j, 1j], [0.0, 1j, 1j]]))
    @settings(max_examples=300, deadline=None)
    def test_direction_and_flags_match_the_svd_path(self, stack):
        grid = unit_grid(5)
        (got, _, got_flags), (ref, ref_q, ref_flags) = both_paths(
            constraint_fields(grid, stack)
        )
        q = ref_q[0, 0]
        if abs(q - QUALITY_FLOOR) <= QUALITY_FLOOR / 2:
            return  # too close to the floor to expect the same verdict
        assert np.array_equal(got_flags, ref_flags)
        if ref_flags[0, 0]:
            assert np.isnan(got).all()
            return
        d, r = got[0, 0], ref[0, 0]
        # the null vector moves by eps / quality; the trace phase and the
        # det-one scale amplify that by up to |direction|^2 and
        # |direction| / |trace|
        size = np.linalg.norm(r)
        trace = sym_trace(r, 2)
        gain = 1.0 + size**2 + size / abs(trace)
        err = np.max(np.abs(d - r))
        # the root's branch is fixed inside a band around the negative
        # real axis, where trace(r) is imaginary; only at the band's edge
        # may the two paths' rounding land on opposite sides
        cosine = abs(trace.real) / abs(trace)
        edge = recon._CUT_BAND / 2 * size**2 / q
        if edge / 8 <= cosine <= 8 * edge:
            err = min(err, np.max(np.abs(d + r)))
        assert err <= 64 * EPS / q * gain * size

    def test_indefinite_generator_takes_the_upper_root_on_both_paths(self):
        # aligned generator (0, 1, -1/sqrt 2), det -1/2: the root is
        # i/sqrt 2 however det's imaginary part rounds
        stack = np.array([[1.0, 1j, 1j], [0.0, 1j, 1j]])
        (got, _, _), (ref, _, _) = both_paths(constraint_fields(unit_grid(5), stack))
        expect = np.array([0.0, -1j * np.sqrt(2.0), 1j])
        for direction in (got, ref):
            assert np.max(np.abs(direction[0, 0] - expect)) <= 16 * EPS

    @pytest.mark.parametrize("dim", [2, 3])
    def test_fixing_the_branch_leaves_spd_data_bitwise_unchanged(self, dim):
        n = 17 if dim == 2 else 9
        grid = unit_grid(n, dim)
        base = laplace_coefficients(grid)
        x = grid.meshgrid()[0].real
        avals = np.zeros(grid.shape + (3 * dim - 3,))
        avals[..., 0] = 2.0 + x
        avals[..., 1:dim] = 0.5
        avals[..., -1] = 0.3 * x
        coeffs = CoefficientSet(a=SymTensorField(grid, avals), b=base.b, c=base.c)
        ms = synthesize(
            coeffs,
            Modality.generic(materialize_scalar("1", grid)),
            default_traces(grid, functional_budget(dim)),
        )
        rs = recon.analyze(ms)
        mats = constraint_matrices(hessian_values(rs), rs.theta)
        direction, _, flags = diffusion_from_constraints(mats)
        with mock.patch.object(recon, "_CUT_BAND", -1.0):
            plain, _, plain_flags = diffusion_from_constraints(mats)
        assert not flags[rs.inside].any()
        assert np.array_equal(flags, plain_flags)
        assert np.array_equal(
            direction.view(np.float64), plain.view(np.float64), equal_nan=True
        )

    def test_zero_and_coincident_rows_are_degenerate_without_warnings(self):
        grid = unit_grid(5)
        row = np.array([1.0, 2.0 - 1j, 0.5])
        for stack in (np.stack([row, 0 * row]), np.stack([row, row]), np.zeros((2, 3))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                direction, quality, degenerate = diffusion_from_constraints(
                    constraint_fields(grid, stack)
                )
            assert np.all(quality == 0.0)
            assert degenerate.all()
            assert np.isnan(direction).all()


class TestWedgeNullSpace:
    """The 3-D generalized cross product and Gram gap against the SVD."""

    @given(stack=constraint_stack(rows_count=5))
    @settings(max_examples=200, deadline=None)
    def test_null_vector_quality_and_flags_match_the_svd(self, stack):
        null, quality = recon._cross_null_space(stack.copy())
        svd_null, svd_quality = svd_null_space(stack)
        rows = scaled_rows(stack)
        sizes = np.linalg.norm(rows, axis=-1)
        # each 5x5 minor is bounded by the product of the row sizes
        # (Hadamard) and carries rounding relative to that bound
        bound = 256 * EPS * sizes * np.prod(sizes) + 64 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(rows @ null) <= bound)
        # the Gram matrix squares the singular values: their ratio agrees
        # with the SVD's to eps in its square, not in itself
        assert 0.0 <= quality <= 1.0 + 4 * EPS
        assert abs(quality**2 - svd_quality**2) <= 32 * EPS
        length = np.linalg.norm(null)
        if svd_quality > 0 and length > 0:
            # parallel to the SVD's null vector, up to eps / gap
            across = null - np.vdot(svd_null, null) * svd_null
            assert np.linalg.norm(across) <= 64 * EPS / svd_quality * length
        if abs(svd_quality - QUALITY_FLOOR) <= QUALITY_FLOOR / 2:
            return  # too close to the floor to expect the same verdict
        (_, _, got_flags), (_, _, ref_flags) = both_paths(
            constraint_fields(unit_grid(5, 3), stack)
        )
        assert np.array_equal(got_flags, ref_flags)

    def test_non_finite_stacks_are_degenerate(self):
        stack = np.ones((5, 6), dtype=complex)
        stack[2, 3] = np.nan
        _, quality = recon._cross_null_space(stack[None].copy())
        assert np.isnan(quality).all()
        _, _, flags = diffusion_from_constraints(constraint_fields(unit_grid(5, 3), stack))
        assert flags.all()


def test_slabbed_analysis_peaks_below_40_mb_at_33_cubed():
    """The traced peak of the 3-D analysis on the ``elasto-3d`` phantom
    at 33^3: 65.3 MB while the null-space tail ran on the whole grid at
    once, 32.9 MB in slabs of at most ``_SLAB_VERTICES`` = 2048
    vertices.  The 40 MB bound lies between the two readings."""
    cfg, coeffs, modality, traces = workload_inputs("elasto-3d", (33, 33, 33))
    ms = synthesize(coeffs, modality, traces, cfg.solver())
    _, peak = traced_peak(recon.analyze, ms)
    assert peak < 40e6


def test_analysis_frees_the_null_space_intermediates():
    """The null-space tail drops each per-vertex intermediate once the
    next one exists: the 3-D analysis peaked at 2057 bytes per vertex
    while the whole-grid tail held them all, and at 1865 once it
    dropped them; run in slabs, it measures 1032."""
    cfg, coeffs, modality, traces = workload_inputs("elasto-3d", (25, 25, 25))
    ms = synthesize(coeffs, modality, traces, cfg.solver())
    _, peak = traced_peak(recon.analyze, ms)
    assert peak <= 1950 * ms.grid.num_points
