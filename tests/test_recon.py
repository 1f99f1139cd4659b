"""Ratio fields, Gram algebra, null-space extraction, and drift recovery."""

from __future__ import annotations

import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    laplace_coefficients,
    same_bits,
    traced_peak,
    unit_grid,
    whole_grid_analysis,
    workload_inputs,
)
from hiplab import recon
from hiplab.admissibility import check as check_admissibility
from hiplab.config import parse_config
from hiplab.errors import (
    DegeneracyError,
    InternalConsistencyError,
    MeasurementCountError,
    NonVanishingError,
)
from hiplab.forward import BoundaryTrace, CoefficientSet, solve_dirichlet
from hiplab.gauge import invariant_triple, resolve_generic
from hiplab.grids import (
    ScalarField,
    SymTensorField,
    VectorField,
    divide,
    gradient,
    sym_det,
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
from hiplab.synthesis import (
    MeasurementSet,
    Modality,
    NoiseSpec,
    add_noise,
    default_traces,
    synthesize,
)


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


def indefinite_sources(dim, sign="+", at=0.5):
    """Sources whose generator is ``diag(-(x - at), 1)`` up to scale
    (``diag(-(x - at), 1, 1)`` in 3-D): indefinite for x > ``at`` and
    degenerate on x = ``at``; sign ``-`` flips the first entry, and so
    the sides."""
    axes = "yz"[: dim - 1]
    cross = ["x*y"] if dim == 2 else ["x*y", "y*z", "x*z"]
    return ["1", "x", *axes, *cross] + [f"x^2 {sign} (x-{at})*{a}^2" for a in axes]


def basis_gradients(ms):
    """The whole-grid gradients of the first ``dim`` ratios of ``ms``."""
    return [gradient(v).values for v in recon.ratios(ms)[: ms.grid.dim]]


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
        inverse, det, singular = gram(basis_gradients(hand_measurements(grid, ["1", "x", "y"])))
        inside = grid.interior(2)
        eye = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert np.allclose(sym_to_full(inverse, 2)[inside], eye, atol=1e-12)
        assert np.allclose(det[inside], 1.0, atol=1e-12)
        assert not singular.any()

    def test_hand_inverse(self):
        grid = unit_grid(9)
        inverse, det, _ = gram(basis_gradients(hand_measurements(grid, ["1", "x", "x + y"])))
        inside = grid.interior(2)
        # the inverse of [[1, 1], [1, 2]], whose determinant is 1
        expect_inv = np.array([[2.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(sym_to_full(inverse, 2)[inside], expect_inv, atol=1e-12)
        assert np.allclose(det[inside], 1.0, atol=1e-12)

    def test_product_is_identity(self):
        grid = unit_grid(17)
        grads = basis_gradients(
            hand_measurements(grid, ["1", "x + 0.2*y^2", "y + 0.1*x^2"])
        )
        g = np.stack(grads, axis=-2)
        gram_matrix = g @ np.swapaxes(g, -1, -2)
        inside = grid.interior(2)
        prod = gram_matrix @ sym_to_full(gram(grads)[0], 2)
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
        return grid, whole_grid_analysis(
            hand_measurements(grid, ["1", "x", "y", "x*y", "x^2 - y^2"])
        )

    def test_hand_checked_weights(self):
        grid, ref = self.quintet()
        theta = ref.theta
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
        ref = whole_grid_analysis(
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
        theta = ref.theta
        grads = np.stack(ref.gradients, axis=-2)
        scale = float(np.max(np.abs(grads)))
        inside = grid.interior(2)
        for m in range(theta.shape[-2]):
            combo = np.einsum("...j,...jk->...k", theta[..., m, :], grads[..., :2, :])
            combo += grads[..., 2 + m, :]
            assert np.max(np.abs(combo[inside])) <= 1e-10 * scale

    def test_constraint_matrices_for_harmonic_quintet(self):
        grid, ref = self.quintet()
        mats = constraint_matrices(ref.hessians, ref.theta)
        inside = grid.interior(2)
        m1 = sym_to_full(mats[0], 2)
        m2 = sym_to_full(mats[1], 2)
        assert np.allclose(m1[inside], np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-10)
        assert np.allclose(m2[inside], np.array([[2.0, 0.0], [0.0, -2.0]]), atol=1e-10)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("c", ["0.5 + 0.2*x", "0.5 + 0.3*i*(1 + x)"])
    def test_constraint_matrices_match_the_full_width_weights_bitwise(self, dim, c):
        grid = unit_grid(17 if dim == 2 else 9, dim)
        ref = whole_grid_analysis(anisotropic_measurements(grid, c))
        extras = extra_count(dim)
        assert ref.theta.shape == grid.shape + (extras, dim)
        assert ref.theta.dtype == (np.float64 if "i" not in c else np.complex128)
        # the full-width weights (extras, dim + extras): the stored ones,
        # then each extra ratio's unit weight among stored zeros
        full = np.zeros(grid.shape + (extras, dim + extras), dtype=ref.theta.dtype)
        full[..., :dim] = ref.theta
        for m in range(extras):
            full[..., m, dim + m] = 1.0
        got = constraint_matrices(ref.hessians, ref.theta)
        for m in range(extras):
            want = np.zeros(grid.shape + (sym_size(dim),), dtype=full.dtype)
            for j in range(dim + extras):
                want += full[..., m, j][..., None] * ref.hessians[j]
            assert same_bits(got[m], want)


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

    @pytest.mark.parametrize("moved", [1e-3, np.nan])
    def test_moved_null_weight_fails_the_cancellation_check(self, monkeypatch, moved):
        """A null weight moved at one vertex, or made NaN there, leaves
        a residual the cancellation check reads and names the vertex of;
        the 17^2 grid is one slab."""
        grid, ms = self.harmonic_set()

        def moved_weights(gradients, inverse, _original=recon.null_weights):
            theta = _original(gradients, inverse)
            theta[8, 8, 0, 0] += moved
            return theta

        monkeypatch.setattr(recon, "null_weights", moved_weights)
        rs = analyze(ms)
        with pytest.raises(
            InternalConsistencyError, match=r"gradient cancellation failed: .* at vertex \(8, 8\)"
        ):
            reconstruct(ms, rs)

    @pytest.mark.parametrize(
        "functional, noise, error, text",
        [
            (0, None, NonVanishingError, r"\|H_1\| falls to nan .* at vertex \(7, 9\)"),
            (4, None, InternalConsistencyError, r"gradient cancellation failed: residual nan"),
            (
                4,
                NoiseSpec(1e-4),
                InternalConsistencyError,
                r"ratio 4 disagrees with its boundary quotient by 0\.000e\+00 "
                r"\(allowance nan, which is not finite\)$",
            ),
        ],
        ids=["H_1", "extra", "extra-noise"],
    )
    def test_nan_at_one_vertex_fails_its_check(self, functional, noise, error, text):
        """A NaN at one interior vertex of ``H_1``, or of an extra
        functional, fails the first check that reads it: every reading
        passes only by a comparison that NaN fails.  Under declared noise
        the NaN reaches the boundary-quotient allowance, and the refusal
        names the allowance, not only the reading, which did not fail."""
        grid, ms = self.harmonic_set()
        ms.noise = noise
        ms.functionals[functional].values[7, 9] = np.nan
        with pytest.raises(error, match=text):
            reconstruct(ms, analyze(ms))

    @pytest.mark.parametrize("corrupt", [None, "safe", "unsafe"])
    @pytest.mark.parametrize("factor", [1.0, 1.0 + 0.25j])
    def test_boundary_quotients_read_the_safe_vertices_only(self, corrupt, factor):
        """The trace of ``H_1`` vanishes on half of the face x = 0, whose
        vertices the boundary-quotient check skips.  Clean, with a
        corrupted trace at a checked vertex, or at a skipped one, the
        check raises exactly when, and with the text, the whole-grid
        formula below gives."""
        grid = unit_grid(17)
        sources = ["2 + x", "x", "y", "x*y", "x^2 - y^2"]
        x, y = grid.meshgrid()
        weight = factor * (1.0 + 0.5 * y) * ~((x == 0) & (y < 0.5))
        fields = [materialize_scalar(s, grid) for s in sources]
        traces = [BoundaryTrace(grid, f.values * weight) for f in fields]
        if corrupt == "safe":
            traces[3].values[16, 5] *= 1.0 + 1e-6
        elif corrupt == "unsafe":
            traces[2].values[0, 3] = 5.0
        ms = MeasurementSet(
            grid=grid,
            modality="generic",
            traces=traces,
            functionals=fields,
            weight=materialize_scalar("1", grid),
        )
        rs = analyze(ms)

        f1 = traces[0].values
        safe = grid.boundary_mask() & (np.abs(f1) > 1e-12 * float(np.max(np.abs(f1))))
        assert not safe[0, :8].any() and safe[0, 8:].all()
        failures = []
        for j, v in enumerate(rs.fields, start=1):
            expected = divide(np.where(safe, traces[j].values, 0), np.where(safe, f1, 1))
            got = np.where(safe, v.values, 0)
            scale = float(np.max(np.abs(expected))) + 1.0
            err = float(np.max(np.abs(got - expected)))
            if err > 1e-8 * scale:
                failures.append(
                    f"ratio {j} disagrees with its boundary quotient by {err:.3e} "
                    f"(allowance {1e-8 * scale:.3e})"
                )
        if corrupt == "safe":
            assert failures and failures[0].startswith("ratio 3 ")
            with pytest.raises(InternalConsistencyError) as info:
                recon._check_analysis(ms, rs)
            assert str(info.value) == f"[recon] {failures[0]}"
        else:
            assert not failures
            recon._check_analysis(ms, rs)

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


STAGES = (
    "ratios",
    "gram",
    "null_weights",
    "constraint_matrices",
    "diffusion_from_constraints",
    "drift_from_diffusion",
)


@pytest.mark.parametrize(
    "mode, once", [("matrix", STAGES), ("scalar", ("ratios", "gram", "drift_from_diffusion"))]
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
    """The analysis is one pass over slabs of whole axis-0 planes; each
    output and reading is that of the whole grid at once
    (:func:`conftest.whole_grid_analysis`), bit for bit, in one slab, in
    slabs of two planes with a one-plane remainder, and in one-plane
    slabs, whose first and last hold the grid's faces, where the
    closures read 4 planes."""

    def slabbed_runs(self, monkeypatch, ms, mode="matrix"):
        """Analysis, audit and reconstruction of ``ms`` at each of the
        three slab sizes, with the dtype of the direction of each slab in
        turn."""
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

            monkeypatch.setitem(recon._SLAB_BUDGET, grid.dim, vertices)
            monkeypatch.setattr(recon, "diffusion_from_constraints", recorded)
            rs = analyze(ms, mode)
            report = check_admissibility(ms, analysis=rs)
            runs.append((rs, report, reconstruct(ms, rs), dtypes))
        return runs

    def assert_whole_grid_bits(self, ms, runs, mode="matrix"):
        ref = whole_grid_analysis(ms, mode)
        for rs, report, nc, _ in runs:
            assert nc is rs.coefficients
            assert same_bits(nc.drift.values, ref.drift)
            assert same_bits(rs.gram_det, ref.gram_det)
            assert same_bits(rs.peaks, ref.peaks)
            assert same_bits(np.float64(rs.basis_margin), np.float64(ref.basis_margin))
            assert report.basis_margin == ref.basis_margin
            if mode == "scalar":
                assert rs.independence_margin is rs.cancellation is None
                continue
            assert same_bits(nc.diffusion.values, ref.direction)
            assert same_bits(nc.quality.values, ref.quality)
            assert same_bits(nc.degenerate, ref.degenerate)
            assert same_bits(
                np.float64(rs.independence_margin), np.float64(ref.independence_margin)
            )
            assert report.independence_margin == ref.independence_margin
            assert same_bits(np.float64(rs.cancellation[0]), np.float64(ref.cancellation[0]))
            assert rs.cancellation[1] == ref.cancellation[1]

    @pytest.mark.parametrize(
        "shape, count, planes",
        [
            ((257, 257), 18, 15),
            ((17, 17, 17), 4, 5),
            ((25, 25, 25), 13, 2),
            ((33, 33, 33), 33, 1),
        ],
    )
    def test_slab_budget_is_per_dimension(self, shape, count, planes):
        """2-D slabs hold at most 4096 vertices and 3-D slabs 1536: 257^2
        runs in 18 slabs of 15 planes or fewer, 17^3 in 4 of 5 or fewer,
        25^3 in 13 of 2 or fewer, and 33^3 in one-plane slabs; the slabs
        cover axis 0 in order."""
        slabs = list(recon._slabs(shape))
        assert len(slabs) == count
        assert [s.stop - s.start for s in slabs[:-1]] == [planes] * (count - 1)
        covered = np.concatenate([np.arange(shape[0])[s] for s in slabs])
        assert np.array_equal(covered, np.arange(shape[0]))

    @pytest.mark.parametrize("mode", ["matrix", "scalar"])
    @pytest.mark.parametrize(
        "dim, c",
        [
            (2, "0.5 + 0.2*x"),
            (2, "0.5 + 0.3*i*(1 + x)"),
            (3, "0.5 + 0.2*x"),
            (3, "0.5 + 0.3*i*(1 + x)"),
        ],
    )
    def test_slabs_give_the_whole_grid_bits(self, monkeypatch, dim, c, mode):
        grid = unit_grid(17 if dim == 2 else 9, dim)
        ms = anisotropic_measurements(grid, c)
        runs = self.slabbed_runs(monkeypatch, ms, mode)
        slabs = [1, grid.shape[0] // 2 + 1, grid.shape[0]] if mode == "matrix" else [0] * 3
        assert [len(dtypes) for *_, dtypes in runs] == slabs
        self.assert_whole_grid_bits(ms, runs, mode)

    def test_slabs_give_the_whole_grid_bits_on_a_non_cubic_qtat_box(self, monkeypatch):
        ms = qtat_measurements()
        runs = self.slabbed_runs(monkeypatch, ms)
        assert [len(dtypes) for *_, dtypes in runs] == [1, 7, 13]
        assert runs[0][2].diffusion.values.dtype == np.complex128
        self.assert_whole_grid_bits(ms, runs)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("sign", ["+", "-"])
    @pytest.mark.parametrize("dim, n", [(2, 17), (3, 9)])
    def test_degenerate_and_indefinite_slabs_keep_the_whole_grid_bits(
        self, monkeypatch, dim, n, sign
    ):
        """The generator of :func:`indefinite_sources` is positive
        definite on one side of x = 1/2, degenerate on the plane x = 1/2,
        which a one-plane slab holds alone, and indefinite on the other
        side, whose vertices are degenerate too.  No division in the pass
        warns there.  Every slab's direction, and the drift, stay real.
        The null space of each slab runs once."""
        grid = unit_grid(n, dim)
        ms = hand_measurements(grid, indefinite_sources(dim, sign))
        runs = self.slabbed_runs(monkeypatch, ms)
        nc = runs[0][2]
        direction, degenerate = nc.diffusion, nc.degenerate
        assert direction.values.dtype == nc.drift.values.dtype == np.float64
        half = n // 2
        indefinite = np.zeros(grid.shape, dtype=bool)
        indefinite[slice(half, None) if sign == "+" else slice(None, half + 1)] = True
        assert np.array_equal(degenerate, indefinite)
        assert np.isnan(direction.values[indefinite]).all()
        assert not np.isnan(direction.values[~indefinite]).any()
        assert runs[2][3] == [np.dtype(np.float64)] * n
        self.assert_whole_grid_bits(ms, runs)


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


def det_in_doubt(stack, q):
    """Whether rounding may put the determinant of the 2-D ``stack``'s
    generator, turned to a real positive trace, on either side of the
    imaginary axis, where the rule that flags ``Re det <= 0`` decides.
    The SVD's null vector moves by eps / ``q``; the trace phase
    amplifies that by up to ``|g| / |tr g|``, the det-one scale by up to
    ``|g|^2``, and det, quadratic in the generator ``g``, moves by twice
    that relative to ``|g|^2``.  A stack that the quality floor or a
    vanishing trace flags is not in doubt."""
    null, _ = svd_null_space(stack)
    raw = null / _TRACE_WEIGHTS[2]
    size, trace = np.linalg.norm(raw), sym_trace(raw, 2)
    if not (q > QUALITY_FLOOR and abs(trace) > 1e-8 * size):
        return False
    det = sym_det(raw * (np.conj(trace) / abs(trace)), 2)
    gain = 1.0 + size**2 + size / abs(trace)
    return abs(det.real) <= 128 * EPS / q * gain * size**2


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
        if det_in_doubt(stack, q):
            return  # too close to the imaginary axis to expect the same verdict
        assert np.array_equal(got_flags, ref_flags)
        if ref_flags[0, 0]:
            assert np.isnan(got).all()
            return
        d, r = got[0, 0], ref[0, 0]
        # the null vector moves by eps / quality; the trace phase and the
        # det-one scale amplify that by up to |direction|^2 and
        # |direction| / |trace|
        size = np.linalg.norm(r)
        gain = 1.0 + size**2 + size / abs(sym_trace(r, 2))
        assert np.max(np.abs(d - r)) <= 64 * EPS / q * gain * size

    def test_indefinite_generator_is_degenerate_on_both_paths(self):
        # aligned generator (0, 1, -1/sqrt 2), det -1/2
        stack = np.array([[1.0, 1j, 1j], [0.0, 1j, 1j]])
        for direction, quality, flags in both_paths(constraint_fields(unit_grid(5), stack)):
            assert quality[0, 0] > QUALITY_FLOOR
            assert flags.all()
            assert np.isnan(direction).all()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_spd_data_are_flagged_nowhere_and_stay_real(self, dim):
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
        ref = whole_grid_analysis(ms)
        direction, _, flags = diffusion_from_constraints(
            constraint_matrices(ref.hessians, ref.theta)
        )
        assert direction.dtype == np.float64
        assert not flags.any()
        assert np.max(np.abs(sym_det(direction, dim) - 1.0)) <= 64 * EPS

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


class TestIndefiniteGenerators:
    """A generator whose determinant has a non-positive real part is not
    the shape of an SPD diffusion: its vertex is degenerate, and the
    rest of the grid keeps real arithmetic."""

    # rows orthogonal, under the trace pairing, to diag(2, -1) in 2-D and
    # to diag(2, -1, 1) in 3-D: trace 2, det -2
    INDEFINITE_ROWS = {
        2: [[1.0, 2.0, 0.0], [0.0, 0.0, 1.0]],
        3: [
            [1.0, 2.0, 0.0, 0.0, 0.0, 0.0],
            [0.0, 1.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 0.0, 0.0, 1.0],
        ],
    }

    @pytest.mark.parametrize("dim", [2, 3])
    def test_one_indefinite_vertex_is_degenerate_and_the_rest_keep_their_bits(self, dim):
        grid = unit_grid(17 if dim == 2 else 9, dim)
        ref = whole_grid_analysis(anisotropic_measurements(grid, "0.5 + 0.2*x"))
        matrices = constraint_matrices(ref.hessians, ref.theta)
        at = (4,) * dim
        edited = [m.copy() for m in matrices]
        for m, row in zip(edited, self.INDEFINITE_ROWS[dim]):
            m[at] = row
        direction, quality, flags = diffusion_from_constraints(edited)
        plain, plain_quality, plain_flags = diffusion_from_constraints(matrices)
        assert quality[at] > QUALITY_FLOOR
        assert flags[at] and np.isnan(direction[at]).all()
        assert direction.dtype == plain.dtype == np.float64
        rest = np.ones(grid.shape, dtype=bool)
        rest[at] = False
        assert not plain_flags.any()
        assert same_bits(direction[rest], plain[rest])
        assert same_bits(quality[rest], plain_quality[rest])
        assert same_bits(flags[rest], plain_flags[rest])

    def test_a_minority_indefinite_set_runs_the_gauge_layer_in_real_arithmetic(self):
        """The hand set indefinite for x > 3/4 only: the invariant triple
        and the generic resolution run in float64 end to end."""
        grid = unit_grid(17)
        ms = hand_measurements(grid, indefinite_sources(2, at=0.75))
        nc = reconstruct(ms)
        x = grid.meshgrid()[0]
        assert np.array_equal(nc.degenerate, x >= 0.75)
        assert nc.diffusion.values.dtype == nc.drift.values.dtype == np.float64
        tri = invariant_triple(nc, ms.functionals[0])
        res = resolve_generic(
            tri,
            ms.functionals[0],
            ScalarField.constant(grid, 0.0),
            BoundaryTrace.from_expression(grid, "1"),
        )
        fields = [tri.shape, tri.vector_invariant, *res.fields.values()]
        assert [f.values.dtype for f in fields] == [np.dtype(np.float64)] * len(fields)
        assert np.isfinite(res.fields["weight_ratio"].values).all()


def elasto_3d_measurements(shape):
    """Data of the ``elasto-3d`` workload on ``shape``."""
    cfg, coeffs, modality, traces = workload_inputs("elasto-3d", shape)
    return synthesize(coeffs, modality, traces, cfg.solver())


@pytest.mark.parametrize(
    "measurements",
    [
        lambda: elasto_3d_measurements((33, 33, 33)),
        lambda: hand_measurements(unit_grid(33, 3), indefinite_sources(3)),
    ],
    ids=["elasto-3d", "indefinite"],
)
def test_slabbed_analysis_peaks_below_40_mb_at_33_cubed(measurements):
    """The traced peak of the 3-D analysis at 33^3.  On the ``elasto-3d``
    phantom: 65.3 MB while the null-space tail ran on the whole grid at
    once, 32.9 MB in slabs of at most 2048 vertices, 8.5 MB once the
    derivatives too are taken slab by slab.
    On the indefinite :func:`indefinite_sources`, whose direction was
    complex in some slabs only: 65.3 MB while such slabs sent the tail
    back to one whole-grid slab, 35.3 MB once a complex slab widened the
    gathered direction, 11.9 MB in the one slab pass, 8.5 MB once an
    indefinite vertex is degenerate and the direction stays real.  The
    40 MB bound lies between the first readings."""
    _, peak = traced_peak(recon.analyze, measurements())
    assert peak < 40e6


def test_slabbed_analysis_of_qpat_2d_data_peaks_below_21_mb():
    """The traced peak of the 2-D analysis of the ``qpat-2d-data``
    workload's noisy 257^2 set: 28.9 MB with the null-space tail on the
    whole grid at once, 19.8 MB in slabs of at most 2048 vertices, 20.4 MB
    in slabs of ``_SLAB_BUDGET[2]`` = 4096 and 21.5 MB in slabs of 8192,
    all with whole-grid derivatives; 8.9 MB in the one slab pass.
    The bound keeps 2-D slabs below the size at which ``qtat-2d-aniso``'s
    analysis would pass its ``reconstruct`` as the operation's highest
    stage."""
    cfg, coeffs, modality, traces = workload_inputs("qpat-2d-data", (257, 257))
    ms = add_noise(synthesize(coeffs, modality, traces, cfg.solver()), cfg.noise())
    _, peak = traced_peak(recon.analyze, ms)
    assert peak < 21e6


def test_analysis_frees_the_null_space_intermediates():
    """The null-space tail drops each per-vertex intermediate once the
    next one exists: the 3-D analysis peaked at 2057 bytes per vertex
    while the whole-grid tail held them all, and at 1865 once it
    dropped them; run in slabs, it measured 1032, and 338 once the
    derivatives too are taken slab by slab."""
    ms = elasto_3d_measurements((25, 25, 25))
    _, peak = traced_peak(recon.analyze, ms)
    assert peak <= 1950 * ms.grid.num_points


def test_analysis_through_reconstruction_peaks_below_63_mb_at_49_cubed():
    """The traced peak from the start of :func:`analyze` through the end
    of :func:`reconstruct`, the audit between them, on the ``elasto-3d``
    phantom at 49^3 after synthesis: 114.3 MB here and 126.2 MB in an
    earlier reading while the analysis kept every ratio's whole-grid
    gradient and Hessian, the Gram data and the null weights for the
    checks to read again; 24.6 MB in the one slab pass, which keeps the
    ratios, the direction, quality, degenerate mask, drift and ``|det|``
    of the Gram matrix.  The bound is half the higher former reading."""

    def audited(ms):
        rs = recon.analyze(ms)
        check_admissibility(ms, analysis=rs)
        return reconstruct(ms, rs)

    _, peak = traced_peak(audited, elasto_3d_measurements((49, 49, 49)))
    assert peak < 63e6
