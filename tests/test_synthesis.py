"""Internal-functional synthesis, noise injection, and persistence."""

from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from conftest import bump, laplace_coefficients, same_bits, unit_grid
from hiplab import grids
from hiplab.config import parse_config
from hiplab.errors import ConfigurationError, NonVanishingError
from hiplab.forward import BoundaryTrace, CoefficientSet, solve_dirichlet
from hiplab.grids import (
    ScalarField,
    SymTensorField,
    VectorField,
    divide,
    gradient,
    hessian,
)
from hiplab.metrics import error_norms
from hiplab.phantoms import materialize_scalar
from hiplab.synthesis import (
    MeasurementSet,
    Modality,
    NoiseSpec,
    add_noise,
    compatible_traces,
    default_traces,
    load_measurements,
    save_measurements,
    synthesize,
)


class TestDefaultTraces:
    def test_two_dimensional_pool(self):
        grid = unit_grid(5)
        traces = default_traces(grid, 5)
        assert len(traces) == 5
        x, y = grid.meshgrid()
        expect = [np.ones_like(x), x, y, x * y, x**2 - y**2]
        for tr, vals in zip(traces, expect):
            assert np.allclose(tr.values, vals)

    def test_three_dimensional_pool(self):
        grid = unit_grid(5, dim=3)
        traces = default_traces(grid, 9)
        assert len(traces) == 9

    def test_scalar_pipeline_prefix(self):
        grid = unit_grid(5)
        traces = default_traces(grid, 3)
        x, y = grid.meshgrid()
        for tr, vals in zip(traces, [np.ones_like(x), x, y]):
            assert np.allclose(tr.values, vals)

    def test_unsupported_count_rejected(self):
        grid = unit_grid(5)
        with pytest.raises(ConfigurationError):
            default_traces(grid, 11)


class TestSynthesize:
    def test_elastography_harmonic_traces_exact(self):
        grid = unit_grid(9)
        ms = synthesize(
            laplace_coefficients(grid),
            Modality.elastography(),
            default_traces(grid, 3),
        )
        x, y = grid.meshgrid()
        assert np.max(np.abs(ms.functionals[0].values - 1.0)) < 1e-12
        assert np.max(np.abs(ms.functionals[1].values - x)) < 1e-12
        assert np.max(np.abs(ms.functionals[2].values - y)) < 1e-12

    def test_generic_weight_scales_functionals(self):
        grid = unit_grid(9)
        ms = synthesize(
            laplace_coefficients(grid),
            Modality.generic(materialize_scalar("2", grid)),
            default_traces(grid, 3),
        )
        x, y = grid.meshgrid()
        assert np.max(np.abs(ms.functionals[0].values - 2.0)) < 1e-12
        assert np.max(np.abs(ms.functionals[1].values - 2 * x)) < 1e-12
        assert np.max(np.abs(ms.functionals[2].values - 2 * y)) < 1e-12

    def test_qpat_functional_is_gamma_c_u(self):
        grid = unit_grid(17)
        base = laplace_coefficients(grid)
        cvals = bump(grid, (0.5, 0.5), 0.08, 0.4)
        coeffs = CoefficientSet(
            a=base.a, b=base.b, c=ScalarField(grid, cvals.astype(np.complex128))
        )
        gamma = materialize_scalar("1 + 0.2*x", grid)
        traces = [BoundaryTrace.from_expression(grid, s) for s in ("2", "2 + x")]
        traces += [BoundaryTrace.from_expression(grid, "2 + y")]
        ms = synthesize(coeffs, Modality.qpat(gamma), traces)
        for tr, h in zip(traces, ms.functionals):
            u = solve_dirichlet(coeffs, tr)
            assert np.max(np.abs(h.values - gamma.values * cvals * u.values)) < 1e-12

    def test_qtat_weight_uses_first_solution(self):
        grid = unit_grid(17)
        base = laplace_coefficients(grid)
        x, y = grid.meshgrid()
        cvals = 0.4 + 0.1 * x + 1j * (0.3 + 0.1 * np.sin(2 * y))
        coeffs = CoefficientSet(a=base.a, b=base.b, c=ScalarField(grid, cvals))
        gamma = materialize_scalar("1", grid)
        traces = [BoundaryTrace.from_expression(grid, s) for s in ("2", "2 + x", "2 + y")]
        ms = synthesize(coeffs, Modality.qtat(gamma), traces)
        u1 = solve_dirichlet(coeffs, traces[0])
        expect = cvals.imag * np.conj(u1.values) * u1.values
        assert np.max(np.abs(ms.functionals[0].values - expect)) < 1e-12

    def test_qtat_quotient_reproduces_solution_ratio(self):
        grid = unit_grid(17)
        base = laplace_coefficients(grid)
        x, y = grid.meshgrid()
        coeffs = CoefficientSet(
            a=base.a,
            b=base.b,
            c=ScalarField(grid, 0.3 + 0.2 * x + 1j * (0.25 + 0.1 * y)),
        )
        traces = [BoundaryTrace.from_expression(grid, s) for s in ("2", "2 + x", "2 + y")]
        ms = synthesize(coeffs, Modality.qtat(materialize_scalar("1", grid)), traces)
        u1 = solve_dirichlet(coeffs, traces[0])
        u2 = solve_dirichlet(coeffs, traces[1])
        h1, h2 = ms.functionals[0].values, ms.functionals[1].values
        lhs = h2 * np.conj(h1) / np.abs(h1) ** 2
        assert np.max(np.abs(lhs - u2.values / u1.values)) < 1e-10

    def test_too_few_traces_rejected(self):
        grid = unit_grid(9)
        with pytest.raises(ConfigurationError):
            synthesize(
                laplace_coefficients(grid),
                Modality.elastography(),
                default_traces(grid, 3)[:2],
            )

    def test_elastography_refuses_drift(self):
        grid = unit_grid(9)
        base = laplace_coefficients(grid)
        bvals = np.zeros(grid.shape + (2,))
        bvals[..., 0] = 0.5
        coeffs = CoefficientSet(a=base.a, b=VectorField(grid, bvals), c=base.c)
        with pytest.raises(ConfigurationError):
            synthesize(coeffs, Modality.elastography(), default_traces(grid, 3))

    def test_vanishing_first_functional_raises_with_vertex(self):
        grid = unit_grid(9)
        traces = [
            BoundaryTrace.from_expression(grid, s) for s in ("x", "1", "y")
        ]
        with pytest.raises(NonVanishingError) as info:
            synthesize(laplace_coefficients(grid), Modality.elastography(), traces)
        assert "vertex" in str(info.value)

    @pytest.mark.parametrize(
        "modality, what",
        [(Modality.generic, "generic weight")],
        ids=["generic-weight"],
    )
    def test_nan_fails_the_floor_with_its_vertex(self, modality, what):
        # a NaN in the generic weight fails its floor by a comparison NaN fails
        grid = unit_grid(17)
        field = materialize_scalar("1", grid)
        field.values[7, 9] = np.nan
        coeffs = CoefficientSet(
            a=laplace_coefficients(grid).a,
            b=VectorField.zero(grid),
            c=ScalarField.constant(grid, 1.0),
        )
        text = rf"^\[synthesis\] {what} falls to nan .* at vertex \(7, 9\)$"
        with pytest.raises(NonVanishingError, match=text):
            synthesize(coeffs, modality(field), default_traces(grid, 3))

    @pytest.mark.parametrize(
        "modality, nan_in, what",
        [
            (Modality.qpat, "gamma", "gamma"),
            (Modality.qtat, "gamma", "gamma"),
            (Modality.qpat, "c", r"qpat absorption \(c\)"),
        ],
        ids=["qpat-gamma", "qtat-gamma", "qpat-c"],
    )
    def test_nan_real_positive_field_is_refused_with_its_vertex(
        self, modality, nan_in, what
    ):
        # a NaN gamma or qpat c is refused as not finite, naming its vertex,
        # before the realness and positivity tests, which NaN would slip past
        grid = unit_grid(17)
        gamma = materialize_scalar("1", grid)
        c = materialize_scalar("1 + i" if modality is Modality.qtat else "1", grid)
        {"gamma": gamma, "c": c}[nan_in].values[7, 9] = np.nan
        coeffs = CoefficientSet(
            a=laplace_coefficients(grid).a, b=VectorField.zero(grid), c=c
        )
        text = rf"^{what} is not finite at vertex \(7, 9\)$"
        with pytest.raises(ConfigurationError, match=text):
            synthesize(coeffs, modality(gamma), default_traces(grid, 3))

    def test_d_cancellation_in_ratios(self):
        grid = unit_grid(17)
        coeffs = laplace_coefficients(grid)
        traces = [
            BoundaryTrace.from_expression(grid, s) for s in ("2", "2 + x", "2 + y")
        ]
        weights = (
            materialize_scalar("1", grid),
            materialize_scalar("1 + 0.4*x*y + 0.2*sin(3*x)", grid),
        )
        ratio_sets = []
        for w in weights:
            ms = synthesize(coeffs, Modality.generic(w), traces)
            h1 = ms.functionals[0].values
            ratio_sets.append([h.values / h1 for h in ms.functionals[1:]])
        for left, right in zip(*ratio_sets):
            assert np.max(np.abs(left - right)) < 4 * np.finfo(float).eps


class TestNoise:
    def make_measurements(self, n=17):
        grid = unit_grid(n)
        return synthesize(
            laplace_coefficients(grid),
            Modality.elastography(),
            [
                BoundaryTrace.from_expression(grid, s)
                for s in ("2", "2 + x", "2 + y")
            ],
        )

    @pytest.mark.parametrize(
        "spec",
        [
            {"amplitude": float("nan")},
            {"amplitude": 0.0, "correlation_length": float("nan")},
            {"amplitude": float("inf")},
            {"amplitude": 0.0, "correlation_length": float("inf")},
        ],
    )
    def test_non_finite_parameters_rejected(self, spec):
        with pytest.raises(ConfigurationError, match="must be finite and >= 0"):
            NoiseSpec(**spec)

    def test_zero_amplitude_is_bit_exact_identity(self):
        ms = self.make_measurements()
        noisy = add_noise(ms, NoiseSpec(amplitude=0.0, correlation_length=0.1, seed=4))
        for before, after in zip(ms.functionals, noisy.functionals):
            assert np.array_equal(before.values, after.values)

    def test_same_seed_is_deterministic(self):
        ms = self.make_measurements()
        spec = NoiseSpec(amplitude=1e-3, correlation_length=0.1, seed=7)
        one = add_noise(ms, spec)
        two = add_noise(ms, spec)
        for left, right in zip(one.functionals, two.functionals):
            assert np.array_equal(left.values, right.values)
        other = add_noise(ms, NoiseSpec(amplitude=1e-3, correlation_length=0.1, seed=8))
        assert not np.array_equal(
            one.functionals[0].values, other.functionals[0].values
        )

    def test_perturbation_scales_linearly_in_amplitude(self):
        ms = self.make_measurements(33)
        mask = ms.grid.interior(2)
        spec1 = NoiseSpec(amplitude=1e-3, correlation_length=0.1, seed=5)
        spec2 = NoiseSpec(amplitude=2e-3, correlation_length=0.1, seed=5)
        d1 = error_norms(
            add_noise(ms, spec1).functionals[0], ms.functionals[0], mask=mask
        ).c2
        d2 = error_norms(
            add_noise(ms, spec2).functionals[0], ms.functionals[0], mask=mask
        ).c2
        assert d2 / d1 == pytest.approx(2.0, rel=0.01)

    def test_noise_amplitude_is_relative_to_sup_norm(self):
        ms = self.make_measurements()
        spec = NoiseSpec(amplitude=1e-3, correlation_length=0.1, seed=6)
        noisy = add_noise(ms, spec)
        for before, after in zip(ms.functionals, noisy.functionals):
            delta = np.max(np.abs(after.values - before.values))
            top = np.max(np.abs(before.values))
            assert delta <= 1e-3 * top * (1 + 1e-12)
            assert delta >= 0.5e-3 * top


class TestCompatibleTraces:
    def corner_mismatch(self, coeffs, trace):
        """The equation's value at a corner, applied to the datum."""
        from hiplab.grids import gradient, hessian, sym_to_full

        grid = coeffs.grid
        f = ScalarField(grid, trace.values)
        grad_f = gradient(f).values
        hess_f = sym_to_full(hessian(f).values, grid.dim)
        a_full = coeffs.a.full()
        out = []
        for idx in ((0, 0), (0, -1), (-1, 0), (-1, -1)):
            second = np.trace(a_full[idx] @ hess_f[idx])
            drift = np.sum(coeffs.b.values[idx] * grad_f[idx])
            out.append(second + drift + coeffs.c.values[idx] * f.values[idx])
        return np.array(out)

    def test_corner_mismatch_vanishes_under_refinement(self):
        """The raw datum keeps an O(1) corner defect; the fixed one loses it.

        The correction cancels the continuum-level mismatch, so measuring
        it with one-sided stencils leaves only truncation error that dies
        with the grid, while the uncorrected datum's defect never moves.
        """
        raw_levels, fixed_levels = [], []
        for n in (17, 33, 65):
            grid = unit_grid(n)
            base = laplace_coefficients(grid)
            coeffs = CoefficientSet(
                a=base.a,
                b=base.b,
                c=materialize_scalar("0.5 + 0.25*x + 0.1*y", grid),
            )
            raw = [BoundaryTrace.from_expression(grid, "2 + x^2")]
            fixed = compatible_traces(coeffs, raw)
            raw_levels.append(np.max(np.abs(self.corner_mismatch(coeffs, raw[0]))))
            fixed_levels.append(
                np.max(np.abs(self.corner_mismatch(coeffs, fixed[0])))
            )
        assert min(raw_levels) > 1.0
        assert max(raw_levels) / min(raw_levels) < 1.01
        assert fixed_levels[0] > fixed_levels[1] > fixed_levels[2]
        assert fixed_levels[2] < 0.05 * raw_levels[2]

    def test_correction_is_corner_localized(self):
        grid = unit_grid(33)
        base = laplace_coefficients(grid)
        coeffs = CoefficientSet(
            a=base.a, b=base.b, c=materialize_scalar("1", grid)
        )
        raw = BoundaryTrace.from_expression(grid, "2 + x")
        fixed = compatible_traces(coeffs, [raw])[0]
        diff = np.abs(fixed.values - raw.values)
        x, y = grid.meshgrid()
        r2 = np.minimum.reduce(
            [(x - cx) ** 2 + (y - cy) ** 2 for cx in (0, 1) for cy in (0, 1)]
        )
        peak_r2 = float(r2.flat[int(np.argmax(diff))])
        # the bump 0.25 r^2 exp(-r^2/s) peaks at r^2 = s = 0.1
        assert peak_r2 < 4 * 0.1
        assert diff[16, 16] < 0.5 * np.max(diff)
        # each bump vanishes at its own corner; only e^{-1/s} tails remain
        assert diff[0, 0] < 0.01 * np.max(diff)

    def test_off_diagonal_corner_diffusion_rejected(self):
        grid = unit_grid(17)
        full = np.zeros(grid.shape + (3,))
        full[..., 0] = 1.0
        full[..., 1] = 1.0
        full[..., 2] = 0.3
        coeffs = CoefficientSet(
            a=SymTensorField(grid, full),
            b=laplace_coefficients(grid).b,
            c=laplace_coefficients(grid).c,
        )
        with pytest.raises(ConfigurationError):
            compatible_traces(coeffs, [BoundaryTrace.from_expression(grid, "1")])


def full_grid_compatible_traces(coeffs, traces):
    """The corner correction from full-grid gradients and Hessians of
    every trace and of every ``a_kk``, read at the corners: the
    evaluation :func:`compatible_traces` must reproduce bit for bit."""
    grid = coeffs.a.grid
    dim = grid.dim
    side = min(b[1] - b[0] for b in grid.bounds)
    sharpness = 0.1 * side * side
    mesh = grid.meshgrid()
    corner_data = []
    for pt in itertools.product(*[(b[0], b[1]) for b in grid.bounds]):
        idx = tuple(
            0 if pt[ax] == grid.bounds[ax][0] else grid.shape[ax] - 1
            for ax in range(dim)
        )
        r2 = sum((mesh[ax].real - pt[ax]) ** 2 for ax in range(dim))
        corner_bump = 0.25 * r2 * np.exp(-r2 / sharpness)
        corner_data.append((idx, coeffs.a.values[idx][:dim], corner_bump))
    grad_a = [
        gradient(ScalarField(grid, coeffs.a.entry(k, k))).values for k in range(dim)
    ]
    out = []
    for tr in traces:
        f = ScalarField(grid, tr.values)
        grad = gradient(f)
        grad_f = grad.values
        hess_f = hessian(f, grad)
        corr = 0.0
        for idx, diag_a, corner_bump in corner_data:
            second = sum(diag_a[k] * hess_f.entry(k, k)[idx] for k in range(dim))
            drift_part = sum(grad_a[k][idx][k] * grad_f[idx][k] for k in range(dim))
            mismatch = (
                second
                + drift_part
                + np.sum(coeffs.b.values[idx] * grad_f[idx])
                + coeffs.c.values[idx] * f.values[idx]
            )
            corr = corr + divide(-mismatch, 0.5 * np.sum(diag_a)) * corner_bump
        out.append(BoundaryTrace(grid, tr.values + corr))
    return out


# (grid bounds, shape, coefficients, trace expressions or None for the
# default family)
_ORACLE_CASES = {
    "2d-scalar-a": (
        [[0.0, 1.0], [0.0, 1.0]],
        [33, 33],
        {
            "a": "1 + 0.4*exp(-((x-0.5)^2+(y-0.5)^2)/0.08)",
            "c": "0.5 + 0.3*sin(2*x)*cos(2*y)",
        },
        None,
    ),
    "2d-anisotropic-a-complex-c": (
        [[0.0, 1.0], [0.0, 1.0]],
        [33, 33],
        {
            "a": [
                "10*(1+0.3*exp(-((x-0.5)^2+(y-0.5)^2)/0.1))",
                "1+0.2*exp(-((x-0.4)^2+(y-0.6)^2)/0.1)",
                "0.8*x*(1-x)*y*(1-y)",
            ],
            "c": "0.6+0.2*sin(2*x+1)*cos(y)"
            " + i*(0.7+0.3*exp(-((x-0.55)^2+(y-0.45)^2)/0.08))",
        },
        None,
    ),
    "3d": (
        [[0.0, 1.0], [0.0, 1.0], [0.0, 1.0]],
        [17, 17, 17],
        {
            "a": [
                "1 + 0.4*exp(-((x-0.5)^2+(y-0.5)^2+(z-0.5)^2)/0.08)",
                "2 + 0.3*x*y + 0.1*sin(3*z + 0.2)",
                "1.5 + 0.2*sin(z + 0.3)*cos(x)",
                "0.1*y*(1-y)*z*(1-z)",
                "0",
                "0.2*x*(1-x)*y*(1-y)",
            ],
            "c": "0.5 + 0.3*sin(2*x)*cos(2*y)*cos(z)",
        },
        None,
    ),
    "non-square-box-with-drift": (
        [[-0.5, 1.0], [0.2, 2.2]],
        [17, 21],
        {
            "a": ["1.3 + 0.2*x*y", "0.7 + 0.1*exp(y)", "0"],
            "b": ["0.3*x", "0.2 - 0.1*y"],
            "c": "0.4 + 0.1*x",
        },
        ["2 + x*y", "1", "x^2 + 0.5*y", "y - x", "exp(x)*cos(y)"],
    ),
}


def oracle_case(name):
    bounds, shape, coefficients, expressions = _ORACLE_CASES[name]
    cfg = parse_config(
        {
            "schema_version": 1,
            "grid": {"bounds": bounds, "shape": shape},
            "coefficients": coefficients,
            "modality": {"name": "generic", "weight": "1"},
            "study": {"type": "single"},
        }
    )
    grid = cfg.grid_for()
    if expressions is None:
        traces = default_traces(grid)
    else:
        traces = [BoundaryTrace.from_expression(grid, e) for e in expressions]
    return cfg.coefficients(grid), traces


class TestCompatibleTracesAtTheCorners:
    """The correction reads the one-sided closures at the corners only,
    and writes the traces full-grid derivatives gave, bit for bit."""

    @pytest.mark.parametrize("name", sorted(_ORACLE_CASES))
    def test_traces_are_those_of_full_grid_derivatives(self, name):
        coeffs, traces = oracle_case(name)
        expect = full_grid_compatible_traces(coeffs, traces)
        got = compatible_traces(coeffs, traces)
        assert len(got) == len(traces)
        for new, ref, raw in zip(got, expect, traces):
            assert np.array_equal(new.values, ref.values)
            assert same_bits(new.values, ref.values)
            assert not np.array_equal(new.values, raw.values)

    def test_takes_no_full_grid_derivative(self, monkeypatch):
        coeffs, traces = oracle_case("3d")
        calls = {}
        # every full-grid derivative the package takes passes through these
        for name in ("gradient", "hessian", "_diff"):
            fn = getattr(grids, name)
            calls[name] = 0

            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(grids, name, wrapper)
        compatible_traces(coeffs, traces)
        assert calls == dict.fromkeys(calls, 0)


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        grid = unit_grid(9)
        ms = synthesize(
            laplace_coefficients(grid),
            Modality.elastography(),
            [
                BoundaryTrace.from_expression(grid, s)
                for s in ("2", "2 + x", "2 + y")
            ],
        )
        save_measurements(ms, str(tmp_path))
        back = load_measurements(str(tmp_path))
        assert back.modality == ms.modality
        assert back.count == ms.count
        for left, right in zip(ms.functionals, back.functionals):
            assert np.array_equal(left.values, right.values)
        for left, right in zip(ms.traces, back.traces):
            assert np.array_equal(left.values, right.values)
        assert np.array_equal(back.weight.values, ms.weight.values)

    def test_manifest_carrying_the_retired_audit_key_loads(self, tmp_path):
        """Every resolver reads the stored weight, so the manifest no longer
        marks it audit-only; a manifest written with that key still loads."""
        grid = unit_grid(9)
        ms = synthesize(
            laplace_coefficients(grid),
            Modality.elastography(),
            [
                BoundaryTrace.from_expression(grid, s)
                for s in ("2", "2 + x", "2 + y")
            ],
        )
        save_measurements(ms, str(tmp_path))
        path = tmp_path / "manifest.json"
        manifest = json.loads(path.read_text())
        assert "weight_for_audit_only" not in manifest
        manifest["weight_for_audit_only"] = True
        path.write_text(json.dumps(manifest))
        back = load_measurements(str(tmp_path))
        assert back.count == ms.count
        assert np.array_equal(back.weight.values, ms.weight.values)

    def test_noise_spec_survives_round_trip(self, tmp_path):
        grid = unit_grid(9)
        ms = synthesize(
            laplace_coefficients(grid),
            Modality.elastography(),
            [
                BoundaryTrace.from_expression(grid, s)
                for s in ("2", "2 + x", "2 + y")
            ],
        )
        noisy = add_noise(ms, NoiseSpec(amplitude=1e-4, correlation_length=0.2, seed=3))
        save_measurements(noisy, str(tmp_path))
        back = load_measurements(str(tmp_path))
        assert back.noise is not None
        assert back.noise.amplitude == 1e-4
        assert back.noise.correlation_length == 0.2
        assert back.noise.seed == 3


class TestModalityParameters:
    def test_parameter_the_modality_does_not_take_rejected(self):
        grid = unit_grid(5)
        one = materialize_scalar("1", grid)
        with pytest.raises(ConfigurationError, match="does not take a gamma"):
            Modality("elastography", gamma=one)
        with pytest.raises(ConfigurationError, match="does not take a weight"):
            Modality("qpat", gamma=one, weight=one)
        with pytest.raises(ConfigurationError, match="does not take a gamma"):
            Modality("generic", gamma=one, weight=one)

    def test_missing_parameter_rejected(self):
        with pytest.raises(ConfigurationError, match="needs a gamma"):
            Modality("qtat")
        with pytest.raises(ConfigurationError, match="needs a weight"):
            Modality("generic")
        with pytest.raises(ConfigurationError, match="unknown modality"):
            Modality("ultrasound")


class TestWeightAnchor:
    """On the boundary the stored weight is the modality's formula for
    ``d`` with the traces in place of the solutions, bit for bit; the
    resolvers' anchor ``B/d`` reads it there."""

    def cases(self, grid):
        x, y = (m.real for m in grid.meshgrid())
        gamma = materialize_scalar("1 + 0.2*x*y", grid)
        weight = materialize_scalar("1 + 0.2*x", grid)
        base = laplace_coefficients(grid)
        real_c = ScalarField(grid, 0.4 + 0.1 * x)
        complex_c = ScalarField(grid, 0.4 + 0.1 * x + 0.3j * (1 + np.sin(2 * y)))
        return [
            (base, Modality.elastography(), lambda tr: np.ones(grid.shape)),
            (
                CoefficientSet(a=base.a, b=base.b, c=real_c),
                Modality.qpat(gamma),
                lambda tr: gamma.values * real_c.values,
            ),
            (
                CoefficientSet(a=base.a, b=base.b, c=complex_c),
                Modality.qtat(gamma),
                lambda tr: gamma.values
                * complex_c.values.imag
                * np.conj(tr[0].values),
            ),
            (
                CoefficientSet(a=base.a, b=base.b, c=real_c),
                Modality.generic(weight),
                lambda tr: weight.values,
            ),
        ]

    def test_boundary_weight_is_the_modality_formula(self, tmp_path):
        grid = unit_grid(17)
        bnd = grid.boundary_mask()
        traces = [
            BoundaryTrace.from_expression(grid, s)
            for s in ("2 + x*y", "2 + x", "2 + y")
        ]
        for coeffs, modality, formula in self.cases(grid):
            ms = synthesize(coeffs, modality, traces)
            noisy = add_noise(ms, NoiseSpec(amplitude=1e-3, seed=4))
            folder = str(tmp_path / modality.name)
            save_measurements(noisy, folder)
            for got in (ms, noisy, load_measurements(folder)):
                expect = formula(got.traces)
                assert np.array_equal(got.weight.values[bnd], expect[bnd]), (
                    modality.name
                )
