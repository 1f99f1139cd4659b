"""End-to-end guarantees of the reconstruction laboratory.

Each test pins one externally visible contract: analytic baselines,
measurement budgets, gauge invariances, convergence orders, noise
response, and the failure modes the command line must surface.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time

import numpy as np
import pytest

from conftest import (
    bump,
    elastography_coefficients,
    laplace_coefficients,
    scalar_tensor,
    unit_grid,
    whole_grid_analysis,
)
from hiplab import gauge, recon, studies
from hiplab.config import parse_config
from hiplab.errors import InternalConsistencyError, MeasurementCountError
from hiplab.forward import BoundaryTrace, CoefficientSet
from hiplab.grids import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    gradient,
    sym_to_full,
)
from hiplab.metrics import error_norms
from hiplab.synthesis import (
    MeasurementSet,
    Modality,
    compatible_traces,
    default_traces,
    synthesize,
)

LEVELS = (33, 65, 129)


def fitted_order(levels, errors):
    hs = [1.0 / (n - 1) for n in levels]
    return float(np.polyfit(np.log(hs), np.log(errors), 1)[0])


def unit_weight(grid):
    return Modality.generic(ScalarField.constant(grid, 1.0))


def test_harmonic_suite_identity_diffusion_zero_drift_and_hessian_combos():
    """Pure-Laplace data must reproduce every analytic baseline to 1e-8.

    With traces 1, x, y, x*y, x^2 - y^2 the ratio fields are the
    harmonic monomials themselves, so the normalized diffusion is the
    identity, the drift vanishes, and the two Hessian combinations are
    the constant matrices [[0,1],[1,0]] and [[2,0],[0,-2]].
    """
    t0 = time.monotonic()
    grid = unit_grid(65)
    ms = synthesize(laplace_coefficients(grid), unit_weight(grid), default_traces(grid))
    nc = recon.reconstruct(ms)
    ref = whole_grid_analysis(ms)
    mats = recon.constraint_matrices(ref.hessians, ref.theta)
    elapsed = time.monotonic() - t0

    inside = grid.interior(2)
    ident = SymTensorField.identity(grid).values
    assert np.max(np.abs(nc.diffusion.values - ident)[inside]) <= 1e-8
    assert np.max(np.abs(nc.drift.values)[inside]) <= 1e-8
    m1 = sym_to_full(mats[0], 2)
    m2 = sym_to_full(mats[1], 2)
    assert np.max(np.abs(m1 - np.array([[0.0, 1.0], [1.0, 0.0]]))[inside]) <= 1e-8
    assert np.max(np.abs(m2 - np.array([[2.0, 0.0], [0.0, -2.0]]))[inside]) <= 1e-8
    assert elapsed < 5.0


def test_functional_budget_is_exact_and_shortfalls_raise_typed_errors():
    """The matrix pipeline needs exactly n(n+3)/2 functionals.

    Dimension 2 needs 5 with 2 Hessian constraints, dimension 3 needs
    9 with 5; one fewer must be refused with the dedicated error type.
    """
    assert recon.functional_budget(2) == 5
    assert recon.functional_budget(3) == 9
    assert recon.extra_count(2) == 2
    assert recon.extra_count(3) == 5

    grid = unit_grid(17)
    ms4 = synthesize(
        laplace_coefficients(grid), unit_weight(grid), default_traces(grid, count=4)
    )
    with pytest.raises(MeasurementCountError):
        recon.reconstruct(ms4)

    grid3 = unit_grid(9, dim=3)
    ms8 = synthesize(
        laplace_coefficients(grid3),
        unit_weight(grid3),
        default_traces(grid3, count=8),
    )
    with pytest.raises(MeasurementCountError):
        recon.reconstruct(ms8)
    # the full budget succeeds on the same data family
    ms9 = synthesize(laplace_coefficients(grid3), unit_weight(grid3), default_traces(grid3))
    nc = recon.reconstruct(ms9)
    inside = grid3.interior(2)
    ident = SymTensorField.identity(grid3).values
    assert np.max(np.abs(nc.diffusion.values - ident)[inside]) <= 1e-8


def test_weight_gauge_invariance_of_ratios_and_normalized_diffusion():
    """Rescaling the weight leaves ratios and diffusion unchanged.

    Multiplying every functional by the same non-vanishing field cancels
    in the quotient exactly as real numbers.  In floating point the
    cancellation is bitwise whenever the scaling itself is exact (any
    power-of-two weight); for a generic smooth weight the quotient
    reproduces the unweighted one to rounding, and the normalized
    diffusion stays within 1e-12.
    """
    grid = unit_grid(33)
    x, y = (m.real for m in grid.meshgrid())
    coeffs = CoefficientSet(
        a=scalar_tensor(grid, bump(grid, (0.5, 0.5), 0.1, 0.3)),
        b=VectorField.zero(grid),
        c=ScalarField(grid, 0.3 + 0.2 * np.sin(x + y)),
    )
    traces = default_traces(grid)
    ms_unit = synthesize(coeffs, unit_weight(grid), traces)
    ms_pow2 = synthesize(
        coeffs, Modality.generic(ScalarField.constant(grid, 8.0)), traces
    )
    smooth = ScalarField(grid, 1.0 + 0.3 * np.sin(x) * np.cos(y) + 0.2 * x)
    ms_smooth = synthesize(coeffs, Modality.generic(smooth), traces)

    r_unit = recon.ratios(ms_unit)
    r_pow2 = recon.ratios(ms_pow2)
    r_smooth = recon.ratios(ms_smooth)
    for v1, v8, vs in zip(r_unit, r_pow2, r_smooth):
        assert np.array_equal(v8.values, v1.values)
        assert np.max(np.abs(vs.values - v1.values)) <= 4 * np.finfo(float).eps

    n_unit = recon.reconstruct(ms_unit)
    n_pow2 = recon.reconstruct(ms_pow2)
    n_smooth = recon.reconstruct(ms_smooth)
    assert np.array_equal(n_pow2.diffusion.values, n_unit.diffusion.values)
    assert np.max(np.abs(n_smooth.diffusion.values - n_unit.diffusion.values)) <= 1e-12


def test_scalar_drift_formula_recovers_constant_drift():
    """Gram projection of ratio Laplacians returns b = (0.3, -0.1).

    With unit diffusion and zero c the discrete solutions satisfy the
    very stencil identity the projection reads back, so the recovered
    drift sits at the linear-solver floor on every grid; an error
    sequence that small has no discretization signal left, which is
    stronger than any fitted convergence order.
    """
    t0 = time.monotonic()
    errors = []
    for n in LEVELS:
        grid = unit_grid(n)
        coeffs = CoefficientSet(
            a=SymTensorField.identity(grid),
            b=VectorField(
                grid,
                np.broadcast_to(np.array([0.3, -0.1]), grid.shape + (2,)).copy(),
            ),
            c=ScalarField.constant(grid, 0.0),
        )
        ms = synthesize(coeffs, unit_weight(grid), default_traces(grid, count=3))
        nc = recon.reconstruct(ms, recon.analyze(ms, "scalar"))
        em = error_norms(nc.drift, coeffs.b, mask=grid.interior(2))
        errors.append(em.c0_rel)
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0
    at_floor = max(errors) <= 1e-8
    assert at_floor or fitted_order(LEVELS, errors) >= 1.5
    assert at_floor, f"expected solver-floor exactness, got {errors}"


def test_elastography_recovers_diffusion_and_absorption_with_second_order():
    """Scalar-bump a and smooth c converge monotonically, order >= 1.5."""
    errs_a, errs_c = [], []
    for n in LEVELS:
        grid = unit_grid(n)
        coeffs = elastography_coefficients(grid)
        traces = compatible_traces(coeffs, default_traces(grid))
        ms = synthesize(coeffs, Modality.elastography(), traces)
        nc = recon.reconstruct(ms)
        tri = gauge.invariant_triple(nc, ms.functionals[0])
        res = studies.resolve_measurements(ms, tri, coeffs)[0]
        mask = grid.interior(2)
        errs_a.append(error_norms(res.a, coeffs.a, mask=mask).c0_rel)
        errs_c.append(error_norms(res.c, coeffs.c, mask=mask).c0_rel)
    for errs in (errs_a, errs_c):
        assert errs[0] > errs[1] > errs[2]
        assert fitted_order(LEVELS, errs) >= 1.5


def test_qpat_amplitude_and_absorption_within_one_percent():
    """Known Grueneisen weight: (B, c) to <= 1% at 129^2, order >= 1.5."""
    errs_B, errs_c = [], []
    for n in LEVELS:
        grid = unit_grid(n)
        x, y = (m.real for m in grid.meshgrid())
        coeffs = CoefficientSet(
            a=scalar_tensor(grid, bump(grid, (0.4, 0.6), 0.08, 0.3)),
            b=VectorField.zero(grid),
            c=ScalarField(grid, bump(grid, (0.6, 0.4), 0.08, 0.4) - 0.5),
        )
        gamma = ScalarField.constant(grid, 1.0)
        traces = compatible_traces(coeffs, default_traces(grid))
        ms = synthesize(coeffs, Modality.qpat(gamma), traces)
        nc = recon.reconstruct(ms)
        tri = gauge.invariant_triple(nc, ms.functionals[0])
        res = studies.resolve_measurements(ms, tri, coeffs)[0]
        mask = grid.interior(2)
        B_true = gauge.amplitude_of(coeffs.a)
        errs_B.append(error_norms(res.amplitude, B_true, mask=mask).c0_rel)
        errs_c.append(error_norms(res.c, coeffs.c, mask=mask).c0_rel)
    assert errs_B[-1] <= 0.01
    assert errs_c[-1] <= 0.01
    assert fitted_order(LEVELS, errs_B) >= 1.5
    assert fitted_order(LEVELS, errs_c) >= 1.5


def qtat_coefficients(grid):
    x, y = (m.real for m in grid.meshgrid())
    a = scalar_tensor(grid, bump(grid, (0.5, 0.5), 0.1, 0.2))
    c = ScalarField(
        grid,
        0.6
        + 0.2 * np.sin(2 * x + 1) * np.cos(y)
        + 1j * (bump(grid, (0.55, 0.45), 0.08, 0.3) - 0.3),
    )
    return CoefficientSet(a=a, b=VectorField.zero(grid), c=c)


def test_qtat_grueneisen_within_two_percent_where_margin_passes():
    """Real diffusion, complex absorption: Gamma to <= 2% at 129^2."""
    grid = unit_grid(129)
    coeffs = qtat_coefficients(grid)
    x, y = (m.real for m in grid.meshgrid())
    gamma = ScalarField(grid, 1.0 + 0.25 * np.cos(x) * np.cos(y))
    traces = compatible_traces(coeffs, default_traces(grid))
    ms = synthesize(coeffs, Modality.qtat(gamma), traces)
    nc = recon.reconstruct(ms)
    tri = gauge.invariant_triple(nc, ms.functionals[0])
    res = studies.resolve_measurements(ms, tri, coeffs)[0]
    mask = grid.interior(2)
    # this phantom keeps Im(c) bounded away from zero: no vertex is refused
    assert not np.any(res.flags & mask)
    em = error_norms(res.gamma, gamma, mask=mask & ~res.flags)
    assert em.c0_rel <= 0.02


def test_qtat_flags_fire_exactly_on_vanishing_imaginary_absorption():
    """Vertices are refused exactly where Im(c) = 0.

    The construction keeps the data exactly real on the half-plane
    x <= x0 (so Im q there is floating-point zero) and complex to the
    right of it.  The refusal set must be precisely that half-plane
    eroded by the one-cell derivative stencil: no false refusals where
    Im(c) is active, full coverage of the vanishing locus.
    """
    grid = unit_grid(33)
    x, y = (m.real for m in grid.meshgrid())
    x0 = 0.5
    h = grid.spacing[0]
    hinge = np.maximum(x - x0, 0.0) ** 3
    imag_part = 0.05 * hinge * (1.0 + 0.3 * np.sin(2 * y))
    ratio_true = bump(grid, (0.4, 0.55), 0.1, 0.2)
    log_ratio = ScalarField(grid, np.log(ratio_true).astype(np.complex128))
    tri = gauge.InvariantTriple(
        shape=SymTensorField.identity(grid),
        vector_invariant=VectorField(grid, 2.0 * gradient(log_ratio).values),
        inside=grid.interior(2),
        degenerate=np.zeros(grid.shape, dtype=bool),
        masked_fraction=0.0,
    )
    h1 = ScalarField(grid, 1.0 + 1j * imag_part)
    anchor = BoundaryTrace(grid, ratio_true.astype(np.complex128))
    res = gauge.resolve_qtat(tri, h1, anchor)

    inside = grid.interior(2)
    expected = x <= x0 - h + 1e-12
    assert np.array_equal(res.flags[inside], expected[inside])
    im_q = res.fields["scalar_invariant"].values.imag
    assert np.all(im_q[inside & expected] == 0.0)
    assert np.all(im_q[inside & ~expected] != 0.0)


def test_redundant_functional_cannot_change_the_diffusion():
    """A sixth functional in 2d adds a boundary check, not information.

    The null-space pipeline consumes exactly its budget, so the
    normalized diffusion is bit-identical with the extra measurement.
    The extra ratio is still checked against the quotient of its traces
    on the boundary, so a corruption that reaches the boundary is
    detected; one confined to the interior is not.
    """
    grid = unit_grid(33)
    coeffs = elastography_coefficients(grid)
    traces5 = default_traces(grid)
    traces6 = traces5 + [BoundaryTrace.from_expression(grid, "x^2 + 0.5*x*y + 0.3*y")]
    ms5 = synthesize(coeffs, Modality.elastography(), traces5)
    ms6 = synthesize(coeffs, Modality.elastography(), traces6)
    nc5 = recon.reconstruct(ms5)
    nc6 = recon.reconstruct(ms6)
    assert np.max(np.abs(nc6.diffusion.values - nc5.diffusion.values)) <= 1e-10

    corrupted = MeasurementSet(
        grid=grid,
        modality=ms6.modality,
        traces=ms6.traces,
        functionals=ms6.functionals[:5]
        + [ScalarField(grid, ms6.functionals[5].values + 1e-3)],
        weight=ms6.weight,
    )
    with pytest.raises(InternalConsistencyError):
        recon.reconstruct(corrupted)


def test_noise_to_error_ratio_stable_across_amplitudes():
    """Error per unit of injected C2 data perturbation is flat.

    Over amplitudes 1e-4, 2e-4, 4e-4 at fixed correlation length the
    ratio of reconstruction error to the measured second-derivative
    size of the perturbation must vary by less than a factor of 3.
    """
    cfg = parse_config(
        {
            "schema_version": 1,
            "seed": 21,
            "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [33, 33]},
            "coefficients": {
                "a": "1 + 0.4*exp(-((x-0.5)^2+(y-0.5)^2)/0.08)",
                "c": "0.5 + 0.3*sin(2*x)*cos(2*y)",
            },
            "modality": {"name": "elastography"},
            "noise": {"amplitude": 1e-4, "correlation_length": 0.1},
            "study": {
                "type": "noise-sweep",
                "amplitudes": [0.0, 1e-4, 2e-4, 4e-4],
            },
        }
    )
    report = studies.run_noise_sweep(cfg)
    zero_row = [e for e in report["table"] if e["amplitude"] == 0.0][0]
    for entry in zero_row["quantities"].values():
        assert entry["err_c0"] == 0.0
    for quantity, spread in report["ratio_spread"].items():
        assert np.isfinite(spread), quantity
        assert spread < 3.0, (quantity, spread)


def test_degenerate_trace_family_aborts_with_exit_code_4(tmp_path):
    """Traces 1, x, 2x, ... fail the gradient-basis audit and abort.

    The second and third ratios have everywhere-parallel gradients, so
    the Gram determinant margin is zero; the checker must reject the
    set and the command line must exit with code 4.
    """
    from hiplab.admissibility import FLOORS, check

    grid = unit_grid(17)
    traces = [
        BoundaryTrace.from_expression(grid, e)
        for e in ("1", "x", "2*x", "x*y", "x^2 - y^2")
    ]
    ms = synthesize(laplace_coefficients(grid), unit_weight(grid), traces)
    report = check(ms)
    assert not report.passed
    assert report.basis_margin < FLOORS["basis"]

    config = {
        "schema_version": 1,
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
        "coefficients": {"a": "1", "c": "0"},
        "modality": {"name": "elastography"},
        "traces": {"expressions": ["1", "x", "2*x", "x*y", "x^2 - y^2"]},
        "study": {"type": "single"},
    }
    path = tmp_path / "degenerate.json"
    path.write_text(json.dumps(config))
    proc = subprocess.run(
        [sys.executable, "-m", "hiplab.cli", "--config", str(path), "run"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 4
    assert "admissibility" in proc.stderr


def test_every_resolver_reports_the_two_function_gauge_dimension():
    """All four resolutions state 5 invariants vs 7 unknowns in 2d."""
    grid = unit_grid(17)
    reports = []

    coeffs = elastography_coefficients(grid)
    ms = synthesize(coeffs, Modality.elastography(), default_traces(grid))
    nc = recon.reconstruct(ms)
    tri = gauge.invariant_triple(nc, ms.functionals[0])
    reports.append(studies.resolve_measurements(ms, tri, coeffs)[0].report)

    gamma = ScalarField.constant(grid, 1.0)
    x, y = (m.real for m in grid.meshgrid())
    coeffs_q = CoefficientSet(
        a=coeffs.a,
        b=VectorField.zero(grid),
        c=ScalarField(grid, 0.5 + 0.2 * np.sin(x + y)),
    )
    ms = synthesize(coeffs_q, Modality.qpat(gamma), default_traces(grid))
    nc = recon.reconstruct(ms)
    tri = gauge.invariant_triple(nc, ms.functionals[0])
    reports.append(studies.resolve_measurements(ms, tri, coeffs_q)[0].report)

    coeffs_t = qtat_coefficients(grid)
    ms = synthesize(coeffs_t, Modality.qtat(gamma), default_traces(grid))
    nc = recon.reconstruct(ms)
    tri = gauge.invariant_triple(nc, ms.functionals[0])
    reports.append(studies.resolve_measurements(ms, tri, coeffs_t)[0].report)

    coeffs_g = CoefficientSet(
        a=coeffs.a,
        b=VectorField(grid, np.stack([0.2 + 0.1 * np.sin(x), -0.1 + 0.1 * np.cos(y)], axis=-1)),
        c=ScalarField(grid, 0.4 + 0.2 * np.sin(x + y)),
    )
    weight = ScalarField(grid, 1.0 + 0.2 * x * y)
    ms = synthesize(coeffs_g, Modality.generic(weight), default_traces(grid))
    nc = recon.reconstruct(ms)
    tri = gauge.invariant_triple(nc, ms.functionals[0])
    reports.append(studies.resolve_measurements(ms, tri, coeffs_g)[0].report)

    for report in reports:
        audit = report.dimension_audit
        assert audit["invariant_functions"] == 5
        assert audit["coefficient_functions"] == 7
        assert audit["gauge_functions"] == 2
        assert "two" in audit["statement"]
    audit3 = gauge.dimension_audit(3)
    assert audit3["invariant_functions"] == 9
    assert audit3["coefficient_functions"] == 11
