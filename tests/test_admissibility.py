"""Solvability margins: reference, gradient basis, constraint independence.

The checker never raises on bad data; a failing condition is reported.
Margins are normalized over the trusted interior so they are scale-free.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import laplace_coefficients, scalar_tensor, unit_grid
from hiplab.admissibility import FLOORS, AdmissibilityReport, check
from hiplab.errors import MeasurementCountError
from hiplab.forward import CoefficientSet
from hiplab.grids import ScalarField, VectorField
from hiplab.recon import analyze, reconstruct
from hiplab.synthesis import BoundaryTrace, Modality, synthesize

HARMONIC = ("1", "x", "y", "x*y", "x^2 - y^2")


def measurements(grid, exprs, coeffs=None):
    traces = [BoundaryTrace.from_expression(grid, e) for e in exprs]
    return synthesize(
        coeffs or laplace_coefficients(grid),
        Modality.generic(ScalarField.constant(grid, 1.0)),
        traces,
    )


def steep_diffusion(grid, rate):
    """Isotropic a = exp(rate * x): huge dynamic range across the box."""
    x = grid.meshgrid()[0].real
    return CoefficientSet(
        a=scalar_tensor(grid, np.exp(rate * x)),
        b=VectorField.zero(grid),
        c=ScalarField.constant(grid, 0.0),
    )


def steep_phantom(n=33, rate=17.0):
    """Measurements with first trace exp(-rate x) under a = exp(rate x) I."""
    grid = unit_grid(n)
    exprs = (f"exp(-{rate}*x)",) + HARMONIC[1:]
    return measurements(grid, exprs, coeffs=steep_diffusion(grid, rate))


def assert_verdicts_match_margins(report: AdmissibilityReport):
    """pass  <=>  every available margin is at or above its floor."""
    ind = report.independence_margin
    expected = (
        report.reference_margin >= FLOORS["reference"]
        and report.basis_margin >= FLOORS["basis"]
        and (ind is None or ind >= FLOORS["independence"])
    )
    assert report.passed == expected
    assert report.reference_margin >= 0.0
    assert report.basis_margin >= 0.0
    if ind is not None:
        assert ind >= 0.0


class TestHarmonicQuintet:
    def test_all_margins_pass(self):
        grid = unit_grid(17)
        report = check(measurements(grid, HARMONIC))
        assert report.passed
        assert report.pipeline == "matrix"
        assert report.functional_count == 5
        assert report.point_count == 13 * 13
        assert_verdicts_match_margins(report)

    def test_reference_and_basis_margins_are_one(self):
        # H_1 = 1 and (v_1, v_2) = (x, y) exactly on the grid, so the
        # reference ratio and the normalized gradient determinant are 1.
        grid = unit_grid(17)
        report = check(measurements(grid, HARMONIC))
        assert report.reference_margin == pytest.approx(1.0, rel=1e-12)
        assert report.basis_margin == pytest.approx(1.0, rel=1e-12)

    def test_independence_margin_is_one_half(self):
        # The two weighted constraint rows are (0, 0, sqrt(2)) from x*y
        # and (2, -2, 0) from x^2 - y^2, with singular values sqrt(2)
        # and 2*sqrt(2); their ratio is exactly 1/2 at every vertex.
        grid = unit_grid(17)
        report = check(measurements(grid, HARMONIC))
        assert report.independence_margin == pytest.approx(0.5, rel=1e-10)


class TestDegenerateSets:
    def test_parallel_gradients_fail_basis_condition(self):
        grid = unit_grid(17)
        report = check(measurements(grid, ("1", "x", "2*x", "x*y", "x^2 - y^2")))
        assert not report.passed
        assert report.basis_margin < FLOORS["basis"]
        assert report.basis_margin == 0.0
        assert report.reference_margin > 0.9  # only the basis condition fails
        assert "FAIL" in report.to_text()
        assert_verdicts_match_margins(report)

    def test_dependent_hessians_fail_independence_condition(self):
        # x*y and 2*x*y produce proportional constraint matrices, so the
        # stacked operator loses rank while the gradient basis stays fine.
        grid = unit_grid(17)
        ms = measurements(grid, ("1", "x", "y", "x*y", "2*x*y"))
        report = check(ms)
        assert report.basis_margin == pytest.approx(1.0, rel=1e-12)
        assert report.independence_margin == 0.0
        assert report.failures() == ["independence margin 0.000e+00 < 1.0e-06"]

    def test_masked_points_sit_below_independence_threshold(self):
        # Every interior point the reconstruction masks as degenerate is
        # accounted for by a sub-threshold independence margin here.
        grid = unit_grid(17)
        ms = measurements(grid, ("1", "x", "y", "x*y", "2*x*y"))
        rec = reconstruct(ms)
        assert rec.degenerate[grid.interior(2)].all()
        assert check(ms).independence_margin < FLOORS["independence"]

    def test_mode_and_trusted_interior_come_from_the_analysis(self):
        grid = unit_grid(17)
        ms = measurements(grid, HARMONIC)
        report = check(ms, analysis=analyze(ms, "scalar", margin=4))
        assert report.point_count == int(np.count_nonzero(grid.interior(4)))
        assert report.independence_margin is None


class TestSteepPhantom:
    def test_reference_margin_alone_fails_on_the_trusted_interior(self):
        """With a = exp(17 x) I the first functional is exp(-17 x), whose
        min/max ratio over the trusted interior sits near exp(-14.9),
        below the 1e-6 reference floor; the other two conditions hold.
        """
        report = check(steep_phantom())
        assert not report.passed
        assert 1e-8 < report.reference_margin < 1e-6
        assert report.basis_margin > FLOORS["basis"]
        assert report.independence_margin > FLOORS["independence"]
        (failure,) = report.failures()
        assert failure.startswith("reference margin ")
        assert failure.endswith(" < 1.0e-06")
        assert_verdicts_match_margins(report)

    def test_report_keeps_the_one_region_layout(self):
        report = check(steep_phantom())
        data = json.loads(json.dumps(report.to_dict()))
        assert data["passed"] is False
        (region,) = data["regions"]
        assert region == {
            "name": "full",
            "bounds": None,
            "point_count": 29 * 29,
            "reference_margin": report.reference_margin,
            "basis_margin": report.basis_margin,
            "independence_margin": report.independence_margin,
            "passed": False,
        }
        lines = report.to_text().splitlines()
        assert lines[0] == "admissibility: FAIL (matrix pipeline, 5 functionals)"
        assert len(lines) == 3
        assert lines[2] == (
            f"  full: FAIL  reference {report.reference_margin:.3e}  "
            f"basis {report.basis_margin:.3e}  "
            f"independence {report.independence_margin:.3e}  (841 points)"
        )


class TestScalarPipeline:
    def test_three_functionals_have_no_independence_margin(self):
        grid = unit_grid(17)
        ms = measurements(grid, ("1", "x", "y"))
        # the matrix-mode analysis, built when none is handed over,
        # refuses three functionals
        with pytest.raises(MeasurementCountError, match="needs 5 functionals"):
            check(ms)
        report = check(ms, analysis=analyze(ms, "scalar"))
        assert report.pipeline == "scalar"
        assert report.functional_count == 3
        assert report.independence_margin is None
        assert report.passed
        assert "n/a" in report.to_text()
        json.dumps(report.to_dict())  # None serializes as null
        assert_verdicts_match_margins(report)


class TestFixedFloors:
    def test_floors_are_one_e_minus_six_and_echoed_in_every_report(self):
        assert FLOORS == {"reference": 1e-6, "basis": 1e-6, "independence": 1e-6}
        report = check(measurements(unit_grid(17), HARMONIC))
        assert report.to_dict()["thresholds"] == FLOORS
        assert report.to_text().splitlines()[1] == (
            "  thresholds: reference 1.0e-06, basis 1.0e-06, independence 1.0e-06"
        )

    def test_marginal_basis_passes_the_floor(self):
        # v_2 = x + 1e-4 y is barely independent of v_1 = x: the basis
        # margin lands near 1e-4, inside the 1e-6 floor.
        grid = unit_grid(17)
        ms = measurements(grid, ("1", "x", "x + 0.0001*y", "x*y", "x^2 - y^2"))
        report = check(ms)
        assert report.passed
        assert report.basis_margin == pytest.approx(1e-4, rel=1e-3)
        assert_verdicts_match_margins(report)

    @pytest.mark.parametrize("name", list(FLOORS))
    def test_a_margin_at_its_floor_passes_and_below_or_nan_fails(self, name):
        # each verdict is ``margin >= floor``: the floor itself passes, the
        # next float below it fails, and so does a NaN margin
        floor = FLOORS[name]

        def report(value):
            margins = {f"{key}_margin": 0.5 for key in FLOORS}
            margins[f"{name}_margin"] = value
            return AdmissibilityReport("matrix", 5, 100, **margins)

        assert report(floor).passed
        below = np.nextafter(floor, 0.0)
        assert report(below).failures() == [f"{name} margin {below:.3e} < 1.0e-06"]
        assert report(float("nan")).failures() == [f"{name} margin nan < 1.0e-06"]
        assert report(float("nan")).to_dict()["passed"] is False
