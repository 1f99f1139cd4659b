"""Solvability margins: reference, gradient basis, constraint independence.

The checker never raises on bad data; a failing condition is a report
entry.  Margins are normalized per region so they are scale-free and can
only grow when the region shrinks.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import laplace_coefficients, scalar_tensor, unit_grid
from hiplab.admissibility import AdmissibilityReport, Thresholds, check
from hiplab.errors import ConfigurationError
from hiplab.forward import CoefficientSet
from hiplab.grids import ScalarField, VectorField
from hiplab.recon import analyze, reconstruct
from hiplab.synthesis import BoundaryTrace, Modality, synthesize

HARMONIC = ("1", "x", "y", "x*y", "x^2 - y^2")

QUADRANTS = [
    ((0.0, 0.5), (0.0, 0.5)),
    ((0.0, 0.5), (0.5, 1.0)),
    ((0.5, 1.0), (0.0, 0.5)),
    ((0.5, 1.0), (0.5, 1.0)),
]


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


def assert_verdicts_match_margins(report: AdmissibilityReport):
    """pass  <=>  every available margin is at or above its threshold."""
    thr = report.thresholds
    for e in report.entries:
        expected = (
            e.reference_margin >= thr.reference
            and e.basis_margin >= thr.basis
            and (e.independence_margin is None or e.independence_margin >= thr.independence)
        )
        assert e.passed == expected, e.name
        assert e.reference_margin >= 0.0
        assert e.basis_margin >= 0.0
        if e.independence_margin is not None:
            assert e.independence_margin >= 0.0


class TestThresholds:
    def test_defaults(self):
        thr = Thresholds()
        assert thr.reference == 1e-6
        assert thr.basis == 1e-6
        assert thr.independence == 1e-6

    @pytest.mark.parametrize("name", ["reference", "basis", "independence"])
    @pytest.mark.parametrize("value", [0.0, -1e-3])
    def test_non_positive_rejected(self, name, value):
        with pytest.raises(ConfigurationError, match=name):
            Thresholds(**{name: value})

    def test_echoed_in_report(self):
        grid = unit_grid(17)
        ms = measurements(grid, HARMONIC)
        report = check(ms, thresholds=Thresholds(basis=1e-3))
        assert report.thresholds.basis == 1e-3
        assert report.to_dict()["thresholds"]["basis"] == 1e-3


class TestHarmonicQuintet:
    def test_all_margins_pass(self):
        grid = unit_grid(17)
        report = check(measurements(grid, HARMONIC))
        assert report.passed
        assert report.pipeline == "matrix"
        assert report.functional_count == 5
        (entry,) = report.entries
        assert entry.name == "full"
        assert entry.point_count == 13 * 13
        assert_verdicts_match_margins(report)

    def test_reference_and_basis_margins_are_one(self):
        # H_1 = 1 and (v_1, v_2) = (x, y) exactly on the grid, so the
        # reference ratio and the normalized gradient determinant are 1.
        grid = unit_grid(17)
        (entry,) = check(measurements(grid, HARMONIC)).entries
        assert entry.reference_margin == pytest.approx(1.0, rel=1e-12)
        assert entry.basis_margin == pytest.approx(1.0, rel=1e-12)

    def test_independence_margin_is_one_half(self):
        # The two weighted constraint rows are (0, 0, sqrt(2)) from x*y
        # and (2, -2, 0) from x^2 - y^2, with singular values sqrt(2)
        # and 2*sqrt(2); their ratio is exactly 1/2 at every vertex.
        grid = unit_grid(17)
        (entry,) = check(measurements(grid, HARMONIC)).entries
        assert entry.independence_margin == pytest.approx(0.5, rel=1e-10)


class TestDegenerateSets:
    def test_parallel_gradients_fail_basis_condition(self):
        grid = unit_grid(17)
        report = check(measurements(grid, ("1", "x", "2*x", "x*y", "x^2 - y^2")))
        assert not report.passed
        (entry,) = report.entries
        assert entry.basis_margin < report.thresholds.basis
        assert entry.basis_margin == 0.0
        assert entry.reference_margin > 0.9  # only the basis condition fails
        assert "FAIL" in report.to_text()
        assert_verdicts_match_margins(report)

    def test_dependent_hessians_fail_independence_condition(self):
        # x*y and 2*x*y produce proportional constraint matrices, so the
        # stacked operator loses rank while the gradient basis stays fine.
        grid = unit_grid(17)
        ms = measurements(grid, ("1", "x", "y", "x*y", "2*x*y"))
        report = check(ms)
        (entry,) = report.entries
        assert entry.basis_margin == pytest.approx(1.0, rel=1e-12)
        assert entry.independence_margin == 0.0
        assert not entry.passed

    def test_masked_points_sit_below_independence_threshold(self):
        # Every interior point the reconstruction masks as degenerate is
        # accounted for by a sub-threshold independence margin here.
        grid = unit_grid(17)
        ms = measurements(grid, ("1", "x", "y", "x*y", "2*x*y"))
        rec = reconstruct(ms)
        assert rec.degenerate[grid.interior(2)].all()
        (entry,) = check(ms).entries
        assert entry.independence_margin < Thresholds().independence

    def test_mode_and_trusted_interior_come_from_the_analysis(self):
        grid = unit_grid(17)
        ms = measurements(grid, HARMONIC)
        (entry,) = check(ms, analysis=analyze(ms, "scalar", margin=4)).entries
        assert entry.point_count == int(np.count_nonzero(grid.interior(4)))
        assert entry.independence_margin is None


class TestCovering:
    def build(self, n=33, rate=17.0):
        grid = unit_grid(n)
        exprs = (f"exp(-{rate}*x)",) + HARMONIC[1:]
        return measurements(grid, exprs, coeffs=steep_diffusion(grid, rate))

    def test_steep_phantom_fails_globally_passes_per_quadrant(self):
        """Local viability: each patch is fine, the union is not.

        With a = exp(17 x) I the first functional is exp(-17 x), whose
        min/max ratio over the trusted interior sits near exp(-14.9),
        below the 1e-6 reference floor; over any single quadrant the
        ratio is about exp(-7.4), three decades above it.
        """
        report = check(self.build(), covering=QUADRANTS)
        assert not report.passed
        full, *boxes = report.entries
        assert full.name == "full"
        assert not full.passed
        assert 1e-8 < full.reference_margin < 1e-6
        # the other two conditions hold globally; only the reference fails
        assert full.basis_margin > report.thresholds.basis
        assert full.independence_margin > report.thresholds.independence
        assert len(boxes) == 4
        for entry in boxes:
            assert entry.passed, entry.name
            assert entry.reference_margin > 1e-4
            assert entry.point_count > 0
        assert_verdicts_match_margins(report)

    def test_restriction_never_lowers_a_margin(self):
        report = check(self.build(), covering=QUADRANTS)
        full, *boxes = report.entries
        for entry in boxes:
            assert entry.reference_margin >= full.reference_margin
            assert entry.basis_margin >= full.basis_margin
            assert entry.independence_margin >= full.independence_margin

    def test_report_serializes_with_region_table(self):
        report = check(self.build(), covering=QUADRANTS)
        data = json.loads(json.dumps(report.to_dict()))
        names = [r["name"] for r in data["regions"]]
        assert names == ["full", "box_0", "box_1", "box_2", "box_3"]
        assert data["regions"][1]["bounds"] == [[0.0, 0.5], [0.0, 0.5]]
        assert data["passed"] is False
        assert sum(r["passed"] for r in data["regions"]) == 4
        text = report.to_text()
        assert "full: FAIL" in text
        assert "box_0: pass" in text

    def test_wrong_axis_count_rejected(self):
        ms = measurements(unit_grid(17), HARMONIC)
        with pytest.raises(ConfigurationError, match="axes"):
            check(ms, covering=[((0.0, 1.0),)])

    def test_empty_range_rejected(self):
        ms = measurements(unit_grid(17), HARMONIC)
        with pytest.raises(ConfigurationError, match="empty"):
            check(ms, covering=[((0.5, 0.5), (0.0, 1.0))])

    def test_box_outside_domain_reports_zero_points(self):
        ms = measurements(unit_grid(17), HARMONIC)
        report = check(ms, covering=[((2.0, 3.0), (2.0, 3.0))])
        box = report.entries[1]
        assert box.point_count == 0
        assert not box.passed
        assert box.reference_margin == 0.0
        assert not report.passed


class TestScalarPipeline:
    def test_three_functionals_have_no_independence_margin(self):
        grid = unit_grid(17)
        report = check(measurements(grid, ("1", "x", "y")))
        assert report.pipeline == "scalar"
        assert report.functional_count == 3
        (entry,) = report.entries
        assert entry.independence_margin is None
        assert entry.passed
        assert "n/a" in report.to_text()
        json.dumps(report.to_dict())  # None serializes as null
        assert_verdicts_match_margins(report)


class TestThresholdOverride:
    def test_tighter_basis_threshold_flips_a_marginal_set(self):
        # v_2 = x + 1e-4 y is barely independent of v_1 = x: the basis
        # margin lands near 1e-4, inside the default floor but outside a
        # 1e-3 override.
        grid = unit_grid(17)
        ms = measurements(grid, ("1", "x", "x + 0.0001*y", "x*y", "x^2 - y^2"))
        relaxed = check(ms)
        (entry,) = relaxed.entries
        assert relaxed.passed
        assert entry.basis_margin == pytest.approx(1e-4, rel=1e-3)
        strict = check(ms, thresholds=Thresholds(basis=1e-3))
        assert not strict.passed
        assert not strict.entries[0].passed
        assert_verdicts_match_margins(strict)

    def test_tighter_independence_threshold_fails_the_steep_quadrants(self):
        grid = unit_grid(33)
        exprs = ("exp(-17*x)",) + HARMONIC[1:]
        ms = measurements(grid, exprs, coeffs=steep_diffusion(grid, 17.0))
        strict = check(ms, covering=QUADRANTS, thresholds=Thresholds(independence=1e-3))
        assert not all(e.passed for e in strict.entries[1:])
        assert_verdicts_match_margins(strict)
