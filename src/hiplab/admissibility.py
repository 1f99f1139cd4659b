"""Pointwise solvability diagnostics for a measurement set.

The reconstruction needs three quantitative conditions on the trusted
interior: the reference functional stays away from zero, the first
``dim`` ratio gradients stay uniformly independent, and the Hessian
constraint matrices stay uniformly independent.  This module turns each
into a normalized margin in [0, 1] and compares against thresholds.  A
failing condition is a report entry, never an exception, so the checker
can be run on deliberately bad data.

Every margin is a reduction over the ratio analysis of
:func:`hiplab.recon.analyze`, the object the reconstruction then reads.
Margins are normalized per region: gradient determinants by the product
of gradient magnitudes, the constraint stack by its largest singular
value, and the reference margin as min/max of ``|H_1|`` over the region
under scrutiny.  Restricting to a sub-box raises the min and lowers the
max, so no margin ever decreases under restriction; a reference field
with a huge global dynamic range can still be tame on every patch of a
covering, which is exactly the local solvability viewpoint: data good on
every patch is good enough for patchwise reconstruction.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigurationError
from .grids import component_sum
from .recon import RatioSet, analyze
from .synthesis import MeasurementSet

__all__ = ["Thresholds", "RegionMargins", "AdmissibilityReport", "check"]


@dataclass(frozen=True)
class Thresholds:
    """Acceptance floors for the three admissibility margins."""

    reference: float = 1e-6
    basis: float = 1e-6
    independence: float = 1e-6

    def __post_init__(self):
        for name in ("reference", "basis", "independence"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(
                    f"threshold {name!r} must be positive, got {getattr(self, name)}"
                )


@dataclass
class RegionMargins:
    """Worst-case margins over one region of the trusted interior."""

    name: str
    bounds: list | None
    point_count: int
    reference_margin: float
    basis_margin: float
    independence_margin: float | None
    passed: bool


@dataclass
class AdmissibilityReport:
    thresholds: Thresholds
    pipeline: str
    functional_count: int
    entries: list[RegionMargins] = field(default_factory=list)
    passed: bool = True

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "pipeline": self.pipeline,
            "functional_count": self.functional_count,
            "thresholds": {
                "reference": self.thresholds.reference,
                "basis": self.thresholds.basis,
                "independence": self.thresholds.independence,
            },
            "regions": [
                {
                    "name": e.name,
                    "bounds": e.bounds,
                    "point_count": e.point_count,
                    "reference_margin": e.reference_margin,
                    "basis_margin": e.basis_margin,
                    "independence_margin": e.independence_margin,
                    "passed": e.passed,
                }
                for e in self.entries
            ],
        }

    def to_text(self) -> str:
        lines = [
            f"admissibility: {'PASS' if self.passed else 'FAIL'} "
            f"({self.pipeline} pipeline, {self.functional_count} functionals)",
            f"  thresholds: reference {self.thresholds.reference:.1e}, "
            f"basis {self.thresholds.basis:.1e}, "
            f"independence {self.thresholds.independence:.1e}",
        ]
        for e in self.entries:
            ind = "n/a" if e.independence_margin is None else f"{e.independence_margin:.3e}"
            lines.append(
                f"  {e.name}: {'pass' if e.passed else 'FAIL'}  "
                f"reference {e.reference_margin:.3e}  "
                f"basis {e.basis_margin:.3e}  independence {ind}  "
                f"({e.point_count} points)"
            )
        return "\n".join(lines)


def _gradient_det(grads: list[np.ndarray]) -> np.ndarray:
    """Pointwise determinant of the matrix whose rows are ``grads``."""
    if len(grads) == 2:
        g1, g2 = grads
        return g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
    g1, g2, g3 = grads
    return component_sum(g1 * np.cross(g2, g3))


def _region_entry(name, bounds, region, h1_mag, basis, independence, thr):
    count = int(np.count_nonzero(region))
    if count == 0:
        return RegionMargins(
            name=name,
            bounds=bounds,
            point_count=0,
            reference_margin=0.0,
            basis_margin=0.0,
            independence_margin=None if independence is None else 0.0,
            passed=False,
        )
    # min/max both over the region: restriction raises the min and
    # lowers the max, so the margin never decreases on a sub-box.
    peak = max(float(np.max(h1_mag[region])), np.finfo(float).tiny)
    ref_m = float(np.min(h1_mag[region])) / peak
    basis_m = float(np.min(basis[region]))
    ind_m = None if independence is None else float(np.min(independence[region]))
    passed = ref_m >= thr.reference and basis_m >= thr.basis
    if ind_m is not None:
        passed = passed and ind_m >= thr.independence
    return RegionMargins(
        name=name,
        bounds=bounds,
        point_count=count,
        reference_margin=ref_m,
        basis_margin=basis_m,
        independence_margin=ind_m,
        passed=passed,
    )


def check(
    ms: MeasurementSet,
    covering: list | None = None,
    thresholds: Thresholds | None = None,
    analysis: RatioSet | None = None,
) -> AdmissibilityReport:
    """Evaluate the three admissibility margins on the trusted interior.

    ``covering`` is an optional list of ``(lo, hi)`` pair tuples, one
    sub-box per entry, each reported separately; the overall verdict
    requires the full region and every sub-box to pass.  ``analysis`` is
    the ratio analysis of ``ms`` (:func:`hiplab.recon.analyze`), which
    alone fixes the mode and the trusted interior; without it
    ``analyze(ms)`` is built here.  The independence margin is
    reported as None, and the pipeline as ``"scalar"``, when the
    analysis has no constraint null space: in scalar mode, or with too
    few functionals for the matrix pipeline.
    """
    thresholds = thresholds or Thresholds()
    grid = ms.grid
    rs = analysis if analysis is not None else analyze(ms)
    h1_mag = np.abs(ms.functionals[0].values)
    grads = [g.values for g in rs.gradients[: grid.dim]]
    det = _gradient_det(grads)
    norms = np.prod([np.sqrt(component_sum(np.abs(g) ** 2)) for g in grads], axis=0)
    with np.errstate(all="ignore"):
        basis = np.abs(det) / np.maximum(norms, np.finfo(float).tiny)
    basis = np.nan_to_num(basis, nan=0.0)
    # the singular-value gap of the constraint stack, zero where the
    # Gram matrix is singular
    independence = None
    if rs.null_space is not None:
        quality = rs.null_space[1].values
        independence = np.where(rs.gram_data.singular, 0.0, quality)
    inside = rs.inside
    pipeline = "scalar" if independence is None else "matrix"
    report = AdmissibilityReport(
        thresholds=thresholds,
        pipeline=pipeline,
        functional_count=ms.count,
        entries=[],
    )
    report.entries.append(
        _region_entry(
            "full", None, inside, h1_mag, basis, independence, thresholds
        )
    )
    coords = grid.meshgrid()
    for k, box in enumerate(covering or []):
        box = [tuple(map(float, pair)) for pair in box]
        if len(box) != grid.dim:
            raise ConfigurationError(
                f"sub-box {k} has {len(box)} axes, expected {grid.dim}"
            )
        region = inside.copy()
        for ax, (lo, hi) in enumerate(box):
            if hi <= lo:
                raise ConfigurationError(f"sub-box {k} axis {ax}: empty range")
            region &= (coords[ax] >= lo) & (coords[ax] <= hi)
        report.entries.append(
            _region_entry(
                f"box_{k}",
                [list(pair) for pair in box],
                region,
                h1_mag,
                basis,
                independence,
                thresholds,
            )
        )
    report.passed = all(e.passed for e in report.entries)
    return report
