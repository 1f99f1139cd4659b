"""Pointwise solvability diagnostics for a measurement set.

The reconstruction needs three quantitative conditions on the trusted
interior: the reference functional stays away from zero, the first
``dim`` ratio gradients stay uniformly independent, and the Hessian
constraint matrices stay uniformly independent.  This module turns each
into a normalized margin in [0, 1] and compares against thresholds.  A
failing condition is a report entry, never an exception, so the checker
can be run on deliberately bad data.

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
from .grids import ScalarField, gradient, hessian, sym_size
from .recon import extra_count, functional_budget
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


def _pointwise_margins(ms: MeasurementSet, margin: int):
    """Per-vertex margin fields shared by all regions."""
    grid = ms.grid
    dim = grid.dim
    h1 = ms.functionals[0].values
    h1_mag = np.abs(h1)

    safe_h1 = np.where(h1_mag == 0, 1.0, h1)
    with np.errstate(all="ignore"):
        ratio_vals = [
            np.where(h1_mag == 0, np.nan, f.values / safe_h1)
            for f in ms.functionals[1:]
        ]
    ratios = [ScalarField(grid, np.nan_to_num(v, nan=0.0)) for v in ratio_vals]
    grads = [gradient(v).values for v in ratios]

    basis_mat = np.stack(grads[:dim], axis=-2)  # rows are the gradients
    det = np.linalg.det(basis_mat)
    norms = np.prod(
        [np.sqrt(np.sum(np.abs(g) ** 2, axis=-1)) for g in grads[:dim]], axis=0
    )
    with np.errstate(all="ignore"):
        basis = np.abs(det) / np.maximum(norms, np.finfo(float).tiny)
    basis = np.nan_to_num(basis, nan=0.0)

    independence = None
    if ms.count >= functional_budget(dim):
        extras = extra_count(dim)
        gram = np.einsum("...ik,...jk->...ij", basis_mat, basis_mat)
        ok = np.abs(np.linalg.det(gram)) > np.finfo(float).tiny
        gram_inv = np.zeros_like(gram)
        if np.any(ok):
            gram_inv[ok] = np.linalg.inv(gram[ok])
        hessians = [hessian(v).values for v in ratios[: dim + extras]]
        s = sym_size(dim)
        w = np.ones(s)
        w[dim:] = np.sqrt(2.0)
        stack = np.zeros(grid.shape + (extras, s), dtype=np.complex128)
        for m in range(extras):
            g_extra = grads[dim + m]
            rhs = np.stack(
                [np.sum(g_extra * grads[k], axis=-1) for k in range(dim)], axis=-1
            )
            theta = -np.einsum("...jk,...k->...j", gram_inv, rhs)
            acc = hessians[dim + m].copy()
            for j in range(dim):
                acc += theta[..., j][..., None] * hessians[j]
            stack[..., m, :] = acc * w
        sing = np.linalg.svd(stack, compute_uv=False)
        with np.errstate(all="ignore"):
            independence = np.where(
                sing[..., 0] > 0, sing[..., -1] / np.maximum(sing[..., 0], 1e-300), 0.0
            )
        independence = np.where(ok, np.nan_to_num(independence, nan=0.0), 0.0)

    inside = grid.interior(margin).flags
    return h1_mag, basis, independence, inside


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
    margin: int = 2,
) -> AdmissibilityReport:
    """Evaluate the three admissibility margins on the trusted interior.

    ``covering`` is an optional list of ``(lo, hi)`` pair tuples, one
    sub-box per entry, each reported separately; the overall verdict
    requires the full region and every sub-box to pass.  The
    independence margin is reported as None when the set carries too few
    functionals for the matrix pipeline.
    """
    thresholds = thresholds or Thresholds()
    grid = ms.grid
    h1_mag, basis, independence, inside = _pointwise_margins(ms, margin)
    pipeline = (
        "matrix" if ms.count >= functional_budget(grid.dim) else "scalar"
    )
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
            region &= (coords[ax].real >= lo) & (coords[ax].real <= hi)
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
