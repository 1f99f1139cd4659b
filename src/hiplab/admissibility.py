"""Pointwise solvability diagnostics for a measurement set.

The reconstruction needs three quantitative conditions on the trusted
interior: the reference functional stays away from zero, the first
``dim`` ratio gradients stay uniformly independent, and the Hessian
constraint matrices stay uniformly independent.  This module turns each
into a normalized margin in [0, 1] and compares it against its floor in
:data:`FLOORS`, a fixed constant like the floors of
:func:`hiplab.recon.reconstruct`'s checks.  A failing condition is
reported, never raised, so the checker can be run on deliberately bad
data.

Every margin is a reduction over the trusted interior of the ratio
analysis of :func:`hiplab.recon.analyze`, the object the reconstruction
then reads: the reference margin as min/max of ``|H_1|``, and the two
that the analysis's slab pass reads, gradient determinants over the
product of gradient magnitudes and the constraint stack's singular-value
gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .recon import RatioSet, analyze
from .synthesis import MeasurementSet

__all__ = ["FLOORS", "AdmissibilityReport", "check"]

# the acceptance floor of each margin, echoed in every report
FLOORS = {"reference": 1e-6, "basis": 1e-6, "independence": 1e-6}


@dataclass
class AdmissibilityReport:
    """Worst-case margins over the trusted interior, with the verdict."""

    pipeline: str
    functional_count: int
    point_count: int
    reference_margin: float
    basis_margin: float
    independence_margin: float | None

    def failures(self) -> list[str]:
        """Each margin below its floor, as ``"<name> margin <value> < <floor>"``;
        a margin reported as None is not audited."""
        out = []
        for name, floor in FLOORS.items():
            value = getattr(self, f"{name}_margin")
            if value is not None and not value >= floor:
                out.append(f"{name} margin {value:.3e} < {floor:.1e}")
        return out

    @property
    def passed(self) -> bool:
        return not self.failures()

    def to_dict(self) -> dict:
        return {
            "passed": self.passed,
            "pipeline": self.pipeline,
            "functional_count": self.functional_count,
            "thresholds": dict(FLOORS),
            # a list of one region, the layout of report schema version 1
            "regions": [
                {
                    "name": "full",
                    "bounds": None,
                    "point_count": self.point_count,
                    "reference_margin": self.reference_margin,
                    "basis_margin": self.basis_margin,
                    "independence_margin": self.independence_margin,
                    "passed": self.passed,
                }
            ],
        }

    def to_text(self) -> str:
        ind = (
            "n/a"
            if self.independence_margin is None
            else f"{self.independence_margin:.3e}"
        )
        return "\n".join(
            [
                f"admissibility: {'PASS' if self.passed else 'FAIL'} "
                f"({self.pipeline} pipeline, {self.functional_count} functionals)",
                "  thresholds: "
                + ", ".join(f"{name} {floor:.1e}" for name, floor in FLOORS.items()),
                f"  full: {'pass' if self.passed else 'FAIL'}  "
                f"reference {self.reference_margin:.3e}  "
                f"basis {self.basis_margin:.3e}  independence {ind}  "
                f"({self.point_count} points)",
            ]
        )


def check(
    ms: MeasurementSet, analysis: RatioSet | None = None
) -> AdmissibilityReport:
    """Evaluate the three admissibility margins on the trusted interior
    against :data:`FLOORS`.

    ``analysis`` is the ratio analysis of ``ms``
    (:func:`hiplab.recon.analyze`), which alone fixes the mode and the
    trusted interior and reads the basis and independence margins;
    without it ``analyze(ms)`` is built here.  The pipeline reported is
    the analysis's mode; in scalar mode the independence margin is not
    audited and is reported as None.
    """
    rs = analysis if analysis is not None else analyze(ms)
    h1_mag = np.abs(ms.functionals[0].values)[rs.inside]
    peak = max(float(np.max(h1_mag)), np.finfo(float).tiny)
    return AdmissibilityReport(
        pipeline=rs.mode,
        functional_count=ms.count,
        point_count=int(np.count_nonzero(rs.inside)),
        reference_margin=float(np.min(h1_mag)) / peak,
        basis_margin=rs.basis_margin,
        independence_margin=rs.independence_margin,
    )
