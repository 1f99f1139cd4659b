"""Pointwise solvability audit of a measurement set.

The reconstruction needs three quantitative conditions on the trusted
interior: the reference functional stays away from zero, the first
``dim`` ratio gradients stay uniformly independent, and the Hessian
constraint matrices stay uniformly independent.  Each is a normalized
margin in [0, 1] compared with its floor in :data:`FLOORS`: a row of the
table of checks of :func:`hiplab.recon.analyze`, whose other rows
:func:`hiplab.recon.reconstruct` raises.  A failing margin is reported,
never raised, so the checker can be run on deliberately bad data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import Check
from .recon import FLOORS, RatioSet, analyze
from .synthesis import MeasurementSet

__all__ = ["FLOORS", "AdmissibilityReport", "check"]


@dataclass
class AdmissibilityReport:
    """The audit's rows of the ratio analysis, over the trusted interior,
    with the verdict."""

    pipeline: str
    functional_count: int
    point_count: int
    checks: list[Check]

    @property
    def margins(self) -> dict[str, float | None]:
        """Each margin's reading by name, None where it is not audited."""
        return dict.fromkeys(FLOORS) | {row.name: row.reading for row in self.checks}

    def failures(self) -> list[str]:
        """Each failing row's message, ``"<name> margin <value> < <floor>"``."""
        return [row.text() for row in self.checks if not row.passed]

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.checks)

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
                    **{f"{name}_margin": value for name, value in self.margins.items()},
                    "passed": self.passed,
                }
            ],
        }

    def to_text(self) -> str:
        return "\n".join(
            [
                f"admissibility: {'PASS' if self.passed else 'FAIL'} "
                f"({self.pipeline} pipeline, {self.functional_count} functionals)",
                "  thresholds: "
                + ", ".join(f"{name} {floor:.1e}" for name, floor in FLOORS.items()),
                f"  full: {'pass' if self.passed else 'FAIL'}  "
                + "  ".join(
                    f"{name} {'n/a' if value is None else format(value, '.3e')}"
                    for name, value in self.margins.items()
                )
                + f"  ({self.point_count} points)",
            ]
        )


def check(ms: MeasurementSet, analysis: RatioSet | None = None) -> AdmissibilityReport:
    """The audit of ``ms``: the rows of its ratio analysis
    (:func:`hiplab.recon.analyze`, built here if ``analysis`` is None)
    that compare the margins with :data:`FLOORS`, on its trusted
    interior.  The pipeline reported is the analysis's mode; scalar mode
    does not audit the independence margin and reports it as None.
    """
    rs = analysis if analysis is not None else analyze(ms)
    return AdmissibilityReport(
        pipeline=rs.coefficients.mode,
        functional_count=ms.count,
        point_count=int(np.count_nonzero(rs.coefficients.inside)),
        checks=[row for row in rs.checks if row.name in FLOORS],
    )
