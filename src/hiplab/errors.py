"""Shared exception hierarchy.

Every failure mode raised by the library derives from :class:`HiplabError`
and carries the name of the stage that raised it, so command-line wrappers
can map failures to stable exit codes without string matching.  A
:class:`Check` is one row of the table of checks, which raises its error
when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass


class HiplabError(Exception):
    """Base class for all library errors."""

    #: process exit code used by the command-line harness
    exit_code = 1

    def __init__(self, message: str, *, stage: str | None = None):
        self.stage = stage
        if stage:
            message = f"[{stage}] {message}"
        super().__init__(message)


class ConfigurationError(HiplabError):
    """Invalid configuration, expression, or argument."""

    exit_code = 2


class InputFileError(ConfigurationError):
    """An input file that cannot be read, is not valid JSON, or lacks what
    it must hold; the message names the file."""


class GridError(ConfigurationError):
    """Inconsistent grid, field shape, or storage layout."""


class ExpressionError(ConfigurationError):
    """Malformed phantom expression.

    Carries the byte offset of the offending token when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (at offset {offset})"
        super().__init__(message, stage="expression")


class MeasurementCountError(ConfigurationError):
    """Too few interior functionals for the requested pipeline."""


class AssemblyError(HiplabError):
    """Discrete operator could not be assembled (bad coefficients)."""

    exit_code = 3


class SolverFailure(HiplabError):
    """Linear solve did not reach the requested residual."""

    exit_code = 3


class NonVanishingError(HiplabError):
    """A field required to be bounded away from zero came too close to it."""

    exit_code = 4


class DegeneracyError(HiplabError):
    """Pointwise rank or independence condition failed."""

    exit_code = 4


class InternalConsistencyError(HiplabError):
    """An identity that must hold by construction failed beyond tolerance."""


class ReconstructionAbort(HiplabError):
    """Too little of the domain survived masking to report a result."""

    exit_code = 4


class PositivityError(HiplabError):
    """A coefficient that must be positive was reconstructed non-positive."""

    exit_code = 4


class MetricsError(HiplabError):
    """Error norms requested on an empty or invalid comparison region."""


@dataclass(frozen=True)
class Check:
    """One row of the table of checks: ``reading`` over ``region`` against
    ``limit``, passed by ``reading >= limit`` for a ``floor`` and by
    ``reading <= limit`` otherwise, so NaN fails either.  A failing row
    raises ``error`` with ``message`` formatted with its reading and
    limit; the parts that name vertices or scales are fixed when the row
    is built, so a row whose reading is replaced keeps them."""

    name: str
    region: str
    reading: float
    limit: float
    floor: bool
    error: type[HiplabError]
    message: str

    @property
    def passed(self) -> bool:
        return self.reading >= self.limit if self.floor else self.reading <= self.limit

    def text(self) -> str:
        return self.message.format(reading=self.reading, limit=self.limit)

    def require(self, stage: str) -> None:
        """Raise ``error`` with the row's text unless the row passes."""
        if not self.passed:
            raise self.error(self.text(), stage=stage)

    def to_dict(self) -> dict:
        return {key: getattr(self, key) for key in ("name", "region", "reading", "limit", "passed")}
