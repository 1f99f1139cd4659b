"""Declarative experiment configuration.

A single JSON document describes an end-to-end experiment: the grid,
coefficient expressions, modality, boundary traces, noise, solver
policy, and the study to run.  The document is validated against the
schema shipped with the package before any compute starts, with unknown
keys rejected, so a typo fails fast instead of silently running a
different experiment.

The builders here turn validated sections into library objects.  They
are deliberately dumb: every piece of physics lives in the modules they
call into.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .errors import ConfigurationError
from .forward import CoefficientSet, SolverSettings
from .grids import Grid, ScalarField, SymTensorField, VectorField, read_json
from .phantoms import (
    check_component_count,
    materialize_scalar,
    materialize_sym,
    materialize_vector,
    parse,
)
from .synthesis import (
    BoundaryTrace,
    Modality,
    NoiseSpec,
    check_modality_parameters,
    compatible_traces,
    trace_pool,
)

__all__ = [
    "ExperimentConfig",
    "load_config",
    "parse_config",
    "validate_document",
]

_SCHEMA = None


def _schema() -> dict:
    global _SCHEMA
    if _SCHEMA is None:
        text = resources.files("hiplab").joinpath("config_schema.json").read_text()
        _SCHEMA = json.loads(text)
    return _SCHEMA


def validate_document(doc: dict) -> None:
    """Check a raw configuration document against the shipped schema.

    Schema violations, unknown keys and non-finite numbers (Python's
    ``json`` reads the tokens ``NaN`` and ``Infinity``) raise a
    configuration error that names the offending path.  The grid, the
    component counts of ``a`` and ``b``, the modality parameters and the
    trace count are checked by the code that owns each rule (``Grid``,
    ``check_component_count``, ``check_modality_parameters``,
    ``trace_pool``); the study parameters are checked here.
    """
    for path, value in _numbers(doc):
        if not math.isfinite(value):
            where = "/".join(path) or "<root>"
            raise ConfigurationError(
                f"config number {value} is not finite (at {where})", stage="config"
            )
    validator = jsonschema.Draft7Validator(_schema())
    problems = sorted(validator.iter_errors(doc), key=lambda e: list(e.absolute_path))
    if problems:
        first = problems[0]
        where = "/".join(str(p) for p in first.absolute_path) or "<root>"
        raise ConfigurationError(f"config schema: {first.message} (at {where})", stage="config")

    dim = Grid(**doc["grid"]).dim

    coeffs = doc["coefficients"]
    if isinstance(coeffs["a"], list):
        check_component_count(coeffs["a"], dim, symmetric=True)
    if "b" in coeffs:
        check_component_count(coeffs["b"], dim)
    for src in _expressions_of(doc):
        parse(src)

    modality = doc["modality"]
    check_modality_parameters(
        modality["name"], [k for k in modality if k != "name"], stage="config"
    )

    traces = doc.get("traces", {})
    if "count" in traces and "expressions" in traces:
        raise ConfigurationError(
            "traces take either a count or explicit expressions, not both",
            stage="config",
        )
    if "count" in traces:
        trace_pool(dim, traces["count"], stage="config")

    study = doc["study"]
    kind = study["type"]
    if kind == "convergence":
        levels = study.get("levels")
        if levels is None or len(levels) < 3:
            raise ConfigurationError(
                "a convergence study needs at least 3 refinement levels",
                stage="config",
            )
        if sorted(set(levels)) != list(levels):
            raise ConfigurationError(
                "refinement levels must be strictly increasing", stage="config"
            )
    if kind == "noise-sweep":
        amps = study.get("amplitudes")
        if amps is None or len(amps) < 3 or 0.0 not in amps:
            raise ConfigurationError(
                "a noise sweep needs at least 3 amplitudes including 0",
                stage="config",
            )
        if "noise" not in doc:
            raise ConfigurationError(
                "a noise sweep needs a noise section for the base spec",
                stage="config",
            )
    if kind != "convergence" and "levels" in study:
        raise ConfigurationError("levels only apply to convergence studies", stage="config")
    if kind != "noise-sweep" and "amplitudes" in study:
        raise ConfigurationError("amplitudes only apply to noise sweeps", stage="config")


def _numbers(node, path=()):
    """Every float in a JSON document, with its path of keys and indices."""
    if isinstance(node, float):
        yield path, node
    elif isinstance(node, dict):
        for key, value in node.items():
            yield from _numbers(value, path + (str(key),))
    elif isinstance(node, list):
        for k, value in enumerate(node):
            yield from _numbers(value, path + (str(k),))


def _expressions_of(doc: dict) -> list[str]:
    out = []
    coeffs = doc["coefficients"]
    a = coeffs["a"]
    out.extend([a] if isinstance(a, str) else a)
    out.extend(coeffs.get("b", []))
    if "c" in coeffs:
        out.append(coeffs["c"])
    out.extend(v for k, v in doc["modality"].items() if k != "name")
    out.extend(doc.get("traces", {}).get("expressions", []))
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """A validated configuration document plus builders for its parts.

    Construction validates the document (:func:`validate_document`).
    The raw document is kept verbatim so reports can echo exactly what
    was asked for.  ``grid_for`` takes an optional per-axis vertex count
    so convergence studies can rebuild the same box at each level.
    """

    doc: dict

    def __post_init__(self):
        if not isinstance(self.doc, dict):
            raise ConfigurationError(
                "config document must be a JSON object", stage="config"
            )
        validate_document(self.doc)

    @property
    def seed(self) -> int:
        return int(self.doc.get("seed", 0))

    @property
    def dim(self) -> int:
        return len(self.doc["grid"]["shape"])

    @property
    def study_type(self) -> str:
        return self.doc["study"]["type"]

    @property
    def output(self) -> str | None:
        return self.doc.get("output")

    def grid_for(self, points: int | None = None) -> Grid:
        grid = Grid(**self.doc["grid"])
        return grid if points is None else Grid(grid.bounds, (points,) * grid.dim)

    def coefficients(self, grid: Grid) -> CoefficientSet:
        spec = self.doc["coefficients"]
        a_spec = spec["a"]
        if isinstance(a_spec, str):
            scale = materialize_scalar(a_spec, grid)
            a = SymTensorField(
                grid, SymTensorField.identity(grid).values * scale.values[..., None]
            )
        else:
            a = materialize_sym(a_spec, grid)
        if "b" in spec:
            b = materialize_vector(spec["b"], grid)
        else:
            b = VectorField.zero(grid)
        if "c" in spec:
            c = materialize_scalar(spec["c"], grid)
        else:
            c = ScalarField.constant(grid, 0.0)
        return CoefficientSet(a=a, b=b, c=c)

    def modality(self, grid: Grid) -> Modality:
        spec = self.doc["modality"]
        params = {k: v for k, v in spec.items() if k != "name"}
        return Modality(
            spec["name"], **{k: materialize_scalar(v, grid) for k, v in params.items()}
        )

    def _trace_spec(self) -> tuple[list[str], bool]:
        """The ``traces`` section: its expressions (a ``count`` prefix of the
        pool by default) and whether they are made corner-compatible."""
        spec = self.doc.get("traces", {})
        exprs = list(spec.get("expressions", trace_pool(self.dim, spec.get("count"))))
        return exprs, spec.get("corner_compatible", False)

    def traces(self, grid: Grid, coeffs: CoefficientSet) -> list[BoundaryTrace]:
        exprs, compatible = self._trace_spec()
        out = [BoundaryTrace.from_expression(grid, e) for e in exprs]
        return compatible_traces(coeffs, out) if compatible else out

    @property
    def trace_expressions(self) -> list[str | None]:
        """The expression of each trace :meth:`traces` builds, without
        building them: None for corner-compatible traces, which
        :func:`~hiplab.synthesis.compatible_traces` stores without one."""
        exprs, compatible = self._trace_spec()
        return [None] * len(exprs) if compatible else exprs

    def noise(self) -> NoiseSpec | None:
        """The ``noise`` section, drawn from the top-level ``seed``."""
        spec = self.doc.get("noise")
        if spec is None:
            return None
        return NoiseSpec(
            amplitude=float(spec["amplitude"]),
            correlation_length=float(spec.get("correlation_length", 0.1)),
            seed=self.seed,
        )

    def solver(self) -> SolverSettings:
        return SolverSettings(**self.doc.get("solver", {}))

    @property
    def recon_mode(self) -> str:
        return self.doc.get("reconstruction", {}).get("mode", "matrix")

    @property
    def margin(self) -> int:
        return int(self.doc.get("reconstruction", {}).get("margin", 2))


def parse_config(doc: dict) -> ExperimentConfig:
    """Validate an in-memory document and wrap it."""
    return ExperimentConfig(doc=doc)


def load_config(path: str) -> ExperimentConfig:
    """Read, validate, and wrap a configuration file."""
    return parse_config(read_json(path, "config", stage="config"))
