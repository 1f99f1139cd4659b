"""End-to-end experiment drivers.

Three study types share one pipeline (synthesize, audit, reconstruct,
resolve, compare):

* ``run_single``: one grid, errors against ground truth;
* ``run_convergence``: the same experiment over a ladder of grids,
  with fitted orders per recovered quantity;
* ``run_noise_sweep``: one grid, a ladder of noise amplitudes, errors
  against the noiseless reconstruction and the empirical
  error-to-data-perturbation ratios.

``STUDIES`` names each study type of the config schema with its driver,
its CSV table and that table's frozen columns; ``hiplab run`` dispatches
through it, so a new study type is one entry there.  Every driver hands
its own report body and CSV rows to one skeleton (:func:`_report`),
which adds the ``schema_version``/``study``/``config`` header and each
row's ``study`` cell, and, given an output directory, writes the CSV
table and ``report.json``.  Reports never contain timestamps or absolute
paths: identical config and seeds produce byte-identical output files.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import gauge
from .admissibility import AdmissibilityReport, check as check_admissibility
from .config import ExperimentConfig
from .errors import ConfigurationError, DegeneracyError
from .forward import BoundaryTrace, CoefficientSet, SolverSettings
from .grids import (
    Grid,
    VectorField,
    divergence,
    divide,
    sym_inv,
    sym_matvec,
    write_field,
    write_json,
)
from .metrics import error_norms
from .recon import NormalizedCoefficients, RatioSet, analyze, reconstruct
from .synthesis import MeasurementSet, add_noise, synthesize

__all__ = [
    "PipelineResult",
    "synthesize_measurements",
    "audit",
    "recover",
    "run_pipeline",
    "resolve_measurements",
    "fitted_order",
    "run_single",
    "run_convergence",
    "run_noise_sweep",
    "Study",
    "STUDIES",
    "SCHEMA_VERSION",
]

SCHEMA_VERSION = 1

# columns are frozen; downstream tooling may rely on them
SINGLE_COLUMNS = [
    "study",
    "quantity",
    "points",
    "c0",
    "c1",
    "c2",
    "c0_rel",
    "c1_rel",
    "c2_rel",
    "region_fraction",
]
CONVERGENCE_COLUMNS = [
    "study",
    "quantity",
    "points",
    "spacing",
    "c0_rel",
    "c1_rel",
    "c2_rel",
    "order",
]
NOISE_COLUMNS = [
    "study",
    "quantity",
    "amplitude",
    "delta_h_c2",
    "err_c0",
    "err_c1",
    "ratio",
]


def _report(
    kind: str, cfg: ExperimentConfig, body: dict, rows: list[dict], out_dir: str | None
) -> dict:
    """The report of a ``kind`` study: the header, then ``body``.  Given
    ``out_dir``, it is written there as ``report.json``, beside the study's
    CSV table of ``rows``, each with its ``study`` cell."""
    report = {
        "schema_version": SCHEMA_VERSION, "study": kind, "config": cfg.doc, **body
    }
    if out_dir is not None:
        _, csv_name, columns = STUDIES[kind]
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, csv_name), "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                row = {"study": kind, **row}
                # a float's shortest round-trip text: deterministic across runs
                writer.writerow(
                    repr(row[c]) if isinstance(row[c], float) else str(row[c])
                    for c in columns
                )
        write_json(os.path.join(out_dir, "report.json"), report)
    return report


def resolve_measurements(
    ms: MeasurementSet,
    tri: gauge.InvariantTriple,
    coeffs: CoefficientSet,
    settings: SolverSettings | None = None,
) -> tuple[gauge.ResolvedCoefficients, dict]:
    """Run the modality resolver with anchors taken from ground truth.

    Every resolver is anchored by the boundary values of the weight
    ratio ``B/d``, formed from the phantom's amplitude and the weight
    stored with ``ms`` (for elastography ``d = 1``, so it is the
    amplitude).  qpat also reads the boundary amplitude, and the
    generic modality the known ``div(a^{-1} b)``.  Returns the resolved
    coefficients and the ``(recovered, truth)`` pairs its metrics compare,
    by name: elastography's ``a``, ``amplitude`` and ``c``, qpat's
    ``amplitude`` and ``c``, qtat's ``gamma``, and the generic ``inv_drift``
    (``a^{-1} b``); each truth is the field the anchors were formed from.
    """
    grid = ms.grid
    B = gauge.amplitude_of(coeffs.a)
    ratio = BoundaryTrace(grid, divide(B.values, ms.weight.values))
    name = ms.modality
    if name == "elastography":
        res = gauge.resolve_elastography(tri, ratio)
        return res, {
            "a": (res.a, coeffs.a),
            "amplitude": (res.amplitude, B),
            "c": (res.c, coeffs.c),
        }
    if name == "qpat":
        amplitude = BoundaryTrace(grid, B.values)
        res = gauge.resolve_qpat(tri, ms.gamma, ratio, amplitude, settings)
        return res, {"amplitude": (res.amplitude, B), "c": (res.c, coeffs.c)}
    if name == "qtat":
        res = gauge.resolve_qtat(tri, ratio)
        return res, {"gamma": (res.gamma, ms.gamma)}
    dim = grid.dim
    inv_drift = VectorField(
        grid, sym_matvec(sym_inv(coeffs.a.values, dim), coeffs.b.values, dim)
    )
    res = gauge.resolve_generic(tri, divergence(inv_drift), ratio)
    return res, {"inv_drift": (res.fields["drift_combination"], inv_drift)}


@dataclass
class PipelineResult:
    """Everything one end-to-end run produced (``metrics`` by
    :func:`run_pipeline` only)."""

    grid: Grid
    coeffs: CoefficientSet
    ms: MeasurementSet
    admissibility: dict
    checks: list
    nc: NormalizedCoefficients
    resolved: gauge.ResolvedCoefficients
    quantities: dict
    truths: dict
    flags: np.ndarray
    metrics: dict = field(default_factory=dict)


def synthesize_measurements(
    cfg: ExperimentConfig, grid: Grid, coeffs: CoefficientSet
) -> MeasurementSet:
    """The configured measurement set on ``grid``, with the configured noise."""
    traces = cfg.traces(grid, coeffs)
    ms = synthesize(coeffs, cfg.modality(grid), traces, cfg.solver())
    noise = cfg.noise()
    if noise is not None:
        ms = add_noise(ms, noise)
    return ms


def audit(
    cfg: ExperimentConfig, ms: MeasurementSet
) -> tuple[RatioSet, AdmissibilityReport]:
    """The ratio analysis of ``ms`` in the configured mode and margin,
    the one read of them, and its audit against the fixed floors of
    :data:`hiplab.admissibility.FLOORS`."""
    rs = analyze(ms, mode=cfg.recon_mode, margin=cfg.margin)
    return rs, check_admissibility(ms, analysis=rs)


def recover(
    cfg: ExperimentConfig, ms: MeasurementSet, coeffs: CoefficientSet
) -> PipelineResult:
    """Audit, reconstruct and resolve ``ms`` from one ratio analysis,
    in its mode; a failed audit raises :class:`DegeneracyError`.
    ``coeffs`` supplies the resolvers' anchors and the ground truths;
    ``quantities`` and ``truths`` hold ``ahat`` and the pairs of
    :func:`resolve_measurements`.
    """
    rs, report = audit(cfg, ms)
    if not report.passed:
        raise DegeneracyError(
            "admissibility audit failed: " + "; ".join(report.failures()),
            stage="admissibility",
        )

    nc = reconstruct(ms, rs)
    checks = [row.to_dict() for row in rs.checks]
    del rs  # the resolvers do not read it; free it before their solves
    tri = gauge.invariant_triple(nc, ms.functionals[0])
    resolved, pairs = resolve_measurements(ms, tri, coeffs, cfg.solver())

    # in scalar mode ahat's error is how far the phantom's a is from scalar
    pairs = {"ahat": (nc.diffusion, gauge.shape_of(coeffs.a)), **pairs}
    return PipelineResult(
        grid=ms.grid,
        coeffs=coeffs,
        ms=ms,
        admissibility=report.to_dict(),
        checks=checks,
        nc=nc,
        resolved=resolved,
        quantities={name: q for name, (q, _) in pairs.items()},
        truths={name: t for name, (_, t) in pairs.items()},
        flags=resolved.flags,
    )


def _require_configured(
    cfg: ExperimentConfig, grid: Grid, ms: MeasurementSet
) -> None:
    """Refuse a measurement set whose grid, modality, declared ``gamma``
    or ``weight`` (bit for bit), traces or noise are not the configured
    experiment's; the phantom is not stored with the data, so a changed
    coefficient goes unseen."""
    found = []
    if not ms.grid.compatible(grid):
        found.append(
            f"grid {list(ms.grid.shape)} on {[list(b) for b in ms.grid.bounds]}, "
            f"config {list(grid.shape)} on {[list(b) for b in grid.bounds]}"
        )
    spec = cfg.doc["modality"]
    if ms.modality != spec["name"]:
        found.append(f"modality {ms.modality}, config {spec['name']}")
    elif ms.grid.compatible(grid):
        for name in spec.keys() - {"name"}:  # gamma, or the generic weight
            stored, given = getattr(ms, name).values, getattr(cfg.modality(grid), name).values
            if (stored.dtype, stored.tobytes()) != (given.dtype, given.tobytes()):
                found.append(f"{name} differs from the config's {spec[name]!r}")
    stored, expressions = [t.expression for t in ms.traces], cfg.trace_expressions
    if len(stored) != len(expressions):
        found.append(f"{len(stored)} traces, config {len(expressions)}")
    elif stored != expressions:
        found.append(f"trace expressions {stored}, config {expressions}")
    if ms.noise != cfg.noise():
        found.append(f"noise {ms.noise}, config {cfg.noise()}")
    if found:
        raise ConfigurationError(
            "measurement set differs from the config: " + "; ".join(found),
            stage="data",
        )


def run_pipeline(
    cfg: ExperimentConfig,
    grid: Grid | None = None,
    ms: MeasurementSet | None = None,
) -> PipelineResult:
    """Synthesize, audit, reconstruct, resolve, and measure one run.

    Passing a prebuilt measurement set skips the forward solves; the
    phantom is still materialized for anchors and error metrics, and
    refused, as synthesis refuses it, if its ``a`` is not SPD.  The
    set must be of the configured grid, modality, traces and noise, or
    :class:`ConfigurationError` names what differs.
    """
    if grid is None:
        grid = cfg.grid_for()
    if ms is not None:
        _require_configured(cfg, grid, ms)
    coeffs = cfg.coefficients(grid)
    if ms is None:
        ms = synthesize_measurements(cfg, grid, coeffs)
    else:
        coeffs.validate_spd()
    result = recover(cfg, ms, coeffs)
    trusted = result.nc.inside & ~result.flags
    result.metrics = {
        name: error_norms(q, result.truths[name], trusted).to_dict()
        for name, q in sorted(result.quantities.items())
    }
    return result


def _dump_fields(result: PipelineResult, directory: str) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    named = {}
    for j, h in enumerate(result.ms.functionals):
        named[f"h{j + 1}"] = h
    named["alpha_hat"] = result.nc.diffusion
    named["beta"] = result.nc.drift
    named["quality"] = result.nc.quality
    for attr in ("a", "b", "c", "weight", "amplitude", "gamma"):
        fld = getattr(result.resolved, attr)
        if fld is not None:
            named[f"resolved_{attr}"] = fld
    for key, fld in result.resolved.fields.items():
        named[f"aux_{key}"] = fld
    written = []
    for name in sorted(named):
        path = os.path.join(directory, name + ".field")
        write_field(named[name], path)
        written.append(name + ".field")
    return written


def run_single(
    cfg: ExperimentConfig,
    out_dir: str | None = None,
    dump_intermediates: bool = False,
    ms: MeasurementSet | None = None,
) -> dict:
    """One experiment on the configured grid, measured against truth."""
    result = run_pipeline(cfg, ms=ms)
    body = {
        "admissibility": result.admissibility,
        "checks": result.checks,
        "gauge": result.resolved.report.to_dict(),
        "flagged_fraction": float(np.count_nonzero(result.flags))
        / float(np.prod(result.grid.shape)),
        "metrics": result.metrics,
    }
    if out_dir is not None and dump_intermediates:
        body["fields"] = _dump_fields(result, os.path.join(out_dir, "fields"))
    points = int(result.grid.shape[0])
    rows = [
        {"quantity": name, "points": points, **m} for name, m in result.metrics.items()
    ]
    return _report("single", cfg, body, rows, out_dir)


def fitted_order(spacings, errors) -> float:
    """Least-squares slope of log(error) against log(spacing).

    Returns NaN when the sequence is not strictly decreasing with the
    spacing (stalls and rounding-floor plateaus have no meaningful
    order).
    """
    err = np.asarray(errors, dtype=float)
    if (
        err.size < 2
        or not np.all(np.isfinite(err))
        or np.any(err <= 0)
        or np.any(np.diff(err) >= 0)
    ):
        return float("nan")
    slope = np.polyfit(np.log(np.asarray(spacings, dtype=float)), np.log(err), 1)[0]
    return float(slope)


def run_convergence(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """The configured experiment over a refinement ladder, with orders."""
    levels = cfg.doc["study"]["levels"]
    per_level = []
    spacings = []
    for points in levels:
        grid = cfg.grid_for(points)
        result = run_pipeline(cfg, grid)
        spacings.append(float(max(grid.spacing)))
        per_level.append(result.metrics)

    quantities = sorted(per_level[0])
    orders = {}
    warnings = []
    rows = []
    for name in quantities:
        errs = [m[name]["c0_rel"] for m in per_level]
        order = fitted_order(spacings, errs)
        if np.isnan(order):
            if not all(np.isfinite(e) for e in errs):
                warnings.append(
                    f"{name}: relative error undefined (vanishing reference), "
                    "order reported as null"
                )
            elif max(errs) < 1e-9:
                warnings.append(
                    f"{name}: errors at rounding level, no order to fit"
                )
            else:
                warnings.append(
                    f"{name}: error sequence not monotone, order reported as null"
                )
        orders[name] = order
        for points, h, m in zip(levels, spacings, per_level):
            rows.append(
                {
                    "quantity": name,
                    "points": points,
                    "spacing": h,
                    "c0_rel": m[name]["c0_rel"],
                    "c1_rel": m[name]["c1_rel"],
                    "c2_rel": m[name]["c2_rel"],
                    "order": order,
                }
            )

    body = {
        "levels": list(levels),
        "spacings": spacings,
        "errors": {
            name: [m[name]["c0_rel"] for m in per_level] for name in quantities
        },
        "orders": orders,
        "warnings": warnings,
    }
    return _report("convergence", cfg, body, rows, out_dir)


def run_noise_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Reconstruction error against injected data perturbation size.

    Every amplitude reuses one clean synthesis and one noise seed, so
    the sweep isolates amplitude scaling: the injected field is the
    same random draw at every level, only its size changes.  Errors are
    measured against the noiseless reconstruction, and each quantity
    reports the ratio of its error to the discrete-C2 size of the data
    perturbation, plus the spread of that ratio over the sweep.

    Each level is the config's noise (:meth:`ExperimentConfig.noise`)
    at one of the study's ``amplitudes``.
    """
    study = cfg.doc["study"]
    base = cfg.noise()

    grid = cfg.grid_for()
    coeffs = cfg.coefficients(grid)
    clean = synthesize(coeffs, cfg.modality(grid), cfg.traces(grid, coeffs), cfg.solver())

    levels = sorted(float(a) for a in study["amplitudes"])
    baseline = None
    baseline_flags = None
    table = []
    for eps in levels:
        noisy = add_noise(clean, replace(base, amplitude=eps))
        result = recover(cfg, noisy, coeffs)
        quantities, flags, mask = result.quantities, result.flags, result.nc.inside
        delta = max(
            error_norms(hn, hc, mask).c2
            for hn, hc in zip(noisy.functionals, clean.functionals)
        )
        if eps == 0.0:
            baseline, baseline_flags = quantities, flags
        entry = {"amplitude": eps, "delta_h_c2": delta, "quantities": {}}
        for name in sorted(quantities):
            em = error_norms(
                quantities[name], baseline[name], mask & ~(flags | baseline_flags)
            )
            entry["quantities"][name] = {
                "err_c0": em.c0,
                "err_c1": em.c1,
                "ratio": em.c0 / delta if delta > 0 else 0.0,
            }
        table.append(entry)
    rows = [
        {"quantity": q, "amplitude": e["amplitude"], "delta_h_c2": e["delta_h_c2"], **m}
        for e in table
        for q, m in e["quantities"].items()
    ]

    spreads = {}
    for name in sorted(baseline):
        ratios = [
            e["quantities"][name]["ratio"] for e in table if e["amplitude"] > 0
        ]
        positive = [r for r in ratios if r > 0]
        spreads[name] = (
            max(positive) / min(positive) if positive else float("nan")
        )

    body = {
        "correlation_length": base.correlation_length,
        "seed": base.seed,
        "table": table,
        "ratio_spread": spreads,
    }
    return _report("noise-sweep", cfg, body, rows, out_dir)


class Study(NamedTuple):
    """A study type: its driver, its CSV table and the table's columns."""

    driver: Callable[..., dict]
    csv_name: str
    columns: list[str]


# every study type the config schema allows
STUDIES = {
    "single": Study(run_single, "metrics.csv", SINGLE_COLUMNS),
    "convergence": Study(run_convergence, "convergence.csv", CONVERGENCE_COLUMNS),
    "noise-sweep": Study(run_noise_sweep, "noise_sweep.csv", NOISE_COLUMNS),
}
