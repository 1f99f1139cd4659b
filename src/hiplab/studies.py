"""End-to-end experiment drivers.

Three study types share one pipeline (synthesize, audit, reconstruct,
resolve, compare):

* ``run_single``: one grid, errors against ground truth;
* ``run_convergence``: the same experiment over a ladder of grids,
  with fitted orders per recovered quantity;
* ``run_noise_sweep``: one grid, a ladder of noise amplitudes, errors
  against the noiseless reconstruction and the empirical
  error-to-data-perturbation ratios.

``STUDIES`` maps each study type of the config schema to its driver;
``hiplab run`` dispatches through it, so a new study type is one entry
there.  Every driver returns a JSON-ready report dict and, given an
output directory, writes ``report.json`` plus a CSV table with frozen
columns (:func:`_write_outputs`).  Reports never contain timestamps or
absolute paths: identical config and seeds produce byte-identical
output files.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import gauge
from .admissibility import check as check_admissibility
from .config import ExperimentConfig
from .errors import DegeneracyError
from .forward import BoundaryTrace, CoefficientSet, SolverSettings
from .grids import (
    Grid,
    VectorField,
    divergence,
    divide,
    sym_inv,
    sym_matvec,
    write_field,
)
from .metrics import error_norms
from .recon import NormalizedCoefficients, analyze, reconstruct
from .synthesis import MeasurementSet, NoiseSpec, add_noise, synthesize

__all__ = [
    "PipelineResult",
    "synthesize_measurements",
    "recover",
    "run_pipeline",
    "resolve_measurements",
    "fitted_order",
    "run_single",
    "run_convergence",
    "run_noise_sweep",
    "STUDIES",
    "SCHEMA_VERSION",
    "write_json",
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


def _fmt(value) -> str:
    """Shortest round-trip text for a cell; deterministic across runs."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, columns: list[str], rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_fmt(row[c]) for c in columns])


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` with sorted keys, 2-space indent and a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_outputs(
    out_dir: str, csv_name: str, columns: list[str], rows: list[dict], report: dict
) -> None:
    """A study's CSV table and ``report.json``, written into ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    _write_csv(os.path.join(out_dir, csv_name), columns, rows)
    write_json(os.path.join(out_dir, "report.json"), report)


def _inv_drift(coeffs: CoefficientSet) -> VectorField:
    """``a^{-1} b`` of the phantom."""
    dim = coeffs.grid.dim
    return VectorField(
        coeffs.grid,
        sym_matvec(sym_inv(coeffs.a.values, dim), coeffs.b.values, dim),
    )


def resolve_measurements(
    ms: MeasurementSet,
    tri: gauge.InvariantTriple,
    coeffs: CoefficientSet,
    settings: SolverSettings | None = None,
) -> gauge.ResolvedCoefficients:
    """Run the modality resolver with anchors taken from ground truth.

    Every resolver is anchored by the boundary values of the weight
    ratio ``B/d``, formed from the phantom's amplitude and the weight
    stored with ``ms`` (for elastography ``d = 1``, so it is the
    amplitude).  qpat also reads the boundary amplitude, and the
    generic modality the known ``div(a^{-1} b)``.
    """
    grid = ms.grid
    h1 = ms.functionals[0]
    B = gauge.amplitude_of(coeffs.a)
    ratio = BoundaryTrace(grid, divide(B.values, ms.weight.values))
    name = ms.modality
    if name == "elastography":
        return gauge.resolve_elastography(tri, h1, ratio)
    if name == "qpat":
        amplitude = BoundaryTrace(grid, B.values)
        return gauge.resolve_qpat(tri, h1, ms.gamma, ratio, amplitude, settings)
    if name == "qtat":
        return gauge.resolve_qtat(tri, h1, ratio)
    return gauge.resolve_generic(tri, h1, divergence(_inv_drift(coeffs)), ratio)


@dataclass
class PipelineResult:
    """Everything one end-to-end run produced (``metrics`` by
    :func:`run_pipeline` only)."""

    grid: Grid
    coeffs: CoefficientSet
    ms: MeasurementSet
    admissibility: dict
    nc: NormalizedCoefficients
    resolved: gauge.ResolvedCoefficients | None
    quantities: dict
    truths: dict
    flags: np.ndarray
    metrics: dict = field(default_factory=dict)


_AMPLITUDE = (
    "amplitude",
    lambda r: r.amplitude,
    lambda ms, coeffs: gauge.amplitude_of(coeffs.a),
)
_C = ("c", lambda r: r.c, lambda ms, coeffs: coeffs.c)

# per modality, the resolved quantities its metrics compare:
# (name, recovered field of the resolver, ground truth)
_RESOLVED_QUANTITIES = {
    "elastography": (
        ("a", lambda r: r.a, lambda ms, coeffs: coeffs.a),
        _AMPLITUDE,
        _C,
    ),
    "qpat": (_AMPLITUDE, _C),
    "qtat": (("gamma", lambda r: r.gamma, lambda ms, coeffs: ms.gamma),),
    "generic": (
        (
            "inv_drift",
            lambda r: r.fields["drift_combination"],
            lambda ms, coeffs: _inv_drift(coeffs),
        ),
    ),
}


def _quantity_table(
    cfg: ExperimentConfig,
    ms: MeasurementSet,
    coeffs: CoefficientSet,
    nc: NormalizedCoefficients,
    resolved: gauge.ResolvedCoefficients | None,
) -> tuple[dict, dict]:
    """Recovered fields and their ground-truth references, by name."""
    if cfg.recon_mode == "scalar":
        return {"drift": nc.drift}, {"drift": coeffs.b}
    quantities = {"ahat": nc.diffusion}
    truths = {"ahat": gauge.shape_of(coeffs.a)}
    for name, recovered, truth in _RESOLVED_QUANTITIES[ms.modality]:
        quantities[name] = recovered(resolved)
        truths[name] = truth(ms, coeffs)
    return quantities, truths


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


def recover(
    cfg: ExperimentConfig, ms: MeasurementSet, coeffs: CoefficientSet
) -> PipelineResult:
    """Audit, reconstruct and resolve ``ms`` from one ratio analysis in
    the configured mode; a failed audit raises :class:`DegeneracyError`.
    ``coeffs`` supplies the resolvers' anchors and the ground truths.
    """
    rs = analyze(ms, mode=cfg.recon_mode, margin=cfg.margin)
    report = check_admissibility(ms, thresholds=cfg.thresholds(), analysis=rs)
    if not report.passed:
        failing = [e.name for e in report.entries if not e.passed]
        raise DegeneracyError(
            "admissibility audit failed; rejecting regions: " + ", ".join(failing),
            stage="admissibility",
        )

    nc = reconstruct(ms, mode=cfg.recon_mode, margin=cfg.margin, analysis=rs)
    del rs  # the resolvers do not read it; free it before their solves
    resolved = None
    flags = nc.degenerate.copy()
    if cfg.recon_mode == "matrix":
        tri = gauge.invariant_triple(nc, ms.functionals[0])
        resolved = resolve_measurements(ms, tri, coeffs, cfg.solver())
        flags = flags | resolved.flags

    quantities, truths = _quantity_table(cfg, ms, coeffs, nc, resolved)
    return PipelineResult(
        grid=ms.grid,
        coeffs=coeffs,
        ms=ms,
        admissibility=report.to_dict(),
        nc=nc,
        resolved=resolved,
        quantities=quantities,
        truths=truths,
        flags=flags,
    )


def run_pipeline(
    cfg: ExperimentConfig,
    grid: Grid | None = None,
    ms: MeasurementSet | None = None,
) -> PipelineResult:
    """Synthesize, audit, reconstruct, resolve, and measure one run.

    Passing a prebuilt measurement set skips the forward solves; the
    phantom is still materialized (on the data grid) for anchors and
    error metrics.
    """
    if grid is None:
        grid = cfg.grid_for() if ms is None else ms.grid
    coeffs = cfg.coefficients(grid)
    if ms is None:
        ms = synthesize_measurements(cfg, grid, coeffs)
    result = recover(cfg, ms, coeffs)
    mask, flags = result.nc.mask, result.flags
    result.metrics = {
        name: error_norms(q, result.truths[name], mask=mask, exclude=flags).to_dict()
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
    if result.resolved is not None:
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
    points = int(result.grid.shape[0])
    report = {
        "schema_version": SCHEMA_VERSION,
        "study": "single",
        "config": cfg.doc,
        "admissibility": result.admissibility,
        "gauge": None
        if result.resolved is None
        else result.resolved.report.to_dict(),
        "flagged_fraction": float(np.count_nonzero(result.flags))
        / float(np.prod(result.grid.shape)),
        "metrics": result.metrics,
    }
    if out_dir is not None:
        rows = [
            {"study": "single", "quantity": name, "points": points, **m}
            for name, m in result.metrics.items()
        ]
        if dump_intermediates:
            report["fields"] = _dump_fields(result, os.path.join(out_dir, "fields"))
        _write_outputs(out_dir, "metrics.csv", SINGLE_COLUMNS, rows, report)
    return report


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
                    "order reported as NaN"
                )
            elif max(errs) < 1e-9:
                warnings.append(
                    f"{name}: errors at rounding level, no order to fit"
                )
            else:
                warnings.append(
                    f"{name}: error sequence not monotone, order reported as NaN"
                )
        orders[name] = order
        for points, h, m in zip(levels, spacings, per_level):
            rows.append(
                {
                    "study": "convergence",
                    "quantity": name,
                    "points": points,
                    "spacing": h,
                    "c0_rel": m[name]["c0_rel"],
                    "c1_rel": m[name]["c1_rel"],
                    "c2_rel": m[name]["c2_rel"],
                    "order": order,
                }
            )

    report = {
        "schema_version": SCHEMA_VERSION,
        "study": "convergence",
        "config": cfg.doc,
        "levels": list(levels),
        "spacings": spacings,
        "errors": {
            name: [m[name]["c0_rel"] for m in per_level] for name in quantities
        },
        "orders": orders,
        "warnings": warnings,
    }
    if out_dir is not None:
        _write_outputs(out_dir, "convergence.csv", CONVERGENCE_COLUMNS, rows, report)
    return report


def run_noise_sweep(cfg: ExperimentConfig, out_dir: str | None = None) -> dict:
    """Reconstruction error against injected data perturbation size.

    Every amplitude reuses one clean synthesis and one noise seed, so
    the sweep isolates amplitude scaling: the injected field is the
    same random draw at every level, only its size changes.  Errors are
    measured against the noiseless reconstruction, and each quantity
    reports the ratio of its error to the discrete-C2 size of the data
    perturbation, plus the spread of that ratio over the sweep.
    """
    study = cfg.doc["study"]
    base = cfg.noise()
    corr = float(study.get("correlation_length", base.correlation_length))

    grid = cfg.grid_for()
    coeffs = cfg.coefficients(grid)
    modality = cfg.modality(grid)
    traces = cfg.traces(grid, coeffs)
    clean = synthesize(coeffs, modality, traces, cfg.solver())
    mask = grid.interior(cfg.margin)

    levels = sorted(float(a) for a in study["amplitudes"])
    baseline = None
    baseline_flags = None
    rows = []
    table = []
    for eps in levels:
        spec = NoiseSpec(amplitude=eps, correlation_length=corr, seed=base.seed)
        noisy = add_noise(clean, spec)
        delta = max(
            error_norms(hn, hc, mask=mask).c2
            for hn, hc in zip(noisy.functionals, clean.functionals)
        )
        result = recover(cfg, noisy, coeffs)
        quantities, flags = result.quantities, result.flags
        if eps == 0.0:
            baseline, baseline_flags = quantities, flags
        entry = {"amplitude": eps, "delta_h_c2": delta, "quantities": {}}
        for name in sorted(quantities):
            em = error_norms(
                quantities[name],
                baseline[name],
                mask=mask,
                exclude=flags | baseline_flags,
            )
            ratio = em.c0 / delta if delta > 0 else 0.0
            entry["quantities"][name] = {
                "err_c0": em.c0,
                "err_c1": em.c1,
                "ratio": ratio,
            }
            rows.append(
                {
                    "study": "noise-sweep",
                    "quantity": name,
                    "amplitude": eps,
                    "delta_h_c2": delta,
                    "err_c0": em.c0,
                    "err_c1": em.c1,
                    "ratio": ratio,
                }
            )
        table.append(entry)

    spreads = {}
    for name in sorted(baseline):
        ratios = [
            e["quantities"][name]["ratio"] for e in table if e["amplitude"] > 0
        ]
        positive = [r for r in ratios if r > 0]
        spreads[name] = (
            max(positive) / min(positive) if positive else float("nan")
        )

    report = {
        "schema_version": SCHEMA_VERSION,
        "study": "noise-sweep",
        "config": cfg.doc,
        "correlation_length": corr,
        "seed": base.seed,
        "table": table,
        "ratio_spread": spreads,
    }
    if out_dir is not None:
        _write_outputs(out_dir, "noise_sweep.csv", NOISE_COLUMNS, rows, report)
    return report


# the driver of each study type the config schema allows
STUDIES = {
    "single": run_single,
    "convergence": run_convergence,
    "noise-sweep": run_noise_sweep,
}
