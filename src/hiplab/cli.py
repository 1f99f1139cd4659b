"""Command-line harness.

Every subcommand is driven by one JSON config (see ``config_schema.json``):

* ``forward``      solve the boundary problems and write the solutions
* ``synth``        write the measurement set (functionals plus manifest)
* ``reconstruct``  audit admissibility, write the normalized coefficients
* ``resolve``      full pipeline, write resolved coefficients and report
* ``check``        admissibility audit only
* ``run``          the study declared in the config, with metrics
* ``convergence``  refinement-ladder study
* ``noise-sweep``  noise-amplitude study

Exit codes: 0 success, 2 configuration error, 3 solver failure,
4 admissibility or degeneracy abort.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import studies
from .admissibility import check as check_admissibility
from .config import ExperimentConfig, load_config, parse_config
from .errors import ConfigurationError, HiplabError
from .forward import solve_traces
from .grids import write_field
from .recon import analyze
from .synthesis import load_measurements, save_measurements

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiplab",
        description=(
            "Numerical laboratory for reconstructing the coefficients of a "
            "second-order elliptic equation from interior functionals"
        ),
    )
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", help="output directory (default: config 'output')")
    parser.add_argument(
        "--seed", type=int, help="override the config seed", default=None
    )
    parser.add_argument(
        "--dump-intermediates",
        action="store_true",
        help=(
            "also write intermediate fields (functionals, alpha_hat, beta, "
            "quality, resolved and aux_ fields)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("forward", "solve the boundary problems and write each solution"),
        ("synth", "synthesize the measurement set and write it"),
        ("reconstruct", "reconstruct normalized coefficients from data"),
        ("resolve", "reconstruct and resolve the modality gauge"),
        ("check", "run the admissibility audit and report margins"),
        ("run", "run the study declared in the config"),
        ("convergence", "run the refinement-ladder study"),
        ("noise-sweep", "run the noise-amplitude study"),
    ]:
        cmd = sub.add_parser(name, help=doc)
        if name in ("reconstruct", "resolve"):
            cmd.add_argument(
                "--data",
                help="measurement directory from a previous synth "
                "(skips the forward solves)",
            )
    return parser


def _load(args) -> ExperimentConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        doc = dict(cfg.doc)
        doc["seed"] = args.seed
        cfg = parse_config(doc)
    return cfg


def _out_dir(args, cfg: ExperimentConfig, required: bool) -> str | None:
    out = args.out or cfg.output
    if out is None and required:
        raise ConfigurationError(
            "this command writes files; pass --out or set 'output' in the config",
            stage="cli",
        )
    if out is not None:
        os.makedirs(out, exist_ok=True)
    return out


def _emit(report: dict, out: str | None) -> None:
    if out is None:
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")


def _cmd_forward(args, cfg: ExperimentConfig) -> int:
    out = _out_dir(args, cfg, required=True)
    grid = cfg.grid_for()
    coeffs = cfg.coefficients(grid)
    traces = cfg.traces(grid, coeffs)
    solutions = solve_traces(coeffs, traces, settings=cfg.solver())
    for j, u in enumerate(solutions):
        write_field(u, os.path.join(out, f"u{j + 1}.field"))
    print(f"wrote {len(traces)} solutions to {out}")
    return 0


def _synthesize(cfg: ExperimentConfig):
    grid = cfg.grid_for()
    return studies.synthesize_measurements(cfg, grid, cfg.coefficients(grid))


def _cmd_synth(args, cfg: ExperimentConfig) -> int:
    out = _out_dir(args, cfg, required=True)
    ms = _synthesize(cfg)
    save_measurements(ms, out)
    print(f"wrote {len(ms.functionals)} functionals ({ms.modality}) to {out}")
    return 0


def _measurements(args, cfg: ExperimentConfig):
    if getattr(args, "data", None):
        return load_measurements(args.data)
    return None


def _cmd_reconstruct(args, cfg: ExperimentConfig) -> int:
    out = _out_dir(args, cfg, required=True)
    result = studies.run_pipeline(cfg, ms=_measurements(args, cfg))
    write_field(result.nc.diffusion, os.path.join(out, "alpha_hat.field"))
    write_field(result.nc.drift, os.path.join(out, "beta.field"))
    write_field(result.nc.quality, os.path.join(out, "quality.field"))
    summary = {
        "schema_version": studies.SCHEMA_VERSION,
        "admissibility": result.admissibility,
        "metrics": result.metrics,
    }
    with open(os.path.join(out, "reconstruction.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote normalized coefficients to {out}")
    return 0


def _cmd_resolve(args, cfg: ExperimentConfig) -> int:
    out = _out_dir(args, cfg, required=True)
    report = studies.run_single(
        cfg, out_dir=out, dump_intermediates=True, ms=_measurements(args, cfg)
    )
    gauge_report = report.get("gauge")
    if gauge_report is not None:
        print(gauge_report["dimension_audit"]["statement"])
    print(f"wrote resolved coefficients and report to {out}")
    return 0


def _cmd_check(args, cfg: ExperimentConfig) -> int:
    # The audit itself never raises on bad data: failing conditions are
    # report entries, and the verdict maps to the exit code.
    out = _out_dir(args, cfg, required=False)
    ms = _synthesize(cfg)
    rs = analyze(ms, mode=cfg.recon_mode, margin=cfg.margin)
    audit = check_admissibility(ms, thresholds=cfg.thresholds(), analysis=rs)
    print(audit.to_text())
    if out is not None:
        report = {
            "schema_version": studies.SCHEMA_VERSION,
            "admissibility": audit.to_dict(),
        }
        with open(os.path.join(out, "admissibility.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if audit.passed else 4


def _cmd_run(args, cfg: ExperimentConfig) -> int:
    out = _out_dir(args, cfg, required=False)
    kind = cfg.study_type
    if kind == "convergence":
        report = studies.run_convergence(cfg, out_dir=out)
    elif kind == "noise-sweep":
        report = studies.run_noise_sweep(cfg, out_dir=out)
    else:
        report = studies.run_single(
            cfg, out_dir=out, dump_intermediates=args.dump_intermediates
        )
    _emit(report, out)
    return 0


def _cmd_convergence(args, cfg: ExperimentConfig) -> int:
    if cfg.study_type != "convergence":
        raise ConfigurationError(
            "the config does not declare a convergence study", stage="cli"
        )
    out = _out_dir(args, cfg, required=False)
    report = studies.run_convergence(cfg, out_dir=out)
    _emit(report, out)
    return 0


def _cmd_noise_sweep(args, cfg: ExperimentConfig) -> int:
    if cfg.study_type != "noise-sweep":
        raise ConfigurationError(
            "the config does not declare a noise-sweep study", stage="cli"
        )
    out = _out_dir(args, cfg, required=False)
    report = studies.run_noise_sweep(cfg, out_dir=out)
    _emit(report, out)
    return 0


_COMMANDS = {
    "forward": _cmd_forward,
    "synth": _cmd_synth,
    "reconstruct": _cmd_reconstruct,
    "resolve": _cmd_resolve,
    "check": _cmd_check,
    "run": _cmd_run,
    "convergence": _cmd_convergence,
    "noise-sweep": _cmd_noise_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        return _COMMANDS[args.command](args, cfg)
    except HiplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
