"""Command-line harness.

Every subcommand is driven by one JSON config (see ``config_schema.json``).
One table, ``COMMANDS``, names each subcommand with its handler and help
text; it builds the argument parser and drives the dispatch.  ``run``
runs the study the config declares, whatever its type, through
``studies.STUDIES``.

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

__all__ = ["main", "build_parser", "COMMANDS"]


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
    for name, (_, doc) in COMMANDS.items():
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
    studies.write_json(os.path.join(out, "reconstruction.json"), summary)
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
        studies.write_json(os.path.join(out, "admissibility.json"), report)
    return 0 if audit.passed else 4


def _cmd_run(args, cfg: ExperimentConfig) -> int:
    kind = cfg.study_type
    options = {}
    if args.dump_intermediates:
        if kind != "single":
            raise ConfigurationError(
                f"--dump-intermediates writes the fields of a single run; "
                f"a {kind} study has none to write",
                stage="cli",
            )
        options["dump_intermediates"] = True
    out = _out_dir(args, cfg, required=False)
    report = studies.STUDIES[kind](cfg, out_dir=out, **options)
    _emit(report, out)
    return 0


# subcommand: (handler, help text)
COMMANDS = {
    "forward": (_cmd_forward, "solve the boundary problems and write each solution"),
    "synth": (_cmd_synth, "synthesize the measurement set and write it"),
    "reconstruct": (_cmd_reconstruct, "reconstruct normalized coefficients from data"),
    "resolve": (_cmd_resolve, "reconstruct and resolve the modality gauge"),
    "check": (_cmd_check, "run the admissibility audit and report margins"),
    "run": (_cmd_run, "run the study declared in the config"),
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _load(args)
        return COMMANDS[args.command][0](args, cfg)
    except HiplabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
