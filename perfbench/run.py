"""hiplab benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload elasto-3d --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; hiplab is imported from its ``src``.
An operation is one ``studies.run_pipeline`` call; the next starts when
the previous has returned.  Each operation is checked after its timer
stops: the admissibility audit passed, every ``c0_rel`` is below the
workload's ceiling, and the metrics dict is bit-identical to the first
operation's.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced operations and prints the per-layer metrics, the
share of each operation's wall time the layer spans cover, and the
tracing overhead.  Spans are written to ``perfbench/out/``.
``--workload all`` runs every workload, each in its own process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is nonzero if any operation failed or any check did not hold.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import inspect
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
OUT = Path(__file__).resolve().parent / "out"
SRC = ROOT / "src"

if not (SRC / "hiplab" / "__init__.py").is_file():
    sys.exit(f"perfbench: no hiplab sources at {SRC}; run from the root of a checkout")
sys.path.insert(0, str(SRC))
from hiplab import config, forward, studies, synthesis  # noqa: E402


def _blas_threads():
    """OpenBLAS thread count of the numpy build, or None if not found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*.so*")):
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _l3_bytes():
    """Size of the level-3 cache of CPU 0, or None if not reported."""
    for index in glob.glob("/sys/devices/system/cpu/cpu0/cache/index*"):
        try:
            level = Path(index, "level").read_text().strip()
            size = Path(index, "size").read_text().strip()
        except OSError:
            continue
        if level == "3":
            scale = {"K": 1024, "M": 1024 * 1024}.get(size[-1:], 1)
            return int(size.rstrip("KM")) * scale
    return None


def _environment(seed: int) -> dict:
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "l3_bytes": _l3_bytes(),
    }


def set_up(workload, seed: int):
    """Parse and materialize the config; prebuilt workloads also
    synthesize and perturb their measurement set here."""
    cfg = config.parse_config(workload.config(seed))
    grid = cfg.grid_for()
    coeffs = cfg.coefficients(grid)
    modality = cfg.modality(grid)
    traces = cfg.traces(grid, coeffs)
    if not workload.prebuilt:
        return cfg, None
    ms = synthesis.synthesize(coeffs, modality, traces, cfg.solver())
    return cfg, synthesis.add_noise(ms, cfg.noise())


def _canonical(metrics: dict) -> str:
    # repr of a float round-trips, so equal text means equal bits
    return json.dumps(metrics, sort_keys=True)


def check(workload, result, reference: str | None) -> list[str]:
    """Problems with one operation's result; empty when it is correct."""
    problems = []
    if not result.admissibility["passed"]:
        problems.append("admissibility audit did not pass")
    if set(result.metrics) != set(workload.ceilings):
        problems.append(
            f"quantities {sorted(result.metrics)} differ from {sorted(workload.ceilings)}"
        )
    for name, ceiling in workload.ceilings.items():
        value = result.metrics.get(name, {}).get("c0_rel", float("nan"))
        if not value <= ceiling:
            problems.append(f"c0_rel.{name} = {value!r} exceeds ceiling {ceiling!r}")
    if reference is not None and _canonical(result.metrics) != reference:
        problems.append("metrics differ from the first operation's")
    return problems


class Loop:
    """Runs and checks operations, counting attempts and failures."""

    def __init__(self, workload, cfg, ms):
        self.workload = workload
        self.cfg = cfg
        self.ms = ms
        self.attempted = 0
        self.failed = 0
        self.reference = None
        self.first = None

    def run(self):
        """One checked operation; returns (wall seconds, result) or None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = studies.run_pipeline(self.cfg, ms=self.ms)
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return None
        wall = time.perf_counter() - start
        problems = check(self.workload, result, self.reference)
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: operation {self.attempted} failed: {p}", file=sys.stderr)
            return None
        if self.reference is None:
            self.reference = _canonical(result.metrics)
            self.first = result
        return wall, result


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it.

    Below 21 samples that percentile would not lie above the median, so
    the maximum is reported (as p100) instead.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def _print_metric(name: str, value, unit: str, note: str = "") -> None:
    text = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"  {name:<36} {text:>14} {unit:<8} {note}".rstrip())


def _print_accuracy(loop: Loop) -> None:
    result = loop.first
    flagged = float(result.flags.sum()) / result.flags.size
    _print_metric("flagged_fraction", flagged, "fraction")
    for name, ceiling in sorted(loop.workload.ceilings.items()):
        _print_metric(
            f"c0_rel.{name}", result.metrics[name]["c0_rel"], "ratio", f"ceiling {ceiling:g}"
        )


def _finish(loop: Loop, values: dict, correct: bool, units: dict) -> int:
    """Print the result line; the metric names must be those declared."""
    if set(values) != set(units):
        correct = False
        print(
            "perfbench: metrics disagree with BENCHMARK.json: "
            + ", ".join(sorted(set(values) ^ set(units))),
            file=sys.stderr,
        )
    metrics = {name: {"value": v, "unit": units.get(name, "")} for name, v in values.items()}
    correct = correct and loop.failed == 0 and loop.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": loop.attempted,
                "failed": loop.failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if correct else 1


def run_untraced(workload, seed: int, seconds: float, units: dict) -> int:
    # at least three set-ups and two seconds of them, so that one slow
    # moment of the host does not set the median
    setup_times = []
    while len(setup_times) < 3 or sum(setup_times) < 2.0:
        start = time.perf_counter()
        cfg, ms = set_up(workload, seed)
        setup_times.append(time.perf_counter() - start)

    loop = Loop(workload, cfg, ms)
    for _ in range(workload.warmups):
        loop.run()
    times = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        done = loop.run()
        if done is not None:
            times.append(done[0])
    if not times:
        print("perfbench: no operation succeeded", file=sys.stderr)
        return 1

    values = {
        "run_s.p50": statistics.median(times),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    tail_s, tail_pct = tail(times)
    print("operation seconds: " + " ".join(f"{t:.4f}" for t in times))
    print("end-to-end metrics")
    _print_metric("run_s.p50", values["run_s.p50"], "s", f"median of {len(times)} operations")
    _print_metric(
        "run_s.tail", tail_s, "s", f"p{tail_pct:.4g} of {len(times)} operations; printed only"
    )
    _print_metric("setup_s", values["setup_s"], "s", f"median of {len(setup_times)} set-ups")
    _print_metric("peak_rss_mb", values["peak_rss_mb"], "MB")
    _print_metric(
        "failed_fraction",
        loop.failed / loop.attempted,
        "fraction",
        f"{loop.failed} of {loop.attempted} operations",
    )
    if loop.first is not None:
        _print_accuracy(loop)
    return _finish(loop, values, True, units)


def _residuals(solves) -> float:
    signature = inspect.signature(forward.solve_dirichlet)
    worst = 0.0
    for args, kwargs, solution in solves:
        bound = signature.bind(*args, **kwargs).arguments
        res = forward.residual(bound["coeffs"], solution, bound["trace"], bound.get("source"))
        worst = max(worst, res)
    return worst


def _result_metrics(result) -> dict:
    nc = result.nc
    inside = nc.mask.flags
    quality = nc.quality.values.real[inside]
    return {
        "recon.degenerate_fraction": float(nc.degenerate.sum()) / nc.degenerate.size,
        "recon.quality.p05": float(np.nanpercentile(quality, 5)),
        "gauge.curl_residual": float(result.resolved.report.curl_residual),
        "metrics.c0_rel.ahat": result.metrics["ahat"]["c0_rel"],
        "metrics.c0_rel.max": max(m["c0_rel"] for m in result.metrics.values()),
    }


def run_traced(workload, seed: int, seconds: float, env: dict, units: dict) -> int:
    rec = tracing.Recorder()
    setup_op = rec.begin_op()
    with tracing.traced(rec):
        cfg, ms = rec.wrap(set_up, "bench.setup")(workload, seed)
    setup_layers = tracing.layer_metrics(rec.op_spans(setup_op))

    loop = Loop(workload, cfg, ms)
    for _ in range(workload.warmups):
        loop.run()
    untraced, per_op, walls = [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(per_op) < 2) and not loop.failed:
        done = loop.run()
        if done is not None:
            untraced.append(done[0])
        op = rec.begin_op()
        with tracing.traced(rec):
            done = loop.run()
        if done is None:
            continue
        wall, result = done
        spans = rec.op_spans(op)
        covered = tracing.covered_seconds(spans, "studies.run_pipeline")
        layers = tracing.layer_metrics(spans)
        layers.update(_result_metrics(result))
        layers["forward.residual.max"] = _residuals(rec.solves)
        layers["trace.coverage"] = covered / wall
        layers["trace.uncovered_s"] = wall - covered
        per_op.append(layers)
        walls.append(wall)
    if not per_op or not untraced:
        print("perfbench: no traced operation succeeded", file=sys.stderr)
        return 1

    counts_repeat = True
    for name in tracing.EXACT_COUNTS:
        seen = [layers[name] for layers in per_op]
        if len(set(seen)) != 1:
            counts_repeat = False
            print(
                f"perfbench: exact count {name} differs between traced operations: {seen}",
                file=sys.stderr,
            )

    metrics = {}
    for name in per_op[0]:
        values = [layers[name] for layers in per_op]
        if name in tracing.EXACT_COUNTS:
            metrics[name] = values[0]
        elif name == "forward.residual.max":
            metrics[name] = max(values)
        elif name not in tracing.SETUP_ONLY:
            metrics[name] = statistics.median(values)
    for name in tracing.SETUP_METRICS:
        metrics[f"setup.{name}"] = setup_layers[name]
    overhead = statistics.median(walls) - statistics.median(untraced)
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / statistics.median(untraced)

    print(f"per-layer metrics (median over {len(per_op)} traced operations)")
    for name in sorted(metrics):
        _print_metric(name, metrics[name], units.get(name, ""))
    print("coverage: uncovered remainder of each traced operation")
    for i, layers in enumerate(per_op):
        print(
            f"  op {i}: wall {walls[i]:.4f} s, spans cover {layers['trace.coverage']:.4%},"
            f" uncovered {layers['trace.uncovered_s']:.4f} s"
        )
    print(
        f"tracing overhead: {overhead:+.4f} s per operation"
        f" (traced median {statistics.median(walls):.4f} s over {len(walls)},"
        f" untraced median {statistics.median(untraced):.4f} s over {len(untraced)})"
    )

    OUT.mkdir(exist_ok=True)
    path = OUT / f"{workload.name}-seed{seed}-spans.json"
    with open(path, "w") as fh:
        json.dump({"workload": workload.name, "environment": env, "spans": rec.to_json()}, fh)
    print(f"spans written to {path.relative_to(ROOT)}")

    return _finish(loop, metrics, counts_repeat, units)


def run_all(argv: list[str]) -> int:
    """Each workload in its own process, one after another."""
    worst = 0
    for name in WORKLOADS:
        args = [a if a != "all" else name for a in argv]
        print(f"== {name}", flush=True)
        worst = max(worst, subprocess.run([sys.executable, __file__, *args]).returncode)
    return worst


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload == "all":
        return run_all(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS[args.workload]
    why = {w["name"]: w["why"] for w in bench["workloads"]}[workload.name]
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in bench[kind]}
    env = _environment(args.seed)
    print(f"workload {workload.name}: {why}")
    print(f"closed loop, 1 client, {args.seconds:g} s, trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    sys.stdout.flush()
    if args.trace:
        return run_traced(workload, args.seed, args.seconds, env, units)
    return run_untraced(workload, args.seed, args.seconds, units)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
