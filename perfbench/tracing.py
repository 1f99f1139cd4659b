"""Spans around hiplab's layer functions, recorded from outside the program.

Tracing rebinds each listed function, in every ``hiplab`` module
namespace that holds it, to a wrapper that records a span: name, start,
end, parent and the operation it belongs to.  Spans stay in memory; the
caller writes them out when the run ends.  The wrappers are removed
again when the ``traced`` block exits, so untraced operations run the
program's own functions.

A span's self time is its duration minus the time its children cover.
hiplab is single-threaded, so children never overlap and that time is
the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

# (module, function, span name).  Every alias of the function in any
# hiplab module is rebound, e.g. ``studies.check_admissibility`` for
# ``admissibility.check`` and ``gauge.solve_dirichlet`` for
# ``forward.solve_dirichlet``.
LAYER_FUNCTIONS = [
    ("hiplab.studies", "run_pipeline", "studies.run_pipeline"),
    ("hiplab.phantoms", "materialize_scalar", "phantoms.materialize"),
    ("hiplab.phantoms", "materialize_vector", "phantoms.materialize"),
    ("hiplab.phantoms", "materialize_sym", "phantoms.materialize"),
    ("hiplab.config", "parse_config", "config.parse_config"),
    ("hiplab.synthesis", "synthesize", "synthesis.synthesize"),
    ("hiplab.synthesis", "compatible_traces", "synthesis.compatible_traces"),
    ("hiplab.synthesis", "add_noise", "synthesis.add_noise"),
    ("hiplab.forward", "assemble", "forward.assemble"),
    ("hiplab.forward", "solve_dirichlet", "forward.solve_dirichlet"),
    ("hiplab.grids", "gradient", "grids.gradient"),
    ("hiplab.grids", "hessian", "grids.hessian"),
    ("hiplab.admissibility", "check", "admissibility.check"),
    ("hiplab.recon", "reconstruct", "recon.reconstruct"),
    ("hiplab.recon", "ratios", "recon.ratios"),
    ("hiplab.recon", "gram", "recon.gram"),
    ("hiplab.recon", "null_weights", "recon.null_weights"),
    ("hiplab.recon", "constraint_matrices", "recon.constraint_matrices"),
    ("hiplab.recon", "diffusion_from_constraints", "recon.diffusion_from_constraints"),
    ("hiplab.recon", "drift_from_diffusion", "recon.drift_from_diffusion"),
    ("hiplab.gauge", "invariant_triple", "gauge.invariant_triple"),
    ("hiplab.gauge", "integrate_gradient", "gauge.integrate_gradient"),
    ("hiplab.gauge", "resolve_elastography", "gauge.resolve"),
    ("hiplab.gauge", "resolve_qpat", "gauge.resolve"),
    ("hiplab.gauge", "resolve_qtat", "gauge.resolve"),
    ("hiplab.gauge", "resolve_generic", "gauge.resolve"),
    ("hiplab.metrics", "error_norms", "metrics.error_norms"),
]


@dataclass
class Span:
    id: int
    parent: int | None
    op: int
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects the spans of numbered operations.

    ``solves`` keeps the arguments and result of every traced
    ``solve_dirichlet`` call of the current operation, so residuals can
    be computed after the operation, outside every span.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solves: list[tuple[tuple, dict, object]] = []
        self._stack: list[Span] = []
        self._op = -1

    def begin_op(self) -> int:
        self._op += 1
        self.solves = []
        return self._op

    def wrap(self, fn, name: str):
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(len(self.spans), parent, self._op, name, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if hook is not None:
                hook(self, span, args, kwargs, result)
            return result

        return traced

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "parent": s.parent,
                "op": s.op,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


def _assemble_hook(rec, span, args, kwargs, system):
    span.attrs["nnz"] = int(system.matrix.nnz)
    span.attrs["unknowns"] = int(system.rhs.size)


def _solve_hook(rec, span, args, kwargs, solution):
    rec.solves.append((args, kwargs, solution))


_HOOKS = {"forward.assemble": _assemble_hook, "forward.solve_dirichlet": _solve_hook}


def _hiplab_modules():
    return [m for n, m in sys.modules.items() if n == "hiplab" or n.startswith("hiplab.")]


@contextlib.contextmanager
def traced(recorder: Recorder):
    """Rebind every layer function to a recording wrapper for the block."""
    modules = _hiplab_modules()
    rebound = []
    for module_name, func_name, span_name in LAYER_FUNCTIONS:
        original = getattr(importlib.import_module(module_name), func_name)
        wrapper = recorder.wrap(original, span_name)
        for module in modules:
            for key in [k for k, v in vars(module).items() if v is original]:
                setattr(module, key, wrapper)
                rebound.append((module, key, original))
    try:
        yield recorder
    finally:
        for module, key, original in rebound:
            setattr(module, key, original)


def self_times(spans: list[Span]) -> dict[int, float]:
    """Duration minus the time covered by direct children, per span id."""
    out = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in out:
            out[s.parent] -= s.duration
    return out


def _ancestors(span: Span, by_id: dict[int, Span]):
    parent = by_id.get(span.parent)
    while parent is not None:
        yield parent
        parent = by_id.get(parent.parent)


# counts that must repeat exactly from one traced operation to the next
EXACT_COUNTS = (
    "grids.gradient.calls",
    "grids.hessian.calls",
    "forward.assemble.calls",
    "forward.assemble.nnz",
    "forward.unknowns",
    "gauge.solves",
    "metrics.error_norms.calls",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer counts and times of one operation's spans."""
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + s.duration
        self_s[s.name] = self_s.get(s.name, 0.0) + own[s.id]

    solve_synthesis = solve_gauge = 0.0
    gauge_solves = 0
    for s in spans:
        if s.name != "forward.solve_dirichlet":
            continue
        names = [a.name for a in _ancestors(s, by_id)]
        if "synthesis.synthesize" in names:
            solve_synthesis += own[s.id]
        if any(n.startswith("gauge.") for n in names):
            solve_gauge += own[s.id]
            gauge_solves += 1
    assembles = [s for s in spans if s.name == "forward.assemble"]

    out = {
        "forward.assemble.calls": calls.get("forward.assemble", 0),
        "forward.assemble.s": total.get("forward.assemble", 0.0),
        "forward.assemble.nnz": sum(s.attrs["nnz"] for s in assembles),
        "forward.unknowns": sum(s.attrs["unknowns"] for s in assembles),
        "forward.solve.synthesis_s": solve_synthesis,
        "forward.solve.gauge_s": solve_gauge,
        "gauge.solves": gauge_solves,
        "synthesis.synthesize.self_s": self_s.get("synthesis.synthesize", 0.0),
        "synthesis.compatible_traces.s": total.get("synthesis.compatible_traces", 0.0),
        "synthesis.add_noise.s": total.get("synthesis.add_noise", 0.0),
        "config.parse_config.s": total.get("config.parse_config", 0.0),
        "phantoms.materialize.s": total.get("phantoms.materialize", 0.0),
        "admissibility.check.s": total.get("admissibility.check", 0.0),
        "recon.reconstruct.self_s": self_s.get("recon.reconstruct", 0.0),
        "grids.gradient.calls": calls.get("grids.gradient", 0),
        "grids.hessian.calls": calls.get("grids.hessian", 0),
        "gauge.invariant_triple.s": total.get("gauge.invariant_triple", 0.0),
        "gauge.integrate_gradient.self_s": self_s.get("gauge.integrate_gradient", 0.0),
        "gauge.resolve.self_s": self_s.get("gauge.resolve", 0.0),
        "metrics.error_norms.calls": calls.get("metrics.error_norms", 0),
        "metrics.error_norms.s": total.get("metrics.error_norms", 0.0),
        "studies.run_pipeline.self_s": self_s.get("studies.run_pipeline", 0.0),
    }
    for step in (
        "ratios",
        "gram",
        "null_weights",
        "constraint_matrices",
        "diffusion_from_constraints",
        "drift_from_diffusion",
    ):
        out[f"recon.{step}.s"] = total.get(f"recon.{step}", 0.0)
    return out


# work that only set-up does; reported from one traced set-up, under a
# "setup." prefix, and left out of the per-operation metrics
SETUP_ONLY = ("config.parse_config.s", "synthesis.add_noise.s")

# reported from one traced set-up, under a "setup." prefix
SETUP_METRICS = (
    "config.parse_config.s",
    "phantoms.materialize.s",
    "synthesis.compatible_traces.s",
    "synthesis.synthesize.self_s",
    "synthesis.add_noise.s",
    "forward.assemble.s",
    "forward.solve.synthesis_s",
)


def covered_seconds(spans: list[Span], root: str) -> float:
    """Self time of every span except the operation's root span."""
    own = self_times(spans)
    return sum(own[s.id] for s in spans if s.name != root)
