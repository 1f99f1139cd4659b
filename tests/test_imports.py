"""Every module-level import in ``src/hiplab`` is used by its module,
every module-level private definition is used somewhere in the package,
no module differentiates with ``numpy.gradient`` (first differences
take the one stencil in ``grids``), every function the benchmark's
tracer rebinds exists, the benchmark's own calls into the package
still work, and SciPy's sparse LU and image filters load only where
they run."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from conftest import laplace_coefficients, run_python, unit_grid
from hiplab import forward
from hiplab.grids import ScalarField

SOURCE = Path(__file__).resolve().parent.parent / "src" / "hiplab"
PERFBENCH = SOURCE.parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def unused_imports(tree: ast.Module) -> list[str]:
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    # names listed in __all__ are re-exported, which is a use
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in used]


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Module-level ``_name`` functions, classes and constants, by line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node.lineno
    return found


def referenced_names(tree: ast.Module) -> set[str]:
    """Names read, attributes accessed and names imported anywhere in a module."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def dead_private_definitions(trees: dict[str, ast.Module]) -> list[str]:
    refs = set().union(*(referenced_names(t) for t in trees.values()))
    return [
        f"{module}.{name} (line {line})"
        for module, tree in trees.items()
        for name, line in private_definitions(tree).items()
        if name not in refs
    ]


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_module_level_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


def test_scan_finds_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nprint(pi)\n")
    assert unused_imports(tree) == ["os (line 1)", "tau (line 2)"]


def test_no_dead_private_definitions():
    trees = {p.stem: ast.parse(p.read_text()) for p in sorted(SOURCE.glob("*.py"))}
    assert dead_private_definitions(trees) == []


def test_scan_finds_a_dead_private_definition():
    trees = {
        "a": ast.parse(
            "_LIMIT = 3\n"
            "_unused_total = 0\n"
            "def _helper():\n    return _LIMIT\n"
            "def _orphan():\n    return 1\n"
            "class _Spare:\n    pass\n"
            "def _used_elsewhere():\n    return 2\n"
        ),
        "b": ast.parse("from a import _helper\nimport a\nprint(a._used_elsewhere())\n"),
    }
    assert dead_private_definitions(trees) == [
        "a._unused_total (line 2)",
        "a._orphan (line 5)",
        "a._Spare (line 7)",
    ]


def numpy_gradient_uses(tree: ast.Module) -> list[int]:
    """Lines that reach ``np.gradient`` or ``numpy.gradient``."""
    return sorted(
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and node.attr == "gradient"
        and isinstance(node.value, ast.Name)
        and node.value.id in ("np", "numpy")
    )


@pytest.mark.parametrize("path", sorted(SOURCE.glob("*.py")), ids=lambda p: p.name)
def test_no_numpy_gradient(path):
    assert numpy_gradient_uses(ast.parse(path.read_text())) == []


def test_scan_finds_a_numpy_gradient_call():
    tree = ast.parse(
        "import numpy as np\n"
        "g = np.gradient(u, 0.1, axis=0)\n"
        "grid.gradient(u)\n"
        "d = numpy.gradient\n"
    )
    assert numpy_gradient_uses(tree) == [2, 4]


def test_traced_layer_functions_resolve(monkeypatch):
    """``perfbench/run.py --trace`` rebinds these by name, so a rename in
    the package would break a traced run.  The tracer is imported from
    its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{name}"
        for module, name, _ in tracing.LAYER_FUNCTIONS
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert tracing.LAYER_FUNCTIONS and missing == []


def load_module(monkeypatch, name: str, path: Path):
    """``path`` imported as ``name`` for the duration of one test."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_calls_outside_the_traced_names_resolve(monkeypatch):
    """``perfbench/run.py`` also calls ``cfg.solver()``, ``synthesize``
    with a positional ``settings``, ``add_noise``, and ``forward.residual``
    on the arguments of each recorded ``solve_dirichlet`` call, bound by
    parameter name.  The runner is imported from its file and only read."""
    # the runner imports its siblings by bare name and puts src on sys.path
    monkeypatch.setattr(sys, "path", list(sys.path))
    for name in ("tracing", "workloads"):
        load_module(monkeypatch, name, PERFBENCH / f"{name}.py")
    run = load_module(monkeypatch, "perfbench_run", PERFBENCH / "run.py")

    _, ms = run.set_up(run.WORKLOADS["qpat-2d-data"], 1)
    assert ms.noise is not None and ms.noise.amplitude > 0

    grid = unit_grid(9)
    coeffs = laplace_coefficients(grid)
    trace = forward.BoundaryTrace.from_expression(grid, "1 + x*y")
    source = ScalarField.constant(grid, 0.0)
    solution = forward.solve_dirichlet(coeffs, trace, source=source)
    # the gauge solves pass the trace by position and the source by name
    assert run._residuals([((coeffs, trace), {"source": source}, solution)]) < 1e-10


# SciPy modules a run loads only for a direct solve or correlated noise
DEFERRED = ("scipy.sparse.linalg", "scipy.linalg", "scipy.ndimage")

IMPORT_FOOTPRINT = """
import json, sys
import hiplab.cli

deferred = %r
after_import = [m for m in deferred if m in sys.modules]

import numpy as np
from hiplab import forward, synthesis
from hiplab.grids import Grid, ScalarField, SymTensorField, VectorField

grid = Grid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(9, 9))
coeffs = forward.CoefficientSet(
    a=SymTensorField.identity(grid),
    b=VectorField.zero(grid),
    c=ScalarField.constant(grid, 0.5),
)
trace = forward.BoundaryTrace.from_expression(grid, "1 + x*y")
u = forward.solve_dirichlet(coeffs, trace, settings=forward.SolverSettings("direct"))
ms = synthesis.synthesize(
    coeffs, synthesis.Modality.elastography(), synthesis.default_traces(grid)
)
noisy = synthesis.add_noise(
    ms, synthesis.NoiseSpec(amplitude=1e-3, correlation_length=0.1, seed=3)
)
print(json.dumps({
    "after_import": after_import,
    "after_use": [m for m in deferred if m in sys.modules],
    "residual": forward.residual(coeffs, u, trace),
    "noise": float(np.max(np.abs(noisy.functionals[0].values - ms.functionals[0].values))),
}))
""" % (DEFERRED,)


def test_scipy_lu_and_filters_load_only_where_they_run():
    """``import hiplab.cli`` leaves SciPy's sparse LU (and ``scipy.linalg``,
    which it loads) and ``scipy.ndimage`` unloaded; a direct solve and
    correlated noise load them and still work."""
    found = json.loads(run_python(IMPORT_FOOTPRINT))
    assert found["after_import"] == []
    assert found["after_use"] == list(DEFERRED)
    assert found["residual"] < 1e-12
    assert 0.0 < found["noise"] < 1e-2
