"""Shared builders for the test suite.

Phantoms here are small and smooth so every test stays desk scale;
the bump amplitudes keep all coefficients uniformly elliptic.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from types import SimpleNamespace

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from hiplab import recon
from hiplab.config import parse_config
from hiplab.forward import CoefficientSet
from hiplab.grids import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    component_sum,
    gradient,
    hessian,
)

WORKLOADS_FILE = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SOURCE_ROOT = Path(__file__).resolve().parent.parent / "src"


def unit_grid(n: int, dim: int = 2) -> Grid:
    return Grid(bounds=((0.0, 1.0),) * dim, shape=(n,) * dim)


def same_bits(x: np.ndarray, y: np.ndarray) -> bool:
    """Equal dtype, shape and bytes: signed zeros and NaN payloads count."""
    return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()


@st.composite
def odd_spacing_grids(draw):
    """A 2-D or 3-D grid with 5-12 vertices per axis and no spacing a
    power of two, with a seeded generator for data on it."""
    dim = draw(st.sampled_from([2, 3]))
    shape = tuple(draw(st.integers(5, 12)) for _ in range(dim))
    lengths = [draw(st.floats(0.1, 10.0)) for _ in range(dim)]
    grid = Grid(bounds=tuple((0.0, length) for length in lengths), shape=shape)
    assume(all(np.frexp(h)[0] != 0.5 for h in grid.spacing))
    return grid, np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def scalar_tensor(grid: Grid, values: np.ndarray) -> SymTensorField:
    """Isotropic matrix field ``values * I``."""
    return SymTensorField(
        grid, SymTensorField.identity(grid).values * values[..., None]
    )


def bump(grid: Grid, center, width: float, height: float) -> np.ndarray:
    mesh = grid.meshgrid()
    r2 = sum((mesh[ax].real - center[ax]) ** 2 for ax in range(grid.dim))
    return 1.0 + height * np.exp(-r2 / width)


def laplace_coefficients(grid: Grid) -> CoefficientSet:
    """The plain Laplace operator: a = I, b = 0, c = 0."""
    return CoefficientSet(
        a=SymTensorField.identity(grid),
        b=VectorField.zero(grid),
        c=ScalarField.constant(grid, 0.0),
    )


def elastography_coefficients(grid: Grid) -> CoefficientSet:
    """Scalar-bump diffusion with a smooth zero-order term."""
    x, y = (m.real for m in grid.meshgrid()[:2])
    a = scalar_tensor(grid, bump(grid, (0.5, 0.5), 0.08, 0.4))
    c = ScalarField(grid, 0.5 + 0.3 * np.sin(2 * x) * np.cos(2 * y))
    return CoefficientSet(a=a, b=VectorField.zero(grid), c=c)


def workload_inputs(name: str, shape: tuple[int, ...]):
    """Config, coefficients, modality and traces of a benchmark workload
    on ``shape`` instead of its own grid.  ``perfbench/workloads.py`` is
    imported from its file and only read."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the file executes
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    doc = module.WORKLOADS[name].config(1)
    doc["grid"]["shape"] = list(shape)
    cfg = parse_config(doc)
    grid = cfg.grid_for()
    coeffs = cfg.coefficients(grid)
    return cfg, coeffs, cfg.modality(grid), cfg.traces(grid, coeffs)


def whole_grid_analysis(ms, mode: str = "matrix", margin: int = 2) -> SimpleNamespace:
    """What :func:`hiplab.recon.analyze` computes slab by slab, computed
    on the whole grid at once from the whole-grid stencils and the stage
    functions, with each reading taken over the whole trusted interior:
    the reference its slabs must equal bit for bit."""
    grid = ms.grid
    dim = grid.dim
    need = recon.functional_budget(dim, mode) - 1
    fields = recon.ratios(ms)
    grads = [gradient(v) for v in fields[:need]]
    ref = SimpleNamespace(
        fields=fields,
        inside=grid.interior(margin),
        gradients=[g.values for g in grads],
        hessians=[hessian(v, g).values for v, g in zip(fields, grads)],
    )
    gv, hv, inside = ref.gradients, ref.hessians, ref.inside
    ref.inverse, det, singular = recon.gram(gv)
    if mode == "matrix":
        ref.theta = recon.null_weights(gv, ref.inverse)
        ref.direction, ref.quality, ref.degenerate = recon.diffusion_from_constraints(
            recon.constraint_matrices(hv, ref.theta)
        )
        direction = ref.direction
    else:
        direction = SymTensorField.identity(grid).values
    ref.drift = recon.drift_from_diffusion(direction, hv[:dim], ref.inverse, gv[:dim])

    squares = [component_sum(np.abs(g) ** 2) for g in gv]
    ref.peaks = np.array([np.max(s[inside]) for s in squares])
    ref.gram_det = np.abs(det)
    ref.basis_margin = float(np.min(recon._basis_margin(gv[:dim], squares[:dim])[inside]))
    if mode == "matrix":
        independence = np.where(singular, 0.0, ref.quality)
        ref.independence_margin = float(np.min(independence[inside]))
        worst = np.full(grid.shape, -np.inf)
        for m in range(ref.theta.shape[-2]):
            resid = np.zeros(gv[0].shape, dtype=ref.theta.dtype)
            for j in range(dim):
                resid += ref.theta[..., m, j][..., None] * gv[j]
            resid += gv[dim + m]
            worst = np.maximum(worst, np.sqrt(component_sum(np.abs(resid) ** 2)))
        worst[~inside] = -np.inf
        at = np.unravel_index(np.argmax(worst), grid.shape)
        ref.cancellation = (float(worst[at]), tuple(int(k) for k in at))
    return ref


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak of the memory that call allocated, in
    bytes, as tracemalloc counts it; an untraced first call warms caches."""
    fn(*args)
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def run_python(code: str, **env: str) -> str:
    """Standard output of ``code`` run by a fresh interpreter that imports
    hiplab from this checkout, with ``env`` added to the environment."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SOURCE_ROOT), **env},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout
