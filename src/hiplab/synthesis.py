"""Synthetic interior data.

Given coefficients ``(a, b, c)``, a modality, and boundary traces
``f_1 .. f_J``, this module solves the forward problem for each trace and
forms the interior functionals ``H_j = d * u_j``, where the weight ``d``
is fixed by the modality:

* ``elastography``: ``d = 1`` (and ``b = 0``);
* ``qpat``: ``d = gamma * c`` with known ``gamma`` (and ``b = 0``,
  ``c`` real positive);
* ``qtat``: ``d = gamma * Im(c) * conj(u_1)`` with known ``gamma``
  (and ``b = 0``); the weight depends on the solution, which equals
  ``f_1`` on the boundary;
* ``generic``: an arbitrary supplied non-vanishing ``d``.

:data:`MODALITY_PARAMETERS` lists which of ``gamma`` and ``weight`` each
modality takes.  Reconstruction consumes only the functionals and the
boundary traces; the realized weight is stored with them, and its
boundary values give the gauge resolvers their anchor ``B/d``.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .errors import ConfigurationError, GridError, NonVanishingError
from .forward import BoundaryTrace, CoefficientSet, SolverSettings, solve_traces
from .grids import Grid, ScalarField, divide, gradient, hessian, read_field, write_field

__all__ = [
    "MODALITIES",
    "MODALITY_PARAMETERS",
    "check_modality_parameters",
    "Modality",
    "MeasurementSet",
    "NoiseSpec",
    "default_traces",
    "compatible_traces",
    "synthesize",
    "add_noise",
    "save_measurements",
    "load_measurements",
]

# the parameters each modality forms its weight ``d`` from
MODALITY_PARAMETERS = {
    "elastography": (),
    "qpat": ("gamma",),
    "qtat": ("gamma",),
    "generic": ("weight",),
}
MODALITIES = tuple(MODALITY_PARAMETERS)

# functionals are rejected when min |H_1| drops below this times max |H_1|
H1_FLOOR = 1e-8

_ZERO_TOL = 1e-12


def check_modality_parameters(name: str, given, stage: str | None) -> None:
    """Raise unless ``given`` names exactly the parameters modality
    ``name`` takes."""
    if name not in MODALITY_PARAMETERS:
        raise ConfigurationError(f"unknown modality {name!r}", stage=stage)
    takes = MODALITY_PARAMETERS[name]
    for param in sorted(set(takes) | set(given)):
        if param not in given:
            raise ConfigurationError(f"modality {name} needs a {param}", stage=stage)
        if param not in takes:
            raise ConfigurationError(
                f"modality {name} does not take a {param}", stage=stage
            )


@dataclass
class Modality:
    """Measurement model: how the interior weight ``d`` is formed."""

    name: str
    gamma: ScalarField | None = None
    weight: ScalarField | None = None

    def __post_init__(self):
        given = [p for p in ("gamma", "weight") if getattr(self, p) is not None]
        check_modality_parameters(self.name, given, stage=None)

    @classmethod
    def elastography(cls) -> "Modality":
        return cls("elastography")

    @classmethod
    def qpat(cls, gamma: ScalarField) -> "Modality":
        return cls("qpat", gamma=gamma)

    @classmethod
    def qtat(cls, gamma: ScalarField) -> "Modality":
        return cls("qtat", gamma=gamma)

    @classmethod
    def generic(cls, weight: ScalarField) -> "Modality":
        return cls("generic", weight=weight)


@dataclass
class NoiseSpec:
    """Multiplicative-scale additive noise model.

    Each functional is perturbed by ``amplitude * max|H_j| * eta_j`` where
    ``eta_j`` is white noise smoothed to correlation length
    ``correlation_length`` (in physical units) and rescaled to unit sup
    norm.  The draw is a pure function of ``seed``.
    """

    amplitude: float
    correlation_length: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.amplitude < 0:
            raise ConfigurationError("noise amplitude must be >= 0")
        if self.correlation_length < 0:
            raise ConfigurationError("correlation length must be >= 0")


@dataclass
class MeasurementSet:
    """Interior functionals plus the boundary data that produced them."""

    grid: Grid
    modality: str
    traces: list[BoundaryTrace]
    functionals: list[ScalarField]
    weight: ScalarField  # realized d; its boundary anchors the gauge resolvers
    gamma: ScalarField | None = None
    noise: NoiseSpec | None = None

    def __post_init__(self):
        if self.modality not in MODALITIES:
            raise ConfigurationError(f"unknown modality {self.modality!r}")
        if len(self.traces) != len(self.functionals):
            raise ConfigurationError(
                f"{len(self.traces)} traces vs {len(self.functionals)} functionals"
            )
        if len(self.traces) < self.grid.dim + 1:
            raise ConfigurationError(
                f"need at least dim+1 = {self.grid.dim + 1} measurements, "
                f"got {len(self.traces)}"
            )
        for fld in list(self.functionals) + [t for t in self.traces]:
            if not self.grid.compatible(fld.grid):
                raise GridError("measurement fields live on different grids")

    @property
    def count(self) -> int:
        return len(self.functionals)


def default_traces(grid: Grid, count: int | None = None) -> list[BoundaryTrace]:
    """Polynomial trace family known to behave well on box domains.

    Dimension 2 offers ``1, x, y, x*y, x^2 - y^2``; dimension 3 extends
    the list with the remaining harmonic monomials.  ``count`` selects a
    prefix (default: all).
    """
    if grid.dim == 2:
        pool = ["1", "x", "y", "x*y", "x^2 - y^2"]
    else:
        pool = [
            "1", "x", "y", "z",
            "x*y", "x*z", "y*z",
            "x^2 - y^2", "x^2 - z^2",
        ]
    if count is None:
        count = len(pool)
    if not (grid.dim + 1 <= count <= len(pool)):
        raise ConfigurationError(
            f"trace count must lie in [{grid.dim + 1}, {len(pool)}], got {count}"
        )
    return [BoundaryTrace.from_expression(grid, src) for src in pool[:count]]


def compatible_traces(
    coeffs: CoefficientSet,
    traces: list[BoundaryTrace],
    sharpness: float | None = None,
) -> list[BoundaryTrace]:
    """Adjust traces so the equation holds at the corners of the box.

    At a box corner the Dirichlet datum fixes every tangential second
    derivative, so the equation pins down a combination the datum must
    satisfy; when it does not, the solution carries a curvature
    singularity there and pointwise derivative accuracy stalls on a
    fixed-cell neighborhood of each corner no matter how fine the grid.
    Adding one localized paraboloid bump per corner cancels that leading
    mismatch without moving the data anywhere else (the bump decays like
    ``exp(-r^2 / sharpness)``).

    Off-diagonal diffusion entries at a corner couple to the mixed
    derivative the datum does not determine; the recipe requires them to
    vanish there.
    """
    grid = coeffs.a.grid
    dim = grid.dim
    if sharpness is None:
        side = min(b[1] - b[0] for b in grid.bounds)
        sharpness = 0.1 * side * side
    if sharpness <= 0:
        raise ConfigurationError("sharpness must be positive")
    mesh = grid.meshgrid()
    scale_a = float(np.max(np.abs(coeffs.a.values)))
    corner_data = []
    for pt in itertools.product(*[(b[0], b[1]) for b in grid.bounds]):
        idx = tuple(
            0 if pt[ax] == grid.bounds[ax][0] else grid.shape[ax] - 1
            for ax in range(dim)
        )
        stored = coeffs.a.values[idx]  # diagonal first, then off-diagonal
        off = stored[dim:]
        if np.max(np.abs(off)) > 1e-12 * max(scale_a, 1.0):
            raise ConfigurationError(
                "corner-compatible traces need diagonal diffusion at the "
                f"corners; off-diagonal entries {off.tolist()} at {pt}"
            )
        r2 = sum((mesh[ax].real - pt[ax]) ** 2 for ax in range(dim))
        bump = 0.25 * r2 * np.exp(-r2 / sharpness)
        corner_data.append((idx, stored[:dim], bump))
    grad_a = [
        gradient(ScalarField(grid, coeffs.a.entry(k, k))).values for k in range(dim)
    ]
    out = []
    for tr in traces:
        f = ScalarField(grid, tr.values)
        grad = gradient(f)
        grad_f = grad.values
        hess_f = hessian(f, grad)
        corr = 0.0
        for idx, diag_a, bump in corner_data:
            second = sum(
                diag_a[k] * hess_f.entry(k, k)[idx] for k in range(dim)
            )
            drift_part = sum(
                grad_a[k][idx][k] * grad_f[idx][k] for k in range(dim)
            )
            mismatch = (
                second
                + drift_part
                + np.sum(coeffs.b.values[idx] * grad_f[idx])
                + coeffs.c.values[idx] * f.values[idx]
            )
            corr = corr + divide(-mismatch, 0.5 * np.sum(diag_a)) * bump
        out.append(BoundaryTrace(grid, tr.values + corr))
    return out


def _require_zero_drift(coeffs: CoefficientSet, modality: str) -> None:
    top = float(np.max(np.abs(coeffs.b.values)))
    if top > _ZERO_TOL:
        raise ConfigurationError(
            f"{modality} assumes a vanishing first-order coefficient; "
            f"got sup|b| = {top:.3e}"
        )


def _require_real_positive(fld: ScalarField, what: str) -> None:
    vals = fld.values
    scale = float(np.max(np.abs(vals))) or 1.0
    if float(np.max(np.abs(vals.imag))) > _ZERO_TOL * scale:
        raise ConfigurationError(f"{what} must be real")
    if float(np.min(vals.real)) <= 0:
        raise ConfigurationError(f"{what} must be positive everywhere")


def synthesize(
    coeffs: CoefficientSet,
    modality: Modality,
    traces: list[BoundaryTrace],
    settings: SolverSettings | None = None,
) -> MeasurementSet:
    """Solve the forward problem for every trace and form ``H_j = d u_j``.

    All traces share one operator, which is assembled and factored once.

    Raises
    ------
    NonVanishingError
        If ``|H_1|`` drops below ``H1_FLOOR * max|H_1|`` anywhere, or the
        supplied generic weight comes too close to zero.
    """
    grid = coeffs.grid
    if len(traces) < grid.dim + 1:
        raise ConfigurationError(
            f"need at least dim+1 = {grid.dim + 1} traces, got {len(traces)}"
        )
    if modality.name in ("elastography", "qpat", "qtat"):
        _require_zero_drift(coeffs, modality.name)
    if modality.name == "qpat":
        _require_real_positive(coeffs.c, "qpat absorption (c)")
    if modality.gamma is not None:
        _require_real_positive(modality.gamma, "gamma")

    solutions = solve_traces(coeffs, traces, settings=settings)

    if modality.name == "elastography":
        weight = ScalarField.constant(grid, 1.0)
    elif modality.name == "qpat":
        weight = ScalarField(grid, modality.gamma.values * coeffs.c.values)
    elif modality.name == "qtat":
        weight = ScalarField(
            grid,
            modality.gamma.values
            * coeffs.c.values.imag
            * np.conj(solutions[0].values),
        )
    else:
        weight = modality.weight
        top = float(np.max(np.abs(weight.values))) or 1.0
        if float(np.min(np.abs(weight.values))) < H1_FLOOR * top:
            raise NonVanishingError(
                "generic weight comes too close to zero", stage="synthesis"
            )

    functionals = [
        ScalarField(grid, weight.values * u.values) for u in solutions
    ]
    h1 = np.abs(functionals[0].values)
    top = float(h1.max()) or 1.0
    if float(h1.min()) < H1_FLOOR * top:
        point = tuple(int(k) for k in np.argwhere(h1 == h1.min())[0])
        raise NonVanishingError(
            f"|H_1| falls to {h1.min():.3e} (max {top:.3e}) at vertex {point}",
            stage="synthesis",
        )
    return MeasurementSet(
        grid=grid,
        modality=modality.name,
        traces=list(traces),
        functionals=functionals,
        weight=weight,
        gamma=modality.gamma,
    )


def _noise_field(rng, grid: Grid, correlation_length: float) -> np.ndarray:
    white = rng.standard_normal(grid.shape)
    if correlation_length > 0:
        sigma = [correlation_length / h for h in grid.spacing]
        white = ndimage.gaussian_filter(white, sigma=sigma, mode="nearest")
    top = float(np.max(np.abs(white)))
    if top == 0.0:
        return white
    return white / top


def add_noise(ms: MeasurementSet, spec: NoiseSpec) -> MeasurementSet:
    """Perturb the functionals; amplitude 0 reproduces the input exactly.

    The smoothed unit-sup noise fields depend only on the seed and the
    grid, so sweeping the amplitude rescales one fixed perturbation.
    """
    if spec.amplitude == 0.0:
        functionals = [f.copy() for f in ms.functionals]
    else:
        rng = np.random.default_rng(spec.seed)
        functionals = []
        for f in ms.functionals:
            eta = _noise_field(rng, ms.grid, spec.correlation_length)
            scale = spec.amplitude * f.max_abs()
            functionals.append(ScalarField(ms.grid, f.values + scale * eta))
    return MeasurementSet(
        grid=ms.grid,
        modality=ms.modality,
        traces=[BoundaryTrace(ms.grid, t.values.copy(), t.expression) for t in ms.traces],
        functionals=functionals,
        weight=ms.weight.copy(),
        gamma=None if ms.gamma is None else ms.gamma.copy(),
        noise=spec,
    )


def save_measurements(ms: MeasurementSet, directory: str) -> None:
    """Write functionals, traces, weight, and a manifest to a directory."""
    os.makedirs(directory, exist_ok=True)
    files = {"functionals": [], "traces": []}
    for j, f in enumerate(ms.functionals):
        name = f"functional_{j:02d}.field"
        write_field(f, os.path.join(directory, name))
        files["functionals"].append(name)
    for j, t in enumerate(ms.traces):
        name = f"trace_{j:02d}.field"
        write_field(ScalarField(ms.grid, t.values), os.path.join(directory, name))
        files["traces"].append(name)
    write_field(ms.weight, os.path.join(directory, "weight.field"))
    files["weight"] = "weight.field"
    if ms.gamma is not None:
        write_field(ms.gamma, os.path.join(directory, "gamma.field"))
        files["gamma"] = "gamma.field"
    manifest = {
        "schema_version": 1,
        "modality": ms.modality,
        "trace_expressions": [t.expression for t in ms.traces],
        "noise": None
        if ms.noise is None
        else {
            "amplitude": ms.noise.amplitude,
            "correlation_length": ms.noise.correlation_length,
            "seed": ms.noise.seed,
        },
        "weight_is_solution_dependent": ms.modality == "qtat",
        "files": files,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_measurements(directory: str) -> MeasurementSet:
    path = os.path.join(directory, "manifest.json")
    if not os.path.exists(path):
        raise ConfigurationError(f"no manifest.json under {directory}")
    with open(path) as fh:
        manifest = json.load(fh)
    files = manifest["files"]
    functionals = [
        read_field(os.path.join(directory, name)) for name in files["functionals"]
    ]
    grid = functionals[0].grid
    traces = []
    for name, expr in zip(files["traces"], manifest["trace_expressions"]):
        fld = read_field(os.path.join(directory, name))
        traces.append(BoundaryTrace(grid, fld.values, expr))
    weight = read_field(os.path.join(directory, files["weight"]))
    gamma = None
    if "gamma" in files:
        gamma = read_field(os.path.join(directory, files["gamma"]))
    noise = manifest.get("noise")
    spec = None
    if noise is not None:
        spec = NoiseSpec(
            amplitude=noise["amplitude"],
            correlation_length=noise["correlation_length"],
            seed=noise["seed"],
        )
    return MeasurementSet(
        grid=grid,
        modality=manifest["modality"],
        traces=traces,
        functionals=functionals,
        weight=weight,
        gamma=gamma,
        noise=spec,
    )
