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
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigurationError, GridError, InputFileError, NonVanishingError
from .forward import BoundaryTrace, CoefficientSet, SolverSettings, solve_traces
from .grids import (
    Grid,
    ScalarField,
    divide,
    first_closure,
    read_field,
    read_json,
    second_closure,
    write_field,
    write_json,
)

__all__ = [
    "MODALITIES",
    "MODALITY_PARAMETERS",
    "TRACE_POOLS",
    "check_modality_parameters",
    "Modality",
    "MeasurementSet",
    "NoiseSpec",
    "default_traces",
    "trace_pool",
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

# the default trace family per dimension, in the order its prefixes take
TRACE_POOLS = {
    2: ("1", "x", "y", "x*y", "x^2 - y^2"),
    3: ("1", "x", "y", "z", "x*y", "x*z", "y*z", "x^2 - y^2", "x^2 - z^2"),
}

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
        # written so that NaN and infinity fail
        if not 0 <= self.amplitude < np.inf:
            raise ConfigurationError("noise amplitude must be finite and >= 0")
        if not 0 <= self.correlation_length < np.inf:
            raise ConfigurationError("correlation length must be finite and >= 0")


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


def trace_pool(
    dim: int, count: int | None = None, stage: str | None = None
) -> tuple[str, ...]:
    """The first ``count`` expressions of :data:`TRACE_POOLS` in ``dim``
    dimensions (default: all), raising unless ``count`` lies in
    ``[dim + 1, len(pool)]``."""
    pool = TRACE_POOLS[dim]
    if count is None:
        return pool
    if not dim + 1 <= count <= len(pool):
        raise ConfigurationError(
            f"trace count must lie in [{dim + 1}, {len(pool)}], got {count}",
            stage=stage,
        )
    return pool[:count]


def default_traces(grid: Grid, count: int | None = None) -> list[BoundaryTrace]:
    """Polynomial trace family known to behave well on box domains.

    Dimension 2 offers ``1, x, y, x*y, x^2 - y^2``; dimension 3 extends
    the list with the remaining harmonic monomials (:data:`TRACE_POOLS`).
    ``count`` selects a prefix (default: all).
    """
    pool = trace_pool(grid.dim, count)
    return [BoundaryTrace.from_expression(grid, src) for src in pool]


def _first_at_corners(rows: np.ndarray, low: np.ndarray, h) -> np.ndarray:
    """``d_k`` at each corner along each axis ``k``.

    ``rows[..., c, k, s]`` is the value ``s`` steps in from corner ``c``
    along axis ``k``; ``low[c, k]`` says whether that corner sits on the
    low face of axis ``k``, where the step inward is ``+h[k]``.
    """
    parts = []
    for k in range(low.shape[1]):
        v = [rows[..., k, s] for s in range(3)]
        parts.append(
            np.where(low[:, k], first_closure(*v, h[k]), first_closure(*v, -h[k]))
        )
    return np.stack(parts, axis=-1)


def compatible_traces(
    coeffs: CoefficientSet,
    traces: list[BoundaryTrace],
) -> list[BoundaryTrace]:
    """Adjust traces so the equation holds at the corners of the box.

    At a box corner the Dirichlet datum fixes every tangential second
    derivative, so the equation pins down a combination the datum must
    satisfy; when it does not, the solution carries a curvature
    singularity there and pointwise derivative accuracy stalls on a
    fixed-cell neighborhood of each corner no matter how fine the grid.
    Adding one localized paraboloid bump per corner cancels that leading
    mismatch without moving the data anywhere else (the bump decays like
    ``exp(-r^2 / sharpness)``, with ``sharpness`` a tenth of the square
    of the box's shortest side).

    The mismatch applies the equation with the one-sided closures alone
    (:func:`~hiplab.grids.first_closure` and
    :func:`~hiplab.grids.second_closure`): along each axis from each
    corner it reads the 3 points a first derivative takes and the 4 a
    second one takes, for every trace at once, and gets the corner
    values of full-grid derivatives bit for bit.

    Off-diagonal diffusion entries at a corner couple to the mixed
    derivative the datum does not determine; the recipe requires them to
    vanish there.
    """
    grid = coeffs.a.grid
    dim = grid.dim
    h = grid.spacing
    side = min(b[1] - b[0] for b in grid.bounds)
    sharpness = 0.1 * side * side
    axes = grid.axes()
    scale_a = float(np.max(np.abs(coeffs.a.values)))
    corners = np.array(list(itertools.product(*[(0, n - 1) for n in grid.shape])))
    low = corners == 0
    at = tuple(corners.T)
    bumps = []
    for idx, on_low in zip(corners, low):
        pt = tuple(b[0] if lo else b[1] for b, lo in zip(grid.bounds, on_low))
        off = coeffs.a.values[tuple(idx)][dim:]
        if np.max(np.abs(off)) > 1e-12 * max(scale_a, 1.0):
            raise ConfigurationError(
                "corner-compatible traces need diagonal diffusion at the "
                f"corners; off-diagonal entries {off.tolist()} at {pt}"
            )
        # the squares on each axis, broadcast: the full-mesh sum's bits
        r2 = sum(
            ((axes[ax] - pt[ax]) ** 2).reshape(
                [-1 if j == ax else 1 for j in range(dim)]
            )
            for ax in range(dim)
        )
        bumps.append(0.25 * r2 * np.exp(-r2 / sharpness))

    # rows[ax][c, k, s]: coordinate ax of the point s steps in from
    # corner c along axis k
    points = np.repeat(corners[:, None, None, :], dim, axis=1).repeat(4, axis=2)
    for k in range(dim):
        points[:, k, :, k] += np.where(low[:, k, None], 1, -1) * np.arange(4)
    rows = tuple(points[..., ax] for ax in range(dim))

    f_rows = np.stack([tr.values[rows] for tr in traces])  # (traces, c, k, s)
    grad_f = _first_at_corners(f_rows, low, h)
    a_rows = coeffs.a.values[(*rows, np.arange(dim)[:, None])]  # a_kk along k
    grad_a = _first_at_corners(a_rows, low, h)
    diag_a = coeffs.a.values[at][:, :dim]
    second = sum(
        diag_a[:, k] * second_closure(*(f_rows[..., k, s] for s in range(4)), h[k])
        for k in range(dim)
    )
    drift_part = sum(grad_a[:, k] * grad_f[..., k] for k in range(dim))
    # the equation at each corner, applied to each trace
    mismatch = (
        second
        + drift_part
        + np.sum(coeffs.b.values[at] * grad_f, axis=-1)
        + coeffs.c.values[at] * f_rows[..., 0, 0]
    )
    weights = divide(-mismatch, 0.5 * np.sum(diag_a, axis=-1))
    out = []
    corr = np.empty(grid.shape, dtype=weights.dtype)
    term = np.empty_like(corr)
    for tr, per_corner in zip(traces, weights):
        corr.fill(0.0)
        for w, bump in zip(per_corner, bumps):
            np.multiply(w, bump, out=term)
            corr += term
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
    """Raise unless ``fld`` is finite, real and positive, naming the first
    non-finite vertex; the tests are comparisons NaN fails."""
    vals = fld.values
    finite = np.isfinite(vals)
    if not finite.all():
        point = tuple(int(k) for k in np.unravel_index(np.argmin(finite), vals.shape))
        raise ConfigurationError(f"{what} is not finite at vertex {point}")
    scale = float(np.max(np.abs(vals))) or 1.0
    if not float(np.max(np.abs(vals.imag))) <= _ZERO_TOL * scale:
        raise ConfigurationError(f"{what} must be real")
    if not float(np.min(vals.real)) > 0:
        raise ConfigurationError(f"{what} must be positive everywhere")


def _require_floor(mag: np.ndarray, what: str, stage: str = "synthesis") -> None:
    """Raise unless ``mag`` stays at or above ``H1_FLOOR`` of its peak, by
    a comparison NaN fails, naming the first vertex of its minimum."""
    top = float(mag.max()) or 1.0
    if not float(mag.min()) >= H1_FLOOR * top:
        point = tuple(int(k) for k in np.unravel_index(np.argmin(mag), mag.shape))
        raise NonVanishingError(
            f"{what} falls to {mag.min():.3e} (max {top:.3e}) at vertex {point}",
            stage=stage,
        )


def synthesize(
    coeffs: CoefficientSet,
    modality: Modality,
    traces: list[BoundaryTrace],
    settings: SolverSettings | None = None,
) -> MeasurementSet:
    """Solve the forward problem for every trace and form ``H_j = d u_j``.

    All traces share one operator, which is assembled once; ``direct``
    factors it once, and ``auto`` only if its LU fallback runs (see
    :func:`hiplab.forward.solve_traces`).

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
        _require_floor(np.abs(weight.values), "generic weight")

    functionals = [
        ScalarField(grid, weight.values * u.values) for u in solutions
    ]
    _require_floor(np.abs(functionals[0].values), "|H_1|")
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
        # imported where it runs: a run without correlated noise never loads it
        from scipy import ndimage

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
        "noise": None if ms.noise is None else asdict(ms.noise),
        "weight_is_solution_dependent": ms.modality == "qtat",
        "files": files,
    }
    write_json(os.path.join(directory, "manifest.json"), manifest)


def _require_keys(node, keys: tuple[str, ...], where: str, path: str) -> None:
    for key in keys:
        if not isinstance(node, dict) or key not in node:
            raise InputFileError(f"manifest {path} lacks '{where}{key}'", stage="data")


def load_measurements(directory: str) -> MeasurementSet:
    """Read a measurement set :func:`save_measurements` wrote; a missing or
    malformed file raises :class:`InputFileError` naming it."""
    path = os.path.join(directory, "manifest.json")
    manifest = read_json(path, "manifest", stage="data")
    _require_keys(manifest, ("modality", "trace_expressions", "files"), "", path)
    files = manifest["files"]
    _require_keys(files, ("functionals", "traces", "weight"), "files/", path)
    weight = read_field(os.path.join(directory, files["weight"]))
    grid = weight.grid
    functionals = [
        read_field(os.path.join(directory, name)) for name in files["functionals"]
    ]
    traces = []
    for name, expr in zip(files["traces"], manifest["trace_expressions"]):
        fld = read_field(os.path.join(directory, name))
        traces.append(BoundaryTrace(grid, fld.values, expr))
    gamma = None
    if "gamma" in files:
        gamma = read_field(os.path.join(directory, files["gamma"]))
    noise = manifest.get("noise")
    spec = None
    if noise is not None:
        keys = ("amplitude", "correlation_length", "seed")
        _require_keys(noise, keys, "noise/", path)
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
