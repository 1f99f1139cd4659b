"""Coefficient reconstruction from interior functional ratios.

The measured functionals ``H_j = d u_j`` share the unknown weight ``d``
and the unknown reference solution ``u_1``, so the ratios
``v_j = H_{j+1} / H_1 = u_{j+1} / u_1`` depend on neither.  Each ratio
satisfies a second-order equation whose matrix coefficient is
proportional to the diffusion matrix ``a`` and whose vector coefficient
is determined by ``a``, ``b``, and the reference solution.  This module
recovers that pair up to normalization:

* with ``dim + 1`` functionals and scalar ``a``, the combination
  ``a^{-1} b`` follows directly from a Gram solve against the ratio
  gradients;
* with ``I = dim (dim + 3) / 2`` functionals, each extra ratio yields a
  gradient-free linear combination of Hessians.  Those symmetric
  matrices cut out, pointwise, a one-dimensional null space under the
  trace pairing; its normalized generator is the determinant-one part of
  ``a``, and the vector coefficient follows by the same Gram solve.

:func:`analyze` computes all of this once and never raises; the
admissibility audit reads that object, and :func:`reconstruct` runs its
checks on it and uses it.  Pointwise linear algebra is batched over the
grid; no iteration over vertices takes place in Python.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DegeneracyError,
    InternalConsistencyError,
    MeasurementCountError,
    NonVanishingError,
)
from .grids import (
    Grid,
    InteriorMask,
    ScalarField,
    SymTensorField,
    VectorField,
    gradient,
    hessian,
    sym_det,
    sym_dot,
    sym_inv,
    sym_pairs,
    sym_size,
    sym_to_full,
    sym_trace,
)
from .synthesis import H1_FLOOR, MeasurementSet

__all__ = [
    "functional_budget",
    "extra_count",
    "RatioSet",
    "GramData",
    "NormalizedCoefficients",
    "analyze",
    "ratios",
    "gram",
    "reconstruct_scalar_drift",
    "null_weights",
    "constraint_matrices",
    "diffusion_from_constraints",
    "drift_from_diffusion",
    "reconstruct",
]

# relative floor on |det Gram|, scaled by the n-th power of the largest
# interior squared gradient
GRAM_FLOOR = 1e-6

# singular-value gap below which the pointwise null space is ambiguous
QUALITY_FLOOR = 1e-6

# tolerance for identities that hold by construction
_CONSISTENCY_TOL = 1e-10


def functional_budget(dim: int) -> int:
    """Functionals required by the full (matrix-valued) pipeline."""
    return dim * (dim + 3) // 2


def extra_count(dim: int) -> int:
    """Hessian constraints available beyond the gradient basis."""
    return dim * (dim + 1) // 2 - 1


@dataclass
class GramData:
    """Gram matrix of the first ``dim`` ratio gradients and its inverse,
    which is zero where ``|det|`` underflows (``singular``)."""

    gram: SymTensorField
    inverse: SymTensorField
    det: np.ndarray
    singular: np.ndarray


@dataclass
class RatioSet:
    """Ratios ``v_j = H_{j+1}/H_1`` and the pointwise algebra built on them.

    ``theta`` holds the null weights and ``null_space`` the output of
    :func:`diffusion_from_constraints`; see :func:`analyze` for when
    each part is None.
    """

    grid: Grid
    fields: list[ScalarField]
    gradients: list[VectorField]
    hessians: list[SymTensorField]
    mask: InteriorMask
    gram_data: GramData | None = None
    theta: np.ndarray | None = None
    null_space: tuple[SymTensorField, ScalarField, np.ndarray] | None = None

    @property
    def count(self) -> int:
        return len(self.fields)


@dataclass
class NormalizedCoefficients:
    """Det-one diffusion direction and matching vector coefficient.

    ``quality`` is the pointwise singular-value gap of the constraint
    stack (1 is best); vertices flagged ``degenerate`` carry NaN rather
    than an invented value.
    """

    diffusion: SymTensorField
    drift: VectorField
    quality: ScalarField
    degenerate: np.ndarray
    mask: InteriorMask


def analyze(ms: MeasurementSet, mode: str = "matrix", margin: int = 2) -> RatioSet:
    """The ratio analysis of ``ms``, computed once and without raising.

    A vanishing ``H_1`` gives a zero ratio and a singular Gram matrix a
    zero inverse, so the admissibility audit can read deliberately bad
    data; :func:`reconstruct` runs the raising checks on the same object.
    Only the ratios ``mode`` consumes are differentiated: the first
    ``dim`` in scalar mode, the first ``functional_budget(dim) - 1`` in
    matrix mode, where the null weights and the null space follow once
    that many exist.  The Gram data needs ``dim`` ratios.
    """
    grid = ms.grid
    dim = grid.dim
    h1 = ms.functionals[0].values
    with np.errstate(divide="ignore", invalid="ignore"):
        fields = [
            ScalarField(grid, np.where(h1 == 0, 0.0, f.values / h1))
            for f in ms.functionals[1:]
        ]
    extras = extra_count(dim)
    need = dim if mode == "scalar" else dim + extras
    rs = RatioSet(
        grid=grid,
        fields=fields,
        gradients=[gradient(v) for v in fields[:need]],
        hessians=[hessian(v) for v in fields[:need]],
        mask=grid.interior(margin),
    )
    if rs.count < dim:
        return rs
    grads = [g.values for g in rs.gradients]
    vals = np.empty(grid.shape + (sym_size(dim),), dtype=np.complex128)
    for k, (i, j) in enumerate(sym_pairs(dim)):
        vals[..., k] = np.sum(grads[i] * grads[j], axis=-1)
    det = sym_det(vals, dim)
    singular = ~(np.abs(det) > np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = sym_inv(vals, dim)
    inverse[singular] = 0.0
    gd = GramData(SymTensorField(grid, vals), SymTensorField(grid, inverse), det, singular)
    rs.gram_data = gd
    if mode == "scalar" or rs.count < need:
        return rs
    rs.theta = _null_weights(grads, gd, dim)
    rs.null_space = diffusion_from_constraints(constraint_matrices(rs, rs.theta))
    return rs


def _null_weights(grads: list[np.ndarray], gd: GramData, dim: int) -> np.ndarray:
    # a function of its own, so its temporaries are freed before the SVD
    extras = extra_count(dim)
    theta = np.zeros(gd.det.shape + (extras, dim + extras), dtype=np.complex128)
    for m in range(extras):
        rhs = [np.sum(grads[dim + m] * grads[k], axis=-1) for k in range(dim)]
        for j, sol in enumerate(_gram_solve(gd, rhs, dim)):
            theta[..., m, j] = -sol
        theta[..., m, dim + m] = 1.0
    return theta


def _check_ratios(ms: MeasurementSet, rs: RatioSet) -> None:
    """Raise unless ``H_1`` stays off zero and each ratio of ``rs``
    reproduces the known quotient of boundary traces."""
    grid = ms.grid
    mag = np.abs(ms.functionals[0].values)
    top = float(mag.max()) or 1.0
    if float(mag.min()) < H1_FLOOR * top:
        point = tuple(int(k) for k in np.argwhere(mag == mag.min())[0])
        raise NonVanishingError(
            f"reference functional reaches {mag.min():.3e} "
            f"(max {top:.3e}) at vertex {point}; ratios are unreliable",
            stage="recon",
        )
    bmask = grid.boundary_mask()
    f1 = ms.traces[0].values
    noise_amp = ms.noise.amplitude if ms.noise is not None else 0.0
    for j, v in enumerate(rs.fields, start=1):
        f_j = ms.traces[j].values
        safe = bmask & (np.abs(f1) > 1e-12 * float(np.max(np.abs(f1))))
        expected = np.where(safe, f_j, 0) / np.where(safe, f1, 1)
        got = np.where(safe, v.values, 0)
        scale = float(np.max(np.abs(expected))) + 1.0
        err = float(np.max(np.abs(got - expected)))
        # declared noise moves each functional by amp * max|H|, so the
        # ratio may drift from the trace quotient by the induced amount
        drift = (
            2.0
            * noise_amp
            * (float(np.max(np.abs(ms.functionals[j].values))) + float(np.max(np.abs(v.values))) * top)
            / float(mag.min())
        )
        if err > 1e-8 * scale + drift:
            raise InternalConsistencyError(
                f"ratio {j} disagrees with its boundary quotient by {err:.3e}",
                stage="recon",
            )


def ratios(ms: MeasurementSet, margin: int = 2) -> RatioSet:
    """The matrix-mode analysis of ``ms``, after the ratio checks.

    The reference functional must stay off zero, and the boundary
    restriction of each ratio must reproduce the known quotient of
    boundary traces; a mismatch means the functionals and traces are
    inconsistent.
    """
    rs = analyze(ms, margin=margin)
    _check_ratios(ms, rs)
    return rs


def gram(rs: RatioSet, floor_scale: float = GRAM_FLOOR) -> GramData:
    """Gram matrix ``G_ij = grad v_i . grad v_j`` over the first ``dim``
    ratios, inverted pointwise.

    Raises
    ------
    DegeneracyError
        If ``|det G|`` falls below ``floor_scale * s^dim`` anywhere on the
        trusted interior, where ``s`` is the largest interior squared
        gradient magnitude.  The offending vertices are listed.
    """
    dim = rs.grid.dim
    if rs.count < dim:
        raise MeasurementCountError(
            f"need at least {dim} ratio fields for a gradient basis, "
            f"got {rs.count}"
        )
    gd = rs.gram_data
    grads = [rs.gradients[i].values for i in range(dim)]
    inside = rs.mask.flags
    sq = np.max(
        [np.sum(np.abs(g) ** 2, axis=-1) for g in grads], axis=0
    )
    scale = float(np.max(sq[inside])) if np.any(inside) else 0.0
    floor = floor_scale * max(scale, np.finfo(float).tiny) ** dim
    bad = inside & (np.abs(gd.det) < floor)
    if np.any(bad):
        pts = [tuple(int(k) for k in p) for p in np.argwhere(bad)]
        raise DegeneracyError(
            f"ratio gradients are linearly dependent at {len(pts)} "
            f"interior vertices (|det| floor {floor:.3e})",
            points=pts,
            stage="recon",
        )
    return gd


def _gram_solve(gd: GramData, rhs: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Apply the inverse Gram matrix to per-index scalar arrays."""
    inv = sym_to_full(gd.inverse.values, dim)
    stacked = np.stack(rhs, axis=-1)
    out = np.einsum("...ij,...j->...i", inv, stacked)
    return [out[..., i] for i in range(dim)]


def reconstruct_scalar_drift(rs: RatioSet, gd: GramData) -> VectorField:
    """Recover ``a^{-1} b`` assuming scalar diffusion.

    Pairs the Laplacians of the basis ratios against the inverse Gram
    matrix: ``a^{-1} b = - G^{ij} (tr D^2 v_j) grad v_i``, which is
    :func:`drift_from_diffusion` with the identity direction.
    """
    return drift_from_diffusion(rs, gd, SymTensorField.identity(rs.grid))


def null_weights(rs: RatioSet, gd: GramData) -> np.ndarray:
    """Per-vertex weights combining ratios into gradient-free residuals.

    Row ``m`` pairs extra ratio ``dim + m`` with the gradient basis so
    that the weighted gradient sum cancels identically:
    ``theta_j = -G^{jk} (grad v_{dim+m} . grad v_k)`` for ``j < dim``,
    ``theta_{dim+m} = 1``, zero otherwise.  :func:`analyze` forms them
    from ``gd``, the Gram data of ``rs``; here the cancellation is
    verified to rounding level.
    """
    grid = rs.grid
    dim = grid.dim
    extras = extra_count(dim)
    need = dim + extras
    if rs.count < need:
        raise MeasurementCountError(
            f"matrix-valued pipeline needs {need + 1} functionals "
            f"({need} ratios), got {rs.count + 1} ({rs.count})"
        )
    theta = rs.theta

    # the defining property: weighted gradients sum to zero
    resid = np.zeros(grid.shape + (grid.dim,), dtype=np.complex128)
    top = 0.0
    for m in range(extras):
        resid[...] = 0.0
        for j in range(need):
            resid += theta[..., m, j][..., None] * rs.gradients[j].values
        r = np.sqrt(np.sum(np.abs(resid) ** 2, axis=-1))
        top = max(top, float(np.max(r[rs.mask.flags])))
    grad_top = max(
        float(np.max(rs.gradients[j].magnitude()[rs.mask.flags]))
        for j in range(need)
    )
    if top > _CONSISTENCY_TOL * max(grad_top, 1.0):
        raise InternalConsistencyError(
            f"gradient cancellation failed: residual {top:.3e} "
            f"against gradient scale {grad_top:.3e}",
            stage="recon",
        )
    return theta


def constraint_matrices(rs: RatioSet, theta: np.ndarray) -> list[SymTensorField]:
    """Hessian combinations ``M^m = sum_j theta^m_j D^2 v_j``.

    By construction each ``M^m`` annihilates the diffusion direction
    under the trace pairing.
    """
    grid = rs.grid
    extras = theta.shape[-2]
    need = theta.shape[-1]
    out = []
    for m in range(extras):
        acc = np.zeros(grid.shape + (sym_size(grid.dim),), dtype=np.complex128)
        for j in range(need):
            acc += theta[..., m, j][..., None] * rs.hessians[j].values
        out.append(SymTensorField(grid, acc))
    return out


def diffusion_from_constraints(
    matrices: list[SymTensorField],
    quality_floor: float = QUALITY_FLOOR,
) -> tuple[SymTensorField, ScalarField, np.ndarray]:
    """Extract the determinant-one diffusion direction pointwise.

    Stacks the constraint matrices as rows of a small rectangular system
    under the trace pairing (off-diagonal entries weighted by sqrt(2) so
    the Euclidean product matches the trace product) and takes the right
    singular vector of the smallest singular value.  The generator is
    normalized to real positive trace and determinant one.

    Returns the direction, the singular-value gap ``s_min / s_max`` as a
    quality field, and a boolean mask of degenerate vertices, which carry
    NaN in the direction field.
    """
    grid = matrices[0].grid
    dim = grid.dim
    m_rows = len(matrices)
    s = sym_size(dim)
    w = np.ones(s)
    w[dim:] = np.sqrt(2.0)
    stack = np.empty(grid.shape + (m_rows, s), dtype=np.complex128)
    for m, M in enumerate(matrices):
        stack[..., m, :] = M.values * w

    _, sing, vh = np.linalg.svd(stack, full_matrices=True)
    raw = np.conj(vh[..., -1, :]) / w

    top = sing[..., 0]
    bottom = sing[..., -1]
    with np.errstate(divide="ignore", invalid="ignore"):
        quality = np.where(top > 0, bottom / np.where(top > 0, top, 1.0), 0.0)
    degenerate = quality < quality_floor

    trace = sym_trace(raw, dim)
    norm = np.sqrt(np.sum(np.abs(raw) ** 2, axis=-1))
    tiny_trace = np.abs(trace) < 1e-8 * np.maximum(norm, np.finfo(float).tiny)
    degenerate = degenerate | tiny_trace
    phase = np.where(tiny_trace, 1.0, trace / np.where(tiny_trace, 1.0, np.abs(trace)))
    aligned = raw * np.conj(phase)[..., None]

    det = sym_det(aligned, dim)
    tiny_det = np.abs(det) < 1e-12 * np.maximum(norm, np.finfo(float).tiny) ** dim
    degenerate = degenerate | tiny_det
    scale = np.power(np.where(tiny_det, 1.0, det), 1.0 / dim)
    direction = aligned / scale[..., None]
    direction[degenerate] = np.nan

    quality_field = ScalarField(grid, quality.astype(np.complex128))
    return SymTensorField(grid, direction), quality_field, degenerate


def drift_from_diffusion(
    rs: RatioSet, gd: GramData, diffusion: SymTensorField
) -> VectorField:
    """Vector coefficient matching a given diffusion direction.

    ``beta = - G^{ij} (A : D^2 v_j) grad v_i`` is the unique vector with
    the pairings required by the ratio equations; with the identity
    direction it reduces to :func:`reconstruct_scalar_drift`.
    """
    grid = rs.grid
    dim = grid.dim
    pair = [
        sym_dot(diffusion.values, rs.hessians[j].values, dim) for j in range(dim)
    ]
    weights = _gram_solve(gd, pair, dim)
    out = np.zeros(grid.shape + (dim,), dtype=np.complex128)
    for i in range(dim):
        out -= weights[i][..., None] * rs.gradients[i].values
    return VectorField(grid, out)


def reconstruct(
    ms: MeasurementSet,
    mode: str = "matrix",
    margin: int = 2,
    analysis: RatioSet | None = None,
) -> NormalizedCoefficients:
    """Full ratio-based reconstruction.

    ``mode="matrix"`` runs the null-space pipeline and needs
    ``functional_budget(dim)`` functionals (extras beyond that are
    ignored, so redundant measurements cannot change the answer);
    ``mode="scalar"`` assumes scalar diffusion, needs ``dim + 1``
    functionals, and reports the identity direction alongside
    ``a^{-1} b``.  ``analysis`` is ``analyze(ms, mode, margin)`` when the
    caller already holds it; the ratio, Gram and cancellation checks run
    on it either way.
    """
    if mode not in ("matrix", "scalar"):
        raise MeasurementCountError(f"unknown reconstruction mode {mode!r}")
    dim = ms.grid.dim
    if mode == "matrix":
        budget = functional_budget(dim)
        if ms.count < budget:
            raise MeasurementCountError(
                f"matrix-valued diffusion in dimension {dim} needs "
                f"{budget} functionals; got {ms.count}"
            )
    rs = analysis if analysis is not None else analyze(ms, mode, margin)
    _check_ratios(ms, rs)
    gd = gram(rs)
    if mode == "scalar":
        diffusion = SymTensorField.identity(ms.grid)
        quality = ScalarField.constant(ms.grid, 1.0)
        degenerate = np.zeros(ms.grid.shape, dtype=bool)
    else:
        null_weights(rs, gd)  # raises unless the weights cancel the gradients
        diffusion, quality, degenerate = rs.null_space
    return NormalizedCoefficients(
        diffusion=diffusion,
        drift=drift_from_diffusion(rs, gd, diffusion),
        quality=quality,
        degenerate=degenerate,
        mask=rs.mask,
    )
