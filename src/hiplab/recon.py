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

import functools
import itertools
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
    component_sum,
    divide,
    gradient,
    hessian,
    principal_root,
    sym_apply,
    sym_det,
    sym_dot,
    sym_inv,
    sym_pairs,
    sym_size,
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

# half-width of the band around the negative real axis, in units of
# eps |raw|^dim / quality, inside which the det-one root's branch is fixed
_CUT_BAND = 64 * np.finfo(float).eps


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
    Only the ratios ``mode`` consumes are differentiated, each in one
    pass (its Hessian reuses its gradient): the first ``dim`` in scalar
    mode, the first ``functional_budget(dim) - 1`` in matrix mode, where
    the null weights and the null space follow once that many exist.
    The Gram data needs ``dim`` ratios.
    """
    grid = ms.grid
    dim = grid.dim
    h1 = ms.functionals[0].values
    with np.errstate(divide="ignore", invalid="ignore"):
        fields = [
            ScalarField(grid, np.where(h1 == 0, 0.0, divide(f.values, h1)))
            for f in ms.functionals[1:]
        ]
    extras = extra_count(dim)
    need = dim if mode == "scalar" else dim + extras
    gradients = [gradient(v) for v in fields[:need]]
    rs = RatioSet(
        grid=grid,
        fields=fields,
        gradients=gradients,
        hessians=[hessian(v, g) for v, g in zip(fields, gradients)],
        mask=grid.interior(margin),
    )
    if rs.count < dim:
        return rs
    grads = [g.values for g in rs.gradients]
    vals = np.empty(grid.shape + (sym_size(dim),), dtype=np.result_type(*grads))
    for k, (i, j) in enumerate(sym_pairs(dim)):
        vals[..., k] = component_sum(grads[i] * grads[j])
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
    # a function of its own, so its temporaries are freed before the
    # null space is formed
    extras = extra_count(dim)
    theta = np.zeros(gd.det.shape + (extras, dim + extras), dtype=np.result_type(*grads))
    for m in range(extras):
        rhs = [component_sum(grads[dim + m] * grads[k]) for k in range(dim)]
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
        expected = divide(np.where(safe, f_j, 0), np.where(safe, f1, 1))
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
    sq = np.max([component_sum(np.abs(g) ** 2) for g in grads], axis=0)
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
    return sym_apply(gd.inverse.values, rhs, dim)


def null_weights(rs: RatioSet) -> np.ndarray:
    """Per-vertex weights combining ratios into gradient-free residuals.

    Row ``m`` pairs extra ratio ``dim + m`` with the gradient basis so
    that the weighted gradient sum cancels identically:
    ``theta_j = -G^{jk} (grad v_{dim+m} . grad v_k)`` for ``j < dim``,
    ``theta_{dim+m} = 1``, zero otherwise.  :func:`analyze` forms them
    from the Gram data of ``rs`` and stores them as ``rs.theta``; here
    the cancellation is verified to rounding level.
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
    resid = np.zeros(grid.shape + (grid.dim,), dtype=theta.dtype)
    top = 0.0
    for m in range(extras):
        resid[...] = 0.0
        for j in range(need):
            resid += theta[..., m, j][..., None] * rs.gradients[j].values
        r = np.sqrt(component_sum(np.abs(resid) ** 2))
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
        acc = np.zeros(grid.shape + (sym_size(grid.dim),), dtype=theta.dtype)
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
    the Euclidean product matches the trace product) and takes its null
    vector in closed form over the whole grid: the generalized cross
    product of the rows (:func:`_cross_null_space`), in 2-D the cross
    product of two rows in C^3, in 3-D the signed 5x5 minors of five
    rows in C^6.  The quality ``s_min / s_max`` comes from the rows'
    Gram matrix: in closed form in 2-D, from one batched ``eigvalsh``
    of the 5x5 Gram matrices in 3-D.  The generator is normalized to
    real positive trace and determinant one.  The principal root of the
    determinant changes sign across the negative real axis, where the
    determinant of an indefinite generator lies; a determinant within
    rounding of that axis is taken on its upper side, so the sign of its
    rounding does not pick the sign of the direction.

    Returns the direction, the quality field, and a boolean mask of
    degenerate vertices, which carry NaN in the direction field.
    """
    grid = matrices[0].grid
    dim = grid.dim
    m_rows = len(matrices)
    s = sym_size(dim)
    w = np.ones(s)
    w[dim:] = np.sqrt(2.0)
    stack = np.empty(
        grid.shape + (m_rows, s), dtype=np.result_type(*(M.values for M in matrices))
    )
    for m, M in enumerate(matrices):
        stack[..., m, :] = M.values * w

    null, quality = _cross_null_space(stack)
    raw = divide(null, w)
    degenerate = ~(quality >= quality_floor)  # NaN data is degenerate too

    trace = sym_trace(raw, dim)
    norm = np.sqrt(component_sum(np.abs(raw) ** 2))
    tiny_trace = np.abs(trace) < 1e-8 * np.maximum(norm, np.finfo(float).tiny)
    degenerate = degenerate | tiny_trace
    # degenerate vertices end as NaN; skipping their divisions keeps a
    # zero or subnormal null vector from overflowing
    phase = np.where(
        degenerate, 1.0, divide(trace, np.where(degenerate, 1.0, np.abs(trace)))
    )
    aligned = raw * np.conj(phase)[..., None]

    det = sym_det(aligned, dim)
    det_unit = np.maximum(norm, np.finfo(float).tiny) ** dim
    tiny_det = np.abs(det) < 1e-12 * det_unit
    degenerate = degenerate | tiny_det
    det = np.where(degenerate, 1.0, det)
    # the null vector moves by about eps / quality under rounding, and
    # det with it; inside that band of the negative real axis the root
    # is taken on the upper side
    on_cut = (det.real < 0) & (np.abs(det.imag) * quality <= _CUT_BAND * det_unit)
    det[on_cut] = det.real[on_cut]
    direction = divide(aligned, principal_root(det, dim)[..., None])
    direction[degenerate] = np.nan

    quality_field = ScalarField(grid, quality)
    return SymTensorField(grid, direction), quality_field, degenerate


def _cross_null_space(stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Null vector and gap ``s_min / s_max`` of ``m x (m + 1)`` stacks.

    Each stack is first scaled exactly, in place, by a power of two, so
    that its largest ``|entry|`` lies in [1/2, 1): neither result
    depends on the data's units, and no product of entries overflows.  The null vector
    is the generalized cross product of the scaled rows
    (:func:`_wedge_null_vector`), zero where they are dependent.  The
    squared singular values are the eigenvalues of the rows' Hermitian
    Gram matrix.  For two rows it is ``[[p, c], [conj(c), q]]``, whose
    determinant is ``d = |n|^2`` (Lagrange's identity), so the gap is
    ``sqrt(d) / l_max`` with ``l_max = (p + q + sqrt((p - q)^2 + 4 |c|^2)) / 2``.
    Neither the smaller eigenvalue nor the discriminant in its
    ``t^2 - 4 d`` form is computed: both cancel where ``s_min`` is small
    or close to ``s_max``.  For more rows the eigenvalues come from one
    batched ``eigvalsh``; the Gram matrix squares the condition number,
    so that gap is accurate to about ``eps / gap`` rather than ``eps``.
    """
    m_rows = stack.shape[-2]
    # elementwise maxima over the entries: numpy's reductions over a
    # short last axis run several times slower
    peak = functools.reduce(
        np.maximum, np.moveaxis(np.abs(stack).reshape(stack.shape[:-2] + (-1,)), -1, 0)
    )
    _, exponent = np.frexp(peak)
    floats = stack.view(np.float64)
    np.ldexp(floats, -exponent[..., None, None], out=floats)
    rows = stack
    n = _wedge_null_vector(rows)
    if m_rows == 2:
        r1, r2 = rows[..., 0, :], rows[..., 1, :]
        p, q = _sum_sq(r1), _sum_sq(r2)
        c = component_sum(r1 * np.conj(r2))
        top = 0.5 * (p + q + np.sqrt((p - q) ** 2 + 4.0 * (c.real**2 + c.imag**2)))
        quality = np.sqrt(_sum_sq(n)) / np.where(top > 0, top, 1.0)
        return n, quality
    gram = rows @ np.conj(np.swapaxes(rows, -1, -2))
    finite = np.isfinite(peak)
    gram[~finite] = 0.0  # LAPACK rejects NaN; the gap is NaN there
    # real eigvalsh rounds differently from the complex one
    eig = np.linalg.eigvalsh(gram.astype(np.complex128, copy=False))
    top = eig[..., -1]
    bottom = np.maximum(eig[..., 0], 0.0)
    quality = np.sqrt(bottom / np.where(top > 0, top, 1.0))
    return n, np.where(finite, quality, np.nan)


@functools.cache
def _wedge_terms(n: int, k: int) -> list[list[tuple[int, int, bool]]]:
    """How ``w ^ r`` is formed from a ``k``-vector ``w`` and a vector ``r``
    in ``n`` dimensions, components indexed by the sorted index subsets
    in lexicographic order.

    ``(w ^ r)_T = sum_p (-1)^(k - p) w_{T - t_p} r_{t_p}`` over the
    positions ``p`` of ``T``.  One list per ``T``, one entry per ``p``:
    the component of ``w`` and of ``r`` that multiply, and whether the
    term is subtracted.
    """
    lower = {t: i for i, t in enumerate(itertools.combinations(range(n), k))}
    return [
        [(lower[t[:p] + t[p + 1 :]], t[p], (k - p) % 2 == 1) for p in range(k + 1)]
        for t in itertools.combinations(range(n), k + 1)
    ]


def _wedge_null_vector(rows: np.ndarray) -> np.ndarray:
    """Generalized cross product of the ``m`` rows of ``m x (m + 1)`` stacks.

    Successive exterior products ``r_1 ^ ... ^ r_m`` leave one
    ``m x m`` minor per omitted column ``c``; with the sign ``(-1)^c``
    they form a vector ``n`` with ``r . n = 0`` (bilinear, no
    conjugation) for every row ``r``, since ``r ^ r_1 ^ ... ^ r_m``
    repeats a row.  For two rows this is the cross product ``r_1 x r_2``
    with numpy's operand order, bit for bit.
    """
    m_rows, n = rows.shape[-2:]
    w = [rows[..., 0, j] for j in range(n)]
    term = np.empty(rows.shape[:-2], dtype=rows.dtype)
    for k in range(1, m_rows):
        r = rows[..., k, :]
        table = _wedge_terms(n, k)
        # one buffer per exterior power keeps the many temporaries off
        # the heap
        nxt = np.empty((len(table),) + rows.shape[:-2], dtype=rows.dtype)
        for i, terms in enumerate(table):
            acc = nxt[i, ...]
            (lower, col, negative), *rest = terms
            np.multiply(w[lower], r[..., col], out=acc)
            if negative:
                np.negative(acc, out=acc)
            for lower, col, negative in rest:
                np.multiply(w[lower], r[..., col], out=term)
                (np.subtract if negative else np.add)(acc, term, out=acc)
        w = nxt
    # the minors come in the order of the columns they keep, so the one
    # omitting column c sits at index n - 1 - c
    null = np.stack([w[n - 1 - c] for c in range(n)], axis=-1)
    odd = null[..., 1::2]
    np.negative(odd, out=odd)
    return null


def _sum_sq(z: np.ndarray) -> np.ndarray:
    """``sum |z_i|^2`` over the last axis of ``z``, whose entries must be
    adjacent in memory; a complex ``z`` sums its real and imaginary parts
    in turn."""
    x = z.view(np.float64)
    return component_sum(x * x)


def drift_from_diffusion(
    rs: RatioSet, gd: GramData, diffusion: SymTensorField
) -> VectorField:
    """Vector coefficient matching a given diffusion direction.

    ``beta = - G^{ij} (A : D^2 v_j) grad v_i`` is the unique vector with
    the pairings required by the ratio equations; with the identity
    direction it is the scalar-diffusion ``a^{-1} b``,
    ``- G^{ij} (tr D^2 v_j) grad v_i``.
    """
    grid = rs.grid
    dim = grid.dim
    pair = [
        sym_dot(diffusion.values, rs.hessians[j].values, dim) for j in range(dim)
    ]
    weights = _gram_solve(gd, pair, dim)
    grads = [rs.gradients[i].values for i in range(dim)]
    out = np.zeros(grid.shape + (dim,), dtype=np.result_type(*weights, *grads))
    for i in range(dim):
        out -= weights[i][..., None] * grads[i]
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
        null_weights(rs)  # raises unless the weights cancel the gradients
        diffusion, quality, degenerate = rs.null_space
    return NormalizedCoefficients(
        diffusion=diffusion,
        drift=drift_from_diffusion(rs, gd, diffusion),
        quality=quality,
        degenerate=degenerate,
        mask=rs.mask,
    )
