"""Coefficient reconstruction from interior functional ratios.

The measured functionals ``H_j = d u_j`` share the unknown weight ``d``
and the unknown reference solution ``u_1``, so the ratios
``v_j = H_{j+1} / H_1 = u_{j+1} / u_1`` depend on neither.  Each ratio
satisfies a second-order equation whose matrix coefficient is
proportional to the diffusion matrix ``a`` and whose vector coefficient
is determined by ``a``, ``b``, and the reference solution.  This module
recovers that pair up to normalization:

* with ``dim + 1`` functionals and scalar ``a``, the shape is ``I`` and
  the drift ``a^{-1} b + grad ln a + 2 grad ln u_1`` follows from a
  Gram solve against the ratio gradients;
* with ``I = dim (dim + 3) / 2`` functionals, each extra ratio yields a
  gradient-free linear combination of Hessians.  Those symmetric
  matrices cut out, pointwise, a one-dimensional null space under the
  trace pairing; its normalized generator is the determinant-one part of
  ``a``, and the vector coefficient follows by the same Gram solve.

:func:`analyze` computes all of this once, in the mode it is given,
as its named stages (:func:`ratios`, derivatives, :func:`gram`, and in
matrix mode :func:`null_weights`, :func:`constraint_matrices` and
:func:`diffusion_from_constraints`), none of which raises on bad data.
:func:`reconstruct` checks the result (the ``H_1`` floor, the boundary
quotients, the Gram floor, the cancellation of the null weights) and
uses it.  Pointwise linear algebra is batched over the grid, the
per-vertex null-space tail over slabs of whole axis-0 planes.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import (
    DegeneracyError,
    InternalConsistencyError,
    MeasurementCountError,
    NonVanishingError,
)
from .grids import (
    Grid,
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
    sym_weights,
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

# most vertices in one slab of the analysis's per-vertex tail (a slab
# holds at least one axis-0 plane); chosen by measurement, see README
_SLAB_VERTICES = 2048


def functional_budget(dim: int, mode: str = "matrix") -> int:
    """Functionals required by the pipeline of ``mode``: ``n(n+3)/2`` for
    matrix-valued diffusion, ``n + 1`` for scalar diffusion."""
    return dim * (dim + 3) // 2 if mode == "matrix" else dim + 1


def extra_count(dim: int) -> int:
    """Hessian constraints available beyond the gradient basis."""
    return dim * (dim + 1) // 2 - 1


@dataclass
class GramData:
    """The output of :func:`gram`: the inverse Gram matrix of the first
    ``dim`` ratio gradients, zero where ``|det|`` underflows
    (``singular``), and ``det``, which the Gram floor reads."""

    inverse: SymTensorField
    det: np.ndarray
    singular: np.ndarray


@dataclass
class RatioSet:
    """Ratios ``v_j = H_{j+1}/H_1`` and the pointwise algebra built on them.

    One whole-grid field per stage of :func:`analyze`: ``fields``
    (:func:`ratios`), ``gradients``, ``hessians``, ``gram_data``
    (:func:`gram`), and in matrix mode ``theta`` (:func:`null_weights`)
    and ``null_space`` (:func:`diffusion_from_constraints`: direction,
    quality and degenerate mask), None in scalar mode; the last two are
    computed slab by slab and gathered here.  Its ``mode`` and trusted
    interior ``inside`` are the ones every reader uses.
    """

    grid: Grid
    mode: str
    fields: list[ScalarField]
    gradients: list[VectorField]
    hessians: list[SymTensorField]
    inside: np.ndarray
    gram_data: GramData
    theta: np.ndarray | None = None
    null_space: tuple[SymTensorField, ScalarField, np.ndarray] | None = None


@dataclass
class NormalizedCoefficients:
    """Det-one diffusion direction and matching vector coefficient.

    ``quality`` is the pointwise singular-value gap of the constraint
    stack (1 is best); vertices flagged ``degenerate`` carry NaN rather
    than an invented value.  ``mode`` is the analysis's.
    """

    diffusion: SymTensorField
    drift: VectorField
    quality: ScalarField
    degenerate: np.ndarray
    inside: np.ndarray
    mode: str

    @property
    def mask(self) -> SimpleNamespace:
        """``inside`` as ``mask.flags``, the form ``perfbench/run.py`` reads."""
        return SimpleNamespace(flags=self.inside)


def analyze(ms: MeasurementSet, mode: str = "matrix", margin: int = 2) -> RatioSet:
    """The ratio analysis of ``ms``, computed once and without raising
    on bad data.

    The stages in order: :func:`ratios`; one gradient and Hessian of
    each of the first ``functional_budget(dim, mode) - 1`` ratios, the
    ones ``mode`` consumes (the Hessian reuses the gradient); :func:`gram`;
    in matrix mode :func:`null_weights`, :func:`constraint_matrices` and
    :func:`diffusion_from_constraints`, which see one slab of whole
    axis-0 planes at a time (at least one plane, otherwise at most
    ``_SLAB_VERTICES`` vertices) and whose results are written into
    whole-grid arrays.  Every step of that tail is pointwise but the
    direction's dtype: a negative det at any vertex makes the whole
    direction complex, so slabs whose directions differ in dtype are
    redone as one.  The slabs change no bit.  A vanishing ``H_1`` gives a zero
    ratio and a singular Gram matrix a zero inverse, so the audit can
    read deliberately bad data.  Matrix mode with fewer than
    ``functional_budget(dim)`` functionals (the one budget check) and an
    unknown ``mode`` raise :class:`MeasurementCountError`.
    """
    if mode not in ("matrix", "scalar"):
        raise MeasurementCountError(f"unknown reconstruction mode {mode!r}")
    grid = ms.grid
    need = functional_budget(grid.dim, mode) - 1
    # MeasurementSet itself refuses fewer than the scalar budget, dim + 1
    if mode == "matrix" and ms.count <= need:
        raise MeasurementCountError(
            f"matrix-valued pipeline needs {need + 1} functionals "
            f"({need} ratios), got {ms.count} ({ms.count - 1})"
        )
    fields = ratios(ms)
    gradients = [gradient(v) for v in fields[:need]]
    hessians = [hessian(v, g) for v, g in zip(fields, gradients)]
    rs = RatioSet(
        grid=grid,
        mode=mode,
        fields=fields,
        gradients=gradients,
        hessians=hessians,
        inside=grid.interior(margin),
        gram_data=gram(gradients),
    )
    if mode == "scalar":
        return rs
    # the tail's many intermediates per vertex live for one slab at a
    # time.  Division by a complex root gives +0 where a real one keeps
    # -0, so a real slab differs from the same vertices of a complex grid
    inputs = (gradients, hessians, rs.gram_data.inverse.values)
    results = _gathered_tail(*inputs, _slabs(grid.shape))
    if results is None:
        results = _gathered_tail(*inputs, [slice(None)])
    rs.theta, direction, quality, degenerate = results
    rs.null_space = (SymTensorField(grid, direction), ScalarField(grid, quality), degenerate)
    return rs


def _slabs(shape: tuple[int, ...]):
    """Slices of whole axis-0 planes, at least one plane and otherwise
    at most ``_SLAB_VERTICES`` vertices each, that cover ``shape``."""
    plane = int(np.prod(shape[1:]))
    step = max(1, _SLAB_VERTICES // plane)
    for lo in range(0, shape[0], step):
        yield slice(lo, lo + step)


def _gathered_tail(
    gradients: list[VectorField],
    hessians: list[SymTensorField],
    inverse: np.ndarray,
    parts,
) -> list[np.ndarray] | None:
    """``theta``, direction, quality and degenerate mask of the vertices
    ``parts`` of the grid, one :func:`null_weights`,
    :func:`constraint_matrices` and :func:`diffusion_from_constraints`
    per part, written into whole-grid arrays; None if the parts'
    directions differ in dtype."""
    grid = gradients[0].grid
    results = None
    for part in parts:
        theta = null_weights([g.values[part] for g in gradients], inverse[part])
        slab = (theta,) + diffusion_from_constraints(
            constraint_matrices([h.values[part] for h in hessians], theta)
        )
        if results is None:
            results = [np.empty(grid.shape + r.shape[grid.dim :], r.dtype) for r in slab]
        elif slab[1].dtype != results[1].dtype:
            return None
        for out, r in zip(results, slab):
            out[part] = r
    return results


def ratios(ms: MeasurementSet) -> list[ScalarField]:
    """Ratios ``v_j = H_{j+1} / H_1`` of every functional after the
    first, zero where ``H_1`` vanishes."""
    h1 = ms.functionals[0].values
    with np.errstate(divide="ignore", invalid="ignore"):
        return [
            ScalarField(ms.grid, np.where(h1 == 0, 0.0, divide(f.values, h1)))
            for f in ms.functionals[1:]
        ]


def gram(gradients: list[VectorField]) -> GramData:
    """The Gram matrix ``G_ij = grad v_i . grad v_j`` of the first
    ``dim`` ratio gradients, inverted pointwise, zero where ``|det|``
    underflows.  It is formed in the dtype of all of ``gradients``: a
    real basis beside a complex extra ratio gives a complex ``G``."""
    grid = gradients[0].grid
    dim = grid.dim
    grads = [g.values for g in gradients]
    vals = np.empty(grid.shape + (sym_size(dim),), dtype=np.result_type(*grads))
    for k, (i, j) in enumerate(sym_pairs(dim)):
        vals[..., k] = component_sum(grads[i] * grads[j])
    det = sym_det(vals, dim)
    singular = ~(np.abs(det) > np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = sym_inv(vals, dim)
    inverse[singular] = 0.0
    return GramData(SymTensorField(grid, inverse), det, singular)


def null_weights(gradients: list[np.ndarray], inverse: np.ndarray) -> np.ndarray:
    """Per-vertex weights combining ratios into gradient-free residuals.

    ``gradients`` are the ratio gradients' values and ``inverse`` the
    inverse Gram matrix of the first ``dim`` of them, in triangle
    storage, on the same vertices.  Row ``m`` pairs extra ratio
    ``dim + m``, at unit weight, with the gradient basis so that the
    weighted gradient sum cancels identically:
    ``theta[m, j] = -G^{jk} (grad v_{dim+m} . grad v_k)`` for ``j < dim``,
    the ``(extra_count(dim), dim)`` array :func:`analyze` stores as
    ``rs.theta``.
    """
    dim = gradients[0].shape[-1]
    extras = extra_count(dim)
    theta = np.empty(
        gradients[0].shape[:-1] + (extras, dim), dtype=np.result_type(*gradients)
    )
    for m in range(extras):
        rhs = [component_sum(gradients[dim + m] * gradients[k]) for k in range(dim)]
        for j, sol in enumerate(sym_apply(inverse, rhs, dim)):
            theta[..., m, j] = -sol
    return theta


def _check_analysis(ms: MeasurementSet, rs: RatioSet) -> None:
    """Raise unless the analysis ``rs`` of ``ms`` passes the four
    checks of :func:`reconstruct`, in its order."""
    grid = ms.grid
    dim = grid.dim
    mag = np.abs(ms.functionals[0].values)
    top = float(mag.max()) or 1.0
    if float(mag.min()) < H1_FLOOR * top:
        point = tuple(int(k) for k in np.argwhere(mag == mag.min())[0])
        raise NonVanishingError(
            f"reference functional reaches {mag.min():.3e} "
            f"(max {top:.3e}) at vertex {point}; ratios are unreliable",
            stage="recon",
        )

    f1 = ms.traces[0].values
    safe = grid.boundary_mask() & (np.abs(f1) > 1e-12 * float(np.max(np.abs(f1))))
    noise_amp = ms.noise.amplitude if ms.noise is not None else 0.0
    for j, v in enumerate(rs.fields, start=1):
        f_j = ms.traces[j].values
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

    # largest interior squared gradient magnitude, per ratio
    peaks = [
        float(np.max(component_sum(np.abs(g.values) ** 2)[rs.inside]))
        for g in rs.gradients
    ]
    floor = GRAM_FLOOR * max(float(np.max(peaks[:dim])), np.finfo(float).tiny) ** dim
    bad = rs.inside & (np.abs(rs.gram_data.det) < floor)
    if np.any(bad):
        pts = [tuple(int(k) for k in p) for p in np.argwhere(bad)]
        raise DegeneracyError(
            f"ratio gradients are linearly dependent at {len(pts)} "
            f"interior vertices (|det| floor {floor:.3e})",
            points=pts,
            stage="recon",
        )

    if rs.mode == "scalar":
        return
    theta = rs.theta
    resid = np.zeros(grid.shape + (dim,), dtype=theta.dtype)
    worst = 0.0
    for m in range(theta.shape[-2]):
        resid[...] = 0.0
        for j in range(dim):
            resid += theta[..., m, j][..., None] * rs.gradients[j].values
        resid += rs.gradients[dim + m].values
        r = np.sqrt(component_sum(np.abs(resid) ** 2))
        worst = max(worst, float(np.max(r[rs.inside])))
    # sqrt is monotone and correctly rounded: the root of the peak is
    # the peak of the magnitudes
    grad_top = max(float(np.sqrt(p)) for p in peaks)
    if worst > _CONSISTENCY_TOL * max(grad_top, 1.0):
        raise InternalConsistencyError(
            f"gradient cancellation failed: residual {worst:.3e} "
            f"against gradient scale {grad_top:.3e}",
            stage="recon",
        )


def constraint_matrices(hessians: list[np.ndarray], theta: np.ndarray) -> list[np.ndarray]:
    """Hessian combinations ``M^m = D^2 v_{dim+m} + sum_{j<dim} theta[m, j] D^2 v_j``.

    ``hessians`` are the ratio Hessians' values in triangle storage and
    ``theta`` the :func:`null_weights` on the same vertices.  By
    construction each ``M^m`` annihilates the diffusion direction under
    the trace pairing.
    """
    extras, dim = theta.shape[-2:]
    out = []
    for m in range(extras):
        acc = np.zeros(theta.shape[:-2] + (sym_size(dim),), dtype=theta.dtype)
        for j in range(dim):
            acc += theta[..., m, j][..., None] * hessians[j]
        acc += hessians[dim + m]
        out.append(acc)
    return out


def diffusion_from_constraints(
    matrices: list[np.ndarray],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Extract the determinant-one diffusion direction pointwise.

    Stacks the constraint matrices (triangle storage) as rows of a small
    rectangular system under the trace pairing (off-diagonal entries
    weighted by sqrt(2) so the Euclidean product matches the trace
    product) and takes its null vector in closed form at every vertex
    given: the generalized cross product of the rows
    (:func:`_cross_null_space`), in 2-D the cross product of two rows in
    C^3, in 3-D the signed 5x5 minors of five rows in C^6.  The quality
    ``s_min / s_max`` comes from the rows' Gram matrix: in closed form
    in 2-D, from one batched ``eigvalsh`` of the 5x5 Gram matrices in
    3-D.  The generator is normalized to real positive trace and
    determinant one.  The principal root of the determinant changes
    sign across the negative real axis, where the determinant of an
    indefinite generator lies; a determinant within rounding of that
    axis is taken on its upper side, so the sign of its rounding does
    not pick the sign of the direction.

    Returns the direction, the quality, and a boolean mask of
    degenerate vertices (quality below ``QUALITY_FLOOR``), which carry
    NaN in the direction.  Each vertex's outputs depend on its own
    matrices alone, except that a real direction is complex at every
    vertex if one vertex's determinant is negative.
    """
    s = matrices[0].shape[-1]
    dim = 2 if s == 3 else 3  # 3 or 6 stored entries
    w = np.sqrt(sym_weights(dim))
    stack = np.empty(
        matrices[0].shape[:-1] + (len(matrices), s), dtype=np.result_type(*matrices)
    )
    for m, M in enumerate(matrices):
        stack[..., m, :] = M * w
    # each per-vertex intermediate is dropped once the next one exists
    del matrices

    null, quality = _cross_null_space(stack)
    del stack
    raw = divide(null, w)
    del null
    degenerate = ~(quality >= QUALITY_FLOOR)  # NaN data is degenerate too

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
    del raw

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
    del aligned
    direction[degenerate] = np.nan
    return direction, quality, degenerate


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


def drift_from_diffusion(rs: RatioSet, diffusion: SymTensorField) -> VectorField:
    """Vector coefficient matching a given diffusion direction.

    ``beta = - G^{ij} (A : D^2 v_j) grad v_i`` is the unique vector with
    the pairings required by the ratio equations; with the identity
    direction it is ``a^{-1} b + grad ln a + 2 grad ln u_1`` for scalar
    ``a``, ``- G^{ij} (tr D^2 v_j) grad v_i``.
    """
    grid = rs.grid
    dim = grid.dim
    pair = [
        sym_dot(diffusion.values, rs.hessians[j].values, dim) for j in range(dim)
    ]
    weights = sym_apply(rs.gram_data.inverse.values, pair, dim)
    grads = [rs.gradients[i].values for i in range(dim)]
    out = np.zeros(grid.shape + (dim,), dtype=np.result_type(*weights, *grads))
    for i in range(dim):
        out -= weights[i][..., None] * grads[i]
    return VectorField(grid, out)


def reconstruct(
    ms: MeasurementSet, analysis: RatioSet | None = None
) -> NormalizedCoefficients:
    """Full ratio-based reconstruction from the ratio analysis of ``ms``.

    ``analysis`` is ``analyze(ms, mode, margin)`` when the caller
    already holds it, and ``analyze(ms)`` otherwise; its mode and
    trusted interior are the reconstruction's.  Before any output is
    formed, four checks run on it, in order: the ``H_1`` floor
    (:class:`NonVanishingError`), the boundary quotients of the ratios
    (:class:`InternalConsistencyError`), the Gram floor on the trusted
    interior (:class:`DegeneracyError`) and, in matrix mode, the
    cancellation of the gradients by the null weights
    (:class:`InternalConsistencyError`).  Matrix mode runs the
    null-space pipeline and needs ``functional_budget(dim)``
    functionals (extras beyond that are ignored, so redundant
    measurements cannot change the answer; :func:`analyze` refuses
    fewer with :class:`MeasurementCountError`).  Scalar mode, which is
    ``reconstruct(ms, analyze(ms, "scalar"))``, assumes scalar
    diffusion, needs ``dim + 1`` functionals, and reports the identity
    direction with its matching drift.
    """
    rs = analysis if analysis is not None else analyze(ms)
    _check_analysis(ms, rs)
    if rs.mode == "scalar":
        diffusion = SymTensorField.identity(ms.grid)
        quality = ScalarField.constant(ms.grid, 1.0)
        degenerate = np.zeros(ms.grid.shape, dtype=bool)
    else:
        diffusion, quality, degenerate = rs.null_space
    return NormalizedCoefficients(
        diffusion=diffusion,
        drift=drift_from_diffusion(rs, diffusion),
        quality=quality,
        degenerate=degenerate,
        inside=rs.inside,
        mode=rs.mode,
    )
