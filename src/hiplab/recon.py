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

All of it after the ratios is pointwise, so :func:`analyze` runs it, and
the readings of the table of checks (:class:`hiplab.errors.Check`), in
one pass over slabs of whole axis-0 planes that drops each slab's
derivatives after use; none of it raises on bad data.  :func:`reconstruct` raises the
first of its rows that fails and hands the pass's output on.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .errors import Check, DegeneracyError, InternalConsistencyError, MeasurementCountError
from .grids import (
    ScalarField,
    SymTensorField,
    VectorField,
    component_sum,
    divide,
    principal_root,
    sym_apply,
    sym_det,
    sym_dot,
    sym_inv,
    sym_pairs,
    sym_size,
    sym_trace,
    sym_weights,
    window_derivatives,
)
from .synthesis import MeasurementSet, floor_check

__all__ = [
    "functional_budget",
    "extra_count",
    "FLOORS",
    "RatioSet",
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

# the admissibility audit's floor of each margin, echoed in every audit
FLOORS = {"reference": 1e-6, "basis": 1e-6, "independence": 1e-6}

# relative floor on |det Gram|, scaled by the n-th power of the largest
# interior squared gradient
GRAM_FLOOR = 1e-6

# singular-value gap below which the pointwise null space is ambiguous
QUALITY_FLOOR = 1e-6

# tolerance for identities that hold by construction
_CONSISTENCY_TOL = 1e-10

# most vertices in one slab of the analysis's pass, by grid dimension (a
# slab holds at least one axis-0 plane); chosen by measurement, see README
_SLAB_BUDGET = {2: 4096, 3: 1536}


def functional_budget(dim: int, mode: str = "matrix") -> int:
    """Functionals required by the pipeline of ``mode``: ``n(n+3)/2`` for
    matrix-valued diffusion, ``n + 1`` for scalar diffusion."""
    return dim * (dim + 3) // 2 if mode == "matrix" else dim + 1


def extra_count(dim: int) -> int:
    """Hessian constraints available beyond the gradient basis."""
    return dim * (dim + 1) // 2 - 1


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


@dataclass
class RatioSet:
    """What the pass of :func:`analyze` keeps: the whole-grid ratios, the
    table of checks, in order, and the ``coefficients`` it hands on."""

    fields: list[ScalarField]
    checks: list[Check]
    coefficients: NormalizedCoefficients


def analyze(ms: MeasurementSet, mode: str = "matrix", margin: int = 2) -> RatioSet:
    """The ratio analysis of ``ms``, computed once and without raising
    on bad data.

    After :func:`ratios`, one pass over slabs of whole axis-0 planes (at
    least one plane, otherwise at most ``_SLAB_BUDGET[dim]`` vertices:
    4096 in 2-D, 1536 in 3-D) takes, on each slab's planes, the
    derivatives of the first ``functional_budget(dim, mode) - 1`` ratios
    (:func:`hiplab.grids.window_derivatives`), :func:`gram`, in matrix
    mode :func:`null_weights`, :func:`constraint_matrices` and
    :func:`diffusion_from_constraints`, the drift of the direction (the
    identity in scalar mode) and the readings of the table of checks,
    built after the pass.  Every step is pointwise, so the slabs change
    no bit, and the direction and drift have the ratios' dtype: real for
    real data.  A vanishing ``H_1`` gives a zero ratio and a singular
    Gram matrix a zero inverse, so every row can read bad data.  Matrix mode with fewer than ``functional_budget(dim)``
    functionals (the one budget check) and an unknown ``mode`` raise
    :class:`MeasurementCountError`.
    """
    if mode not in ("matrix", "scalar"):
        raise MeasurementCountError(f"unknown reconstruction mode {mode!r}")
    grid = ms.grid
    dim = grid.dim
    need = functional_budget(dim, mode) - 1
    # MeasurementSet itself refuses fewer than the scalar budget, dim + 1
    if mode == "matrix" and ms.count <= need:
        raise MeasurementCountError(
            f"matrix-valued pipeline needs {need + 1} functionals "
            f"({need} ratios), got {ms.count} ({ms.count - 1})"
        )
    fields = ratios(ms)
    values = [v.values for v in fields[:need]]
    inside, gram_det = grid.interior(margin), np.empty(grid.shape)

    peaks, basis, independence, worst = np.full(need, -np.inf), np.inf, np.inf, (-np.inf, None)
    quality, degenerate = np.ones(grid.shape), np.zeros(grid.shape, bool)
    dtype = np.result_type(*values)
    if mode == "scalar":
        direction = SymTensorField.identity(grid).values
    else:
        direction = np.empty(grid.shape + (sym_size(dim),), dtype)
    drift = np.empty(grid.shape + (dim,), dtype)
    for part in _slabs(grid.shape):
        grads, hessians = window_derivatives(values, grid.spacing, part)
        inverse, det, singular = gram(grads)
        gram_det[part] = np.abs(det)
        if mode == "matrix":
            theta = null_weights(grads, inverse)
            d, q, bad = diffusion_from_constraints(constraint_matrices(hessians, theta))
            direction[part], quality[part], degenerate[part] = d, q, bad
        drift[part] = drift_from_diffusion(
            direction[part], hessians[:dim], inverse, grads[:dim]
        )

        # the readings, reduced over the slab's trusted vertices in place;
        # the peaks are of the finite squares, so one NaN moves no floor
        ins = inside[part]
        squares = [component_sum(np.abs(g) ** 2) for g in grads]
        peaks = np.maximum(peaks, [np.nanmax(s, where=ins, initial=-np.inf) for s in squares])
        vertex_basis = _basis_margin(grads[:dim], squares[:dim])
        basis = np.minimum(basis, np.min(vertex_basis, where=ins, initial=np.inf))
        if mode == "matrix":
            vertex_gap = np.where(singular, 0.0, q)
            independence = np.minimum(independence, np.min(vertex_gap, where=ins, initial=np.inf))
            lengths = [np.sqrt(component_sum(np.abs(r) ** 2)) for r in _weighted_sums(grads, theta)]
            resid = np.where(ins, functools.reduce(np.maximum, lengths), -np.inf)
            at = np.unravel_index(np.argmax(resid), resid.shape)  # the first NaN, if any
            if not np.isnan(worst[0]) and not resid[at] <= worst[0]:
                worst = (float(resid[at]), (int(at[0]) + part.start, *map(int, at[1:])))

    # the table of checks, in order
    mag = np.abs(ms.functionals[0].values)
    peak = max(float(np.max(mag, where=inside, initial=-np.inf)), np.finfo(float).tiny)
    reference = float(np.min(mag, where=inside, initial=np.inf)) / peak
    margins = {"reference": reference, "basis": basis, "independence": independence}
    checks = [
        Check(name, "interior", float(value), FLOORS[name], True, DegeneracyError,
              f"{name} margin {{reading:.3e}} < {{limit:.1e}}")
        for name, value in margins.items()
        if mode == "matrix" or name != "independence"  # scalar mode does not use it
    ]
    h1, top = floor_check(mag, "|H_1|")
    checks += [h1, *_boundary_checks(ms, fields, h1.reading, top)]
    floor = GRAM_FLOOR * max(float(np.max(peaks[:dim])), np.finfo(float).tiny) ** dim
    bad = [tuple(int(k) for k in p) for p in np.argwhere(inside & ~(gram_det >= floor))]
    shown = ", ".join(map(str, bad[:5])) + (f" (+{len(bad) - 5} more)" if len(bad) > 5 else "")
    listed = f"; first offending points: {shown}" if bad else ""
    checks.append(Check(
        "gram", "interior", float(np.min(gram_det, where=inside, initial=np.inf)), floor, True,
        DegeneracyError, f"ratio gradients are linearly dependent at {len(bad)} interior "
        f"vertices (|det| floor {{limit:.3e}}){listed}",
    ))
    if mode == "matrix":
        # sqrt is monotone and correctly rounded: the root of the peak is
        # the peak of the magnitudes
        scale = float(np.sqrt(np.max(peaks)))
        checks.append(Check(
            "cancellation", "interior", worst[0], _CONSISTENCY_TOL * max(scale, 1.0), False,
            InternalConsistencyError, "gradient cancellation failed: residual {reading:.3e} "
            f"at vertex {worst[1]} against gradient scale {scale:.3e}",
        ))
    return RatioSet(fields, checks, NormalizedCoefficients(
        SymTensorField(grid, direction), VectorField(grid, drift), ScalarField(grid, quality),
        degenerate, inside, mode,
    ))


def _boundary_checks(ms: MeasurementSet, fields: list, low: float, top: float):
    """One row per ratio of ``fields``: its largest misfit to the quotient
    of its traces on the boundary, given ``|H_1|``'s least and largest."""
    f1 = ms.traces[0].values
    safe = ms.grid.boundary_mask() & (np.abs(f1) > 1e-12 * float(np.max(np.abs(f1))))
    noise_amp = ms.noise.amplitude if ms.noise is not None else 0.0
    f1_safe = f1[safe]
    for j, v in enumerate(fields, start=1):
        # on the safe boundary vertices only; an empty ``safe`` reads 0
        expected = divide(ms.traces[j].values[safe], f1_safe)
        scale = float(np.max(np.abs(expected), initial=0.0)) + 1.0
        err = float(np.max(np.abs(v.values[safe] - expected), initial=0.0))
        # declared noise moves each functional by amp * max|H|, so the
        # ratio may drift from the trace quotient by the induced amount
        # (none where H_1 vanishes, which fails the floor before)
        drift = noise_amp and low and 2.0 * noise_amp * (
            float(np.max(np.abs(ms.functionals[j].values))) + float(np.max(np.abs(v.values))) * top
        ) / low
        allowance = 1e-8 * scale + drift
        finite = "" if np.isfinite(allowance) else ", which is not finite"
        yield Check(
            f"boundary_{j}", "boundary", err, allowance, False, InternalConsistencyError,
            f"ratio {j} disagrees with its boundary quotient by {{reading:.3e}} "
            f"(allowance {{limit:.3e}}{finite})",
        )


def _slabs(shape: tuple[int, ...]) -> list[slice]:
    """Slices of whole axis-0 planes, at least one plane and otherwise
    at most ``_SLAB_BUDGET[len(shape)]`` vertices each, that cover
    ``shape`` in order: 18 slabs of 15 planes or fewer for 257^2, 4 of 5
    or fewer for 17^3, 33 of one plane for 33^3."""
    plane = int(np.prod(shape[1:]))
    step = max(1, _SLAB_BUDGET[len(shape)] // plane)
    return [slice(lo, min(lo + step, shape[0])) for lo in range(0, shape[0], step)]


def _basis_margin(grads: list[np.ndarray], squares: list[np.ndarray]) -> np.ndarray:
    """The audit's basis margin per vertex: ``|det|`` of the basis
    gradients over the product of their lengths (``squares`` holds their
    squares), zero where that is NaN."""
    if len(grads) == 2:
        g1, g2 = grads
        det = g1[..., 0] * g2[..., 1] - g1[..., 1] * g2[..., 0]
    else:
        g1, g2, g3 = grads
        det = component_sum(g1 * np.cross(g2, g3))
    norms = np.prod([np.sqrt(s) for s in squares], axis=0)
    with np.errstate(all="ignore"):
        basis = np.abs(det) / np.maximum(norms, np.finfo(float).tiny)
    return np.nan_to_num(basis, nan=0.0)


def ratios(ms: MeasurementSet) -> list[ScalarField]:
    """Ratios ``v_j = H_{j+1} / H_1`` of every functional after the
    first, zero where ``H_1`` vanishes."""
    h1 = ms.functionals[0].values
    with np.errstate(divide="ignore", invalid="ignore"):
        return [
            ScalarField(ms.grid, np.where(h1 == 0, 0.0, divide(f.values, h1)))
            for f in ms.functionals[1:]
        ]


def gram(gradients: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gram matrix ``G_ij = grad v_i . grad v_j`` of the first
    ``dim`` ratio gradients' values: its inverse in triangle storage,
    zero where ``|det|`` underflows, ``det`` and that ``singular`` mask.
    It takes the dtype of all of ``gradients``: a real basis beside a
    complex extra ratio gives a complex ``G``."""
    *shape, dim = gradients[0].shape
    vals = np.empty((*shape, sym_size(dim)), dtype=np.result_type(*gradients))
    for k, (i, j) in enumerate(sym_pairs(dim)):
        vals[..., k] = component_sum(gradients[i] * gradients[j])
    det = sym_det(vals, dim)
    singular = ~(np.abs(det) > np.finfo(float).tiny)
    with np.errstate(divide="ignore", invalid="ignore"):
        inverse = sym_inv(vals, dim)
    inverse[singular] = 0.0
    return inverse, det, singular


def null_weights(gradients: list[np.ndarray], inverse: np.ndarray) -> np.ndarray:
    """Per-vertex weights combining ratios into gradient-free residuals.

    ``gradients`` are the ratio gradients' values and ``inverse`` the
    inverse Gram matrix of the first ``dim`` of them, in triangle
    storage, on the same vertices.  Row ``m`` pairs extra ratio
    ``dim + m``, at unit weight, with the gradient basis so that the
    weighted gradient sum cancels identically:
    ``theta[m, j] = -G^{jk} (grad v_{dim+m} . grad v_k)`` for ``j < dim``,
    an ``(extra_count(dim), dim)`` array per vertex.
    """
    *shape, dim = gradients[0].shape
    extras = extra_count(dim)
    theta = np.empty((*shape, extras, dim), dtype=np.result_type(*gradients))
    for m in range(extras):
        rhs = [component_sum(gradients[dim + m] * gradients[k]) for k in range(dim)]
        for j, sol in enumerate(sym_apply(inverse, rhs, dim)):
            theta[..., m, j] = -sol
    return theta


def constraint_matrices(hessians: list[np.ndarray], theta: np.ndarray) -> list[np.ndarray]:
    """Hessian combinations ``M^m = D^2 v_{dim+m} + sum_{j<dim} theta[m, j] D^2 v_j``.

    ``hessians`` are the ratio Hessians' values in triangle storage and
    ``theta`` the :func:`null_weights` on the same vertices.  By
    construction each ``M^m`` annihilates the diffusion direction under
    the trace pairing.
    """
    return _weighted_sums(hessians, theta)


def _weighted_sums(parts: list[np.ndarray], theta: np.ndarray) -> list[np.ndarray]:
    """``parts[dim + m] + sum_{j<dim} theta[m, j] parts[j]`` for each
    extra ratio ``m``, summed from zero in that order: of the Hessians,
    the constraint matrices; of the gradients, what cancels by
    construction."""
    extras, dim = theta.shape[-2:]
    out = []
    for m in range(extras):
        acc = np.zeros(parts[0].shape, dtype=theta.dtype)
        for j in range(dim):
            acc += theta[..., m, j][..., None] * parts[j]
        acc += parts[dim + m]
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
    determinant one, by the principal root of its determinant.

    Returns the direction, the quality, and a boolean mask of
    degenerate vertices, which carry NaN in the direction: quality
    below ``QUALITY_FLOOR``, a vanishing trace or determinant, or a
    determinant whose real part is not positive.  The diffusion is SPD,
    so the last is an indefinite generator, which contradicts the
    model; the root therefore never meets its branch cut.  Each
    vertex's outputs depend on its own matrices alone, and the
    direction has their dtype: real for real matrices.
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
    tiny_det = np.abs(det) < 1e-12 * np.maximum(norm, np.finfo(float).tiny) ** dim
    # an SPD generator has det > 0 (NaN fails too): the root never meets
    # its branch cut on the negative real axis
    degenerate = degenerate | tiny_det | ~(det.real > 0)
    det = np.where(degenerate, 1.0, det)
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


def drift_from_diffusion(
    diffusion: np.ndarray, hessians: list, inverse: np.ndarray, gradients: list
) -> np.ndarray:
    """Vector coefficient matching the diffusion direction ``diffusion``,
    from the first ``dim`` ratios' Hessians, inverse Gram matrix and
    gradients on the same vertices.

    ``beta = - G^{ij} (A : D^2 v_j) grad v_i`` is the unique vector with
    the pairings required by the ratio equations; with the identity
    direction it is ``a^{-1} b + grad ln a + 2 grad ln u_1`` for scalar
    ``a``, ``- G^{ij} (tr D^2 v_j) grad v_i``.
    """
    dim = gradients[0].shape[-1]
    pair = [sym_dot(diffusion, hessians[j], dim) for j in range(dim)]
    weights = sym_apply(inverse, pair, dim)
    out = np.zeros(gradients[0].shape, dtype=np.result_type(*weights, *gradients))
    for i in range(dim):
        out -= weights[i][..., None] * gradients[i]
    return out


def reconstruct(
    ms: MeasurementSet, analysis: RatioSet | None = None
) -> NormalizedCoefficients:
    """Full ratio-based reconstruction from the ratio analysis of ``ms``.

    ``analysis`` is ``analyze(ms, mode, margin)`` when the caller
    already holds it, and ``analyze(ms)`` otherwise; its mode and
    trusted interior are the reconstruction's, and its ``coefficients``
    the output once its rows of the table of checks pass, all but the
    audit's: it raises the first that fails, in the table's order.
    Matrix mode needs ``functional_budget(dim)`` functionals (extras
    beyond that are ignored, so redundant measurements cannot change the
    answer; :func:`analyze` refuses fewer with
    :class:`MeasurementCountError`).  Scalar mode, which is
    ``reconstruct(ms, analyze(ms, "scalar"))``, assumes scalar diffusion,
    needs ``dim + 1`` functionals, and reports the identity direction
    with its matching drift.
    """
    rs = analysis if analysis is not None else analyze(ms)
    for row in rs.checks:
        if row.name not in FLOORS:
            row.require("recon")
    return rs.coefficients
