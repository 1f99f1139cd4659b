"""Dirichlet solver for second-order equations in divergence form.

Discretizes ``div(a grad u) + b . grad u + c u = g`` on a uniform grid
with a flux-form (conservative) stencil:

* pure diffusion terms use face-averaged coefficients,
  ``[a_{i+1/2}(u_{i+1}-u_i) - a_{i-1/2}(u_i-u_{i-1})] / h^2``;
* mixed diffusion terms difference face-averaged cross fluxes, where the
  tangential derivative at a face is the mean of the centered derivatives
  at the two adjacent vertices;
* advection uses centered differences, reaction is pointwise.

The resulting stencil touches at most 9 points in dimension 2 and 19 in
dimension 3, is exact on affine solutions for constant coefficients, and
is second-order accurate for smooth data.  Boundary values are imposed
exactly by elimination.

Variable-coefficient systems are solved by BiCGSTAB, preconditioned by
a DST-I solve of a constant-coefficient operator (:func:`_bicgstab`, a
transcription of SciPy's with inner products that do not depend on the
BLAS thread count), or from one sparse LU factorization; SciPy's LU is
imported only when a factorization runs.  Identity Laplacians are
solved by DST-I alone (:func:`solve_poisson`).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.fft import dstn, idstn

from .errors import AssemblyError, GridError, SolverFailure
from .grids import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    as_stored,
    sym_det,
    sym_pairs,
    sym_to_full,
    via_complex,
)
from . import phantoms

__all__ = [
    "CoefficientSet",
    "BoundaryTrace",
    "SolverSettings",
    "LinearSystem",
    "assemble",
    "solve_traces",
    "solve_dirichlet",
    "solve_poisson",
    "residual",
]

# a is accepted as real when its imaginary part is this small relative
# to its magnitude
_IMAG_TOL = 1e-10

# relative BiCGSTAB tolerance of the "auto" solve
_KRYLOV_TOLERANCE = 3e-14

# Preconditioned BiCGSTAB iterations "auto" allows a column before it
# solves that column and the ones after it from an LU factorization.  To
# that tolerance the pipeline's operators need 4-7 iterations,
# rotated anisotropy 10 and contrast-10 bumps 18-29, rotated anisotropy
# 100 41-51 and contrast-100 bumps 77-89, whatever the mesh.  LU beats
# Krylov only on 2-D contrast 100, by 2-2.5x on 129^2 and 257^2; a
# budget below that count spends about as long before falling back as
# Krylov needs to finish in 2-D, and 5.8x as long in 3-D (25^3).  The
# budget therefore sits above every measured count, and the fallback
# catches columns that stagnate or break down.
_AUTO_KRYLOV_BUDGET = 100

# BiCGSTAB's inner products and norms sum fixed chunks of this many
# entries in order.  This numpy's OpenBLAS splits a dot product over its
# threads above 10 000 entries, so an unchunked product's bits follow
# the thread count; a system of at most this many unknowns keeps the
# unchunked product's bits.
_DOT_CHUNK = 8192

# largest relative residual a solution may carry (see _relative_residuals)
_RESIDUAL_CAP = 1e-10


@dataclass
class CoefficientSet:
    """Coefficients ``(a, b, c)`` of the second-order operator.

    ``a`` must be real symmetric positive definite at every vertex;
    ``b`` and ``c`` may be complex.
    """

    a: SymTensorField
    b: VectorField
    c: ScalarField

    def __post_init__(self):
        grid = self.a.grid
        if not (grid.compatible(self.b.grid) and grid.compatible(self.c.grid)):
            raise GridError("coefficient fields live on different grids")

    @property
    def grid(self) -> Grid:
        return self.a.grid

    def validate_spd(self) -> None:
        """Raise if ``a`` is not real SPD, naming the first bad vertex."""
        vals = self.a.values
        if np.iscomplexobj(vals):
            scale = float(np.max(np.abs(vals))) or 1.0
            imag = np.abs(vals.imag).max(axis=-1)
            bad = np.argwhere(imag > _IMAG_TOL * scale)
            if bad.size:
                point = tuple(int(k) for k in bad[0])
                raise AssemblyError(
                    f"diffusion matrix has imaginary part {imag[point]:.3e} "
                    f"at vertex {point}"
                )
        # Sylvester's criterion on the nested leading minors; eigenvalues
        # only at the vertex reported
        real = vals.real
        dim = self.grid.dim
        a12 = real[..., sym_pairs(dim).index((0, 1))]
        minors = [real[..., 0], real[..., 0] * real[..., 1] - a12 * a12]
        if dim == 3:
            minors.append(sym_det(real, dim))
        bad = np.argwhere(np.logical_or.reduce([m <= 0 for m in minors]))
        if bad.size:
            point = tuple(int(k) for k in bad[0])
            lam_min = np.linalg.eigvalsh(sym_to_full(real[point], dim))[0]
            raise AssemblyError(
                f"diffusion matrix is not positive definite at vertex "
                f"{point}: min eigenvalue {lam_min:.3e}"
            )


@dataclass
class BoundaryTrace:
    """Dirichlet datum, stored as a full-grid sample.

    Only the boundary vertices are ever read; keeping the full sample
    makes traces trivially refinable and serializable.  ``expression``
    records the closed form when one exists.  Values with an identically
    zero imaginary part are stored as ``float64``.
    """

    grid: Grid
    values: np.ndarray
    expression: str | None = None

    def __post_init__(self):
        arr = as_stored(self.values)
        if arr.shape != self.grid.shape:
            raise GridError(
                f"trace values: expected shape {self.grid.shape}, got {arr.shape}"
            )
        self.values = np.ascontiguousarray(arr)

    @classmethod
    def from_expression(cls, grid: Grid, src: str) -> "BoundaryTrace":
        fld = phantoms.materialize_scalar(src, grid)
        return cls(grid=grid, values=fld.values, expression=src)


@dataclass
class SolverSettings:
    """Linear-solver policy for variable-coefficient operators.

    ``method`` is ``"direct"`` (one sparse LU factorization) or
    ``"auto"`` (BiCGSTAB preconditioned by a fast sine-transform solve,
    per column, to ``_KRYLOV_TOLERANCE`` within ``_AUTO_KRYLOV_BUDGET``
    iterations; from the first column that misses it on, the columns
    are solved from one LU factorization).
    """

    method: str = "auto"

    def __post_init__(self):
        if self.method not in ("auto", "direct"):
            raise GridError(f"unknown solver method {self.method!r}")


@dataclass
class LinearSystem:
    """Assembled interior system ``matrix @ u_int = rhs``.

    ``rhs`` has one column per trace; the traces share the operator.
    """

    grid: Grid
    matrix: sp.csr_matrix
    rhs: np.ndarray
    interior_flat: np.ndarray  # flat grid indices of the unknowns


def _core_slice(shape, offset):
    return tuple(
        slice(1 + o, s - 1 + o) for s, o in zip(shape, offset)
    )


def _boundary_slabs(box, offset):
    """Disjoint slabs of the unknown box that together hold the rows
    whose neighbour at ``offset`` is a boundary vertex.

    Each nonzero component points out of one face of the box, and the
    rows on that face form one slab; a later slab leaves out the faces
    already taken, so a diagonal offset yields each row once.
    """
    ranges = [slice(0, m) for m in box]
    for p, o in enumerate(offset):
        if o == 0:
            continue
        face = 0 if o < 0 else box[p] - 1
        yield tuple(ranges[:p] + [slice(face, face + 1)] + ranges[p + 1 :])
        ranges[p] = slice(1, box[p]) if o < 0 else slice(0, box[p] - 1)


def _stencil(coeffs: CoefficientSet) -> dict[tuple[int, ...], np.ndarray]:
    """Stencil weights per offset over the unknown block, real unless a
    coefficient is complex, in the order the offsets are first added."""
    grid = coeffs.grid
    shape = grid.shape
    dim = grid.dim
    h = grid.spacing
    core = _core_slice(shape, (0,) * dim)
    stencil: dict[tuple[int, ...], np.ndarray] = {}

    def add(offset, weights):
        key = tuple(offset)
        if key in stencil:
            stencil[key] = stencil[key] + weights
        else:
            stencil[key] = np.array(weights)

    zero = (0,) * dim
    add(zero, coeffs.c.values[core])

    for p in range(dim):
        e_p = [0] * dim
        e_p[p] = 1
        app = coeffs.a.entry(p, p).real
        app_c = app[core]
        app_plus = 0.5 * (app_c + app[_core_slice(shape, e_p)])
        app_minus = 0.5 * (app_c + app[_core_slice(shape, [-o for o in e_p])])
        add(e_p, app_plus / h[p] ** 2)
        add([-o for o in e_p], app_minus / h[p] ** 2)
        add(zero, -(app_plus + app_minus) / h[p] ** 2)

        bp = coeffs.b.values[core + (p,)]
        add(e_p, bp * (1.0 / (2.0 * h[p])))
        add([-o for o in e_p], -bp * (1.0 / (2.0 * h[p])))

        for q in range(dim):
            if q == p:
                continue
            apq = coeffs.a.entry(p, q).real
            a_plus = 0.5 * (apq[core] + apq[_core_slice(shape, e_p)])
            a_minus = 0.5 * (apq[core] + apq[_core_slice(shape, [-o for o in e_p])])
            w = 1.0 / (4.0 * h[p] * h[q])
            e_q = [0] * dim
            e_q[q] = 1
            add(e_q, (a_plus - a_minus) * w)
            add([-o for o in e_q], -(a_plus - a_minus) * w)
            pq = [ep + eq for ep, eq in zip(e_p, e_q)]
            add(pq, a_plus * w)
            add([ep - eq for ep, eq in zip(e_p, e_q)], -a_plus * w)
            add([eq - ep for ep, eq in zip(e_p, e_q)], -a_minus * w)
            add([-o for o in pq], a_minus * w)
    return stencil


def assemble(
    coeffs: CoefficientSet,
    traces: list[BoundaryTrace],
    source: ScalarField | None = None,
) -> LinearSystem:
    """Build one interior matrix and one right-hand-side column per trace."""
    grid = coeffs.grid
    if not all(grid.compatible(tr.grid) for tr in traces):
        raise GridError("trace grid does not match coefficient grid")
    if source is not None and not grid.compatible(source.grid):
        raise GridError("source grid does not match coefficient grid")
    coeffs.validate_spd()
    stencil = _stencil(coeffs)

    shape = grid.shape
    dim = grid.dim
    core = _core_slice(shape, (0,) * dim)
    # the unknowns are the core vertices in C order; their flat grid
    # indices add up per axis
    box = tuple(s - 2 for s in shape)
    n_unknown = int(np.prod(box))
    interior_flat = functools.reduce(
        np.add.outer,
        [np.arange(1, s - 1) * int(np.prod(shape[p + 1 :])) for p, s in enumerate(shape)],
    ).ravel()

    weight_dtype = np.result_type(*stencil.values())
    rhs = np.zeros(
        (n_unknown, len(traces)),
        dtype=np.result_type(weight_dtype, *(tr.values for tr in traces)),
    )
    if source is not None:
        rhs = rhs + source.values[core].reshape(-1, 1)

    # Each offset gives every row one matrix entry, whose column is the
    # row plus the offset's stride in the unknown box.  In lexicographic
    # offset order a row's columns ascend, so the entries kept, row by
    # row, are the CSR arrays.  Rows whose neighbour is a boundary
    # vertex drop the entry and subtract the boundary term from the
    # right-hand side instead, in the order the offsets were added.
    offsets = sorted(stencil)
    column = {offset: k for k, offset in enumerate(offsets)}
    strides = [int(np.prod(box[p + 1 :])) for p in range(dim)]
    shift = np.array(
        [sum(o * st for o, st in zip(offset, strides)) for offset in offsets],
        dtype=np.int32,
    )
    weights = np.empty((n_unknown, len(offsets)), dtype=weight_dtype)
    keep = np.empty((n_unknown, len(offsets)), dtype=bool)
    # entries kept per row, summed column by column: twice as fast as a reduction
    counts = np.zeros(n_unknown, dtype=np.intp)
    rhs_box = rhs.reshape(box + (len(traces),))
    keep_box = keep.reshape(box + (len(offsets),))
    for offset in list(stencil):
        w = stencil.pop(offset)
        k = column[offset]
        weights[:, k] = w.ravel()
        # with a scalar a the mixed-term weights are exactly zero
        keep[:, k] = w.ravel() != 0
        for rows in _boundary_slabs(box, offset):
            nbrs = tuple(
                slice(r.start + 1 + o, r.stop + 1 + o) for r, o in zip(rows, offset)
            )
            keep_box[rows + (k,)] = False
            rhs_box[rows] -= w[rows][..., None] * np.stack(
                [tr.values[nbrs] for tr in traces], axis=-1
            )
        counts += keep[:, k]

    indptr = np.zeros(n_unknown + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    data = weights[keep]
    del weights
    indices = np.broadcast_to(shift, keep.shape)[keep]
    del keep
    indices += np.repeat(np.arange(n_unknown, dtype=np.int32), counts)
    matrix = sp.csr_matrix((data, indices, indptr), shape=(n_unknown, n_unknown))
    return LinearSystem(grid=grid, matrix=matrix, rhs=rhs, interior_flat=interior_flat)


def _relative_residuals(defect, x, rhs, a_inf: float):
    """Max-norm defect per column, scaled by ``|A| |x| + |rhs|``."""
    scale = a_inf * np.abs(x).max(axis=0) + np.abs(rhs).max(axis=0)
    return np.abs(defect).max(axis=0) / (scale + np.finfo(float).tiny)


def _row_sum_max(matrix: sp.csr_matrix) -> float:
    """Largest absolute row sum of ``matrix``, which holds no duplicate
    entries, as ``np.abs(matrix).sum(axis=1).max()`` reduces it (one
    ``np.add.reduceat`` over the nonempty rows, 0 for the empty ones)
    without copying the index arrays."""
    rows = np.flatnonzero(np.diff(matrix.indptr))
    sums = np.zeros(matrix.shape[0])
    sums[rows] = np.add.reduceat(np.abs(matrix.data), matrix.indptr[rows])
    return float(sums.max())


def _require_within_cap(rel: np.ndarray) -> None:
    # written so that a NaN residual fails too
    bad = np.flatnonzero(~(rel <= _RESIDUAL_CAP))
    if bad.size:
        raise SolverFailure(
            f"solution residual {rel[bad[0]]:.3e} (trace {bad[0]}) "
            f"exceeds cap {_RESIDUAL_CAP:.1e}"
        )


def _dst_eigenvalues(shape, spacing, scales) -> np.ndarray:
    """Eigenvalues of ``sum_p scales[p] d^2/dx_p^2`` on an interior block.

    The operator is the 3-point second difference along each axis with
    zero Dirichlet data, which DST-I diagonalizes: along an axis with
    ``N`` unknowns and spacing ``h`` its eigenvalues are
    ``-(4 / h^2) sin^2(pi k / (2 (N + 1)))``, ``k = 1 .. N`` (Buzbee,
    Golub & Nielson, SIAM J. Numer. Anal. 7, 1970).
    """
    dim = len(shape)
    eig = np.zeros(shape)
    for p, (n, h) in enumerate(zip(shape, spacing)):
        k = np.arange(1, n + 1)
        lam = -(4.0 / h**2) * np.sin(np.pi * k / (2.0 * (n + 1))) ** 2
        eig = eig + scales[p] * lam.reshape([n if ax == p else 1 for ax in range(dim)])
    return eig


def _dst_solver(eig: np.ndarray):
    """The DST-I solve ``rhs -> idstn(dstn(rhs) / eig)``.

    A real ``eig`` multiplies by its reciprocal, formed once: the bits of
    numpy's complex division (:func:`hiplab.grids.divide`), and real
    arithmetic for real data.
    """
    if np.iscomplexobj(eig):
        return lambda rhs: idstn(dstn(rhs, type=1) / eig, type=1)
    inv_eig = 1.0 / eig
    return lambda rhs: idstn(dstn(rhs, type=1) * inv_eig, type=1)


def _mean_operator_eigenvalues(coeffs: CoefficientSet) -> np.ndarray:
    """Eigenvalues of ``sum_p mean(a_pp) d^2/dx_p^2 + mean(c)`` under DST-I.

    The means run over the unknowns.  This constant-coefficient operator
    preconditions the variable one (Concus & Golub, SIAM J. Numer. Anal.
    10, 1973); for ``a = I, b = 0, c = 0`` it is the assembled matrix.
    ``mean(c)`` is taken in complex arithmetic over the strided core, as
    numpy's pairwise sum rounds differently for real data and for other
    layouts.
    """
    grid = coeffs.grid
    core = _core_slice(grid.shape, (0,) * grid.dim)
    scales = [float(np.mean(coeffs.a.entry(p, p).real[core])) for p in range(grid.dim)]
    return _dst_eigenvalues(
        tuple(s - 2 for s in grid.shape), grid.spacing, scales
    ) + via_complex(lambda c: np.mean(c[core]), coeffs.c.values)


def _krylov_operators(system: LinearSystem, eig: np.ndarray):
    """The operator and its DST-I preconditioner for BiCGSTAB.

    BiCGSTAB's vectors are complex128 (see :func:`_solve_system`).  When
    the matrix, the right-hand sides and ``eig`` are real, both act on
    the real parts of those vectors in real arithmetic; either way the
    result is cast back to complex128, so BiCGSTAB keeps its complex
    scalars and ``zdotc`` inner products, and every bit of the complex
    path.
    """
    matrix = system.matrix
    solve = _dst_solver(eig)
    real = not any(np.iscomplexobj(x) for x in (matrix.data, system.rhs, eig))
    part = np.real if real else np.asarray

    def complex_operator(apply):
        return lambda v: np.asarray(apply(part(v)), dtype=np.complex128)

    return (
        complex_operator(lambda v: matrix @ v),
        complex_operator(lambda v: solve(v.reshape(eig.shape)).ravel()),
    )


def _chunked(product, x: np.ndarray, y: np.ndarray):
    """``product(x, y)`` summed over consecutive ``_DOT_CHUNK`` entries,
    in order; one chunk is one call."""
    total = product(x[:_DOT_CHUNK], y[:_DOT_CHUNK])
    for k in range(_DOT_CHUNK, x.size, _DOT_CHUNK):
        total = total + product(x[k : k + _DOT_CHUNK], y[k : k + _DOT_CHUNK])
    return total


def _vdot(x: np.ndarray, y: np.ndarray):
    return _chunked(np.vdot, x, y)


def _norm(x: np.ndarray):
    """The 2-norm of a complex vector as ``np.linalg.norm`` forms it: the
    squares of the real parts, then those of the imaginary parts."""
    return np.sqrt(_chunked(np.dot, x.real, x.real) + _chunked(np.dot, x.imag, x.imag))


def _bicgstab(matvec, psolve, b: np.ndarray, rtol: float, maxiter: int):
    """Solve ``A x = b`` by right-preconditioned BiCGSTAB from a zero
    guess (van der Vorst, SIAM J. Sci. Stat. Comput. 13, 1992).

    A transcription of ``scipy.sparse.linalg.bicgstab`` (SciPy 1.17.1)
    with ``x0=None`` and ``atol=0``: the same steps in the same order,
    the same stopping tests and the same ``info``: 0 on convergence to
    ``rtol * |b|``, ``maxiter`` when the budget runs out, -10 on a
    ``rho`` and -11 on an ``omega`` breakdown.  ``b`` is complex128 and
    ``matvec`` (``A``) and ``psolve`` (the preconditioner) map complex128
    vectors to new complex128 vectors.  Inner products and norms are
    chunked (``_DOT_CHUNK``), so up to that many unknowns the iterates
    carry SciPy's bits, and beyond it bits that do not depend on the
    BLAS thread count.
    """
    bnrm2 = _norm(b)
    atol = rtol * float(bnrm2)
    if bnrm2 == 0:
        return b, 0
    # SciPy's breakdown thresholds, from the original Fortran code
    rhotol = omegatol = np.finfo(np.float64).eps ** 2
    x = np.zeros_like(b)
    r = b.copy()
    rtilde = r.copy()
    for iteration in range(maxiter):
        if _norm(r) < atol:
            return x, 0
        rho = _vdot(rtilde, r)
        if np.abs(rho) < rhotol:
            return x, -10
        if iteration > 0:
            if np.abs(omega) < omegatol:
                return x, -11
            beta = (rho / rho_prev) * (alpha / omega)
            p -= omega * v
            p *= beta
            p += r
        else:
            p = r.copy()
        phat = psolve(p)
        v = matvec(phat)
        rv = _vdot(rtilde, v)
        if rv == 0:
            return x, -11
        alpha = rho / rv
        r -= alpha * v
        # SciPy's s is a copy of r, read before r next changes
        if _norm(r) < atol:
            x += alpha * phat
            return x, 0
        shat = psolve(r)
        t = matvec(shat)
        omega = _vdot(t, r) / _vdot(t, t)
        x += alpha * phat
        x += omega * shat
        r -= omega * t
        rho_prev = rho
    return x, maxiter


def _lu_solve(matrix: sp.csr_matrix, rhs: np.ndarray) -> np.ndarray:
    """Solve from one sparse LU factorization of a complex128 copy of
    ``matrix``, so a real system gets the complex factorization's bits;
    the solution is real when ``matrix`` and ``rhs`` are.  SciPy's sparse
    LU is imported here, where it runs."""
    from scipy.sparse.linalg import splu

    try:
        lu = splu(matrix.tocsc().astype(np.complex128))
    except RuntimeError as exc:
        raise SolverFailure(
            f"direct factorization failed: {exc} (n={matrix.shape[0]})"
        ) from exc
    x = lu.solve(np.asarray(rhs, dtype=np.complex128))
    return x if np.iscomplexobj(matrix.data) or np.iscomplexobj(rhs) else x.real.copy()


def _solve_system(
    system: LinearSystem, coeffs: CoefficientSet, settings: SolverSettings
) -> np.ndarray:
    """Solve every right-hand-side column against one operator.

    The solution has the dtype of the matrix and right-hand sides
    combined; BiCGSTAB runs on complex128 copies of the columns.
    """
    matrix, rhs = system.matrix, system.rhs
    if not (np.isfinite(rhs).all() and np.isfinite(matrix.data).all()):
        raise SolverFailure("linear system has a non-finite entry")
    if settings.method == "direct":
        return _lu_solve(matrix, rhs)
    matvec, psolve = _krylov_operators(system, _mean_operator_eigenvalues(coeffs))
    x = np.empty(rhs.shape, dtype=np.result_type(matrix.dtype, rhs.dtype))
    for j in range(rhs.shape[1]):
        column, info = _bicgstab(
            matvec,
            psolve,
            rhs[:, j].astype(np.complex128),
            _KRYLOV_TOLERANCE,
            _AUTO_KRYLOV_BUDGET,
        )
        if info == 0:
            x[:, j] = column if np.iscomplexobj(x) else column.real
            continue
        # the remaining columns share the operator, so they share the factorization
        x[:, j:] = _lu_solve(matrix, rhs[:, j:])
        break
    return x


def solve_traces(
    coeffs: CoefficientSet,
    traces: list[BoundaryTrace],
    source: ScalarField | None = None,
    settings: SolverSettings | None = None,
) -> list[ScalarField]:
    """Solve the Dirichlet problem once per trace against one operator.

    The matrix is assembled once and, where LU is used, factored once
    for all traces; the factorization lives only for this call.  Each
    solution's relative residual is verified against ``_RESIDUAL_CAP``.
    """
    system = assemble(coeffs, traces, source)
    x = _solve_system(system, coeffs, settings or SolverSettings())
    rel = _relative_residuals(
        system.matrix @ x - system.rhs, x, system.rhs, _row_sum_max(system.matrix)
    )
    _require_within_cap(rel)
    grid = coeffs.grid
    out = []
    for j, trace in enumerate(traces):
        u = trace.values.astype(np.result_type(trace.values, x)).ravel()
        u[system.interior_flat] = x[:, j]
        out.append(ScalarField(grid, u.reshape(grid.shape)))
    return out


def solve_dirichlet(
    coeffs: CoefficientSet,
    trace: BoundaryTrace,
    source: ScalarField | None = None,
    settings: SolverSettings | None = None,
) -> ScalarField:
    """Solve the Dirichlet problem and return the full-grid solution.

    Boundary vertices carry the trace exactly.  The relative residual of
    the interior system is verified against ``_RESIDUAL_CAP``.
    """
    return solve_traces(coeffs, [trace], source, settings)[0]


def _laplacian_core(u: np.ndarray, spacing) -> np.ndarray:
    """The (2 dim + 1)-point Laplacian of ``u`` at the interior vertices."""
    dim = u.ndim
    core = _core_slice(u.shape, (0,) * dim)
    out = np.zeros(tuple(s - 2 for s in u.shape), dtype=u.dtype)
    for p, h in enumerate(spacing):
        e_p = [0] * dim
        e_p[p] = 1
        plus = u[_core_slice(u.shape, e_p)]
        minus = u[_core_slice(u.shape, [-o for o in e_p])]
        out += (plus - 2.0 * u[core] + minus) * (1.0 / h**2)
    return out


def solve_poisson(trace: BoundaryTrace, source: ScalarField) -> ScalarField:
    """Solve ``lap u = source`` with Dirichlet data by a type-I sine transform.

    This is the discrete problem :func:`solve_dirichlet` poses for
    ``a = I, b = 0, c = 0``, where the flux stencil reduces to the
    (2 dim + 1)-point Laplacian, which DST-I diagonalizes on the
    interior (see :func:`_dst_eigenvalues`).  The residual is checked
    matrix-free against ``_RESIDUAL_CAP``.
    """
    grid = trace.grid
    if not grid.compatible(source.grid):
        raise GridError("source grid does not match trace grid")
    dim = grid.dim
    core = _core_slice(grid.shape, (0,) * dim)
    boundary_only = trace.values.copy()
    boundary_only[core] = 0.0
    rhs = source.values[core] - _laplacian_core(boundary_only, grid.spacing)

    x = _dst_solver(_dst_eigenvalues(rhs.shape, grid.spacing, (1.0,) * dim))(rhs)

    u = trace.values.astype(x.dtype)
    u[core] = x
    defect = _laplacian_core(u, grid.spacing) - source.values[core]
    a_inf = sum(4.0 / h**2 for h in grid.spacing)
    rel = _relative_residuals(
        defect.reshape(-1, 1), x.reshape(-1, 1), rhs.reshape(-1, 1), a_inf
    )
    _require_within_cap(rel)
    return ScalarField(grid, u)


def residual(
    coeffs: CoefficientSet,
    u: ScalarField,
    trace: BoundaryTrace,
    source: ScalarField | None = None,
) -> float:
    """Relative defect of ``u`` in the discrete equations.

    Combines the scaled interior equation residual with the boundary
    mismatch; an exact discrete solution scores at rounding level.
    """
    system = assemble(coeffs, [trace], source)
    x = u.values.ravel()[system.interior_flat]
    rhs = system.rhs[:, 0]
    rel = float(
        _relative_residuals(system.matrix @ x - rhs, x, rhs, _row_sum_max(system.matrix))
    )
    bmask = coeffs.grid.boundary_mask()
    f_scale = float(np.max(np.abs(trace.values[bmask]))) + np.finfo(float).tiny
    mismatch = float(np.max(np.abs(u.values[bmask] - trace.values[bmask])))
    return rel + mismatch / f_scale
