"""Tensor-product grids, field containers, and discrete calculus.

Conventions used throughout the package:

* Grids are vertex-centered tensor products of uniformly spaced 1-D axes
  over a rectangular box, in dimension 2 or 3.  Point ``(i0, i1, ...)``
  sits at ``lo_k + i_k * h_k``; arrays are C-ordered with the last axis
  fastest, so ``values[i0, i1]`` addresses the point directly.
* Scalar fields store ``float64`` values of shape ``grid.shape`` when
  real and ``complex128`` values otherwise.  Vector fields append a
  component axis of length ``dim``.  Symmetric matrix fields store the
  upper triangle in the fixed component order

      dim 2:  (00, 11, 01)
      dim 3:  (00, 11, 22, 12, 02, 01)

  so a symmetric matrix costs ``dim*(dim+1)/2`` scalars per point.
  Each field class states its kind's layout (its name in field files,
  its component count and Frobenius weights), and every reader of
  fields, the field files and the error norms included, takes it from
  there.
* Derivatives use the in-house stencils of :func:`_diff`.  First ones are
  centered differences with second-order one-sided closures at the
  boundary, the stencils of ``numpy.gradient`` with ``edge_order=2`` and
  its bits on complex data.  Pure second derivatives use the 3-point
  interior stencil and a 4-point one-sided closure; both are exact on
  quadratics.  The closures' weights live in :func:`first_closure` and
  :func:`second_closure`, which also serve callers that need a
  derivative at a few face points only.  Mixed second derivatives
  compose two first-derivative passes, which commute exactly, so
  discrete Hessians are symmetric by construction.
* Real storage: a field's dtype is decided where its values enter the
  program (phantom materialization, boundary traces, noise and
  :func:`read_field`), which keep ``float64`` when the imaginary part is
  identically zero (:func:`as_stored`); numpy's type promotion carries
  it from there, so arithmetic is complex only where the data are.
  Real arithmetic returns the bits of the complex arithmetic's real
  part: numpy divides by a complex number with Smith's algorithm, whose
  result for a zero imaginary part is ``x * (1/y)``, so every quotient
  by a real divisor is that product (:func:`divide`); where a real
  ufunc or product rounds differently from its complex counterpart, as
  ``exp``, ``log``, non-integer powers, ``mean`` and ``eigvalsh`` do,
  that one call is evaluated in complex and its real part kept
  (:func:`via_complex`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .errors import GridError, InputFileError

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "sym_pairs",
    "sym_size",
    "sym_weights",
    "sym_to_full",
    "full_to_sym",
    "sym_identity",
    "sym_apply",
    "sym_matvec",
    "sym_trace",
    "sym_det",
    "sym_inv",
    "sym_dot",
    "component_sum",
    "principal_root",
    "as_stored",
    "divide",
    "via_complex",
    "first_closure",
    "second_closure",
    "first_derivatives",
    "second_derivatives",
    "gradient",
    "hessian",
    "divergence",
    "tensor_divergence",
    "jacobian",
    "consistent_rings",
    "dump_json",
    "write_json",
    "read_json",
    "require_json",
    "write_field",
    "read_field",
]

# upper-triangle component order per dimension
_SYM_PAIRS = {
    2: ((0, 0), (1, 1), (0, 1)),
    3: ((0, 0), (1, 1), (2, 2), (1, 2), (0, 2), (0, 1)),
}


def sym_pairs(dim: int) -> tuple[tuple[int, int], ...]:
    """Index pairs ``(i, j)`` stored for a symmetric matrix in ``dim`` d."""
    try:
        return _SYM_PAIRS[dim]
    except KeyError:
        raise GridError(f"unsupported dimension {dim}; expected 2 or 3")


def sym_size(dim: int) -> int:
    """Number of stored components of a symmetric ``dim x dim`` matrix."""
    return dim * (dim + 1) // 2


def sym_weights(dim: int) -> np.ndarray:
    """Weights of the stored components under the trace pairing: 1 on
    the diagonal, 2 on each off-diagonal entry, which stands for two."""
    w = np.ones(sym_size(dim))
    w[dim:] = 2.0
    return w


def _sym_index(dim: int) -> list[list[int]]:
    """Storage index of entry ``(i, j)`` as ``table[i][j]``."""
    table = [[0] * dim for _ in range(dim)]
    for k, (i, j) in enumerate(sym_pairs(dim)):
        table[i][j] = table[j][i] = k
    return table


def component_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the last axis, whose length is at least 2, in index order.

    Equal bit for bit to ``np.sum(x, axis=-1)`` for 2 and 3 components,
    real or complex, and for 6 real ones; numpy sums 6 complex ones
    pairwise, which differs at ulp level.  It runs several times faster
    than numpy's reduction over such a short axis.
    """
    acc = x[..., 0] + x[..., 1]
    for k in range(2, x.shape[-1]):
        acc += x[..., k]
    return acc


def divide(x, y):
    """``x / y`` with the bits of numpy's complex division.

    numpy divides by a complex ``y`` with Smith's algorithm, whose
    result for a zero imaginary part is ``x * (1/y)``; a real ``y``
    therefore multiplies by its reciprocal.
    """
    return x / y if np.iscomplexobj(y) else x * (1.0 / y)


def via_complex(fn, x):
    """``fn(x)`` with the bits numpy gives ``fn`` on complex input.

    Real ``x`` is evaluated as ``complex128`` and the real part returned,
    so ``fn`` must map real input to real output.
    """
    if np.iscomplexobj(x):
        return fn(x)
    return fn(np.asarray(x, dtype=np.complex128)).real


def principal_root(z: np.ndarray, k: int) -> np.ndarray:
    """Principal ``k``-th root of ``z``, branch cut on the negative real
    axis, with the bits of the complex evaluation.

    Real ``z`` has a real root where it is nonnegative; a negative value
    makes the result complex, taken on the upper side of the cut.  Square
    roots serve ``k`` of 2 and 4, in real arithmetic for real input; they
    run several times faster than the complex power used for other ``k``.
    """
    if not np.iscomplexobj(z) and np.any(z < 0):
        z = z.astype(np.complex128)
    if k == 2:
        return np.sqrt(z)
    if k == 4:
        return np.sqrt(np.sqrt(z))
    return via_complex(lambda w: np.power(w, 1.0 / k), z)


@dataclass(frozen=True)
class Grid:
    """Uniform vertex-centered grid on a rectangular box.

    Parameters
    ----------
    bounds : tuple of (lo, hi) pairs, one per axis.
    shape : number of vertices per axis, at least 5 each.
    """

    bounds: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]

    def __post_init__(self):
        try:
            bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        except (TypeError, ValueError):
            raise GridError(f"grid bounds {self.bounds!r} are not pairs of numbers") from None
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)
        if len(bounds) not in (2, 3):
            raise GridError(f"grid bounds describe {len(bounds)} axes, not 2 or 3")
        if len(shape) != len(bounds):
            raise GridError(
                f"grid bounds describe {len(bounds)} axes but shape has {len(shape)}"
            )
        for ax, ((lo, hi), s) in enumerate(zip(bounds, shape)):
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
                raise GridError(f"grid axis {ax} has degenerate interval [{lo}, {hi}]")
            if s < 5:
                raise GridError(f"grid axis {ax} needs at least 5 points, got {s}")

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(
            (hi - lo) / (s - 1) for (lo, hi), s in zip(self.bounds, self.shape)
        )

    @property
    def num_points(self) -> int:
        return int(np.prod(self.shape))

    def axes(self) -> tuple[np.ndarray, ...]:
        """1-D coordinate arrays, one per axis."""
        return tuple(
            np.linspace(lo, hi, s) for (lo, hi), s in zip(self.bounds, self.shape)
        )

    def meshgrid(self) -> tuple[np.ndarray, ...]:
        """Full coordinate arrays of shape ``self.shape`` (ij indexing)."""
        return tuple(np.meshgrid(*self.axes(), indexing="ij"))

    def boundary_mask(self) -> np.ndarray:
        """Boolean array, True at points lying on any face of the box."""
        mask = np.zeros(self.shape, dtype=bool)
        for ax in range(self.dim):
            sl = [slice(None)] * self.dim
            sl[ax] = 0
            mask[tuple(sl)] = True
            sl[ax] = -1
            mask[tuple(sl)] = True
        return mask

    def interior(self, margin: int = 2) -> np.ndarray:
        """Boolean array, True at points ``margin`` or more steps from every face."""
        if margin < 1:
            raise GridError(f"interior margin must be >= 1, got {margin}")
        if any(2 * margin >= s for s in self.shape):
            raise GridError(
                f"margin {margin} leaves no interior on shape {self.shape}"
            )
        mask = np.zeros(self.shape, dtype=bool)
        mask[tuple(slice(margin, s - margin) for s in self.shape)] = True
        return mask

    def compatible(self, other: "Grid") -> bool:
        return self.bounds == other.bounds and self.shape == other.shape


def _storage_dtype(values) -> type:
    """``complex128`` for complex ``values``, ``float64`` otherwise."""
    return np.complex128 if np.iscomplexobj(values) else np.float64


def as_stored(values) -> np.ndarray:
    """``values`` as a source of field values stores them: ``float64``
    when the imaginary part is identically zero, else ``complex128``."""
    arr = np.asarray(values)
    if np.iscomplexobj(arr) and not arr.imag.any():
        arr = arr.real
    return arr.astype(_storage_dtype(arr), copy=False)


@dataclass
class _Field:
    """Samples on a grid, ``float64`` when real, else ``complex128``; a
    field class states its ``kind`` in files, its ``noun`` in errors,
    and the :meth:`count` and Frobenius :meth:`weights` of its components
    in ``dim`` dimensions, which a trailing axis holds."""

    grid: Grid
    values: np.ndarray

    kind: ClassVar[str]
    noun: ClassVar[str]

    def __post_init__(self):
        arr = np.asarray(self.values)
        arr = arr.astype(_storage_dtype(arr), copy=False)
        want = self.value_shape(self.grid)
        if arr.shape != want:
            raise GridError(f"{self.noun}: expected shape {want}, got {arr.shape}")
        self.values = np.ascontiguousarray(arr)

    @classmethod
    def value_shape(cls, grid: Grid) -> tuple[int, ...]:
        return grid.shape + (cls.count(grid.dim),)

    @classmethod
    def weights(cls, dim: int) -> np.ndarray:
        return np.ones(cls.count(dim))

    def copy(self):
        return type(self)(self.grid, self.values.copy())

    def components(self) -> list[np.ndarray]:
        """The component arrays in storage order, views of ``values``."""
        stacked = self.values.reshape(self.grid.shape + (-1,))
        return [stacked[..., k] for k in range(stacked.shape[-1])]

    def magnitude(self) -> np.ndarray:
        """Pointwise Frobenius norm, its terms summed in storage order."""
        terms = zip(self.weights(self.grid.dim), self.components())
        return np.sqrt(sum(w * np.abs(c) ** 2 for w, c in terms))


class ScalarField(_Field):
    """Scalar samples: one component, without an axis of its own."""

    kind, noun = "scalar", "scalar field"
    count = staticmethod(lambda dim: 1)

    @classmethod
    def value_shape(cls, grid: Grid) -> tuple[int, ...]:
        return grid.shape

    @classmethod
    def constant(cls, grid: Grid, value: complex) -> "ScalarField":
        return cls(grid, np.full(grid.shape, value, dtype=_storage_dtype(value)))


class VectorField(_Field):
    """Vector samples, one component per axis."""

    kind, noun = "vector", "vector field"
    count = staticmethod(lambda dim: dim)

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros(cls.value_shape(grid)))


class SymTensorField(_Field):
    """Symmetric-matrix samples in upper-triangle storage; an off-diagonal
    entry weighs 2 in the Frobenius norm, as it stands for two."""

    kind, noun = "symtensor", "symmetric field"
    count = staticmethod(sym_size)
    weights = staticmethod(sym_weights)

    @classmethod
    def identity(cls, grid: Grid) -> "SymTensorField":
        vals = np.zeros(cls.value_shape(grid))
        vals[..., : grid.dim] = 1.0
        return cls(grid, vals)

    def entry(self, i: int, j: int) -> np.ndarray:
        pairs = sym_pairs(self.grid.dim)
        key = (min(i, j), max(i, j))
        return self.values[..., pairs.index(key)]

    def full(self) -> np.ndarray:
        return sym_to_full(self.values, self.grid.dim)


def sym_to_full(values: np.ndarray, dim: int) -> np.ndarray:
    """Expand ``(..., m)`` upper-triangle storage to ``(..., dim, dim)``."""
    pairs = sym_pairs(dim)
    out = np.zeros(values.shape[:-1] + (dim, dim), dtype=values.dtype)
    for k, (i, j) in enumerate(pairs):
        out[..., i, j] = values[..., k]
        out[..., j, i] = values[..., k]
    return out


def full_to_sym(mat: np.ndarray, dim: int) -> np.ndarray:
    """Compress ``(..., dim, dim)`` symmetric matrices to triangle storage.

    The strict lower triangle is ignored; no symmetry check is performed.
    """
    pairs = sym_pairs(dim)
    out = np.zeros(mat.shape[:-2] + (len(pairs),), dtype=mat.dtype)
    for k, (i, j) in enumerate(pairs):
        out[..., k] = mat[..., i, j]
    return out


def sym_identity(dim: int) -> np.ndarray:
    vals = np.zeros(sym_size(dim))
    vals[:dim] = 1.0
    return vals


def sym_apply(sym: np.ndarray, parts: list[np.ndarray], dim: int) -> list[np.ndarray]:
    """Pointwise ``A v`` with ``v`` and the result as lists of components.

    Each entry is read from triangle storage and the products are summed
    in index order: ``(A v)_i = A_i0 v_0 + A_i1 v_1 + ...``.
    """
    index = _sym_index(dim)
    out = []
    for row in index:
        acc = sym[..., row[0]] * parts[0]
        for j in range(1, dim):
            acc += sym[..., row[j]] * parts[j]
        out.append(acc)
    return out


def sym_matvec(sym: np.ndarray, vec: np.ndarray, dim: int) -> np.ndarray:
    """Pointwise matrix-vector product ``A v`` in triangle storage."""
    return np.stack(sym_apply(sym, [vec[..., j] for j in range(dim)], dim), axis=-1)


def sym_trace(sym: np.ndarray, dim: int) -> np.ndarray:
    return component_sum(sym[..., :dim])


def sym_det(sym: np.ndarray, dim: int) -> np.ndarray:
    if dim == 2:
        a, b, c = sym[..., 0], sym[..., 1], sym[..., 2]
        return a * b - c * c
    if dim == 3:
        a, b, c = sym[..., 0], sym[..., 1], sym[..., 2]
        d, e, f = sym[..., 3], sym[..., 4], sym[..., 5]
        return a * (b * c - d * d) - f * (f * c - d * e) + e * (f * d - b * e)
    raise GridError(f"unsupported dimension {dim}")


def sym_inv(sym: np.ndarray, dim: int) -> np.ndarray:
    """Pointwise inverse, staying in triangle storage."""
    det = sym_det(sym, dim)
    if dim == 2:
        a, b, c = sym[..., 0], sym[..., 1], sym[..., 2]
        out = np.empty_like(sym)
        out[..., 0] = divide(b, det)
        out[..., 1] = divide(a, det)
        out[..., 2] = divide(-c, det)
        return out
    a, b, c = sym[..., 0], sym[..., 1], sym[..., 2]
    d, e, f = sym[..., 3], sym[..., 4], sym[..., 5]
    out = np.empty_like(sym)
    out[..., 0] = divide(b * c - d * d, det)
    out[..., 1] = divide(a * c - e * e, det)
    out[..., 2] = divide(a * b - f * f, det)
    out[..., 3] = divide(e * f - a * d, det)
    out[..., 4] = divide(f * d - e * b, det)
    out[..., 5] = divide(e * d - f * c, det)
    return out


def sym_dot(x: np.ndarray, y: np.ndarray, dim: int) -> np.ndarray:
    """Pointwise trace pairing ``tr(X Y)`` of two symmetric matrices."""
    return component_sum(sym_weights(dim) * x * y)


# ---------------------------------------------------------------------------
# discrete calculus


def first_closure(v0, v1, v2, h: float):
    """One-sided first derivative at a face, exact on quadratics.

    ``v0``, ``v1`` and ``v2`` are the values 0, 1 and 2 steps in from
    the face, and ``h`` is the step inward: negative at a far face.  The
    weights are ``(-3/2, 2, -1/2)/h``, and the products are summed from
    the lowest grid index up, so the far face adds ``v2``'s term first.
    """
    w0, w1, w2 = -1.5 / h, 2.0 / h, -0.5 / h
    if h > 0:
        return w0 * v0 + w1 * v1 + w2 * v2
    return w2 * v2 + w1 * v1 + w0 * v0


def second_closure(v0, v1, v2, v3, h: float):
    """One-sided pure second derivative at a face, exact on quadratics:
    the weights ``(2, -5, 4, -1)/h^2`` on the values 0 to 3 steps in
    from the face, summed from the face inward."""
    return (2.0 * v0 - 5.0 * v1 + 4.0 * v2 - v3) * (1.0 / h**2)


def _diff(values: np.ndarray, axis: int, h: float, second=False, window=None) -> np.ndarray:
    """First derivative along one axis, or with ``second`` the pure second
    one, exact on quadratics.

    Interior uses the centered stencil, or the 3-point one; each face
    uses :func:`first_closure`, or :func:`second_closure`.  Every
    quotient is a product with a reciprocal, so real input returns the
    real part of the complex result bit for bit (see the module
    docstring).  A ``window`` ``(lo, hi, at, n)`` gives the points
    ``lo:hi`` of an axis of ``n`` only, from ``values`` holding those
    from ``at`` on that it reads.
    """
    # swapping axes is its own inverse, and cheaper than moving one
    v = values.swapaxes(0, axis)
    lo, hi, at, n = window or (0, len(v), 0, len(v))
    out = np.empty_like(v[lo - at : hi - at])
    a, b = max(lo, 1), min(hi, n - 1)
    below, mid, above = (v[a + s - at : b + s - at] for s in (-1, 0, 1))
    if second:
        out[a - lo : b - lo] = (below - 2.0 * mid + above) * (1.0 / h**2)
    else:
        out[a - lo : b - lo] = (above - below) * (1.0 / (2.0 * h))
    for face, step in ((0, 1), (n - 1, -1)):
        if lo <= face < hi:
            near = [v[face + k * step - at] for k in range(4 if second else 3)]
            out[face - lo] = second_closure(*near, h) if second else first_closure(*near, step * h)
    return out.swapaxes(0, axis)


def first_derivatives(values: np.ndarray, spacing, window=None) -> list[np.ndarray]:
    """First derivatives of ``values`` along each axis, at ``spacing``.

    The components of :func:`gradient` on an array: any box of a field
    with at least 3 points per axis, which matches the field's own
    derivatives a ring or more from the box's cut faces.  The grid axes
    are the last ones, after any stacking axes, and an axis-0 ``window``
    (:func:`_diff`) applies to the axis-0 derivative.
    """
    dim = len(spacing)
    return [
        _diff(values, ax - dim, h, window=None if ax else window) for ax, h in enumerate(spacing)
    ]


def second_derivatives(values: np.ndarray, spacing, first, window=None):
    """The entries of :func:`hessian` on an array, in storage order.

    ``first[j]`` is the first derivative of ``values`` along axis ``j``;
    mixed entries differentiate it again.  Each entry is computed as it
    is drawn, so a caller holds one at a time.  An array needs at least
    4 points per axis, the grid axes last.  With an axis-0 ``window``,
    ``first`` is :func:`first_derivatives`'s and the entries the
    window's planes.
    """
    dim = len(spacing)
    own = slice(window[0] - window[2], window[1] - window[2]) if window else slice(None)
    own = (..., own) + (slice(None),) * (dim - 1)
    for i, j in sym_pairs(dim):
        x, second = (values, True) if i == j else (first[j], False)
        if i == 0:
            yield _diff(x, -dim, spacing[0], second, window)
        else:
            yield _diff(x[own], i - dim, spacing[i], second)


def gradient(f: ScalarField) -> VectorField:
    """Second-order gradient (centered interior, one-sided boundary)."""
    parts = first_derivatives(f.values, f.grid.spacing)
    return VectorField(f.grid, np.stack(parts, axis=-1))


def hessian(f: ScalarField, grad: VectorField | None = None) -> SymTensorField:
    """Second-order discrete Hessian in triangle storage.

    Mixed entries compose two first-derivative passes along distinct
    axes; the passes commute exactly so the result is symmetric.  A
    caller holding ``grad = gradient(f)`` passes it in, and its
    components serve as the first passes: the result is the same bit
    for bit, without differentiating ``f`` again.
    """
    grid = f.grid
    values = f.values
    if grad is None:
        first = first_derivatives(values, grid.spacing)
    else:
        first = np.moveaxis(grad.values, -1, 0)
    out = np.empty(grid.shape + (sym_size(grid.dim),), dtype=values.dtype)
    for k, entry in enumerate(second_derivatives(values, grid.spacing, first)):
        out[..., k] = entry
    return SymTensorField(grid, out)


def window_derivatives(
    values: list[np.ndarray], spacing, planes: slice
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The :func:`gradient` and :func:`hessian` values of each whole-grid
    array in ``values`` at the axis-0 ``planes``, bit for bit.

    Arrays of one dtype are differentiated as one stack, on the planes
    the stencils read: one beyond each side, 4 from a face in the window
    (the closures run there only).  The in-plane first derivatives are
    taken on all of them, for the mixed entries ``(0, j)``.
    """
    n = values[0].shape[0]
    lo, hi = planes.start, planes.stop
    at, stop = max(lo - 1, 0), min(hi + 1, n)
    at, stop = (min(at, n - 4) if hi == n else at), (max(stop, 4) if lo == 0 else stop)
    window = (lo, hi, at, n)
    grads, hessians = [None] * len(values), [None] * len(values)
    for dtype in {v.dtype for v in values}:
        members = [k for k, v in enumerate(values) if v.dtype == dtype]
        block = np.stack([values[k][at:stop] for k in members])
        first = first_derivatives(block, spacing, window)
        g = np.stack([first[0]] + [f[:, lo - at : hi - at] for f in first[1:]], axis=-1)
        h = np.empty(g.shape[:-1] + (sym_size(len(spacing)),), dtype)
        for k, entry in enumerate(second_derivatives(block, spacing, first, window)):
            h[..., k] = entry
        for member, gk, hk in zip(members, g, h):
            grads[member], hessians[member] = gk, hk
    return grads, hessians


def divergence(F: VectorField) -> ScalarField:
    grid = F.grid
    acc = np.zeros(grid.shape, dtype=F.values.dtype)
    for ax, h in enumerate(grid.spacing):
        acc += _diff(F.values[..., ax], ax, h)
    return ScalarField(grid, acc)


def tensor_divergence(A: SymTensorField) -> VectorField:
    """Row-wise divergence ``(div A)_i = sum_j d_j A_ij``."""
    grid = A.grid
    index = _sym_index(grid.dim)
    out = np.zeros(grid.shape + (grid.dim,), dtype=A.values.dtype)
    for i in range(grid.dim):
        for j, h in enumerate(grid.spacing):
            out[..., i] += _diff(A.values[..., index[i][j]], j, h)
    return VectorField(grid, out)


def jacobian(F: VectorField) -> np.ndarray:
    """Pointwise Jacobian ``J[..., i, j] = d_j F_i`` from ``dim``
    single-axis first derivatives, each of all components of ``F`` at once.

    Its trace, its antisymmetric part and its Frobenius norm are the
    divergence, the curl and the derivative scale of ``F``; each entry is
    the same stencil :func:`divergence` applies, so the trace summed in
    axis order equals it bit for bit.
    """
    grid = F.grid
    out = np.empty(grid.shape + (grid.dim, grid.dim), dtype=F.values.dtype)
    for j, h in enumerate(grid.spacing):
        out[..., j] = _diff(F.values, j, h)
    return out


# Lagrange weights for the rows 0 and 1 steps in, on the rows 2, 3 (and 4)
_QUADRATIC_RINGS = ((6.0, -8.0, 3.0), (3.0, -3.0, 1.0))
_LINEAR_RINGS = ((3.0, -2.0), (2.0, -1.0))


def consistent_rings(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Rebuild the two outer rings of a derived field by inward extrapolation.

    Fields produced by differentiating grid data carry larger truncation
    constants on the one-sided boundary rows than in the centered interior,
    so their error profile has a kink across the outer rings.  Any further
    derivative, or an elliptic solve fed by one, amplifies that kink into
    an O(1) artifact confined to a band of fixed cell width.  Replacing the
    rings by per-axis extrapolation from the centered rows keeps the error
    profile smooth without touching the interior values.

    The extrapolation is quadratic on axes of 7 or more points, linear
    on 6-point axes; 5-point axes are left alone.  Its exact weights are
    applied elementwise, so real input returns the real part of the
    complex result bit for bit.  ``values`` may carry trailing component
    axes; leading axes must match ``grid.shape``.
    """
    out = np.array(values, copy=True)
    for ax, n in enumerate(grid.shape):
        if n < 6:
            continue
        rule = _QUADRATIC_RINGS if n >= 7 else _LINEAR_RINGS
        sub = np.moveaxis(out, ax, 0)
        for ring, weights in enumerate(rule):
            for face, inward in ((0, 1), (n - 1, -1)):
                acc = weights[0] * sub[face + 2 * inward]
                for step, w in enumerate(weights[1:], start=3):
                    acc += w * sub[face + step * inward]
                sub[face + ring * inward] = acc
    return out


# ---------------------------------------------------------------------------
# JSON files: every JSON document hiplab writes (field sidecars, the
# measurement manifest, reports) goes through dump_json, and every input
# file it reads (configs, manifests, sidecars) through read_json


def _finite_or_null(node):
    """``node`` with every non-finite float replaced by None."""
    if isinstance(node, dict):
        return {key: _finite_or_null(value) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_finite_or_null(value) for value in node]
    return None if isinstance(node, float) and not math.isfinite(node) else node


def dump_json(doc: dict, fh) -> None:
    """Strict JSON of ``doc`` to ``fh``: sorted keys, 2-space indent, ``null``
    for a non-finite float, and a final newline."""
    json.dump(_finite_or_null(doc), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def write_json(path: str, doc: dict) -> None:
    """Write ``doc`` to the file ``path`` as :func:`dump_json` does."""
    with open(path, "w") as fh:
        dump_json(doc, fh)


def read_json(path: str, what: str, stage: str) -> dict:
    """The JSON object in the file ``path``; a file that cannot be read,
    is not valid JSON or holds no object raises :class:`InputFileError`
    naming it as ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFileError(f"cannot read {what} {path}: {exc}", stage=stage)
    except ValueError as exc:
        raise InputFileError(f"{what} {path} is not valid JSON: {exc}", stage=stage)
    if not isinstance(doc, dict):
        raise InputFileError(f"{what} {path} is not a JSON object", stage=stage)
    return doc


def require_json(node, keys: dict, what: str, path: str, where: str = "") -> None:
    """Raise :class:`InputFileError` naming ``path`` unless ``node`` is an
    object holding every key of ``keys`` with a value of the key's JSON
    type: a class or tuple of classes, or ``[t]`` for a list of ``t``;
    ``where`` prefixes the key in the message."""

    def holds(value, typ) -> bool:
        if isinstance(typ, list):
            return isinstance(value, list) and all(holds(v, typ[0]) for v in value)
        return isinstance(value, typ) and not isinstance(value, bool)  # true is an int

    for key, typ in keys.items():
        if not isinstance(node, dict) or key not in node:
            raise InputFileError(f"{what} {path} lacks '{where}{key}'", stage="data")
        if not holds(node[key], typ):
            raise InputFileError(
                f"{what} {path}: '{where}{key}' has the wrong JSON type", stage="data"
            )


# ---------------------------------------------------------------------------
# field files: raw little-endian complex128 payload plus a JSON sidecar,
# whatever the storage dtype

_KINDS = {cls.kind: cls for cls in (ScalarField, VectorField, SymTensorField)}


def write_field(fld, path: str) -> None:
    """Write a field as raw ``<c16`` bytes plus ``path + '.json'`` sidecar.

    The payload is the C-ordered value array: grid points in lexicographic
    order, trailing component axis (if any) fastest, each value stored as
    a little-endian (real, imag) float64 pair.  It is ``<c16`` whatever
    the storage dtype: a real field writes zero imaginary parts.
    """
    grid = fld.grid
    payload = np.ascontiguousarray(fld.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(payload.tobytes())
    sidecar = {
        "schema_version": 1,
        "kind": fld.kind,
        "dim": grid.dim,
        "bounds": [list(b) for b in grid.bounds],
        "shape": list(grid.shape),
    }
    write_json(path + ".json", sidecar)


def read_field(path: str):
    """Read a field written by :func:`write_field`; bit-exact round trip.

    The field is stored as ``float64`` when every imaginary part is
    ``+0.0``, as :func:`write_field` writes a real field, and as
    ``complex128`` otherwise, so writing it again gives the same bytes.
    """
    sidecar_path = path + ".json"
    meta = read_json(sidecar_path, "sidecar", stage="data")
    keys = {"kind": str, "dim": int, "bounds": [[(int, float)]], "shape": [int]}
    require_json(meta, keys, "sidecar", sidecar_path)
    try:
        cls = _KINDS.get(meta["kind"])
        if cls is None:
            raise GridError(f"unknown field kind '{meta['kind']}'")
        grid = Grid(
            bounds=tuple(tuple(b) for b in meta["bounds"]),
            shape=tuple(meta["shape"]),
        )
    except GridError as exc:
        raise InputFileError(f"sidecar {sidecar_path}: {exc}", stage="data") from None
    if meta["dim"] != grid.dim:
        raise GridError(
            f"sidecar {sidecar_path} gives dim {meta['dim']} "
            f"but its bounds describe {grid.dim} axes"
        )
    shape = cls.value_shape(grid)
    try:
        raw = np.fromfile(path, dtype="<c16")
    except OSError as exc:
        raise InputFileError(f"cannot read field {path}: {exc}", stage="data")
    if raw.size != math.prod(shape):
        raise GridError(f"{path}: expected {math.prod(shape)} values, got {raw.size}")
    if not raw.imag.view(np.uint64).any():
        # every imaginary part is +0.0, as a real field writes them
        raw = raw.real
    return cls(grid, raw.reshape(shape))
