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
* First derivatives use the in-house stencil :func:`_first_diff`:
  centered differences with second-order one-sided closures at the
  boundary, the stencils of ``numpy.gradient`` with ``edge_order=2`` and
  its bits on complex data.  Pure second derivatives use the 3-point
  interior stencil and a 4-point one-sided closure; both are exact on
  quadratics.  Mixed second derivatives compose two first-derivative
  passes, which commute exactly, so discrete Hessians are symmetric by
  construction.
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
  ``exp``, ``log``, non-integer powers, ``mean``, ``eigvalsh`` and BLAS
  products do, that one call is evaluated in complex and its real part
  kept (:func:`via_complex`).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .errors import GridError

__all__ = [
    "Grid",
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "InteriorMask",
    "sym_pairs",
    "sym_size",
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
    "gradient",
    "hessian",
    "divergence",
    "tensor_divergence",
    "jacobian",
    "consistent_rings",
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
        bounds = tuple((float(lo), float(hi)) for lo, hi in self.bounds)
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "bounds", bounds)
        object.__setattr__(self, "shape", shape)
        if len(bounds) not in (2, 3):
            raise GridError(f"dimension must be 2 or 3, got {len(bounds)}")
        if len(shape) != len(bounds):
            raise GridError(
                f"shape {shape} does not match {len(bounds)} bounded axes"
            )
        for ax, ((lo, hi), s) in enumerate(zip(bounds, shape)):
            if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
                raise GridError(f"axis {ax}: invalid bounds ({lo}, {hi})")
            if s < 5:
                raise GridError(f"axis {ax}: need at least 5 points, got {s}")

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

    def interior(self, margin: int = 2) -> "InteriorMask":
        """Mask of points at least ``margin`` steps away from every face."""
        if margin < 1:
            raise GridError(f"interior margin must be >= 1, got {margin}")
        if any(2 * margin >= s for s in self.shape):
            raise GridError(
                f"margin {margin} leaves no interior on shape {self.shape}"
            )
        flags = np.zeros(self.shape, dtype=bool)
        core = tuple(slice(margin, s - margin) for s in self.shape)
        flags[core] = True
        return InteriorMask(grid=self, margin=margin, flags=flags)

    def compatible(self, other: "Grid") -> bool:
        return self.bounds == other.bounds and self.shape == other.shape


@dataclass(frozen=True)
class InteriorMask:
    """Points on which pointwise reconstruction output is trusted."""

    grid: Grid
    margin: int
    flags: np.ndarray


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


def _coerce(values, grid: Grid, comps: int | None, what: str) -> np.ndarray:
    arr = np.asarray(values)
    arr = arr.astype(_storage_dtype(arr), copy=False)
    want = grid.shape if comps is None else grid.shape + (comps,)
    if arr.shape != want:
        raise GridError(f"{what}: expected shape {want}, got {arr.shape}")
    return np.ascontiguousarray(arr)


@dataclass
class ScalarField:
    """Scalar samples on a grid, ``float64`` when real, else ``complex128``."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _coerce(self.values, self.grid, None, "scalar field")

    @classmethod
    def constant(cls, grid: Grid, value: complex) -> "ScalarField":
        return cls(grid, np.full(grid.shape, value, dtype=_storage_dtype(value)))

    def copy(self) -> "ScalarField":
        return ScalarField(self.grid, self.values.copy())

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.values)))


@dataclass
class VectorField:
    """Vector samples, stored as :class:`ScalarField` values are; the
    trailing axis holds the ``dim`` components."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _coerce(self.values, self.grid, self.grid.dim, "vector field")

    @classmethod
    def zero(cls, grid: Grid) -> "VectorField":
        return cls(grid, np.zeros(grid.shape + (grid.dim,)))

    def copy(self) -> "VectorField":
        return VectorField(self.grid, self.values.copy())

    def component(self, k: int) -> np.ndarray:
        return self.values[..., k]

    def magnitude(self) -> np.ndarray:
        return np.sqrt(component_sum(np.abs(self.values) ** 2))


@dataclass
class SymTensorField:
    """Symmetric-matrix samples in upper-triangle storage, stored as
    :class:`ScalarField` values are."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        self.values = _coerce(
            self.values, self.grid, sym_size(self.grid.dim), "symmetric field"
        )

    @classmethod
    def identity(cls, grid: Grid) -> "SymTensorField":
        vals = np.zeros(grid.shape + (sym_size(grid.dim),))
        vals[..., : grid.dim] = 1.0
        return cls(grid, vals)

    def copy(self) -> "SymTensorField":
        return SymTensorField(self.grid, self.values.copy())

    def entry(self, i: int, j: int) -> np.ndarray:
        pairs = sym_pairs(self.grid.dim)
        key = (min(i, j), max(i, j))
        return self.values[..., pairs.index(key)]

    def full(self) -> np.ndarray:
        return sym_to_full(self.values, self.grid.dim)

    def magnitude(self) -> np.ndarray:
        """Pointwise Frobenius norm (off-diagonal entries counted twice)."""
        dim = self.grid.dim
        w = np.ones(sym_size(dim))
        w[dim:] = 2.0
        return np.sqrt(component_sum(w * np.abs(self.values) ** 2))


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
    w = np.ones(sym_size(dim))
    w[dim:] = 2.0
    return component_sum(w * x * y)


# ---------------------------------------------------------------------------
# discrete calculus


def _first_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """First derivative along one axis, exact on quadratics.

    Interior uses the centered stencil; each face uses the one-sided
    closure (-3/2, 2, -1/2)/h, mirrored at the far face.  Every quotient
    is a product with a reciprocal, so real input returns the real part
    of the complex result bit for bit (see the module docstring).
    """
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[2:] - v[:-2]) * (1.0 / (2.0 * h))
    out[0] = (-1.5 / h) * v[0] + (2.0 / h) * v[1] + (-0.5 / h) * v[2]
    out[-1] = (0.5 / h) * v[-3] + (-2.0 / h) * v[-2] + (1.5 / h) * v[-1]
    return np.moveaxis(out, 0, axis)


def gradient(f: ScalarField) -> VectorField:
    """Second-order gradient (centered interior, one-sided boundary)."""
    parts = [_first_diff(f.values, ax, h) for ax, h in enumerate(f.grid.spacing)]
    return VectorField(f.grid, np.stack(parts, axis=-1))


def _second_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """Pure second derivative along one axis, exact on quadratics.

    Interior uses the 3-point stencil; each face uses the one-sided
    4-point closure (2, -5, 4, -1)/h^2 which is also second order.
    """
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    inv_h2 = 1.0 / h**2
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) * inv_h2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) * inv_h2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) * inv_h2
    return np.moveaxis(out, 0, axis)


def hessian(f: ScalarField, grad: VectorField | None = None) -> SymTensorField:
    """Second-order discrete Hessian in triangle storage.

    Mixed entries compose two first-derivative passes along distinct
    axes; the passes commute exactly so the result is symmetric.  A
    caller holding ``grad = gradient(f)`` passes it in, and its
    components serve as the first passes: the result is the same bit
    for bit, without differentiating ``f`` again.
    """
    grid = f.grid
    h = grid.spacing
    values = f.values
    out = np.empty(grid.shape + (sym_size(grid.dim),), dtype=values.dtype)
    first = {}
    for k, (i, j) in enumerate(sym_pairs(grid.dim)):
        if i == j:
            out[..., k] = _second_diff(values, i, h[i])
        else:
            if j not in first:
                first[j] = (
                    grad.values[..., j]
                    if grad is not None
                    else _first_diff(values, j, h[j])
                )
            out[..., k] = _first_diff(first[j], i, h[i])
    return SymTensorField(grid, out)


def divergence(F: VectorField) -> ScalarField:
    grid = F.grid
    acc = np.zeros(grid.shape, dtype=F.values.dtype)
    for ax, h in enumerate(grid.spacing):
        acc += _first_diff(F.values[..., ax], ax, h)
    return ScalarField(grid, acc)


def tensor_divergence(A: SymTensorField) -> VectorField:
    """Row-wise divergence ``(div A)_i = sum_j d_j A_ij``."""
    grid = A.grid
    index = _sym_index(grid.dim)
    out = np.zeros(grid.shape + (grid.dim,), dtype=A.values.dtype)
    for i in range(grid.dim):
        for j, h in enumerate(grid.spacing):
            out[..., i] += _first_diff(A.values[..., index[i][j]], j, h)
    return VectorField(grid, out)


def jacobian(F: VectorField) -> np.ndarray:
    """Pointwise Jacobian ``J[..., i, j] = d_j F_i`` from one pass of
    ``dim^2`` single-axis first derivatives.

    Its trace, its antisymmetric part and its Frobenius norm are the
    divergence, the curl and the derivative scale of ``F``; each entry is
    the same stencil :func:`divergence` applies, so the trace summed in
    axis order equals it bit for bit.
    """
    grid = F.grid
    out = np.empty(grid.shape + (grid.dim, grid.dim), dtype=F.values.dtype)
    for i in range(grid.dim):
        component = F.values[..., i]
        for j, h in enumerate(grid.spacing):
            out[..., i, j] = _first_diff(component, j, h)
    return out


def consistent_rings(values: np.ndarray, grid: Grid, rings: int = 2) -> np.ndarray:
    """Rebuild the outer rings of a derived field by inward extrapolation.

    Fields produced by differentiating grid data carry larger truncation
    constants on the one-sided boundary rows than in the centered interior,
    so their error profile has a kink across the outer rings.  Any further
    derivative, or an elliptic solve fed by one, amplifies that kink into
    an O(1) artifact confined to a band of fixed cell width.  Replacing the
    rings by per-axis quadratic extrapolation from the centered rows keeps
    the error profile smooth without touching the interior values.

    ``values`` may carry trailing component axes; leading axes must match
    ``grid.shape``.  Axes too short to supply source rows are left alone.
    """
    out = np.array(values, copy=True)
    for ax in range(grid.dim):
        n = grid.shape[ax]
        deg = min(2, n - 2 * rings - 1)
        if deg < 1:
            continue
        src = np.arange(rings, rings + deg + 1)
        vander = np.vander(src.astype(float), deg + 1, increasing=True)
        sub = np.moveaxis(out, ax, 0)
        for t in range(rings):
            for lo_t, lo_s in ((t, src), (n - 1 - t, n - 1 - src)):
                moments = np.vander(
                    np.array([float(t)]), deg + 1, increasing=True
                )[0]
                weights = np.linalg.solve(vander.T, moments)
                # numpy's real and complex products round differently
                sub[lo_t] = via_complex(
                    lambda s: np.tensordot(weights, s, axes=(0, 0)), sub[lo_s]
                )
    return out


# ---------------------------------------------------------------------------
# field files: raw little-endian complex128 payload plus a JSON sidecar,
# whatever the storage dtype

_KINDS = {"scalar": None, "vector": "dim", "symtensor": "sym"}


def _kind_of(fld) -> str:
    if isinstance(fld, ScalarField):
        return "scalar"
    if isinstance(fld, VectorField):
        return "vector"
    if isinstance(fld, SymTensorField):
        return "symtensor"
    raise GridError(f"not a field: {type(fld).__name__}")


def write_field(fld, path: str) -> None:
    """Write a field as raw ``<c16`` bytes plus ``path + '.json'`` sidecar.

    The payload is the C-ordered value array: grid points in lexicographic
    order, trailing component axis (if any) fastest, each value stored as
    a little-endian (real, imag) float64 pair.  It is ``<c16`` whatever
    the storage dtype: a real field writes zero imaginary parts.
    """
    grid = fld.grid
    kind = _kind_of(fld)
    payload = np.ascontiguousarray(fld.values, dtype="<c16")
    with open(path, "wb") as fh:
        fh.write(payload.tobytes())
    sidecar = {
        "schema_version": 1,
        "kind": kind,
        "dim": grid.dim,
        "bounds": [list(b) for b in grid.bounds],
        "shape": list(grid.shape),
    }
    with open(path + ".json", "w") as fh:
        json.dump(sidecar, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_field(path: str):
    """Read a field written by :func:`write_field`; bit-exact round trip.

    The field is stored as ``float64`` when every imaginary part is
    ``+0.0``, as :func:`write_field` writes a real field, and as
    ``complex128`` otherwise, so writing it again gives the same bytes.
    """
    sidecar_path = path + ".json"
    if not os.path.exists(sidecar_path):
        raise GridError(f"missing sidecar {sidecar_path}")
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    for key in ("kind", "dim", "bounds", "shape"):
        if key not in meta:
            raise GridError(f"sidecar {sidecar_path} lacks '{key}'")
    kind = meta["kind"]
    if kind not in _KINDS:
        raise GridError(f"unknown field kind '{kind}'")
    grid = Grid(
        bounds=tuple(tuple(b) for b in meta["bounds"]),
        shape=tuple(meta["shape"]),
    )
    comps = {"scalar": 1, "vector": grid.dim, "symtensor": sym_size(grid.dim)}[kind]
    raw = np.fromfile(path, dtype="<c16")
    if raw.size != grid.num_points * comps:
        raise GridError(
            f"{path}: expected {grid.num_points * comps} values, got {raw.size}"
        )
    if not raw.imag.view(np.uint64).any():
        # every imaginary part is +0.0, as a real field writes them
        raw = raw.real
    if kind == "scalar":
        return ScalarField(grid, raw.reshape(grid.shape))
    shape = grid.shape + (comps,)
    cls = VectorField if kind == "vector" else SymTensorField
    return cls(grid, raw.reshape(shape))
