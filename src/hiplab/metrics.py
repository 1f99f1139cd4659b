"""Discrete error norms for reconstructed fields.

Norms are sup norms over a masked region, with derivative terms formed
by the same stencils the pipeline uses:

    C0 = sup |f|
    C1 = C0 + sup |grad f|
    C2 = C1 + sup |D^2 f|

where the pointwise magnitudes aggregate all components (Euclidean over
vector components, Frobenius over matrix entries with off-diagonal
terms counted twice).  Relative variants divide by the same norm of the
reference field.

The norms are computed on the region's box: its bounding box widened by
one ring.  Inside the region the stencils read there what they read on
the whole grid, and each maximum is taken over the region in place,
without gathering its vertices, so the norms keep the whole grid's bits.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import MetricsError
from .grids import _Field, first_derivatives, second_derivatives, sym_weights

__all__ = ["ErrorMetrics", "error_norms"]


@dataclass
class ErrorMetrics:
    """Absolute and relative sup-norm errors up to second derivatives."""

    c0: float
    c1: float
    c2: float
    c0_rel: float
    c1_rel: float
    c2_rel: float
    region_fraction: float

    def to_dict(self) -> dict:
        return asdict(self)


def _box(region: np.ndarray) -> tuple[slice, ...]:
    """The region's bounding box widened by one ring, clipped to the
    grid, with at least 5 points per axis, as a grid has.

    Every vertex of the region is then a face vertex of the grid or a
    ring or more from the box's faces, so the stencils read there the
    values they read on the whole grid.
    """
    box = []
    for ax, n in enumerate(region.shape):
        rest = tuple(k for k in range(region.ndim) if k != ax)
        hit = np.flatnonzero(region.any(axis=rest))
        lo, hi = max(int(hit[0]) - 1, 0), min(int(hit[-1]) + 2, n)
        hi = max(hi, min(lo + 5, n))
        box.append(slice(min(lo, hi - 5), hi))
    return tuple(box)


def _square(x: np.ndarray, weight: float = 1.0) -> np.ndarray:
    """``weight * np.abs(x) ** 2``: a real ``x`` is squared as ``x * x``
    and a weight of 1 multiplies nothing, with the same bits."""
    sq = np.abs(x) ** 2 if np.iscomplexobj(x) else x * x
    return sq if weight == 1.0 else weight * sq


def _sup_levels(comps, weights, spacing, region) -> tuple[float, float, float]:
    """Sup of value, gradient, and Hessian magnitudes over a region.

    ``comps`` are a field's components on a box that holds ``region``
    (see :func:`_box`) and ``weights`` their Frobenius weights.  The
    squares are summed over components, then axes, and over Hessian
    entries in storage order before the component's weight applies:
    the order of the whole-grid sums, which keeps their bits.
    """
    hess_weights = sym_weights(len(spacing))
    # each sum starts as 0.0 + its first square, which is that square
    val_sq = grad_sq = hess_sq = 0.0
    for w, comp in zip(weights, comps):
        # a contiguous copy of a strided view: nine stencil passes read it
        comp = np.ascontiguousarray(comp)
        grad = first_derivatives(comp, spacing)
        hess = 0.0
        for hw, entry in zip(hess_weights, second_derivatives(comp, spacing, grad)):
            hess += _square(entry, hw)
        val_sq += _square(comp, w)
        for g in grad:
            grad_sq += _square(g, w)
        hess_sq += hess if w == 1.0 else w * hess
    # in place: the maximum is exact, and a NaN in the region gives NaN
    return tuple(
        float(np.sqrt(np.max(sq, where=region, initial=-np.inf)))
        for sq in (val_sq, grad_sq, hess_sq)
    )


def error_norms(candidate, reference, mask: np.ndarray) -> ErrorMetrics:
    """Sup-norm errors of ``candidate - reference`` over ``mask``.

    ``mask`` is one boolean array of the grid's shape, True at the
    vertices compared; a caller that drops flagged vertices from a
    trusted interior passes ``interior & ~flags``.  Relative norms
    divide by the corresponding norm of ``reference``; for a vanishing
    reference they are infinite, zero for a zero error and NaN for a
    NaN one.

    Raises
    ------
    MetricsError
        If the fields are incompatible, or ``mask`` does not match the
        grid or selects no vertex.
    """
    if type(candidate) is not type(reference):
        raise MetricsError(
            f"cannot compare {type(candidate).__name__} "
            f"with {type(reference).__name__}"
        )
    if not isinstance(candidate, _Field):
        raise MetricsError(f"not a field: {type(candidate).__name__}")
    grid = candidate.grid
    if not grid.compatible(reference.grid):
        raise MetricsError("fields live on different grids")
    if mask.shape != grid.shape:
        raise MetricsError(f"mask shape {mask.shape} does not match grid {grid.shape}")
    if not np.any(mask):
        raise MetricsError("comparison region is empty")

    box = _box(mask)
    region = mask[box]
    weights = candidate.weights(grid.dim)
    ref = reference.components()
    diff = [c[box] - r[box] for c, r in zip(candidate.components(), ref)]
    d0, d1, d2 = _sup_levels(diff, weights, grid.spacing, region)
    r0, r1, r2 = _sup_levels([r[box] for r in ref], weights, grid.spacing, region)
    c0 = d0
    c1 = d0 + d1
    c2 = d0 + d1 + d2
    ref_c0 = r0
    ref_c1 = r0 + r1
    ref_c2 = r0 + r1 + r2

    def rel(err, ref):
        if ref == 0.0:
            return float("inf") if err > 0 else err  # 0.0, or NaN
        return err / ref

    return ErrorMetrics(
        c0=c0,
        c1=c1,
        c2=c2,
        c0_rel=rel(c0, ref_c0),
        c1_rel=rel(c1, ref_c1),
        c2_rel=rel(c2, ref_c2),
        region_fraction=float(np.count_nonzero(mask)) / grid.num_points,
    )
