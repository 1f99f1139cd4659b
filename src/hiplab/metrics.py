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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricsError
from .grids import (
    ScalarField,
    SymTensorField,
    VectorField,
    component_sum,
    gradient,
    hessian,
    sym_size,
    sym_weights,
)

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
        return {
            "c0": self.c0,
            "c1": self.c1,
            "c2": self.c2,
            "c0_rel": self.c0_rel,
            "c1_rel": self.c1_rel,
            "c2_rel": self.c2_rel,
            "region_fraction": self.region_fraction,
        }


def _components(fld) -> tuple[list[np.ndarray], np.ndarray]:
    """The components of ``fld`` and their Frobenius weights: symmetric
    off-diagonal entries count twice."""
    dim = fld.grid.dim
    if isinstance(fld, ScalarField):
        return [fld.values], np.ones(1)
    if isinstance(fld, VectorField):
        return [fld.values[..., k] for k in range(dim)], np.ones(dim)
    if isinstance(fld, SymTensorField):
        return [fld.values[..., k] for k in range(sym_size(dim))], sym_weights(dim)
    raise MetricsError(f"not a field: {type(fld).__name__}")


def _sup_levels(fld, region: np.ndarray) -> tuple[float, float, float]:
    """Sup of value, gradient, and Hessian magnitudes over a region.

    A real component and its derivatives are squared as real numbers:
    ``np.abs(x) ** 2`` of a real ``x`` equals that of ``x + 0j`` bit for
    bit.
    """
    grid = fld.grid
    comps, weights = _components(fld)

    val_sq = np.zeros(grid.shape)
    grad_sq = np.zeros(grid.shape)
    hess_sq = np.zeros(grid.shape)
    dim = grid.dim
    hess_weights = sym_weights(dim)
    for w, comp in zip(weights, comps):
        f = ScalarField(grid, comp)
        grad = gradient(f)
        hess = hessian(f, grad).values
        grad = grad.values
        val_sq += w * np.abs(comp) ** 2
        for ax in range(dim):
            grad_sq += w * np.abs(grad[..., ax]) ** 2
        hess_sq += w * component_sum(hess_weights * np.abs(hess) ** 2)
    return (
        float(np.sqrt(np.max(val_sq[region]))),
        float(np.sqrt(np.max(grad_sq[region]))),
        float(np.sqrt(np.max(hess_sq[region]))),
    )


def error_norms(candidate, reference, mask: np.ndarray) -> ErrorMetrics:
    """Sup-norm errors of ``candidate - reference`` over ``mask``.

    ``mask`` is one boolean array of the grid's shape, True at the
    vertices compared; a caller that drops flagged vertices from a
    trusted interior passes ``interior & ~flags``.  Relative norms
    divide by the corresponding norm of ``reference`` and are infinite
    for a vanishing reference.

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
    grid = candidate.grid
    if not grid.compatible(reference.grid):
        raise MetricsError("fields live on different grids")
    if mask.shape != grid.shape:
        raise MetricsError(f"mask shape {mask.shape} does not match grid {grid.shape}")
    if not np.any(mask):
        raise MetricsError("comparison region is empty")

    diff = type(candidate)(grid, candidate.values - reference.values)
    d0, d1, d2 = _sup_levels(diff, mask)
    r0, r1, r2 = _sup_levels(reference, mask)
    c0 = d0
    c1 = d0 + d1
    c2 = d0 + d1 + d2
    ref_c0 = r0
    ref_c1 = r0 + r1
    ref_c2 = r0 + r1 + r2

    def rel(err, ref):
        if ref == 0.0:
            return float("inf") if err > 0 else 0.0
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
