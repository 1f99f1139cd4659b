"""Gauge structure of the reconstructed coefficients.

Write ``a = B^2 ahat`` with ``det(ahat) = 1``.  The ratio pipeline
delivers the normalized pair (``ahat`` and a matching vector
coefficient); combining it with the reference functional ``H_1``
yields the invariant pair

    shape:  ahat
    drift invariant:  G = b/B^2 + 2 ahat grad ln(B/d)
      computed from data as (beta - div ahat) - 2 ahat grad H_1 / H_1,

and, once the weight ratio ``B/d`` is pinned by a modality assumption,
the scalar invariant

    q = div(ahat grad v) / v  with  v = H_1 B / d = B u_1,

which relates to the coefficients, for vanishing first-order term, by
``q = div(ahat grad B)/B - c/B^2``.  Counting functions: the invariants
carry ``dim(dim+3)/2`` scalar degrees of freedom while ``(a, b, c, d)``
carry two more, so every resolution report states the two-function gauge
family that remains; scalar diffusion fixes ``ahat = I``, leaving
``dim + 1`` against ``dim + 3``.

Each modality resolver integrates the drift invariant to a logarithm
(a least-squares Poisson solve whose Dirichlet anchor comes from known
boundary values), then eliminates the remaining coefficients:

* elastography (``d = 1``, ``b = 0``): everything is determined;
* qpat (``b = 0``, ``d = gamma c``, ``gamma`` known): a linear elliptic
  solve recovers ``B``, then ``c``;
* qtat (``b = 0``, ``d = gamma Im(c) conj(u_1)``, ``a`` real):
  ``gamma`` is determined where ``Im q`` is bounded away from zero;
  ``(B, c)`` remain a gauge pair;
* generic drift: the known divergence of ``a^{-1} b`` pins ``B/d`` and
  ``a^{-1} b``; ``(B, c, d)`` remain a gauge pair.

Vertices where the pointwise null space was degenerate are carried
along as flags; derivative and solve plumbing substitutes the identity
shape there so the elliptic solves stay well posed, and reports count
the substitutions.  Metrics should exclude flagged vertices.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import (
    ConfigurationError,
    PositivityError,
    ReconstructionAbort,
)
from .forward import (
    BoundaryTrace,
    CoefficientSet,
    SolverSettings,
    solve_dirichlet,
    solve_poisson,
)
from .grids import (
    ScalarField,
    SymTensorField,
    VectorField,
    component_sum,
    consistent_rings,
    divergence,
    divide,
    gradient,
    hessian,
    jacobian,
    principal_root,
    sym_det,
    sym_dot,
    sym_identity,
    sym_inv,
    sym_matvec,
    tensor_divergence,
    via_complex,
)
from .recon import NormalizedCoefficients, functional_budget

__all__ = [
    "amplitude_of",
    "shape_of",
    "InvariantTriple",
    "GaugeReport",
    "ResolvedCoefficients",
    "invariant_triple",
    "integrate_gradient",
    "resolve_elastography",
    "resolve_qpat",
    "resolve_qtat",
    "resolve_generic",
    "gauge_equivalent",
    "dimension_audit",
]

# fraction of trusted interior allowed to be degenerate before aborting
MASKED_FRACTION_LIMIT = 0.5

# relative floor on |Im q| below which the qtat division is refused
QTAT_IMAG_FLOOR = 1e-8


def amplitude_of(a: SymTensorField) -> ScalarField:
    """Scalar amplitude ``B = det(a)^(1/(2 dim))`` of an SPD matrix field."""
    dim = a.grid.dim
    det = sym_det(a.values, dim)
    return ScalarField(a.grid, principal_root(det, 2 * dim))


def shape_of(a: SymTensorField) -> SymTensorField:
    """Determinant-one part ``a / det(a)^(1/dim)``."""
    dim = a.grid.dim
    det = sym_det(a.values, dim)
    return SymTensorField(a.grid, divide(a.values, principal_root(det, dim)[..., None]))


def dimension_audit(dim: int, mode: str = "matrix") -> dict:
    """Function count behind the two-parameter gauge statement in ``mode``."""
    budget = functional_budget(dim, mode)
    a = "a" if mode == "matrix" else "scalar a"
    return {
        "invariant_functions": budget,
        "coefficient_functions": budget + 2,
        "gauge_functions": 2,
        "statement": (
            f"{budget} reconstructed invariant functions determine the "
            f"{budget + 2} coefficient functions ({a}, b, c, d) up to a "
            "two-function gauge family"
        ),
    }


@dataclass
class InvariantTriple:
    """Shape and drift invariant, with the shape's row divergence.

    ``shape_divergence`` is ``div(ahat)``, taken once on construction;
    the drift invariant and every ``div(ahat grad f)`` read it.  The
    scalar invariant is not stored: it is defined only once a modality
    assumption pins the weight ratio ``B/d``, so each resolver forms it.
    ``mode`` is the reconstruction's, which sets the dimension audit.
    """

    shape: SymTensorField
    vector_invariant: VectorField
    inside: np.ndarray
    degenerate: np.ndarray
    masked_fraction: float
    mode: str = "matrix"
    shape_divergence: VectorField = field(init=False)

    def __post_init__(self):
        self.shape_divergence = tensor_divergence(self.shape)


@dataclass
class GaugeReport:
    """What a resolver pinned down and what freedom remains."""

    modality: str
    residual_gauge: str
    dimension_audit: dict
    masked_fraction: float
    curl_residual: float | None = None
    # the resolver's own float readings, reported beside the fields above
    extras: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        out = asdict(self)
        out.update(out.pop("extras"))
        return out


@dataclass
class ResolvedCoefficients:
    """Resolver output; fields the modality cannot determine stay None."""

    report: GaugeReport
    flags: np.ndarray
    a: SymTensorField | None = None
    b: VectorField | None = None
    c: ScalarField | None = None
    weight: ScalarField | None = None
    amplitude: ScalarField | None = None
    gamma: ScalarField | None = None
    fields: dict = field(default_factory=dict)


def _fill_shape(shape: SymTensorField, degenerate: np.ndarray) -> SymTensorField:
    """Identity-substitute flagged vertices so derivatives stay finite."""
    if not np.any(degenerate):
        return shape
    vals = shape.values.copy()
    vals[degenerate] = sym_identity(shape.grid.dim)
    return SymTensorField(shape.grid, vals)


def invariant_triple(
    nc: NormalizedCoefficients, h1: ScalarField
) -> InvariantTriple:
    """Drift invariant from the normalized pair and the reference functional."""
    grid = nc.diffusion.grid
    inside = nc.inside
    frac = float(np.count_nonzero(nc.degenerate & inside) / np.count_nonzero(inside))
    if frac > MASKED_FRACTION_LIMIT:
        raise ReconstructionAbort(
            f"{frac:.1%} of the trusted interior is degenerate "
            f"(limit {MASKED_FRACTION_LIMIT:.0%})",
            stage="gauge",
        )
    shape = _fill_shape(nc.diffusion, nc.degenerate)
    # the outer rows of the normalized pair come from one-sided stencils
    # and carry different truncation constants than the interior; any
    # derivative taken across them (div(ahat), or the potential solve
    # later) would turn that kink into a non-converging band artifact
    tri = InvariantTriple(
        shape=SymTensorField(grid, consistent_rings(shape.values, grid)),
        vector_invariant=VectorField.zero(grid),  # set below from div(ahat)
        inside=nc.inside,
        degenerate=nc.degenerate,
        masked_fraction=frac,
        mode=nc.mode,
    )
    drift_vals = nc.drift.values
    if np.any(nc.degenerate):
        drift_vals = drift_vals.copy()
        drift_vals[nc.degenerate] = 0.0
    drift_vals = consistent_rings(drift_vals, grid)
    grad_h1 = gradient(h1)
    log_grad = divide(grad_h1.values, h1.values[..., None])
    g_vals = (
        drift_vals
        - tri.shape_divergence.values
        - 2.0 * sym_matvec(tri.shape.values, log_grad, grid.dim)
    )
    g_vals[nc.degenerate] = 0.0  # keep solves finite; vertices stay flagged
    tri.vector_invariant = VectorField(grid, g_vals)
    return tri


def integrate_gradient(
    F: VectorField,
    anchor: BoundaryTrace,
    mask: np.ndarray,
) -> tuple[ScalarField, float]:
    """Least-squares potential of an approximate gradient field.

    Solves ``lap psi = div F`` with the Dirichlet anchor, the normal
    equation of minimizing ``|grad psi - F|^2``.  Also returns the
    relative interior curl of ``F``, the size of its non-gradient part
    against its Jacobian scale.  The source, the curl and the scale all
    read one Jacobian of ``F``.
    """
    grid = F.grid
    # the outer rings of F carry one-sided-stencil error constants; the
    # solve would spread their kink into interior curvature of psi
    F = VectorField(grid, consistent_rings(F.values, grid))
    jac = jacobian(F)
    div = np.zeros(grid.shape, dtype=jac.dtype)
    for ax in range(grid.dim):
        div += jac[..., ax, ax]
    psi = solve_poisson(anchor, ScalarField(grid, div))
    if grid.dim == 2:
        rot_mag = np.abs(jac[..., 1, 0] - jac[..., 0, 1])
    else:
        rot = np.stack(
            [jac[..., i, j] - jac[..., j, i] for i, j in ((2, 1), (0, 2), (1, 0))],
            axis=-1,
        )
        rot_mag = np.sqrt(component_sum(np.abs(rot) ** 2))
    jac_mag = np.sqrt(component_sum(np.abs(jac.reshape(grid.shape + (-1,))) ** 2))
    top = float(np.max(rot_mag[mask]))
    scale = float(np.max(jac_mag[mask]))
    rel = top / max(scale, np.finfo(float).tiny)
    return psi, rel


def _shape_applied_laplacian(
    shape: SymTensorField, shape_div: VectorField, f: ScalarField
) -> tuple[ScalarField, VectorField]:
    """``div(ahat grad f)`` expanded as ``ahat : D^2 f + div(ahat) . grad f``,
    with the ``grad f`` it took."""
    dim = f.grid.dim
    grad = gradient(f)
    hess = hessian(f, grad)
    vals = sym_dot(shape.values, hess.values, dim) + component_sum(
        shape_div.values * grad.values
    )
    return ScalarField(f.grid, vals), grad


def _scalar_invariant(
    tri: InvariantTriple, h1: ScalarField, weight_ratio: np.ndarray
) -> tuple[ScalarField, VectorField, ScalarField]:
    """``v = H_1 (B/d)``, ``grad v`` and ``q = div(ahat grad v)/v``."""
    v = ScalarField(h1.grid, h1.values * weight_ratio)
    num, grad_v = _shape_applied_laplacian(tri.shape, tri.shape_divergence, v)
    q = ScalarField(h1.grid, divide(num.values, v.values))
    return v, grad_v, q


def _log_anchor(anchor: BoundaryTrace, what: str) -> BoundaryTrace:
    """The principal log of ``anchor``, complex where it is negative."""
    vals = anchor.values
    if np.any(np.abs(vals) == 0.0):
        raise ConfigurationError(f"{what} anchor vanishes; cannot take its log")
    return BoundaryTrace(anchor.grid, np.log(vals.astype(np.complex128)))



def _integrate_drift(
    tri: InvariantTriple,
    h1: ScalarField,
    anchor: BoundaryTrace,
    what: str,
) -> tuple[np.ndarray, ScalarField, ScalarField, float]:
    """Weight ratio ``B/d`` of a drift-free modality, with ``v``, ``q``
    and the relative curl of the integrated field.

    With ``b = 0``, ``F = (1/2) ahat^{-1} G`` is the gradient of the log
    weight ratio; it is integrated from the log of ``anchor``, the
    ratio's boundary values, and exponentiated.
    """
    grid = tri.shape.grid
    inv = sym_inv(tri.shape.values, grid.dim)
    F = VectorField(grid, 0.5 * sym_matvec(inv, tri.vector_invariant.values, grid.dim))
    psi, curl_rel = integrate_gradient(F, _log_anchor(anchor, what), tri.inside)
    # numpy's real exp rounds differently from its complex one
    ratio = via_complex(np.exp, psi.values)
    v, _, q = _scalar_invariant(tri, h1, ratio)
    return ratio, v, q, curl_rel


def _report(
    tri: InvariantTriple, modality: str, residual_gauge: str, **rest
) -> GaugeReport:
    """A resolver's report, with the triple's dimension audit and masked
    fraction."""
    return GaugeReport(
        modality=modality,
        residual_gauge=residual_gauge,
        dimension_audit=dimension_audit(tri.shape.grid.dim, tri.mode),
        masked_fraction=tri.masked_fraction,
        **rest,
    )


def resolve_elastography(
    tri: InvariantTriple,
    h1: ScalarField,
    amplitude_anchor: BoundaryTrace,
) -> ResolvedCoefficients:
    """Full resolution under ``d = 1``, ``b = 0``.

    The drift invariant reduces to ``2 ahat grad ln B``; integrating it
    with the boundary amplitude pins ``B``, and the scalar invariant
    then yields ``c = B div(ahat grad B) - B^2 q``.
    """
    grid = tri.shape.grid
    B_vals, v, q, curl_rel = _integrate_drift(tri, h1, amplitude_anchor, "amplitude")
    B = ScalarField(grid, B_vals)
    if float(np.min(B.values.real)) <= 0.0:
        raise PositivityError("recovered amplitude is not positive", stage="gauge")
    shape_lap_B, _ = _shape_applied_laplacian(tri.shape, tri.shape_divergence, B)
    c = ScalarField(
        grid, B.values * shape_lap_B.values - B.values**2 * q.values
    )
    a = SymTensorField(grid, B.values[..., None] ** 2 * tri.shape.values)
    report = _report(
        tri,
        "elastography",
        "none: the unit weight and vanishing drift pin both gauge "
        "functions, so (a, c) are determined",
        curl_residual=curl_rel,
    )
    return ResolvedCoefficients(
        report=report,
        a=a,
        b=VectorField.zero(grid),
        c=c,
        weight=ScalarField.constant(grid, 1.0),
        amplitude=B,
        flags=tri.degenerate.copy(),
        fields={"scalar_invariant": q, "gauged_reference": v},
    )


def resolve_qpat(
    tri: InvariantTriple,
    h1: ScalarField,
    gamma: ScalarField,
    ratio_anchor: BoundaryTrace,
    amplitude_anchor: BoundaryTrace,
    settings: SolverSettings | None = None,
) -> ResolvedCoefficients:
    """Resolution under ``b = 0``, ``d = gamma c`` with known ``gamma``.

    Integrating the drift invariant pins ``rho = B / (gamma c)``; the
    scalar invariant then closes a linear elliptic equation for the
    amplitude, ``div(ahat grad B) - q B = 1 / (gamma rho)``, solved with
    the known boundary amplitude.
    """
    grid = tri.shape.grid
    rho, _, q, curl_rel = _integrate_drift(tri, h1, ratio_anchor, "weight ratio")

    shape_real = SymTensorField(grid, tri.shape.values.real)
    coeffs = CoefficientSet(
        a=shape_real,
        b=VectorField.zero(grid),
        c=ScalarField(grid, -q.values),
    )
    source = ScalarField(grid, 1.0 / (gamma.values * rho))
    B = solve_dirichlet(coeffs, amplitude_anchor, source=source, settings=settings)
    if float(np.min(B.values.real)) <= 0.0:
        raise PositivityError(
            "recovered amplitude is not positive", stage="gauge"
        )
    c = ScalarField(grid, divide(B.values, gamma.values * rho))
    a = SymTensorField(grid, B.values[..., None] ** 2 * tri.shape.values)
    weight = ScalarField(grid, gamma.values * c.values)
    report = _report(
        tri,
        "qpat",
        "none: known gamma and boundary anchors pin both gauge "
        "functions, so (B, c) are determined",
        curl_residual=curl_rel,
    )
    return ResolvedCoefficients(
        report=report,
        a=a,
        b=VectorField.zero(grid),
        c=c,
        weight=weight,
        amplitude=B,
        gamma=gamma.copy(),
        flags=tri.degenerate.copy(),
        fields={"scalar_invariant": q, "weight_ratio": ScalarField(grid, rho)},
    )


def resolve_qtat(
    tri: InvariantTriple,
    h1: ScalarField,
    ratio_anchor: BoundaryTrace,
) -> ResolvedCoefficients:
    """Resolution under ``b = 0``, ``d = gamma Im(c) conj(u_1)``, real ``a``.

    The weight ratio ``B/d`` is complex; integrating the drift invariant
    recovers it and hence ``v = B u_1``.  With real ``a`` the imaginary
    part of the scalar invariant is ``-Im(c)/B^2`` while
    ``|H_1| / |v|^2 = gamma Im(c) / B^2``, so ``gamma`` follows by
    division wherever ``Im q`` is bounded away from zero.  Vertices with
    ``|Im q| < QTAT_IMAG_FLOOR * max|Im q|`` are flagged and left undefined.
    ``(B, c)`` stay a gauge pair; the reported representative
    ``B = 1, c = -q`` reproduces the invariant pair exactly.
    """
    grid = tri.shape.grid
    ratio, v, q, curl_rel = _integrate_drift(tri, h1, ratio_anchor, "weight ratio")

    kappa = ScalarField(grid, divide(h1.values, np.abs(v.values) ** 2))
    im_q = q.values.imag
    inside = tri.inside
    scale = float(np.max(np.abs(im_q[inside])))
    flags = np.abs(im_q) < QTAT_IMAG_FLOOR * max(scale, np.finfo(float).tiny)
    gamma_vals = np.where(flags, np.nan, -kappa.values.real / np.where(flags, 1.0, im_q))
    gamma = ScalarField(grid, gamma_vals)

    c_repr = ScalarField(grid, -q.values)
    report = _report(
        tri,
        "qtat",
        "(B, c) remain a gauge pair constrained by the invariant pair "
        "(gamma Im(c)/B^2, q); representative B = 1, c = -q attached",
        curl_residual=curl_rel,
        extras={
            "flagged_fraction": float(np.count_nonzero(flags & inside))
            / float(np.count_nonzero(inside))
        },
    )
    return ResolvedCoefficients(
        report=report,
        b=VectorField.zero(grid),
        gamma=gamma,
        flags=flags | tri.degenerate,
        fields={
            "scalar_invariant": q,
            "modality_invariant": kappa,
            "weight_ratio": ScalarField(grid, ratio),
            "amplitude_representative": ScalarField.constant(grid, 1.0),
            "c_representative": c_repr,
        },
    )


def resolve_generic(
    tri: InvariantTriple,
    h1: ScalarField,
    known_divergence: ScalarField,
    ratio_anchor: BoundaryTrace,
) -> ResolvedCoefficients:
    """Resolution with an arbitrary weight and a known ``div(a^{-1} b)``.

    With ``w = ahat^{-1} G = a^{-1} b + 2 grad ln(B/d)``, the known
    divergence of ``a^{-1} b`` closes a Poisson equation for the log
    weight ratio.  It pins ``B/d`` and hence ``a^{-1} b`` and the scalar
    invariant; ``(B, c, d)`` remain a gauge family.  The attached
    representative (``B = 1``) reproduces the data functionals exactly.
    """
    grid = tri.shape.grid
    dim = grid.dim
    inv = sym_inv(tri.shape.values, dim)
    w = consistent_rings(sym_matvec(inv, tri.vector_invariant.values, dim), grid)
    div_w = divergence(VectorField(grid, w))
    src = ScalarField(grid, 0.5 * (div_w.values - known_divergence.values))
    log_ratio = solve_poisson(_log_anchor(ratio_anchor, "weight ratio"), src).values

    ratio = via_complex(np.exp, log_ratio)
    grad_log = gradient(ScalarField(grid, log_ratio))
    drift_combo = VectorField(grid, w - 2.0 * grad_log.values)
    v, grad_v, q = _scalar_invariant(tri, h1, ratio)

    resid_field = divergence(drift_combo).values - known_divergence.values
    inside = tri.inside
    scale = float(np.max(np.abs(known_divergence.values[inside]))) + 1.0
    constraint_residual = float(np.max(np.abs(resid_field[inside]))) / scale

    # representative with unit amplitude: reproduces H_1 identically
    b_repr = VectorField(
        grid, sym_matvec(tri.shape.values, drift_combo.values, dim)
    )
    c_repr = ScalarField(
        grid,
        -q.values - divide(component_sum(b_repr.values * grad_v.values), v.values),
    )
    d_repr = ScalarField(grid, 1.0 / ratio)
    report = _report(
        tri,
        "generic",
        "(B, c, d) remain a gauge family constrained by the pair "
        "(B/d, q); representative with B = 1 attached",
        extras={"constraint_residual": constraint_residual},
    )
    return ResolvedCoefficients(
        report=report,
        flags=tri.degenerate.copy(),
        fields={
            "scalar_invariant": q,
            "weight_ratio": ScalarField(grid, ratio),
            "drift_combination": drift_combo,
            "amplitude_representative": ScalarField.constant(grid, 1.0),
            "shape_representative": tri.shape.copy(),
            "b_representative": b_repr,
            "c_representative": c_repr,
            "weight_representative": d_repr,
        },
    )


def _truth_triple(coeffs: CoefficientSet, weight: ScalarField):
    """Invariant triple evaluated directly from known coefficients."""
    grid = coeffs.grid
    dim = grid.dim
    B = amplitude_of(coeffs.a)
    shape = shape_of(coeffs.a)
    ratio = ScalarField(grid, divide(B.values, weight.values))
    grad_ratio = gradient(ratio)
    log_grad = divide(grad_ratio.values, ratio.values[..., None])
    G = VectorField(
        grid,
        divide(coeffs.b.values, B.values[..., None] ** 2)
        + 2.0 * sym_matvec(shape.values, log_grad, dim),
    )
    shape_lap_B, _ = _shape_applied_laplacian(shape, tensor_divergence(shape), B)
    Q = ScalarField(
        grid, divide(shape_lap_B.values, B.values) - divide(coeffs.c.values, B.values**2)
    )
    return shape, G, Q


def gauge_equivalent(
    first: tuple[CoefficientSet, ScalarField],
    second: tuple[CoefficientSet, ScalarField],
    tol: float = 1e-8,
    margin: int = 2,
) -> tuple[bool, dict]:
    """Decide whether two coefficient sets share the invariant triple.

    Each argument is ``(coefficients, weight)``.  The shape and drift
    invariants are always compared; the scalar invariant is compared in
    the drift-free reduction ``div(ahat grad B)/B - c/B^2`` and is
    skipped (reported as None) when either set carries a drift, since
    it is then only defined jointly with the drift data.
    """
    (ca, wa), (cb, wb) = first, second
    grid = ca.grid
    if not grid.compatible(cb.grid):
        raise ConfigurationError("coefficient sets live on different grids")
    inside = grid.interior(margin)
    shape_a, g_a, q_a = _truth_triple(ca, wa)
    shape_b, g_b, q_b = _truth_triple(cb, wb)

    def rel(diff, scale):
        top = float(np.max(diff[inside]))
        s = float(np.max(scale[inside]))
        return top / max(s, np.finfo(float).tiny)

    res = {
        "shape": rel(
            SymTensorField(grid, shape_a.values - shape_b.values).magnitude(),
            shape_a.magnitude(),
        ),
        "drift_invariant": rel(
            VectorField(grid, g_a.values - g_b.values).magnitude(),
            np.maximum(g_a.magnitude(), 1.0),
        ),
    }
    drift_free = (
        float(np.max(np.abs(ca.b.values))) <= 1e-12
        and float(np.max(np.abs(cb.b.values))) <= 1e-12
    )
    if drift_free:
        res["scalar_invariant"] = rel(
            np.abs(q_a.values - q_b.values),
            np.maximum(np.abs(q_a.values), 1.0),
        )
    else:
        res["scalar_invariant"] = None
    res["dimension_audit"] = dimension_audit(grid.dim)
    checked = [v for k, v in res.items() if isinstance(v, float)]
    return all(v <= tol for v in checked), res
