"""Invariant triple assembly and the four modality resolvers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import bump, laplace_coefficients, unit_grid
from hiplab import gauge
from hiplab.errors import ConfigurationError, PositivityError, ReconstructionAbort
from hiplab.forward import BoundaryTrace, CoefficientSet, solve_dirichlet
from hiplab.gauge import (
    InvariantTriple,
    amplitude_of,
    gauge_equivalent,
    integrate_gradient,
    invariant_triple,
    resolve_elastography,
    resolve_generic,
    resolve_qpat,
    resolve_qtat,
    shape_of,
)
from hiplab.grids import (
    ScalarField,
    SymTensorField,
    VectorField,
    divergence,
    gradient,
    sym_identity,
    sym_matvec,
    sym_to_full,
    tensor_divergence,
)
from hiplab.phantoms import materialize_scalar
from hiplab.recon import reconstruct
from hiplab.synthesis import MeasurementSet, Modality, synthesize

QUINTET = ("1", "x", "y", "x*y", "x^2 - y^2")
OFFSET_QUINTET = (
    "2",
    "2 + 0.3*x",
    "2 + 0.3*y",
    "2 + 0.3*x*y",
    "2 + 0.3*(x^2 - y^2)",
)


def harmonic_measurements(grid):
    return MeasurementSet(
        grid=grid,
        modality="elastography",
        traces=[BoundaryTrace.from_expression(grid, s) for s in QUINTET],
        functionals=[materialize_scalar(s, grid) for s in QUINTET],
        weight=materialize_scalar("1", grid),
    )


def synthetic_triple(coeffs, modality, grid, traces=OFFSET_QUINTET):
    ms = synthesize(
        coeffs, modality, [BoundaryTrace.from_expression(grid, s) for s in traces]
    )
    nc = reconstruct(ms)
    return ms, invariant_triple(nc, ms.functionals[0])


class TestAmplitudeAndShape:
    def test_constant_diagonal_oracle(self):
        grid = unit_grid(5)
        avals = np.zeros(grid.shape + (3,))
        avals[..., 0] = 4.0
        avals[..., 1] = 1.0
        a = SymTensorField(grid, avals)
        B = amplitude_of(a)
        ahat = shape_of(a)
        # a = B^2 ahat with det(ahat) = 1, so B = det(a)^(1/4) in 2-D
        assert np.allclose(B.values, np.sqrt(2.0), atol=1e-13)
        full = sym_to_full(ahat.values, 2)
        assert np.allclose(full, np.array([[2.0, 0.0], [0.0, 0.5]]), atol=1e-13)

    def test_decomposition_round_trip(self):
        grid = unit_grid(9)
        rng = np.random.default_rng(2)
        m = rng.normal(size=grid.shape + (2, 2))
        spd = m @ np.swapaxes(m, -1, -2) + 2 * np.eye(2)
        avals = np.stack([spd[..., 0, 0], spd[..., 1, 1], spd[..., 0, 1]], axis=-1)
        a = SymTensorField(grid, avals)
        B = amplitude_of(a)
        ahat = shape_of(a)
        dets = np.linalg.det(sym_to_full(ahat.values, 2))
        assert np.allclose(dets, 1.0, atol=1e-12)
        rebuilt = B.values[..., None] ** 2 * ahat.values
        assert np.allclose(rebuilt, avals, atol=1e-10)


class TestIntegrateGradient:
    def test_recovers_potential_from_its_gradient(self):
        grid = unit_grid(33)
        x, y = grid.meshgrid()
        phi = np.sin(np.pi * x) * np.cos(np.pi * y) + 2.0
        F = VectorField(
            grid,
            np.stack(
                [
                    np.pi * np.cos(np.pi * x) * np.cos(np.pi * y),
                    -np.pi * np.sin(np.pi * x) * np.sin(np.pi * y),
                ],
                axis=-1,
            ).astype(np.complex128),
        )
        psi, curl_rel = integrate_gradient(
            F, BoundaryTrace(grid, phi.astype(np.complex128)), grid.interior(2)
        )
        inside = grid.interior(2)
        assert np.max(np.abs(psi.values - phi)[inside]) < 5e-3
        assert curl_rel < 0.01

    def test_quadratic_potential_is_exact(self):
        grid = unit_grid(17)
        x, y = grid.meshgrid()
        phi = x**2 - y**2 + 0.5 * x * y + 3.0
        F = gradient(ScalarField(grid, phi.astype(np.complex128)))
        psi, curl_rel = integrate_gradient(
            F, BoundaryTrace(grid, phi.astype(np.complex128)), grid.interior(2)
        )
        assert np.max(np.abs(psi.values - phi)) < 1e-10
        assert curl_rel < 1e-12

    def test_rotational_field_reports_large_curl(self):
        grid = unit_grid(33)
        x, y = grid.meshgrid()
        F = VectorField(grid, np.stack([-y, x], axis=-1).astype(np.complex128))
        _, curl_rel = integrate_gradient(
            F, BoundaryTrace.from_expression(grid, "0"), grid.interior(2)
        )
        assert curl_rel > 0.5

    def test_three_dimensional_curl_separates_rotation_from_gradients(self):
        grid = unit_grid(9, dim=3)
        x, y, z = grid.meshgrid()
        zero = BoundaryTrace.from_expression(grid, "0")
        rotation = VectorField(grid, np.stack([-y, x, 0.0 * z], axis=-1))
        _, curl_rel = integrate_gradient(rotation, zero, grid.interior(2))
        assert curl_rel > 0.5
        phi = x**2 - 2 * y * z + 0.5 * x * z + 3 * y
        gradient_field = gradient(ScalarField(grid, phi))
        _, curl_rel = integrate_gradient(gradient_field, zero, grid.interior(2))
        assert curl_rel < 1e-12


class TestDimensionAudit:
    @pytest.mark.parametrize(
        "dim, mode, counts",
        [(2, "scalar", (3, 5)), (2, "matrix", (5, 7)), (3, "matrix", (9, 11))],
    )
    def test_counts_follow_the_reconstruction_mode(self, dim, mode, counts):
        audit = gauge.dimension_audit(dim, mode)
        assert (audit["invariant_functions"], audit["coefficient_functions"]) == counts
        assert audit["gauge_functions"] == 2
        assert audit["statement"].startswith(
            f"{counts[0]} reconstructed invariant functions determine the "
            f"{counts[1]} coefficient functions"
        )


class TestInvariantTriple:
    def test_harmonic_quintet_is_flat(self):
        grid = unit_grid(17)
        ms = harmonic_measurements(grid)
        tri = invariant_triple(reconstruct(ms), ms.functionals[0])
        inside = grid.interior(2)
        shape = sym_to_full(tri.shape.values, 2)
        assert np.max(np.abs(shape[inside] - np.eye(2))) < 1e-8
        assert np.max(np.abs(tri.vector_invariant.values[inside])) < 1e-8
        assert tri.masked_fraction == 0.0

    def test_exponential_amplitude_drift_invariant(self):
        errs = []
        for n in (17, 33):
            grid = unit_grid(n)
            base = laplace_coefficients(grid)
            avals = base.a.values * np.exp(2 * grid.meshgrid()[0])[..., None]
            coeffs = CoefficientSet(
                a=SymTensorField(grid, avals), b=base.b, c=base.c
            )
            _, tri = synthetic_triple(
                coeffs, Modality.generic(materialize_scalar("1", grid)), grid
            )
            inside = grid.interior(2)
            expect = np.zeros(grid.shape + (2,))
            expect[..., 0] = 2.0
            errs.append(
                float(np.max(np.abs(tri.vector_invariant.values - expect)[inside]))
            )
        assert errs[0] < 0.1
        assert errs[0] / errs[1] > 3.0

    def test_degenerate_vertices_are_filled_and_flagged(self):
        grid = unit_grid(17)
        ms = harmonic_measurements(grid)
        nc = reconstruct(ms)
        inner = [(5, 7), (8, 8), (10, 4)]
        outer = [(0, 3), (1, 9), (16, 16)]
        degenerate = np.zeros(grid.shape, dtype=bool)
        for vertex in inner + outer:
            degenerate[vertex] = True
        # the analysis leaves NaN at the vertices it flags
        diffusion = nc.diffusion.values.copy()
        drift = nc.drift.values.copy()
        diffusion[degenerate] = np.nan
        drift[degenerate] = np.nan
        nc = dataclasses.replace(
            nc,
            diffusion=SymTensorField(grid, diffusion),
            drift=VectorField(grid, drift),
            degenerate=degenerate,
        )
        tri = invariant_triple(nc, ms.functionals[0])
        assert np.all(np.isfinite(tri.shape.values))
        assert np.all(np.isfinite(tri.vector_invariant.values))
        for vertex in inner:
            assert np.array_equal(tri.shape.values[vertex], sym_identity(2))
        assert tri.masked_fraction == len(inner) / np.count_nonzero(nc.inside)
        res = resolve_elastography(
            tri, ms.functionals[0], BoundaryTrace.from_expression(grid, "1")
        )
        assert np.array_equal(res.flags, degenerate)

    def test_mostly_degenerate_interior_aborts(self):
        grid = unit_grid(9)
        ms = MeasurementSet(
            grid=grid,
            modality="generic",
            traces=[
                BoundaryTrace.from_expression(grid, s)
                for s in ("1", "x", "y", "x*y", "2*x*y")
            ],
            functionals=[
                materialize_scalar(s, grid)
                for s in ("1", "x", "y", "x*y", "2*x*y")
            ],
            weight=materialize_scalar("1", grid),
        )
        nc = reconstruct(ms)
        with pytest.raises(ReconstructionAbort):
            invariant_triple(nc, ms.functionals[0])


class TestGaugeEquivalent:
    def flat_set(self, grid):
        base = laplace_coefficients(grid)
        return (
            CoefficientSet(
                a=base.a, b=base.b, c=materialize_scalar("0.3", grid)
            ),
            materialize_scalar("1 + 0.2*x", grid),
        )

    def test_identical_sets_match_with_zero_residual(self):
        grid = unit_grid(17)
        first = self.flat_set(grid)
        ok, report = gauge_equivalent(first, first)
        assert ok
        assert report["shape"] == 0.0
        assert report["drift_invariant"] == 0.0
        assert report["scalar_invariant"] == 0.0

    def test_constant_rescaling_stays_equivalent(self):
        grid = unit_grid(17)
        (c1, w1) = self.flat_set(grid)
        lam = 2.0
        c2 = CoefficientSet(
            a=SymTensorField(grid, c1.a.values * lam**2),
            b=c1.b,
            c=ScalarField(grid, c1.c.values * lam**2),
        )
        w2 = ScalarField(grid, w1.values * lam)
        ok, report = gauge_equivalent((c1, w1), (c2, w2))
        assert ok
        assert report["shape"] <= 1e-12
        assert report["scalar_invariant"] <= 1e-12

    def test_changing_absorption_alone_breaks_the_third_slot(self):
        grid = unit_grid(17)
        (c1, w1) = self.flat_set(grid)
        c3 = CoefficientSet(
            a=c1.a, b=c1.b, c=ScalarField(grid, c1.c.values + 0.1)
        )
        ok, report = gauge_equivalent((c1, w1), (c3, w1))
        assert not ok
        assert report["shape"] <= 1e-12
        assert report["drift_invariant"] <= 1e-12
        assert report["scalar_invariant"] > 0.05

    def test_mismatched_grids_rejected(self):
        first = self.flat_set(unit_grid(17))
        second = self.flat_set(unit_grid(9))
        with pytest.raises(ConfigurationError):
            gauge_equivalent(first, second)


SMOOTH = st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4)


def smooth_positive(grid, coef) -> np.ndarray:
    """``exp`` of a quadratic whose four coefficients are ``coef``."""
    x, y = (m.real for m in grid.meshgrid())
    c0, c1, c2, c3 = coef
    return np.exp(c0 * x + c1 * y + c2 * x * y + c3 * (x**2 - y**2))


class TestGaugeEquivalentProperty:
    """Random two-function gauge transforms keep the invariant triple.

    A transform rescales ``a`` by ``phi^2`` and the weight by ``psi``.
    The new drift and absorption are solved for from the first set's
    drift and scalar invariants with the same discrete operators the
    comparison applies, so the triples agree to rounding and the
    default tolerance holds.
    """

    def base(self, grid, drift=0.0):
        x, y = grid.meshgrid()
        a = np.stack([1 + 0.3 * x, 1 + 0.2 * y, 0.1 * x * y], axis=-1)
        coeffs = CoefficientSet(
            a=SymTensorField(grid, a),
            b=VectorField(grid, drift * np.stack([y, -x], axis=-1)),
            c=ScalarField(grid, 0.5 + 0.2 * x),
        )
        return coeffs, ScalarField(grid, 1 + 0.2 * x)

    def transform(self, first, phi, psi, with_drift):
        coeffs, weight = first
        grid = coeffs.grid
        _, G, Q = gauge._truth_triple(coeffs, weight)
        a = SymTensorField(grid, phi[..., None] ** 2 * coeffs.a.values)
        d = ScalarField(grid, psi * weight.values)
        B = gauge.amplitude_of(a)
        shape = gauge.shape_of(a)
        b = VectorField.zero(grid)
        if with_drift:
            ratio = ScalarField(grid, B.values / d.values)
            log_grad = gradient(ratio).values / ratio.values[..., None]
            b = VectorField(
                grid,
                B.values[..., None] ** 2
                * (G.values - 2.0 * sym_matvec(shape.values, log_grad, 2)),
            )
        lap, _ = gauge._shape_applied_laplacian(shape, tensor_divergence(shape), B)
        c = ScalarField(grid, B.values * lap.values - B.values**2 * Q.values)
        return CoefficientSet(a=a, b=b, c=c), d

    @settings(max_examples=15, deadline=None)
    @given(SMOOTH)
    def test_drift_free_transform_keeps_all_three_invariants(self, coef):
        grid = unit_grid(17)
        first = self.base(grid)
        phi = smooth_positive(grid, coef)
        ok, report = gauge_equivalent(
            first, self.transform(first, phi, phi, with_drift=False)
        )
        assert ok, report
        assert report["scalar_invariant"] is not None

    @settings(max_examples=15, deadline=None)
    @given(SMOOTH, SMOOTH)
    def test_transform_with_drift_keeps_shape_and_drift_invariant(
        self, coef_phi, coef_psi
    ):
        grid = unit_grid(17)
        first = self.base(grid, drift=0.1)
        second = self.transform(
            first,
            smooth_positive(grid, coef_phi),
            smooth_positive(grid, coef_psi),
            with_drift=True,
        )
        ok, report = gauge_equivalent(first, second)
        assert ok, report
        assert report["scalar_invariant"] is None

    def test_perturbed_absorption_fails(self):
        grid = unit_grid(17)
        first = self.base(grid)
        phi = smooth_positive(grid, (0.4, -0.3, 0.2, 0.1))
        coeffs, d = self.transform(first, phi, phi, with_drift=False)
        perturbed = CoefficientSet(
            a=coeffs.a,
            b=coeffs.b,
            c=ScalarField(
                grid, coeffs.c.values + 0.1 * bump(grid, (0.5, 0.5), 0.05, 1.0)
            ),
        )
        ok, report = gauge_equivalent(first, (perturbed, d))
        assert not ok
        assert report["shape"] <= 1e-8
        assert report["drift_invariant"] <= 1e-8
        assert report["scalar_invariant"] > 1e-3


class TestResolveElastography:
    def test_flat_phantom_recovered_exactly(self):
        grid = unit_grid(33)
        ms = harmonic_measurements(grid)
        tri = invariant_triple(reconstruct(ms), ms.functionals[0])
        res = resolve_elastography(
            tri, ms.functionals[0], BoundaryTrace.from_expression(grid, "1")
        )
        inside = grid.interior(2)
        assert np.max(np.abs(res.amplitude.values[inside] - 1.0)) < 1e-10
        assert np.max(np.abs(res.c.values[inside])) < 1e-10
        assert res.report.curl_residual < 1e-10
        assert res.report.modality == "elastography"

    def test_rotational_drift_invariant_reports_curl(self):
        grid = unit_grid(33)
        x, y = grid.meshgrid()
        tri = InvariantTriple(
            shape=SymTensorField.identity(grid),
            vector_invariant=VectorField(
                grid, np.stack([-y, x], axis=-1).astype(np.complex128)
            ),
            inside=grid.interior(2),
            degenerate=np.zeros(grid.shape, dtype=bool),
            masked_fraction=0.0,
        )
        res = resolve_elastography(
            tri,
            materialize_scalar("1", grid),
            BoundaryTrace.from_expression(grid, "1"),
        )
        assert res.report.curl_residual > 0.5

    def test_negative_amplitude_anchor_is_not_positive(self):
        grid = unit_grid(17)
        ms = harmonic_measurements(grid)
        tri = invariant_triple(reconstruct(ms), ms.functionals[0])
        with pytest.raises(PositivityError, match="amplitude is not positive"):
            resolve_elastography(
                tri, ms.functionals[0], BoundaryTrace.from_expression(grid, "-1")
            )

    def test_vanishing_amplitude_anchor_rejected(self):
        grid = unit_grid(17)
        ms = harmonic_measurements(grid)
        tri = invariant_triple(reconstruct(ms), ms.functionals[0])
        with pytest.raises(ConfigurationError):
            resolve_elastography(
                tri, ms.functionals[0], BoundaryTrace.from_expression(grid, "0")
            )


class TestResolveQpat:
    def qpat_setup(self, grid, gamma_src="1"):
        base = laplace_coefficients(grid)
        coeffs = CoefficientSet(
            a=base.a, b=base.b, c=materialize_scalar("1", grid)
        )
        gamma = materialize_scalar(gamma_src, grid)
        ms, tri = synthetic_triple(coeffs, Modality.qpat(gamma), grid)
        return ms, tri, gamma

    def test_constant_phantom_close_to_truth(self):
        grid = unit_grid(33)
        ms, tri, gamma = self.qpat_setup(grid)
        res = resolve_qpat(
            tri,
            ms.functionals[0],
            gamma,
            BoundaryTrace.from_expression(grid, "1"),
            BoundaryTrace.from_expression(grid, "1"),
        )
        inside = grid.interior(2)
        assert np.max(np.abs(res.amplitude.values[inside] - 1.0)) < 1e-3
        assert np.max(np.abs(res.c.values[inside] - 1.0)) < 1e-3

    def test_negative_amplitude_anchor_is_not_positive(self):
        grid = unit_grid(17)
        ms, tri, gamma = self.qpat_setup(grid)
        with pytest.raises(PositivityError, match="amplitude is not positive"):
            resolve_qpat(
                tri,
                ms.functionals[0],
                gamma,
                BoundaryTrace.from_expression(grid, "1"),
                BoundaryTrace.from_expression(grid, "-1"),
            )

    def test_misdeclared_gamma_rescales_absorption(self):
        """Declaring twice the true calibration halves the recovered c.

        The weight-ratio anchor here is data-side (independent of the
        declared calibration), so the declared factor propagates into
        the recovered absorption instead of cancelling.
        """
        grid = unit_grid(33)
        ms, tri, _ = self.qpat_setup(grid)
        wrong = materialize_scalar("2", grid)
        res = resolve_qpat(
            tri,
            ms.functionals[0],
            wrong,
            BoundaryTrace.from_expression(grid, "1"),
            BoundaryTrace.from_expression(grid, "1"),
        )
        inside = grid.interior(2)
        c_rec = res.c.values[inside].real
        assert np.max(np.abs(c_rec - 1.0)) > 0.4
        assert np.max(np.abs(c_rec - 0.5)) < 0.05


class TestResolveQtat:
    def qtat_resolution(self, n):
        grid = unit_grid(n)
        base = laplace_coefficients(grid)
        coeffs = CoefficientSet(
            a=base.a,
            b=base.b,
            c=ScalarField(grid, np.full(grid.shape, 1.0 + 1.0j)),
        )
        gamma = materialize_scalar("1", grid)
        traces = [BoundaryTrace.from_expression(grid, s) for s in OFFSET_QUINTET]
        ms = synthesize(coeffs, Modality.qtat(gamma), traces)
        nc = reconstruct(ms)
        tri = invariant_triple(nc, ms.functionals[0])
        u1 = solve_dirichlet(coeffs, traces[0])
        d_bnd = gamma.values * coeffs.c.values.imag * np.conj(u1.values)
        res = resolve_qtat(
            tri,
            ms.functionals[0],
            BoundaryTrace(grid, (1.0 / d_bnd).astype(np.complex128)),
        )
        return grid, res

    def test_unit_calibration_recovered_and_converging(self):
        errs = []
        for n in (33, 65):
            grid, res = self.qtat_resolution(n)
            # margin 4 skips the rebuilt rings whose one-sided constants
            # dominate the sup error without converging
            inside = grid.interior(4) & ~res.flags
            errs.append(float(np.max(np.abs(res.gamma.values[inside] - 1.0))))
            assert not res.flags[grid.interior(2)].any()
            assert np.allclose(res.gamma.values[inside].imag, 0.0)
        assert errs[0] < 1e-3
        assert errs[0] / errs[1] > 2.5

    def test_representatives_reproduce_the_invariant_pair(self):
        grid, res = self.qtat_resolution(33)
        inside = grid.interior(4) & ~res.flags
        B = res.fields["amplitude_representative"].values
        c_rep = res.fields["c_representative"].values
        mi = res.fields["modality_invariant"].values
        q = res.fields["scalar_invariant"].values
        first = res.gamma.values * c_rep.imag / B.real**2
        assert np.nanmax(np.abs(first - mi)[inside]) < 1e-12
        div_term = divergence(
            VectorField(grid, gradient(ScalarField(grid, B)).values)
        ).values
        second = div_term / B - c_rep / B**2
        assert np.nanmax(np.abs(second - q)[inside]) < 1e-10


class TestResolveGeneric:
    def test_zero_drift_reduces_to_elastography(self):
        grid = unit_grid(33)
        base = laplace_coefficients(grid)
        coeffs = CoefficientSet(
            a=base.a, b=base.b, c=materialize_scalar("0.5", grid)
        )
        ms, tri = synthetic_triple(
            coeffs, Modality.generic(materialize_scalar("1", grid)), grid
        )
        known_divergence = ScalarField(
            grid, np.zeros(grid.shape, dtype=np.complex128)
        )
        res = resolve_generic(
            tri,
            ms.functionals[0],
            known_divergence,
            BoundaryTrace.from_expression(grid, "1"),
        )
        elast = resolve_elastography(
            tri, ms.functionals[0], BoundaryTrace.from_expression(grid, "1")
        )
        inside = grid.interior(2)
        ratio = res.fields["weight_ratio"].values
        assert np.max(np.abs(ratio[inside] - elast.amplitude.values[inside])) < 1e-12
        assert np.max(np.abs(res.fields["drift_combination"].values[inside])) < 2e-3

    def test_gradient_drift_recovered_second_order(self):
        errs = []
        for n in (17, 33):
            grid = unit_grid(n)
            base = laplace_coefficients(grid)
            x, y = grid.meshgrid()
            phi = 0.2 * np.sin(np.pi * x) * np.sin(np.pi * y)
            bvals = np.stack(
                [
                    0.2 * np.pi * np.cos(np.pi * x) * np.sin(np.pi * y),
                    0.2 * np.pi * np.sin(np.pi * x) * np.cos(np.pi * y),
                ],
                axis=-1,
            )
            coeffs = CoefficientSet(
                a=base.a,
                b=VectorField(grid, bvals.astype(np.complex128)),
                c=base.c,
            )
            ms, tri = synthetic_triple(
                coeffs, Modality.generic(materialize_scalar("1", grid)), grid
            )
            known_divergence = ScalarField(
                grid, (-2 * np.pi**2 * phi).astype(np.complex128)
            )
            res = resolve_generic(
                tri,
                ms.functionals[0],
                known_divergence,
                BoundaryTrace.from_expression(grid, "1"),
            )
            inside = grid.interior(2)
            errs.append(
                float(
                    np.max(
                        np.abs(
                            res.fields["drift_combination"].values - bvals
                        )[inside]
                    )
                )
            )
        assert errs[0] < 0.01
        assert errs[0] / errs[1] > 3.0

    def test_varying_weight_round_trip(self):
        grid = unit_grid(33)
        base = laplace_coefficients(grid)
        x, _ = grid.meshgrid()
        d = 1.0 + 0.5 * x
        ms, tri = synthetic_triple(
            base, Modality.generic(ScalarField(grid, d.astype(np.complex128))), grid
        )
        known_divergence = ScalarField(
            grid, np.zeros(grid.shape, dtype=np.complex128)
        )
        res = resolve_generic(
            tri,
            ms.functionals[0],
            known_divergence,
            BoundaryTrace(grid, (1.0 / d).astype(np.complex128)),
        )
        inside = grid.interior(2)
        ratio = res.fields["weight_ratio"].values
        assert np.max(np.abs(ratio - 1.0 / d)[inside]) < 1e-5
        # pushing the resolved ratio forward must reproduce the drift
        # invariant: G = a^-1 b + 2 ahat grad ln(B/d) with b = 0, ahat = I
        log_grad = gradient(
            ScalarField(grid, np.log(ratio.real).astype(np.complex128))
        ).values
        err = np.abs(2.0 * log_grad - tri.vector_invariant.values)
        assert np.max(err[inside]) < 1e-3
