"""Grid containers, derivative stencils, and symmetric-matrix storage."""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import odd_spacing_grids, same_bits, unit_grid
from hiplab.errors import ConfigurationError, GridError
from hiplab.grids import (
    Grid,
    ScalarField,
    SymTensorField,
    VectorField,
    _diff,
    component_sum,
    consistent_rings,
    divergence,
    full_to_sym,
    gradient,
    hessian,
    jacobian,
    principal_root,
    read_field,
    sym_apply,
    sym_det,
    sym_dot,
    sym_inv,
    sym_matvec,
    sym_to_full,
    sym_trace,
    tensor_divergence,
    write_field,
)


class TestGrid:
    def test_unit_square_spacing(self):
        grid = Grid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(5, 5))
        assert grid.spacing == (0.25, 0.25)

    def test_anisotropic_spacing(self):
        grid = Grid(bounds=((-1.0, 1.0), (0.0, 2.0)), shape=(11, 21))
        assert grid.spacing == pytest.approx((0.2, 0.1))

    def test_too_few_points_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(4, 5))

    def test_degenerate_interval_rejected(self):
        with pytest.raises(ConfigurationError):
            Grid(bounds=((0.0, 0.0), (0.0, 1.0)), shape=(5, 5))

    def test_interior_mask_point_counts(self):
        grid = unit_grid(5)
        assert int(grid.interior(1).sum()) == 9
        assert int(grid.interior(2).sum()) == 1

    def test_interior_margin_too_large(self):
        grid = unit_grid(5)
        with pytest.raises(ConfigurationError):
            grid.interior(3)

    def test_field_shape_mismatch_rejected(self):
        grid = unit_grid(5)
        with pytest.raises(GridError):
            ScalarField(grid, np.zeros((5, 6)))


class TestDerivatives:
    def test_gradient_linear_exact_everywhere(self):
        grid = unit_grid(9)
        x, _ = grid.meshgrid()
        g = gradient(ScalarField(grid, x))
        assert np.allclose(g.values[..., 0], 1.0, atol=1e-13)
        assert np.allclose(g.values[..., 1], 0.0, atol=1e-13)

    def test_gradient_quadratic_exact_at_center(self):
        grid = unit_grid(9)
        x, _ = grid.meshgrid()
        g = gradient(ScalarField(grid, x**2))
        mid = (4, 4)
        assert g.values[mid][0] == pytest.approx(1.0, abs=1e-13)

    def test_gradient_second_order_rate(self):
        errs = []
        for n in (17, 33):
            grid = unit_grid(n)
            x, y = grid.meshgrid()
            g = gradient(ScalarField(grid, np.sin(x) * np.cos(y)))
            exact = np.stack(
                [np.cos(x) * np.cos(y), -np.sin(x) * np.sin(y)], axis=-1
            )
            inside = grid.interior(1)
            errs.append(np.max(np.abs(g.values - exact)[inside]))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    def test_hessian_bilinear_and_quadratic_exact(self):
        grid = unit_grid(9)
        x, y = grid.meshgrid()
        inside = grid.interior(1)
        h_xy = sym_to_full(hessian(ScalarField(grid, x * y)).values, 2)
        assert np.allclose(h_xy[inside], np.array([[0.0, 1.0], [1.0, 0.0]]), atol=1e-12)
        h_xx = sym_to_full(hessian(ScalarField(grid, x**2)).values, 2)
        assert np.allclose(h_xx[inside], np.array([[2.0, 0.0], [0.0, 0.0]]), atol=1e-12)

    @pytest.mark.parametrize(
        "bounds, shape",
        [
            (((0.0, 1.0), (-1.0, 2.0)), (17, 12)),
            (((0.0, 1.0), (0.0, 2.0), (-1.0, 0.5)), (7, 9, 8)),
        ],
    )
    def test_hessian_with_shared_gradient_is_bitwise_the_standalone_call(
        self, bounds, shape
    ):
        grid = Grid(bounds=bounds, shape=shape)
        rng = np.random.default_rng(len(shape))
        f = ScalarField(grid, rng.normal(size=shape) + 1j * rng.normal(size=shape))
        shared = hessian(f, gradient(f)).values
        alone = hessian(f).values
        assert np.array_equal(shared.view(np.float64), alone.view(np.float64))

    def test_hessian_second_order_rate(self):
        errs = []
        for n in (17, 33):
            grid = unit_grid(n)
            x, y = grid.meshgrid()
            h = sym_to_full(hessian(ScalarField(grid, np.exp(x + y))).values, 2)
            exact = np.exp(x + y)[..., None, None] * np.ones((2, 2))
            inside = grid.interior(1)
            errs.append(np.max(np.abs(h - exact)[inside]))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_divergence_of_position_field(self):
        grid = unit_grid(9)
        x, y = grid.meshgrid()
        d = divergence(VectorField(grid, np.stack([x, y], axis=-1)))
        assert np.allclose(d.values, 2.0, atol=1e-12)

    def test_tensor_divergence_identity_is_zero(self):
        grid = unit_grid(9)
        td = tensor_divergence(SymTensorField.identity(grid))
        assert np.allclose(td.values, 0.0, atol=1e-13)

    def test_tensor_divergence_quadratic_entries(self):
        grid = unit_grid(9)
        x, y = grid.meshgrid()
        full = np.empty(grid.shape + (2, 2))
        full[..., 0, 0] = x**2
        full[..., 0, 1] = x * y
        full[..., 1, 0] = x * y
        full[..., 1, 1] = y**2
        td = tensor_divergence(SymTensorField(grid, full_to_sym(full, 2)))
        inside = grid.interior(1)
        expect = np.stack([3 * x, 3 * y], axis=-1)
        assert np.allclose(td.values[inside], expect[inside], atol=1e-11)

    def test_curl_detects_rotation_and_kills_gradients(self):
        grid = unit_grid(17)
        x, y = grid.meshgrid()
        jac = jacobian(VectorField(grid, np.stack([-y, x], axis=-1)))
        # the curl d0 F1 - d1 F0 is the antisymmetric part of the Jacobian
        assert np.allclose(jac[..., 1, 0] - jac[..., 0, 1], 2.0, atol=1e-12)
        assert np.allclose(jac[..., 1, 0] + jac[..., 0, 1], 0.0, atol=1e-12)
        jac = jacobian(gradient(ScalarField(grid, np.sin(x) * np.cos(y))))
        inside = grid.interior(1)
        asym = jac - np.swapaxes(jac, -1, -2)
        assert np.max(np.abs(asym[inside])) < 1e-3

    @pytest.mark.parametrize("dim", [2, 3])
    def test_jacobian_trace_is_the_divergence_bit_for_bit(self, dim):
        bounds = ((0.0, 1.0), (-0.5, 1.5), (0.2, 0.9))[:dim]
        grid = Grid(bounds=bounds, shape=(9, 11, 7)[:dim])
        rng = np.random.default_rng(5)
        vals = rng.normal(size=grid.shape + (dim, 2)).view(np.complex128)[..., 0]
        F = VectorField(grid, vals)
        jac = jacobian(F)
        trace = np.zeros(grid.shape, dtype=np.complex128)
        for ax in range(dim):
            trace += jac[..., ax, ax]
        assert np.array_equal(trace, divergence(F).values)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_jacobian_entries_are_single_component_derivatives_bit_for_bit(self, dim, dtype):
        # the stacked pass over all components gives each entry the bits of
        # its own single-component stencil, and numpy's on complex data
        bounds = ((0.0, 1.0), (-0.5, 1.5), (0.2, 0.9))[:dim]
        grid = Grid(bounds=bounds, shape=(9, 11, 7)[:dim])
        rng = np.random.default_rng(7)
        vals = rng.normal(size=grid.shape + (dim, 2)).view(np.complex128)[..., 0]
        if dtype is np.float64:
            vals = vals.real.copy()
        jac = jacobian(VectorField(grid, vals))
        for i in range(dim):
            for j, h in enumerate(grid.spacing):
                assert same_bits(jac[..., i, j], _diff(vals[..., i], j, h))
                if dtype is np.complex128:
                    ref = np.gradient(vals[..., i], h, axis=j, edge_order=2)
                    assert same_bits(jac[..., i, j], ref)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_jacobian_takes_one_stencil_call_per_axis(self, dim, monkeypatch):
        from hiplab import grids

        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return _diff(*args, **kwargs)

        monkeypatch.setattr(grids, "_diff", counted)
        grid = unit_grid(9, dim=dim)
        jacobian(VectorField.zero(grid))
        assert calls == list(range(dim))

    def test_three_dimensional_stencils(self):
        grid = unit_grid(7, dim=3)
        x, y, z = grid.meshgrid()
        g = gradient(ScalarField(grid, x * y * z))
        inside = grid.interior(1)
        assert np.allclose(g.values[inside][:, 0], (y * z)[inside], atol=1e-12)


@st.composite
def grid_samples(draw, imaginary: bool):
    """Complex128 samples on an odd-spacing grid, real-valued unless
    ``imaginary``.  Quantized draws bring exact ties and zeros; negative
    zeros are cleared, since the complex path may return ``+0`` where
    real arithmetic keeps ``-0``."""
    grid, rng = draw(odd_spacing_grids())
    scale = 2.0 ** draw(st.integers(-20, 20))
    parts = rng.normal(size=(2,) + grid.shape) * scale
    if draw(st.booleans()):
        parts = np.round(parts * (4.0 / scale)) * (scale / 4.0)
    parts = parts + 0.0
    values = parts[0] + 1j * parts[1] if imaginary else parts[0].astype(np.complex128)
    assume(values.imag.any() == imaginary)
    return grid, values


def divided_second_diff(values: np.ndarray, axis: int, h: float) -> np.ndarray:
    """The pure second difference in quotient form, as numpy divides it."""
    v = np.moveaxis(values, axis, 0)
    out = np.empty_like(v)
    out[1:-1] = (v[:-2] - 2.0 * v[1:-1] + v[2:]) / h**2
    out[0] = (2.0 * v[0] - 5.0 * v[1] + 4.0 * v[2] - v[3]) / h**2
    out[-1] = (2.0 * v[-1] - 5.0 * v[-2] + 4.0 * v[-3] - v[-4]) / h**2
    return np.moveaxis(out, 0, axis)


class TestRealArithmetic:
    """Real-valued data are differentiated in real arithmetic and keep
    every bit of the complex path."""

    @given(sample=grid_samples(imaginary=True))
    @settings(max_examples=60, deadline=None)
    def test_first_diff_is_numpy_gradient_on_complex_data(self, sample):
        grid, values = sample
        for ax, h in enumerate(grid.spacing):
            ref = np.gradient(values, h, axis=ax, edge_order=2)
            assert same_bits(_diff(values, ax, h), ref)
            assert same_bits(_diff(values, ax, h, second=True), divided_second_diff(values, ax, h))

    @given(sample=grid_samples(imaginary=False))
    @settings(max_examples=60, deadline=None)
    def test_real_valued_data_give_the_real_part_of_the_complex_path(self, sample):
        grid, values = sample
        real = values.real.copy()
        grad = gradient(ScalarField(grid, values)).values
        assert not grad.imag.any()
        for ax, h in enumerate(grid.spacing):
            first = _diff(real, ax, h)
            assert same_bits(first, _diff(values, ax, h).real)
            assert same_bits(first, np.gradient(values, h, axis=ax, edge_order=2).real)
            assert same_bits(first, grad[..., ax].real)
            second = _diff(real, ax, h, second=True)
            assert same_bits(second, _diff(values, ax, h, second=True).real)
            assert same_bits(second, divided_second_diff(values, ax, h).real)


class TestSymmetricStorage:
    def rng_spd(self, dim, count=64, seed=3):
        rng = np.random.default_rng(seed)
        m = rng.normal(size=(count, dim, dim))
        spd = m @ np.swapaxes(m, -1, -2) + 3 * np.eye(dim)
        return spd

    @pytest.mark.parametrize("dim", [2, 3])
    def test_round_trip_and_linear_algebra(self, dim):
        spd = self.rng_spd(dim)
        sym = full_to_sym(spd, dim)
        assert np.allclose(sym_to_full(sym, dim), spd)
        assert np.allclose(sym_det(sym, dim), np.linalg.det(spd))
        assert np.allclose(sym_trace(sym, dim), np.trace(spd, axis1=-2, axis2=-1))
        inv = sym_to_full(sym_inv(sym, dim), dim)
        assert np.allclose(inv, np.linalg.inv(spd))

    @pytest.mark.parametrize("dim", [2, 3])
    def test_matvec_and_trace_pairing(self, dim):
        rng = np.random.default_rng(5)
        spd = self.rng_spd(dim)
        sym = full_to_sym(spd, dim)
        vec = rng.normal(size=(spd.shape[0], dim))
        assert np.allclose(
            sym_matvec(sym, vec, dim), np.einsum("kij,kj->ki", spd, vec)
        )
        other = self.rng_spd(dim, seed=9)
        pairing = sym_dot(sym, full_to_sym(other, dim), dim)
        assert np.allclose(
            pairing, np.trace(spd @ other, axis1=-2, axis2=-1)
        )


class TestComponentSum:
    @pytest.mark.parametrize("count", [2, 3])
    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_bitwise_equal_to_numpy_sum(self, count, dtype):
        rng = np.random.default_rng(count)
        shape = (33, 17, count)

        def draw():
            # magnitudes spread over many binades, so rounding order shows
            return rng.normal(size=shape) * 2.0 ** rng.integers(-40, 40, size=shape)

        x = draw() if dtype is np.float64 else draw() + 1j * draw()
        got = component_sum(x)
        ref = np.sum(x, axis=-1)
        assert got.dtype == ref.dtype
        assert np.array_equal(
            np.atleast_1d(got).view(np.float64), np.atleast_1d(ref).view(np.float64)
        )

    def test_six_real_components_bitwise_equal(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(257, 6)) * 2.0 ** rng.integers(-40, 40, size=(257, 6))
        assert np.array_equal(component_sum(x), np.sum(x, axis=-1))


class TestPrincipalRoot:
    @pytest.mark.parametrize("k", [2, 3, 4, 6])
    def test_matches_the_complex_power_and_its_branch_cut(self, k):
        rng = np.random.default_rng(k)
        z = rng.normal(size=512) + 1j * rng.normal(size=512)
        # the negative real axis, approached from both sides
        z[:4] = [-2.0 + 0.0j, complex(-2.0, -0.0), -0.5 + 1e-300j, -0.5 - 1e-300j]
        got = principal_root(z, k)
        ref = np.power(z, 1.0 / k)
        assert np.all(np.abs(got - ref) <= 4 * np.finfo(float).eps * np.abs(ref))
        assert np.all(np.abs(np.angle(got)) <= np.pi / k * (1 + 4 * np.finfo(float).eps))


@st.composite
def complex_symmetric(draw, dim):
    """Complex symmetric (not Hermitian) matrix, strictly diagonally
    dominant by at least 1, so it is invertible and well conditioned."""
    entry = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    full = np.empty((dim, dim), dtype=np.complex128)
    for i in range(dim):
        full[i, i] = draw(entry) + (dim + 1)
        for j in range(i + 1, dim):
            full[i, j] = full[j, i] = draw(entry)
    return full


class TestSymmetricStorageProperties:
    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    def test_inverse_and_determinant_match_numpy(self, dim, data):
        full = data.draw(complex_symmetric(dim))
        sym = full_to_sym(full, dim)
        assert np.array_equal(sym_to_full(sym, dim), full)
        assert np.isclose(sym_det(sym, dim), np.linalg.det(full), rtol=1e-12, atol=0)
        inv = sym_to_full(sym_inv(sym, dim), dim)
        assert np.allclose(inv, np.linalg.inv(full), rtol=1e-12, atol=1e-13)


    @pytest.mark.parametrize("dim", [2, 3])
    @given(data=st.data())
    def test_matvec_in_triangle_storage_matches_full_storage(self, dim, data):
        """Entry-by-entry products agree with expanding to full storage
        and contracting, to a few ulps of the summed magnitudes."""
        full = data.draw(complex_symmetric(dim)) * 2.0 ** data.draw(st.integers(-30, 30))
        entry = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
        vec = np.array([data.draw(entry) for _ in range(dim)])
        sym = full_to_sym(full, dim)
        ref = np.einsum("...ij,...j->...i", sym_to_full(sym, dim), vec)
        tiny = 8 * np.finfo(float).smallest_subnormal
        bound = 8 * np.finfo(float).eps * (np.abs(full) @ np.abs(vec)) + tiny
        assert np.all(np.abs(sym_matvec(sym, vec, dim) - ref) <= bound)
        parts = sym_apply(sym, list(vec), dim)
        assert np.all(np.abs(np.array(parts) - ref) <= bound)


class TestConsistentRings:
    def test_polynomials_reproduced_exactly(self):
        grid = unit_grid(17)
        x, y = grid.meshgrid()
        for f in (np.ones(grid.shape), x + 2 * y, x**2 - y**2 + x * y):
            out = consistent_rings(f, grid)
            assert np.allclose(out, f, atol=1e-12)

    def test_one_sided_ring_error_reduced(self):
        """Rebuilt rings must beat the one-sided stencil rows.

        The gradient of a smooth field carries an O(h^2) error whose
        constant jumps on the outer rows; extrapolating those rows from
        centered ones leaves a smaller and smoother residual there.
        """
        grid = unit_grid(33)
        x, y = grid.meshgrid()
        f = ScalarField(grid, np.sin(2 * x) * np.cos(y))
        exact = 2 * np.cos(2 * x) * np.cos(y)
        raw = gradient(f).values[..., 0]
        fixed = consistent_rings(raw, grid)
        edge = np.zeros(grid.shape, dtype=bool)
        edge[:2], edge[-2:], edge[:, :2], edge[:, -2:] = True, True, True, True
        assert np.max(np.abs(fixed - exact)[edge]) < np.max(np.abs(raw - exact)[edge])
        interior = ~edge
        assert np.array_equal(fixed[interior], raw[interior])

    def test_short_axis_left_untouched(self):
        grid = Grid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(5, 17))
        rng = np.random.default_rng(0)
        f = rng.normal(size=grid.shape)
        out = consistent_rings(f, grid)
        # 5 points cannot host two rings plus a stencil: axis 0 is kept,
        # so a middle column keeps even its first and last entries
        assert np.array_equal(out[:, 8], f[:, 8])
        assert not np.array_equal(out[2], f[2])

    def test_component_axes_handled(self):
        grid = unit_grid(17)
        x, y = grid.meshgrid()
        vec = np.stack([x**2, y**2], axis=-1)
        out = consistent_rings(vec, grid)
        assert out.shape == vec.shape
        assert np.allclose(out, vec, atol=1e-12)

    @pytest.mark.parametrize(
        "shape, poly",
        [
            ((9, 7), lambda x, y: x**2 - 3 * x * y + 2 * y + 1),
            ((9, 6), lambda x, y: x**2 - 3 * x * y + 2 * y + 1),
            ((7, 8, 9), lambda x, y, z: x**2 - 3 * x * y + 2 * y + y * z - z**2 + 1),
            ((7, 8, 6), lambda x, y, z: x**2 - 3 * x * y + 2 * y + y * z - 2 * z + 1),
        ],
        ids=["2d", "2d-six-point-axis", "3d", "3d-six-point-axis"],
    )
    def test_integer_polynomials_reproduced_bit_for_bit(self, shape, poly):
        """On unit spacing the ring weights are exact integers: a quadratic
        with integer values, linear along any 6-point axis, comes back
        unchanged."""
        grid = Grid(bounds=tuple((0.0, n - 1.0) for n in shape), shape=shape)
        f = poly(*grid.meshgrid())
        assert np.array_equal(consistent_rings(f, grid), f)

    @given(sample=odd_spacing_grids(), components=st.sampled_from([(), (3,)]))
    @settings(max_examples=30, deadline=None)
    def test_real_input_is_the_complex_real_part(self, sample, components):
        grid, rng = sample
        f = rng.normal(size=grid.shape + components)
        got = consistent_rings(f, grid)
        ref = consistent_rings(f.astype(np.complex128), grid)
        assert same_bits(got, np.ascontiguousarray(ref.real))


class TestFieldIO:
    @pytest.mark.parametrize("kind", ["scalar", "vector", "sym"])
    def test_round_trip_bit_exact(self, kind, tmp_path):
        grid = unit_grid(9)
        rng = np.random.default_rng(12)
        if kind == "scalar":
            fld = ScalarField(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
        elif kind == "vector":
            fld = VectorField(grid, rng.normal(size=grid.shape + (2,)))
        else:
            fld = SymTensorField(grid, rng.normal(size=grid.shape + (3,)))
        path = str(tmp_path / "field.bin")
        write_field(fld, path)
        back = read_field(path)
        assert type(back) is type(fld)
        assert np.array_equal(back.values, fld.values)
        assert back.grid.bounds == grid.bounds
        assert back.grid.shape == grid.shape

    def test_three_dimensional_round_trip(self, tmp_path):
        grid = unit_grid(5, dim=3)
        fld = ScalarField(grid, np.arange(125, dtype=float).reshape(grid.shape))
        path = str(tmp_path / "cube.bin")
        write_field(fld, path)
        assert np.array_equal(read_field(path).values, fld.values)


class TestFieldIOProperties:
    @given(
        data=st.data(),
        shape=st.lists(st.integers(5, 7), min_size=2, max_size=3),
        kind=st.sampled_from(["scalar", "vector", "sym"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_any_values_round_trip_bit_exact(self, data, shape, kind):
        # every value survives bit for bit, NaN, infinities and signed zeros included
        dim = len(shape)
        lo = data.draw(st.floats(-10, 10))
        grid = Grid(bounds=tuple((lo, lo + 1.5 + k) for k in range(dim)), shape=tuple(shape))
        comps = {"scalar": (), "vector": (dim,), "sym": (dim * (dim + 1) // 2,)}[kind]
        values = data.draw(arrays(np.complex128, tuple(shape) + comps))
        cls = {"scalar": ScalarField, "vector": VectorField, "sym": SymTensorField}[kind]
        fld = cls(grid, values)
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "field.bin")
            write_field(fld, path)
            back = read_field(path)
        assert type(back) is cls
        # the payload is <c16 whatever the storage; a real field reads
        # back where every imaginary part is +0.0
        payload = np.asarray(fld.values, dtype="<c16").tobytes()
        assert np.asarray(back.values, dtype="<c16").tobytes() == payload
        real = not values.imag.view(np.uint64).any()
        assert back.values.dtype == (np.float64 if real else np.complex128)
        assert back.grid == grid
