"""Dirichlet assembly and solve for the scalar elliptic operator."""

from __future__ import annotations

import itertools
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import dstn, idstn

from conftest import (
    bump,
    elastography_coefficients,
    laplace_coefficients,
    odd_spacing_grids,
    run_python,
    same_bits,
    scalar_tensor,
    traced_peak,
    unit_grid,
    workload_inputs,
)
from hiplab import forward
from hiplab.errors import AssemblyError, GridError, SolverFailure
from hiplab.forward import (
    BoundaryTrace,
    CoefficientSet,
    SolverSettings,
    assemble,
    residual,
    solve_dirichlet,
    solve_poisson,
    solve_traces,
)
from hiplab.grids import Grid, ScalarField, SymTensorField, VectorField, full_to_sym


def drift_coefficients(grid, b0, b1):
    base = laplace_coefficients(grid)
    vals = np.zeros(grid.shape + (2,))
    vals[..., 0] = b0
    vals[..., 1] = b1
    return CoefficientSet(a=base.a, b=VectorField(grid, vals), c=base.c)


class TestAssembly:
    def test_laplace_center_row_is_five_point(self):
        grid = unit_grid(5)
        system = assemble(laplace_coefficients(grid), [BoundaryTrace.from_expression(grid, "0")])
        row = system.matrix.toarray()[4] * grid.spacing[0] ** 2
        assert np.allclose(row, [0, 1, 0, 1, -4, 1, 0, 1, 0], atol=1e-12)

    def test_matrix_scales_with_diffusion(self):
        grid = unit_grid(5)
        base = laplace_coefficients(grid)
        doubled = CoefficientSet(
            a=SymTensorField(grid, base.a.values * 2.0), b=base.b, c=base.c
        )
        tr = BoundaryTrace.from_expression(grid, "0")
        m1 = assemble(base, [tr]).matrix.toarray()
        m2 = assemble(doubled, [tr]).matrix.toarray()
        assert np.allclose(m2, 2 * m1, atol=1e-12)

    def test_drift_perturbs_neighbors_by_centered_difference(self):
        grid = unit_grid(5)
        tr = BoundaryTrace.from_expression(grid, "0")
        plain = assemble(laplace_coefficients(grid), [tr]).matrix.toarray()
        with_b = assemble(drift_coefficients(grid, 1.0, 0.0), [tr]).matrix.toarray()
        delta = (with_b - plain)[4]
        # b0/(2h) = 2 lands on the axis-0 neighbors with opposite signs
        assert np.allclose(delta, [0, -2, 0, 0, 0, 0, 0, 2, 0], atol=1e-12)

    def test_mismatched_trace_grid_rejected(self):
        grid = unit_grid(5)
        other = unit_grid(9)
        with pytest.raises(GridError):
            assemble(
                laplace_coefficients(grid),
                [BoundaryTrace.from_expression(other, "0")],
            )


def index_table_assembly(coeffs, traces, source=None):
    """The interior system built from full-grid index tables, one column
    gather per offset: the reference for the bytes of :func:`assemble`."""
    grid = coeffs.grid
    shape = grid.shape
    core = forward._core_slice(shape, (0,) * grid.dim)
    stencil = forward._stencil(coeffs)

    flat_index = np.arange(grid.num_points).reshape(shape)
    boundary = grid.boundary_mask()
    interior_flat = flat_index[core].ravel()
    n_unknown = interior_flat.size
    unknown_id = np.full(grid.num_points, -1, dtype=np.int64)
    unknown_id[interior_flat] = np.arange(n_unknown)

    f_flat = np.stack([tr.values.ravel() for tr in traces], axis=1)
    weight_dtype = np.result_type(*stencil.values())
    rhs = np.zeros((n_unknown, len(traces)), dtype=np.result_type(weight_dtype, f_flat))
    if source is not None:
        rhs = rhs + source.values[core].reshape(-1, 1)

    column = {offset: k for k, offset in enumerate(sorted(stencil))}
    weights = np.empty((n_unknown, len(column)), dtype=weight_dtype)
    cols = np.empty((n_unknown, len(column)), dtype=np.int64)
    keep = np.empty((n_unknown, len(column)), dtype=bool)
    row_ids = np.arange(n_unknown)
    bnd_flat = boundary.ravel()
    for offset in list(stencil):
        w = stencil.pop(offset).ravel()
        col_flat = flat_index[forward._core_slice(shape, offset)].ravel()
        on_boundary = bnd_flat[col_flat]
        if np.any(on_boundary):
            rhs[row_ids[on_boundary]] -= (
                w[on_boundary, None] * f_flat[col_flat[on_boundary]]
            )
        k = column[offset]
        weights[:, k] = w
        cols[:, k] = unknown_id[col_flat]
        keep[:, k] = ~on_boundary & (w != 0)

    indptr = np.concatenate(([0], np.cumsum(np.count_nonzero(keep, axis=1))))
    matrix = sp.csr_matrix(
        (weights[keep], cols[keep], indptr), shape=(n_unknown, n_unknown)
    )
    return forward.LinearSystem(
        grid=grid, matrix=matrix, rhs=rhs, interior_flat=interior_flat
    )


def system_arrays(system):
    matrix = system.matrix
    return [matrix.data, matrix.indices, matrix.indptr, system.rhs, system.interior_flat]


def system_bytes(system):
    return sum(x.nbytes for x in system_arrays(system))


def random_operator(grid, rng, anisotropic, complex_c):
    """Random drift and reaction with scalar or rotated anisotropic ``a``."""
    dim = grid.dim
    scale = rng.uniform(1.0, 2.0, size=grid.shape)
    if anisotropic:
        rot, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        full = rot @ np.diag(np.geomspace(10.0, 0.1, dim)) @ rot.T
        a = SymTensorField(grid, full_to_sym(full, dim) * scale[..., None])
    else:
        a = scalar_tensor(grid, scale)
    c = rng.uniform(-0.5, 0.5, size=grid.shape)
    if complex_c:
        c = c + 1j * rng.uniform(0.1, 0.5, size=grid.shape)
    b = VectorField(grid, 0.3 * rng.normal(size=grid.shape + (dim,)))
    return CoefficientSet(a=a, b=b, c=ScalarField(grid, c))


class TestSlabAssembly:
    """The assembly from face slabs and strides builds the bytes the
    full-grid index tables built, with less memory."""

    @pytest.mark.parametrize(
        "shape, anisotropic, complex_c, with_source, count",
        [
            (shape, *flags)
            for shape in ((5, 9), (7, 5, 6))
            for flags in itertools.product(*[(False, True)] * 3, (1, 5))
        ],
    )
    def test_system_is_the_index_table_one(
        self, shape, anisotropic, complex_c, with_source, count
    ):
        bounds = tuple((0.0, 1.0 + 0.3 * p) for p in range(len(shape)))
        grid = Grid(bounds=bounds, shape=shape)
        rng = np.random.default_rng(len(shape) * 17 + count)
        coeffs = random_operator(grid, rng, anisotropic, complex_c)
        # odd traces are complex, so five traces mix the dtypes
        traces = []
        for j in range(count):
            values = rng.normal(size=shape)
            if j % 2:
                values = values + 1j * rng.normal(size=shape)
            traces.append(BoundaryTrace(grid, values))
        source = ScalarField(grid, rng.normal(size=shape)) if with_source else None
        got = assemble(coeffs, traces, source)
        ref = index_table_assembly(coeffs, traces, source)
        assert got.matrix.indices.dtype == np.int32
        assert got.matrix.indptr.dtype == np.int32
        for x, y in zip(system_arrays(got), system_arrays(ref)):
            assert same_bits(x, y)

    @pytest.mark.parametrize(
        "name, shape, bound",
        [
            # the index tables peaked at 2.71x and 4.41x; slabs at 1.61x and 2.65x
            ("qtat-2d-aniso", (129, 129), 1.8),
            ("elasto-3d", (25, 25, 25), 3.0),
        ],
    )
    def test_allocation_peak_is_a_small_multiple_of_the_system(self, name, shape, bound):
        _, coeffs, _, traces = workload_inputs(name, shape)
        system, peak = traced_peak(assemble, coeffs, traces)
        assert peak <= bound * system_bytes(system)


def with_vertex_matrix(grid, point, matrix):
    """Identity diffusion except ``matrix`` at one vertex."""
    base = laplace_coefficients(grid)
    matrix = np.asarray(matrix)
    vals = base.a.values.astype(np.result_type(base.a.values, matrix))
    vals[point] = full_to_sym(matrix, grid.dim)
    return CoefficientSet(a=SymTensorField(grid, vals), b=base.b, c=base.c)


class TestValidateSPD:
    @pytest.mark.parametrize(
        "matrix, lam_min",
        [
            ([[1.0, 2.0], [2.0, 1.0]], "-1.000e+00"),  # a11 > 0, det < 0
            ([[-2.0, 0.0], [0.0, 3.0]], "-2.000e+00"),  # a11 < 0, det < 0
            ([[0.0, 0.0], [0.0, 1.0]], "0.000e+00"),  # semidefinite
        ],
    )
    def test_two_dimensional_indefinite_vertex_is_named(self, matrix, lam_min):
        coeffs = with_vertex_matrix(unit_grid(7), (2, 3), matrix)
        with pytest.raises(AssemblyError, match=re.escape(f"vertex (2, 3): min eigenvalue {lam_min}")):
            coeffs.validate_spd()

    @pytest.mark.parametrize(
        "diagonal, lam_min",
        [
            # passes a11 > 0, det > 0 and the {2,3} minor; only the
            # leading {1,2} minor is negative
            ((1.0, -1.0, -1.0), "-1.000e+00"),
            ((1.0, 1.0, -0.5), "-5.000e-01"),  # only det < 0
        ],
    )
    def test_three_dimensional_indefinite_vertex_is_named(self, diagonal, lam_min):
        coeffs = with_vertex_matrix(unit_grid(5, dim=3), (1, 2, 3), np.diag(diagonal))
        with pytest.raises(AssemblyError, match=re.escape(f"vertex (1, 2, 3): min eigenvalue {lam_min}")):
            coeffs.validate_spd()

    def test_imaginary_part_is_named(self):
        coeffs = with_vertex_matrix(unit_grid(7), (4, 1), [[1.0, 0.5j], [0.5j, 1.0]])
        with pytest.raises(AssemblyError, match=re.escape("imaginary part 5.000e-01 at vertex (4, 1)")):
            coeffs.validate_spd()

    def test_first_bad_vertex_is_reported_and_assembly_refuses(self):
        grid = unit_grid(7)
        coeffs = with_vertex_matrix(grid, (5, 5), [[1.0, 2.0], [2.0, 1.0]])
        coeffs.a.values[3, 4] = full_to_sym(np.diag([1.0, -3.0]), 2)
        with pytest.raises(AssemblyError, match=re.escape("vertex (3, 4): min eigenvalue -3.000e+00")):
            assemble(coeffs, [BoundaryTrace.from_expression(grid, "0")])

    def test_rotated_anisotropic_matrices_pass(self):
        grid = unit_grid(9, dim=3)
        x = grid.meshgrid()[0].real
        rot, _ = np.linalg.qr(np.array([[1.0, 2.0, 0.5], [0.3, -1.0, 2.0], [1.5, 0.2, 1.0]]))
        full = rot @ np.diag([100.0, 1.0, 0.01]) @ rot.T
        vals = full_to_sym(full + 0j, 3) * (1.0 + x)[..., None]
        base = laplace_coefficients(grid)
        CoefficientSet(a=SymTensorField(grid, vals), b=base.b, c=base.c).validate_spd()


class TestSolve:
    def test_affine_data_reproduced_exactly(self):
        grid = unit_grid(9)
        coeffs = laplace_coefficients(grid)
        x, _ = grid.meshgrid()
        u = solve_dirichlet(coeffs, BoundaryTrace.from_expression(grid, "x"))
        assert np.max(np.abs(u.values - x)) < 1e-12
        one = solve_dirichlet(coeffs, BoundaryTrace.from_expression(grid, "1"))
        assert np.max(np.abs(one.values - 1.0)) < 1e-12

    def test_manufactured_solution_second_order(self):
        errs = []
        sizes = (17, 33, 65)
        for n in sizes:
            grid = unit_grid(n)
            x, y = grid.meshgrid()
            star = 2 + np.sin(np.pi * x) * np.sin(np.pi * y)
            lap = -2 * np.pi**2 * np.sin(np.pi * x) * np.sin(np.pi * y)
            gx = np.pi * np.cos(np.pi * x) * np.sin(np.pi * y)
            gy = np.pi * np.sin(np.pi * x) * np.cos(np.pi * y)
            cvals = -(lap + 0.3 * gx - 0.1 * gy) / star
            base = drift_coefficients(grid, 0.3, -0.1)
            coeffs = CoefficientSet(
                a=base.a, b=base.b, c=ScalarField(grid, cvals.astype(np.complex128))
            )
            u = solve_dirichlet(coeffs, BoundaryTrace(grid, star.astype(np.complex128)))
            errs.append(float(np.max(np.abs(u.values - star))))
        rates = [
            np.log(errs[k] / errs[k + 1]) / np.log(2.0) for k in range(len(errs) - 1)
        ]
        assert min(rates) >= 1.9

    def test_iterative_path_matches_direct(self):
        grid = unit_grid(17)
        coeffs = laplace_coefficients(grid)
        tr = BoundaryTrace.from_expression(grid, "x*y")
        direct = solve_dirichlet(coeffs, tr, settings=SolverSettings(method="direct"))
        iterative = solve_dirichlet(coeffs, tr)
        assert np.max(np.abs(direct.values - iterative.values)) < 1e-9


class TestResidual:
    def test_discrete_solution_has_tiny_residual(self):
        grid = unit_grid(17)
        coeffs = laplace_coefficients(grid)
        tr = BoundaryTrace.from_expression(grid, "x*y + 0.3*x")
        u = solve_dirichlet(coeffs, tr)
        assert residual(coeffs, u, tr) <= 1e-10

    def test_residual_grows_monotonically_with_perturbation(self):
        grid = unit_grid(17)
        coeffs = laplace_coefficients(grid)
        tr = BoundaryTrace.from_expression(grid, "x*y")
        u = solve_dirichlet(coeffs, tr)
        x, y = grid.meshgrid()
        bump = np.sin(np.pi * x) * np.sin(np.pi * y)
        last = residual(coeffs, u, tr)
        for eps in (1e-8, 1e-6, 1e-4):
            wrong = ScalarField(grid, u.values + eps * bump)
            nxt = residual(coeffs, wrong, tr)
            assert nxt > last
            last = nxt

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_row_sum_max_is_scipys_row_sum_bit_for_bit(self, dtype):
        """``_row_sum_max`` reduces ``|data|`` row by row without the
        index copies ``np.abs(matrix)`` makes; the pipeline's systems, a
        random matrix, one with empty rows, last row included, and one
        with no entry give the float SciPy's row sums give."""
        rng = np.random.default_rng(7)
        grid = unit_grid(19)
        coeffs = random_operator(grid, rng, anisotropic=True, complex_c=dtype is np.complex128)
        system = assemble(coeffs, [BoundaryTrace.from_expression(grid, "x")])
        random = sp.random(40, 30, density=0.2, format="csr", dtype=dtype, rng=rng)
        random.data *= rng.uniform(0.5, 2.0, random.nnz) * 10.0 ** rng.integers(-5, 5, random.nnz)
        holes = random.tolil()
        holes[[0, 3, 17, 39]] = 0
        holes = holes.tocsr()
        assert np.count_nonzero(np.diff(holes.indptr)) < holes.shape[0] - 3
        for matrix in (system.matrix, random, holes, sp.csr_matrix((4, 4), dtype=dtype)):
            assert matrix.data.dtype == dtype
            want = float(np.abs(matrix).sum(axis=1).max())
            got = forward._row_sum_max(matrix)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

    def test_sampled_continuum_solution_residual_is_second_order(self):
        vals = []
        for n in (17, 33, 65):
            grid = unit_grid(n)
            coeffs = laplace_coefficients(grid)
            x, y = grid.meshgrid()
            exact = np.sin(np.pi * x) * np.sinh(np.pi * y) / np.sinh(np.pi)
            tr = BoundaryTrace(grid, exact.astype(np.complex128))
            vals.append(
                residual(coeffs, ScalarField(grid, exact.astype(np.complex128)), tr)
            )
        rates = [
            np.log(vals[k] / vals[k + 1]) / np.log(2.0) for k in range(len(vals) - 1)
        ]
        assert min(rates) >= 1.9


def anisotropic_complex_coefficients(grid):
    """Anisotropic ``a`` with off-diagonal entries and a complex ``c``."""
    x, y = (m.real for m in grid.meshgrid())
    vals = np.zeros(grid.shape + (3,))
    vals[..., 0] = 4.0 + x
    vals[..., 1] = 1.0 + 0.5 * y
    vals[..., 2] = 0.6 * x * (1 - x) * y
    c = 0.5 + 0.2 * x + 1j * (0.7 + 0.3 * y)
    return CoefficientSet(
        a=SymTensorField(grid, vals), b=VectorField.zero(grid), c=ScalarField(grid, c)
    )


def relative_gap(first, second):
    return np.max(np.abs(first.values - second.values)) / np.max(np.abs(second.values))


class TestManyTraces:
    def test_matches_one_at_a_time_in_two_dimensions(self):
        grid = Grid(bounds=((0.0, 1.0), (0.0, 1.5)), shape=(17, 21))
        coeffs = anisotropic_complex_coefficients(grid)
        traces = [
            BoundaryTrace.from_expression(grid, src)
            for src in ("1", "x", "y", "x*y", "x^2 - y^2")
        ]
        source = ScalarField(grid, np.full(grid.shape, 0.3 - 0.1j))
        many = solve_traces(coeffs, traces, source)
        for u, tr in zip(many, traces):
            assert relative_gap(u, solve_dirichlet(coeffs, tr, source)) <= 1e-12

    def test_matches_one_at_a_time_in_three_dimensions(self):
        grid = unit_grid(9, dim=3)
        base = laplace_coefficients(grid)
        x, y, z = (m.real for m in grid.meshgrid())
        coeffs = CoefficientSet(
            a=SymTensorField(grid, base.a.values * (1 + 0.3 * x * y)[..., None]),
            b=base.b,
            c=ScalarField(grid, 0.5 + 0.2 * z),
        )
        traces = [
            BoundaryTrace.from_expression(grid, src)
            for src in ("1", "x", "y", "z", "x*y*z")
        ]
        for u, tr in zip(solve_traces(coeffs, traces), traces):
            assert relative_gap(u, solve_dirichlet(coeffs, tr)) <= 1e-12

    def test_iterative_over_several_traces(self):
        grid = unit_grid(17)
        coeffs = laplace_coefficients(grid)
        traces = [BoundaryTrace.from_expression(grid, s) for s in ("x*y", "x^2 - y^2")]
        direct = solve_traces(coeffs, traces, settings=SolverSettings(method="direct"))
        iterative = solve_traces(coeffs, traces)
        for d, it in zip(direct, iterative):
            assert np.max(np.abs(d.values - it.values)) < 1e-9

    def test_nan_source_raises_solver_failure(self):
        grid = unit_grid(9)
        src = np.zeros(grid.shape)
        src[4, 4] = np.nan
        with pytest.raises(SolverFailure):
            solve_dirichlet(
                laplace_coefficients(grid),
                BoundaryTrace.from_expression(grid, "x"),
                ScalarField(grid, src),
            )

    def test_minimum_grid(self):
        for dim in (2, 3):
            grid = unit_grid(5, dim=dim)
            traces = [BoundaryTrace.from_expression(grid, s) for s in ("1", "x", "x*y")]
            x, y = (m.real for m in grid.meshgrid()[:2])
            for u, exact in zip(
                solve_traces(laplace_coefficients(grid), traces), (1.0, x, x * y)
            ):
                assert np.max(np.abs(u.values - exact)) < 1e-12


class TestPoisson:
    def assembled(self, trace, source):
        coeffs = laplace_coefficients(trace.grid)
        return solve_dirichlet(coeffs, trace, source, SolverSettings(method="direct"))

    def test_matches_assembled_solve_on_a_rectangle(self):
        grid = Grid(bounds=((0.0, 1.0), (0.0, 2.0)), shape=(17, 33))
        x, y = (m.real for m in grid.meshgrid())
        trace = BoundaryTrace(grid, np.exp(x - 0.5 * y) + 1j * np.cos(x * y))
        source = ScalarField(grid, np.sin(3 * x) * y + 0.5j * x)
        got = solve_poisson(trace, source)
        assert relative_gap(got, self.assembled(trace, source)) <= 1e-12
        bmask = grid.boundary_mask()
        assert np.array_equal(got.values[bmask], trace.values[bmask])

    def test_matches_assembled_solve_in_three_dimensions(self):
        grid = Grid(bounds=((0.0, 1.0), (0.0, 0.5), (-1.0, 1.0)), shape=(9, 7, 11))
        x, y, z = (m.real for m in grid.meshgrid())
        trace = BoundaryTrace(grid, 1.0 + x * y - z**2 + 0.2j * np.sin(z))
        source = ScalarField(grid, x + y * z)
        got = solve_poisson(trace, source)
        assert relative_gap(got, self.assembled(trace, source)) <= 1e-12

    def test_minimum_grid(self):
        for dim in (2, 3):
            grid = unit_grid(5, dim=dim)
            trace = BoundaryTrace.from_expression(grid, "x*y + 2*i")
            source = ScalarField.constant(grid, 1.0)
            got = solve_poisson(trace, source)
            assert relative_gap(got, self.assembled(trace, source)) <= 1e-12

    def test_nan_source_raises_solver_failure(self):
        grid = unit_grid(9)
        src = np.zeros(grid.shape)
        src[4, 4] = np.nan
        with pytest.raises(SolverFailure):
            solve_poisson(
                BoundaryTrace.from_expression(grid, "x"), ScalarField(grid, src)
            )

    def test_mismatched_source_grid_rejected(self):
        with pytest.raises(GridError):
            solve_poisson(
                BoundaryTrace.from_expression(unit_grid(5), "x"),
                ScalarField.constant(unit_grid(9), 0.0),
            )


def rotated_anisotropic_coefficients(grid, ratio):
    """Constant ``a`` with eigenvalues ``ratio`` and 1, axes turned by 30 degrees."""
    cos, sin = np.cos(np.pi / 6), np.sin(np.pi / 6)
    vals = np.zeros(grid.shape + (3,))
    vals[..., 0] = ratio * cos**2 + sin**2
    vals[..., 1] = ratio * sin**2 + cos**2
    vals[..., 2] = (ratio - 1) * cos * sin
    return CoefficientSet(
        a=SymTensorField(grid, vals),
        b=VectorField.zero(grid),
        c=ScalarField.constant(grid, 0.5),
    )


def contrast_coefficients(grid, contrast):
    """Scalar ``a`` rising from 1 to ``contrast`` in a narrow bump."""
    return CoefficientSet(
        a=scalar_tensor(grid, bump(grid, (0.5, 0.5), 0.1, contrast - 1.0)),
        b=VectorField.zero(grid),
        c=ScalarField.constant(grid, 0.5),
    )


def box_coefficients(grid):
    x, y, z = (m.real for m in grid.meshgrid())
    return CoefficientSet(
        a=scalar_tensor(grid, 1.0 + 0.4 * x * y + 0.3 * z),
        b=VectorField.zero(grid),
        c=ScalarField(grid, 0.5 + 0.2 * x * z),
    )


class TestKrylov:
    @pytest.mark.parametrize(
        "coeffs",
        [
            rotated_anisotropic_coefficients(unit_grid(33), 10.0),
            contrast_coefficients(unit_grid(33), 10.0),
            anisotropic_complex_coefficients(unit_grid(33)),
            box_coefficients(unit_grid(9, dim=3)),
        ],
        ids=["rotated-anisotropy-10", "contrast-10", "complex-c", "3-d-box"],
    )
    def test_matches_direct(self, coeffs):
        grid = coeffs.grid
        traces = [BoundaryTrace.from_expression(grid, s) for s in ("1 + x", "exp(x)*cos(y)")]
        source = ScalarField(grid, np.full(grid.shape, 0.3 - 0.1j))
        direct = solve_traces(coeffs, traces, source, SolverSettings(method="direct"))
        krylov = solve_traces(coeffs, traces, source)
        for d, k in zip(direct, krylov):
            assert relative_gap(k, d) <= 1e-9

    def test_auto_falls_back_to_the_direct_solve(self, monkeypatch):
        monkeypatch.setattr(forward, "_AUTO_KRYLOV_BUDGET", 1)
        grid = unit_grid(17)
        coeffs = elastography_coefficients(grid)
        tr = BoundaryTrace.from_expression(grid, "x^2 - y^2")
        direct = solve_dirichlet(coeffs, tr, settings=SolverSettings(method="direct"))
        assert np.array_equal(solve_dirichlet(coeffs, tr).values, direct.values)

    def test_auto_budget_caps_the_krylov_solve(self, monkeypatch):
        monkeypatch.setattr(forward, "_AUTO_KRYLOV_BUDGET", 1)
        grid = unit_grid(17)
        coeffs = elastography_coefficients(grid)
        # the zero trace converges at once; the others need many iterations,
        # so from the first of them on the columns come from one LU solve
        traces = [
            BoundaryTrace.from_expression(grid, s) for s in ("0", "x^2 - y^2", "x*y")
        ]
        auto = solve_traces(coeffs, traces)
        direct = solve_traces(coeffs, traces, settings=SolverSettings(method="direct"))
        assert np.array_equal(auto[0].values, traces[0].values)
        for a, d in zip(auto[1:], direct[1:]):
            assert np.array_equal(a.values, d.values)

    def test_laplacian_converges_in_one_iteration(self, monkeypatch):
        # the preconditioner inverts the Laplacian exactly
        monkeypatch.setattr(forward, "_AUTO_KRYLOV_BUDGET", 1)
        grid = unit_grid(17)
        coeffs = laplace_coefficients(grid)
        tr = BoundaryTrace.from_expression(grid, "x^2 - y^2")
        direct = solve_dirichlet(coeffs, tr, settings=SolverSettings(method="direct"))

        def no_fallback(matrix, rhs):
            raise AssertionError("the Krylov solve fell back to LU")

        monkeypatch.setattr(forward, "_lu_solve", no_fallback)
        one = solve_dirichlet(coeffs, tr)
        assert relative_gap(one, direct) <= 1e-12

    @pytest.mark.parametrize("method", ["auto", "direct"])
    def test_non_finite_source_is_rejected_before_solving(self, method):
        grid = unit_grid(9)
        src = np.zeros(grid.shape, dtype=np.complex128)
        src[4, 4] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverFailure, match="non-finite"):
                solve_dirichlet(
                    elastography_coefficients(grid),
                    BoundaryTrace.from_expression(grid, "x"),
                    ScalarField(grid, src),
                    SolverSettings(method=method),
                )

    def test_scalar_diffusion_stores_no_zero_entries(self):
        grid = unit_grid(9)
        system = assemble(
            elastography_coefficients(grid), [BoundaryTrace.from_expression(grid, "x")]
        )
        assert np.all(system.matrix.data != 0)
        # the five-point stencil: every unknown and its interior neighbours
        n = 7
        assert system.matrix.nnz == n * n + 4 * n * (n - 1)

    def test_singular_factorization_is_a_solver_failure(self):
        # an empty row makes the matrix exactly singular
        matrix = sp.csr_matrix(
            np.array([[2.0, 1.0, 0.0], [0.0, 0.0, 0.0], [1.0, 0.0, 3.0]])
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(SolverFailure, match=r"factorization failed.*\(n=3\)"):
                forward._lu_solve(matrix, np.ones(3))


def scipy_bicgstab(matvec, psolve, b, rtol, maxiter):
    """SciPy's BiCGSTAB from a zero guess on the same operator and
    preconditioner."""
    n = b.size
    return spla.bicgstab(
        spla.LinearOperator((n, n), matvec=matvec, dtype=np.complex128),
        b,
        rtol=rtol,
        atol=0.0,
        maxiter=maxiter,
        M=spla.LinearOperator((n, n), matvec=psolve, dtype=np.complex128),
    )


def assert_bicgstab_is_scipys(matvec, psolve, b, rtol, maxiter):
    ref, ref_info = scipy_bicgstab(matvec, psolve, b.copy(), rtol, maxiter)
    got, info = forward._bicgstab(matvec, psolve, b.copy(), rtol, maxiter)
    assert info == ref_info
    assert got.dtype == ref.dtype == np.complex128
    assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    return info


def krylov_problem(coeffs, trace_values):
    """The operator, preconditioner and first right-hand side that
    ``solve_traces`` hands BiCGSTAB."""
    grid = coeffs.grid
    system = assemble(coeffs, [BoundaryTrace(grid, trace_values)])
    matvec, psolve = forward._krylov_operators(
        system, forward._mean_operator_eigenvalues(coeffs)
    )
    return matvec, psolve, system.rhs[:, 0].astype(np.complex128)


# a 2-D Krylov solve of 127^2 unknowns, printed as the SHA-256 of its bytes
SOLVE_129 = """
import hashlib
from hiplab import phantoms
from hiplab.forward import BoundaryTrace, CoefficientSet, solve_traces
from hiplab.grids import Grid, SymTensorField, VectorField

grid = Grid(bounds=((0.0, 1.0), (0.0, 1.0)), shape=(129, 129))
bump = phantoms.materialize_scalar("1 + 0.4*exp(-((x-0.5)^2+(y-0.5)^2)/0.08)", grid)
coeffs = CoefficientSet(
    a=SymTensorField(grid, SymTensorField.identity(grid).values * bump.values[..., None]),
    b=VectorField.zero(grid),
    c=phantoms.materialize_scalar("0.5 + 0.3*sin(2*x)*cos(2*y)", grid),
)
traces = [BoundaryTrace.from_expression(grid, s) for s in ("x^2 - y^2", "exp(x)*cos(y)")]
u = solve_traces(coeffs, traces)
print(hashlib.sha256(b"".join(f.values.tobytes() for f in u)).hexdigest())
"""


# SciPy ends each of these small systems with the info code named
BREAKDOWN_SYSTEMS = {
    0: ([[1, 0, -1], [-1, -2, -2], [-2, -2, 2]], [1, 2, 0]),
    -10: ([[0, 2, 1], [1, -1, 1], [-2, 0, 0]], [2, -2, 2]),
    -11: ([[2, 1], [1, 0]], [0, 2]),
    20: ([[0, 1, 0], [-1, -2, 0], [2, -2, 0]], [0, -2, 0]),
}


class TestBicgstab:
    """``forward._bicgstab`` is SciPy's BiCGSTAB bit for bit on systems of
    at most ``_DOT_CHUNK`` unknowns, and beyond that its bits do not
    follow the BLAS thread count."""

    @given(
        sample=odd_spacing_grids(),
        anisotropic=st.booleans(),
        complex_c=st.booleans(),
        zero_rhs=st.booleans(),
        maxiter=st.sampled_from([1, 2, 3, forward._AUTO_KRYLOV_BUDGET]),
    )
    @settings(max_examples=40, deadline=None)
    def test_matches_scipy_on_the_pipeline_systems(
        self, sample, anisotropic, complex_c, zero_rhs, maxiter
    ):
        grid, rng = sample
        # without a complex c the system is real, and its operators act
        # on the real parts
        coeffs = random_operator(grid, rng, anisotropic, complex_c)
        values = np.zeros(grid.shape) if zero_rhs else rng.normal(size=grid.shape)
        matvec, psolve, b = krylov_problem(coeffs, values)
        info = assert_bicgstab_is_scipys(
            matvec, psolve, b, forward._KRYLOV_TOLERANCE, maxiter
        )
        if zero_rhs:
            assert info == 0

    @pytest.mark.parametrize(
        "shape, anisotropic, complex_c",
        [((92, 92), True, True), ((92, 92), False, False), ((22, 22, 22), True, False)],
    )
    def test_matches_scipy_up_to_one_chunk(self, shape, anisotropic, complex_c):
        grid = Grid(bounds=((0.0, 1.0),) * len(shape), shape=shape)
        rng = np.random.default_rng(7)
        matvec, psolve, b = krylov_problem(
            random_operator(grid, rng, anisotropic, complex_c), rng.normal(size=shape)
        )
        assert 7900 < b.size <= forward._DOT_CHUNK
        info = assert_bicgstab_is_scipys(
            matvec, psolve, b, forward._KRYLOV_TOLERANCE, forward._AUTO_KRYLOV_BUDGET
        )
        assert info == 0

    @given(
        n=st.integers(1, 4),
        data=st.data(),
        maxiter=st.integers(1, 20),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_scipy_on_small_integer_systems(self, n, data, maxiter):
        """Small integer matrices break down often, so each of SciPy's
        exits is taken."""
        entries = st.integers(-2, 2)
        matrix = np.array(
            data.draw(st.lists(entries, min_size=n * n, max_size=n * n)), dtype=complex
        ).reshape(n, n)
        b = np.array(data.draw(st.lists(entries, min_size=n, max_size=n)), dtype=complex)
        with np.errstate(all="ignore"):
            assert_bicgstab_is_scipys(lambda v: matrix @ v, np.copy, b, 1e-12, maxiter)

    @pytest.mark.parametrize("expected", sorted(BREAKDOWN_SYSTEMS))
    def test_every_exit_code_is_scipys(self, expected):
        matrix, b = (np.array(x, dtype=complex) for x in BREAKDOWN_SYSTEMS[expected])
        with np.errstate(all="ignore"):
            info = assert_bicgstab_is_scipys(lambda v: matrix @ v, np.copy, b, 1e-12, 20)
        assert info == expected

    @given(n=st.integers(1, 3 * forward._DOT_CHUNK + 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_inner_products_sum_chunks_in_order(self, n, seed):
        rng = np.random.default_rng(seed)
        x, y = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
        chunk = forward._DOT_CHUNK
        if n <= chunk:
            vdot_ref, norm_ref = np.vdot(x, y), np.linalg.norm(x)
        else:
            starts = range(0, n, chunk)
            vdot_ref = sum(np.vdot(x[k : k + chunk], y[k : k + chunk]) for k in starts)
            norm_ref = np.sqrt(
                sum(np.dot(x.real[k : k + chunk], x.real[k : k + chunk]) for k in starts)
                + sum(np.dot(x.imag[k : k + chunk], x.imag[k : k + chunk]) for k in starts)
            )
        assert same_bits(np.asarray(forward._vdot(x, y)), np.asarray(vdot_ref))
        assert same_bits(np.asarray(forward._norm(x)), np.asarray(norm_ref))

    def test_solutions_do_not_follow_the_blas_thread_count(self):
        """A solve of 16 129 unknowns, past the 10 000 entries above which
        OpenBLAS splits a dot product over its threads, writes the same
        bytes on one thread and on two."""
        one, two = (run_python(SOLVE_129, OPENBLAS_NUM_THREADS=n) for n in ("1", "2"))
        assert len(one.strip()) == 64 and one == two


class TestRealArithmetic:
    """Real-valued systems are solved in real arithmetic and keep every
    bit of the complex path."""

    @given(sample=odd_spacing_grids(), shift=st.floats(-5.0, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_real_dst_solve_is_the_complex_one(self, sample, shift):
        grid, rng = sample
        shape = tuple(s - 2 for s in grid.shape)
        scales = rng.uniform(0.5, 2.0, size=grid.dim)
        rhs = rng.normal(size=shape)
        # solve_poisson passes real eigenvalues, the preconditioner complex ones
        eig = forward._dst_eigenvalues(shape, grid.spacing, scales) + shift
        for eig in (eig, eig + 0j):
            ref = idstn(dstn(rhs.astype(np.complex128), type=1) / eig, type=1)
            assert same_bits(forward._dst_solver(eig.real)(rhs), ref.real)

    @given(sample=odd_spacing_grids(), with_source=st.booleans())
    @settings(max_examples=20, deadline=None)
    def test_krylov_solve_of_real_coefficients_is_the_complex_one(
        self, sample, with_source
    ):
        grid, rng = sample
        dim = grid.dim
        a = np.zeros(grid.shape + (dim * (dim + 1) // 2,))
        a[..., :dim] = rng.uniform(1.0, 2.0, size=grid.shape + (dim,))
        a[..., dim:] = rng.uniform(-0.2, 0.2, size=grid.shape + (a.shape[-1] - dim,))
        coeffs = CoefficientSet(
            a=SymTensorField(grid, a),
            b=VectorField(grid, 0.3 * rng.normal(size=grid.shape + (dim,))),
            c=ScalarField(grid, rng.uniform(-0.5, 0.5, size=grid.shape)),
        )
        traces = [BoundaryTrace(grid, rng.normal(size=grid.shape)) for _ in range(2)]
        source = ScalarField(grid, rng.normal(size=grid.shape)) if with_source else None
        got = solve_traces(coeffs, traces, source)

        system = assemble(coeffs, traces, source)
        eig = forward._mean_operator_eigenvalues(coeffs)
        precond = spla.LinearOperator(
            system.matrix.shape,
            matvec=lambda v: idstn(dstn(v.reshape(eig.shape), type=1) / eig, type=1).ravel(),
            dtype=np.complex128,
        )
        for j, u in enumerate(got):
            ref, info = spla.bicgstab(
                system.matrix.astype(np.complex128),
                system.rhs[:, j].astype(np.complex128),
                rtol=forward._KRYLOV_TOLERANCE,
                atol=0.0,
                maxiter=forward._AUTO_KRYLOV_BUDGET,
                M=precond,
            )
            assert info == 0
            x = u.values.ravel()[system.interior_flat]
            assert same_bits(x.real, ref.real)
            assert np.array_equal(x, ref)
