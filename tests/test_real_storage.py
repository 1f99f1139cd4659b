"""Real storage: real data are float64 and keep the complex path's bits.

Each property compares a real evaluation with the real part of the same
evaluation on complex128 input, which is how every field was computed
when all storage was complex.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import odd_spacing_grids, same_bits
from hiplab import forward, gauge, phantoms, studies
from hiplab.config import parse_config
from hiplab.forward import BoundaryTrace, CoefficientSet, SolverSettings, solve_traces
from hiplab.metrics import error_norms
from hiplab.synthesis import synthesize
from hiplab.grids import Grid, ScalarField, SymTensorField, VectorField, principal_root

coefficient = st.floats(0.1, 3.0)

# spacings that are not powers of two, so quotients round
ODD_GRID = Grid(bounds=((0.0, 1.3), (0.0, 0.7)), shape=(9, 11))


def complex_evaluation(src: str, grid) -> np.ndarray:
    """The expression evaluated over complex128 coordinates."""
    env = dict(zip("xyz", (m.astype(np.complex128) for m in grid.meshgrid())))
    return np.broadcast_to(phantoms.evaluate(phantoms.parse(src), env), grid.shape)


class TestSources:
    @given(
        sample=odd_spacing_grids(),
        form=st.sampled_from(
            ["sqrt({p}*x + {q})", "exp({p}*x - {q}*y)", "({p}*x + {q})^{r}", "({p}*y + {q})^3"]
        ),
        p=coefficient,
        q=coefficient,
        r=st.floats(0.05, 2.95).filter(lambda r: r != round(r)),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_materialization_is_the_complex_real_part(self, sample, form, p, q, r):
        grid, _ = sample
        src = form.format(p=repr(p), q=repr(q), r=repr(r))
        got = phantoms.materialize_scalar(src, grid).values
        ref = complex_evaluation(src, grid)
        assert not ref.imag.any()
        assert same_bits(got, np.ascontiguousarray(ref.real))

    @given(sample=odd_spacing_grids(), p=coefficient, q=coefficient)
    @settings(max_examples=30, deadline=None)
    def test_log_anchor_is_the_complex_real_part(self, sample, p, q):
        grid, _ = sample
        x = grid.meshgrid()[0]
        anchor = BoundaryTrace(grid, p * x + q)
        assert anchor.values.dtype == np.float64
        got = gauge._log_anchor(anchor, "test").values
        assert same_bits(got, np.log(anchor.values + 0j).real)

    @pytest.mark.parametrize("src", ["sqrt(x - 0.5)", "(x - 0.5)^0.5", "(x - 0.5)^1.5"])
    def test_out_of_domain_input_stays_complex_and_finite(self, src):
        grid = ODD_GRID
        got = phantoms.materialize_scalar(src, grid).values
        assert got.dtype == np.complex128
        assert np.isfinite(got).all()
        assert same_bits(got, np.ascontiguousarray(complex_evaluation(src, grid)))

    def test_negative_log_anchor_stays_complex(self):
        grid = ODD_GRID
        anchor = BoundaryTrace(grid, grid.meshgrid()[0] - 0.5)
        got = gauge._log_anchor(anchor, "test").values
        assert got.dtype == np.complex128
        assert same_bits(got, np.log(anchor.values + 0j))


class TestPrincipalRoot:
    @given(
        values=st.lists(st.floats(0.0, 1e6), min_size=1, max_size=50),
        k=st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_root_is_the_complex_real_part(self, values, k):
        z = np.array(values)
        got = principal_root(z, k)
        ref = principal_root(z + 0j, k)
        assert not ref.imag.any()
        assert same_bits(got, np.ascontiguousarray(ref.real))

    @given(
        values=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=50).filter(
            lambda v: min(v) < 0
        ),
        k=st.sampled_from([2, 3, 4]),
    )
    @settings(max_examples=60, deadline=None)
    def test_negative_determinant_gives_the_complex_root(self, values, k):
        # taken on the upper side of the cut, as the complex evaluation
        # of a zero imaginary part +0.0 takes it
        z = np.array(values)
        got = principal_root(z, k)
        assert got.dtype == np.complex128
        assert np.isfinite(got).all()
        assert same_bits(got, principal_root(z + 0j, k))


def random_coefficients(grid, rng, as_complex: bool) -> CoefficientSet:
    dim = grid.dim
    a = np.zeros(grid.shape + (dim * (dim + 1) // 2,))
    a[..., :dim] = rng.uniform(1.0, 2.0, size=grid.shape + (dim,))
    a[..., dim:] = rng.uniform(-0.2, 0.2, size=grid.shape + (a.shape[-1] - dim,))
    b = 0.3 * rng.normal(size=grid.shape + (dim,))
    c = rng.uniform(-0.5, 0.5, size=grid.shape)
    cast = (lambda v: v.astype(np.complex128)) if as_complex else (lambda v: v)
    return CoefficientSet(
        a=SymTensorField(grid, cast(a)),
        b=VectorField(grid, cast(b)),
        c=ScalarField(grid, cast(c)),
    )


def real_and_complex(sample, with_source):
    """The same coefficients, traces and source, stored real and complex."""
    grid, rng = sample
    seed = int(rng.integers(2**32))
    out = []
    for as_complex in (False, True):
        rng = np.random.default_rng(seed)
        coeffs = random_coefficients(grid, rng, as_complex)
        traces = [BoundaryTrace(grid, rng.normal(size=grid.shape)) for _ in range(2)]
        source = ScalarField(grid, rng.normal(size=grid.shape)) if with_source else None
        if as_complex:
            # a trace stores real values as float64, so they are cast after
            for tr in traces:
                tr.values = tr.values.astype(np.complex128)
            if source is not None:
                source = ScalarField(grid, source.values.astype(np.complex128))
        out.append((coeffs, traces, source))
    return out


class TestForward:
    @given(sample=odd_spacing_grids(), with_source=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_real_assembly_is_the_complex_real_part(self, sample, with_source):
        real, cplx = real_and_complex(sample, with_source)
        assert real[1][0].values.dtype == np.float64
        assert cplx[1][0].values.dtype == np.complex128
        got = forward._assemble(*real)
        ref = forward._assemble(*cplx)
        assert got.matrix.dtype == np.float64 and got.rhs.dtype == np.float64
        assert ref.matrix.dtype == np.complex128
        # the CSR arrays are canonical: one entry per nonzero, columns
        # ascending in each row, as a dense round trip lays them out
        canonical = sp.csr_matrix(ref.matrix.toarray())
        assert same_bits(got.matrix.data, np.ascontiguousarray(canonical.data.real))
        assert np.array_equal(got.matrix.indices, canonical.indices)
        assert np.array_equal(got.matrix.indptr, canonical.indptr)
        assert same_bits(got.matrix.data, np.ascontiguousarray(ref.matrix.data.real))
        assert same_bits(got.rhs, np.ascontiguousarray(ref.rhs.real))

    @given(
        sample=odd_spacing_grids(),
        with_source=st.booleans(),
        method=st.sampled_from(["auto", "direct"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_real_solve_is_the_complex_real_part(self, sample, with_source, method):
        real, cplx = real_and_complex(sample, with_source)
        chosen = SolverSettings(method=method)
        got = solve_traces(*real, settings=chosen)
        ref = solve_traces(*cplx, settings=chosen)
        for u, v in zip(got, ref):
            assert u.values.dtype == np.float64
            assert not v.values.imag.any()
            assert same_bits(u.values, np.ascontiguousarray(v.values.real))

    @given(sample=odd_spacing_grids())
    @settings(max_examples=30, deadline=None)
    def test_real_preconditioner_is_the_complex_real_part(self, sample):
        real, cplx = real_and_complex(sample, False)
        got = forward._mean_operator_eigenvalues(real[0])
        ref = forward._mean_operator_eigenvalues(cplx[0])
        assert same_bits(got, np.ascontiguousarray(ref.real))

    @given(sample=odd_spacing_grids())
    @settings(max_examples=30, deadline=None)
    def test_real_poisson_solve_is_the_complex_real_part(self, sample):
        real, cplx = real_and_complex(sample, True)
        got = forward.solve_poisson(real[1][0], real[2])
        ref = forward.solve_poisson(cplx[1][0], cplx[2])
        assert got.values.dtype == np.float64
        assert same_bits(got.values, np.ascontiguousarray(ref.values.real))


def as_complex(coeffs: CoefficientSet) -> CoefficientSet:
    return CoefficientSet(
        a=SymTensorField(coeffs.grid, coeffs.a.values.astype(np.complex128)),
        b=VectorField(coeffs.grid, coeffs.b.values.astype(np.complex128)),
        c=ScalarField(coeffs.grid, coeffs.c.values.astype(np.complex128)),
    )


def run_stored(cfg, complex_storage: bool):
    """Synthesis, recovery and metrics of ``cfg``, from coefficients
    stored as materialized or cast to complex128."""
    grid = cfg.grid_for()
    coeffs = cfg.coefficients(grid)
    if complex_storage:
        coeffs = as_complex(coeffs)
    ms = synthesize(coeffs, cfg.modality(grid), cfg.traces(grid, coeffs), cfg.solver())
    result = studies.recover(cfg, ms, coeffs)
    metrics = {
        name: error_norms(q, result.truths[name], mask=result.nc.mask, exclude=result.flags)
        for name, q in result.quantities.items()
    }
    return ms, result, metrics


_QUICK_33 = {
    "schema_version": 1,
    "grid": {"bounds": [[0.0, 1.3], [0.0, 0.7]], "shape": [33, 27]},
    "coefficients": {
        "a": "1 + 0.4*exp(-((x-0.5)^2+(y-0.35)^2)/0.08)",
        "c": "0.5 + 0.3*sin(2*x)*cos(2*y)",
    },
    "modality": {"name": "elastography"},
    "traces": {"corner_compatible": True},
    "study": {"type": "single"},
}


class TestPipeline:
    @pytest.mark.parametrize(
        "modality, extra",
        [
            ({"name": "elastography"}, {}),
            ({"name": "qpat", "gamma": "1 + 0.2*cos(x)*cos(y)"}, {}),
            ({"name": "generic", "weight": "1 + 0.2*x"}, {"b": ["0.1*y", "-0.1*x"]}),
        ],
        ids=["elastography", "qpat", "generic"],
    )
    def test_real_run_is_the_complex_run_real_part(self, modality, extra):
        # every field and metric of a real run equals, bit for bit, the
        # real part of the same run on complex128 coefficients
        doc = dict(_QUICK_33, modality=modality)
        doc["coefficients"] = dict(_QUICK_33["coefficients"], **extra)
        cfg = parse_config(doc)
        ms, real, real_metrics = run_stored(cfg, False)
        ms_c, cplx, cplx_metrics = run_stored(cfg, True)
        assert all(np.iscomplexobj(f.values) for f in ms_c.functionals)
        for f, g in zip(ms.functionals + ms.traces, ms_c.functionals + ms_c.traces):
            assert f.values.dtype == np.float64
            assert same_bits(f.values, np.ascontiguousarray(g.values.real))
        fields = {"diffusion": (real.nc.diffusion, cplx.nc.diffusion), "drift": (real.nc.drift, cplx.nc.drift)}
        fields.update({n: (real.quantities[n], cplx.quantities[n]) for n in real.quantities})
        fields.update({n: (real.resolved.fields[n], cplx.resolved.fields[n]) for n in real.resolved.fields})
        for name, (f, g) in fields.items():
            assert f.values.dtype == np.float64, name
            assert same_bits(f.values, np.ascontiguousarray(g.values.real)), name
        assert real_metrics == cplx_metrics
        assert real.admissibility == cplx.admissibility
        assert real.resolved.report.to_dict() == cplx.resolved.report.to_dict()
