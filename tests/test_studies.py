"""End-to-end study drivers: single runs, refinement ladders, noise sweeps."""

from __future__ import annotations

import dataclasses
import io
import json
import math
import os
from importlib import resources

import numpy as np
import pytest

from conftest import whole_grid_analysis
from hiplab import admissibility, gauge, grids, recon, studies
from hiplab.config import ExperimentConfig, parse_config
from hiplab.errors import ConfigurationError, DegeneracyError
from hiplab.grids import read_field


def harmonic_doc(**overrides) -> dict:
    doc = {
        "schema_version": 1,
        "grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
        "coefficients": {"a": "1", "c": "0"},
        "modality": {"name": "elastography"},
        "study": {"type": "single"},
    }
    doc.update(overrides)
    return doc


def bump_doc(**overrides) -> dict:
    doc = harmonic_doc(
        coefficients={
            "a": "1 + 0.4*exp(-((x-0.5)^2+(y-0.5)^2)/0.08)",
            "c": "0.5 + 0.3*sin(2*x)*cos(2*y)",
        },
        traces={"corner_compatible": True},
    )
    doc.update(overrides)
    return doc


def scalar_doc(**overrides) -> dict:
    """The quick-start phantom at 33^2 in scalar mode, from the three
    corner-compatible traces scalar mode needs."""
    doc = bump_doc(
        grid={"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [33, 33]},
        traces={"count": 3, "corner_compatible": True},
        reconstruction={"mode": "scalar"},
    )
    doc.update(overrides)
    return doc


def noise_doc(**overrides) -> dict:
    doc = bump_doc(
        seed=21,
        grid={"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [33, 33]},
        noise={"amplitude": 1e-4},
        study={"type": "noise-sweep", "amplitudes": [0.0, 1e-4, 2e-4]},
    )
    doc.update(overrides)
    return doc


class TestRunSingle:
    def test_harmonic_baseline_report(self):
        report = studies.run_single(parse_config(harmonic_doc()))
        assert set(report) == {
            "schema_version",
            "study",
            "config",
            "admissibility",
            "checks",
            "gauge",
            "flagged_fraction",
            "metrics",
        }
        assert report["schema_version"] == studies.SCHEMA_VERSION
        assert report["study"] == "single"
        assert report["flagged_fraction"] == 0.0
        assert report["admissibility"]["passed"] is True
        assert report["gauge"]["modality"] == "elastography"
        assert set(report["metrics"]) == {"a", "ahat", "amplitude", "c"}
        # analytic case: errors at rounding level.  The relative norm is
        # infinite where the reference vanishes (c = 0 here); the
        # absolute norm carries the statement for that quantity.
        for name, m in report["metrics"].items():
            if math.isfinite(m["c0_rel"]):
                assert m["c0_rel"] <= 1e-8, name
            assert m["c0"] <= 1e-8, name

    def test_report_is_json_ready_and_echoes_config(self):
        doc = harmonic_doc(seed=3)
        report = studies.run_single(parse_config(doc))
        again = json.loads(json.dumps(report))
        assert again["config"] == doc

    def test_output_files_and_determinism(self, tmp_path):
        cfg = parse_config(bump_doc())
        dirs = [tmp_path / "run1", tmp_path / "run2"]
        for d in dirs:
            studies.run_single(cfg, out_dir=str(d))
        for name in ("metrics.csv", "report.json"):
            first = (dirs[0] / name).read_bytes()
            second = (dirs[1] / name).read_bytes()
            assert first == second, name
        header = (dirs[0] / "metrics.csv").read_text().splitlines()[0]
        assert header.split(",") == studies.SINGLE_COLUMNS

    def test_dump_intermediates_writes_readable_fields(self, tmp_path):
        cfg = parse_config(harmonic_doc())
        report = studies.run_single(
            cfg, out_dir=str(tmp_path), dump_intermediates=True
        )
        assert "fields" in report
        assert "h1.field" in report["fields"]
        assert "alpha_hat.field" in report["fields"]
        for name in report["fields"]:
            fld = read_field(os.path.join(str(tmp_path), "fields", name))
            assert fld.grid.shape == (17, 17)

    def test_scalar_mode_resolves_the_gauge_as_matrix_mode_does(self):
        report = studies.run_single(parse_config(scalar_doc()))
        assert set(report["metrics"]) == {"a", "ahat", "amplitude", "c"}
        gauge = report["gauge"]
        assert gauge["modality"] == "elastography"
        audit = gauge["dimension_audit"]
        assert (audit["invariant_functions"], audit["coefficient_functions"]) == (3, 5)
        # the phantom's a is scalar, so the assumed identity shape is exact
        assert report["metrics"]["ahat"]["c0_rel"] <= 1e-12
        for name in ("a", "amplitude", "c"):
            assert report["metrics"][name]["c0_rel"] < 1e-2, name

    def test_scalar_mode_audits_only_what_it_uses(self):
        # x*y and 2*x*y give proportional Hessian constraints, a failure
        # of the independence condition only the matrix pipeline relies on
        traces = ["1", "x", "y", "x*y", "2*x*y"]
        cfg = parse_config(
            harmonic_doc(traces={"expressions": traces}, reconstruction={"mode": "scalar"})
        )
        report = studies.run_single(cfg)
        audit = report["admissibility"]
        assert audit["passed"] is True
        assert audit["pipeline"] == "scalar"
        assert audit["regions"][0]["independence_margin"] is None
        short = parse_config(
            harmonic_doc(
                traces={"expressions": traces[:3]}, reconstruction={"mode": "scalar"}
            )
        )
        assert report["metrics"] == studies.run_single(short)["metrics"]

    @pytest.mark.parametrize("mode", ["matrix", "scalar"])
    def test_checks_section_lists_every_row_in_order(self, tmp_path, mode):
        """The one key a single study's report gained, ``checks``, lists
        every row of the table of checks in order, each with the reading
        and limit the audit or ``reconstruct`` compares; scalar mode has
        no independence or cancellation row.  Without it, ``report.json``
        is byte for byte the file the strict writer makes of the rest."""
        square = {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [33, 33]}
        cfg = parse_config(bump_doc(grid=square) if mode == "matrix" else scalar_doc())
        report = studies.run_single(cfg, out_dir=str(tmp_path))
        grid = cfg.grid_for()
        ms = studies.synthesize_measurements(cfg, grid, cfg.coefficients(grid))

        boundary = [f"boundary_{j}" for j in range(1, ms.count)]
        names = ["reference", "basis", "independence", "h1", *boundary, "gram", "cancellation"]
        if mode == "scalar":
            names = [n for n in names if n not in ("independence", "cancellation")]
        assert [row["name"] for row in report["checks"]] == names
        assert all(row["passed"] for row in report["checks"])
        rows = {row.pop("name"): row for row in report["checks"]}

        def compared(region, reading, limit):
            return {"region": region, "reading": reading, "limit": limit, "passed": True}

        # the audit's margins against their floors
        margins = report["admissibility"]["regions"][0]
        for name in names[: 3 if mode == "matrix" else 2]:
            floor = admissibility.FLOORS[name]
            assert rows[name] == compared("interior", margins[f"{name}_margin"], floor)
        # reconstruct's |H_1| floor on the whole grid
        mag = np.abs(ms.functionals[0].values)
        assert rows["h1"] == compared("grid", float(mag.min()), 1e-8 * float(mag.max()))
        # each noiseless ratio against its trace quotient on the safe boundary
        f1 = ms.traces[0].values
        safe = grid.boundary_mask() & (np.abs(f1) > 1e-12 * float(np.max(np.abs(f1))))
        ref = whole_grid_analysis(ms, mode)
        for name, trace, ratio in zip(boundary, ms.traces[1:], ref.fields):
            expected = grids.divide(trace.values[safe], f1[safe])
            err = float(np.max(np.abs(ratio.values[safe] - expected)))
            allowance = 1e-8 * (float(np.max(np.abs(expected))) + 1.0)
            assert rows[name] == compared("boundary", err, allowance)
        # the rows the analysis's pass reads: Gram floor and cancellation
        for name, (reading, limit) in ref.rows.items():
            if name in ("gram", "cancellation"):
                assert rows[name] == compared("interior", reading, limit)

        text = (tmp_path / "report.json").read_text()
        start = text.index('  "checks": [\n')
        end = text.index("\n  ],\n", start) + len("\n  ],\n")
        rest = json.loads(text)
        del rest["checks"]
        written = io.StringIO()
        grids.dump_json(rest, written)
        assert written.getvalue() == text[:start] + text[end:]

    def test_degenerate_data_aborts(self):
        cfg = parse_config(
            harmonic_doc(traces={"expressions": ["1", "x", "2*x", "x*y", "x^2 - y^2"]})
        )
        with pytest.raises(DegeneracyError, match="admissibility"):
            studies.run_single(cfg)

    def test_failed_audit_names_each_margin_below_its_floor(self):
        # a = exp(17 x) makes exp(-17 x) a solution whose min/max ratio
        # over the trusted interior falls below the 1e-6 reference floor
        cfg = parse_config(
            harmonic_doc(
                grid={"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [33, 33]},
                coefficients={"a": "exp(17*x)", "c": "0"},
                traces={"expressions": ["exp(-17*x)", "x", "y", "x*y", "x^2 - y^2"]},
            )
        )
        with pytest.raises(DegeneracyError, match="reference margin") as exc:
            studies.run_single(cfg)
        assert str(exc.value).endswith(" < 1.0e-06")
        assert "basis" not in str(exc.value)
        assert "independence" not in str(exc.value)


class TestOneAnalysis:
    def count_calls(self, monkeypatch, cfg) -> dict:
        """Run the pipeline on ``cfg``, counting derivative calls, the
        null-space extraction, expansions of triangle storage, and
        numpy's batched small-matrix routines."""
        grid = cfg.grid_for()
        ms = studies.synthesize_measurements(cfg, grid, cfg.coefficients(grid))
        calls = {}

        def count(module, name, key=None):
            fn = getattr(module, name)
            key = key or name
            calls[key] = 0

            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        for module in (admissibility, recon):
            for name in ("gradient", "hessian", "window_derivatives"):
                if hasattr(module, name):
                    count(module, name)
        count(recon, "diffusion_from_constraints")
        # every caller, the pipeline's and metrics' included; the package
        # differentiates only through its own stencils
        count(grids, "_diff")
        count(np, "gradient", "np.gradient")
        count(grids, "sym_to_full")
        for name in ("svd", "det", "eigvalsh"):
            count(np.linalg, name)
        result = studies.run_pipeline(cfg, ms=ms)
        assert result.admissibility["pipeline"] == "matrix"
        return calls

    def test_audit_and_reconstruct_share_one_ratio_analysis(self, monkeypatch):
        """Four ratios in 2-D, on a grid that is one slab: one window of
        derivatives, which takes them as one stack and reuses the
        gradients for the Hessians, and one null-space extraction; the
        audit and the reconstruction read the analysis's readings and
        differentiate nothing.  In 2-D that extraction, the basis margin and the
        positivity check of ``a`` are closed forms: no batched SVD,
        determinant or eigenvalue call.  Each Hessian, in the reconstruction,
        the gauge and the metrics, reuses its field's gradient; the gauge
        takes ``div(ahat)`` once and one Jacobian of the integrated field;
        no symmetric matrix is expanded to full storage."""
        calls = self.count_calls(monkeypatch, parse_config(bump_doc()))
        assert calls == {
            "window_derivatives": 1,
            "diffusion_from_constraints": 1,
            "_diff": 103,
            "np.gradient": 0,
            "sym_to_full": 0,
            "svd": 0,
            "det": 0,
            "eigvalsh": 0,
        }

    def test_three_dimensional_null_space_takes_no_svd(self, monkeypatch):
        """5x6 constraint stacks: the null vector is their generalized
        cross product and the quality comes from one batched ``eigvalsh``
        of the rows' 5x5 Gram matrices; no SVD is taken."""
        doc = bump_doc(
            grid={"bounds": [[0.0, 1.0]] * 3, "shape": [9, 9, 9]},
            coefficients={
                "a": "1 + 0.4*exp(-((x-0.5)^2+(y-0.5)^2+(z-0.5)^2)/0.08)",
                "c": "0.5 + 0.3*sin(2*x)*cos(2*y)*cos(z)",
            },
        )
        calls = self.count_calls(monkeypatch, parse_config(doc))
        assert calls["diffusion_from_constraints"] == 1
        assert calls["svd"] == 0
        assert calls["eigvalsh"] == 1
        assert calls["det"] == 0
        assert calls["window_derivatives"] == 1
        assert calls["_diff"] == 294
        assert calls["np.gradient"] == 0
        assert calls["sym_to_full"] == 0


def test_check_and_the_pipeline_share_one_audit(tmp_path, monkeypatch):
    """``hiplab check`` and every pipeline run take the configured ratio
    analysis and audit from :func:`studies.audit`, once each."""
    from hiplab.cli import main

    calls = []
    audit = studies.audit

    def wrapper(cfg, ms):
        calls.append(ms.grid.shape)
        return audit(cfg, ms)

    monkeypatch.setattr(studies, "audit", wrapper)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(harmonic_doc()))
    assert main(["--config", str(path), "--out", str(tmp_path / "check"), "check"]) == 0
    studies.run_pipeline(parse_config(harmonic_doc()))
    assert calls == [(17, 17), (17, 17)]


_BUMP_A = "1 + 0.4*exp(-((x-0.5)^2+(y-0.5)^2)/0.08)"
_BUMP_C = "0.5 + 0.3*sin(2*x)*cos(2*y)"


@pytest.mark.parametrize(
    "doc, names",
    [
        (bump_doc(), ["a", "ahat", "amplitude", "c"]),
        (
            bump_doc(modality={"name": "qpat", "gamma": "1 + 0.1*x"}),
            ["ahat", "amplitude", "c"],
        ),
        (
            bump_doc(
                coefficients={"a": _BUMP_A, "c": _BUMP_C + " + i*(0.7 + 0.2*x*y)"},
                modality={"name": "qtat", "gamma": "1 + 0.1*x"},
            ),
            ["ahat", "gamma"],
        ),
        (
            bump_doc(
                coefficients={"a": _BUMP_A, "b": ["0.2*x", "0.1"], "c": _BUMP_C},
                modality={"name": "generic", "weight": "1 + 0.2*x*y"},
            ),
            ["ahat", "inv_drift"],
        ),
    ],
    ids=["elastography", "qpat", "qtat", "generic"],
)
def test_each_modality_compares_its_pairs_with_the_phantom(doc, names, monkeypatch):
    """Each modality's metrics compare ``ahat`` and what its resolution
    recovers, against truths bit-equal to the phantom's own, read after
    the run (qpat's amplitude anchor shares its array with the truth).
    The phantom's amplitude is formed once per run."""
    amplitude_of = gauge.amplitude_of
    calls = []

    def counted(a):
        calls.append(a)
        return amplitude_of(a)

    monkeypatch.setattr(gauge, "amplitude_of", counted)
    result = studies.run_pipeline(parse_config(doc))
    assert len(calls) == 1
    assert sorted(result.metrics) == names
    coeffs, dim = result.coeffs, result.grid.dim
    phantom = {
        "ahat": gauge.shape_of(coeffs.a),
        "a": coeffs.a,
        "amplitude": amplitude_of(coeffs.a),
        "c": coeffs.c,
        "gamma": result.ms.gamma,
        "inv_drift": grids.VectorField(
            result.grid,
            grids.sym_matvec(grids.sym_inv(coeffs.a.values, dim), coeffs.b.values, dim),
        ),
    }
    assert sorted(result.truths) == names
    for name in names:
        assert np.array_equal(result.truths[name].values, phantom[name].values), name


class TestFittedOrder:
    def test_clean_second_order(self):
        hs = [1 / 16, 1 / 32, 1 / 64]
        errs = [h**2 for h in hs]
        assert studies.fitted_order(hs, errs) == pytest.approx(2.0, rel=1e-12)

    def test_non_monotone_is_nan(self):
        assert math.isnan(studies.fitted_order([0.1, 0.05, 0.025], [1.0, 2.0, 0.5]))

    def test_zero_error_is_nan(self):
        assert math.isnan(studies.fitted_order([0.1, 0.05], [1e-3, 0.0]))

    def test_non_finite_error_is_nan(self):
        inf = float("inf")
        assert math.isnan(studies.fitted_order([0.1, 0.05, 0.025], [inf, inf, inf]))

    def test_single_point_is_nan(self):
        assert math.isnan(studies.fitted_order([0.1], [1e-3]))


class TestRunConvergence:
    def test_bump_phantom_orders(self):
        cfg = parse_config(
            bump_doc(study={"type": "convergence", "levels": [17, 33, 65]})
        )
        report = studies.run_convergence(cfg)
        assert report["study"] == "convergence"
        assert report["levels"] == [17, 33, 65]
        assert len(report["spacings"]) == 3
        assert report["warnings"] == []
        for name in ("ahat", "amplitude", "a", "c"):
            errs = report["errors"][name]
            assert errs[0] > errs[1] > errs[2], name
            assert report["orders"][name] >= 1.5, name

    def test_scalar_mode_ladder_converges_at_second_order(self):
        cfg = parse_config(
            scalar_doc(study={"type": "convergence", "levels": [17, 33, 65]})
        )
        orders = studies.run_convergence(cfg)["orders"]
        for name in ("a", "amplitude", "c"):
            assert orders[name] >= 1.9, name

    def test_harmonic_ladder_reports_nan_with_note(self):
        cfg = parse_config(
            harmonic_doc(study={"type": "convergence", "levels": [17, 33, 65]})
        )
        report = studies.run_convergence(cfg)
        assert all(math.isnan(v) for v in report["orders"].values())
        notes = "\n".join(report["warnings"])
        assert "rounding level" in notes
        # c has a vanishing reference, so its relative error is undefined
        assert "vanishing reference" in notes

    def test_rising_middle_level_reports_null_with_note(self, monkeypatch):
        errors = iter([1e-2, 2e-2, 1e-3])

        def rising(cfg, grid):
            c0 = next(errors)
            metric = {"c0_rel": c0, "c1_rel": c0, "c2_rel": c0}
            return dataclasses.replace(result, metrics={"ahat": metric})

        cfg = parse_config(
            harmonic_doc(study={"type": "convergence", "levels": [9, 17, 33]})
        )
        result = studies.run_pipeline(cfg)
        monkeypatch.setattr(studies, "run_pipeline", rising)
        report = studies.run_convergence(cfg)
        assert math.isnan(report["orders"]["ahat"])
        assert report["warnings"] == [
            "ahat: error sequence not monotone, order reported as null"
        ]

    def test_report_file_is_strict_json_with_null_for_non_finite_values(self, tmp_path):
        cfg = parse_config(
            harmonic_doc(study={"type": "convergence", "levels": [9, 17, 33]})
        )
        report = studies.run_convergence(cfg, out_dir=str(tmp_path))
        # the returned dict keeps the floats; the file holds null for them
        assert math.isnan(report["orders"]["c"])
        assert report["errors"]["c"] == [math.inf] * 3

        def refuse(token):
            raise ValueError(f"non-standard JSON token {token}")

        text = (tmp_path / "report.json").read_text()
        written = json.loads(text, parse_constant=refuse)
        assert written["orders"]["c"] is None
        assert written["errors"]["c"] == [None] * 3
        assert "c: relative error undefined" in "\n".join(written["warnings"])
        assert "order reported as null" in "\n".join(written["warnings"])

    def test_two_levels_rejected(self):
        with pytest.raises(ConfigurationError, match="3 refinement"):
            ExperimentConfig(
                doc=harmonic_doc(study={"type": "convergence", "levels": [17, 33]})
            )

    def test_csv_table_with_frozen_columns(self, tmp_path):
        cfg = parse_config(
            harmonic_doc(study={"type": "convergence", "levels": [9, 17, 33]})
        )
        studies.run_convergence(cfg, out_dir=str(tmp_path))
        lines = (tmp_path / "convergence.csv").read_text().splitlines()
        assert lines[0].split(",") == studies.CONVERGENCE_COLUMNS
        # one row per quantity and level
        assert len(lines) == 1 + 4 * 3
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["study"] == "convergence"


class TestRunNoiseSweep:
    def test_zero_amplitude_row_is_exact(self):
        report = studies.run_noise_sweep(parse_config(noise_doc()))
        zero = [e for e in report["table"] if e["amplitude"] == 0.0][0]
        assert zero["delta_h_c2"] == 0.0
        for entry in zero["quantities"].values():
            assert entry["err_c0"] == 0.0
            assert entry["ratio"] == 0.0

    def test_injected_perturbation_is_linear_in_amplitude(self):
        # one seed, one draw: doubling the amplitude doubles the field
        report = studies.run_noise_sweep(parse_config(noise_doc()))
        rows = {e["amplitude"]: e for e in report["table"]}
        ratio = rows[2e-4]["delta_h_c2"] / rows[1e-4]["delta_h_c2"]
        assert ratio == pytest.approx(2.0, rel=1e-9)

    def test_shorter_correlation_length_grows_data_and_error(self):
        # same amplitude, rougher noise: two more derivatives of pain
        reports = {}
        for ell in (0.2, 0.05):
            doc = noise_doc()
            doc["noise"] = {**doc["noise"], "correlation_length": ell}
            reports[ell] = studies.run_noise_sweep(parse_config(doc))
        row = lambda rep: [e for e in rep["table"] if e["amplitude"] == 1e-4][0]
        smooth, rough = row(reports[0.2]), row(reports[0.05])
        assert rough["delta_h_c2"] > 2.0 * smooth["delta_h_c2"]
        assert (
            rough["quantities"]["ahat"]["err_c0"]
            > smooth["quantities"]["ahat"]["err_c0"]
        )

    def test_missing_noise_section_rejected(self):
        with pytest.raises(ConfigurationError, match="noise section"):
            ExperimentConfig(
                doc=harmonic_doc(
                    study={"type": "noise-sweep", "amplitudes": [0.0, 1e-4, 2e-4]}
                )
            )

    def test_csv_and_report_outputs(self, tmp_path):
        report = studies.run_noise_sweep(
            parse_config(noise_doc()), out_dir=str(tmp_path)
        )
        lines = (tmp_path / "noise_sweep.csv").read_text().splitlines()
        assert lines[0].split(",") == studies.NOISE_COLUMNS
        assert len(lines) == 1 + 3 * len(report["table"][0]["quantities"])
        on_disk = json.loads((tmp_path / "report.json").read_text())
        assert on_disk["ratio_spread"].keys() == report["ratio_spread"].keys()


def test_every_schema_study_type_has_a_driver():
    schema = json.loads(
        resources.files("hiplab").joinpath("config_schema.json").read_text()
    )
    types = schema["properties"]["study"]["properties"]["type"]["enum"]
    assert sorted(studies.STUDIES) == sorted(types)


def _reachable_arrays(obj, path="result"):
    """Every numpy array reachable from ``obj`` through dataclass fields,
    dicts, lists and tuples, with the path that reaches it."""
    if isinstance(obj, np.ndarray):
        yield path, obj
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        for f in dataclasses.fields(obj):
            yield from _reachable_arrays(getattr(obj, f.name), f"{path}.{f.name}")
    elif isinstance(obj, dict):
        for key, value in obj.items():
            yield from _reachable_arrays(value, f"{path}[{key!r}]")
    elif isinstance(obj, (list, tuple)):
        for k, value in enumerate(obj):
            yield from _reachable_arrays(value, f"{path}[{k}]")


_GRID_65 = {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [65, 65]}


def _qpat_data_doc() -> dict:
    return bump_doc(
        seed=1,
        grid=_GRID_65,
        coefficients={
            "a": "1 + 0.3*exp(-((x-0.4)^2+(y-0.6)^2)/0.08)",
            "c": "0.5 + 0.4*exp(-((x-0.6)^2+(y-0.4)^2)/0.08)",
        },
        modality={"name": "qpat", "gamma": "1 + 0.2*cos(x)*cos(y)"},
        noise={"amplitude": 1e-4, "correlation_length": 0.1},
    )


class TestStorageDtype:
    """Real data stay float64 from the sources to the metrics; complex
    data stay complex."""

    @pytest.mark.parametrize(
        "doc",
        [bump_doc(grid=_GRID_65), _qpat_data_doc()],
        ids=["readme-quick-start", "qpat-data"],
    )
    def test_real_run_holds_no_complex_array(self, doc):
        result = studies.run_pipeline(parse_config(doc))
        arrays = list(_reachable_arrays(result))
        # the measurement set, the normalized pair, the resolver output
        # and every metric input are all reached
        paths = {p.split(".values")[0] for p, _ in arrays}
        parts = ("ms", "nc", "resolved", "quantities", "truths")
        for part in (f"result.{name}" for name in parts):
            assert any(p.startswith(part) for p in paths), part
        complex_paths = [p for p, a in arrays if np.iscomplexobj(a)]
        assert complex_paths == []
        floats = [a for _, a in arrays if a.dtype.kind == "f"]
        assert floats and all(a.dtype == np.float64 for a in floats)

    def test_qtat_run_stays_complex_where_its_data_are(self):
        doc = bump_doc(
            grid=_GRID_65,
            coefficients={
                "a": [
                    "10*(1+0.3*exp(-((x-0.5)^2+(y-0.5)^2)/0.1))",
                    "1+0.2*exp(-((x-0.4)^2+(y-0.6)^2)/0.1)",
                    "0.8*x*(1-x)*y*(1-y)",
                ],
                "c": "0.6+0.2*sin(2*x+1)*cos(y)"
                " + i*(0.7+0.3*exp(-((x-0.55)^2+(y-0.45)^2)/0.08))",
            },
            modality={"name": "qtat", "gamma": "1 + 0.25*cos(x)*cos(y)"},
        )
        result = studies.run_pipeline(parse_config(doc))
        assert np.iscomplexobj(result.coeffs.c.values)
        assert all(np.iscomplexobj(f.values) for f in result.ms.functionals)
        assert np.iscomplexobj(result.ms.weight.values)
        fields = result.resolved.fields
        complex_fields = (
            "scalar_invariant",
            "modality_invariant",
            "weight_ratio",
            "c_representative",
        )
        for name in complex_fields:
            assert np.iscomplexobj(fields[name].values), name
        # gamma is formed from Re(kappa) and Im(q), so it is real, as is
        # the phantom's gamma it is measured against
        assert result.resolved.gamma.values.dtype == np.float64
        assert result.ms.gamma.values.dtype == np.float64
        assert np.isfinite(result.metrics["gamma"]["c0_rel"])
