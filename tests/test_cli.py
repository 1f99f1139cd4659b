"""Command-line harness: subcommands, exit codes, file outputs."""

from __future__ import annotations

import json
import os

import pytest

from hiplab import forward
from hiplab.cli import main
from hiplab.grids import read_field, write_field


def write_config(tmp_path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def refuse(token):
    raise ValueError(f"non-standard JSON token {token}")


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


# a phantom qpat can measure: its functionals vanish where c does
QPAT_PHANTOM = {"coefficients": {"a": "1", "c": "0.5"}}


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


class TestExitCodes:
    def test_success_is_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path, harmonic_doc())
        assert main(["--config", cfg, "run"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["study"] == "single"

    def test_missing_config_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 2

    def test_unknown_subcommand_exits_two(self, tmp_path):
        cfg = write_config(tmp_path, harmonic_doc())
        with pytest.raises(SystemExit) as exc:
            main(["--config", cfg, "frobnicate"])
        assert exc.value.code == 2

    def test_config_error_is_two(self, tmp_path, capsys):
        doc = harmonic_doc()
        doc["gridd"] = {}
        cfg = write_config(tmp_path, doc)
        assert main(["--config", cfg, "run"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_finite_config_number_is_two(self, tmp_path, capsys):
        # json.dumps writes float("nan") as the bare token NaN, which
        # Python's json reads back
        doc = harmonic_doc(noise={"amplitude": 1e-6, "correlation_length": float("nan")})
        cfg = write_config(tmp_path, doc)
        assert "NaN" in (tmp_path / "config.json").read_text()
        assert main(["--config", cfg, "run"]) == 2
        assert "noise/correlation_length" in capsys.readouterr().err

    @pytest.mark.parametrize("c", ["1/0", "2*x + 1/(1-1)", "1/(x-0.5)"])
    def test_expression_not_finite_at_a_vertex_is_two(self, tmp_path, capsys, c):
        cfg = write_config(tmp_path, harmonic_doc(coefficients={"a": "1", "c": c}))
        assert main(["--config", cfg, "check"]) == 2
        assert f"expression {c!r} is not finite at" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "change, key, command",
        [
            ({"noise": {"amplitude": 1e-4, "seed": 3}}, "'seed'", "run"),
            (
                {
                    "noise": {"amplitude": 1e-4},
                    "study": {
                        "type": "noise-sweep",
                        "amplitudes": [0.0, 1e-4, 2e-4],
                        "correlation_length": 0.2,
                    },
                },
                "'correlation_length'",
                "run",
            ),
            ({"traces": "default"}, "(at traces)", "run"),
            ({"thresholds": {"basis": 1e-3}}, "'thresholds'", "run"),
            ({"thresholds": {"basis": 1e-3}}, "'thresholds'", "check"),
        ],
        ids=[
            "noise-seed",
            "study-correlation-length",
            "traces-default",
            "thresholds-run",
            "thresholds-check",
        ],
    )
    def test_removed_config_keys_are_two(self, tmp_path, capsys, change, key, command):
        # each setting has one spelling: the top-level seed, the noise
        # section's correlation length, and an omitted traces section;
        # the audit's floors are constants, not settings
        cfg = write_config(tmp_path, harmonic_doc(**change))
        assert main(["--config", cfg, command]) == 2
        assert key in capsys.readouterr().err

    def test_missing_config_file_is_two(self, tmp_path, capsys):
        assert main(["--config", str(tmp_path / "nope.json"), "run"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_solver_failure_is_three(self, tmp_path, capsys, monkeypatch):
        # no discrete solution meets a zero residual cap
        monkeypatch.setattr(forward, "_RESIDUAL_CAP", 0.0)
        cfg = write_config(tmp_path, bump_doc())
        assert main(["--config", cfg, "run"]) == 3
        assert "exceeds cap" in capsys.readouterr().err

    def test_degeneracy_abort_is_four(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            harmonic_doc(traces={"expressions": ["1", "x", "2*x", "x*y", "x^2 - y^2"]}),
        )
        assert main(["--config", cfg, "run"]) == 4
        err = capsys.readouterr().err
        assert "admissibility" in err
        assert "basis margin 0.000e+00 < 1.0e-06" in err

    def test_synth_writes_data_the_pipeline_rejects(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            harmonic_doc(traces={"expressions": ["1", "x", "2*x", "x*y", "x^2 - y^2"]}),
        )
        assert main(["--config", cfg, "run"]) == 4
        data = tmp_path / "data"
        assert main(["--config", cfg, "--out", str(data), "synth"]) == 0
        assert (data / "manifest.json").exists()

    def test_out_required_for_file_writers(self, tmp_path, capsys):
        cfg = write_config(tmp_path, harmonic_doc())
        for command in ("forward", "synth"):
            assert main(["--config", cfg, command]) == 2, command
            assert "--out" in capsys.readouterr().err


class TestForward:
    def test_writes_one_solution_per_trace(self, tmp_path, capsys):
        cfg = write_config(tmp_path, harmonic_doc())
        out = tmp_path / "solutions"
        assert main(["--config", cfg, "--out", str(out), "forward"]) == 0
        assert "wrote 5 solutions" in capsys.readouterr().out
        for j in range(1, 6):
            fld = read_field(str(out / f"u{j}.field"))
            assert fld.grid.shape == (17, 17)


class TestSynthReconstructRoundTrip:
    def test_reconstruct_from_saved_measurements(self, tmp_path, capsys):
        cfg = write_config(tmp_path, harmonic_doc())
        data = tmp_path / "data"
        assert main(["--config", cfg, "--out", str(data), "synth"]) == 0
        assert "5 functionals" in capsys.readouterr().out
        assert (data / "manifest.json").exists()
        assert (data / "functional_00.field").exists()

        out = tmp_path / "recon"
        argv = ["--config", cfg, "--out", str(out), "run", "--data", str(data)]
        assert main(argv + ["--dump-intermediates"]) == 0
        for name in ("alpha_hat.field", "beta.field", "quality.field"):
            assert (out / "fields" / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert report["admissibility"]["passed"] is True
        assert report["metrics"]["ahat"]["c0"] <= 1e-8

    def test_resolve_writes_report_and_states_the_gauge(self, tmp_path):
        cfg = write_config(tmp_path, harmonic_doc())
        data = tmp_path / "data"
        assert main(["--config", cfg, "--out", str(data), "synth"]) == 0
        out = tmp_path / "resolved"
        argv = ["--config", cfg, "--out", str(out), "run", "--data", str(data)]
        assert main(argv + ["--dump-intermediates"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["gauge"]["modality"] == "elastography"
        # the two-function gauge statement
        assert "two" in report["gauge"]["dimension_audit"]["statement"]
        assert (out / "fields" / "resolved_a.field").exists()

    @pytest.mark.parametrize(
        "name, damage, message",
        [
            (
                "manifest.json",
                lambda m: m.pop("trace_expressions"),
                "{path} lacks 'trace_expressions'",
            ),
            (
                "manifest.json",
                lambda m: m["files"].pop("weight"),
                "{path} lacks 'files/weight'",
            ),
            (
                "manifest.json",
                lambda m: m["files"].update(functionals=[]),
                "5 traces vs 0 functionals",
            ),
            (
                "manifest.json",
                lambda m: m["trace_expressions"].append("x + y"),
                "{path} lists 5 traces vs 5 functionals and 6 trace expressions",
            ),
            (
                "manifest.json",
                lambda m: m["trace_expressions"].pop(),
                "{path} lists 5 traces vs 5 functionals and 4 trace expressions",
            ),
            ("manifest.json", "{", "{path} is not valid JSON"),
            ("functional_00.field.json", "{", "{path} is not valid JSON"),
            ("functional_00.field", None, "cannot read field {path}"),
            (
                "manifest.json",
                lambda m: m["files"].update(traces="trace_00.field"),
                "{path}: 'files/traces' has the wrong JSON type",
            ),
            (
                "manifest.json",
                lambda m: m["files"].update(weight=["weight.field"]),
                "{path}: 'files/weight' has the wrong JSON type",
            ),
            (
                "manifest.json",
                lambda m: m["trace_expressions"].__setitem__(0, 1),
                "{path}: 'trace_expressions' has the wrong JSON type",
            ),
            (
                "manifest.json",
                lambda m: m.update(
                    noise={"amplitude": "0.01", "correlation_length": 0.1, "seed": 0}
                ),
                "{path}: 'noise/amplitude' has the wrong JSON type",
            ),
            (
                "weight.field.json",
                lambda m: m.update(kind=["scalar"]),
                "{path}: 'kind' has the wrong JSON type",
            ),
            (
                "weight.field.json",
                lambda m: m.update(dim="2"),
                "{path}: 'dim' has the wrong JSON type",
            ),
            (
                "weight.field.json",
                lambda m: m.update(shape=[str(n) for n in m["shape"]]),
                "{path}: 'shape' has the wrong JSON type",
            ),
            (
                "weight.field.json",
                lambda m: m["bounds"][0].__setitem__(0, "0"),
                "{path}: 'bounds' has the wrong JSON type",
            ),
            (
                "weight.field.json",
                lambda m: m["bounds"][0].append(2.0),
                "{path}: grid bounds ((0.0, 1.0, 2.0), (0.0, 1.0)) are not pairs of numbers",
            ),
            (
                "weight.field.json",
                lambda m: m.update(kind="tensor"),
                "{path}: unknown field kind 'tensor'",
            ),
            (
                "weight.field.json",
                lambda m: m.update(shape=[4, 65]),
                "{path}: grid axis 0 needs at least 5 points, got 4",
            ),
        ],
        ids=[
            "manifest-key",
            "manifest-file-key",
            "no-functionals",
            "extra-expression",
            "missing-expression",
            "manifest-json",
            "sidecar-json",
            "payload-missing",
            "traces-string",
            "weight-list",
            "expression-number",
            "noise-string",
            "kind-list",
            "dim-string",
            "shape-strings",
            "bounds-string",
            "bounds-triple",
            "kind-unknown",
            "shape-too-small",
        ],
    )
    def test_malformed_data_directory_is_two(
        self, tmp_path, capsys, name, damage, message
    ):
        cfg = write_config(tmp_path, harmonic_doc())
        data = tmp_path / "data"
        assert main(["--config", cfg, "--out", str(data), "synth"]) == 0
        path = data / name
        if damage is None:
            path.unlink()
        elif isinstance(damage, str):
            path.write_text(damage)
        else:
            doc = json.loads(path.read_text())
            damage(doc)
            path.write_text(json.dumps(doc))
        capsys.readouterr()
        out = tmp_path / "run"
        argv = ["--config", cfg, "--out", str(out), "run", "--data", str(data)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert message.format(path=path) in err, err
        assert not (out / "report.json").exists()

    def test_loaded_h1_below_its_floor_is_four(self, tmp_path, capsys):
        """A saved ``H_1`` edited to vanish at one boundary vertex passes
        the audit, which reads the trusted interior, and fails the
        reconstruction's floor, which reads the whole grid."""
        cfg = write_config(tmp_path, harmonic_doc())
        data = tmp_path / "data"
        assert main(["--config", cfg, "--out", str(data), "synth"]) == 0
        path = str(data / "functional_00.field")
        h1 = read_field(path)
        top = float(abs(h1.values).max())
        h1.values[0, 3] = 0.0
        write_field(h1, path)
        capsys.readouterr()
        argv = ["--config", cfg, "--out", str(tmp_path / "run"), "run", "--data", str(data)]
        assert main(argv) == 4
        err = capsys.readouterr().err
        message = f"[recon] |H_1| falls to 0.000e+00 (max {top:.3e}) at vertex (0, 3)\n"
        assert message in err, err

    @pytest.mark.parametrize(
        "synthesized, change, named",
        [
            (
                {},
                {"grid": {"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [21, 21]}},
                "grid [17, 17] on [[0.0, 1.0], [0.0, 1.0]], config [21, 21]",
            ),
            (
                {},
                {"grid": {"bounds": [[0.0, 1.0], [0.0, 2.0]], "shape": [17, 17]}},
                "config [17, 17] on [[0.0, 1.0], [0.0, 2.0]]",
            ),
            (
                {},
                {"modality": {"name": "qpat", "gamma": "1"}},
                "modality elastography, config qpat",
            ),
            ({}, {"traces": {"count": 4}}, "5 traces, config 4"),
            (
                {},
                {"traces": {"expressions": ["1", "x", "y", "x*y", "x^2 + y^2"]}},
                "trace expressions ['1', 'x', 'y', 'x*y', 'x^2 - y^2'], config",
            ),
            ({}, {"traces": {"corner_compatible": True}}, "config [None, None"),
            ({}, {"noise": {"amplitude": 1e-2}}, "noise None, config NoiseSpec"),
            (
                {"modality": {"name": "qpat", "gamma": "1 + 0.1*x"}, **QPAT_PHANTOM},
                {"modality": {"name": "qpat", "gamma": "3"}, **QPAT_PHANTOM},
                "gamma differs from the config's '3'",
            ),
        ],
        ids=[
            "shape",
            "bounds",
            "modality",
            "trace-count",
            "trace-expressions",
            "corner-compatible",
            "noise",
            "gamma",
        ],
    )
    def test_data_of_another_experiment_is_refused(
        self, tmp_path, capsys, synthesized, change, named
    ):
        data = tmp_path / "data"
        single = write_config(tmp_path, harmonic_doc(**synthesized), "single.json")
        assert main(["--config", single, "--out", str(data), "synth"]) == 0
        cfg = write_config(tmp_path, harmonic_doc(**change))
        out = tmp_path / "run"
        argv = ["--config", cfg, "--out", str(out), "run", "--data", str(data)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "measurement set differs from the config" in err and named in err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "change",
        [
            {},
            {"seed": 1, "noise": {"amplitude": 1e-2}},
            {"noise": {"amplitude": 1e-2, "correlation_length": 0.2}},
        ],
        ids=["none", "seed", "correlation-length"],
    )
    def test_data_with_other_noise_is_refused(self, tmp_path, capsys, change):
        data = tmp_path / "data"
        doc = harmonic_doc(noise={"amplitude": 1e-2})
        noisy = write_config(tmp_path, doc, "noisy.json")
        assert main(["--config", noisy, "--out", str(data), "synth"]) == 0
        cfg = write_config(tmp_path, harmonic_doc(**change))
        out = tmp_path / "run"
        argv = ["--config", cfg, "--out", str(out), "run", "--data", str(data)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        named = "noise NoiseSpec(amplitude=0.01, correlation_length=0.1, seed=0)"
        assert "measurement set differs from the config" in err and named in err
        assert not (out / "report.json").exists()
        # the config the data were synthesized under accepts them
        argv = ["--config", noisy, "--out", str(out), "run", "--data", str(data)]
        assert main(argv) == 0

    def test_phantom_that_is_not_spd_is_refused_as_a_plain_run_refuses_it(
        self, tmp_path, capsys
    ):
        data = tmp_path / "data"
        single = write_config(tmp_path, bump_doc(), "single.json")
        assert main(["--config", single, "--out", str(data), "synth"]) == 0
        capsys.readouterr()
        doc = bump_doc()
        doc["coefficients"]["a"] = "x - 0.3"
        cfg = write_config(tmp_path, doc)
        assert main(["--config", cfg, "run"]) == 3
        plain = capsys.readouterr().err
        assert "diffusion matrix is not positive definite at vertex (0, 0)" in plain
        out = tmp_path / "run"
        argv = ["--config", cfg, "--out", str(out), "run", "--data", str(data)]
        assert main(argv) == 3
        assert capsys.readouterr().err == plain
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize(
        "study",
        [
            {"type": "convergence", "levels": [9, 17, 33]},
            {"type": "noise-sweep", "amplitudes": [0.0, 1e-4, 2e-4]},
        ],
        ids=["convergence", "noise-sweep"],
    )
    def test_data_needs_a_single_study(self, tmp_path, capsys, study):
        data = tmp_path / "data"
        single = write_config(tmp_path, harmonic_doc(), "single.json")
        assert main(["--config", single, "--out", str(data), "synth"]) == 0
        cfg = write_config(
            tmp_path, harmonic_doc(noise={"amplitude": 1e-4}, study=study)
        )
        out = tmp_path / "study"
        argv = ["--config", cfg, "--out", str(out), "run", "--data", str(data)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--data" in err and f"a {study['type']} study" in err
        assert not out.exists()


class TestOutputFormat:
    def test_every_json_file_is_written_in_one_strict_format(self, tmp_path):
        # manifest, sidecars, admissibility.json and report.json alike:
        # sorted keys, 2-space indent, a final newline, no NaN tokens
        cfg = write_config(tmp_path, bump_doc())
        for argv in (
            ["--out", str(tmp_path / "data"), "synth"],
            ["--out", str(tmp_path / "check"), "check"],
            ["--out", str(tmp_path / "run"), "run", "--dump-intermediates"],
        ):
            assert main(["--config", cfg, *argv]) == 0
        written = sorted(tmp_path.glob("*/**/*.json"))
        names = {path.name for path in written}
        for name in ("manifest.json", "admissibility.json", "report.json"):
            assert name in names, name
        assert any(name.endswith(".field.json") for name in names)
        for path in written:
            text = path.read_text()
            doc = json.loads(text, parse_constant=refuse)
            assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n", path


class TestCheck:
    def test_passing_audit_prints_table(self, tmp_path, capsys):
        cfg = write_config(tmp_path, harmonic_doc())
        assert main(["--config", cfg, "check"]) == 0
        out = capsys.readouterr().out
        assert "admissibility: PASS" in out
        assert "full: pass" in out

    def test_failing_audit_reports_margins_and_exits_four(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            harmonic_doc(traces={"expressions": ["1", "x", "2*x", "x*y", "x^2 - y^2"]}),
        )
        out = tmp_path / "audit"
        assert main(["--config", cfg, "--out", str(out), "check"]) == 4
        stdout = capsys.readouterr().out
        assert "admissibility: FAIL" in stdout
        report = json.loads((out / "admissibility.json").read_text())
        assert report["admissibility"]["passed"] is False


    def test_scalar_mode_audit_skips_the_independence_margin(self, tmp_path, capsys):
        doc = harmonic_doc(
            traces={"expressions": ["1", "x", "y", "x*y", "2*x*y"]},
            reconstruction={"mode": "scalar"},
        )
        assert main(["--config", write_config(tmp_path, doc), "check"]) == 0
        out = capsys.readouterr().out
        assert "scalar pipeline" in out
        assert "independence n/a" in out


class TestFunctionalBudget:
    def test_check_and_run_refuse_a_short_matrix_set_with_one_message(
        self, tmp_path, capsys
    ):
        # three functionals admit the scalar pipeline only, and the config
        # asks for the matrix one
        cfg = write_config(tmp_path, bump_doc(traces={"count": 3}))
        errors = []
        for command in ("check", "run"):
            assert main(["--config", cfg, command]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            errors.append(captured.err)
        assert errors[0] == errors[1]
        assert "needs 5 functionals (4 ratios), got 3 (2)" in errors[0]


class TestRunDispatch:
    def test_run_dispatches_to_convergence(self, tmp_path):
        cfg = write_config(
            tmp_path,
            harmonic_doc(study={"type": "convergence", "levels": [9, 17, 33]}),
        )
        out = tmp_path / "ladder"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["study"] == "convergence"
        assert (out / "convergence.csv").exists()

    def test_stdout_report_is_strict_json(self, tmp_path, capsys):
        # c's reference vanishes: its relative errors are infinite and
        # its order is NaN, which stdout writes as null
        cfg = write_config(
            tmp_path,
            harmonic_doc(study={"type": "convergence", "levels": [9, 17, 33]}),
        )
        assert main(["--config", cfg, "run"]) == 0
        report = json.loads(capsys.readouterr().out, parse_constant=refuse)
        assert report["orders"]["c"] is None
        assert report["errors"]["c"] == [None] * 3

    def test_study_type_must_match_dedicated_commands(self, tmp_path):
        # there are none: every study type runs through `run`
        cfg = write_config(tmp_path, harmonic_doc())
        for command in ("convergence", "noise-sweep"):
            with pytest.raises(SystemExit) as exc:
                main(["--config", cfg, command])
            assert exc.value.code == 2

    @pytest.mark.parametrize(
        "study",
        [
            {"type": "convergence", "levels": [9, 17, 33]},
            {"type": "noise-sweep", "amplitudes": [0.0, 1e-4, 2e-4]},
        ],
        ids=["convergence", "noise-sweep"],
    )
    def test_dump_intermediates_needs_a_single_study(self, tmp_path, capsys, study):
        cfg = write_config(
            tmp_path, harmonic_doc(noise={"amplitude": 1e-4}, study=study)
        )
        out = tmp_path / "study"
        argv = ["--config", cfg, "--out", str(out), "run", "--dump-intermediates"]
        assert main(argv) == 2
        assert f"a {study['type']} study" in capsys.readouterr().err
        assert not (out / "fields").exists()

    def test_noise_sweep_command(self, tmp_path):
        cfg = write_config(
            tmp_path,
            bump_doc(
                seed=21,
                grid={"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
                noise={"amplitude": 1e-4},
                study={"type": "noise-sweep", "amplitudes": [0.0, 1e-4, 2e-4]},
            ),
        )
        out = tmp_path / "sweep"
        assert main(["--config", cfg, "--out", str(out), "run"]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["study"] == "noise-sweep"
        assert (out / "noise_sweep.csv").exists()

    def test_dump_intermediates_flag(self, tmp_path):
        cfg = write_config(tmp_path, harmonic_doc())
        out = tmp_path / "full"
        code = main(
            ["--config", cfg, "--out", str(out), "run", "--dump-intermediates"]
        )
        assert code == 0
        assert (out / "fields" / "h1.field").exists()

    # reconstruct and resolve are no longer subcommands (`run --data` and
    # `run --data --dump-intermediates` replace them), and stay refused
    @pytest.mark.parametrize(
        "command", ["check", "forward", "synth", "reconstruct", "resolve"]
    )
    @pytest.mark.parametrize("before", [True, False], ids=["global", "after"])
    def test_dump_intermediates_is_an_option_of_run_only(
        self, tmp_path, command, before
    ):
        # a flag that would be accepted and ignored is refused instead
        cfg = write_config(tmp_path, harmonic_doc())
        out = tmp_path / "out"
        flag = ["--dump-intermediates"]
        argv = ["--config", cfg, "--out", str(out)]
        argv += flag + [command] if before else [command] + flag
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()

    def test_resolve_always_writes_the_field_dumps(self, tmp_path):
        # `run --data --dump-intermediates` is the resolve path
        cfg = write_config(tmp_path, harmonic_doc())
        data = tmp_path / "data"
        assert main(["--config", cfg, "--out", str(data), "synth"]) == 0
        out = tmp_path / "resolved"
        argv = ["--config", cfg, "--out", str(out), "run", "--data", str(data)]
        assert main(argv + ["--dump-intermediates"]) == 0
        assert (out / "fields" / "h1.field").exists()
        assert (out / "fields" / "alpha_hat.field").exists()

    @pytest.mark.parametrize("command", ["check", "forward", "synth"])
    def test_data_is_an_option_of_run_only(self, tmp_path, command):
        cfg = write_config(tmp_path, harmonic_doc())
        out = tmp_path / "out"
        argv = ["--config", cfg, "--out", str(out), command, "--data", str(tmp_path)]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert not out.exists()


class TestSeedOverride:
    def test_seed_flag_matches_config_seed(self, tmp_path):
        # the top-level seed is the noise seed, so --seed must reproduce
        # a config-seeded run exactly
        noisy = dict(
            grid={"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
            noise={"amplitude": 1e-4},
        )
        cfg_seeded = write_config(tmp_path, bump_doc(seed=3, **noisy), "a.json")
        cfg_plain = write_config(tmp_path, bump_doc(**noisy), "b.json")
        out = {}
        for name, argv in {
            "config": ["--config", cfg_seeded],
            "flag": ["--config", cfg_plain, "--seed", "3"],
            "other": ["--config", cfg_plain, "--seed", "4"],
        }.items():
            d = tmp_path / name
            assert main(argv + ["--out", str(d), "run"]) == 0
            out[name] = (d / "metrics.csv").read_bytes()
        assert out["config"] == out["flag"]
        assert out["config"] != out["other"]

    def test_seed_flag_moves_the_sweep_draw(self, tmp_path):
        cfg = write_config(
            tmp_path,
            bump_doc(
                noise={"amplitude": 1e-4},
                study={"type": "noise-sweep", "amplitudes": [0.0, 1e-4, 2e-4]},
            ),
        )
        out = {}
        for seed in ("5", "7"):
            d = tmp_path / seed
            assert main(["--config", cfg, "--seed", seed, "--out", str(d), "run"]) == 0
            report = json.loads((d / "report.json").read_text())
            assert report["seed"] == int(seed)
            out[seed] = (d / "noise_sweep.csv").read_bytes()
        assert out["5"] != out["7"]
