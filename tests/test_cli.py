"""Command-line harness: subcommands, exit codes, file outputs."""

from __future__ import annotations

import json
import os

import pytest

from hiplab import forward
from hiplab.cli import main
from hiplab.grids import read_field


def write_config(tmp_path, doc, name="config.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


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
        assert "admissibility" in capsys.readouterr().err

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
        for command in ("forward", "synth", "reconstruct", "resolve"):
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
        code = main(
            ["--config", cfg, "--out", str(out), "reconstruct", "--data", str(data)]
        )
        assert code == 0
        for name in ("alpha_hat.field", "beta.field", "quality.field"):
            assert (out / name).exists(), name
        summary = json.loads((out / "reconstruction.json").read_text())
        assert summary["admissibility"]["passed"] is True
        assert summary["metrics"]["ahat"]["c0"] <= 1e-8

    def test_resolve_writes_report_and_states_the_gauge(self, tmp_path, capsys):
        cfg = write_config(tmp_path, harmonic_doc())
        out = tmp_path / "resolved"
        assert main(["--config", cfg, "--out", str(out), "resolve"]) == 0
        stdout = capsys.readouterr().out
        assert "two" in stdout  # the two-function gauge statement
        report = json.loads((out / "report.json").read_text())
        assert report["gauge"]["modality"] == "elastography"
        assert (out / "fields" / "resolved_a.field").exists()


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
                seed=11,
                grid={"bounds": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
                noise={"amplitude": 1e-4, "seed": 21},
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
        cfg = write_config(tmp_path, harmonic_doc())
        out = tmp_path / "resolved"
        assert main(["--config", cfg, "--out", str(out), "resolve"]) == 0
        assert (out / "fields" / "h1.field").exists()
        assert (out / "fields" / "alpha_hat.field").exists()


class TestSeedOverride:
    def test_seed_flag_matches_config_seed(self, tmp_path):
        # a noise section without its own seed falls back to the top
        # level, so --seed must reproduce a config-seeded run exactly
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
