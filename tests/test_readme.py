"""The README's quick start and library snippet run as written."""

from __future__ import annotations

import json
import pathlib
import re
import shlex
from importlib import resources

import pytest

from hiplab import admissibility, cli, forward, studies
from hiplab.config import parse_config

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def code_blocks(lang: str) -> list[str]:
    return re.findall(rf"```{lang}\n(.*?)```", README.read_text(), re.S)


def test_quick_start_config_runs_and_passes_the_audit():
    (text,) = code_blocks("json")
    result = studies.run_pipeline(parse_config(json.loads(text)))
    assert result.admissibility["passed"]
    assert sorted(result.metrics) == ["a", "ahat", "amplitude", "c"]


def test_library_snippet_runs():
    (code,) = code_blocks("python")
    namespace: dict = {}
    exec(code, namespace)
    assert namespace["tri"].shape.grid.shape == (65, 65)


def section(title: str) -> str:
    return README.read_text().split(f"## {title}\n", 1)[1].split("\n## ", 1)[0]


def test_subcommand_table_lists_the_cli_commands():
    rows = re.findall(r"^\| `([a-z-]+)` +\|", section("Subcommands"), re.M)
    assert rows == list(cli.COMMANDS)


def test_solver_bullet_names_the_schema_methods_and_constants():
    schema = json.loads(
        resources.files("hiplab").joinpath("config_schema.json").read_text()
    )
    solver = schema["properties"]["solver"]["properties"]
    assert list(solver) == ["method"]
    bullet = re.search(r"^\* `solver`: (.*?)(?=^\* )", section("Configuration"), re.S | re.M)
    text = " ".join(bullet.group(1).split())
    (listed,) = re.findall(r"^`method` \(([^)]*)\)", text)
    assert [m.strip("`") for m in listed.split("/")] == solver["method"]["enum"]
    for value in (
        forward._KRYLOV_TOLERANCE,
        forward._AUTO_KRYLOV_BUDGET,
        forward._RESIDUAL_CAP,
    ):
        assert f"`{value:g}`" in text


def test_admissibility_bullet_states_the_fixed_floors():
    bullet = re.search(
        r"^\* \*\*Admissibility\.\*\* (.*?)(?=^\* )", README.read_text(), re.S | re.M
    )
    text = " ".join(bullet.group(1).split())
    (stated,) = re.findall(r"Each margin's floor is `([^`]*)`", text)
    assert set(admissibility.FLOORS.values()) == {float(stated)}
    assert "fixed constants of `hiplab.admissibility` (`FLOORS`)" in text


def hiplab_lines() -> list[str]:
    return [
        line.split("#", 1)[0].strip()
        for block in code_blocks("sh")
        for line in block.splitlines()
        if line.startswith("hiplab ")
    ]


def test_every_command_line_parses():
    # an unknown subcommand or option exits through argparse
    lines = hiplab_lines()
    assert lines
    parser = cli.build_parser()
    for line in lines:
        parser.parse_args(shlex.split(line)[1:])


def tree(root: pathlib.Path) -> dict[str, bytes]:
    files = sorted(p for p in root.rglob("*") if p.is_file())
    return {str(p.relative_to(root)): p.read_bytes() for p in files}


@pytest.mark.parametrize("flags", [[], ["--dump-intermediates"]], ids=["plain", "dump"])
def test_run_from_saved_data_writes_what_a_plain_run_writes(tmp_path, flags):
    (text,) = code_blocks("json")
    cfg = tmp_path / "experiment.json"
    cfg.write_text(text)
    base = ["--config", str(cfg), "--out"]
    data, plain, loaded = tmp_path / "data", tmp_path / "run", tmp_path / "rec"
    assert cli.main(base + [str(data), "synth"]) == 0
    assert cli.main(base + [str(plain), "run", *flags]) == 0
    assert cli.main(base + [str(loaded), "run", "--data", str(data), *flags]) == 0
    written = tree(plain)
    assert "report.json" in written and "metrics.csv" in written
    assert ("fields/h1.field" in written) == bool(flags)
    assert tree(loaded) == written
