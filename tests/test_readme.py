"""The README's quick start and library snippet run as written."""

from __future__ import annotations

import json
import pathlib
import re
from importlib import resources

from hiplab import cli, forward, studies
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
