"""The README's quick start and library snippet run as written."""

from __future__ import annotations

import json
import pathlib
import re

from hiplab import studies
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
