"""The README's examples run as written.

The `python` block is executed, and every `tribell analyze` and
`tribell simulate` line goes through `cli.main`.  The sweep and `verify`
lines are left out: the acceptance criteria and the battery tests run them.
Every constant the README quotes as `module.NAME` = value must equal the
module attribute, so moving or retuning one cannot leave the text stale.
"""

import importlib
import re
import shlex
from pathlib import Path

import pytest

from tribell import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
COMMANDS = [shlex.split(line, comments=True)
            for lang, body in BLOCKS if not lang
            for line in body.splitlines()
            if re.match(r"tribell (analyze|simulate) ", line)]
CONSTANTS = re.findall(
    r"`(\w+)\.([A-Z][A-Z0-9_]*)` = (\d[\d.]*(?:e[-+]?\d+)?)\b", README)


def test_readme_has_the_examples():
    assert [lang for lang, _ in BLOCKS].count("python") == 1
    assert {argv[1] for argv in COMMANDS} == {"analyze", "simulate"}


def test_readme_python_block_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_cli_line_exits_zero(argv, capsys):
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().out.strip()


def test_readme_quotes_the_tuned_constants():
    assert {name for _, name, _ in CONSTANTS} >= {
        "VIOLATION_MARGIN", "SEPARABLE_CONCURRENCE_TOL",
        "GHZ_CLASS_TAU_THRESHOLD", "MAX_GRID_STEPS", "MAX_GRID_POINTS",
        "CONVERGENCE_TOL"}


@pytest.mark.parametrize("module, name, value", CONSTANTS,
                         ids=[f"{m}.{n}" for m, n, _ in CONSTANTS])
def test_readme_constant_matches_the_code(module, name, value):
    actual = getattr(importlib.import_module(f"tribell.{module}"), name)
    assert actual == float(value)
