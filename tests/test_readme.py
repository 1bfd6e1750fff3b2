"""The README's examples run as written.

The `python` block is executed, every `tribell analyze` and
`tribell simulate` line goes through `cli.main`, and every `tribell` line
goes through the parser.  The sweep and `verify` lines are parsed but not
run: the acceptance criteria and the battery tests run them.
Every constant the README quotes as `module.NAME` = value must equal the
module attribute, every `layer.name` it cites must exist, and every
`--flag` it names must be an option of the parser, so moving, retuning or
dropping one cannot leave the text stale.
"""

import argparse
import importlib
import re
import shlex
from pathlib import Path

import pytest

from tribell import cli

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```", README, re.M | re.S)
LINES = [shlex.split(line, comments=True)
         for lang, body in BLOCKS if not lang
         for line in body.splitlines() if line.startswith("tribell ")]
COMMANDS = [argv for argv in LINES if argv[1] in ("analyze", "simulate")]
CONSTANTS = re.findall(
    r"`(\w+)\.([A-Z][A-Z0-9_]*)` = (\d[\d.]*(?:e[-+]?\d+)?)\b", README)
# `tribell.optimize.w_sum_max`, `optimize.w_sum_max(C12)` and the like:
# (layer, ".w_sum_max") with any call arguments dropped.
NAMES = re.findall(
    r"`(?:tribell\.)?(qcore|entanglement|bell|optimize|montecarlo|cli)"
    r"((?:\.\w+)+)(?:\([^`]*\))?`", README)
# The install line's flags are pip's, not tribell's.
FLAGS = set(re.findall(r"(?<![\w-])--[a-z][\w-]*",
                       re.sub(r"^pip install .*$", "", README, flags=re.M)))


def test_readme_has_the_examples():
    assert [lang for lang, _ in BLOCKS].count("python") == 1
    assert {argv[1] for argv in COMMANDS} == {"analyze", "simulate"}
    assert {argv[1] for argv in LINES} == {
        "analyze", "sweep-ghz", "sweep-w", "verify", "simulate"}


def test_readme_python_block_runs(capsys):
    (code,) = [body for lang, body in BLOCKS if lang == "python"]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


@pytest.mark.parametrize("argv", LINES, ids=" ".join)
def test_readme_cli_line_parses(argv):
    cli.build_parser().parse_args(argv[1:])


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_readme_cli_line_exits_zero(argv, capsys):
    assert cli.main(argv[1:]) == 0
    assert capsys.readouterr().out.strip()


def test_readme_quotes_the_tuned_constants():
    assert {name for _, name, _ in CONSTANTS} >= {
        "VIOLATION_MARGIN", "SEPARABLE_CONCURRENCE_TOL",
        "GHZ_CLASS_TAU_THRESHOLD", "MAX_GRID_STEPS", "MAX_GRID_POINTS",
        "CONVERGENCE_TOL", "RANK_CUTOFF", "REPORT_TOL", "N_STARTS",
        "BOUND_TOL", "CASE_SLICE"}


@pytest.mark.parametrize("module, name, value", CONSTANTS,
                         ids=[f"{m}.{n}" for m, n, _ in CONSTANTS])
def test_readme_constant_matches_the_code(module, name, value):
    actual = getattr(importlib.import_module(f"tribell.{module}"), name)
    assert actual == float(value)


def _resolves(layer, attributes):
    obj = importlib.import_module(f"tribell.{layer}")
    for attribute in attributes.split(".")[1:]:
        if not hasattr(obj, attribute):
            return False
        obj = getattr(obj, attribute)
    return True


def test_readme_cites_only_names_the_code_has():
    assert NAMES, "the README cites no library name"
    missing = [layer + attributes for layer, attributes in NAMES
               if not _resolves(layer, attributes)]
    assert not missing, f"not in the library: {missing}"


def test_readme_names_only_flags_the_parser_has():
    parser = cli.build_parser()
    (sub,) = [action for action in parser._actions
              if isinstance(action, argparse._SubParsersAction)]
    options = {option for each in (parser, *sub.choices.values())
               for action in each._actions
               for option in action.option_strings}
    assert FLAGS, "the README names no flag"
    assert FLAGS <= options, f"not options: {sorted(FLAGS - options)}"
