"""README's Python example runs as written and prints what it says, every
command in its table parses, and every flag it names exists."""

import re
import shlex
from pathlib import Path

import pytest

from fraclab.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_example_runs():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    namespace = {}
    exec(compile(block, str(README), "exec"), namespace)
    bracket = namespace["bracket"]
    assert bracket.ratio <= 1.1
    assert (round(bracket.lambda_global, 3), round(bracket.lambda_blowup, 3)) == (0.979, 1.035)


def test_readme_commands_parse():
    # every command of README's table is one the parser accepts, so a flag
    # renamed in cli.py cannot leave the table stale
    commands = re.findall(r"^\| `fraclab ([^`]*)` \|", README.read_text(), re.M)
    assert len(commands) == 8
    for command in commands:
        try:
            args = build_parser().parse_args(shlex.split(command))
        except SystemExit:
            pytest.fail(f"README command does not parse: fraclab {command}")
        assert args.command == command.split()[0]


def test_readme_names_only_flags_that_exist():
    # a --flag in the prose is an option of some subcommand; pip's is not ours
    (commands,) = (a for a in build_parser()._actions if a.dest == "command")
    options = {s for p in commands.choices.values() for a in p._actions for s in a.option_strings}
    named = set(re.findall(r"(?<![\w-])--[a-z](?:[a-z-]*[a-z])?(?![\w-])", README.read_text()))
    named.discard("--no-build-isolation")
    assert len(named) > 20 and named <= options, sorted(named - options)
