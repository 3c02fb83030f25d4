"""The README's examples run as written: its Python block and every `thermoqfi` command."""

import re
import shlex
from pathlib import Path

import pytest

from thermoqfi.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks(lang: str) -> list[str]:
    text = README.read_text(encoding="utf-8")
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def _commands() -> list[tuple[list[str], int]]:
    """The argv of each `thermoqfi` line of the sh blocks, and the exit its comment states.

    Backslash continuations are joined first. A line exits 0 unless its
    comment says `exits 1`.
    """
    commands = []
    for block in _blocks("sh"):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["thermoqfi"]:
                expected = 1 if re.search(r"#.*\bexits 1\b", line) else 0
                commands.append((words[1:], expected))
    return commands


def test_every_subcommand_has_an_example():
    shown = {argv[0] for argv, _ in _commands()}
    assert shown == {"trace", "optimize", "experiment", "estimate", "validate"}


def test_python_example_runs(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    [code] = _blocks("python")
    exec(compile(code, str(README), "exec"), {})


@pytest.mark.parametrize(
    "argv,expected", [pytest.param(*c, id=" ".join(c[0])) for c in _commands()]
)
def test_command_runs(tmp_path, monkeypatch, capsys, argv, expected):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == expected
    assert capsys.readouterr().err == ""
