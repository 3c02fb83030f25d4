"""Every public function, method and property of the library is entered by some CLI call.

A handful of CLI calls that cover every subcommand, both output formats and
the alternative model and state flags run in process under a profiler hook.
Every public function in src/thermoqfi, and every public method and property
of a public class there, must have been entered; an API that no subcommand
reaches is to be removed, not kept up. Dunder and _-prefixed names are exempt.
"""

import ast
import os
import sys
from pathlib import Path

import thermoqfi
from thermoqfi.cli import main

PACKAGE = Path(thermoqfi.__file__).resolve().parent

MODEL = ["--omega12", "1", "--beta", "1.0986", "--gamma", "1"]

# (argv, expected exit code)
CALLS = [
    (["trace", *MODEL, "--a", "0.1", "--r", "1", "--points", "64"], 0),
    (["trace", *MODEL, "--theta", "1.2", "--r", "0.5", "--points", "64", "--format", "json"], 0),
    (["optimize", "--omega12", "1", "--n12", "2", "--tau-tilde", "0.5",
      "--a-steps", "5", "--r-steps", "2"], 0),
    (["optimize", *MODEL, "--a-steps", "5", "--r-steps", "2", "--format", "json"], 0),
    (["experiment"], 0),
    (["experiment", "--n12", "5.5", "--tau-tilde", "0.01"], 0),
    (["estimate", *MODEL, "--a", "0", "--m-experiments", "500", "--replicas", "20"], 0),
    (["estimate", *MODEL, "--a", "0.1", "--r", "1", "--format", "csv"], 0),
    (["validate"], 0),
    (["validate", "--inject-fault", "decomposition-identity"], 1),
]


def _public_definitions():
    """(file, first line, qualified name) of every definition that must be entered.

    The first line of a decorated function is that of its first decorator,
    as in the code object's co_firstlineno.
    """

    def public(name):
        return not name.startswith("_")

    def first_line(node):
        return min([node.lineno, *(d.lineno for d in node.decorator_list)])

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in tree.body:
            if isinstance(node, functions) and public(node.name):
                yield str(path), first_line(node), node.name
            elif isinstance(node, ast.ClassDef) and public(node.name):
                for member in node.body:
                    if isinstance(member, functions) and public(member.name):
                        yield str(path), first_line(member), f"{node.name}.{member.name}"


def test_every_public_definition_is_entered(capsys):
    entered = set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    codes = []
    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        for argv, _ in CALLS:
            codes.append(main(argv))
    finally:
        sys.setprofile(previous)
    capsys.readouterr()
    assert codes == [expected for _, expected in CALLS]

    entered = {(os.path.realpath(name), line) for name, line in entered}
    missed = [
        f"{Path(path).name}:{line} {name}"
        for path, line, name in _public_definitions()
        if (path, line) not in entered
    ]
    assert not missed, "no CLI call enters: " + ", ".join(missed)
