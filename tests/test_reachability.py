"""Every public function, method, property and dataclass field is reached by some CLI call.

A handful of CLI calls that cover every subcommand, both output formats and
the alternative model and state flags run in process under a profiler hook,
with every public dataclass's attribute reads recorded. Every public
function in src/thermoqfi, and every public method and property of a public
class there, must have been entered, and every field of a public dataclass
must have been read (by the class's own checks or by anything else); an API
that no subcommand reaches is to be removed, not kept up. Dunder and
_-prefixed names are exempt.
"""

import ast
import dataclasses
import importlib
import io
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

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


def _public_dataclasses():
    """Every public dataclass defined in a module of the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        name = "thermoqfi" if path.stem == "__init__" else f"thermoqfi.{path.stem}"
        module = importlib.import_module(name)
        for cls in vars(module).values():
            if (
                isinstance(cls, type)
                and cls.__module__ == name
                and not cls.__name__.startswith("_")
                and dataclasses.is_dataclass(cls)
            ):
                yield cls


def _field_reader(cls, read):
    """A __getattribute__ for cls that adds "Class.field" to read on each field read."""
    fields = {field.name for field in dataclasses.fields(cls)}

    def __getattribute__(self, name):
        if name in fields:
            read.add(f"{cls.__name__}.{name}")
        return object.__getattribute__(self, name)

    return __getattribute__


@pytest.fixture(scope="module")
def session():
    """Run CALLS once: their exit codes, the code entered and the fields read."""
    entered, read = set(), set()

    def hook(frame, event, arg):
        if event == "call":
            entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

    classes = list(_public_dataclasses())
    assert not [cls for cls in classes if "__getattribute__" in vars(cls)]
    previous = sys.getprofile()
    try:
        for cls in classes:
            cls.__getattribute__ = _field_reader(cls, read)
        sys.setprofile(hook)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            codes = [main(argv) for argv, _ in CALLS]
    finally:
        sys.setprofile(previous)
        for cls in classes:
            if "__getattribute__" in vars(cls):
                del cls.__getattribute__
    return codes, entered, read, classes


def test_every_public_definition_is_entered(session):
    codes, entered, _, _ = session
    assert codes == [expected for _, expected in CALLS]

    entered = {(os.path.realpath(name), line) for name, line in entered}
    missed = [
        f"{Path(path).name}:{line} {name}"
        for path, line, name in _public_definitions()
        if (path, line) not in entered
    ]
    assert not missed, "no CLI call enters: " + ", ".join(missed)


def test_every_public_field_is_read(session):
    _, _, read, classes = session
    unread = [
        f"{cls.__name__}.{field.name}"
        for cls in classes
        for field in dataclasses.fields(cls)
        if f"{cls.__name__}.{field.name}" not in read
    ]
    assert not unread, "no CLI call reads: " + ", ".join(unread)
