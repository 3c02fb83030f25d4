"""No unused imports, orphaned definitions or unset options in src/ or tests/.

Fails on any name bound by an import in src/ or tests/ that its file never
reads and its __all__ does not list (__future__ imports exempt), and on any
module-level function, class or constant in src/ whose name appears on no
other line of src/ or tests/ (dunder names exempt). Also fails on any
parameter with a default, of a public function or method in src/thermoqfi,
that no call in src/ to a callable of that name passes: an option that only
tests set is to be removed, not kept up.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_no_unused_imports_or_orphaned_definitions():
    unused = []
    lines_with = collections.Counter()
    defined = []
    for path in sorted(p.relative_to(ROOT) for d in ("src", "tests") for p in (ROOT / d).rglob("*.py")):
        text = (ROOT / path).read_text(encoding="utf-8")
        for line in text.splitlines():
            lines_with.update(set(re.findall(r"\w+", line)))
        tree = ast.parse(text, str(path))
        if path.parts[0] == "src":
            for node in tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    defined.append((path, node.lineno, node.name))
                elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                    defined += [(path, t.lineno, t.id) for t in targets if isinstance(t, ast.Name)]
        nodes = list(ast.walk(tree))
        bound = {
            (alias.asname or alias.name).split(".")[0]: node.lineno
            for node in nodes
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {n.id for n in nodes if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        listed = {
            c.value
            for node in nodes
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
            for c in ast.walk(node.value)
            if isinstance(c, ast.Constant)
        }
        unused += [f"{path}:{line}: {name} imported but unused" for name, line in bound.items() if name not in read | listed]
    orphans = [
        f"{path}:{line}: {name} is defined but appears on no other line"
        for path, line, name in defined
        if not (name.startswith("__") and name.endswith("__")) and lines_with[name] < 2
    ]
    assert not unused + orphans, "\n".join(unused + orphans)


# cli.main's argv: the console script calls main() with none, and the tests
# pass argv in process to run the CLI without a subprocess.
UNSET_OPTIONS_ALLOWED = {("cli.py", "main", "argv")}


def test_every_option_is_set_by_some_call_in_src():
    trees = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in sorted((ROOT / "src" / "thermoqfi").glob("*.py"))}
    options = []  # (file, callable, parameter, position in a call or None)
    for name, tree in trees.items():
        entries = [(node, 0) for node in tree.body if isinstance(node, ast.FunctionDef)]
        for cls in (node for node in tree.body if isinstance(node, ast.ClassDef) and not node.name.startswith("_")):
            for member in (m for m in cls.body if isinstance(m, ast.FunctionDef)):
                static = any(getattr(d, "id", None) == "staticmethod" for d in member.decorator_list)
                entries.append((member, 0 if static else 1))  # self or cls is not passed
        for fn, bound in entries:
            if fn.name.startswith("_"):
                continue
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            options += [(name, fn.name, arg.arg, i - bound) for i, arg in enumerate(positional) if i >= first]
            options += [
                (name, fn.name, arg.arg, None)
                for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
                if default is not None
            ]
    calls = [node for tree in trees.values() for node in ast.walk(tree) if isinstance(node, ast.Call)]

    def sets(call, fn, arg, at):
        callee = call.func.id if isinstance(call.func, ast.Name) else getattr(call.func, "attr", None)
        passed = {keyword.arg for keyword in call.keywords}
        return callee == fn and (arg in passed or (at is not None and len(call.args) > at))

    unset = [
        f"src/thermoqfi/{name}: {fn}({arg}=...) is set by no call in src/"
        for name, fn, arg, at in options
        if (name, fn, arg) not in UNSET_OPTIONS_ALLOWED and not any(sets(c, fn, arg, at) for c in calls)
    ]
    assert not unset, "\n".join(unset)
