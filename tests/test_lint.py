"""No unused imports or orphaned definitions in src/ or tests/.

Fails on any name bound by an import in src/ or tests/ that its file never
reads and its __all__ does not list (__future__ imports exempt), and on any
module-level function, class or constant in src/ whose name appears on no
other line of src/ or tests/ (dunder names exempt).
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
