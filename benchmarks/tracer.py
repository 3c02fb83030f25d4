"""Outside-in tracing of the thermoqfi package, for the per-layer numbers.

The tracer replaces every public function of each traced module with a timing
wrapper in every module namespace that binds it, because `metrology`,
`validate` and `cli` import names with `from .x import y`; module-level dicts
that hold a traced function (the CLI's command table) are re-pointed too.
Each call records a span (name, start, end, parent). A span's self time is
its duration minus the time its child spans cover. Every original object is
put back when tracing ends, including after an exception.
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass

LAYERS = ("spectrum", "dynamics", "qfi", "metrology", "validate", "cli")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index of the parent span, -1 for a root
    child_time: float = 0.0
    points: int = 0      # time points evaluated, for qfi.qfi_values


def _points(args, kwargs) -> int:
    times = kwargs.get("times", args[3] if len(args) > 3 else None)
    try:
        return len(times)
    except TypeError:
        return 1


# Per-function work counters recorded on the span besides its timing.
POINT_COUNTERS = {"qfi.qfi_values": _points}


class Tracer:
    """Install with `with Tracer(package) as tracer:`; spans land in tracer.spans."""

    def __init__(self, package):
        self.package = package
        self.modules = {name: getattr(package, name) for name in LAYERS}
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []

    def traced_functions(self) -> dict[str, object]:
        """Qualified name -> original function for every public function of each layer."""
        found = {}
        for layer, module in self.modules.items():
            for name, value in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    found[f"{layer}.{name}"] = value
        return found

    def _wrap(self, qualname: str, fn):
        spans, stack = self.spans, self._stack
        counter = POINT_COUNTERS.get(qualname)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(qualname, clock(), 0.0, stack[-1] if stack else -1)
            if counter is not None:
                span.points = counter(args, kwargs)
            spans.append(span)
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                span.end = clock()
                if span.parent >= 0:
                    spans[span.parent].child_time += span.end - span.start

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        return wrapper

    def _namespaces(self) -> list[dict]:
        spaces = [vars(self.package)] + [vars(m) for m in self.modules.values()]
        tables = [
            value
            for space in list(spaces)
            for value in space.values()
            if isinstance(value, dict) and value is not space
        ]
        return spaces + tables

    def install(self) -> None:
        originals = self.traced_functions()
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in originals.items()}
        for space in self._namespaces():
            for key, value in list(space.items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patches.append((space, key, value))
                    space[key] = wrapper

    def uninstall(self) -> None:
        while self._patches:
            space, key, original = self._patches.pop()
            space[key] = original

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def reset(self) -> None:
        self.spans.clear()
        self._stack.clear()


def summarize(spans: list[Span]) -> dict:
    """Per-function calls and self time, per-layer self time, and point counts."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    points: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
        own = (span.end - span.start) - span.child_time
        self_s[span.name] = self_s.get(span.name, 0.0) + own
        if span.points:
            points[span.name] = points.get(span.name, 0) + span.points
    layer_self = {layer: 0.0 for layer in LAYERS}
    for name, value in self_s.items():
        layer_self[name.split(".", 1)[0]] += value
    return {"calls": calls, "self_s": self_s, "layer_self_s": layer_self, "points": points}


def points_under(spans: list[Span], ancestor: str, name: str = "qfi.qfi_values") -> int:
    """Points evaluated by `name` spans that ran inside an `ancestor` span."""
    total = 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent >= 0 and spans[parent].name != ancestor:
            parent = spans[parent].parent
        if parent >= 0:
            total += span.points
    return total
