"""Self-tests of the benchmark's checker, tracer and workload generator.

    python3 -m pytest benchmarks/selftest.py -q

They are kept out of the repository's test suite (the file name does not
match test_*.py) because they exercise the benchmark, not the package.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

import thermoqfi  # noqa: E402
import thermoqfi.cli  # noqa: E402


def _invocation(workload: str, label: str) -> workloads.Invocation:
    for inv in workloads.generate(workload, 0):
        if inv.label == label:
            return inv
    raise LookupError(label)


def _output(inv: workloads.Invocation, tmp_path: Path) -> str:
    outcome = run.in_process(thermoqfi.cli, inv, tmp_path)
    assert outcome.exit_code == 0, outcome.stderr
    return outcome.output.decode()


@pytest.fixture(scope="module")
def trace_csv(tmp_path_factory):
    inv = _invocation("cli-session", "trace-csv")
    return inv, _output(inv, tmp_path_factory.mktemp("trace"))


@pytest.fixture(scope="module")
def optimize_json(tmp_path_factory):
    inv = _invocation("cli-session", "optimize")
    return inv, _output(inv, tmp_path_factory.mktemp("optimize"))


def test_trace_output_passes(trace_csv):
    inv, text = trace_csv
    verdict = oracle.check("trace", text, inv.params)
    assert verdict.ok, verdict.reason
    assert verdict.max_rel_err < 1e-10


@pytest.mark.parametrize("row", [1, 700, 2047])
@pytest.mark.parametrize("column", [1, 3, 7])
def test_corrupted_trace_row_is_rejected(trace_csv, row, column):
    inv, text = trace_csv
    lines = text.split("\n")
    cells = lines[row + 1].split(",")
    cells[column] = repr(float(cells[column]) * (1.0 + 1e-6) + 1e-9)
    lines[row + 1] = ",".join(cells)
    verdict = oracle.check("trace", "\n".join(lines), inv.params)
    assert not verdict.ok


def test_dropped_trace_row_is_rejected(trace_csv):
    inv, text = trace_csv
    lines = text.split("\n")
    del lines[500]
    assert not oracle.check("trace", "\n".join(lines), inv.params).ok


def test_optimize_output_passes(optimize_json):
    inv, text = optimize_json
    verdict = oracle.check("optimize", text, inv.params)
    assert verdict.ok, verdict.reason


def test_swapped_ranking_is_rejected(optimize_json):
    inv, text = optimize_json
    doc = json.loads(text)
    doc["rows"][0], doc["rows"][5] = doc["rows"][5], doc["rows"][0]
    assert not oracle.check("optimize", json.dumps(doc), inv.params).ok


def test_relabelled_top_state_is_rejected(optimize_json):
    inv, text = optimize_json
    doc = json.loads(text)
    top, other = doc["rows"][0], doc["rows"][-1]
    top["a"], other["a"] = other["a"], top["a"]
    top["region"], other["region"] = other["region"], top["region"]
    assert not oracle.check("optimize", json.dumps(doc), inv.params).ok


def test_tracer_restores_every_original(tmp_path):
    modules = [thermoqfi] + [getattr(thermoqfi, name) for name in tracer.LAYERS]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    commands = dict(thermoqfi.cli._COMMANDS)
    t = tracer.Tracer(thermoqfi)
    with t:
        assert thermoqfi.cli._COMMANDS["trace"] is not commands["trace"]
        assert thermoqfi.metrology.qfi_values is not before[("thermoqfi.qfi", "qfi_values")]
        run.in_process(thermoqfi.cli, _invocation("cli-session", "optimize"), tmp_path)
    assert t.spans, "no spans were recorded"
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    assert thermoqfi.cli._COMMANDS == commands
    for name, fn in commands.items():
        assert thermoqfi.cli._COMMANDS[name] is fn


def test_tracer_self_time_excludes_children(tmp_path):
    t = tracer.Tracer(thermoqfi)
    with t:
        run.in_process(thermoqfi.cli, _invocation("cli-session", "optimize"), tmp_path)
    stats = tracer.summarize(t.spans)
    total = sum(s.end - s.start for s in t.spans if s.parent < 0)
    assert sum(stats["layer_self_s"].values()) == pytest.approx(total, rel=1e-9)
    assert stats["calls"]["metrology.optimize_initial_state"] == 1
    assert stats["calls"]["metrology.maximize_qfi_over_time"] == 42


def test_generator_is_deterministic_per_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
        assert workloads.generate(workload, 7) != workloads.generate(workload, 8)


def test_cli_session_states_cover_every_region():
    for seed in range(5):
        regions = set()
        for inv in workloads.generate("cli-session", seed):
            if "a" in inv.params and not inv.probe:
                pi2 = oracle.mp_point(inv.params["omega"], inv.params["beta"], 1.0, 0, 0, 0)["pi2"]
                regions.add(oracle._region(inv.params["a"], pi2))
        assert regions == {"C", "H", "I"}


def test_parse_importtime():
    stderr = "\n".join(
        [
            "import time: self [us] | cumulative | imported package",
            "import time:       100 |        100 | encodings",
            "import time:        50 |         50 |     numpy.core",
            "import time:       200 |        250 |   numpy",
            "import time:        30 |         30 |       scipy._lib",
            "import time:        70 |        100 |     scipy",
            "import time:        40 |         40 |       scipy.linalg._misc",
            "import time:        60 |        100 |     scipy.linalg",
            "import time:        10 |        210 |   thermoqfi.dynamics",
            "import time:         5 |        465 | thermoqfi",
        ]
    )
    total, scipy_s, modules = run.parse_importtime(stderr)
    assert total == pytest.approx(465e-6)
    assert scipy_s == pytest.approx(200e-6)
    assert modules == 8
