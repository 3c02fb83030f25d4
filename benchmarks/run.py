"""thermoqfi benchmark: drive the CLI as a user does and report metrics.

    python3 benchmarks/run.py --workload cli-session --seed 0 --seconds 35 --trace 0

--trace 0 runs each invocation of the workload as a fresh
`python -m thermoqfi.cli` child against the checkout's src/, one after the
other (closed loop, one client), repeating passes for --seconds, and prints
the end-to-end metrics. --trace 1 calls thermoqfi.cli.main(argv) in process
with every public function of each layer wrapped from outside, and prints the
per-layer metrics. Every output is checked against the benchmark's own
mpmath oracle.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The line before it is the run record: seed, argv of every invocation,
library versions, thread settings, commit, and the figures that are not
gated metrics (throughputs per workload, percentiles, the edge probe).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import math
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import oracle
from workloads import WORKLOADS, Invocation, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Every run must end within 180 s; children are killed past this point.
HARD_LIMIT_S = 170.0
SETUP_SAMPLES_BEFORE = 2
MIN_PASSES = 3
IMPORT_SAMPLES = 3
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
TRACEBACK_MARK = "Traceback (most recent call last)"

# Functions whose calls and self time are reported one by one. Every public
# function is traced and counts towards its layer's self time; these are the
# ones the open performance items are expected to move.
FUNCTION_METRICS = (
    "spectrum.thermal_distribution",
    "spectrum.thermal_ratio",
    "spectrum.rate_matrix",
    "spectrum.transition_matrix",
    "spectrum.stationary_distribution",
    "spectrum.spectral_report",
    "dynamics.propagate_populations",
    "dynamics.evolve_state",
    "dynamics.qubit_state",
    "dynamics.qubit_relaxation_rate",
    "dynamics.gad_master_comparison",
    "qfi.qfi_values",
    "qfi.trace_arrays",
    "qfi.qubit_qfi",
    "qfi.qubit_sld",
    "qfi.sld_general",
    "qfi.qfi_decomposition",
    "qfi.thermal_qfi",
    "qfi.beta_derivative_qubit",
    "qfi.diagonal_qfi",
    "metrology.maximize_qfi_over_time",
    "metrology.optimize_initial_state",
    "metrology.golden_section_maximize",
    "metrology.cramer_rao_report",
    "metrology.classical_fisher_information",
    "metrology.classify_region",
    "validate.run_checks",
    "cli.main",
    "cli.cmd_trace",
    "cli.cmd_optimize",
    "cli.cmd_experiment",
    "cli.cmd_estimate",
    "cli.cmd_validate",
)


class BenchmarkError(Exception):
    """The benchmark cannot run in this checkout."""


@dataclass
class Outcome:
    """What one invocation did and whether it passed."""

    wall_s: float
    cpu_s: float
    max_rss_mb: float
    exit_code: int
    stderr: str
    output: bytes
    ok: bool = False
    reason: str = ""
    max_rel_err: float = 0.0
    output_bytes: int = field(init=False)

    def __post_init__(self) -> None:
        self.output_bytes = len(self.output)


@dataclass
class PassResult:
    invocations: list[Invocation]
    outcomes: list[Outcome] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    def pairs(self, probes: bool = False):
        """(invocation, outcome) of the workload's operations, or of its probes."""
        return [(i, o) for i, o in zip(self.invocations, self.outcomes) if i.probe == probes]


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def require_checkout() -> None:
    if not (SRC / "thermoqfi" / "__init__.py").is_file():
        raise BenchmarkError(f"no thermoqfi sources under {SRC}")
    probe = subprocess.run(
        [sys.executable, "-c", "import thermoqfi, sys; sys.stdout.write(thermoqfi.__file__)"],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if probe.returncode != 0 or not Path(probe.stdout).resolve().is_relative_to(SRC.resolve()):
        raise BenchmarkError(f"thermoqfi does not import from {SRC}: {probe.stderr.strip()}")


def git_commit() -> str | None:
    """The commit of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run_record(args, invocations: list[Invocation]) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "mpmath": version("mpmath"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "invocations": [
            {"label": inv.label, "argv": ["thermoqfi", *inv.argv], "probe": inv.probe} for inv in invocations
        ],
    }


class Deadline:
    def __init__(self, seconds: float):
        self.start = time.perf_counter()
        self.end = self.start + seconds

    def left(self) -> float:
        return self.end - time.perf_counter()

    def hard_left(self) -> float:
        return self.start + HARD_LIMIT_S - time.perf_counter()


class Spawner:
    """The small process that starts every timed child (see spawner.py)."""

    def __init__(self, scratch: Path, deadline: Deadline):
        self.scratch, self.deadline = scratch, deadline
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "spawner.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=child_env(),
            cwd=scratch,
        )

    def run(self, argv: list[str], stdout=os.devnull, stderr=os.devnull) -> dict:
        """Run argv to completion: wall_s, exit_code, cpu_s and max_rss_mb."""
        request = {
            "argv": argv,
            "cwd": str(self.scratch),
            "stdout": str(stdout),
            "stderr": str(stderr),
            "timeout": max(self.deadline.hard_left(), 1.0),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        answer = self.proc.stdout.readline()
        if not answer:
            raise BenchmarkError("the spawner process exited")
        return json.loads(answer)

    def __enter__(self) -> "Spawner":
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def time_setup(spawner: Spawner) -> float:
    """Interpreter start plus `import thermoqfi` in a fresh child."""
    result = spawner.run([sys.executable, "-c", "import thermoqfi"])
    if result["exit_code"] != 0:
        raise BenchmarkError("import thermoqfi failed in a fresh interpreter")
    return result["wall_s"]


def run_invocation(spawner: Spawner, inv: Invocation) -> Outcome:
    out_path, err_path = spawner.scratch / "stdout", spawner.scratch / "stderr"
    result = spawner.run([sys.executable, "-m", "thermoqfi.cli", *inv.argv], out_path, err_path)
    code = result["exit_code"]
    output = (spawner.scratch / inv.out).read_bytes() if inv.out and code == 0 else out_path.read_bytes()
    return Outcome(
        wall_s=result["wall_s"],
        cpu_s=result["cpu_s"],
        max_rss_mb=result["max_rss_mb"],
        exit_code=code,
        stderr=err_path.read_text(errors="replace"),
        output=output,
    )


class Judge:
    """Checks outcomes against the oracle; repeated argv must repeat bytes."""

    def __init__(self):
        self.first: dict[tuple[str, ...], tuple[str, oracle.Verdict]] = {}

    def judge(self, inv: Invocation, outcome: Outcome) -> None:
        outcome.ok, outcome.reason = self._verdict(inv, outcome)

    def _verdict(self, inv: Invocation, outcome: Outcome) -> tuple[bool, str]:
        lines = outcome.stderr.strip().splitlines()
        if TRACEBACK_MARK in outcome.stderr:
            return False, f"traceback: {lines[-1] if lines else ''}"
        if inv.probe and outcome.exit_code == 2:
            one_line = len(lines) == 1 and lines[0].startswith("error: ")
            return one_line, "" if one_line else "exit 2 without a one-line error"
        if outcome.exit_code != 0:
            return False, f"exit {outcome.exit_code}"
        digest = hashlib.sha256(outcome.output).hexdigest()
        if inv.argv not in self.first:
            verdict = oracle.check(inv.check, outcome.output.decode("utf-8"), inv.params)
            self.first[inv.argv] = (digest, verdict)
        first_digest, verdict = self.first[inv.argv]
        if digest != first_digest:
            return False, "output differs from an earlier run of the same argv"
        outcome.max_rel_err = verdict.max_rel_err if verdict.ok else 0.0
        return verdict.ok, verdict.reason

    def judge_pass(self, result: PassResult, keep_output: bool = False) -> None:
        for inv, outcome in zip(result.invocations, result.outcomes):
            self.judge(inv, outcome)
            if not keep_output:
                outcome.output = b""


def summary(values: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, count, samples."""
    ordered = sorted(values)
    n = len(ordered)
    out = {"median": statistics.median(ordered), "samples": n}
    q = math.floor(100.0 * (1.0 - 10.0 / n)) if n > 10 else 0
    if q > 50:
        out[f"p{q}"] = ordered[min(n - 1, math.ceil(q / 100.0 * n) - 1)]
    out["values"] = values
    return out


def throughput(passes: list[PassResult], attr: str) -> float | None:
    """Median over passes of work done per second of the invocations doing it."""
    rates = []
    for p in passes:
        busy = [(getattr(i, attr), o.wall_s) for i, o in p.pairs() if getattr(i, attr)]
        if busy:
            rates.append(sum(w for w, _ in busy) / sum(t for _, t in busy))
    return statistics.median(rates) if rates else None


def repeat_passes(deadline: Deadline, run_pass, minimum: int) -> list:
    """Run at least `minimum` passes, then more until the next would overrun."""
    passes, longest = [], 0.0
    while True:
        started = time.perf_counter()
        passes.append(run_pass())
        longest = max(longest, time.perf_counter() - started)
        if len(passes) >= minimum and deadline.left() < longest:
            return passes


def median_pass(passes: list[PassResult], attr: str) -> list[float]:
    """Per invocation, the median of `attr` over the passes.

    A shared machine slows down for stretches of seconds. A pass total adds
    up every slow stretch its invocations met; an invocation's median
    ignores a stretch that hit it in fewer than half of the passes.
    """
    return [statistics.median(getattr(p.outcomes[k], attr) for p in passes) for k in range(len(passes[0].outcomes))]


def untraced(args, invocations: list[Invocation], scratch: Path) -> tuple[dict, dict]:
    deadline = Deadline(args.seconds)
    judge = Judge()
    with Spawner(scratch, deadline) as spawner:
        setup = [time_setup(spawner) for _ in range(SETUP_SAMPLES_BEFORE)]

        def run_pass() -> PassResult:
            setup.append(time_setup(spawner))
            result = PassResult(invocations, [run_invocation(spawner, inv) for inv in invocations])
            judge.judge_pass(result)
            return result

        passes = repeat_passes(deadline, run_pass, MIN_PASSES)
    failures = [(i.label, o.reason) for p in passes for i, o in p.pairs() if not o.ok]
    attempted = sum(len(p.pairs()) for p in passes)
    probes = [(i, o) for p in passes for i, o in p.pairs(probes=True)]
    pass_wall = [p.wall_s for p in passes]
    wall = sum(median_pass(passes, "wall_s"))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(median_pass(passes, "cpu_s")), "s"),
        "peak_rss_mb": (max(median_pass(passes, "max_rss_mb")), "MB"),
        "calls_per_s": (len(invocations) / wall, "1/s"),
    }
    record = {
        "passes": len(passes),
        "setup_s": summary(setup),
        "wall_s": summary(pass_wall),
        "per_invocation_s": {
            inv.label: summary([p.outcomes[k].wall_s for p in passes]) for k, inv in enumerate(invocations)
        },
        "rows_per_s": throughput(passes, "trace_rows"),
        "states_per_s": throughput(passes, "states"),
        "replicas_per_s": throughput(passes, "replicas"),
        "failed_ratio": (len(failures) + sum(not o.ok for _, o in probes)) / (attempted + len(probes)),
        "edge_probe": [
            {
                "label": i.label,
                "expected": "exit 2 with a one-line error, or exit 0 with a correct result",
                "exit_code": o.exit_code,
                "ok": o.ok,
                "reason": o.reason,
            }
            for i, o in passes[0].pairs(probes=True)
        ],
        "max_rel_err": max((o.max_rel_err for p in passes for o in p.outcomes), default=0.0),
        "failures": sorted(set(failures)),
    }
    return {"attempted": attempted, "failed": len(failures), "metrics": metrics}, record


# ---------------------------------------------------------------- traced run

_IMPORTTIME = re.compile(r"import time:\s+(\d+)\s+\|\s+(\d+)\s+\|( *)(\S+)")


def parse_importtime(stderr: str) -> tuple[float, float, int]:
    """Cumulative import time of thermoqfi and of scipy, and the module count.

    -X importtime prints each module when its import finishes, indented by
    nesting depth, so a module's parent is the next line with less indent.
    """
    rows = [(int(m[2]), len(m[3]) // 2, m[4]) for m in _IMPORTTIME.finditer(stderr)]
    top = [i for i, (_, depth, name) in enumerate(rows) if name == "thermoqfi" and depth == 0]
    if not top:
        raise BenchmarkError("import thermoqfi did not show in -X importtime")
    end = top[-1]
    begin = end
    while begin > 0 and rows[begin - 1][1] > 0:
        begin -= 1
    subtree = rows[begin : end + 1]
    scipy_us = 0
    for i, (cum, depth, name) in enumerate(subtree):
        if not name.startswith("scipy"):
            continue
        parent = next((r for r in subtree[i + 1 :] if r[1] < depth), None)
        if parent is None or not parent[2].startswith("scipy"):
            scipy_us += cum
    return subtree[-1][0] / 1e6, scipy_us / 1e6, len(subtree)


def import_profile(scratch: Path, deadline: Deadline) -> dict:
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import thermoqfi"],
            cwd=scratch,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=max(deadline.hard_left(), 1.0),
            check=False,
        )
        if proc.returncode != 0:
            raise BenchmarkError("import thermoqfi failed under -X importtime")
        samples.append(parse_importtime(proc.stderr))
    return {
        "import.thermoqfi_s": statistics.median(s[0] for s in samples),
        "import.scipy_s": statistics.median(s[1] for s in samples),
        "import.modules": samples[0][2],
    }


def in_process(cli, inv: Invocation, scratch: Path) -> Outcome:
    argv = list(inv.argv)
    if inv.out:
        argv[argv.index("--out") + 1] = str(scratch / inv.out)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error is a traceback for a user of the CLI
            traceback.print_exc()
            code = 1
    wall = time.perf_counter() - start
    output = (scratch / inv.out).read_bytes() if inv.out and code == 0 else out.getvalue().encode()
    return Outcome(wall, 0.0, 0.0, code, err.getvalue(), output)


def traced(args, invocations: list[Invocation], scratch: Path) -> tuple[dict, dict]:
    from tracer import LAYERS, Tracer, points_under, summarize

    deadline = Deadline(args.seconds)
    metrics = dict(import_profile(scratch, deadline))
    sys.path.insert(0, str(SRC))
    import thermoqfi
    import thermoqfi.cli as cli

    tracer = Tracer(thermoqfi)
    judge = Judge()
    plain_walls, traced_walls = [], []

    def run_pass():
        plain = PassResult(invocations, [in_process(cli, inv, scratch) for inv in invocations])
        judge.judge_pass(plain)
        tracer.reset()
        with tracer:
            result = PassResult(invocations, [in_process(cli, inv, scratch) for inv in invocations])
        judge.judge_pass(result, keep_output=True)
        plain_walls.append(plain.wall_s)
        traced_walls.append(result.wall_s)
        stats = summarize(tracer.spans)
        stats["spans"] = len(tracer.spans)
        stats["optimize_points"] = points_under(tracer.spans, "metrology.optimize_initial_state")
        stats["output_bytes"] = sum(o.output_bytes for o in result.outcomes)
        stats["edge_defects"] = sum(not o.ok for _, o in result.pairs(probes=True))
        estimates = [(i, o) for i, o in result.pairs() if i.check == "estimate" and o.ok]
        stats["replicas"] = sum(i.replicas for i, _ in estimates)
        stats["clamped"] = sum(json.loads(o.output)["results"]["clamped_count"] for _, o in estimates)
        for outcome in result.outcomes:
            outcome.output = b""
        return result, stats

    passes = repeat_passes(deadline, run_pass, 1)
    first = passes[0][1]

    def timed(fn) -> float:
        return statistics.median(fn(stats) for _, stats in passes)

    def counted(fn):
        return fn(first)

    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = timed(lambda s, layer=layer: s["layer_self_s"][layer])
    metrics["cli.output_bytes"] = counted(lambda s: s["output_bytes"])
    metrics["cli.edge_defects"] = counted(lambda s: s["edge_defects"])
    for name in FUNCTION_METRICS:
        metrics[f"{name}.calls"] = counted(lambda s, name=name: s["calls"].get(name, 0))
        metrics[f"{name}.self_s"] = timed(lambda s, name=name: s["self_s"].get(name, 0.0))
    metrics["qfi.qfi_values.points"] = counted(lambda s: s["points"].get("qfi.qfi_values", 0))
    states = sum(inv.states for inv in invocations)
    metrics["metrology.points_per_state"] = first["optimize_points"] / states if states else 0.0
    replicas = first["replicas"]
    metrics["metrology.clamped_ratio"] = first["clamped"] / replicas if replicas else 0.0
    metrics["qfi.max_rel_err"] = max((o.max_rel_err for r, _ in passes for o in r.outcomes), default=0.0)
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / statistics.median(plain_walls)

    units = {"metrology.points_per_state": "points/state", "cli.output_bytes": "B"}
    for name in metrics:
        if name.endswith("_s"):
            units.setdefault(name, "s")
        elif name.endswith((".calls", ".points", ".modules", "_defects")):
            units.setdefault(name, "count")
        else:
            units.setdefault(name, "ratio")
    failures = [(i.label, o.reason) for r, _ in passes for i, o in r.pairs() if not o.ok]
    record = {
        "passes": len(passes),
        "in_process_wall_s": summary(plain_walls),
        "traced_wall_s": summary(traced_walls),
        "counts_repeat": all(stats["calls"] == first["calls"] for _, stats in passes),
        "spans_per_pass": first["spans"],
        "failures": sorted(set(failures)),
    }
    return {
        "attempted": sum(len(r.pairs()) for r, _ in passes),
        "failed": len(failures),
        "metrics": {name: (value, units[name]) for name, value in metrics.items()},
    }, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        require_checkout()
    except (BenchmarkError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    invocations = generate(args.workload, args.seed)
    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="thermoqfi-", dir=build))
    try:
        run = traced if args.trace else untraced
        result, record = run(args, invocations, scratch)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    record = {**run_record(args, invocations), **record}
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in result["metrics"].items()}
    print(json.dumps({"record": record}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
