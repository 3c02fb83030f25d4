"""Seeded workload generator: the argv of every CLI invocation in one pass.

The benchmark draws models and initial states from the seed; the program
only ever sees the generated argv. Draws stay in the conditioned box of
tests/conftest.py (beta*omega in [0.2, 3], gamma in [0.2, 3]) except the
edge-domain probe of cli-session, which is drawn from the ranges where the
CLI is known to break, so that defect stays visible instead of being
designed out.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("cli-session", "dense-trace", "state-scan")
BETA_OMEGA = (0.2, 3.0)
GAMMA = (0.2, 3.0)
STATE_SCAN_MODELS = 2


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv, how to check its output, and what it produces."""

    label: str
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)
    out: str | None = None       # file name for --out inside the run's scratch dir
    trace_rows: int = 0          # rows of trace output (rows_per_s)
    states: int = 0              # ranked (a, r) states (states_per_s)
    replicas: int = 0            # MLE replicas (replicas_per_s)
    probe: bool = False          # edge-domain probe; outcome reported on its own


@dataclass(frozen=True)
class Model:
    omega: float
    beta: float
    gamma: float

    @property
    def pi2(self) -> float:
        return 1.0 / (1.0 + math.exp(self.beta * self.omega))

    def argv(self) -> list[str]:
        return ["--omega12", repr(self.omega), "--beta", repr(self.beta), "--gamma", repr(self.gamma)]

    def params(self) -> dict:
        return {"omega": self.omega, "beta": self.beta, "gamma": self.gamma}


def _model(rng: random.Random) -> Model:
    omega = rng.uniform(0.5, 2.0)
    return Model(omega=omega, beta=rng.uniform(*BETA_OMEGA) / omega, gamma=rng.uniform(*GAMMA))


def _state_in(rng: random.Random, region: str, pi2: float) -> float:
    """An excited population strictly inside region C, H or I."""
    if region == "C":
        return rng.uniform(0.05, 0.95) * pi2
    if region == "H":
        return pi2 + rng.uniform(0.1, 0.9) * (0.5 - pi2)
    return rng.uniform(0.55, 0.95)


def _trace(label, model, a, r, phi, points, fmt, out=None) -> Invocation:
    argv = ["trace", *model.argv(), "--a", repr(a), "--r", repr(r), "--phi", repr(phi)]
    argv += ["--points", str(points), "--format", fmt]
    if out is not None:
        argv += ["--out", out]
    params = dict(model.params(), a=a, r=r, points=points, format=fmt)
    return Invocation(label, tuple(argv), "trace", params, out=out, trace_rows=points)


def _optimize(label, model, a_steps, r_steps) -> Invocation:
    argv = ["optimize", *model.argv(), "--a-steps", str(a_steps), "--r-steps", str(r_steps)]
    params = dict(model.params(), a_steps=a_steps, r_steps=r_steps)
    return Invocation(label, tuple(argv), "optimize", params, states=a_steps * r_steps)


def _estimate(label, model, a, replicas, t=None) -> Invocation:
    argv = ["estimate", *model.argv(), "--a", repr(a), "--replicas", str(replicas)]
    params = dict(model.params(), a=a, m_experiments=10000, replicas=replicas)
    if t is not None:
        argv += ["--t", repr(t)]
        params["t"] = t
    return Invocation(label, tuple(argv), "estimate", params, replicas=replicas)


def _edge_probe(rng: random.Random) -> Invocation:
    """A call outside the conditioned box (low temperature or huge gamma).

    The documented outcome is exit 2 with a one-line `error:` message, or
    exit 0 with a correct result.
    """
    if rng.random() < 0.5:
        model = Model(omega=1.0, beta=rng.uniform(180.0, 300.0), gamma=rng.uniform(0.2, 3.0))
        inv = _estimate("edge-estimate", model, 0.0, 1000, t=rng.uniform(0.5, 3.0))
    else:
        model = Model(omega=1.0, beta=rng.uniform(0.2, 3.0), gamma=10.0 ** rng.uniform(199.0, 201.0))
        inv = _trace("edge-trace", model, rng.uniform(0.05, 0.95), 0.0, 0.0, 2048, "csv")
    return Invocation(inv.label, inv.argv, inv.check, inv.params, probe=True)


def generate(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one pass of `workload`; the same seed gives the same argv."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "cli-session":
        m1, m2, m3, m4 = (_model(rng) for _ in range(4))
        two_pi = 2.0 * math.pi
        return [
            _trace("trace-csv", m1, _state_in(rng, "C", m1.pi2), rng.random(), rng.uniform(0.0, two_pi), 2048, "csv"),
            _trace("trace-json", m2, _state_in(rng, "H", m2.pi2), rng.random(), rng.uniform(0.0, two_pi), 2048, "json"),
            _optimize("optimize", m3, 21, 2),
            Invocation("experiment", ("experiment",), "experiment"),
            _estimate("estimate", m4, _state_in(rng, "I", m4.pi2), 1000),
            Invocation("validate", ("validate",), "validate", {"checks": 16}),
            _edge_probe(rng),
        ]
    if workload == "dense-trace":
        m1, m2 = _model(rng), _model(rng)
        return [
            _trace("trace-csv-200k", m1, rng.random(), rng.random(), 0.0, 200000, "csv", out="trace.csv"),
            _trace("trace-json-100k", m2, rng.random(), rng.random(), 0.0, 100000, "json", out="trace.json"),
        ]
    if workload == "state-scan":
        # The number of states that peak before the asymptote, and with it the
        # cost of a scan, falls about tenfold from beta*omega = 0.2 to 3. One
        # model near the middle of each half of the range keeps every pass
        # covering both ends and one seed's cost close to another's.
        invocations = []
        width = (BETA_OMEGA[1] - BETA_OMEGA[0]) / STATE_SCAN_MODELS
        for k in range(STATE_SCAN_MODELS):
            beta = BETA_OMEGA[0] + (k + 0.5 + rng.uniform(-0.05, 0.05)) * width
            model = Model(omega=1.0, beta=beta, gamma=rng.uniform(*GAMMA))
            invocations += [
                _optimize(f"optimize-101x11-{k}", model, 101, 11),
                _estimate(f"estimate-20k-{k}", model, _state_in(rng, "C", model.pi2), 20000),
            ]
        return invocations
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
