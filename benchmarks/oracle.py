"""Benchmark-side oracle and output checkers for the thermoqfi CLI.

The oracle is derived independently of the package: the evolved qubit is
written as a Bloch vector (x, 0, z) in the frame rotating with the gap, its
beta-derivative is taken analytically, and the QFI is the Bloch-vector form
F = |dr|^2 + (r.dr)^2 / (1 - |r|^2). The package uses the SLD closed form
g^2/D + ..., so agreement is a real check. One formula serves two number
types: numpy float64 over every row of an output, and mpmath at 50 digits on
a seeded sample of rows, which gives the reported worst relative error.

`check` returns a Verdict: whether the output passed, the worst relative
deviation from the mpmath oracle, and a reason when it failed. The checkers
compare values, not frozen byte digests, so last-digit changes from a
reordered computation pass.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import mpmath
import numpy as np

DPS = 50
# Relative tolerance on every QFI value compared with the oracle. Float64
# evaluation in the conditioned parameter box stays below 1e-11.
QFI_RTOL = 1e-8
# QFI values below this share of the thermal asymptote are compared absolutely.
QFI_FLOOR = 1e-12
POP_ATOL = 1e-12
TRACE_COLUMNS = ("t", "F", "F_norm", "p2", "abs_rho12", "dbeta_p2", "alpha", "delta")
MP_SAMPLE = 32


@dataclass(frozen=True)
class Verdict:
    ok: bool
    max_rel_err: float
    reason: str = ""


class CheckFailed(Exception):
    """An output disagrees with the oracle or with the CLI's documented format."""


class _Mp:
    """The functions the oracle needs, over mpmath numbers."""

    exp = staticmethod(mpmath.exp)
    sqrt = staticmethod(mpmath.sqrt)

    @staticmethod
    def num(v):
        return mpmath.mpf(v)


class _Np:
    """The functions the oracle needs, over numpy float64 arrays."""

    exp = staticmethod(np.exp)
    sqrt = staticmethod(np.sqrt)

    @staticmethod
    def num(v):
        return np.asarray(v, dtype=float)


def _qubit(xp, omega, beta, gamma, a, r, t) -> dict:
    """Oracle columns of the relaxing qubit at time(s) t, in number type xp."""
    w, b, g, a, r, t = (xp.num(v) for v in (omega, beta, gamma, a, r, t))
    pi2 = 1 / (1 + xp.exp(b * w))
    dpi2 = -pi2 * (1 - pi2) * w
    lam = g / (2 * pi2 - 1)
    dlam = -2 * lam * (lam / g) * dpi2   # d lambda / d beta, ordered to avoid overflow
    e = xp.exp(lam * t)
    p2 = pi2 - e * (pi2 - a)
    dp2 = dpi2 * (1 - e) - t * e * dlam * (pi2 - a)
    m = r * xp.sqrt(a * (1 - a)) * xp.exp(lam * t / 2)
    dm = m * t * dlam / 2
    x, z, dx, dz = 2 * m, 1 - 2 * p2, 2 * dm, -2 * dp2
    return {
        "pi2": pi2,
        "lambda": lam,
        "asymptote": w**2 * pi2 * (1 - pi2),
        "p2": p2,
        "abs_rho12": m,
        "dbeta_p2": dp2,
        "alpha": t * dlam / 2,
        "delta": dp2 / dpi2,
        "F_parts": (dx**2 + dz**2, (x * dx + z * dz) ** 2, 1 - x**2 - z**2),
    }


def _qfi(parts, t):
    base, cross, gap = parts
    return base + cross / gap if t != 0 else base * 0


def mp_point(omega, beta, gamma, a, r, t) -> dict:
    """Oracle columns at one time, evaluated in mpmath and returned as floats."""
    with mpmath.workdps(DPS):
        q = _qubit(_Mp, omega, beta, gamma, a, r, t)
        out = {k: float(v) for k, v in q.items() if k != "F_parts"}
        out["F"] = float(_qfi(q["F_parts"], t))
    return out


def np_columns(omega, beta, gamma, a, r, t) -> dict:
    """Oracle columns over an array of times, in float64."""
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _qubit(_Np, omega, beta, gamma, a, r, t)
        base, cross, gap = q.pop("F_parts")
        q["F"] = np.where(np.asarray(t) == 0, 0.0, base + cross / gap)
    return q


def qfi(omega, beta, gamma, a, r, t) -> float:
    return mp_point(omega, beta, gamma, a, r, t)["F"]


def _require(condition, reason: str) -> None:
    if not condition:
        raise CheckFailed(reason)


def _rel_err(value, expected, scale):
    return np.abs(value - expected) / np.maximum(np.abs(expected), QFI_FLOOR * scale)


def _compare_qfi(values, expected, scale, what) -> float:
    err = np.atleast_1d(_rel_err(np.asarray(values, float), np.asarray(expected, float), scale))
    bad = np.flatnonzero(~(err <= QFI_RTOL))
    if bad.size:
        i = int(bad[0])
        v, e = np.atleast_1d(values)[i], np.atleast_1d(expected)[i]
        raise CheckFailed(f"{what} [{i}]: {v!r} vs oracle {e!r} (rel {err[i]:.2e})")
    return float(err.max(initial=0.0))


def _close(values, expected, rtol, atol, what) -> None:
    v, e = np.atleast_1d(np.asarray(values, float)), np.atleast_1d(np.asarray(expected, float))
    bad = np.flatnonzero(~(np.abs(v - e) <= atol + rtol * np.abs(e)))
    if bad.size:
        i = int(bad[0])
        raise CheckFailed(f"{what} [{i}]: {v[i]!r} vs expected {e[i]!r}")


def _rng(p) -> random.Random:
    """Row sampling seeded by the invocation's inputs."""
    return random.Random(json.dumps(p, sort_keys=True))


def _check_trace_table(table: np.ndarray, p, t_max: float) -> float:
    """Every row against the float64 oracle, a seeded sample against mpmath."""
    points = p["points"]
    _require(table.shape == (points, len(TRACE_COLUMNS)), f"table shape {table.shape}")
    cols = dict(zip(TRACE_COLUMNS, table.T))
    t = cols["t"]
    _close(t, t_max * np.arange(points) / (points - 1), 1e-13, 0.0, "t")
    model = (p["omega"], p["beta"], p["gamma"], p["a"], p["r"])
    ref = np_columns(*model, t)
    asym = float(ref["asymptote"])
    _compare_qfi(cols["F"], ref["F"], asym, "F")
    _close(cols["F_norm"], cols["F"] / asym, 1e-12, 0.0, "F_norm")
    _close(cols["p2"], ref["p2"], 0.0, POP_ATOL, "p2")
    _close(cols["abs_rho12"], ref["abs_rho12"], 0.0, POP_ATOL, "abs_rho12")
    _close(cols["dbeta_p2"], ref["dbeta_p2"], 1e-8, 1e-14 * p["omega"], "dbeta_p2")
    _close(cols["alpha"], ref["alpha"], 1e-10, 0.0, "alpha")
    _close(cols["delta"], ref["delta"], 1e-8, 1e-14, "delta")
    rng = _rng(p)
    sample = sorted({0, 1, points - 1, *(rng.randrange(points) for _ in range(MP_SAMPLE))})
    exact = [mp_point(*model, float(t[i]))["F"] for i in sample]
    return _compare_qfi(cols["F"][sample], exact, asym, "F (mpmath)")


def _default_t_max(p) -> float:
    return 20.0 / abs(float(np_columns(p["omega"], p["beta"], p["gamma"], 0.0, 0.0, 0.0)["lambda"]))


def _check_trace_csv(text: str, p) -> float:
    header, _, body = text.partition("\n")
    _require(header == ",".join(TRACE_COLUMNS), f"unexpected CSV header {header!r}")
    _require(body.endswith("\n"), "CSV output must end with a newline")
    _require(body.count("\n") == p["points"], f"{body.count(chr(10))} rows, expected {p['points']}")
    cells = body[:-1].replace("\n", ",").split(",")
    _require(len(cells) == p["points"] * len(TRACE_COLUMNS), "ragged CSV rows")
    table = np.array(cells, dtype=float).reshape(p["points"], len(TRACE_COLUMNS))
    return _check_trace_table(table, p, _default_t_max(p))


def _check_trace_json(text: str, p) -> float:
    doc = json.loads(text)
    _require(doc["kind"] == "trace", "kind must be trace")
    _require(doc["columns"] == list(TRACE_COLUMNS), "unexpected columns")
    params = doc["params"]
    expected = {"omega12": p["omega"], "beta": p["beta"], "gamma": p["gamma"], "a": p["a"], "r": p["r"]}
    for key, value in expected.items():
        _require(params[key] == value, f"params.{key} is {params[key]!r}, expected {value!r}")
    _require(params["points"] == p["points"], "params.points")
    t_max = _default_t_max(p)
    _close(params["t_max"], t_max, 1e-13, 0.0, "params.t_max")
    ref = mp_point(p["omega"], p["beta"], p["gamma"], 0.0, 0.0, 0.0)
    for key in ("pi2", "lambda", "asymptote"):
        _close(doc["derived"][key], ref[key], 1e-12, 0.0, f"derived.{key}")
    rows = doc["rows"]
    _require(len(rows) == p["points"], f"{len(rows)} rows, expected {p['points']}")
    return _check_trace_table(np.array(rows, dtype=float), p, params["t_max"])


def _check_trace(text: str, p) -> float:
    """`trace` output, CSV or JSON: header, every row, and the mpmath sample."""
    if p["format"] == "json":
        return _check_trace_json(text, p)
    return _check_trace_csv(text, p)


def _region(a: float, pi2: float) -> str:
    if a < pi2:
        return "C"
    return "H" if a <= 0.5 else "I"


def _check_peaks(model, a, r, t_star, f_star, t_max, asym, what) -> None:
    """f_star is the oracle QFI at t_star, and no nearby time beats it."""
    omega, beta, gamma = model
    a, r, t_star, f_star = (np.asarray(v, dtype=float) for v in (a, r, t_star, f_star))
    _compare_qfi(f_star, np_columns(omega, beta, gamma, a, r, t_star)["F"], asym, what)
    slack = QFI_RTOL * np.maximum(np.abs(f_star), QFI_FLOOR * asym)
    for shift in (-1e-3 * t_max, 1e-3 * t_max):
        t = np.clip(t_star + shift, 0.0, t_max)
        neighbour = np_columns(omega, beta, gamma, a, r, t)["F"]
        bad = np.flatnonzero(neighbour > f_star + slack)
        _require(not bad.size, f"{what}: a nearby time beats the reported peak at row {bad[:1]}")


def _check_optimize(text: str, p) -> float:
    """`optimize` JSON: grid coverage, ranking order, regions, and every peak."""
    doc = json.loads(text)
    _require(doc["kind"] == "optimize", "kind must be optimize")
    model = (p["omega"], p["beta"], p["gamma"])
    a_steps, r_steps = p["a_steps"], p["r_steps"]
    ref = mp_point(*model, 0.0, 0.0, 0.0)
    pi2, asym = ref["pi2"], ref["asymptote"]
    t_max = 20.0 / abs(ref["lambda"])
    _close(doc["params"]["t_max"], t_max, 1e-13, 0.0, "params.t_max")
    _close(doc["derived"]["pi2"], pi2, 1e-13, 0.0, "derived.pi2")
    _close(doc["derived"]["asymptote"], asym, 1e-12, 0.0, "derived.asymptote")
    rows = doc["rows"]
    _require(len(rows) == a_steps * r_steps, f"{len(rows)} rows, expected {a_steps * r_steps}")
    grid = {
        (round(i / (a_steps - 1), 12), round(j / (r_steps - 1) if r_steps > 1 else 0.0, 12))
        for i in range(a_steps)
        for j in range(r_steps)
    }
    seen = {(round(row["a"], 12), round(row["r"], 12)) for row in rows}
    _require(seen == grid, "ranked states do not cover the (a, r) grid exactly once")
    keys = [(-row["f_star"], row["a"], row["r"]) for row in rows]
    for i in range(len(keys) - 1):
        _require(keys[i] <= keys[i + 1], f"ranking out of order at position {i}")
    for row in rows:
        _require(row["region"] == _region(row["a"], pi2), f"region of a={row['a']!r} is {row['region']!r}")
        if row["asymptotic"]:
            _close(row["t_star"], t_max, 1e-13, 0.0, f"t_star of asymptotic a={row['a']!r}")
    a = np.array([row["a"] for row in rows])
    # The package drops the coherence of the poles a = 0, 1, where none exists.
    r = np.where((a == 0.0) | (a == 1.0), 0.0, [row["r"] for row in rows])
    t_star = np.array([row["t_star"] for row in rows])
    f_star = np.array([row["f_star"] for row in rows])
    _check_peaks(model, a, r, t_star, f_star, t_max, asym, "f_star")
    sample = sorted({0, len(rows) - 1, *(_rng(p).randrange(len(rows)) for _ in range(MP_SAMPLE))})
    exact = [qfi(*model, a[i], r[i], t_star[i]) for i in sample]
    return _compare_qfi(f_star[sample], exact, asym, "f_star (mpmath)")



def _check_estimate(text: str, p) -> float:
    """`estimate` JSON: QFI at the measurement time and Cramer-Rao saturation."""
    doc = json.loads(text)
    _require(doc["kind"] == "estimate", "kind must be estimate")
    res = doc["results"]
    model = (p["omega"], p["beta"], p["gamma"])
    m, replicas = p["m_experiments"], p["replicas"]
    ref = mp_point(*model, 0.0, 0.0, 0.0)
    asym = ref["asymptote"]
    t = res["measurement_time"]
    _require(not res["bound_only"] and not res["no_information"], "estimate reported no run")
    if "t" in p:
        _require(t == p["t"], "measurement_time differs from --t")
    else:
        _check_peaks(model, p["a"], 0.0, t, res["f_quantum"], 20.0 / abs(ref["lambda"]), asym, "f_quantum")
    err = _compare_qfi(res["f_quantum"], qfi(*model, p["a"], 0.0, t), asym, "f_quantum (mpmath)")
    # A diagonal state's population measurement is optimal: classical = quantum.
    _close(res["f_classical"], res["f_quantum"], QFI_RTOL, 0.0, "f_classical")
    _close(res["bound"], 1.0 / (m * res["f_classical"]), 1e-12, 0.0, "bound")
    _close(res["ratio"], res["variance"] * m * res["f_classical"], 1e-12, 0.0, "ratio")
    # The sample variance of R replicas has relative spread sqrt(2/(R-1)); 0.02
    # covers the O(1/M) bias of the binomial MLE.
    tol = 5.0 * math.sqrt(2.0 / (replicas - 1)) + 0.02
    _require(abs(res["ratio"] - 1.0) <= tol, f"ratio {res['ratio']!r} is not 1 within {tol:.3f}")
    _require(0 <= res["clamped_count"] <= replicas, "clamped_count out of range")
    return err



def _check_experiment(text: str, p) -> float:
    """`experiment` JSON: both baths, every trace value, peaks, channel rows."""
    doc = json.loads(text)
    _require(doc["kind"] == "experiment", "kind must be experiment")
    params = doc["params"]
    omega, tau, r, points = params["omega12"], params["tau_tilde"], params["r"], params["points"]
    _require((omega, tau, r, points) == (5.0, 0.05, 1.0, 512), "experiment defaults changed")
    _require(params["n12_values"] == [5.5, 9.5], "experiment baths changed")
    gamma = tau * omega / 2.0
    rng = _rng(params)
    worst = 0.0
    _require(len(doc["baths"]) == 2, "expected two baths")
    for bath in doc["baths"]:
        n12 = bath["n12"]
        beta = math.log1p(1.0 / n12) / omega
        _close(bath["beta"], beta, 1e-13, 0.0, "bath beta")
        _close(bath["pi2"], n12 / (2.0 * n12 + 1.0), 1e-13, 0.0, "bath pi2")
        ref = mp_point(omega, beta, gamma, 0.0, 0.0, 0.0)
        asym = ref["asymptote"]
        _close(bath["asymptote"], asym, 1e-12, 0.0, "bath asymptote")
        t_max = bath["t_max"]
        _close(t_max, 20.0 / abs(ref["lambda"]), 1e-13, 0.0, "bath t_max")
        _require(len(bath["traces"]) == 4, "expected four preparations per bath")
        for trace in bath["traces"]:
            a = trace["a"]
            _close(a, math.sin(trace["theta"] / 2.0) ** 2, 1e-15, 0.0, "trace a")
            a_r = 0.0 if a in (0.0, 1.0) else r
            times, values = np.array(trace["times"]), np.array(trace["values"])
            _require(times.shape == values.shape == (points,), "trace length")
            _close(times, t_max * np.arange(points) / (points - 1), 1e-13, 0.0, "trace times")
            _compare_qfi(values, np_columns(omega, beta, gamma, a, a_r, times)["F"], asym, "experiment F")
            _check_peaks(
                (omega, beta, gamma), a, a_r, trace["t_peak"], trace["f_peak"], t_max, asym, "f_peak"
            )
            margin = 1e-6 * asym if trace["asymptotic"] else QFI_RTOL * trace["f_peak"]
            _require(trace["f_peak"] >= values.max() - margin, "f_peak below the sampled trace")
            i = rng.randrange(points)
            exact = qfi(omega, beta, gamma, a, a_r, times[i])
            worst = max(worst, _compare_qfi(values[i], exact, asym, "experiment F (mpmath)"))
    _require(len(doc["gad_comparison"]) == 6, "expected six channel comparison rows")
    for row in doc["gad_comparison"]:
        ref = mp_point(row["omega12"], row["beta"], row["gamma"], row["a0"], 0.0, row["t_compare"])
        _close(row["p2_master"], ref["p2"], 1e-12, 1e-15, "p2_master")
        _close(row["rel_diff"], abs(row["p2_gad"] - ref["p2"]) / ref["p2"], 1e-9, 1e-15, "rel_diff")
        _require(row["rel_diff"] < 0.05, "channel and master equation disagree")
    for diag in doc["fixed_point_diagnostics"]:
        n12 = diag["n12"]
        _close(diag["ground_thermal"], (n12 + 1.0) / (2.0 * n12 + 1.0), 1e-15, 0.0, "ground_thermal")
    return worst



def _check_validate(text: str, p) -> float:
    """`validate` text: every named check passes."""
    lines = text.rstrip("\n").split("\n")
    n = p["checks"]
    _require(len(lines) == n + 1, f"{len(lines) - 1} check rows, expected {n}")
    _require(lines[-1] == f"{n}/{n} checks passed", f"summary line {lines[-1]!r}")
    for line in lines[:-1]:
        _require("  PASS  " in line, f"check failed: {line.strip()!r}")
    return 0.0



CHECKERS = {
    "trace": _check_trace,
    "optimize": _check_optimize,
    "estimate": _check_estimate,
    "experiment": _check_experiment,
    "validate": _check_validate,
}


def check(kind: str, text: str, p) -> Verdict:
    """Check the output of one `kind` of invocation made with parameters p."""
    try:
        return Verdict(ok=True, max_rel_err=CHECKERS[kind](text, p))
    except CheckFailed as exc:
        return Verdict(ok=False, max_rel_err=math.inf, reason=str(exc))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return Verdict(ok=False, max_rel_err=math.inf, reason=f"malformed output: {exc!r}")
