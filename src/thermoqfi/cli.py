"""Command-line interface.

Subcommands:
  trace       QFI and state quantities over time (csv or json)
  optimize    rank initial states by their peak QFI (json or csv)
  experiment  preset cold/hot bath study with GAD channel comparison (json)
  estimate    Cramer-Rao saturation report for a binomial MLE (json or csv)
  validate    named invariant checks with optional fault injection (text)

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 I/O error. Output is byte-deterministic for a fixed configuration: floats
are rendered with repr (shortest round-trip) and JSON keys are sorted.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from typing import NamedTuple

import numpy as np

from .dynamics import (
    QubitInit,
    beta_from_thermal_ratio,
    gad_master_comparison,
    gad_stationary_diagnostic,
    gamma_from_tau_tilde,
)
from .errors import DomainError, EstimatorUndefinedError, ModelIntegrityError
from .metrology import (
    Scenario,
    cramer_rao_report,
    maximize_qfi_over_time,
    optimize_initial_state,
)
from .qfi import qubit_qfi, trace_arrays
from .spectrum import Bath, Spectrum
from .validate import check_names, run_checks

SCHEMA_VERSION = "1"

# Rows per write of the table writer: enough to amortize the per-block work,
# few enough that one block's strings stay near a megabyte.
_BLOCK_ROWS = 8192

TRACE_COLUMNS = ("t", "F", "F_norm", "p2", "abs_rho12", "dbeta_p2", "alpha", "delta")

OPTIMIZE_COLUMNS = ("a", "r", "t_star", "f_star", "asymptotic", "region")

ESTIMATE_COLUMNS = (
    "measurement_time",
    "f_classical",
    "f_quantum",
    "bound",
    "variance",
    "ratio",
    "clamped_count",
    "no_information",
    "bound_only",
)

# Preset preparation angles for the two-bath study; the hotter bath swaps the
# last angle for a full inversion.
THETA_PRESETS = {
    "cold": (
        (0.0, "0"),
        (math.pi / 3.0, "pi/3"),
        (12.0 * math.pi / 25.0, "12pi/25"),
        (5.0 * math.pi / 6.0, "5pi/6"),
    ),
    "hot": (
        (0.0, "0"),
        (math.pi / 3.0, "pi/3"),
        (12.0 * math.pi / 25.0, "12pi/25"),
        (math.pi, "pi"),
    ),
}

_CONFIG_KEYS = (
    "omega12",
    "beta",
    "n12",
    "gamma",
    "tau_tilde",
    "a",
    "theta",
    "r",
    "phi",
    "t",
    "t_max",
    "points",
    "a_steps",
    "r_steps",
    "m_experiments",
    "replicas",
    "seed",
    "out",
    "format",
    "checks",
    "inject_fault",
)


class ConfigError(Exception):
    """Invalid or conflicting run configuration."""


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--omega12", type=float, default=None, help="two-level gap")
    p.add_argument("--beta", type=float, default=None, help="inverse bath temperature")
    p.add_argument(
        "--n12", type=float, default=None, help="thermal occupation of the gap (sets beta)"
    )
    p.add_argument("--gamma", type=float, default=None, help="bare dissipation rate")
    p.add_argument(
        "--tau-tilde",
        type=float,
        default=None,
        dest="tau_tilde",
        help="dimensionless collision time (sets gamma = tau * omega12 / 2)",
    )


def _add_state_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--a", type=float, default=None, help="initial excited population")
    p.add_argument(
        "--theta", type=float, default=None, help="preparation angle (a = sin^2(theta/2))"
    )
    p.add_argument("--r", type=float, default=None, help="relative coherence in [0, 1]")
    p.add_argument("--phi", type=float, default=None, help="coherence phase")


def _add_output_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", default=None, help="output path ('-' or absent: stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    p.add_argument("--config", default=None, help="JSON file with defaults for any flag")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermoqfi",
        description="Quantum Fisher information thermometry for a dissipative qubit probe.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="QFI trace over time")
    _add_model_args(p)
    _add_state_args(p)
    p.add_argument("--t-max", type=float, default=None, dest="t_max")
    p.add_argument("--points", type=int, default=None, help="grid size (default 2048)")
    _add_output_args(p)

    p = sub.add_parser("optimize", help="rank initial states by peak QFI")
    _add_model_args(p)
    p.add_argument("--t-max", type=float, default=None, dest="t_max")
    p.add_argument("--a-steps", type=int, default=None, dest="a_steps")
    p.add_argument("--r-steps", type=int, default=None, dest="r_steps")
    _add_output_args(p)

    p = sub.add_parser("experiment", help="preset cold/hot bath study with GAD comparison")
    p.add_argument("--omega12", type=float, default=None)
    p.add_argument("--n12", type=float, default=None, help="single bath occupation override")
    p.add_argument(
        "--tau-tilde", type=float, default=None, dest="tau_tilde", help="collision time"
    )
    p.add_argument("--r", type=float, default=None, help="coherence of the preparations")
    p.add_argument("--points", type=int, default=None, help="trace grid size (default 512)")
    _add_output_args(p)

    p = sub.add_parser("estimate", help="Cramer-Rao saturation report")
    _add_model_args(p)
    _add_state_args(p)
    p.add_argument("--t", type=float, default=None, help="measurement time (default: peak)")
    p.add_argument("--m-experiments", type=int, default=None, dest="m_experiments")
    p.add_argument("--replicas", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    _add_output_args(p)

    p = sub.add_parser("validate", help="run the named invariant checks")
    p.add_argument("--checks", default=None, help="comma-separated subset of check names")
    p.add_argument(
        "--inject-fault",
        default=None,
        dest="inject_fault",
        help="corrupt the inputs of this check to demonstrate detection",
    )
    p.add_argument("--out", default=None)
    p.add_argument("--config", default=None)

    return parser


def _merge_config(args: argparse.Namespace) -> None:
    path = getattr(args, "config", None)
    if not path:
        return
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    unknown = sorted(set(data) - set(_CONFIG_KEYS))
    if unknown:
        raise ConfigError(f"config {path}: unknown keys: {', '.join(unknown)}")
    for key, value in data.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


def _resolve_spectrum(args: argparse.Namespace) -> Spectrum:
    if args.omega12 is None:
        raise ConfigError("provide --omega12")
    return Spectrum.qubit(float(args.omega12))


def _resolve_bath(args: argparse.Namespace, spectrum: Spectrum) -> Bath:
    has_beta = args.beta is not None
    has_n12 = args.n12 is not None
    if has_beta == has_n12:
        raise ConfigError("provide exactly one of --beta or --n12")
    omega = spectrum.gap(1, 2)
    beta = float(args.beta) if has_beta else beta_from_thermal_ratio(float(args.n12), omega)
    has_gamma = args.gamma is not None
    has_tau = args.tau_tilde is not None
    if has_gamma == has_tau:
        raise ConfigError("provide exactly one of --gamma or --tau-tilde")
    gamma = (
        float(args.gamma) if has_gamma else gamma_from_tau_tilde(float(args.tau_tilde), omega)
    )
    return Bath(beta=beta, gamma=gamma)


def _resolve_init(args: argparse.Namespace) -> QubitInit:
    has_a = args.a is not None
    has_theta = args.theta is not None
    if has_a == has_theta:
        raise ConfigError("provide exactly one of --a or --theta")
    r = 0.0 if args.r is None else float(args.r)
    phi = 0.0 if args.phi is None else float(args.phi)
    if has_a:
        return QubitInit(a=float(args.a), r=r, phi=phi)
    return QubitInit.from_theta(float(args.theta), r=r, phi=phi)


def _finite(value, flag: str) -> float:
    v = float(value)
    if not math.isfinite(v):
        raise ConfigError(f"{flag} must be finite")
    return v


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, (bool, np.bool_)):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        v = float(value)
        return v if math.isfinite(v) else None
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    return value


def _json_document(payload: dict) -> str:
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


@contextlib.contextmanager
def _sink(out: str | None):
    """The write function of --out, or of sys.stdout as it is when called."""
    if out is None or out == "-":
        yield sys.stdout.write
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            yield fh.write


def _emit(text: str, out: str | None) -> None:
    with _sink(out) as write:
        write(text)


class _RowLayout(NamedTuple):
    """How _write_rows joins cells into rows.

    A row is prefix + sep.join(cells) + suffix, and rows are separated by
    between. nonfinite replaces nan/inf float cells; None keeps their repr,
    as _cell does.
    """

    prefix: str
    sep: str
    suffix: str
    between: str
    nonfinite: str | None


_CSV_ROWS = _RowLayout("", ",", "\n", "", None)

# A row of a top-level "rows" array exactly as json.dumps(indent=2) lays it out.
_JSON_ROWS = _RowLayout("    [\n      ", ",\n      ", "\n    ]", ",\n", "null")


def _column_cells(column, nonfinite: str | None):
    """The cells of one column slice, with one rendering decision per column.

    A float array is rendered by repr over tolist() (what _cell does to each
    float); any other column keeps _cell's per-value rules for bool, None,
    int and str.
    """
    if isinstance(column, np.ndarray) and column.dtype.kind == "f":
        values = column.tolist()
        if nonfinite is None or np.isfinite(column).all():
            return map(repr, values)
        return [repr(v) if math.isfinite(v) else nonfinite for v in values]
    return map(_cell, column)


def _write_rows(write, columns, layout: _RowLayout) -> None:
    """Write equal-length columns as rows, one write call per _BLOCK_ROWS rows.

    No string larger than one block is built, so memory does not grow with
    the number of rows.
    """
    joiner = layout.suffix + layout.between + layout.prefix
    for start in range(0, len(columns[0]), _BLOCK_ROWS):
        cells = [
            _column_cells(column[start : start + _BLOCK_ROWS], layout.nonfinite)
            for column in columns
        ]
        block = joiner.join(map(layout.sep.join, zip(*cells)))
        write((layout.between if start else "") + layout.prefix + block + layout.suffix)


def _emit_csv(names, columns, out: str | None) -> None:
    with _sink(out) as write:
        write(",".join(names) + "\n")
        _write_rows(write, columns, _CSV_ROWS)


def cmd_trace(args: argparse.Namespace) -> int:
    spectrum = _resolve_spectrum(args)
    bath = _resolve_bath(args, spectrum)
    init = _resolve_init(args)
    scenario = Scenario(spectrum=spectrum, bath=bath, init=init)
    t_max = scenario.default_t_max if args.t_max is None else _finite(args.t_max, "--t-max")
    if t_max <= 0:
        raise ConfigError("--t-max must be positive")
    points = 2048 if args.points is None else int(args.points)
    if points < 2:
        raise ConfigError("--points must be at least 2")
    times = np.linspace(0.0, t_max, points)
    cols = trace_arrays(init, spectrum, bath, times)
    columns = [cols[name] for name in TRACE_COLUMNS]
    if (args.format or "csv") == "csv":
        _emit_csv(TRACE_COLUMNS, columns, args.out)
        return 0
    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "trace",
        "params": {
            "omega12": spectrum.gap(1, 2),
            "beta": bath.beta,
            "gamma": bath.gamma,
            "a": init.a,
            "r": init.r,
            "phi": init.phi,
            "t_max": t_max,
            "points": points,
        },
        "derived": {
            "pi2": scenario.pi2,
            "lambda": scenario.relaxation_rate,
            "asymptote": scenario.asymptote,
        },
        "columns": list(TRACE_COLUMNS),
        "rows": [],
    }
    # The rows are streamed into the place of the empty list in the document.
    head, tail = _json_document(payload).split('"rows": []')
    with _sink(args.out) as write:
        write(head + '"rows": [\n')
        _write_rows(write, columns, _JSON_ROWS)
        write("\n  ]" + tail)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    spectrum = _resolve_spectrum(args)
    bath = _resolve_bath(args, spectrum)
    a_steps = 21 if args.a_steps is None else int(args.a_steps)
    r_steps = 2 if args.r_steps is None else int(args.r_steps)
    t_max = None if args.t_max is None else _finite(args.t_max, "--t-max")
    rows = optimize_initial_state(
        spectrum, bath, t_max=t_max, a_steps=a_steps, r_steps=r_steps
    )
    fmt = args.format or "json"
    if fmt == "csv":
        table = [
            (row.a, row.r, row.t_star, row.f_star, row.asymptotic, row.region.region)
            for row in rows
        ]
        _emit_csv(OPTIMIZE_COLUMNS, list(zip(*table)), args.out)
    else:
        scenario = Scenario(spectrum=spectrum, bath=bath, init=QubitInit(a=0.0))
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "optimize",
            "params": {
                "omega12": spectrum.gap(1, 2),
                "beta": bath.beta,
                "gamma": bath.gamma,
                "t_max": scenario.default_t_max if t_max is None else t_max,
                "a_steps": a_steps,
                "r_steps": r_steps,
            },
            "derived": {"pi2": scenario.pi2, "asymptote": scenario.asymptote},
            "rows": [
                {
                    "a": row.a,
                    "r": row.r,
                    "t_star": row.t_star,
                    "f_star": row.f_star,
                    "asymptotic": row.asymptotic,
                    "region": row.region.region,
                    "thermal_boundary": row.region.thermal_boundary,
                    "inversion_boundary": row.region.inversion_boundary,
                }
                for row in rows
            ],
        }
        _emit(_json_document(payload), args.out)
    return 0


def cmd_experiment(args: argparse.Namespace) -> int:
    if (args.format or "json") != "json":
        raise ConfigError("experiment emits a structured document; use --format json")
    omega12 = 5.0 if args.omega12 is None else float(args.omega12)
    tau_tilde = 0.05 if args.tau_tilde is None else float(args.tau_tilde)
    r = 1.0 if args.r is None else float(args.r)
    points = 512 if args.points is None else int(args.points)
    if points < 2:
        raise ConfigError("--points must be at least 2")
    n12_values = [float(args.n12)] if args.n12 is not None else [5.5, 9.5]
    spectrum = Spectrum.qubit(omega12)
    gamma = gamma_from_tau_tilde(tau_tilde, omega12)

    baths = []
    for idx, n12 in enumerate(sorted(n12_values)):
        label = "cold" if len(n12_values) == 1 or idx == 0 else "hot"
        beta = beta_from_thermal_ratio(n12, omega12)
        bath = Bath(beta=beta, gamma=gamma)
        traces = []
        for theta, theta_label in THETA_PRESETS[label]:
            init = QubitInit.from_theta(theta, r=r)
            scenario = Scenario(spectrum=spectrum, bath=bath, init=init)
            t_max = scenario.default_t_max
            times = np.linspace(0.0, t_max, points)
            values = trace_arrays(init, spectrum, bath, times)["F"]
            best = maximize_qfi_over_time(scenario)
            traces.append(
                {
                    "theta": theta,
                    "theta_label": theta_label,
                    "a": init.a,
                    "r": init.r,
                    "t_peak": best.t_star,
                    "f_peak": best.f_star,
                    "asymptotic": best.asymptotic,
                    "times": [float(t) for t in times],
                    "values": [float(v) for v in values],
                }
            )
        probe = Scenario(spectrum=spectrum, bath=bath, init=QubitInit(a=0.0))
        baths.append(
            {
                "n12": n12,
                "label": label,
                "beta": beta,
                "gamma": gamma,
                "pi2": probe.pi2,
                "lambda": probe.relaxation_rate,
                "asymptote": probe.asymptote,
                "t_max": probe.default_t_max,
                "traces": traces,
            }
        )

    comparison = []
    for n12 in sorted(n12_values):
        for tau in (tau_tilde / 5.0, tau_tilde / 2.0, tau_tilde):
            comparison.append(gad_master_comparison(n12, tau, omega12=omega12))
    diagnostics = [gad_stationary_diagnostic(n12) for n12 in sorted(n12_values)]

    payload = {
        "schema_version": SCHEMA_VERSION,
        "kind": "experiment",
        "params": {
            "omega12": omega12,
            "tau_tilde": tau_tilde,
            "r": r,
            "points": points,
            "n12_values": sorted(n12_values),
        },
        "baths": baths,
        "gad_comparison": comparison,
        "fixed_point_diagnostics": diagnostics,
    }
    _emit(_json_document(payload), args.out)
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    spectrum = _resolve_spectrum(args)
    bath = _resolve_bath(args, spectrum)
    init = _resolve_init(args)
    scenario = Scenario(spectrum=spectrum, bath=bath, init=init)
    m_experiments = 10000 if args.m_experiments is None else int(args.m_experiments)
    replicas = 1000 if args.replicas is None else int(args.replicas)
    seed = 0 if args.seed is None else int(args.seed)
    if args.t is not None:
        t = _finite(args.t, "--t")
    else:
        best = maximize_qfi_over_time(scenario)
        t = best.t_star
    bound_only = init.r != 0.0
    if bound_only:
        f_quantum = qubit_qfi(init, spectrum, bath, t).total
        results = {
            "measurement_time": t,
            "f_classical": None,
            "f_quantum": f_quantum,
            "bound": 1.0 / (m_experiments * f_quantum) if f_quantum > 0 else None,
            "variance": None,
            "ratio": None,
            "clamped_count": None,
            "no_information": not (f_quantum > 0),
            "bound_only": True,
        }
    else:
        report = cramer_rao_report(
            scenario, t=t, m_experiments=m_experiments, n_replicas=replicas, seed=seed
        )
        results = {
            "measurement_time": t,
            "f_classical": report.f_classical,
            "f_quantum": report.f_quantum,
            "bound": report.bound,
            "variance": None if report.run is None else report.run.variance,
            "ratio": report.ratio,
            "clamped_count": report.clamped_count,
            "no_information": report.no_information,
            "bound_only": False,
        }
    fmt = args.format or "json"
    if fmt == "csv":
        _emit_csv(ESTIMATE_COLUMNS, [[results[name]] for name in ESTIMATE_COLUMNS], args.out)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "estimate",
            "params": {
                "omega12": spectrum.gap(1, 2),
                "beta": bath.beta,
                "gamma": bath.gamma,
                "a": init.a,
                "r": init.r,
                "phi": init.phi,
                "m_experiments": m_experiments,
                "replicas": replicas,
                "seed": seed,
            },
            "results": results,
        }
        _emit(_json_document(payload), args.out)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    names = None
    if args.checks is not None:
        names = tuple(s.strip() for s in str(args.checks).split(",") if s.strip())
    results = run_checks(names=names, inject_fault=args.inject_fault)
    width = max(len(name) for name in check_names())
    lines = [
        f"{res.name:<{width}}  {'PASS' if res.passed else 'FAIL'}  {res.detail}"
        for res in results
    ]
    n_passed = sum(res.passed for res in results)
    lines.append(f"{n_passed}/{len(results)} checks passed")
    _emit("\n".join(lines) + "\n", args.out)
    return 0 if n_passed == len(results) else 1


_COMMANDS = {
    "trace": cmd_trace,
    "optimize": cmd_optimize,
    "experiment": cmd_experiment,
    "estimate": cmd_estimate,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _merge_config(args)
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, EstimatorUndefinedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ModelIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OverflowError as exc:  # float overflow past the edge of the physical domain
        print(
            f"error: inputs outside the supported range ({type(exc).__name__}: {exc})",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
