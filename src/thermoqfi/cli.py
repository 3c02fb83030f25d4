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

Start-up: no subcommand builds a matrix larger than 8x8 (validate's N-level
checks), so a BLAS thread pool only adds start-up time. Unless numpy is
already loaded or one of OPENBLAS_NUM_THREADS, GOTO_NUM_THREADS or
OMP_NUM_THREADS is set to a non-empty value, importing this module sets
OPENBLAS_NUM_THREADS=1 before numpy starts its pool; setting any of the three
to a non-empty value overrides that. Each subcommand imports only the layers
it runs, and only the table writer loads the float kernel.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from typing import NamedTuple

# Before the first numpy import, which starts OpenBLAS's thread pool (see above).
if "numpy" not in sys.modules and not any(
    os.environ.get(var) for var in ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np

from .dynamics import (
    QubitInit,
    _default_t_max,
    _qubit_model_of,
    beta_from_thermal_ratio,
    gad_master_comparison,
    gad_stationary_diagnostic,
    gamma_from_tau_tilde,
    qubit_relaxation_rate,
)
from .errors import DomainError, EstimatorUndefinedError, ModelIntegrityError, _addressable
from .qfi import qfi_values, thermal_qfi, trace_blocks
from .spectrum import Bath, Spectrum

SCHEMA_VERSION = "1"

# Rows per block of a table: the trace kernel computes, and the table writer
# renders and writes, this many rows at a time. Enough to amortize the
# per-block work, few enough that a block's columns (32 KiB each) and its row
# table (one bytearray, about 1 MB for a trace) stay small. On 200k-row traces
# 4096 rows wrote as fast as 8192 with a lower peak RSS; 2048 was slower.
_BLOCK_ROWS = 4096

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

class ConfigError(Exception):
    """Invalid or conflicting run configuration."""


class _ConfigParser(argparse.ArgumentParser):
    """The parser that checks --config values: a rejected value raises, not exits."""

    def error(self, message):
        raise ConfigError(message)


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
    p.add_argument("--r", type=float, default=0.0, help="relative coherence in [0, 1]")
    p.add_argument("--phi", type=float, default=0.0, help="coherence phase")


def _add_output_args(p: argparse.ArgumentParser, fmt: str | None = None) -> None:
    p.add_argument("--out", default=None, help="output path ('-' or absent: stdout)")
    if fmt is not None:
        p.add_argument("--format", choices=("csv", "json"), default=fmt)
    p.add_argument("--config", default=None, help="JSON file with defaults for any flag")


def build_parser(parser_class=argparse.ArgumentParser) -> argparse.ArgumentParser:
    # allow_abbrev=False: a prefix such as --a must not stand for --a-steps
    parser = parser_class(
        prog="thermoqfi",
        description="Quantum Fisher information thermometry for a dissipative qubit probe.",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("trace", help="QFI trace over time", allow_abbrev=False)
    _add_model_args(p)
    _add_state_args(p)
    p.add_argument("--t-max", type=float, default=None, dest="t_max")
    p.add_argument("--points", type=int, default=2048, help="grid size (default %(default)s)")
    _add_output_args(p, "csv")

    p = sub.add_parser("optimize", help="rank initial states by peak QFI", allow_abbrev=False)
    _add_model_args(p)
    p.add_argument("--t-max", type=float, default=None, dest="t_max")
    p.add_argument("--a-steps", type=int, default=21, dest="a_steps")
    p.add_argument("--r-steps", type=int, default=2, dest="r_steps")
    _add_output_args(p, "json")

    p = sub.add_parser(
        "experiment", help="preset cold/hot bath study with GAD comparison", allow_abbrev=False
    )
    p.add_argument("--omega12", type=float, default=5.0)
    p.add_argument("--n12", type=float, default=None, help="single bath occupation override")
    p.add_argument(
        "--tau-tilde", type=float, default=0.05, dest="tau_tilde", help="collision time"
    )
    p.add_argument("--r", type=float, default=1.0, help="coherence of the preparations")
    p.add_argument(
        "--points", type=int, default=512, help="trace grid size (default %(default)s)"
    )
    _add_output_args(p)

    p = sub.add_parser("estimate", help="Cramer-Rao saturation report", allow_abbrev=False)
    _add_model_args(p)
    _add_state_args(p)
    p.add_argument("--t", type=float, default=None, help="measurement time (default: peak)")
    p.add_argument("--m-experiments", type=int, default=10000, dest="m_experiments")
    p.add_argument("--replicas", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    _add_output_args(p, "json")

    p = sub.add_parser("validate", help="run the named invariant checks", allow_abbrev=False)
    p.add_argument("--checks", default=None, help="comma-separated subset of check names")
    p.add_argument(
        "--inject-fault",
        default=None,
        dest="inject_fault",
        help="corrupt the inputs of this check to demonstrate detection",
    )
    _add_output_args(p)

    return parser


def _config_argv(command: str, path: str) -> list[str]:
    """The --config file of command as the flags it stands for.

    Each non-null key becomes one --key-with-dashes=value token, so argparse
    gives every value its flag's conversion and choices. Each token is parsed
    on its own first, so a value its flag rejects is a ConfigError that names
    the file and the key. The valid keys are the parser's own dests; a key of
    another subcommand is ignored.
    """
    parser = build_parser(_ConfigParser)
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ConfigError(f"config {path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"config {path}: top level must be an object")
    dests = {
        name: set(vars(parser.parse_args([name]))) - {"command", "config"}
        for name in _COMMANDS
    }
    unknown = sorted(set(data) - set().union(*dests.values()))
    if unknown:
        raise ConfigError(f"config {path}: unknown keys: {', '.join(unknown)}")
    tokens = []
    for key, value in data.items():
        if key not in dests[command] or value is None:
            continue
        flag = f"--{key.replace('_', '-')}"
        tokens.append(f"{flag}={value}")
        try:
            parser.parse_args([command, tokens[-1]])
        except ConfigError as exc:
            detail = str(exc).removeprefix(f"argument {flag}: ")
            raise ConfigError(f'config {path}: key "{key}": {detail}') from None
    return tokens


def _resolve_spectrum(args: argparse.Namespace) -> Spectrum:
    if args.omega12 is None:
        raise ConfigError("provide --omega12")
    return Spectrum.qubit(args.omega12)


def _resolve_bath(args: argparse.Namespace, spectrum: Spectrum) -> Bath:
    has_beta = args.beta is not None
    has_n12 = args.n12 is not None
    if has_beta == has_n12:
        raise ConfigError("provide exactly one of --beta or --n12")
    omega = spectrum.gap(1, 2)
    beta = args.beta if has_beta else beta_from_thermal_ratio(args.n12, omega)
    has_gamma = args.gamma is not None
    has_tau = args.tau_tilde is not None
    if has_gamma == has_tau:
        raise ConfigError("provide exactly one of --gamma or --tau-tilde")
    gamma = args.gamma if has_gamma else gamma_from_tau_tilde(args.tau_tilde, omega)
    return Bath(beta=beta, gamma=gamma)


def _resolve_init(args: argparse.Namespace) -> QubitInit:
    has_a = args.a is not None
    has_theta = args.theta is not None
    if has_a == has_theta:
        raise ConfigError("provide exactly one of --a or --theta")
    if has_a:
        return QubitInit(a=args.a, r=args.r, phi=args.phi)
    return QubitInit.from_theta(args.theta, r=args.r, phi=args.phi)


def _finite(value: float, flag: str) -> float:
    if not math.isfinite(value):
        raise ConfigError(f"{flag} must be finite")
    return value


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))
    return str(value)


def _json_safe(value):
    if isinstance(value, dict):
        return {k: _json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    if isinstance(value, float):
        return value if math.isfinite(value) else None
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
    between. Float cells are repr's, as _cell's are: a table's float columns
    come from trace_blocks, which has rejected every nan and inf.
    """

    prefix: str
    sep: str
    suffix: str
    between: str


_CSV_ROWS = _RowLayout("", ",", "\n", "")

# A row of a top-level "rows" array exactly as json.dumps(indent=2) lays it out.
_JSON_ROWS = _RowLayout("    [\n      ", ",\n      ", "\n    ]", ",\n")


def _is_float(column) -> bool:
    return isinstance(column, np.ndarray) and column.dtype.kind == "f"


def _slots(column) -> np.ndarray:
    """A non-float column slice's cells as NUL-padded bytes, by _cell's rules."""
    cells = np.array([_cell(value).encode() for value in column], dtype=bytes)
    return cells.view(np.uint8).reshape(len(cells), -1)


def _blocks(columns):
    """Equal-length columns cut into blocks of _BLOCK_ROWS rows, for _write_rows."""
    return (
        [column[start : start + _BLOCK_ROWS] for column in columns]
        for start in range(0, len(columns[0]), _BLOCK_ROWS)
    )


def _table(columns, layout: _RowLayout, skip: int) -> bytearray:
    """One block of equal-length column slices as the bytes of its rows.

    The rows are laid out in one bytearray and filled in place: the layout's
    constant texts, then each column's slots as soon as they are rendered (a
    float array's WIDTH slots, the bytes of repr from the shortest round-trip
    kernel; any other column is rendered first, by _slots, since it is as wide
    as its widest cell). The first skip bytes, the separator before the first
    row, are left NUL, and one translate drops every NUL.
    """
    from . import _floatrepr

    first, sep, suffix = (
        np.frombuffer(text.encode(), dtype=np.uint8)
        for text in (layout.between + layout.prefix, layout.sep, layout.suffix)
    )
    rows = len(columns[0])
    rendered = [None if _is_float(column) else _slots(column) for column in columns]
    widths = [_floatrepr.WIDTH if cells is None else cells.shape[1] for cells in rendered]
    texts = [first, *[sep] * (len(columns) - 1)]
    width = sum(text.size for text in texts) + sum(widths) + suffix.size
    buf = bytearray(rows * width)
    table = np.frombuffer(buf, dtype=np.uint8).reshape(rows, width)
    at = 0
    for text, column, cells, cell_width in zip(texts, columns, rendered, widths):
        table[:, at : at + text.size] = text
        at += text.size
        if cells is None:
            cells = _floatrepr.render(column)
        table[:, at : at + cell_width] = cells
        at += cell_width
    table[:, at:] = suffix
    table[0, :skip] = 0
    return buf.translate(None, b"\0")


def _write_rows(write, blocks, layout: _RowLayout) -> None:
    """Write an iterable of column blocks as rows, one write call per block.

    Each block is a list of equal-length column slices, which _table lays
    out as the bytes of its rows; its row table is freed before those bytes
    are decoded and written. No block is kept once the next one is written,
    so when the blocks are computed as they are consumed, as trace's are,
    memory does not grow with the number of rows.
    """
    # glibc's malloc maps each allocation above its mmap threshold afresh and
    # returns a heap top above twice that threshold to the system, so without
    # this every block's buffers would be faulted in anew (about 15k page
    # faults on a 200k-row trace). Freeing one allocation larger than a
    # block's working set raises both thresholds to its size (the dynamic
    # threshold of mallopt(3)); elsewhere it is a 4 MiB allocation never touched.
    np.empty(_BLOCK_ROWS * 1024, dtype=np.uint8)
    skip = len(layout.between)  # the first row of all has no separator before it
    for columns in blocks:
        write(_table(columns, layout, skip).decode())
        skip = 0


def _emit_csv(names, blocks, out: str | None) -> None:
    with _sink(out) as write:
        write(",".join(names) + "\n")
        _write_rows(write, blocks, _CSV_ROWS)


def cmd_trace(args: argparse.Namespace) -> int:
    spectrum = _resolve_spectrum(args)
    bath = _resolve_bath(args, spectrum)
    init = _resolve_init(args)
    t_max = _default_t_max(spectrum, bath) if args.t_max is None else _finite(args.t_max, "--t-max")
    if t_max <= 0:
        raise ConfigError("--t-max must be positive")
    if _addressable(args.points, "--points") < 2:
        raise ConfigError("--points must be at least 2")
    # The grid is built whole (its bits are linspace's); every column is
    # computed, rendered and written one block at a time, after trace_blocks
    # has checked the whole grid, so an overflow writes nothing.
    times = np.linspace(0.0, t_max, args.points)
    blocks = trace_blocks(init, spectrum, bath, times, _BLOCK_ROWS)
    blocks = ([cols[name] for name in TRACE_COLUMNS] for cols in blocks)
    if args.format == "csv":
        _emit_csv(TRACE_COLUMNS, blocks, args.out)
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
            "points": args.points,
        },
        "derived": {
            "pi2": _qubit_model_of(spectrum, bath).pi2,
            "lambda": qubit_relaxation_rate(spectrum, bath),
            "asymptote": thermal_qfi(spectrum, bath.beta),
        },
        "columns": list(TRACE_COLUMNS),
        "rows": [],
    }
    # The rows are streamed into the place of the empty list in the document.
    head, tail = _json_document(payload).split('"rows": []')
    with _sink(args.out) as write:
        write(head + '"rows": [\n')
        _write_rows(write, blocks, _JSON_ROWS)
        write("\n  ]" + tail)
    return 0


def cmd_optimize(args: argparse.Namespace) -> int:
    from .metrology import optimize_initial_state

    spectrum = _resolve_spectrum(args)
    bath = _resolve_bath(args, spectrum)
    t_max = None if args.t_max is None else _finite(args.t_max, "--t-max")
    rows = optimize_initial_state(
        spectrum, bath, t_max=t_max, a_steps=args.a_steps, r_steps=args.r_steps
    )
    if args.format == "csv":
        table = [
            (row.a, row.r, row.t_star, row.f_star, row.asymptotic, row.region.region)
            for row in rows
        ]
        _emit_csv(OPTIMIZE_COLUMNS, _blocks(list(zip(*table))), args.out)
    else:
        payload = {
            "schema_version": SCHEMA_VERSION,
            "kind": "optimize",
            "params": {
                "omega12": spectrum.gap(1, 2),
                "beta": bath.beta,
                "gamma": bath.gamma,
                "t_max": _default_t_max(spectrum, bath) if t_max is None else t_max,
                "a_steps": args.a_steps,
                "r_steps": args.r_steps,
            },
            "derived": {
                "pi2": _qubit_model_of(spectrum, bath).pi2,
                "asymptote": thermal_qfi(spectrum, bath.beta),
            },
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
    from .metrology import _peak_times

    omega12, tau_tilde, r, points = args.omega12, args.tau_tilde, args.r, args.points
    if _addressable(points, "--points") < 2:
        raise ConfigError("--points must be at least 2")
    n12_values = [args.n12] if args.n12 is not None else [5.5, 9.5]
    spectrum = Spectrum.qubit(omega12)
    gamma = gamma_from_tau_tilde(tau_tilde, omega12)

    baths = []
    for idx, n12 in enumerate(sorted(n12_values)):
        label = "cold" if len(n12_values) == 1 or idx == 0 else "hot"
        beta = beta_from_thermal_ratio(n12, omega12)
        bath = Bath(beta=beta, gamma=gamma)
        presets = THETA_PRESETS[label]
        inits = [QubitInit.from_theta(theta, r=r) for theta, _ in presets]
        t_max = _default_t_max(spectrum, bath)
        times = np.linspace(0.0, t_max, points)
        # one batched scan; each state gets the bits of maximize_qfi_over_time
        peaks = _peak_times(inits, spectrum, bath)
        traces = [
            {
                "theta": theta,
                "theta_label": theta_label,
                "a": init.a,
                "r": init.r,
                "t_peak": best.t_star,
                "f_peak": best.f_star,
                "asymptotic": best.asymptotic,
                "times": times.tolist(),
                "values": qfi_values(init, spectrum, bath, times).tolist(),
            }
            for (theta, theta_label), init, best in zip(presets, inits, peaks)
        ]
        baths.append(
            {
                "n12": n12,
                "label": label,
                "beta": beta,
                "gamma": gamma,
                "pi2": _qubit_model_of(spectrum, bath).pi2,
                "lambda": qubit_relaxation_rate(spectrum, bath),
                "asymptote": thermal_qfi(spectrum, bath.beta),
                "t_max": t_max,
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
    from .metrology import cramer_rao_report

    spectrum = _resolve_spectrum(args)
    bath = _resolve_bath(args, spectrum)
    init = _resolve_init(args)
    m_experiments, replicas, seed = args.m_experiments, args.replicas, args.seed
    report = cramer_rao_report(
        init,
        spectrum,
        bath,
        t=None if args.t is None else _finite(args.t, "--t"),
        m_experiments=m_experiments,
        n_replicas=replicas,
        seed=seed,
    )
    results = {name: getattr(report, name) for name in ESTIMATE_COLUMNS}
    if args.format == "csv":
        columns = [[results[name]] for name in ESTIMATE_COLUMNS]
        _emit_csv(ESTIMATE_COLUMNS, _blocks(columns), args.out)
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
    from .validate import check_names, run_checks

    names = None
    if args.checks is not None:
        names = tuple(s.strip() for s in args.checks.split(",") if s.strip())
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
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # config flags go right after the subcommand, so the user's own win
            config = _config_argv(args.command, args.config)
            args = parser.parse_args([argv[0], *config, *argv[1:]])
        return _COMMANDS[args.command](args)
    except (ConfigError, DomainError, EstimatorUndefinedError) as exc:
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
    except MemoryError as exc:  # e.g. a --points grid larger than memory
        print(
            f"error: {args.command} needs more memory than is available ({exc})",
            file=sys.stderr,
        )
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
