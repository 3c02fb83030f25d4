"""End-to-end command-line behavior: formats, config parsing, exit codes."""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import shutil
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import thermoqfi
from thermoqfi import QubitInit, cli, qubit_relaxation_rate, thermal_qfi
from thermoqfi.dynamics import _default_t_max, _qubit_model, _qubit_model_of
from thermoqfi.errors import DomainError
from thermoqfi.qfi import trace_blocks
from thermoqfi.cli import (
    _BLOCK_ROWS,
    _CSV_ROWS,
    _JSON_ROWS,
    ESTIMATE_COLUMNS,
    OPTIMIZE_COLUMNS,
    SCHEMA_VERSION,
    TRACE_COLUMNS,
    _blocks,
    _cell,
    _json_safe,
    _write_rows,
    build_parser,
    main,
)

from conftest import mp_qfi, qubit

REF = ["--omega12", "1", "--beta", "1.0986122886681098", "--gamma", "1"]


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def exit_of(capsys, argv):
    """run_cli, but an argparse rejection (SystemExit) counts as its exit code."""
    try:
        rc = main(argv)
    except SystemExit as exc:
        rc = exc.code
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_quietly(argv):
    """main(argv) in-process: its exit code, stdout, stderr and every warning it raised."""
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
    return rc, out.getvalue(), err.getvalue(), caught


@functools.lru_cache(maxsize=None)
def _unit_gamma_trace():
    """The gamma = 1 trace that the scaled traces are compared with, computed once."""
    rc, out, err, caught = _run_quietly(
        ["trace", "--omega12", "1", "--beta", "1", "--gamma", "1", "--a", "0.1", "--r", "0.5",
         "--points", "64"]
    )
    assert (rc, err, caught) == (0, "", [])
    return np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)


def _flag_actions():
    """(subcommand, action) for every option of every subcommand but --config."""
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        pytest.param(name, action, id=f"{name}-{action.dest}")
        for name, sub in subparsers.choices.items()
        for action in sub._actions
        if action.option_strings and action.dest not in ("help", "config")
    ]


def reference_csv(columns, rows) -> str:
    """The row-by-row CSV join the block writer must reproduce byte for byte."""
    lines = [",".join(columns)]
    lines.extend(",".join(_cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def reference_json(payload) -> str:
    return json.dumps(_json_safe(payload), indent=2, sort_keys=True) + "\n"


TRACE_STATE = ["--a", "0.3", "--r", "0.5", "--phi", "0.7"]


def reference_trace(points: int, fmt: str) -> str:
    """The trace document of REF + TRACE_STATE, built row by row from the library."""
    init, spectrum, bath = qubit(
        omega12=1.0, beta=1.0986122886681098, gamma=1.0, a=0.3, r=0.5, phi=0.7
    )
    t_max = _default_t_max(spectrum, bath)
    [cols] = trace_blocks(init, spectrum, bath, np.linspace(0.0, t_max, points), points)
    if fmt == "csv":
        return reference_csv(TRACE_COLUMNS, zip(*(cols[name] for name in TRACE_COLUMNS)))
    return reference_json(
        {
            "schema_version": SCHEMA_VERSION,
            "kind": "trace",
            "params": {
                "omega12": 1.0,
                "beta": 1.0986122886681098,
                "gamma": 1.0,
                "a": 0.3,
                "r": 0.5,
                "phi": 0.7,
                "t_max": t_max,
                "points": points,
            },
            "derived": {
                "pi2": _qubit_model_of(spectrum, bath).pi2,
                "lambda": qubit_relaxation_rate(spectrum, bath),
                "asymptote": thermal_qfi(spectrum, bath.beta),
            },
            "columns": list(TRACE_COLUMNS),
            "rows": [[float(cols[name][i]) for name in TRACE_COLUMNS] for i in range(points)],
        }
    )


class TestTrace:
    def test_csv_header_and_zero_row(self, capsys):
        rc, out, _ = run_cli(capsys, ["trace", *REF, "--a", "0", "--points", "4"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,F,F_norm,p2,abs_rho12,dbeta_p2,alpha,delta"
        assert len(lines) == 5
        # the t=0 derivative is an exact signed zero from dpi2 * 0
        assert lines[1] == "0.0,0.0,0.0,0.0,0.0,-0.0,0.0,0.0"
        assert lines[-1].startswith("10.0,")

    def test_json_schema(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["trace", *REF, "--a", "0.1", "--r", "1", "--points", "8", "--format", "json"],
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["kind"] == "trace"
        assert doc["columns"] == list(TRACE_COLUMNS)
        assert len(doc["rows"]) == 8
        assert doc["params"]["a"] == 0.1
        assert doc["params"]["r"] == 1.0
        assert doc["derived"]["pi2"] == pytest.approx(0.25, rel=1e-15)
        assert doc["derived"]["lambda"] == pytest.approx(-2.0, rel=1e-15)
        assert doc["derived"]["asymptote"] == pytest.approx(0.1875, rel=1e-15)

    @pytest.mark.parametrize("beta", [0.2, 0.6, 1.0, 1.4, 1.8, 2.2, 2.6, 3.0])
    def test_derived_constants_reproduce_the_columns(self, capsys, beta):
        # p2 and |rho12| come from the reported pi2 and lambda/gamma at the
        # scaled times gamma t, the default window from the reported lambda,
        # and lambda is gamma lambda/gamma, all bit for bit
        a, r, phi, gamma = 0.1, 0.6, 0.4, 1.3
        rc, out, _ = run_cli(
            capsys,
            ["trace", "--omega12", "1", "--beta", repr(beta), "--gamma", repr(gamma),
             "--a", repr(a), "--r", repr(r), "--phi", repr(phi),
             "--points", "64", "--format", "json"],
        )
        assert rc == 0
        doc = json.loads(out)
        pi2, lam = doc["derived"]["pi2"], doc["derived"]["lambda"]
        lam_hat = _qubit_model(1.0, beta).lam_hat
        assert lam == gamma * lam_hat
        rows = np.array(doc["rows"])
        t, p2, abs_rho12 = (rows[:, TRACE_COLUMNS.index(c)] for c in ("t", "p2", "abs_rho12"))
        assert np.array_equal(p2, pi2 - np.exp(lam_hat * (gamma * t)) * (pi2 - a))
        abs_rho12_0 = abs(QubitInit(a=a, r=r, phi=phi).rho12_0)
        assert np.array_equal(abs_rho12, abs_rho12_0 * np.exp(lam_hat * (gamma * t) / 2.0))
        assert t[-1] == 20.0 / abs(lam)

    def test_theta_matches_population_form(self, capsys):
        # sin^2(pi/6) rounds to 0.25 - 1 ulp, so compare numerically
        theta = str(math.pi / 3.0)
        rc1, out1, _ = run_cli(
            capsys, ["trace", *REF, "--theta", theta, "--r", "1", "--points", "8"]
        )
        rc2, out2, _ = run_cli(
            capsys, ["trace", *REF, "--a", "0.25", "--r", "1", "--points", "8"]
        )
        assert rc1 == rc2 == 0
        rows1 = [line.split(",") for line in out1.splitlines()[1:]]
        rows2 = [line.split(",") for line in out2.splitlines()[1:]]
        for row1, row2 in zip(rows1, rows2):
            for cell1, cell2 in zip(row1, row2):
                assert float(cell1) == pytest.approx(float(cell2), rel=1e-9, abs=1e-12)

    def test_file_output_is_byte_deterministic(self, tmp_path, capsys):
        args = ["trace", *REF, "--a", "0.3", "--r", "0.5", "--points", "64"]
        p1 = tmp_path / "one.csv"
        p2 = tmp_path / "two.csv"
        assert main([*args, "--out", str(p1)]) == 0
        assert main([*args, "--out", str(p2)]) == 0
        capsys.readouterr()
        assert p1.read_bytes() == p2.read_bytes()

    def test_cold_band_trace_reaches_the_asymptote(self, capsys):
        # At beta*omega = 400, dpi2^2 ~ e^{-800} underflows; F = F_th f does not.
        # From t = 103.5 on, f is 1 to rounding and F the thermal QFI 1.9e-174.
        rc, out, err = run_cli(capsys, ["trace", "--omega12", "1", "--beta", "400", "--gamma",
                                        "1", "--a", "0", "--points", "5", "--format", "json"])
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        asymptote = doc["derived"]["asymptote"]
        assert asymptote == 1.9151695967140057e-174
        columns = dict(zip(doc["columns"], np.array(doc["rows"]).T))
        assert columns["t"][0] == columns["F"][0] == columns["F_norm"][0] == 0.0
        assert np.all(columns["F"][1:] == asymptote)
        assert np.all(columns["F_norm"][1:] == 1.0)

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        args = ["trace", *REF, "--a", "0", "--points", "16", "--format", "json"]
        path = tmp_path / "trace.json"
        assert main([*args, "--out", str(path)]) == 0
        rc, out, _ = run_cli(capsys, args)
        assert rc == 0
        assert out == path.read_text()


class TestBlockWriter:
    """The block writer against the row-by-row reference it replaced."""

    @pytest.mark.parametrize(
        "points", [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 1]
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_trace_matches_reference(self, tmp_path, capsys, points, fmt):
        expected = reference_trace(points, fmt)
        args = ["trace", *REF, *TRACE_STATE, "--points", str(points), "--format", fmt]
        rc, out, err = run_cli(capsys, args)
        assert (rc, err) == (0, "")
        assert out == expected
        path = tmp_path / f"trace.{fmt}"
        assert main([*args, "--out", str(path)]) == 0
        assert capsys.readouterr().out == ""
        assert path.read_bytes() == expected.encode()

    def test_optimize_csv_matches_reference(self, capsys):
        args = ["optimize", *REF, "--a-steps", "7", "--r-steps", "3"]
        rc, out, _ = run_cli(capsys, args)
        assert rc == 0
        rows = [[row[name] for name in OPTIMIZE_COLUMNS] for row in json.loads(out)["rows"]]
        rc, out, _ = run_cli(capsys, [*args, "--format", "csv"])
        assert rc == 0
        assert out == reference_csv(OPTIMIZE_COLUMNS, rows)

    @pytest.mark.parametrize(
        "state",
        [
            ["--a", "0", "--replicas", "50", "--m-experiments", "500"],  # full MLE run
            ["--a", "0.1", "--r", "1", "--t", "1"],  # bound only: None cells
            ["--a", "0", "--t", "0", "--replicas", "10"],  # no information
        ],
    )
    def test_estimate_csv_matches_reference(self, capsys, state):
        args = ["estimate", *REF, *state]
        rc, out, _ = run_cli(capsys, args)
        assert rc == 0
        results = json.loads(out)["results"]
        rc, out, _ = run_cli(capsys, [*args, "--format", "csv"])
        assert rc == 0
        expected = reference_csv(ESTIMATE_COLUMNS, [[results[n] for n in ESTIMATE_COLUMNS]])
        assert out == expected

    def test_nonfinite_cells(self):
        # non-finite values at both sides of each block edge
        n = 2 * _BLOCK_ROWS + 1
        first = np.linspace(-1.0, 1.0, n)
        second = np.arange(n, dtype=float) / 7.0
        edges = (0, _BLOCK_ROWS - 1, _BLOCK_ROWS, n - 1)
        for i, value in zip(edges, (np.nan, np.inf, -np.inf, np.nan)):
            first[i] = value
            second[n - 1 - i] = value
        rows = list(zip(first.tolist(), second.tolist()))
        json_out = io.StringIO()
        _write_rows(json_out.write, _blocks([first, second]), _JSON_ROWS)
        document = reference_json({"rows": rows})
        assert document == '{\n  "rows": [\n' + json_out.getvalue() + "\n  ]\n}\n"
        assert "null" in json_out.getvalue()
        csv_out = io.StringIO()
        csv_out.write("x,y\n")
        _write_rows(csv_out.write, _blocks([first, second]), _CSV_ROWS)
        assert csv_out.getvalue() == reference_csv(["x", "y"], rows)

    def test_non_float_column_width_changes_between_blocks(self):
        # a bool column is as wide as its widest cell: "true" in the first
        # block, "false" in the second, and an int column widens too
        n = _BLOCK_ROWS + 3
        flags = [True] * n
        flags[_BLOCK_ROWS + 1] = False
        counts = list(range(n))
        values = np.arange(n, dtype=float) / 3.0
        out = io.StringIO()
        out.write("x,flag,count\n")
        _write_rows(out.write, _blocks([values, flags, counts]), _CSV_ROWS)
        rows = list(zip(values.tolist(), flags, counts))
        assert out.getvalue() == reference_csv(["x", "flag", "count"], rows)

    def test_output_follows_redirected_stdout(self, capsys):
        points = _BLOCK_ROWS + 1
        redirected = io.StringIO()
        with contextlib.redirect_stdout(redirected):
            rc = main(["trace", *REF, *TRACE_STATE, "--points", str(points)])
        assert rc == 0
        assert capsys.readouterr().out == ""
        assert redirected.getvalue() == reference_trace(points, "csv")


class TestStreamedTrace:
    """trace computes its columns a block at a time: errors stay whole-grid, memory stays flat."""

    @pytest.mark.parametrize(
        "t_max,first_bad",
        [
            ("1e308", 1),  # overflows in the first block, whose largest time is not t_max
            ("3.352e153", 2 * _BLOCK_ROWS),  # only the last row, in the third block
        ],
    )
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overflow_past_one_block_writes_nothing(
        self, tmp_path, capsys, t_max, first_bad, fmt
    ):
        points = 2 * _BLOCK_ROWS + 1
        thermometer = qubit(
            omega12=1.0, beta=1.0986122886681098, gamma=1.0, a=0.3, r=0.5, phi=0.7
        )
        grid = np.linspace(0.0, float(t_max), points)
        trace_blocks(*thermometer, grid[:first_bad], first_bad)
        with pytest.raises(DomainError):
            trace_blocks(*thermometer, grid[first_bad:][:1], 1)
        argv = ["trace", *REF, *TRACE_STATE, "--points", str(points), "--t-max", t_max,
                "--format", fmt]
        expected = (
            2,
            "",
            "error: the closed form overflows double precision on times up to "
            f"{float(t_max):g}; shorten the time window\n",
        )
        assert run_cli(capsys, argv) == expected
        out = tmp_path / "trace.out"
        assert run_cli(capsys, [*argv, "--out", str(out)]) == expected
        assert not out.exists()
        out.write_text("kept")
        assert run_cli(capsys, [*argv, "--out", str(out)]) == expected
        assert out.read_text() == "kept"

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_does_not_grow_with_rows(self, tmp_path, fmt):
        out = tmp_path / f"trace.{fmt}"
        argv = ["trace", *REF, *TRACE_STATE, "--format", fmt, "--out", str(out)]

        def peak(points: int) -> int:
            tracemalloc.start()
            try:
                assert main([*argv, "--points", str(points)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # first-use set-up, such as the float kernel's table
        small, large = peak(50_000), peak(200_000)
        # The whole time grid is 8 B per row (1.1 MiB of the difference); any
        # column or kernel temporary that spans the grid would add about 12 MiB.
        assert large - small <= 2 * 2**20


class TestConfig:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"omega12": 1.0, "beta": 1.0986122886681098, "gamma": 1.0, "a": 0.0,
                 "points": 4}
            )
        )
        rc, out, _ = run_cli(capsys, ["trace", "--config", str(cfg)])
        assert rc == 0
        assert len(out.splitlines()) == 5

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            json.dumps(
                {"omega12": 1.0, "beta": 1.0986122886681098, "gamma": 1.0, "a": 0.0,
                 "points": 4}
            )
        )
        rc, out, _ = run_cli(
            capsys, ["trace", "--config", str(cfg), "--points", "7"]
        )
        assert rc == 0
        assert len(out.splitlines()) == 8

    def test_unknown_config_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega12": 1.0, "bogus": 3}))
        rc, _, err = run_cli(capsys, ["trace", "--config", str(cfg), "--beta", "1",
                                      "--gamma", "1", "--a", "0"])
        assert rc == 2
        assert "unknown keys: bogus" in err

    def test_invalid_config_json(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        rc, _, err = run_cli(capsys, ["trace", "--config", str(cfg)])
        assert rc == 2
        assert "invalid JSON" in err

    def test_missing_config_file(self, tmp_path, capsys):
        rc, _, err = run_cli(
            capsys, ["trace", "--config", str(tmp_path / "absent.json")]
        )
        assert rc == 3
        assert "error:" in err

    @pytest.mark.parametrize("command,action", _flag_actions())
    def test_config_key_parses_like_its_flag(self, tmp_path, monkeypatch, command, action):
        # Every dest of every subcommand: a config key gives the namespace its flag gives.
        seen = []
        monkeypatch.setitem(cli._COMMANDS, command, lambda args: seen.append(vars(args)) or 0)
        value = next(c for c in action.choices if c != action.default) if action.choices else 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({action.dest: value}))
        assert main([command, "--config", str(cfg)]) == 0
        assert main([command, f"{action.option_strings[0]}={value}"]) == 0
        from_config, from_flag = seen
        assert (from_config.pop("config"), from_flag.pop("config")) == (str(cfg), None)
        assert from_config == from_flag
        assert from_flag[action.dest] != action.default

    def test_key_of_another_subcommand_is_ignored(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"checks": "column-sums", "replicas": 5, "format": "json"}))
        flags = ["trace", *REF, "--a", "0", "--points", "4"]
        assert run_cli(capsys, [*flags, "--config", str(cfg)]) == run_cli(
            capsys, [*flags, "--format", "json"]
        )
        rc, out, _ = run_cli(capsys, ["validate", "--config", str(cfg)])
        assert rc == 0 and out.splitlines()[-1] == "1/1 checks passed"

    @pytest.mark.parametrize(
        "command,config",
        [
            ("trace", {"beta": "abc"}),
            ("trace", {"a": [1]}),
            ("trace", {"a": True}),
            ("trace", {"points": "x"}),
            ("trace", {"points": 4.0}),
            ("trace", {"format": "xml"}),
            ("estimate", {"seed": 1.5}),
        ],
    )
    def test_mistyped_value_is_a_config_error_naming_the_key(
        self, tmp_path, capsys, command, config
    ):
        # The config file and key are named; the reason is the one its flag gets.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = [command, "--omega12", "1", "--gamma", "1", "--t-max" if command == "trace"
                else "--replicas", "10"]
        argv += [] if "beta" in config else ["--beta", "1"]
        argv += [] if "a" in config else ["--a", "0"]
        (key, value), = config.items()
        flag = f"--{key.replace('_', '-')}"
        rc, out, err = exit_of(capsys, [*argv, f"{flag}={value}"])
        assert (rc, out) == (2, "")
        prefix = f"thermoqfi {command}: error: argument {flag}: "
        assert err.startswith("usage: ") and err.splitlines()[-1].startswith(prefix)
        reason = err.splitlines()[-1].removeprefix(prefix)
        expected = (2, "", f'error: config {cfg}: key "{key}": {reason}\n')
        assert exit_of(capsys, [*argv, "--config", str(cfg)]) == expected
        # a flag that overrides the key does not hide the broken file
        override = f"{flag}={'csv' if key == 'format' else 1}"
        assert exit_of(capsys, [*argv, "--config", str(cfg), override]) == expected

    def test_mistyped_flag_keeps_its_argparse_message(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega12": 1.0, "gamma": 1.0, "a": 0.0}))
        rc, out, err = exit_of(capsys, ["trace", "--config", str(cfg), "--beta", "abc"])
        assert (rc, out) == (2, "")
        assert err.startswith("usage: thermoqfi trace ")
        assert err.splitlines()[-1] == (
            "thermoqfi trace: error: argument --beta: invalid float value: 'abc'"
        )

    def test_config_that_is_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(b'{"omega12": "\xff"}')
        rc, out, err = run_cli(capsys, ["trace", "--config", str(cfg)])
        assert (rc, out) == (2, "")
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: config ")
        assert "invalid JSON" in lines[0]

    def test_negative_value_is_not_read_as_an_option(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"t": -1e-05}))
        argv = ["estimate", *REF, "--a", "0.1", "--replicas", "10"]
        from_config = run_cli(capsys, [*argv, "--config", str(cfg)])
        assert from_config == run_cli(capsys, [*argv, "--t=-1e-05"])
        assert from_config[0] == 2

    @pytest.mark.parametrize(
        "command,config",
        [
            ("trace", {"omega12": 1.0, "beta": 1.0986122886681098, "gamma": 1, "a": 0.3,
                       "r": 0.5, "phi": 0.7, "t_max": 12.5, "points": 17, "format": "json"}),
            ("estimate", {"omega12": 2.0, "n12": 0.25, "tau_tilde": 0.1, "theta": 0.4,
                          "seed": 7, "replicas": 50, "m_experiments": 400, "format": "csv"}),
            ("optimize", {"omega12": 1, "beta": 0.5, "gamma": 2.0, "a_steps": 5,
                          "r_steps": 3, "format": "csv"}),
            ("experiment", {"omega12": 4, "n12": 3.0, "tau_tilde": 0.02, "r": 0.5,
                            "points": 8}),
            ("validate", {"checks": "column-sums,detailed-balance",
                          "inject_fault": "column-sums"}),
        ],
    )
    def test_well_typed_config_matches_flags_byte_for_byte(
        self, tmp_path, capsys, command, config
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        flags = [command]
        for key, value in config.items():
            flags += [f"--{key.replace('_', '-')}", str(value)]
        from_config = run_cli(capsys, [command, "--config", str(cfg)])
        assert from_config == run_cli(capsys, flags)
        assert from_config[1]


class TestArgumentRules:
    def test_state_requires_exactly_one_of_a_theta(self, capsys):
        rc, _, err = run_cli(capsys, ["trace", *REF, "--a", "0.1", "--theta", "1.0"])
        assert rc == 2
        assert "--a or --theta" in err
        rc, _, err = run_cli(capsys, ["trace", *REF])
        assert rc == 2

    def test_bath_requires_exactly_one_temperature(self, capsys):
        rc, _, err = run_cli(
            capsys, ["trace", "--omega12", "1", "--gamma", "1", "--a", "0"]
        )
        assert rc == 2
        assert "--beta or --n12" in err

    def test_bath_requires_exactly_one_rate(self, capsys):
        rc, _, err = run_cli(
            capsys,
            ["trace", "--omega12", "1", "--beta", "1", "--gamma", "1",
             "--tau-tilde", "0.05", "--a", "0"],
        )
        assert rc == 2
        assert "--gamma or --tau-tilde" in err

    def test_energies_flag_is_gone(self, capsys):
        # --energies a,b printed what --omega12 (b - a) prints; it was removed
        with pytest.raises(SystemExit) as exc:
            main(["trace", "--energies", "0,1", "--beta", "1", "--gamma", "1", "--a", "0"])
        assert exc.value.code == 2
        assert "--energies" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [["--a", "3", "--r", "1"], ["--a", "0.1"]],  # prefixes of --a-steps and --r-steps
    )
    def test_abbreviated_flags_are_rejected(self, capsys, flags):
        rc, out, err = exit_of(capsys, ["optimize", *REF, *flags])
        assert (rc, out) == (2, "")
        assert "unrecognized arguments: --a" in err

    def test_full_flag_names_and_config_keys_still_work(self, tmp_path, capsys):
        args = ["optimize", *REF, "--format", "csv"]
        rc, out, _ = run_cli(capsys, [*args, "--a-steps", "3", "--r-steps", "1"])
        assert rc == 0
        assert len(out.splitlines()) == 1 + 3
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"a_steps": 3, "r_steps": 1}))
        assert run_cli(capsys, [*args, "--config", str(cfg)]) == (0, out, "")

    def test_domain_error_maps_to_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, ["trace", *REF, "--a", "1.5"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            # the default bracket (beta/4, 4 beta) reaches beta*omega = 800
            (["estimate", "--omega12", "1", "--beta", "200", "--gamma", "1", "--a", "0",
              "--t", "1"], "beta*omega <= 709"),
            (["estimate", *REF, "--a", "0", "--m-experiments", "0"], "m_experiments"),
            (["trace", "--omega12", "1", "--beta", "800", "--gamma", "1", "--a", "0.3"],
             "beta*omega <= 745"),
            (["trace", *REF, "--a", "0.3", "--points", "3", "--t-max", "nan"],
             "--t-max must be finite"),
            (["optimize", *REF, "--t-max", "inf"], "--t-max must be finite"),
            (["estimate", *REF, "--a", "0", "--t", "nan"], "--t must be finite"),
            (["estimate", *REF, "--a", "0", "--t=-inf"], "--t must be finite"),
            # beta*omega so small that pi2 rounds to 1/2: lambda = gamma/(2 pi2 - 1)
            (["estimate", "--omega12", "1", "--beta", "1e-300", "--gamma", "1", "--a", "0"],
             "2e-15 <= beta*omega <= 745"),
            (["experiment", "--n12", "1e300"], "beta*omega = 1e-300 is too small"),
            # below the supported range at the true beta, before any bracket
            (["estimate", "--omega12", "1", "--beta", "1e-15", "--gamma", "1", "--a", "0",
              "--t", "1"], "beta*omega = 1e-15 is too small"),
            # finite windows on which the closed form overflows to nan
            (["trace", *REF, "--a", "0.3", "--points", "4", "--t-max", "1e308"],
             "shorten the time window"),
            (["optimize", *REF, "--t-max", "1e300"], "shorten the time window"),
            # F is forced to 0 (D below the guard) while delta overflows
            (["trace", "--omega12", "1", "--beta", "100", "--gamma", "2", "--a", "0.3",
              "--points", "4", "--t-max", "1e308"], "shorten the time window"),
            (["estimate", "--omega12", "1", "--beta", "1", "--gamma", "1", "--a", "0.1",
              "--seed", "-1"], "seed must be a nonnegative integer"),
            # --replicas has no fixed cap: an 800 GB draw is larger than memory
            (["estimate", *REF, "--a", "0", "--t", "1", "--replicas", "100000000000"],
             "estimate needs more memory than is available"),
            # the bound-only path (r != 0) checks the run settings too
            (["estimate", *REF, "--a", "0.1", "--r", "1", "--t", "1", "--m-experiments", "0"],
             "m_experiments must be a positive integer"),
            (["estimate", *REF, "--a", "0.1", "--r", "1", "--t", "1", "--m-experiments", "-3"],
             "m_experiments must be a positive integer"),
            (["estimate", *REF, "--a", "0.1", "--r", "1", "--t", "1", "--seed", "-1",
              "--replicas", "-5"], "n_replicas must be at least 2"),
            # lambda = gamma/(pi2 - pi1) overflows, or the default window does,
            # with no numpy warning before the error line
            *[
                ([command, "--omega12", "1", "--beta", "1", "--gamma", gamma, *state], message)
                for gamma, message in (
                    ("1.7e308", "gamma = 1.7e+308 is too large"),
                    ("1e-310", "gamma = 1e-310 is too small"),
                )
                for command, state in (
                    ("trace", ["--a", "0.3"]),
                    ("optimize", []),
                    ("estimate", ["--a", "0.3"]),
                )
            ],
            # F scales as omega^2: the thermal QFI overflows at omega = 1e200 and
            # underflows to 0 at omega = 1e-200, with no numpy warning before the error line
            *[
                ([command, "--omega12", omega, "--beta", beta, "--gamma", "1", *state],
                 "the thermal QFI")
                for omega, beta in (("1e200", "1e-200"), ("1e-200", "1e200"))
                for command, state in (
                    ("trace", ["--a", "0.1"]),
                    ("optimize", []),
                    ("estimate", ["--a", "0.1"]),
                )
            ],
            (["experiment", "--omega12", "1e200"], "the thermal QFI"),
            (["experiment", "--omega12", "1e-300"], "the thermal QFI"),
            # a grid of 745 GiB, refused by the allocator before any memory is used
            (["trace", "--omega12", "1", "--beta", "1", "--gamma", "1", "--a", "0",
              "--points", "100000000000"], "trace needs more memory than is available"),
            (["experiment", "--points", "100000000000"],
             "experiment needs more memory than is available"),
            # the fault would land on a check that does not run
            (["validate", "--checks", "column-sums", "--inject-fault", "detailed-balance"],
             "cannot inject into 'detailed-balance'"),
            # a given measurement time skips the peak search, not the thermal QFI
            *[
                (["estimate", "--omega12", omega, "--beta", beta, "--gamma", "1", "--a", "0.1",
                  "--t", "1"], "the thermal QFI")
                for omega, beta in (("1e200", "1e-200"), ("1e-200", "1e200"))
            ],
            # at beta*omega = 400 the peak search finds an informative time
            # (F = F_th f > 0), so the run reaches the bracket check
            (["estimate", "--omega12", "1", "--beta", "400", "--gamma", "1", "--a", "0"],
             "beta*omega <= 709"),
            # F_th = 2.5e307 is a normal double, but F = F_th f overflows near the peak
            *[
                ([command, "--omega12", "1e154", "--beta", "1e-156", "--gamma", "1", *state],
                 "the closed form overflows double precision")
                for command, state in (
                    ("trace", ["--a", "0"]),
                    ("optimize", []),
                    ("estimate", ["--a", "0", "--t", "0.004"]),
                )
            ],
        ],
    )
    @pytest.mark.filterwarnings("error")
    def test_edge_inputs_end_in_one_error_line(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
        assert "Traceback" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "command,state",
        [("trace", ["--a", "0"]), ("optimize", []), ("estimate", ["--a", "0", "--t", "0.004"])],
    )
    def test_overflowing_scale_names_the_thermal_qfi(self, capsys, command, state):
        # f = F/F_th is finite on the default window; only F = F_th f overflows,
        # so a shorter window would not help
        argv = [command, "--omega12", "1e154", "--beta", "1e-156", "--gamma", "1", *state]
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (2, "")
        assert "F_th = 2.49994e+307" in err
        assert "shorten the time window" not in err

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("gamma", ["1e-307", "1e-200", "1e200", "5e307"])
    def test_extreme_gamma_trace_is_the_unit_gamma_trace_in_scaled_time(self, capsys, gamma):
        # The trace depends on gamma*t alone: at every gamma whose lambda and
        # default window are finite (here from 1e-307 to 5e307, where the
        # window is 1.8e-307 long) every column but t is the gamma = 1 column
        # at the times gamma*t.
        argv = ["trace", "--omega12", "1", "--beta", "1", "--gamma", gamma, "--a", "0.3",
                "--r", "0.5", "--points", "64"]
        rc, out, err = run_cli(capsys, argv)
        assert (rc, err) == (0, "")
        rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        init = QubitInit(a=0.3, r=0.5)
        unit = thermoqfi.Bath(beta=1.0, gamma=1.0)
        scaled = rows[:, 0] * float(gamma)
        [cols] = trace_blocks(init, thermoqfi.Spectrum.qubit(1.0), unit, scaled, len(scaled))
        for k, name in enumerate(TRACE_COLUMNS[1:], 1):
            np.testing.assert_allclose(rows[:, k], cols[name], rtol=1e-13, atol=0, err_msg=name)

    @settings(max_examples=40, deadline=None)
    @given(log2_gamma=st.floats(min_value=-1074.0, max_value=1023.99))
    @example(log2_gamma=-1074.0)  # the smallest subnormal
    @example(log2_gamma=-1020.0)  # a window of 1e308
    @example(log2_gamma=1022.5)  # a window of 1.5e-307
    @example(log2_gamma=1023.99)  # lambda overflows
    def test_any_gamma_gives_the_scaled_trace_or_one_gamma_error(self, log2_gamma):
        # gamma log-uniform over the positive doubles: either lambda and the
        # default window are finite and the trace is the gamma = 1 trace at
        # the times gamma*t, or the call ends in one of the two gamma errors.
        gamma = 2.0**log2_gamma
        rc, out, err, caught = _run_quietly(
            ["trace", "--omega12", "1", "--beta", "1", "--gamma", repr(gamma), "--a", "0.1",
             "--r", "0.5", "--points", "64"]
        )
        assert caught == [] and "Traceback" not in err
        if rc == 2:
            assert out == ""
            assert err in (
                f"error: gamma = {gamma:g} is too large: the relaxation rate gamma/(pi2 - pi1) "
                "overflows double precision\n",
                f"error: gamma = {gamma:g} is too small: the default time window "
                "max(20, 14 + beta*omega)/|lambda| overflows double precision\n",
            )
            return
        assert (rc, err) == (0, "")
        rows = np.array([line.split(",") for line in out.splitlines()[1:]], dtype=float)
        unit = _unit_gamma_trace()
        np.testing.assert_allclose(rows[:, 0] * gamma, unit[:, 0], rtol=1e-13, atol=0)
        for k, name in enumerate(TRACE_COLUMNS[1:], 1):
            np.testing.assert_allclose(rows[:, k], unit[:, k], rtol=1e-13, atol=0, err_msg=name)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize(
        "argv",
        [
            ["trace", *REF, "--a", "0", "--points", "1000", "--t-max", "1e6"],
            ["optimize", *REF, "--a-steps", "3", "--r-steps", "1", "--t-max", "1e6"],
        ],
    )
    def test_long_finite_window_is_accepted(self, capsys, argv):
        rc, out, err = run_cli(capsys, argv)
        assert (rc, err) == (0, "")
        assert "nan" not in out and "inf" not in out and "null" not in out

    def test_unwritable_output_maps_to_exit_3(self, tmp_path, capsys):
        for argv in (
            ["trace", *REF, "--a", "0", "--points", "4"],
            # more rows than one block of the streaming writer
            ["trace", *REF, "--a", "0", "--points", "20000"],
            ["trace", *REF, "--a", "0", "--points", "20000", "--format", "json"],
        ):
            rc, out, err = run_cli(capsys, [*argv, "--out", str(tmp_path / "nodir" / "x.csv")])
            assert rc == 3
            assert out == ""
            lines = err.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: ")


class TestOptimize:
    def test_csv_ranking(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["optimize", *REF, "--a-steps", "5", "--r-steps", "2", "--format", "csv"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(OPTIMIZE_COLUMNS)
        assert len(lines) == 11
        f_stars = [float(line.split(",")[3]) for line in lines[1:]]
        assert f_stars == sorted(f_stars, reverse=True)

    def test_json_document(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["optimize", *REF, "--a-steps", "3", "--r-steps", "1"]
        )
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "optimize"
        assert doc["params"]["a_steps"] == 3
        rows = doc["rows"]
        assert len(rows) == 3
        assert rows[0]["a"] == 0.0
        assert rows[0]["region"] == "C"
        assert rows[0]["f_star"] == pytest.approx(0.27769162815121534, rel=1e-9)
        inverted = [row for row in rows if row["a"] == 1.0]
        assert inverted[0]["region"] == "I" and inverted[0]["asymptotic"]

    def test_low_temperature_ground_state_is_cold(self, capsys):
        # At beta*omega = 30, pi2 = 9.4e-14: a = 0 lies below pi2 by more than
        # the relative boundary width, so it is region C, not the boundary.
        rc, out, _ = run_cli(capsys, ["optimize", "--omega12", "1", "--beta", "30",
                                      "--gamma", "1", "--a-steps", "3", "--r-steps", "1"])
        assert rc == 0
        [ground] = [row for row in json.loads(out)["rows"] if row["a"] == 0.0]
        assert ground["region"] == "C"
        assert not ground["thermal_boundary"]

    def test_cold_band_peaks_reach_the_asymptote(self, capsys):
        # At beta*omega = 400 every state's f_star was 0 when F itself carried
        # dpi2^2 ~ e^{-800}; now each reaches F_th = 1.9e-174 to the margin.
        rc, out, err = run_cli(capsys, ["optimize", "--omega12", "1", "--beta", "400",
                                        "--gamma", "1", "--a-steps", "11", "--r-steps", "3"])
        assert (rc, err) == (0, "")
        doc = json.loads(out)
        asymptote = doc["derived"]["asymptote"]
        assert len(doc["rows"]) == 33
        for row in doc["rows"]:
            assert row["f_star"] / asymptote >= 1.0 - 1e-6


class TestEstimate:
    def test_saturation_run_json(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["estimate", *REF, "--a", "0", "--m-experiments", "2000",
             "--replicas", "2000", "--seed", "3"],
        )
        assert rc == 0
        doc = json.loads(out)
        results = doc["results"]
        assert not results["bound_only"]
        assert not results["no_information"]
        assert results["clamped_count"] == 0
        assert results["ratio"] == pytest.approx(1.0285510772244635, rel=1e-12)
        assert results["f_classical"] == pytest.approx(
            results["f_quantum"], rel=1e-12
        )
        assert results["measurement_time"] == pytest.approx(0.72422736049842, rel=1e-14)

    def test_cold_estimate_matches_the_oracle(self, capsys):
        # At beta omega = 30, p2 and D are about 1e-13: below any fixed guard.
        # F_Q and F_C are one kernel value. M p2 = 1e-9, so every replica draws
        # 0 and clamps; whether that sets no_information is not decided here.
        argv = ["estimate", "--omega12", "1", "--beta", "30", "--gamma", "1", "--a", "0",
                "--t", "6.67"]
        rc, out, err = run_cli(capsys, argv)
        assert (rc, err) == (0, "")
        results = json.loads(out)["results"]
        exact = mp_qfi(1.0, 30.0, 1.0, 0.0, 0.0, 6.67)
        assert exact == pytest.approx(9.3458e-14, rel=1e-4)
        assert results["f_quantum"] == results["f_classical"]
        assert results["f_quantum"] == pytest.approx(exact, rel=1e-12)
        assert results["bound"] == pytest.approx(1.0 / (10000 * exact), rel=1e-12)
        assert results["bound"] == pytest.approx(1.07e9, rel=1e-3)
        assert results["clamped_count"] == 1000
        assert not results["no_information"]

    def test_bracket_beyond_2_19_ends(self):
        # The default bracket (5e5, 8e6) lies where adjacent floats are wider
        # than the MLE's 1e-10 stop. A child process with a timeout turns a
        # search that never ends into a failure.
        proc = subprocess.run(
            [sys.executable, "-m", "thermoqfi.cli", "estimate", "--omega12", "1e-6",
             "--beta", "2e6", "--gamma", "1", "--a", "0", "--replicas", "10", "--t", "1"],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["clamped_count"] == 0

    def test_bound_only_for_coherent_state(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["estimate", *REF, "--a", "0.1", "--r", "1", "--t", "1.0"]
        )
        assert rc == 0
        results = json.loads(out)["results"]
        assert results["bound_only"]
        assert results["f_classical"] is None
        assert results["variance"] is None
        assert results["f_quantum"] == pytest.approx(0.2666432038557697, rel=1e-12)
        assert results["bound"] == pytest.approx(
            1.0 / (10000 * 0.2666432038557697), rel=1e-12
        )

    @pytest.mark.parametrize(
        "state",
        [
            ["--a", "0", "--replicas", "50", "--m-experiments", "500", "--seed", "7"],
            ["--a", "0.1", "--r", "0.6", "--phi", "0.4", "--m-experiments", "500"],
        ],
        ids=["population", "coherent"],
    )
    def test_results_are_the_report_fields(self, capsys, state):
        argv = ["estimate", *REF, *state]
        args = build_parser().parse_args(argv)
        report = thermoqfi.cramer_rao_report(
            *qubit(args.omega12, args.beta, args.gamma, args.a, args.r, args.phi),
            m_experiments=args.m_experiments,
            n_replicas=args.replicas,
            seed=args.seed,
        )
        expected = {name: getattr(report, name) for name in ESTIMATE_COLUMNS}
        assert expected["bound_only"] == (args.r != 0.0)
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        assert json.loads(out)["results"] == expected
        rc, out, _ = run_cli(capsys, [*argv, "--format", "csv"])
        assert rc == 0
        assert out.splitlines()[1].split(",") == [_cell(expected[n]) for n in ESTIMATE_COLUMNS]

    @pytest.mark.parametrize("state", [["--a", "0"], ["--a", "0.1", "--r", "1"]])
    def test_negative_time_is_rejected_on_both_paths(self, capsys, state):
        rc, out, err = run_cli(capsys, ["estimate", *REF, *state, "--t", "-1"])
        assert (rc, out, err) == (2, "", "error: t must be nonnegative\n")

    def test_no_information_at_zero_time(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["estimate", *REF, "--a", "0", "--t", "0", "--m-experiments", "100",
             "--replicas", "10"],
        )
        assert rc == 0
        results = json.loads(out)["results"]
        assert results["no_information"]
        assert results["bound"] is None and results["ratio"] is None

    def test_csv_single_row(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["estimate", *REF, "--a", "0", "--t", "1.0", "--m-experiments", "500",
             "--replicas", "20", "--seed", "1", "--format", "csv"],
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == ",".join(ESTIMATE_COLUMNS)
        assert len(lines) == 2
        cells = lines[1].split(",")
        assert cells[-1] == "false"  # bound_only


class TestExperiment:
    def test_document_structure(self, capsys):
        rc, out, _ = run_cli(capsys, ["experiment", "--points", "16"])
        assert rc == 0
        doc = json.loads(out)
        assert doc["kind"] == "experiment"
        assert doc["params"]["omega12"] == 5.0
        assert doc["params"]["tau_tilde"] == 0.05
        baths = doc["baths"]
        assert [b["label"] for b in baths] == ["cold", "hot"]
        assert baths[0]["beta"] == pytest.approx(0.0334108, abs=1e-7)
        assert baths[1]["beta"] == pytest.approx(0.0200167, abs=1e-7)
        assert all(b["gamma"] == pytest.approx(0.125, rel=1e-15) for b in baths)
        cold_labels = [tr["theta_label"] for tr in baths[0]["traces"]]
        hot_labels = [tr["theta_label"] for tr in baths[1]["traces"]]
        assert cold_labels == ["0", "pi/3", "12pi/25", "5pi/6"]
        assert hot_labels == ["0", "pi/3", "12pi/25", "pi"]
        for bath in baths:
            peaks = [tr["f_peak"] for tr in bath["traces"]]
            assert peaks[0] == max(peaks)  # theta = 0 preparation wins
            assert all(len(tr["times"]) == 16 for tr in bath["traces"])

    def test_channel_comparison_rows(self, capsys):
        rc, out, _ = run_cli(capsys, ["experiment", "--points", "8"])
        assert rc == 0
        doc = json.loads(out)
        rows = doc["gad_comparison"]
        assert len(rows) == 6
        for row in rows:
            expected = 1.0 / 55.0 if row["n12"] == 5.5 else 1.0 / 171.0
            assert row["rel_diff"] == pytest.approx(expected, rel=1e-10)
        diag = doc["fixed_point_diagnostics"]
        assert [d["n12"] for d in diag] == [5.5, 9.5]
        assert diag[0]["ground_fixed_point"] == pytest.approx(0.55, rel=1e-14)

    def test_single_bath_override(self, capsys):
        rc, out, _ = run_cli(capsys, ["experiment", "--n12", "5.5", "--points", "8"])
        assert rc == 0
        doc = json.loads(out)
        assert len(doc["baths"]) == 1
        assert doc["baths"][0]["label"] == "cold"
        assert len(doc["gad_comparison"]) == 3

    @pytest.mark.parametrize(
        "flags", [[], ["--n12", "3", "--r", "0.4", "--points", "100"]]
    )
    def test_peaks_are_the_one_state_scans(self, capsys, flags):
        # One batched scan per bath gives every preparation the bits of its
        # own maximize_qfi_over_time call.
        rc, out, _ = run_cli(capsys, ["experiment", *flags])
        assert rc == 0
        doc = json.loads(out)
        for bath in doc["baths"]:
            for trace in bath["traces"]:
                init = QubitInit.from_theta(trace["theta"], r=doc["params"]["r"])
                best = thermoqfi.maximize_qfi_over_time(
                    init,
                    thermoqfi.Spectrum.qubit(doc["params"]["omega12"]),
                    thermoqfi.Bath(beta=bath["beta"], gamma=bath["gamma"]),
                )
                assert init.a == trace["a"]
                assert (trace["t_peak"], trace["f_peak"], trace["asymptotic"]) == (
                    best.t_star, best.f_star, best.asymptotic
                )

    def test_format_flag_is_gone(self, capsys):
        # experiment writes JSON only; it takes --out and --config, as validate does
        rc, out, err = exit_of(capsys, ["experiment", "--format", "csv"])
        assert (rc, out) == (2, "")
        assert "unrecognized arguments: --format csv" in err


class TestValidate:
    def test_subset_passes(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["validate", "--checks", "column-sums,detailed-balance"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[-1] == "2/2 checks passed"
        assert all(" PASS " in line for line in lines[:-1])

    def test_fault_injection_fails(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["validate", "--checks", "null-eigenvalue-count",
             "--inject-fault", "null-eigenvalue-count"],
        )
        assert rc == 1
        lines = out.splitlines()
        assert any(" FAIL " in line for line in lines)
        assert lines[-1] == "0/1 checks passed"

    def test_unknown_check_name(self, capsys):
        rc, _, err = run_cli(capsys, ["validate", "--checks", "no-such-check"])
        assert rc == 2

    def test_unknown_injection_name(self, capsys):
        rc, _, err = run_cli(capsys, ["validate", "--inject-fault", "bogus"])
        assert rc == 2

    @pytest.mark.parametrize("checks", ["", " , "])
    def test_empty_selection_exits_2(self, capsys, checks):
        rc, out, err = run_cli(capsys, ["validate", "--checks", checks])
        assert (rc, out, err) == (2, "", "error: no checks selected\n")


# Runs in a fresh interpreter: imports the package, then every subcommand
# through cli.main, asserting after each step that scipy was never loaded,
# that the package and its numpy-free errors module load neither numpy nor
# the float kernel, that trace loads neither metrology nor validate, and that
# the CLI loads the float kernel.
_IMPORT_PROBE = """
import sys
import thermoqfi
assert thermoqfi.errors is sys.modules["thermoqfi.errors"], "submodule not resolved"
assert "numpy" not in sys.modules, "numpy loaded by import"
assert "thermoqfi._floatrepr" not in sys.modules, "float kernel loaded by import"
import thermoqfi.cli
assert "scipy" not in sys.modules, "import"
ref = ["--omega12", "1", "--beta", "1.0986122886681098", "--gamma", "1"]
assert thermoqfi.cli.main(["trace", *ref, "--a", "0.3", "--r", "0.5", "--format", "json"]) == 0
for layer in ("metrology", "validate"):
    assert f"thermoqfi.{layer}" not in sys.modules, f"trace loaded {layer}"
for argv in (
    ["optimize", *ref],
    ["experiment"],
    ["estimate", *ref, "--a", "0"],
    ["validate"],
):
    assert thermoqfi.cli.main(argv) == 0, argv
    assert "scipy" not in sys.modules, argv
# the float kernel's tables are built from ints, without bignum decimal modules
assert "thermoqfi._floatrepr" in sys.modules
assert "fractions" not in sys.modules and "decimal" not in sys.modules
"""

_SRC = Path(__file__).resolve().parents[1] / "src"


class TestImportFootprint:
    def test_scipy_is_never_loaded(self):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            capture_output=True,
            text=True,
            timeout=120,
            env={**os.environ, "PYTHONPATH": str(_SRC)},
        )
        assert proc.returncode == 0, proc.stderr

    def test_lazy_namespace(self):
        assert len(thermoqfi.__all__) == len(set(thermoqfi.__all__))
        for name in thermoqfi.__all__:
            value = getattr(thermoqfi, name)
            assert value is getattr(sys.modules[value.__module__], name), name
            assert name in dir(thermoqfi), name
        for layer in ("cli", "dynamics", "errors", "metrology", "qfi", "spectrum", "validate"):
            assert getattr(thermoqfi, layer) is sys.modules[f"thermoqfi.{layer}"]
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            thermoqfi.no_such_name


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

# Runs a statement in a fresh interpreter and prints the environment variables
# it changed, whether numpy is loaded, and the process's thread count (Linux).
_ENV_PROBE = """
import json, os, sys
before = dict(os.environ)
{statement}
after = dict(os.environ)
tasks = "/proc/self/task"
print(json.dumps({{
    "changed": {{k: after.get(k) for k in before.keys() | after.keys() if before.get(k) != after.get(k)}},
    "numpy": "numpy" in sys.modules,
    "threads": len(os.listdir(tasks)) if os.path.isdir(tasks) else None,
}}))
"""


def _env_probe(statement: str, preset: dict) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    proc = subprocess.run(
        [sys.executable, "-c", _ENV_PROBE.format(statement=statement)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**env, **preset, "PYTHONPATH": str(_SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestBlasThreadPin:
    def test_cli_pins_one_thread(self):
        probe = _env_probe("import thermoqfi.cli", {})
        assert probe["changed"] == {"OPENBLAS_NUM_THREADS": "1"}
        assert probe["numpy"]
        assert probe["threads"] in (None, 1)

    @pytest.mark.parametrize("var", _THREAD_VARS)
    def test_user_setting_is_kept(self, var):
        probe = _env_probe("import thermoqfi.cli", {var: "2"})
        assert probe["changed"] == {}
        assert probe["numpy"]

    def test_library_leaves_environment_alone(self):
        probe = _env_probe("import thermoqfi; thermoqfi.qfi_values", {})
        assert probe["changed"] == {}
        assert probe["numpy"]


class TestInstalledScript:
    def test_console_entry_point(self, tmp_path):
        exe = shutil.which("thermoqfi")
        assert exe, "console script not installed"
        proc = subprocess.run(
            [exe, "trace", *REF, "--a", "0", "--points", "4"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "t,F,F_norm,p2,abs_rho12,dbeta_p2,alpha,delta"
