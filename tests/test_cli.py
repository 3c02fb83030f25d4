"""End-to-end command-line behavior: formats, config merging, exit codes."""

import json
import math
import shutil
import subprocess

import pytest

from thermoqfi.cli import ESTIMATE_COLUMNS, OPTIMIZE_COLUMNS, TRACE_COLUMNS, main

REF = ["--omega12", "1", "--beta", "1.0986122886681098", "--gamma", "1"]


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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

    def test_stdout_matches_file_output(self, tmp_path, capsys):
        args = ["trace", *REF, "--a", "0", "--points", "16", "--format", "json"]
        path = tmp_path / "trace.json"
        assert main([*args, "--out", str(path)]) == 0
        rc, out, _ = run_cli(capsys, args)
        assert rc == 0
        assert out == path.read_text()


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

    def test_spectrum_requires_exactly_one_form(self, capsys):
        rc, _, err = run_cli(
            capsys,
            ["trace", "--omega12", "1", "--energies", "0,1", "--beta", "1",
             "--gamma", "1", "--a", "0"],
        )
        assert rc == 2
        assert "--omega12 or --energies" in err

    def test_domain_error_maps_to_exit_2(self, capsys):
        rc, _, err = run_cli(capsys, ["trace", *REF, "--a", "1.5"])
        assert rc == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            # the default bracket (beta/4, 4 beta) reaches beta*omega = 800
            (["estimate", "--omega12", "1", "--beta", "200", "--gamma", "1", "--a", "0",
              "--t", "1"], "beta*omega <= 709"),
            (["trace", "--omega12", "1", "--beta", "1", "--gamma", "1e200", "--a", "0.3",
              "--points", "4"], "OverflowError"),
            (["estimate", *REF, "--a", "0", "--m-experiments", "0"], "m_experiments"),
            (["trace", "--omega12", "1", "--beta", "800", "--gamma", "1", "--a", "0.3"],
             "beta*omega <= 745"),
            (["trace", *REF, "--a", "0.3", "--points", "3", "--t-max", "nan"],
             "--t-max must be finite"),
            (["optimize", *REF, "--t-max", "inf"], "--t-max must be finite"),
            (["estimate", *REF, "--a", "0", "--t", "nan"], "--t must be finite"),
            (["estimate", *REF, "--a", "0", "--t=-inf"], "--t must be finite"),
        ],
    )
    def test_edge_inputs_end_in_one_error_line(self, capsys, argv, message):
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert message in lines[0]
        assert "Traceback" not in err

    def test_unwritable_output_maps_to_exit_3(self, tmp_path, capsys):
        rc, _, err = run_cli(
            capsys,
            ["trace", *REF, "--a", "0", "--points", "4",
             "--out", str(tmp_path / "nodir" / "x.csv")],
        )
        assert rc == 3


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


class TestEstimate:
    def test_saturation_run_json(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["estimate", *REF, "--a", "0", "--m-experiments", "2000",
             "--replicas", "200", "--seed", "3"],
        )
        assert rc == 0
        doc = json.loads(out)
        results = doc["results"]
        assert not results["bound_only"]
        assert not results["no_information"]
        assert results["clamped_count"] == 0
        assert results["ratio"] == pytest.approx(1.0848184418774214, rel=1e-12)
        assert results["f_classical"] == pytest.approx(
            results["f_quantum"], rel=1e-12
        )
        assert results["measurement_time"] == pytest.approx(
            0.7242273401034078, abs=1e-6
        )

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

    def test_rejects_csv(self, capsys):
        rc, _, err = run_cli(capsys, ["experiment", "--format", "csv"])
        assert rc == 2
        assert "json" in err


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
