import json
import os
import subprocess
import sys

import numpy as np
import pytest

import randova as rv
from randova.cli import main


@pytest.fixture()
def table_paths(tmp_path, tables):
    paths = {}
    for name, table in tables.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(rv.table_to_document(table)))
        paths[name] = str(path)
    return paths


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, **env):
    """`python -m randova` in a child process: (exit code, stdout, stderr)."""
    result = subprocess.run(
        [sys.executable, "-m", "randova", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, **env},
    )
    return result.returncode, result.stdout, result.stderr


class TestExpectedMs:
    def test_table1_report(self, capsys, table_paths):
        code, out, _ = run_cli(capsys, "expected-ms", table_paths["table1"])
        assert code == 0
        doc = json.loads(out)
        assert doc["operation"] == "expected_ms"
        assert doc["e_s0"] == 215.875
        assert doc["e_s1"] == 213.625
        assert doc["ls_lower_bound"] is None
        assert doc["inputs"]["design"] == "rcb"
        assert "outcomes" not in doc["inputs"]

    def test_table3_includes_difference_decomposition(self, capsys, table_paths):
        code, out, _ = run_cli(capsys, "expected-ms", table_paths["table3"])
        assert code == 0
        doc = json.loads(out)
        assert doc["e_s1"] == pytest.approx(6.77, abs=0.005)
        components = doc["ls_difference_decomposition"]
        assert components["interaction_sum"] == pytest.approx(9.48, abs=0.005)
        assert components["neg_eta_variance_sum"] == pytest.approx(-14.59, abs=0.005)

    def test_outputs_equal_direct_library_results(self, capsys, table_paths, tables):
        _, out, _ = run_cli(capsys, "expected-ms", table_paths["table2"])
        doc = json.loads(out)
        ems = rv.expected_ms(tables["table2"])
        assert doc["e_s0"] == ems.e_s0
        assert doc["e_s1"] == ems.e_s1
        assert doc["interaction_term"] == ems.interaction_term

    def test_malformed_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"design": "rcb", "treatments": 2}')
        code, out, err = run_cli(capsys, "expected-ms", str(path))
        assert code == 2
        assert out == ""
        assert "blocks" in err


class TestType1:
    def test_table4(self, capsys, table_paths):
        code, out, _ = run_cli(
            capsys, "type1", table_paths["table4"], "--alpha", "0.05"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["rejection_probability"] == 0.0
        assert doc["cutoff"] == pytest.approx(4.76, abs=0.005)
        assert doc["null_status"]["fisher_sharp_null_holds"] is True

    def test_invalid_alpha_exits_2(self, capsys, table_paths):
        code, _, err = run_cli(
            capsys, "type1", table_paths["table4"], "--alpha", "1.5"
        )
        assert code == 2
        assert "alpha" in err

    def test_sampled_space_deterministic(self, capsys, table_paths):
        args = ("type1", table_paths["table4"], "--sample", "200", "--seed", "3")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_empty_sample_exits_2(self, capsys, table_paths):
        code, _, err = run_cli(capsys, "type1", table_paths["table4"], "--sample", "0")
        assert code == 2
        assert "sample" in err

    def test_space_too_large_advises_sampling(self, capsys, tmp_path, tables):
        big = rv.PotentialOutcomeTable(rv.DesignKind.RCB, np.zeros((9, 5, 5)))
        path = tmp_path / "big.json"
        path.write_text(json.dumps(rv.table_to_document(big)))
        code, _, err = run_cli(capsys, "type1", str(path))
        assert code == 2
        assert "--sample" in err


class TestCurve:
    def test_csv_and_json(self, capsys, table_paths, tmp_path):
        csv_path = tmp_path / "curve.csv"
        code, out, _ = run_cli(
            capsys,
            "curve",
            table_paths["table4"],
            "--grid",
            "40",
            "--csv",
            str(csv_path),
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["cutoffs"]) == 40
        assert doc["p_reference"][0] == 1.0
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "k,p_randomization,p_reference"
        assert len(lines) == 41
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert float(first[2]) == 1.0

    def test_grid_validation(self, capsys, table_paths):
        code, _, err = run_cli(capsys, "curve", table_paths["table4"], "--grid", "1")
        assert code == 2
        assert "grid" in err


class TestMonteCarlo:
    def test_reruns_are_bit_identical(self, capsys, table_paths):
        args = (
            "mc",
            table_paths["table4"],
            "--sigma-eps",
            "0.01",
            "--reps",
            "20",
            "--seed",
            "7",
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        _, second, _ = run_cli(capsys, *args)
        assert first == second
        doc = json.loads(first)
        assert doc["mean_rejection"] < 0.01
        assert doc["replications"] == 20
        assert doc["seed"] == 7

    def test_keep_reps(self, capsys, table_paths):
        code, out, _ = run_cli(
            capsys,
            "mc",
            table_paths["table4"],
            "--reps",
            "4",
            "--seed",
            "1",
            "--keep-reps",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rejection_probabilities"]) == 4

    def test_bad_sigma_exits_2(self, capsys, table_paths):
        code, _, err = run_cli(
            capsys, "mc", table_paths["table4"], "--sigma-eps", "0"
        )
        assert code == 2
        assert "sigma" in err


class TestEnumerateCount:
    def test_ls_order4(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate-count", "--design", "ls", "--order", "4"
        )
        assert code == 0
        assert json.loads(out)["count"] == 576

    def test_rcb(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate-count",
            "--design",
            "rcb",
            "--blocks",
            "4",
            "--treatments",
            "3",
        )
        assert code == 0
        assert json.loads(out)["count"] == 1296

    def test_missing_flags_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "enumerate-count", "--design", "rcb")
        assert code == 2
        assert "blocks" in err

    def test_unknown_ls_order_exits_2(self, capsys):
        code, _, err = run_cli(
            capsys, "enumerate-count", "--design", "ls", "--order", "7"
        )
        assert code == 2
        assert "order 7" in err


class TestReproduce:
    def test_human_readable_passes(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce")
        assert code == 0
        assert "PASS" in out
        assert "FAIL" not in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(capsys, "reproduce", "--json")
        assert code == 0
        doc = json.loads(out)
        assert doc["all_passed"] is True
        assert len(doc["checks"]) >= 20
        assert all(check["passed"] for check in doc["checks"])

    def test_perturbed_table_fails_with_exit_1(self, capsys, tmp_path, tables):
        for name, table in tables.items():
            doc = rv.table_to_document(table)
            if name == "table2":
                doc["outcomes"][0][0][0] += 1.0
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "reproduce", "--tables-dir", str(tmp_path))
        assert code == 1
        assert "FAIL" in out
        assert "252.07" in out

    def test_console_entry_point(self):
        result = subprocess.run(
            [sys.executable, "-m", "randova", "reproduce"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0
        assert "checks passed" in result.stdout


class TestArgumentErrors:
    def test_unknown_command_exits_2(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2

    def test_seed_echoed_in_reports(self, capsys, table_paths):
        _, out, _ = run_cli(
            capsys, "type1", table_paths["table2"], "--sample", "50", "--seed", "9"
        )
        assert json.loads(out)["seed"] == 9

    def test_bad_enum_cap_exits_2_without_traceback(self, table_paths):
        code, out, err = run_module("type1", table_paths["table4"], RANDOVA_ENUM_CAP="abc")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "RANDOVA_ENUM_CAP" in err
        assert "Traceback" not in err

    def test_zero_reps_exits_2_without_traceback(self, table_paths):
        code, out, err = run_module("mc", table_paths["table4"], "--reps", "0")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "replications" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("sizes", [("-1", "3"), ("2", "-1"), ("0", "3")])
    def test_bad_rcb_sizes_exit_2_without_traceback(self, sizes):
        blocks, treatments = sizes
        code, out, err = run_module(
            "enumerate-count", "--design", "rcb", "--blocks", blocks, "--treatments", treatments
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and ">= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("order", ["0", "-3"])
    def test_bad_ls_order_exits_2_without_traceback(self, order):
        code, out, err = run_module("enumerate-count", "--design", "ls", "--order", order)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and ">= 1" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("burn_in", ["-5", "0"])
    def test_burn_in_below_one_exits_2(self, capsys, table_paths, burn_in):
        code, out, err = run_cli(
            capsys, "type1", table_paths["table2"], "--sample", "50", "--burn-in", burn_in
        )
        assert (code, out) == (2, "")
        assert "burn_in" in err

    @pytest.mark.parametrize(
        "flags", [("--burn-in", "5"), ("--ls-measure", "subgroup"), ("--ls-measure", "all")]
    )
    def test_ls_sampler_flag_on_rcb_table_exits_2_without_traceback(self, table_paths, flags):
        code, out, err = run_module(
            "type1", table_paths["table1"], "--sample", "10", "--seed", "1", *flags
        )
        # the library rejects the setting, under its parameter name
        setting = flags[0].lstrip("-").replace("-", "_")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and setting in err and "RCB" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["type1", "curve", "mc"])
    @pytest.mark.parametrize("flags", [("--burn-in", "5"), ("--ls-measure", "all")])
    def test_ls_sampler_flag_without_sample_exits_2(self, capsys, table_paths, command, flags):
        code, out, err = run_cli(capsys, command, table_paths["table2"], *flags)
        # the library rejects the setting, under its parameter name
        setting = flags[0].lstrip("-").replace("-", "_")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and setting in err and "sample" in err
        assert "Traceback" not in err

    def test_ls_sampler_flag_without_sample_has_no_traceback(self, table_paths):
        code, out, err = run_module("mc", table_paths["table4"], "--burn-in", "5")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "Traceback" not in err


class TestSampledSpaceInputs:
    def test_ls_report_records_draws_seed_burn_in_and_measure(self, capsys, table_paths):
        code, out, _ = run_cli(
            capsys, "type1", table_paths["table2"], "--sample", "50", "--seed", "9",
            "--burn-in", "7", "--ls-measure", "subgroup",
        )
        assert code == 0
        space = {"draws": 50, "seed": 9, "burn_in": 7, "measure": "subgroup"}
        assert json.loads(out)["inputs"]["space"] == space

    def test_ls_report_records_the_default_burn_in(self, capsys, table_paths):
        code, out, _ = run_cli(
            capsys, "mc", table_paths["table4"], "--sample", "40", "--seed", "3", "--reps", "2"
        )
        assert code == 0
        space = {"draws": 40, "seed": 3, "burn_in": 2 * 4**3, "measure": "all"}
        assert json.loads(out)["inputs"]["space"] == space

    def test_rcb_report_records_draws_and_seed(self, capsys, table_paths):
        code, out, _ = run_cli(
            capsys, "curve", table_paths["table1"], "--sample", "30", "--seed", "2"
        )
        assert code == 0
        assert json.loads(out)["inputs"]["space"] == {"draws": 30, "seed": 2}

    def test_sampled_report_without_seed_records_seed_0(self, capsys, table_paths):
        _, out, _ = run_cli(capsys, "type1", table_paths["table1"], "--sample", "30")
        assert json.loads(out)["inputs"]["space"] == {"draws": 30, "seed": 0}

    def test_exact_report_records_no_space(self, capsys, table_paths):
        _, out, _ = run_cli(capsys, "type1", table_paths["table1"])
        assert "space" not in json.loads(out)["inputs"]


ENVELOPE = ["operation", "engine_version", "inputs"]
EXPECTED_MS_KEYS = [
    "design", "e_s0", "e_s1", "e_s0_neyman", "interaction_term",
    "treatment_effect_term", "difference", "ls_lower_bound",
]
REPORT_KEYS = {
    "expected-ms rcb": (("expected-ms", "table1"), EXPECTED_MS_KEYS),
    "expected-ms ls": (
        ("expected-ms", "table2"), EXPECTED_MS_KEYS + ["ls_difference_decomposition"]
    ),
    "type1": (
        ("type1", "table1", "--seed", "4"),
        ["rejection_probability", "cutoff", "alpha", "null_status", "seed"],
    ),
    "curve": (
        ("curve", "table3", "--grid", "5"),
        ["df_treatment", "df_residual", "cutoffs", "p_randomization", "p_reference"],
    ),
    "mc": (
        ("mc", "table4", "--reps", "2"),
        [
            "replications", "error_sd", "alpha", "cutoff", "mean_rejection",
            "standard_error", "rejection_probabilities", "seed",
        ],
    ),
    "reproduce --json": (("reproduce", "--json"), ["checks", "all_passed"]),
}


class TestReportKeyOrder:
    """Payloads are the result dataclasses' fields in order, so reordering a
    field reorders a report; these pin every report's keys."""

    @pytest.mark.parametrize("case", REPORT_KEYS)
    def test_top_level_keys(self, capsys, table_paths, case):
        (command, *argv), keys = REPORT_KEYS[case]
        argv = [table_paths.get(arg, arg) for arg in argv]
        code, out, _ = run_cli(capsys, command, *argv)
        assert code == 0
        assert list(json.loads(out)) == ENVELOPE + keys

    def test_nested_keys(self, capsys, table_paths):
        _, out, _ = run_cli(capsys, "expected-ms", table_paths["table2"])
        assert list(json.loads(out)["ls_difference_decomposition"]) == [
            "interaction_sum", "neg_eta_variance_sum", "correlation_term",
            "constant_case_difference",
        ]
        _, out, _ = run_cli(capsys, "type1", table_paths["table1"])
        assert list(json.loads(out)["null_status"]) == [
            "neyman_null_holds", "fisher_sharp_null_holds",
        ]
        _, out, _ = run_cli(capsys, "reproduce", "--json")
        for check in json.loads(out)["checks"]:
            assert list(check) == ["name", "passed", "observed", "expected", "tolerance"]
