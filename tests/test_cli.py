import json
import re
import subprocess
import sys

import numpy as np
import pytest

from codedcache.cli import main

from golden import GOLDEN_PLACEMENTS


#: ``verify`` stdout, byte for byte, except the digits of the LP gap, which
#: vary with the BLAS build.
VERIFY_SINGLE_STDOUT = """\
PASS [0] N=6 K=3 M=2.5 lp_gap |gap|=*
PASS [0] N=6 K=3 M=2.5 file_groups<=3 groups=3
PASS [0] N=6 K=3 M=2.5 row_nonzeros<=2 max=2
PASS [0] N=6 K=3 M=2.5 cache_equality residual=0.000e+00
PASS [0] N=6 K=3 M=2.5 popularity_first
PASS [0] N=6 K=3 M=2.5 subpacketization_bound
PASS [0] N=6 K=3 M=2.5 lp_nonnegativity min=0.000e+00
PASS [0] N=6 K=3 M=2.5 monte_carlo mc=0.35525 analytic=0.373813 stderr=0.011
PASS [0] N=6 K=3 M=2.5 bit_exact_decode 3 demands, F=2 bits
verify: 1 instance(s), 0 failed check(s)
"""
VERIFY_BATCH_STDOUT = """\
PASS [0] N=6 K=1 M=2
PASS [1] N=2 K=4 M=1.5
PASS [2] N=6 K=3 M=4
verify: 3 instance(s), 0 failed check(s)
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_reference_instance_json(self, capsys):
        code, out, err = run_cli(
            capsys, "solve", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "2.5"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["case"] == "three_group_case2"
        assert (payload["n_o"], payload["n_1"], payload["l_o"], payload["l_1"]) == (4, 6, 3, 4)
        assert np.max(np.abs(np.array(payload["placement"]["a"]) - GOLDEN_PLACEMENTS[2.5])) < 5e-4
        assert "case=three_group_case2" in err

    def test_one_group_instance(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "7"
        )
        payload = json.loads(out)
        assert code == 0 and payload["case"] == "one_group"
        assert np.max(np.abs(np.array(payload["placement"]["a"]) - GOLDEN_PLACEMENTS[7.0])) < 5e-4

    def test_zero_cache_with_probs(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--N", "2", "--K", "2", "--probs", "0.7,0.3", "--M", "0"
        )
        payload = json.loads(out)
        assert code == 0
        assert payload["rate"] == pytest.approx(2.0)
        assert all(row[0] == 1.0 for row in payload["placement"]["a"])

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "4",
            "--format", "csv",
        )
        assert code == 0
        rows = out.strip().splitlines()
        assert len(rows) == 9 and len(rows[0].split(",")) == 8

    def test_out_stem_writes_both(self, capsys, tmp_path):
        stem = tmp_path / "result"
        code, out, _ = run_cli(
            capsys, "solve", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "4",
            "--out", str(stem),
        )
        assert code == 0 and out == ""
        payload = json.loads((tmp_path / "result.json").read_text())
        assert payload["case"] == "two_group_zero_tail"
        assert len((tmp_path / "result.csv").read_text().strip().splitlines()) == 9

    def test_byte_identical_reruns(self, capsys):
        _, first, _ = run_cli(capsys, "solve", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "2.5")
        _, second, _ = run_cli(capsys, "solve", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "2.5")
        assert first == second

    def test_permutation_reported_for_unsorted_probs(self, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--N", "2", "--K", "2", "--probs", "0.3,0.7", "--M", "1"
        )
        assert code == 0
        assert json.loads(out)["input_permutation"] == [1, 0]

    def test_missing_popularity_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--N", "9", "--K", "7", "--M", "1")
        assert code == 2 and "error:" in err

    def test_conflicting_popularity_is_config_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "solve", "--N", "2", "--K", "2", "--zipf", "1.0",
            "--probs", "0.7,0.3", "--M", "1",
        )
        assert code == 2

    def test_config_file(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "N": 9, "K": 7, "M": 4, "popularity": {"type": "zipf", "theta": 1.5},
        }))
        code, out, _ = run_cli(capsys, "solve", "--config", str(config))
        assert code == 0
        assert json.loads(out)["case"] == "two_group_zero_tail"

    def test_missing_users_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "solve", "--N", "9", "--zipf", "1.5", "--M", "1")
        assert code == 2 and "K" in err

    @pytest.mark.parametrize("config", [
        {"N": 9, "K": "seven", "M": 1, "popularity": {"type": "zipf", "theta": 1.5}},
        {"N": 9, "K": 7, "M": 1, "popularity": {"type": "zipf"}},
        {"N": 9, "K": 7, "M": 1, "popularity": {"type": "zipf", "theta": "x"}},
        {"K": 2, "M": 1, "popularity": {"type": "step", "levels": [{"p": "1/2", "count": "two"}]}},
        ["--N", "5", "--K", "3", "--M", "1", "--step", "5/9xabc"],
        ["--N", "2", "--K", "3", "--M", "1", "--probs", "0.5,abc"],
        {"N": 9, "K": 7, "M": 1, "popularity": "zipf"},
        {"K": 2, "M": 1, "popularity": {"type": "custom", "probs": 5}},
        {"K": 2, "M": 1, "popularity": {"type": "step", "levels": 5}},
        {"K": 2, "M": 1, "popularity": {"type": "step", "levels": [5]}},
    ])
    def test_bad_config_is_config_error(self, capsys, tmp_path, config):
        """A bad value from a config file (dict) or from flags (list) exits 2."""
        if isinstance(config, dict):
            path = tmp_path / "config.json"
            path.write_text(json.dumps(config))
            config = ["--config", str(path)]
        code, _, err = run_cli(capsys, "solve", *config)
        assert code == 2 and "error:" in err

    def test_unread_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--N", "2", "--K", "2", "--probs", "0.7,0.3", "--M", "1",
                  "--trials", "5"])
        assert exc.value.code == 2

    def test_library_bug_is_not_a_config_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise TypeError("library bug")

        monkeypatch.setattr("codedcache.cli.algorithm4", broken)
        with pytest.raises(TypeError, match="library bug"):
            main(["solve", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "1"])

    def test_flags_override_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "N": 9, "K": 7, "M": 4, "popularity": {"type": "zipf", "theta": 1.5},
        }))
        code, out, _ = run_cli(capsys, "solve", "--config", str(config), "--M", "7")
        assert code == 0
        assert json.loads(out)["case"] == "one_group"


class TestSweep:
    def test_dominance_columns(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--N", "10", "--K", "6", "--zipf", "1.5", "--M-grid", "1:10:1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("M,optimal_rate,one_group_rate,alg1_rate,")
        assert len(lines) == 11
        for line in lines[1:]:
            m, optimal, one_group, alg1, *bounds = map(float, line.split(","))
            assert optimal <= one_group + 1e-9
            assert optimal <= alg1 + 1e-9
            for bound in bounds:
                assert bound <= optimal + 1e-9

    def test_step_popularity(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--N", "21", "--K", "12",
            "--step", "5/9x1,1/30x10,1/90x10", "--M-grid", "2:20:6",
        )
        assert code == 0
        for line in out.strip().splitlines()[1:]:
            m, optimal, one_group, alg1, *_ = map(float, line.split(","))
            assert optimal <= alg1 + 1e-9

    def test_single_point_full_cache(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--N", "4", "--K", "3", "--zipf", "1.0", "--M", "4"
        )
        assert code == 0
        cells = out.strip().splitlines()[1].split(",")
        assert all(float(c) == 0.0 for c in cells[1:4])

    def test_jobs_do_not_change_output(self, capsys):
        args = ["sweep", "--N", "6", "--K", "4", "--zipf", "1.2", "--M-grid", "1:5:1"]
        _, serial, _ = run_cli(capsys, *args)
        _, parallel, _ = run_cli(capsys, *args, "--jobs", "2")
        assert serial == parallel

    def test_grid_validation(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--N", "4", "--K", "3", "--zipf", "1.0", "--M-grid", "5:1:1"
        )
        assert code == 2


class TestSubpkt:
    def test_bound_column_and_endpoint(self, capsys):
        code, out, _ = run_cli(
            capsys, "subpkt", "--N", "20", "--K", "10", "--zipf", "1.4", "--M-grid", "4:20:4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "M,L_max,L_avg,worst_case_bound"
        for line in lines[1:]:
            m, l_max, l_avg, bound = line.split(",")
            assert int(l_max) <= int(bound) == 462
            assert float(l_avg) <= int(l_max)
        assert lines[-1].split(",")[1] == "1"  # M = N: single subfile


class TestVerify:
    def test_single_instance_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "4",
            "--trials", "5000", "--demands", "5",
        )
        assert code == 0
        assert "FAIL" not in out
        assert "lp_gap" in out and "bit_exact_decode" in out

    def test_batch_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--batch", "4", "--seed", "3", "--trials", "2000",
            "--demands", "3",
        )
        assert code == 0
        assert out.strip().endswith("0 failed check(s)")

    def test_single_instance_stdout_is_pinned(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--N", "6", "--K", "3", "--zipf", "2", "--M", "2.5",
            "--trials", "2000", "--demands", "3", "--seed", "5",
        )
        assert code == 0
        assert re.sub(r"\|gap\|=\S+", "|gap|=*", out) == VERIFY_SINGLE_STDOUT

    def test_batch_stdout_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--batch", "3", "--seed", "3")
        assert code == 0
        assert out == VERIFY_BATCH_STDOUT

    def test_demands_from_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "N": 4, "K": 3, "M": 1.5, "demands": 1, "trials": 500,
            "popularity": {"type": "zipf", "theta": 1.0},
        }))
        code, out, _ = run_cli(capsys, "verify", "--config", str(config))
        assert code == 0
        assert "bit_exact_decode 1 demands, F=" in out

    def test_guard_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--N", "30", "--K", "9", "--zipf", "1.0", "--M", "3"
        )
        assert code == 3 and "error:" in err

    def test_tampered_placement_fails(self, capsys, tmp_path):
        from codedcache.popularity import make_zipf
        from codedcache.solver import algorithm4

        candidate = algorithm4(make_zipf(9, 1.5), 7, 4.0)
        data = candidate.placement.to_json_dict()
        data["a"][0][1] += 0.01
        path = tmp_path / "tampered.json"
        path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, "verify", "--placement", str(path), "--M", "4")
        assert code == 4
        assert "FAIL placement_invariants" in out

    @pytest.mark.parametrize("data", [
        {"N": 2}, [1], {"N": "x", "K": 2, "a": [[1, 0, 0]]}, {"N": 1, "K": 2, "a": "zz"},
    ])
    def test_malformed_placement_is_config_error(self, capsys, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run_cli(capsys, "verify", "--placement", str(path), "--M", "1")
        assert code == 2 and "error:" in err

    def test_intact_placement_passes(self, capsys, tmp_path):
        from codedcache.popularity import make_zipf
        from codedcache.solver import algorithm4

        candidate = algorithm4(make_zipf(9, 1.5), 7, 4.0)
        path = tmp_path / "ok.json"
        path.write_text(json.dumps(candidate.placement.to_json_dict()))
        code, out, _ = run_cli(capsys, "verify", "--placement", str(path), "--M", "4")
        assert code == 0
        assert "PASS placement_invariants" in out


def test_module_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "codedcache.cli", "solve", "--N", "2", "--K", "2",
         "--probs", "0.7,0.3", "--M", "1"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["rate"] == pytest.approx(0.5)


class TestIntegerSettings:
    """Non-integral numbers for integer settings exit 2 instead of truncating."""

    @pytest.mark.parametrize("command,name", [
        ("solve", "K"), ("solve", "N"), ("verify", "seed"), ("verify", "trials"),
        ("verify", "demands"), ("verify", "batch"), ("sweep", "jobs"),
    ])
    def test_setting(self, capsys, tmp_path, command, name):
        config = {"N": 4, "K": 3, "M": 1, "popularity": {"type": "zipf", "theta": 1.0},
                  "trials": 200, "demands": 1, name: 2.9}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2 and f"setting {name}=2.9" in err

    def test_placement_dimensions(self, capsys, tmp_path):
        path = tmp_path / "placement.json"
        path.write_text(json.dumps({"N": 2.7, "K": 1, "a": [[0, 1], [0, 1]]}))
        code, _, err = run_cli(capsys, "verify", "--placement", str(path), "--M", "1")
        assert code == 2 and "2.7 is not an integer" in err

    def test_step_count(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "K": 2, "M": 1, "popularity": {"type": "step", "levels": [{"p": "1/2", "count": 2.5}]},
        }))
        code, _, err = run_cli(capsys, "solve", "--config", str(path))
        assert code == 2 and "level count 2.5" in err

    def test_integral_values_still_read(self, capsys, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({
            "N": 3.0, "K": 7.0, "M": 1,
            "popularity": {"type": "step", "levels": [{"p": "1/3", "count": 3.0}]},
        }))
        code, out, _ = run_cli(capsys, "solve", "--config", str(path))
        assert code == 0
        expected = run_cli(capsys, "solve", "--N", "3", "--K", "7", "--M", "1",
                           "--step", "1/3x3")[1]
        assert out == expected
