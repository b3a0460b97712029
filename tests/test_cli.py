import argparse
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest

from codedcache import cli, solver
from codedcache.cli import _sweep_row, build_parser, main
from codedcache.placement import rate_coefficients
from codedcache.popularity import make_step, make_zipf, order_stats

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
PASS [0] N=6 K=3 M=2.5 dual_feasibility slack=0.000e+00
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

    def test_large_k_case2ii_optimum(self, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--N", "65", "--K", "40", "--zipf", "1.6", "--M", "31"
        )
        assert code == 0
        assert err == "case=three_group_case2 groups=3 rate=1.005134291 (n_o=54, n_1=55, l_o=22, l_1=23)\n"

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
        {"N": 9, "K": 7, "M": True, "popularity": {"type": "zipf", "theta": 1.5}},
        {"N": 9, "K": 7, "M": [1], "popularity": {"type": "zipf", "theta": 1.5}},
        {"N": 9, "K": 7, "M": 1, "format": "xml", "popularity": {"type": "zipf", "theta": 1.5}},
        {"N": 9, "K": 7, "M": 1, "out": 5, "popularity": {"type": "zipf", "theta": 1.5}},
        {"N": 9, "K": 7, "M": "1/0", "popularity": {"type": "zipf", "theta": 1.5}},
        {"N": 9, "K": 7, "M": 10**400, "popularity": {"type": "zipf", "theta": 1.5}},
        ["--N", "9", "--K", "7", "--zipf", "1.5", "--M", "1/0"],
        ["--N", "9", "--K", "7", "--zipf", "1.5", "--M", "1e400"],
        ["--N", "9", "--K", "7", "--zipf", "1/0", "--M", "1"],
        ["--K", "2", "--M", "1", "--probs", "1e400,1"],
        ["--K", "2", "--M", "1", "--step", "1/0x2"],
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

    @pytest.mark.parametrize("name, value, flag", [
        ("M", "5/2", "5/2"), ("M", 2.5, "2.5"), ("M", "5/2", "2.5"), ("format", "csv", "csv"),
    ])
    def test_config_value_reads_as_its_flag(self, capsys, tmp_path, name, value, flag):
        """A config value and the flag of the same name take one converter."""
        instance = ["--N", "9", "--K", "7", "--zipf", "1.5", *([] if name == "M" else ["--M", "4"])]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: value}))
        from_config = run_cli(capsys, "solve", *instance, "--config", str(config))
        assert from_config == run_cli(capsys, "solve", *instance, f"--{name}", flag)
        assert from_config[0] == 0

    def test_parser_collects_strings_only(self):
        """No flag converts or restricts its value: ``_setting`` does, for flags and config."""
        subparsers = [action for action in build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction)]
        actions = [action for sub in subparsers for parser in sub.choices.values()
                   for action in parser._actions]
        assert len(actions) > 30
        assert all(action.type is None and action.choices is None for action in actions)

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

    @pytest.mark.parametrize("model, k, m", [
        (make_zipf(9, 1.5), 7, 2.5), (make_zipf(9, 1.5), 7, 7.0),
        (make_step([("5/9", 1), ("1/30", 10), ("1/90", 10)]), 12, 3.5),
    ])
    def test_grid_point_is_one_search(self, monkeypatch, model, k, m):
        # alg1_rate comes from algorithm4's search; algorithm1 would search again
        searches = []
        search = solver._search
        monkeypatch.setattr(
            solver, "_search", lambda *args, **kw: (searches.append(kw), search(*args, **kw))[1]
        )
        row = _sweep_row(model, k, rate_coefficients(model, order_stats(model, k)), m)
        assert len(searches) == 1 and searches[0]["tight"] is not None
        assert row.split(",")[3] == f"{solver.algorithm1(model, k, m).rate:.10g}"

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

    @pytest.mark.parametrize("grid", [
        "0:1/0:1", "0:1e400:1", "0:1", "0:1:1:1", "0:x:1", ["0:1:1"],
        "0:1:1e-320", "0:1e308:1e-10", "0:1:1e-9",  # two infinite point counts, one huge
    ])
    def test_malformed_grid_is_config_error(self, capsys, tmp_path, grid):
        instance = ["--N", "4", "--K", "3", "--zipf", "1.0"]
        if isinstance(grid, str):
            code, _, err = run_cli(capsys, "sweep", *instance, "--M-grid", grid)
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({"M_grid": grid}))
            code, _, err = run_cli(capsys, "sweep", *instance, "--config", str(path))
        assert code == 2 and err.startswith("error: setting M_grid=")

    def test_grid_points_cap(self):
        assert len(cli._parse_grid(f"0:{cli.GRID_POINTS_CAP - 1}:1")) == cli.GRID_POINTS_CAP
        with pytest.raises(ValueError, match="more than"):
            cli._parse_grid(f"0:{cli.GRID_POINTS_CAP}:1")

    def test_fraction_grid_from_config(self, capsys, tmp_path):
        instance = ["--N", "6", "--K", "4", "--zipf", "1.2"]
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"M_grid": "0:6:3/2"}))
        from_config = run_cli(capsys, "sweep", *instance, "--config", str(path))
        assert from_config == run_cli(capsys, "sweep", *instance, "--M-grid", "0:6:1.5")
        assert from_config[0] == 0 and len(from_config[1].splitlines()) == 6


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

    @pytest.mark.parametrize("n, k, zipf, m, l_max", [
        ("5", "34", "0", "2.5", math.comb(34, 17)),  # one subset size, 17
        ("5", "62", "1", "1", math.comb(62, 12) + math.comb(62, 13)),  # two adjacent sizes
        ("2", "33", "0", "1", math.comb(33, 16) + math.comb(33, 17)),  # halves of 1 / C(33, 16)
        ("10", "20", "0", "5.00001", math.comb(20, 10) + math.comb(20, 11)),  # 2e-5 at l = 11
    ])
    def test_counts_subfiles_smaller_than_zero_tol(self, capsys, n, k, zipf, m, l_max):
        # a subfile can be smaller than ZERO_TOL = 1e-9; the share of the file it holds is not
        code, out, _ = run_cli(capsys, "subpkt", "--N", n, "--K", k, "--zipf", zipf, "--M", m)
        assert code == 0
        assert out.splitlines()[1].split(",")[1] == str(l_max)


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
        """The former 200-variable guard size (N=30, K=9) certifies and exits 0."""
        code, out, err = run_cli(
            capsys, "verify", "--N", "30", "--K", "9", "--zipf", "1.0", "--M", "3"
        )
        assert code == 0 and err == ""
        assert out.endswith("verify: 1 instance(s), 0 failed check(s)\n")

    def test_library_beyond_the_cap_exits_2(self, capsys):
        # the float recovery of this M's entries asks for about 1e17-bit
        # files (3178982110559853636 bits from the per-family closed forms),
        # which numpy cannot allocate; the exact size is 30,000,000 bits
        code, out, err = run_cli(
            capsys, "verify", "--N", "40", "--K", "12", "--zipf", "0.8", "--M", "3.1234567"
        )
        assert code == 2 and out == ""
        assert err == "error: 40 files x 115447117691650404 bits exceed 1073741824\n"

    @pytest.mark.parametrize("flag", ["--trials", "--demands"])
    def test_demand_draws_beyond_the_cap_exit_2(self, capsys, flag):
        # 10^10 x 3 draws would need hundreds of GiB
        code, out, err = run_cli(
            capsys, "verify", "--N", "4", "--K", "3", "--zipf", "1", "--M", "1", flag, "10000000000"
        )
        assert code == 2 and out == ""
        assert err == "error: 10000000000 demands x 3 users exceed 16777216 draws\n"

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

    def test_placement_from_config(self, capsys, tmp_path):
        """``placement`` is a config key like the flag, not ignored."""
        from codedcache.popularity import make_zipf
        from codedcache.solver import algorithm4

        data = algorithm4(make_zipf(9, 1.5), 7, 4.0).placement.to_json_dict()
        data["a"][0][1] += 0.01
        (tmp_path / "tampered.json").write_text(json.dumps(data))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"placement": str(tmp_path / "tampered.json"), "M": 4}))
        from_config = run_cli(capsys, "verify", "--config", str(config))
        assert from_config[0] == 4
        assert from_config == run_cli(capsys, "verify", "--placement",
                                      str(tmp_path / "tampered.json"), "--M", "4")

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


@pytest.mark.parametrize("command", ["solve", "sweep", "subpkt", "verify"])
@pytest.mark.parametrize("k", [63, 1029, 1030, 2000])
def test_users_beyond_exact_binomials_exit_2(capsys, command, k):
    """K > 62 exits 2 with one error line naming K: the subfile counts are int64."""
    code, _, err = run_cli(capsys, command, "--N", "5", "--K", str(k), "--zipf", "1", "--M", "1")
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1 and f"C({k}, r)" in err


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

    @pytest.mark.parametrize("command,name", [("solve", "K"), ("solve", "N"), ("verify", "seed")])
    def test_boolean_setting(self, capsys, tmp_path, command, name):
        """JSON true is not the integer 1."""
        config = {"N": 4, "K": 3, "M": 1, "popularity": {"type": "zipf", "theta": 1.0},
                  "trials": 200, "demands": 1, name: True}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        code, _, err = run_cli(capsys, command, "--config", str(path))
        assert code == 2 and f"error: setting {name}=True is invalid" in err

    @pytest.mark.parametrize("command, name, value, expected", [
        ("verify", "seed", -1, "setting seed=-1 is invalid: must be >= 0"),
        ("verify", "seed", 2**128, "seed must be in [0, 2^128)"),
        ("verify", "demands", -1, "demand count must be >= 0"),
        ("verify", "batch", 0, "setting batch=0 is invalid: must be >= 1"),
        ("verify", "batch", -1, "setting batch=-1 is invalid: must be >= 1"),
        ("sweep", "jobs", 0, "setting jobs=0 is invalid: must be >= 1"),
        ("sweep", "jobs", -3, "setting jobs=-3 is invalid: must be >= 1"),
    ])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_out_of_range(self, capsys, tmp_path, command, name, value, expected, source):
        """A value that would reach numpy out of its range exits 2, from a flag or from config."""
        others = {"trials": "200", "demands": "1"} if command == "verify" else {}
        others.pop(name, None)
        argv = [command, "--N", "4", "--K", "3", "--zipf", "1", "--M", "1",
                *(arg for item in others.items() for arg in (f"--{item[0]}", item[1]))]
        if source == "flag":
            argv += [f"--{name}", str(value)]
            expected = expected.replace(f"={value}", f"='{value}'")
        else:
            path = tmp_path / "config.json"
            path.write_text(json.dumps({name: value}))
            argv += ["--config", str(path)]
        code, _, err = run_cli(capsys, *argv)
        assert code == 2 and err.startswith(f"error: {expected}") and err.count("\n") == 1

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


def test_parser_is_built_once_and_keeps_no_state(capsys, tmp_path):
    runs = [
        ["verify", "--batch", "2"],
        ["solve", "--N", "9", "--K", "7", "--zipf", "1.5", "--M", "2.5", "--out", str(tmp_path / "s")],
        ["sweep", "--N", "10", "--K", "6", "--zipf", "1.5", "--M-grid", "1:10:1",
         "--out", str(tmp_path / "rates.csv")],
    ]

    def outputs(fresh_parser):
        """Exit code, stdout, stderr and the files written so far, after each run."""
        for path in tmp_path.iterdir():
            path.unlink()
        result = []
        for argv in runs:
            if fresh_parser:
                build_parser.cache_clear()
            code, out, err = run_cli(capsys, *argv)
            result.append((code, out, err, {p.name: p.read_bytes() for p in tmp_path.iterdir()}))
        return result

    assert build_parser() is build_parser()
    reused = outputs(fresh_parser=False)
    assert reused == outputs(fresh_parser=True)
    assert [code for code, *_ in reused] == [0, 0, 0]
