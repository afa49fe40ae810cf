"""Command-line interface: verbs, exit codes, report round-trips."""

import json
import subprocess
import sys
from fractions import Fraction as F
from itertools import product

import pytest

import gaugesim as gs
from gaugesim.cli import _max_conditioned_chsh, main
from gaugesim.model import new_system, save_system


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip().startswith("{") else out)


def coin_times_super_ghz(p1):
    """Region 0 shows 1 with probability p1 at setting 0 and 1/2 at setting 1;
    regions 1-3 are an independent super-GHZ system."""
    half = F(1, 2) if isinstance(p1, F) else 0.5
    coin = {0: (1 - p1, p1), 1: (half, half)}
    inner = gs.super_ghz()
    table = {
        (x, u): coin[u[0]][x[0]] * type(p1)(inner.prob(x[1:], u[1:]))
        for u in product(range(2), repeat=4)
        for x in product((0, 1), repeat=4)
    }
    return new_system(4, 2, inner.labels, table)


class TestExitCodes:
    def test_classify_super_ghz(self, capsys):
        code, report = run_cli(capsys, "classify", "--catalog", "super-ghz")
        assert code == 0
        assert report["verdict"] == "super-quantum-detected"

    def test_one_step_gauges_infeasible(self, capsys):
        code, report = run_cli(capsys, "gauges", "--catalog", "super-ghz", "--steps", "1")
        assert code == 3
        assert report["error"] == "infeasible"
        assert sorted(report["gammas"]) == [0, 1, 2, 3, 4, 5]

    def test_validate_malformed_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({
            "n": 1, "k": 1, "labels": ["z"], "scalar": "rational",
            "table": [
                {"x": [0], "u": [0], "p": "2/3"},
                {"x": [1], "u": [0], "p": "2/3"},
            ],
        }))
        code, report = run_cli(capsys, "validate", "--system", str(bad))
        assert code == 2
        assert report["error"] == "NormalizationViolation"

    def test_usage_error(self, capsys):
        assert main(["gauges"]) == 64

    def test_unknown_catalog_name(self, capsys):
        code, report = run_cli(capsys, "classify", "--catalog", "nope")
        assert code == 2

    @pytest.mark.parametrize("support", ["double-plateau", "states.json"])
    def test_support_under_auto_steps_is_a_usage_error(self, capsys, support):
        # --steps auto searches the full index space, so a support is refused
        # before the system is loaded or the support file is read
        code, report = run_cli(
            capsys, "gauges", "--catalog", "epr-b", "--support", support,
        )
        assert code == 64
        assert report["schema"] == "gaugesim/1"
        assert report["error"] == "usage"
        assert "--support" in report["detail"]

    def test_full_support_under_auto_steps_accepted(self, capsys):
        code, report = run_cli(
            capsys, "gauges", "--catalog", "pr-box", "--support", "full", "--steps", "auto",
        )
        assert code == 0
        assert report["steps"] == 1


class TestReports:
    def test_validate_catalog_ok(self, capsys):
        code, report = run_cli(capsys, "validate", "--catalog", "singlet")
        assert code == 0
        assert report["schema"] == "gaugesim/1"
        assert report["locally_consistent"] is True

    def test_gauges_auto_reports_min_steps(self, capsys):
        code, report = run_cli(capsys, "gauges", "--catalog", "super-ghz")
        assert code == 0
        assert report["steps"] == 2

    def test_gauges_plateau_support(self, capsys):
        code, report = run_cli(
            capsys, "gauges", "--catalog", "epr-b", "--steps", "1",
            "--support", "double-plateau",
        )
        assert code == 0
        assert len(report["gauges"]) == 6
        assert all(len(g["support"]) <= 6 for g in report["gauges"])

    def test_collapse_deterministic_given_seed(self, capsys):
        args = ("collapse", "--catalog", "pr-box", "--settings", "0,1",
                "--runs", "2000", "--seed", "7")
        code1, report1 = run_cli(capsys, *args)
        code2, report2 = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert report1 == report2
        assert report1["tv_distance"] < 0.05

    def test_collapse_with_plan(self, capsys):
        code, report = run_cli(
            capsys, "collapse", "--catalog", "super-ghz", "--settings", "0,0,1",
            "--runs", "500", "--seed", "1", "--plan", "2,final",
        )
        assert code == 0
        assert report["counts"][0]["runs"] == 500

    def test_collapse_counts_do_not_depend_on_threads(self, capsys, monkeypatch):
        args = ("collapse", "--catalog", "super-ghz", "--settings", "1,0,1",
                "--runs", "140000", "--seed", "5", "--plan", "2,final")
        reports = []
        for threads in ("1", "4"):
            monkeypatch.setenv("GAUGESIM_THREADS", threads)
            code, report = run_cli(capsys, *args)
            assert code == 0
            reports.append(report)
        assert reports[0]["counts"] == reports[1]["counts"]

    @pytest.mark.parametrize("value", ["four", "0", "-2", ""])
    def test_bad_thread_count_is_a_usage_error(self, capsys, monkeypatch, value):
        monkeypatch.setenv("GAUGESIM_THREADS", value)
        code, report = run_cli(
            capsys, "collapse", "--catalog", "pr-box", "--settings", "0,1", "--runs", "10",
        )
        assert code == 64
        assert report["schema"] == "gaugesim/1"
        assert report["error"] == "usage"
        assert "GAUGESIM_THREADS" in report["detail"]

    def test_plan_trace_sample_reuses_the_leaf_gauges(self, capsys, monkeypatch):
        from gaugesim import collapse

        solved = []
        real = collapse.solve_all_gauges
        monkeypatch.setattr(collapse, "solve_all_gauges",
                            lambda system, *a: solved.append(system) or real(system, *a))
        code, report = run_cli(
            capsys, "collapse", "--catalog", "super-ghz", "--settings", "0,0,1",
            "--runs", "100", "--plan", "2,final",
        )
        assert code == 0
        leaves = len(solved)
        solved.clear()
        collapse.CompiledPlan(gs.super_ghz(), collapse.CollapsePlan.parse("2,final"),
                              (0, 0, 1), cache=collapse.GaugeCache())
        assert leaves == len(solved) > 0

    def test_metrics_report_fields(self, capsys):
        code, report = run_cli(capsys, "metrics", "--catalog", "pr-box")
        assert code == 0
        for field in ("s1", "s_n", "total_entanglement", "atoms",
                      "s2_matrix", "chsh_max", "scheme", "classification"):
            assert field in report
        assert report["chsh_max"]["value"] == pytest.approx(4.0)

    def test_catalog_emit_round_trip(self, tmp_path, capsys):
        path = tmp_path / "w.json"
        code, _ = run_cli(capsys, "catalog", "emit", "w-xy", "--out", str(path))
        assert code == 0
        code, report = run_cli(capsys, "validate", "--system", str(path))
        assert code == 0 and report["locally_consistent"]
        code, emitted = run_cli(capsys, "metrics", "--system", str(path))
        assert code == 0
        code, direct = run_cli(capsys, "metrics", "--catalog", "w-xy")
        assert emitted == direct

    def test_catalog_parameter_override(self, capsys):
        code, report = run_cli(
            capsys, "catalog", "emit", "quasi-super-ghz", "--param", "eps=1/8",
        )
        assert code == 0
        values = {entry["p"] for entry in report["table"]}
        assert values == {"1/8"}


class TestTinyBranches:
    def test_float_branch_below_tolerance_is_skipped(self, tmp_path, capsys):
        # Pr(x_0 = 1 | setting 0) = 1e-12 counts as zero, so no step conditions on it
        path = tmp_path / "coin.json"
        save_system(coin_times_super_ghz(1e-12), path)
        code, report = run_cli(capsys, "gauges", "--system", str(path), "--steps", "auto")
        assert code == 0
        assert (report["steps"], report["leaders"]) == (3, [0, 1])
        assert not [key for key in report["branches"] if key.startswith("r0k0x1")]
        code, report = run_cli(capsys, "classify", "--system", str(path))
        assert code == 0 and report["verdict"] == "super-quantum-detected"

    def test_rational_coin_gives_the_same_plan(self, tmp_path, capsys):
        path = tmp_path / "coin.json"
        save_system(coin_times_super_ghz(F(1, 3)), path)
        code, report = run_cli(capsys, "gauges", "--system", str(path), "--steps", "auto")
        assert code == 0
        assert (report["steps"], report["leaders"]) == (3, [0, 1])

    def test_conditioned_chsh_reaches_two_region_subsystems(self):
        assert _max_conditioned_chsh(coin_times_super_ghz(F(1, 3))) == 4.0


class TestSweep:
    def test_rows_and_bisect(self, capsys):
        code, report = run_cli(
            capsys, "sweep", "--catalog", "quasi-super-ghz",
            "--parameter", "eps", "--values", "0.125",
        )
        assert code == 0
        row = report["rows"][0]
        assert row["min_steps"] == 1
        assert row["total_entanglement"] == pytest.approx(0.0, abs=1e-9)

    def test_csv_format(self, capsys):
        code = main([
            "sweep", "--catalog", "quasi-super-ghz", "--parameter", "eps",
            "--values", "0.125", "--format", "csv",
        ])
        out = capsys.readouterr().out
        assert code == 0
        header = out.splitlines()[0]
        assert "min_steps" in header and "total_entanglement" in header


def test_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gaugesim.cli", "catalog", "list"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "super-ghz" in result.stdout
