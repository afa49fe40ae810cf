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

    @pytest.mark.parametrize("content", [
        "not JSON {",
        "[]",
        {"n": 1, "k": 1, "labels": ["z"], "scalar": "rational"},
        {"n": 1, "k": 1, "labels": ["z"], "scalar": "rational",
         "table": [{"x": [0], "u": [0], "p": "1"}, {"x": [1], "u": [0]}]},
        {"n": "1", "k": 1, "labels": ["z"], "scalar": "rational",
         "table": [{"x": [0], "u": [0], "p": "1"}, {"x": [1], "u": [0], "p": "0"}]},
        {"n": 1, "k": 1, "labels": ["z"], "scalar": "rational",
         "table": [{"x": [0], "u": [0], "p": 0.5}, {"x": [1], "u": [0], "p": "1/2"}]},
        {"n": 1, "k": 1, "labels": ["z"], "scalar": "rational",
         "table": [{"x": [0], "u": [0], "p": "abc"}, {"x": [1], "u": [0], "p": "0"}]},
        {"n": 1, "k": 1, "labels": ["z"], "scalar": "rational",
         "table": [{"x": [0], "u": [0], "p": "1/0"}, {"x": [1], "u": [0], "p": "0"}]},
        # JSON true and false used to be read as probabilities 1 and 0
        {"n": 1, "k": 1, "labels": ["z"], "scalar": "rational",
         "table": [{"x": [0], "u": [0], "p": True}, {"x": [1], "u": [0], "p": False}]},
        {"n": 1, "k": 1, "labels": ["z"], "scalar": "float",
         "table": [{"x": [0], "u": [0], "p": True}, {"x": [1], "u": [0], "p": False}]},
    ], ids=["not-json", "list", "no-table", "no-p", "string-n", "float-in-rational",
            "bad-string", "zero-denominator", "bool-rational", "bool-float"])
    def test_malformed_system_file_is_a_validation_error(self, tmp_path, capsys, content):
        path = tmp_path / "system.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        code, report = run_cli(capsys, "validate", "--system", str(path))
        assert code == 2
        assert report["schema"] == "gaugesim/1"
        assert report["error"] == "ValidationError"

    @pytest.mark.parametrize("entries,extra,error,detail", [
        (["1/2", "1/2", "1/0", "2/3"], {}, "ValidationError",
         "bad table entry {'x': [0], 'u': [1], 'p': '1/0'}: Fraction(1, 0)"),
        (["1/2", "1/2", -1, 2], {}, "NegativeProbability", "P(0,)|(1,) = -1"),
        (["1/2", "1/2", "-1/2", "3/2"], {}, "NegativeProbability", "P(0,)|(1,) = -1/2"),
        (["1/2", "1/2", True, "2/3"], {}, "ValidationError",
         "bad table entry {'x': [0], 'u': [1], 'p': True}: table entry must be a number, got True"),
        (["1/2", "1/2", 0.25, "2/3"], {}, "ValidationError",
         "bad table entry {'x': [0], 'u': [1], 'p': 0.25}: "
         "rational table entry must be a string or integer, got 0.25"),
        (["1.5", "1/2", "1/3", "2/3"], {}, "NormalizationViolation",
         "targets for settings (0,) sum to 2, expected 1"),
        (["1/2", "1/2", "1/3", "2/3"], {"duplicate": 1}, "ValidationError",
         "duplicate table entry for ((1,), (0,))"),
        (["1/2", "1/2", "1/3", "2/3"], {"drop": 2}, "MissingTarget",
         "no entry for outcomes (0,) at settings (1,)"),
        (["1/2", "1/2", "1/3", "2/3"], {"outside": "0"}, "ValidationError",
         "table has entries outside the target set"),
        ([" 1/2", "1/2", "1/3", "2/3"], {}, None, None),
        (["2/4", "2/4", "0/7", "3/3"], {}, None, None),
    ], ids=["zero-denominator", "negative-integer", "negative-string", "bool", "float",
            "decimal", "duplicate", "missing", "extra", "leading-space", "unreduced"])
    def test_rational_file_errors_are_pinned(self, tmp_path, capsys, entries, extra, error,
                                             detail):
        """Exit code and message of each malformed rational file, as the Fraction parser gave."""
        keys = [([0], [0]), ([1], [0]), ([0], [1]), ([1], [1])]
        rows = [{"x": x, "u": u, "p": p} for (x, u), p in zip(keys, entries)]
        if "duplicate" in extra:
            rows.append(dict(rows[extra["duplicate"]]))
        if "drop" in extra:
            del rows[extra["drop"]]
        if "outside" in extra:
            rows.append({"x": [2], "u": [0], "p": extra["outside"]})
        path = tmp_path / "system.json"
        path.write_text(json.dumps({"n": 1, "k": 2, "labels": ["a", "b"], "scalar": "rational",
                                    "table": rows}))
        code = main(["validate", "--system", str(path)])
        captured = capsys.readouterr()
        assert captured.err == ""
        report = json.loads(captured.out)
        if error is None:
            assert code == 0 and report["locally_consistent"] is True
            return
        assert code == 2
        assert report == {"schema": "gaugesim/1", "error": error, "detail": detail}

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


    @pytest.mark.parametrize("states", [
        list(range(64)) + [5],  # a duplicate
        [71, 28, 42, 49],  # past the 6-bit index space
        [-57, 28, 42, 49],  # negative
    ], ids=["duplicate", "too-wide", "negative"])
    def test_bad_working_set_is_a_validation_error(self, tmp_path, capsys, states):
        path = tmp_path / "states.json"
        path.write_text(json.dumps(states))
        code, report = run_cli(
            capsys, "gauges", "--catalog", "singlet", "--steps", "1", "--support", str(path),
        )
        assert code == 2
        assert report["error"] == "ValidationError"
        assert "working set" in report["detail"]


    @pytest.mark.parametrize("content", [
        "[7.9, 28, 42, 49]",  # used to run as [7, 28, 42, 49]
        '"7"',  # used to run as [7] and exit 3
        "[true, 28]",
        "{}",
    ], ids=["float", "string", "bool", "object"])
    def test_support_file_must_list_integers(self, tmp_path, capsys, content):
        path = tmp_path / "states.json"
        path.write_text(content)
        code, report = run_cli(
            capsys, "gauges", "--catalog", "singlet", "--steps", "1", "--support", str(path),
        )
        assert code == 2
        assert report["error"] == "ValidationError"
        assert "JSON list of integers" in report["detail"]

    def test_support_file_that_is_not_utf8_is_a_validation_error(self, tmp_path, capsys):
        path = tmp_path / "states.json"
        path.write_bytes(b"\xff\xfe[1]")
        code, report = run_cli(
            capsys, "gauges", "--catalog", "singlet", "--steps", "1", "--support", str(path),
        )
        assert code == 2
        assert report["error"] == "ValidationError"
        assert "--support file" in report["detail"] and "not JSON" in report["detail"]

    @pytest.mark.parametrize("plan", ["foo", ",final", "1,,final", "final,final"])
    def test_malformed_plan_is_a_validation_error(self, capsys, plan):
        code, report = run_cli(
            capsys, "collapse", "--catalog", "pr-box", "--settings", "0,1", "--plan", plan,
        )
        assert code == 2
        assert report["error"] == "ValidationError"

    @pytest.mark.parametrize("region", ["7", "-1", "3"])
    def test_leading_region_outside_the_system_is_out_of_range(self, capsys, region):
        code, report = run_cli(
            capsys, "collapse", "--catalog", "super-ghz", "--settings", "0,0,1",
            f"--plan={region},final",
        )
        assert code == 2
        assert report["error"] == "ValidationError"
        assert report["detail"] == f"leading region {region} out of range for n=3"

    def test_negative_seed_is_rejected_before_any_solve(self, capsys, monkeypatch):
        from gaugesim import solver

        monkeypatch.setattr(solver, "solve_all_gauges", lambda *a, **k: pytest.fail("solved"))
        code, report = run_cli(
            capsys, "collapse", "--catalog", "pr-box", "--settings", "0,1", "--seed", "-5",
        )
        assert code == 2
        assert report["error"] == "ValidationError"
        assert "--seed" in report["detail"]

    @pytest.mark.parametrize("argv, parameter, value", [
        (["gauges", "--catalog", "quasi-super-ghz", "--param", "eps=x"], "eps", "x"),
        (["catalog", "emit", "quasi-super-ghz", "--param", "eps=1/0"], "eps", "1/0"),
        (["gauges", "--catalog", "epr-b", "--param", "angles=0,zz"], "angles", "0,zz"),
        (["gauges", "--catalog", "epr-b-regular", "--param", "k=two"], "k", "two"),
        (["sweep", "--catalog", "quasi-super-ghz", "--values", "0,x"], "eps", "x"),
        (["sweep", "--catalog", "quasi-super-ghz", "--values", "0,1/0"], "eps", "1/0"),
    ], ids=["gauges-eps", "emit-zero-denominator", "epr-b-angles", "epr-b-regular-k",
            "sweep-value", "sweep-zero-denominator"])
    def test_unreadable_catalog_parameter_is_a_validation_error(self, capsys, argv,
                                                                 parameter, value):
        code, report = run_cli(capsys, *argv)
        assert code == 2
        assert report["error"] == "ValidationError"
        assert f"parameter {parameter} " in report["detail"]
        assert repr(value) in report["detail"]

    def test_non_ascii_digit_is_an_unknown_setting(self, capsys):
        # '²'.isdigit() is true, but int('²') raises
        code, report = run_cli(
            capsys, "collapse", "--catalog", "pr-box", "--settings", "²,0", "--runs", "10",
        )
        assert code == 2
        assert report["error"] == "ValidationError"
        assert report["detail"] == "unknown setting '²'"

    @pytest.mark.parametrize("argv, error", [
        (["validate", "--system", "{dir}"], "IsADirectoryError"),
        (["validate", "--system", "{dir}/missing.json"], "file-not-found"),
        (["gauges", "--catalog", "singlet", "--steps", "1", "--support", "{dir}"],
         "IsADirectoryError"),
        (["catalog", "list", "--out", "{dir}"], "IsADirectoryError"),
        (["catalog", "list", "--out", "{dir}/missing/x.json"], "file-not-found"),
        (["gauges", "--catalog", "super-ghz", "--steps", "1", "--out", "{dir}"],
         "IsADirectoryError"),
    ], ids=["system-dir", "system-missing", "support-dir", "out-dir", "out-missing",
            "error-report-out-dir"])
    def test_file_errors_exit_2_with_a_report_on_stdout(self, tmp_path, capsys, argv, error):
        code, report = run_cli(capsys, *(a.format(dir=tmp_path) for a in argv))
        assert code == 2
        assert report["schema"] == "gaugesim/1"
        assert report["error"] == error

    def test_a_file_error_report_goes_to_a_writable_out(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code, printed = run_cli(capsys, "validate", "--system", str(tmp_path / "missing.json"),
                                "--out", str(out))
        assert code == 2 and printed == ""
        assert json.loads(out.read_text())["error"] == "file-not-found"


class TestParserReuse:
    """One parser serves every call in a process and carries nothing over."""

    # (argv, GAUGESIM_THREADS or None); "{out}" stands for a report path
    SEQUENCE = [
        (["catalog", "emit", "bell2", "--param", "q1=1/4", "--param", "q3=1/2"], None),
        (["catalog", "emit", "bell2", "--param", "q2=1/4"], None),
        (["catalog", "emit", "bell2"], None),
        (["collapse", "--catalog", "pr-box", "--settings", "0,1",
          "--runs", "300", "--seed", "3"], None),
        (["collapse", "--catalog", "pr-box", "--settings", "0,1"], None),
        (["sweep", "--catalog", "quasi-super-ghz", "--values", "0.125", "--format", "csv"],
         None),
        (["sweep", "--catalog", "quasi-super-ghz", "--values", "0.125"], None),
        (["catalog", "emit", "pr-box", "--out", "{out}"], None),
        (["catalog", "show", "pr-box"], None),
        (["gauges"], None),
        (["gauges", "--catalog", "pr-box", "--steps", "1", "--bogus"], None),
        (["collapse", "--catalog", "pr-box", "--settings", "0,1", "--runs", "10"], "zero"),
        (["collapse", "--catalog", "pr-box", "--settings", "0,1", "--runs", "10"], None),
        (["gauges", "--catalog", "quasi-super-ghz", "--param", "eps=1/16", "--steps", "1"],
         None),
        (["gauges", "--catalog", "quasi-super-ghz", "--steps", "1"], None),
    ]

    def run_sequence(self, capsys, monkeypatch, tmp_path, fresh):
        from gaugesim import cli

        out = tmp_path / "report.json"
        cli._parser.cache_clear()
        results = []
        for argv, threads in self.SEQUENCE:
            if threads is None:
                monkeypatch.delenv("GAUGESIM_THREADS", raising=False)
            else:
                monkeypatch.setenv("GAUGESIM_THREADS", threads)
            if fresh:
                cli._parser.cache_clear()
            code = main([str(out) if a == "{out}" else a for a in argv])
            captured = capsys.readouterr()
            written = out.read_text() if out.exists() else None
            out.unlink(missing_ok=True)
            results.append((code, captured.out, captured.err, written))
        return results, cli._parser.cache_info()

    def test_reused_parser_matches_fresh_ones(self, capsys, monkeypatch, tmp_path):
        from gaugesim import cli

        reused, info = self.run_sequence(capsys, monkeypatch, tmp_path, fresh=False)
        assert (info.misses, info.hits) == (1, len(self.SEQUENCE) - 1)
        fresh, _info = self.run_sequence(capsys, monkeypatch, tmp_path, fresh=True)
        assert [r[0] for r in reused] == [0, 0, 0, 0, 0, 0, 0, 0, 0, 64, 64, 64, 0, 0, 0]
        for got, want in zip(reused, fresh):
            assert got == want
        # the catalog emits saw only their own --param flags
        tables = [json.loads(r[1])["table"] for r in reused[:3]]
        assert tables[0] != tables[1] != tables[2] != tables[0]
        assert reused[7][1] == "" and json.loads(reused[7][3])["n"] == 2
        assert cli._parser().parse_args(["catalog", "emit", "bell2"]).param == []


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
        for threads in ("1", "4", None):
            if threads is None:
                monkeypatch.delenv("GAUGESIM_THREADS", raising=False)
            else:
                monkeypatch.setenv("GAUGESIM_THREADS", threads)
            code, report = run_cli(capsys, *args)
            assert code == 0
            reports.append(report)
        assert reports[0]["counts"] == reports[1]["counts"] == reports[2]["counts"]

    @pytest.mark.parametrize("value, threads", [(None, 3), ("1", None), ("2", 2)])
    def test_thread_count_defaults_to_usable_cpus(self, capsys, monkeypatch, value, threads):
        # the caller draws beside threads - 1 pool workers; None: no pool
        from gaugesim import collapse

        monkeypatch.setattr(collapse.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        if value is None:
            monkeypatch.delenv("GAUGESIM_THREADS", raising=False)
        else:
            monkeypatch.setenv("GAUGESIM_THREADS", value)
        pools = []
        real = collapse._pool
        monkeypatch.setattr(collapse, "_pool", lambda n, pid: pools.append(n) or real(n, pid))
        code, report = run_cli(capsys, "collapse", "--catalog", "pr-box", "--settings", "0,1",
                               "--runs", str(2 * collapse.BLOCK_RUNS))
        assert code == 0 and report["counts"][0]["runs"] == 2 * collapse.BLOCK_RUNS
        assert pools == ([] if threads is None else [threads - 1])

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

    @pytest.mark.parametrize("argv", [
        ["--catalog", "pr-box", "--settings", "0,1"],
        ["--catalog", "pr-box", "--settings", "0,1", "--plan", "final"],
        ["--catalog", "super-ghz", "--settings", "0,0,1", "--plan", "2,final"],
    ], ids=["one-step", "final", "leaders"])
    def test_collapse_compiles_its_plan_once(self, capsys, monkeypatch, argv):
        # the counts and the trace sample come from the same compiled plan
        from gaugesim import collapse

        compiled = []
        real = collapse.CompiledPlan.__init__
        monkeypatch.setattr(collapse.CompiledPlan, "__init__",
                            lambda self, *a, **k: compiled.append(a) or real(self, *a, **k))
        code, report = run_cli(capsys, "collapse", *argv, "--runs", "100")
        assert code == 0 and report["trace_sample"]
        assert len(compiled) == 1

    @pytest.mark.parametrize("argv", [
        ["--catalog", "pr-box", "--settings", "0,1"],
        ["--catalog", "super-ghz", "--settings", "0,0,1", "--plan", "2,final"],
        ["--catalog", "super-ghz", "--settings", "0,0,1", "--plan", "7,final"],
    ], ids=["one-step", "leaders", "bad-leader"])
    def test_zero_runs_is_rejected_before_the_plan_compiles(self, capsys, argv):
        code, report = run_cli(capsys, "collapse", *argv, "--runs", "0")
        assert code == 2
        assert report["detail"] == "runs must be at least 1"

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

    def test_crossing_is_bisected_between_the_rows(self, capsys):
        # past the separable midpoint 1/8 the family mirrors eps -> 1/4 - eps
        code, report = run_cli(
            capsys, "sweep", "--catalog", "quasi-super-ghz", "--parameter", "eps",
            "--values", "0.125,0.25", "--locate-tsirelson",
        )
        assert code == 0
        assert 0.125 < report["tsirelson_crossing"] < 0.25
        assert report["tsirelson_crossing"] == pytest.approx(0.25 - (2 - 2**0.5) / 16, abs=1e-4)

    def test_rows_without_a_sign_change_are_rejected(self, capsys):
        code, report = run_cli(
            capsys, "sweep", "--catalog", "quasi-super-ghz", "--parameter", "eps",
            "--values", "0.0625,0.125", "--locate-tsirelson",
        )
        assert code == 2
        assert report["error"] == "ValidationError"

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
