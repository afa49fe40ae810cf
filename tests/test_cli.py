"""Command-line interface: verbs, exit codes, report round-trips."""

import hashlib
import json
import random
import subprocess
import sys
from fractions import Fraction as F
from itertools import product

import pytest

import gaugesim as gs
from gaugesim.cli import _max_conditioned_chsh, main
from gaugesim.model import ProbabilitySystem, save_system


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
    return ProbabilitySystem(4, 2, inner.labels, table)


RATIONAL_FILE_CASES = [
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
    # one slash too few and one too many: the values must not be read across each other
    (["1", "1/2/2", "1/3", "2/3"], {}, "ValidationError",
     "bad table entry {'x': [1], 'u': [0], 'p': '1/2/2'}: Invalid literal for Fraction: '1/2/2'"),
    ([" 1/2", "1/2", "1/3", "2/3"], {}, None, None),
    (["2/4", "2/4", "0/7", "3/3"], {}, None, None),
]
RATIONAL_FILE_IDS = ["zero-denominator", "negative-integer", "negative-string", "bool", "float",
                     "decimal", "duplicate", "missing", "extra", "slash-count", "leading-space",
                     "unreduced"]


def rational_rows(entries, extra):
    """Entries of a one-region, two-setting rational file in table order, with `extra` applied."""
    keys = [([0], [0]), ([1], [0]), ([0], [1]), ([1], [1])]
    rows = [{"x": x, "u": u, "p": p} for (x, u), p in zip(keys, entries)]
    if "duplicate" in extra:
        rows.append(dict(rows[extra["duplicate"]]))
    if "drop" in extra:
        del rows[extra["drop"]]
    if "outside" in extra:
        rows.append({"x": [2], "u": [0], "p": extra["outside"]})
    return rows


class TestExitCodes:
    def test_classify_super_ghz(self, capsys):
        code, report = run_cli(capsys, "classify", "--catalog", "super-ghz")
        assert code == 0
        assert report["verdict"] == "super-quantum-detected"

    @pytest.mark.parametrize("name", ["ghz-zzz", "w-zzz"])
    def test_one_setting_systems_classify_and_measure(self, capsys, name):
        code, report = run_cli(capsys, "classify", "--catalog", name)
        assert code == 0
        assert report["verdict"] == "entangled-quantum-compatible" and "witness" not in report
        code, report = run_cli(capsys, "metrics", "--catalog", name)
        assert code == 0
        assert report["classification"] == {"verdict": "entangled-quantum-compatible"}
        assert report["scheme"]["flags"] == [3, 1]
        if name == "ghz-zzz":
            assert report["scheme"]["max_total_entanglement"] == 2.0

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

    @pytest.mark.parametrize("entries,extra,error,detail", RATIONAL_FILE_CASES,
                             ids=RATIONAL_FILE_IDS)
    def test_rational_file_errors_are_pinned(self, tmp_path, capsys, entries, extra, error,
                                             detail):
        """Exit code and message of each malformed rational file, as the Fraction parser gave."""
        self._check_rational_file(tmp_path, capsys, rational_rows(entries, extra), error, detail)

    @pytest.mark.parametrize("entries,extra,error,detail", RATIONAL_FILE_CASES,
                             ids=RATIONAL_FILE_IDS)
    def test_rational_file_errors_in_to_dict_order(self, tmp_path, capsys, entries, extra,
                                                   error, detail):
        """The same files with their entries sorted by (x, u), as `to_dict` writes them."""
        rows = sorted(rational_rows(entries, extra), key=lambda row: (row["x"], row["u"]))
        self._check_rational_file(tmp_path, capsys, rows, error, detail)

    @staticmethod
    def _check_rational_file(tmp_path, capsys, rows, error, detail):
        # each file is written spaced and compact, the layout read in one scan
        path = tmp_path / "system.json"
        for separators in (None, (",", ":")):
            path.write_text(json.dumps({"n": 1, "k": 2, "labels": ["a", "b"],
                                        "scalar": "rational", "table": rows},
                                       separators=separators))
            code = main(["validate", "--system", str(path)])
            captured = capsys.readouterr()
            assert captured.err == ""
            report = json.loads(captured.out)
            if error is None:
                assert code == 0 and report["locally_consistent"] is True
                continue
            assert code == 2
            assert report == {"schema": "gaugesim/1", "error": error, "detail": detail}

    @pytest.mark.parametrize("text,detail", [
        ("NaN", "bad table entry {'x': [0], 'u': [1], 'p': nan}: table entry must be finite, "
                "got nan"),
        ("Infinity", "bad table entry {'x': [0], 'u': [1], 'p': inf}: table entry must be "
                     "finite, got inf"),
        ("-Infinity", "bad table entry {'x': [0], 'u': [1], 'p': -inf}: table entry must be "
                      "finite, got -inf"),
        ("1" + "0" * 400, "bad table entry {'x': [0], 'u': [1], 'p': 1" + "0" * 400 + "}: "
                          "int too large to convert to float"),
    ], ids=["nan", "infinity", "minus-infinity", "int-past-float-range"])
    def test_non_finite_float_entries_are_pinned(self, tmp_path, capsys, text, detail):
        """NaN and infinities are bad entries, with nothing on stderr (no NumPy warning)."""
        rows = ['{"x": [0], "u": [0], "p": 0.5}', '{"x": [1], "u": [0], "p": 0.5}',
                f'{{"x": [0], "u": [1], "p": {text}}}', '{"x": [1], "u": [1], "p": 0.5}']
        spaced = ('{"n": 1, "k": 2, "labels": ["a", "b"], "scalar": "float", "table": ['
                  + ", ".join(rows) + "]}")
        path = tmp_path / "system.json"
        for content in (spaced, spaced.replace(": ", ":").replace(", ", ",")):
            path.write_text(content)
            code = main(["validate", "--system", str(path)])
            captured = capsys.readouterr()
            assert captured.err == ""
            assert code == 2
            assert json.loads(captured.out) == {"schema": "gaugesim/1",
                                                "error": "ValidationError", "detail": detail}

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

    def test_too_small_working_set_is_not_infeasible(self, tmp_path, capsys):
        # no gauge on two states says nothing of the full index space
        path = tmp_path / "s.json"
        path.write_text("[3, 5]")
        code = main(["gauges", "--catalog", "singlet", "--steps", "1", "--support", str(path)])
        captured = capsys.readouterr()
        assert (code, captured.err) == (2, "")
        assert captured.out == (
            '{\n  "schema": "gaugesim/1",\n  "error": "SupportTooSmall",\n  "detail": "no '
            'solution for configuration(s) (0, 1, 2, 3, 4, 5) on the 2-state working set"\n}\n'
        )


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

    @pytest.mark.parametrize("content, detail", [
        (b'\xff\xfe{"n":1}',
         "is not JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        (b'\xef\xbb\xbf{"n":1,"k":1,"labels":["z"],"scalar":"rational","table":'
         b'[{"x":[0],"u":[0],"p":"1/1"},{"x":[1],"u":[0],"p":"0/1"}]}',
         "is not JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)"),
        (b"", "is not JSON: Expecting value: line 1 column 1 (char 0)"),
    ], ids=["utf-16-bom", "utf-8-bom", "empty"])
    def test_system_file_that_is_not_json_text_is_reported(self, tmp_path, capsys, content,
                                                            detail):
        # the second file is the compact layout read in one scan, behind a BOM
        path = tmp_path / "system.json"
        path.write_bytes(content)
        code, report = run_cli(capsys, "validate", "--system", str(path))
        assert code == 2
        assert report == {"schema": "gaugesim/1", "error": "ValidationError",
                          "detail": f"{path} {detail}"}

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
        monkeypatch.setattr(collapse, "_pool", lambda n: pools.append(n) or real(n))
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


# (exit code, sha256 of stdout, argv after `sweep`): the bisection hands
# `bell2`'s q3 and `quasi-super-ghz`'s eps, parsed by `Fraction`, the Fraction
# itself; the list parsers of one-region and epr-b and the int parser of
# epr-b-regular get its text, as all parameters once did.  The same pins are
# checked through the installed CLI in CI.
SWEEP_PINS = [
    (2, "6adf3a989a297d865d1b03bf5d2d1c05ae093c0ed7de7e976716d6932a3212e3",
     "--catalog one-region --parameter probs --locate-tsirelson"),
    (2, "6adf3a989a297d865d1b03bf5d2d1c05ae093c0ed7de7e976716d6932a3212e3",
     "--catalog one-region --parameter probs --values 1/2,1/4"),
    (2, "691f6de9b7b20da84799314afbde12d4227289ad7f7fc8fc02aa96f2f6257b6e",
     "--catalog epr-b-regular --parameter k --locate-tsirelson"),
    (0, "976f7d4af0819a40a74e6aef7981de35e964defc3576b79c420916186cb26f86",
     "--catalog epr-b-regular --parameter k --values 2,3"),
    (2, "691f6de9b7b20da84799314afbde12d4227289ad7f7fc8fc02aa96f2f6257b6e",
     "--catalog epr-b --parameter angles --locate-tsirelson"),
    (2, "691f6de9b7b20da84799314afbde12d4227289ad7f7fc8fc02aa96f2f6257b6e",
     "--catalog epr-b --parameter angles --values 0,0.5"),
    (2, "e071bf1eadaf632b495ed2d001260819d9eb3691a792dd391f7c67b773839d25",
     "--catalog bell2 --parameter q3 --locate-tsirelson"),
    (0, "27bc20a1bc3673838405b9eb7e4fd3075312e5223ff3d795e098e8808a20af29",
     "--catalog bell2 --parameter q3 --values 1/2,3/4"),
    (0, "3c2dd9be62036190cffd9adcce0f16f6d7ca7dc9d2eb2c5f26756783d82ed589",
     "--catalog bell2 --parameter q3 --values 1/2,3/4 --locate-tsirelson"),
    (0, "faf5c1cd4a981cac0e12dc62b1248006944a1e0e6458536b6d8b2c64e851b0e2",
     "--catalog quasi-super-ghz --parameter eps --locate-tsirelson"),
    (0, "9f02f669858dd317848569b3ecf8b7d2d5d98879150eb67077a997504721d741",
     "--catalog quasi-super-ghz --parameter eps --values 0,0.0366,0.0625,0.125"),
    (0, "2586c1b05e2c7c74b6d75dea3562e260f3f252b5b9d8b6b39068e3e9d4da7559",
     "--catalog quasi-super-ghz --parameter eps --values 0,0.0366,0.0625,0.125"
     " --locate-tsirelson"),
]


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

    def test_default_crossing_is_pinned(self, capsys):
        # the exact float the bisection on [0, 1/8] ends at; any change in the
        # last bits of the conditioned CHSH can move it
        code, report = run_cli(capsys, "sweep", "--catalog", "quasi-super-ghz",
                               "--locate-tsirelson")
        assert code == 0
        assert report["tsirelson_crossing"] == 0.036590576171875

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

    @pytest.mark.parametrize("want,digest,args", SWEEP_PINS, ids=[p[2] for p in SWEEP_PINS])
    def test_the_bisection_hands_each_parser_what_it_always_did(self, capsys, want, digest, args):
        """Exit code and sha256 of stdout on parameters of every parser, as pinned
        when the bisection handed each parameter the text of its Fraction."""
        code = main(["sweep", *args.split()])
        assert (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == \
            (want, digest)


# (exit code, sha256 of stdout, --plan text) of `collapse --catalog super-ghz
# --settings 0,0,1 --runs 100 --seed 1 --plan TEXT`, pinned when a plan held
# step objects: each malformed text's error in parse order, an out-of-range
# leader, a negative one (read by the plan parser, as `--plan=-1,final` is),
# the infeasible one-step plan, and a spaced upper-case copy of a valid plan.
# The same pins are checked through the installed CLI in CI.
PLAN_PINS = [
    (2, "900230aa8260f03a8991dd30966dff9a32937715bb8e6d67e852ff28e8e11388", "x"),
    (2, "0c88b88596c01d686ae6394a400521f48d04733059cc98a7de316142b1f534d7", "0"),
    (2, "3a1edce0e0b3b82818a2dd879d2276f5b9fca4ac749cc8c2de4f739d738e38bf", "final,final"),
    (2, "f3d6b7cc617863109c4ac23e16d4a915cb2b31dd1cdeba9a956f1a2e2a6b7b08", "0,0,final"),
    (2, "bab0724696f09d34ad154a8e33403f2a8ed7d486b4162181c5e023754c80c70d", "5,final"),
    (2, "c4921f7c753f63f547aef1a10dd90bf9c554193c74a7c780b017d3d404d51e4b", "-1,final"),
    (0, "a11d3c5dfd502904157093da70abe50c2687c5cadc1fcb7c013c7d8685d9f2a3", "2,final"),
    (3, "70aee8a717ed4961f1dda9d1ca205bf97de2b17f474d73c976a98cd5d6d9b3cf", "final"),
    (0, "a11d3c5dfd502904157093da70abe50c2687c5cadc1fcb7c013c7d8685d9f2a3", " 2 , FINAL "),
    (2, "3a1edce0e0b3b82818a2dd879d2276f5b9fca4ac749cc8c2de4f739d738e38bf", "2,final,final"),
    (2, "0c88b88596c01d686ae6394a400521f48d04733059cc98a7de316142b1f534d7", "final,2"),
]


@pytest.mark.parametrize("want,digest,plan", PLAN_PINS, ids=[repr(p[2]) for p in PLAN_PINS])
def test_plan_texts_give_what_they_always_did(capsys, want, digest, plan):
    code = main(["collapse", "--catalog", "super-ghz", "--settings", "0,0,1", "--runs", "100",
                 "--seed", "1", "--plan", plan])
    assert (code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()) == (want, digest)


@pytest.mark.parametrize("argv, error", [
    (["collapse", "--catalog", "super-ghz", "--settings", "0,0,1", "--plan", "-1,final"],
     "ValidationError"),
    (["collapse", "--catalog", "pr-box", "--settings", "-1,0"], "ValidationError"),
    (["metrics", "--catalog", "pr-box", "--settings", "-1,0"], "ValidationError"),
    (["sweep", "--catalog", "quasi-super-ghz", "--values", "-0.1,0.1"], "RangeError"),
    # a unique prefix of the option, which argparse expands to it
    (["collapse", "--catalog", "super-ghz", "--settings", "0,0,1", "--pla", "-1,final"],
     "ValidationError"),
    (["metrics", "--catalog", "pr-box", "--sett", "-1,0"], "ValidationError"),
    (["sweep", "--catalog", "quasi-super-ghz", "--val", "-0.1,0.1"], "RangeError"),
], ids=lambda value: " ".join(value) if isinstance(value, list) else value)
def test_a_value_led_by_a_minus_sign_and_a_digit_reaches_its_parser(capsys, argv, error):
    # argparse alone reads such a value as an unknown option and exits 64
    code, report = run_cli(capsys, *argv)
    assert (code, report["error"]) == (2, error)
    assert run_cli(capsys, *argv[:-2], f"{argv[-2]}={argv[-1]}") == (code, report)


@pytest.mark.parametrize("option", ["--se", "--s", "--p", "--plans", "--pl=x"])
def test_a_value_led_by_a_minus_sign_after_no_one_option_is_a_usage_error(capsys, option):
    # '--se' and '--s' abbreviate --settings and --seed, '--p' --param and --plan
    assert main(["collapse", "--catalog", "super-ghz", "--settings", "0,0,1",
                 option, "-1,final"]) == 64


# sha256 of the exit code and stdout of validate, classify, metrics, gauges
# --steps 1 and a one-step and a planned collapse on each float system of
# `float_answer_runs`, as computed when a float system held a dtype=object
# array of Python floats
PINNED_FLOAT_SHA256 = "83830a2a42a6311ccb10338d89706f027a39d570e23fc7677ebda164251dbfeb"


def float_mixture(rng, n, K):
    """A seeded mixture of three product tables, computed in floats."""
    weights = [rng.randint(1, 5) for _ in range(3)]
    ones = [[[rng.randint(1, 7) / 8 for _s in range(K)] for _i in range(n)] for _w in weights]
    table = {}
    for u in product(range(K), repeat=n):
        for x in product((0, 1), repeat=n):
            cell = 0.0
            for w, q in zip(weights, ones):
                term = w / sum(weights)
                for i in range(n):
                    term *= q[i][u[i]] if x[i] else 1 - q[i][u[i]]
                cell += term
            table[(x, u)] = cell
    return ProbabilitySystem(n, K, [f"s{k}" for k in range(K)], table)


def float_copy(system, path):
    """`--system` argv of a file holding float(p) for each p of `system`, in table order."""
    data = system.to_dict()
    data["scalar"] = "float"
    data["table"].sort(key=lambda entry: (entry["u"], entry["x"]))
    for entry in data["table"]:
        entry["p"] = float(F(entry["p"]))
    path.write_text(json.dumps(data))
    return ["--system", str(path)]


def float_answer_runs(tmp_path):
    """(source argv, one-step settings, plan) of each pinned float system; the
    mixture file is in `to_dict` order, so it is read entry by entry."""
    save_system(float_mixture(random.Random(2026), 4, 2), tmp_path / "mixture.json")
    return [
        (["--catalog", "epr-b"], "0,1", "1,final"),
        (["--catalog", "epr-b-regular", "--param", "k=3"], "0,2", "0,final"),
        (float_copy(gs.super_ghz(), tmp_path / "super.json"), "0,0,1", "2,final"),
        (float_copy(gs.quasi_super_ghz(F(1, 8)), tmp_path / "quasi.json"), "0,0,1", "2,final"),
        (["--system", str(tmp_path / "mixture.json")], "0,1,0,1", "2,final"),
    ]


def test_float_answers_match_the_pinned_digest(capsys, tmp_path):
    answers = []
    for source, settings, plan in float_answer_runs(tmp_path):
        for verb in (["validate"], ["classify"], ["metrics"], ["gauges", "--steps", "1"],
                     ["collapse", "--settings", settings, "--runs", "2000", "--seed", "3"],
                     ["collapse", "--settings", settings, "--plan", plan, "--runs", "2000",
                      "--seed", "1"]):
            code = main([*verb, *source])
            answers.append([code, capsys.readouterr().out])
    # one-step super-ghz has no gauge: gauges and the one-step collapse exit 3
    assert [code for code, _out in answers] == [0] * 15 + [3, 3] + [0] * 13
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == PINNED_FLOAT_SHA256


def test_installed_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "gaugesim.cli", "catalog", "list"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert "super-ghz" in result.stdout
