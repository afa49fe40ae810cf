"""Self-tests for the benchmark: job lists, output checks and tracing.

    python3 bench/selftest.py

Every output check must pass a real answer from the program and reject
the same answer once corrupted.  The file name keeps it out of the
package's own pytest collection.
"""

from __future__ import annotations

import copy
import json
import random
import statistics
import sys
import tempfile
import unittest
from collections import Counter
from fractions import Fraction

import checks
import jobs as joblist
import run
from tracing import LAYERS, Tracer, layer_metrics, self_times

CLI = run.fresh_import()


def answer(argv):
    rc, output, _wall = run.run_job(CLI, argv)
    return rc, json.loads(output)


def catalog_table(name, **params):
    return checks.Table.from_system(CLI.catalog.build(name, **params))


def job(argv, **expect):
    return {"id": 0, "kind": "test", "argv": argv, "expect": expect}


def verdict(test_job, rc, report, table):
    return checks.CHECKS[test_job["argv"][0]](test_job, rc, report, table)


class JobListTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for workload in joblist.WORKLOADS:
            a = joblist.job_list_bytes(*joblist.generate(workload, 7))
            b = joblist.job_list_bytes(*joblist.generate(workload, 7))
            c = joblist.job_list_bytes(*joblist.generate(workload, 8))
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)

    def test_every_seed_gives_the_same_mix(self):
        for workload in joblist.WORKLOADS:
            mixes = []
            for seed in (1, 2, 3):
                jobs, _files = joblist.generate(workload, seed)
                self.assertGreaterEqual(len(jobs), 50, workload)  # two passes time >= 100
                mixes.append(Counter(j["kind"] for j in jobs))
            self.assertEqual(mixes[0], mixes[1], workload)
            self.assertEqual(mixes[0], mixes[2], workload)


class BenchmarkFileTest(unittest.TestCase):
    def test_declared_metrics_are_the_reported_ones(self):
        declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        self.assertEqual({m["name"]: m["unit"] for m in declared["end_to_end"]}, run.END_TO_END)
        reported = list(layer_metrics([], 1.0, 1.0)) + ["draws_per_s", "plan_draws_per_s"]
        self.assertEqual({m["name"]: m["unit"] for m in declared["per_layer"]},
                         {name: run.per_layer_units(name) for name in reported})
        self.assertEqual([w["name"] for w in declared["workloads"]], list(joblist.WORKLOADS))


class GaugeCheckTest(unittest.TestCase):
    def test_one_step_rational(self):
        argv = ["gauges", "--catalog", "singlet", "--steps", "1"]
        t = job(argv, mode="1", steps=1)
        rc, report = answer(argv)
        table = catalog_table("singlet")
        self.assertIsNone(verdict(t, rc, report, table))

        nudged = copy.deepcopy(report)
        w = Fraction(nudged["gauges"][2]["weights"][0]) + Fraction(1, 1000)
        nudged["gauges"][2]["weights"][0] = f"{w.numerator}/{w.denominator}"
        self.assertIn("reconstructed", verdict(t, rc, nudged, table))

        negative = copy.deepcopy(report)
        negative["gauges"][0]["weights"][0] = "-1/4"
        self.assertIn("negative", verdict(t, rc, negative, table))

        missing = copy.deepcopy(report)
        missing["gauges"].pop()
        self.assertIn("covers", verdict(t, rc, missing, table))

    def test_one_step_snapped_float(self):
        argv = ["gauges", "--catalog", "epr-b", "--steps", "1"]
        t = job(argv, mode="1", steps=1)
        rc, report = answer(argv)
        table = catalog_table("epr-b")
        self.assertEqual(table.backend, "float")
        self.assertIsNone(verdict(t, rc, report, table))
        nudged = copy.deepcopy(report)
        w = Fraction(nudged["gauges"][1]["weights"][0]) + Fraction(1, 10**6)
        nudged["gauges"][1]["weights"][0] = f"{w.numerator}/{w.denominator}"
        self.assertIn("reconstructed", verdict(t, rc, nudged, table))

    def test_two_step_certificate(self):
        argv = ["gauges", "--catalog", "quasi-super-ghz", "--param", "eps=4/128",
                "--steps", "auto"]
        t = job(argv, mode="auto", steps=2)
        rc, report = answer(argv)
        table = catalog_table("quasi-super-ghz", eps="4/128")
        self.assertIsNone(verdict(t, rc, report, table))

        self.assertIn("steps", verdict(job(argv, mode="auto", steps=1), rc, report, table))

        nudged = copy.deepcopy(report)
        branch = sorted(nudged["branches"])[0]
        w = Fraction(nudged["branches"][branch][0]["weights"][0]) + Fraction(1, 64)
        nudged["branches"][branch][0]["weights"][0] = f"{w.numerator}/{w.denominator}"
        self.assertIn("reconstructed", verdict(t, rc, nudged, table))

        dropped = copy.deepcopy(report)
        del dropped["branches"][branch]
        self.assertIn("branches", verdict(t, rc, dropped, table))

    def test_infeasible(self):
        argv = ["gauges", "--catalog", "quasi-super-ghz", "--param", "eps=4/128",
                "--steps", "1"]
        t = job(argv, mode="1", infeasible=list(range(6)))
        rc, report = answer(argv)
        self.assertEqual(rc, 3)
        self.assertIsNone(verdict(t, rc, report, None))
        partial = dict(report, gammas=report["gammas"][:-1])
        self.assertIn("configurations", verdict(t, rc, partial, None))
        self.assertIn("exit", verdict(t, 0, report, None))


class CollapseCheckTest(unittest.TestCase):
    def run_collapse(self, name, settings, runs, plan=None):
        argv = ["collapse", "--catalog", name, "--settings", settings,
                "--runs", str(runs), "--seed", "5"] + (["--plan", plan] if plan else [])
        t = job(argv, settings=[int(s) for s in settings.split(",")], runs=runs, plan=plan)
        rc, report = answer(argv)
        table = catalog_table(name)
        self.assertIsNone(verdict(t, rc, report, table))
        return t, rc, report, table

    @staticmethod
    def move(report, source, target, amount):
        moved = copy.deepcopy(report)
        outcomes = moved["counts"][0]["outcomes"]
        outcomes[source] -= amount
        outcomes[target] = outcomes.get(target, 0) + amount
        return moved

    def test_one_step_counts(self):
        t, rc, report, table = self.run_collapse("pr-box", "0,1", 100000)
        # at settings (0, 1) the pr-box outcomes always agree
        self.assertIn("zero-probability", verdict(t, rc, self.move(report, "00", "01", 1), table))
        self.assertIn("frequency", verdict(t, rc, self.move(report, "00", "11", 2000), table))
        short = self.move(report, "00", "11", 0)
        short["counts"][0]["outcomes"]["00"] -= 1
        self.assertIn("sum", verdict(t, rc, short, table))

    def test_plan_counts(self):
        t, rc, report, table = self.run_collapse("super-ghz", "0,0,1", 2000, plan="2,final")
        outcomes = report["counts"][0]["outcomes"]
        source, target = sorted(outcomes, key=outcomes.get)[-1], sorted(outcomes, key=outcomes.get)[-2]
        self.assertIsNotNone(verdict(t, rc, self.move(report, source, target, 200), table))


class TableCheckTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.rng = random.Random(3)

    def system_file(self, tmpdir, n, K, components=3, signalling=False, backend="rational"):
        table = joblist.product_mixture(self.rng, n, K, components)
        if signalling:
            table = joblist.make_signalling(self.rng, table, n, K)
        text = joblist.system_json(table, n, K, backend)
        path = f"{tmpdir}/system.json"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        return path, checks.Table.from_json(text)

    def test_validate_classify_metrics(self):
        run.OUT.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=run.OUT) as tmpdir:
            path, table = self.system_file(tmpdir, 3, 2)
            t = job(["validate"], signalling=False)
            rc, report = answer(["validate", "--system", path])
            self.assertIsNone(verdict(t, rc, report, table))
            self.assertIsNotNone(verdict(job(["validate"], signalling=True), rc, report, table))

            t = job(["classify"], components=3)
            rc, report = answer(["classify", "--system", path])
            self.assertIsNone(verdict(t, rc, report, table))
            wrong = dict(report, verdict="super-quantum-detected")
            self.assertIn("verdict", verdict(t, rc, wrong, table))
            if report.get("witness"):
                wrong = copy.deepcopy(report)
                wrong["witness"]["chsh"] = 2.5
                self.assertIn("CHSH", verdict(t, rc, wrong, table))

            t = job(["metrics"])
            rc, report = answer(["metrics", "--system", path])
            self.assertIsNone(verdict(t, rc, report, table))
            nudged = copy.deepcopy(report)
            nudged["atoms"]["0,1,1"]["3"] += 1e-6
            self.assertIn("atoms", verdict(t, rc, nudged, table))

            path, table = self.system_file(tmpdir, 3, 2, signalling=True, backend="float")
            t = job(["validate"], signalling=True)
            rc, report = answer(["validate", "--system", path])
            self.assertEqual(rc, 2)
            self.assertIsNone(verdict(t, rc, report, table))
            self.assertIsNotNone(verdict(job(["validate"], signalling=False), rc, report, table))

            path, table = self.system_file(tmpdir, 3, 2, components=1)
            t = job(["classify"], components=1)
            rc, report = answer(["classify", "--system", path])
            self.assertIsNone(verdict(t, rc, report, table))
            wrong = dict(report, verdict="entangled-quantum-compatible")
            self.assertIn("product", verdict(t, rc, wrong, table))

    def test_sweep(self):
        t = job(["sweep"])
        rc, report = answer(["sweep", "--catalog", "quasi-super-ghz", "--locate-tsirelson"])
        self.assertIsNone(verdict(t, rc, report, None))
        moved = dict(report, tsirelson_crossing=report["tsirelson_crossing"] + 1e-3)
        self.assertIn("crossing", verdict(t, rc, moved, None))


class ScalingTest(unittest.TestCase):
    def test_pass_times_scale_with_the_kernel(self):
        results = run.Results(None)
        results.records = [({"id": i}, wall, None) for i, wall in enumerate((0.1, 0.3, 0.2, 0.6))]
        ref = run.REFERENCE_KERNEL_S
        # the second pass ran on a host at half speed: its kernel took twice as long
        metrics = run.end_to_end([1.0], results, [[ref, ref], [2 * ref, 2 * ref]])
        self.assertAlmostEqual(metrics["jobs_per_s"], 5.0)
        self.assertAlmostEqual(metrics["job_p50_ms"], 200.0)
        self.assertAlmostEqual(metrics["setup_s"], 1.0 / 1.5)
        unscaled = run.end_to_end([1.0], results, [[ref], [2 * ref]], scale=False)
        self.assertAlmostEqual(unscaled["jobs_per_s"], statistics.median([5.0, 2.5]))
        self.assertAlmostEqual(unscaled["setup_s"], 1.0)


class TracingTest(unittest.TestCase):
    def test_uninstall_restores_every_binding(self):
        before = {name: dict(vars(m)) for name, m in sys.modules.items()
                  if name.startswith("gaugesim")}
        methods = [(f"gaugesim.{layer}", *q.split(".")) for layer, names in LAYERS.items()
                   for q in names if "." in q]
        originals = [vars(getattr(sys.modules[m], c))[a] for m, c, a in methods]
        tracer = Tracer()
        tracer.install()
        self.assertIsNot(sys.modules["gaugesim.collapse"].condition,
                         before["gaugesim.collapse"]["condition"])
        tracer.active = True
        tracer.job = 0
        answer(["collapse", "--catalog", "super-ghz", "--settings", "0,0,1",
                "--plan", "2,final", "--runs", "20"])
        tracer.active = False
        tracer.uninstall()
        for name, attrs in before.items():
            for attr, value in attrs.items():
                self.assertIs(vars(sys.modules[name])[attr], value, f"{name}.{attr}")
        for (m, c, a), original in zip(methods, originals):
            self.assertIs(vars(getattr(sys.modules[m], c))[a], original, f"{c}.{a}")
        names = Counter(s[0] for s in tracer.spans)
        self.assertEqual(names["cli.main"], 1)
        self.assertEqual(names["collapse.multi_step_run"], 20 + 1)  # runs plus the trace sample
        self.assertGreater(names["model.condition"], 0)

    def test_self_time_subtracts_children(self):
        spans = [["a", 0.0, 10.0, -1, 0, None], ["b", 1.0, 4.0, 0, 0, None],
                 ["c", 2.0, 3.0, 1, 0, None], ["d", 5.0, 6.0, 0, 0, None]]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])


if __name__ == "__main__":
    unittest.main()
