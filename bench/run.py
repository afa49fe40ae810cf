"""gaugesim benchmark: CLI verbs run in-process as a closed loop with one client.

    python3 bench/run.py --workload gauge-lp --seed 1 --seconds 35 --trace 0

Run from the root of a source checkout; the program is imported from
`src/`.  Each job calls `gaugesim.cli.main(argv)` and the next job starts
when it returns.  Every job builds its system anew, as a separate CLI call
would, and every job's output is checked after its timer stops.

`--trace 0` runs whole passes over the seeded job list until the next pass
would end after `--seconds`, and reports the end-to-end metrics.
`--trace 1` runs one pass in which each job runs once untraced and once
with every layer's public functions wrapped in spans, and reports the
per-layer metrics.  The last line of standard output is the JSON result;
the lines before it print each metric with its unit, and a summary with
the run environment is written under `bench/out/`.  See METRICS.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import numpy

import checks
import jobs as joblist
from tracing import Tracer, layer_metrics, self_time_shares

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-up is repeated and its median reported, so one slow repeat does not
# move `setup_s`.
SETUP_REPEATS = 7

# The host's speed drifts by tens of percent over minutes when it is shared.
# A fixed kernel that uses no gaugesim code runs after every job, outside
# the timed region, and the end-to-end times of each pass are scaled by
# REFERENCE_KERNEL_S over the median kernel time of that pass.  The figures
# are then seconds on a host running the kernel in REFERENCE_KERNEL_S: a
# change to gaugesim moves them in full, a change in host speed mostly not.
# REFERENCE_KERNEL_S is a typical kernel median on a 2-vCPU x86_64 VM with
# Python 3.11.7 and numpy 2.4.6.  The unscaled figures go to the summary.
REFERENCE_KERNEL_S = 0.015

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_p90_ms": "ms",
    "ok_ratio": "fraction",
    "peak_rss_mb": "MB",
}


def per_layer_units(name):
    if name in ("draws_per_s", "plan_draws_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name == "trace.overhead_ratio":
        return "ratio"
    if name.endswith("_ratio"):
        return "fraction"
    return "count"


def kernel_seconds():
    """Time of the calibration kernel: exact rationals, dicts and numpy."""
    start = perf_counter()
    acc, table = Fraction(0), {}
    for i in range(1, 1500):
        acc += Fraction(i % 13 + 1, i % 29 + 2)
        table[(i % 64, i % 5)] = acc / 3
    sorted(table.items())
    values = numpy.random.default_rng(0).random(200000)
    numpy.searchsorted(numpy.cumsum(values), values)
    return perf_counter() - start


class ProgramMissing(Exception):
    pass


def fresh_import():
    """Import gaugesim.cli from this checkout, dropping any earlier import."""
    if not (SRC / "gaugesim" / "__init__.py").is_file():
        raise ProgramMissing(f"no gaugesim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "gaugesim" or m.startswith("gaugesim.")]:
        del sys.modules[name]
    cli = importlib.import_module("gaugesim.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"imported gaugesim from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, argv):
    """(exit code, stdout text, wall seconds) of one in-process CLI call.

    The benchmark's own objects are frozen out of the cyclic garbage
    collector for the call, so the job's collections scan about as much as
    they would in a fresh process, whatever the benchmark has accumulated.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    gc.freeze()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.main(argv)
            except Exception:  # a crash is a failed job, not a failed benchmark
                rc = "crash: " + traceback.format_exc(limit=3)
        return rc, out.getvalue(), perf_counter() - start
    finally:
        gc.unfreeze()


class Setup:
    """Import, job list and system files, and one warm-up job per verb."""

    def __init__(self, workload, seed, workdir):
        start = perf_counter()
        self.cli = fresh_import()
        self.jobs, files = joblist.generate(workload, seed)
        self.hash = joblist.job_list_hash(self.jobs, files)
        sysdir = workdir / "systems"
        sysdir.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (sysdir / name).write_text(text, encoding="utf-8")
        self.argvs = [[a.replace(joblist.SYSDIR, str(sysdir)) for a in job["argv"]]
                      for job in self.jobs]
        for argv in joblist.warmups(workload):
            rc, _out, _wall = run_job(self.cli, argv)
            if rc not in (0, 2):
                raise RuntimeError(f"warm-up {argv} exited {rc}")
        self.seconds = perf_counter() - start
        self.files = files
        self._tables = {}

    def reference(self, job):
        """Exact table a job's answer is checked against (None for sweeps)."""
        expect = job["expect"]
        if "file" in expect:
            return checks.Table.from_json(self.files[expect["file"]])
        if "catalog" not in expect:
            return None
        key = (expect["catalog"], json.dumps(expect["params"], sort_keys=True))
        if key not in self._tables:
            system = self.cli.catalog.build(expect["catalog"], **expect["params"])
            self._tables[key] = checks.Table.from_system(system)
        return self._tables[key]


class Results:
    def __init__(self, setup):
        self.setup = setup
        self.records = []  # (job, wall seconds, failure reason or None)

    def add(self, job, rc, output, wall):
        reason = checks.check(job, rc, output, self.setup.reference(job)) \
            if isinstance(rc, int) else f"program raised: {rc}"
        self.records.append((job, wall, reason))
        if reason:
            print(f"FAILED job {job['id']} ({job['kind']}): {' '.join(job['argv'])}: {reason}",
                  file=sys.stderr)

    @property
    def failed(self):
        return sum(1 for _job, _wall, reason in self.records if reason)


def untraced(setup, seconds):
    """Whole passes until the next would end after `seconds`; at least two,
    so that a run times at least 100 jobs.  Returns the results and, per
    pass, its kernel times."""
    results = Results(setup)
    start = perf_counter()
    kernels = []
    while True:
        pass_start = perf_counter()
        kernels.append([])
        for job, argv in zip(setup.jobs, setup.argvs):
            rc, output, wall = run_job(setup.cli, argv)
            results.add(job, rc, output, wall)
            kernels[-1].append(kernel_seconds())
        now = perf_counter()
        if len(kernels) >= 2 and now - start + (now - pass_start) > seconds:
            return results, kernels


def traced(setup):
    """One pass running each job untraced and traced, alternating which goes
    first so that neither side gains from running second."""
    untraced_results, traced_results = Results(setup), Results(setup)
    tracer = Tracer()

    def run_traced(job, argv):
        tracer.install()
        tracer.job, tracer.active = job["id"], True
        try:
            return run_job(setup.cli, argv)
        finally:
            tracer.active = False
            tracer.uninstall()

    for job, argv in zip(setup.jobs, setup.argvs):
        for with_trace in ((False, True) if job["id"] % 2 else (True, False)):
            if with_trace:
                traced_results.add(job, *run_traced(job, argv))
            else:
                untraced_results.add(job, *run_job(setup.cli, argv))
    return untraced_results, traced_results, tracer


def draw_rates(results):
    """Draws per second of job wall time, one-step and plan collapse jobs."""
    draws, seconds = {False: 0, True: 0}, {False: 0.0, True: 0.0}
    for job, wall, _reason in results.records:
        if job["argv"][0] == "collapse":
            plan = bool(job["expect"]["plan"])
            draws[plan] += job["expect"]["runs"]
            seconds[plan] += wall
    rates = {plan: draws[plan] / seconds[plan] if seconds[plan] else 0.0 for plan in draws}
    return {"draws_per_s": rates[False], "plan_draws_per_s": rates[True]}


def wall_by_kind(results):
    totals = {}
    for job, wall, _reason in results.records:
        totals[job["kind"]] = totals.get(job["kind"], 0.0) + wall
    return dict(sorted(totals.items(), key=lambda kv: -kv[1]))


def end_to_end(setup_seconds, results, kernels, scale=True):
    """End-to-end metrics, times scaled to the reference host speed unless
    `scale` is false."""
    per_pass = len(results.records) // len(kernels)
    factors = [REFERENCE_KERNEL_S / statistics.median(k) if scale else 1.0 for k in kernels]
    passes = [[wall * factor for _job, wall, _reason in results.records[i:i + per_pass]]
              for i, factor in zip(range(0, len(results.records), per_pass), factors)]
    walls = [wall for walls in passes for wall in walls]
    attempted = len(walls)
    run_factor = (REFERENCE_KERNEL_S / statistics.median(k for ks in kernels for k in ks)
                  if scale else 1.0)
    return {
        "setup_s": run_factor * statistics.median(setup_seconds),
        "jobs_per_s": statistics.median(len(p) / sum(p) for p in passes),
        "job_p50_ms": 1000 * statistics.median(walls),
        "job_p90_ms": 1000 * statistics.quantiles(walls, n=10)[8],
        "ok_ratio": (attempted - results.failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def platform_info():
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": git_sha(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def environment(args, setup, passes):
    counts = {}
    for job in setup.jobs:
        counts[job["kind"]] = counts.get(job["kind"], 0) + 1
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **platform_info(),
        "job_list_sha256": setup.hash,
        "jobs_per_pass": len(setup.jobs),
        "passes": passes,
        "jobs_by_kind": dict(sorted(counts.items())),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=joblist.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.pop("GAUGESIM_THREADS", None)

    workdir = OUT / f"work-{os.getpid()}"
    try:
        setups = []
        for _ in range(SETUP_REPEATS):
            shutil.rmtree(workdir, ignore_errors=True)
            setups.append(Setup(args.workload, args.seed, workdir))
        setup = setups[-1]
        if args.trace:
            plain, results, tracer = traced(setup)
            passes = 1
            metrics = {**layer_metrics(tracer.spans, sum(w for _j, w, _r in results.records),
                                       sum(w for _j, w, _r in plain.records)),
                       **draw_rates(plain)}
            units = {name: per_layer_units(name) for name in metrics}
            attempted = len(plain.records) + len(results.records)
            failed = plain.failed + results.failed
        else:
            results, kernels = untraced(setup, args.seconds)
            passes = len(kernels)
            setup_seconds = [s.seconds for s in setups]
            metrics = end_to_end(setup_seconds, results, kernels)
            unscaled = end_to_end(setup_seconds, results, kernels, scale=False)
            units = END_TO_END
            attempted, failed = len(results.records), results.failed
    except ProgramMissing as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(args, setup, passes)
    summary = {"env": env, "attempted": attempted, "failed": failed, "metrics": metrics,
               "wall_s_by_kind": wall_by_kind(results),
               "failures": [{"id": job["id"], "argv": job["argv"], "reason": reason}
                            for job, _wall, reason in results.records if reason]}
    print(f"{args.workload}  seed {args.seed}  {attempted} jobs checked, {failed} failed, "
          f"{passes} pass(es) of {len(setup.jobs)} jobs")
    for name, value in metrics.items():
        print(f"  {name:32s} {value:14.6f} {units[name]}")
    if not args.trace:
        summary["unscaled_metrics"] = unscaled
        summary["kernel_median_s_by_pass"] = [statistics.median(k) for k in kernels]
        print("  unscaled: " + "  ".join(f"{name} {unscaled[name]:.6g}" for name in
                                         ("setup_s", "jobs_per_s", "job_p50_ms", "job_p90_ms")))
        print("  kernel median per pass (s): "
              + "  ".join(f"{statistics.median(k):.5f}" for k in kernels)
              + f"  reference {REFERENCE_KERNEL_S}")
    if args.trace:
        summary["self_time_shares"] = self_time_shares(tracer.spans, setup.jobs)
        for kind, shares in summary["self_time_shares"].items():
            print(f"  self time {kind:24s} " + "  ".join(f"{k} {v:.3f}" for k, v in shares.items()))
    print("env " + json.dumps(env))
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        tracer.dump(OUT / f"spans-{args.workload}-seed{args.seed}.json.gz", setup.jobs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
