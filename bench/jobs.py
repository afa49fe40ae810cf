"""Job lists for the three benchmark workloads, generated from a seed.

A job is a dict with a `kind` (the stratum it was drawn from), the CLI
`argv` handed to `gaugesim.cli.main`, and an `expect` record that the
output checks read.  Only `argv` and the system files reach the program.
Every stratum has a fixed job count, so two seeds give the same mix and
differ only in the parameters drawn inside each stratum.

System files for `table-analysis` are returned as JSON text keyed by a
file name; `{sysdir}` in an argv stands for the directory they are
written to, so the job list itself does not depend on where it runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from fractions import Fraction
from itertools import product

WORKLOADS = ("gauge-lp", "collapse-sim", "table-analysis")

SYSDIR = "{sysdir}"

# quasi-super-ghz at eps = k/128 is one-step feasible exactly for
# 8 <= k <= 32 - 8, i.e. eps in [1/16, 3/16].
QSG_DEN = 128
QSG_FEASIBLE = range(8, 25)
QSG_INFEASIBLE = [k for k in range(1, 32) if k not in QSG_FEASIBLE]
QSG_ENDPOINTS = (0, 32)

ONE_STEP_RUNS = 10**6
PLAN_RUNS = 2000

def generate(workload, seed):
    """(jobs, files) for one workload; the same seed gives the same lists."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "gauge-lp":
        jobs, files = _gauge_lp(rng), {}
    elif workload == "collapse-sim":
        jobs, files = _collapse_sim(rng), {}
    elif workload == "table-analysis":
        jobs, files = _table_analysis(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(jobs)
    for i, job in enumerate(jobs):
        job["id"] = i
    return jobs, files


def job_list_bytes(jobs, files):
    """Canonical serialization of a job list and its system files."""
    return json.dumps({"jobs": jobs, "files": files}, sort_keys=True,
                      separators=(",", ":")).encode()


def job_list_hash(jobs, files):
    return hashlib.sha256(job_list_bytes(jobs, files)).hexdigest()


def warmups(workload):
    """One small untimed job per verb the workload uses."""
    if workload == "gauge-lp":
        return [["gauges", "--catalog", "singlet", "--steps", "1"]]
    if workload == "collapse-sim":
        return [["collapse", "--catalog", "pr-box", "--settings", "0,1",
                 "--runs", "1000", "--seed", "0"]]
    return [
        ["validate", "--catalog", "ghz-xy"],
        ["classify", "--catalog", "ghz-xy"],
        ["metrics", "--catalog", "ghz-xy"],
        ["sweep", "--catalog", "quasi-super-ghz", "--locate-tsirelson"],
    ]


def _job(kind, argv, **expect):
    return {"kind": kind, "argv": argv, "expect": expect}


def _frac(value):
    return f"{value.numerator}/{value.denominator}"


# -- gauge-lp -----------------------------------------------------------------


def _angles(rng):
    """Three sorted distinct multiples of pi/20 in [0, pi/2].

    Every such triple is one-step feasible on the full index space and on
    the double-plateau working set.
    """
    steps = sorted(rng.sample(range(11), 3))
    return ",".join(repr(i * math.pi / 20) for i in steps)


def _gauges(kind, catalog, params, mode, expect_steps, support=None, infeasible=()):
    argv = ["gauges", "--catalog", catalog]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    if support:
        argv += ["--support", support]
    argv += ["--steps", mode]
    expect = {"catalog": catalog, "params": params, "mode": mode}
    if mode == "1" and infeasible:
        expect["infeasible"] = list(infeasible)
    else:
        expect["steps"] = 1 if mode == "1" else expect_steps
    return _job(kind, argv, **expect)


def _gauge_lp(rng):
    jobs = []
    all_six = list(range(6))
    for mode in ("1", "auto"):
        def qsg(kind, k):
            feasible = k in QSG_FEASIBLE
            jobs.append(_gauges(kind, "quasi-super-ghz", {"eps": f"{k}/{QSG_DEN}"}, mode,
                                1 if feasible else 2,
                                infeasible=() if feasible else all_six))

        # presolve removes most of the LP at the endpoints
        qsg("qsg-endpoint", rng.choice(QSG_ENDPOINTS))
        for _ in range(3):
            qsg("qsg-feasible", rng.choice(QSG_FEASIBLE))
            qsg("qsg-infeasible", rng.choice(QSG_INFEASIBLE))

        # shared-gauge hits: one LP serves every configuration
        jobs.append(_gauges("shared", "singlet", {}, mode, 1))
        jobs.append(_gauges("shared", "ghz-zzz", {}, mode, 1))
        jobs.append(_gauges("shared-w-xy", "w-xy", {}, mode, 1))
        for _ in range(2):
            probs = ",".join(f"{rng.randint(0, 8)}/8" for _ in range(5))
            jobs.append(_gauges("shared", "one-region", {"probs": probs}, mode, 1))
            # about a third of these parameters admit a shared gauge
            jobs.append(_gauges("bell2", "bell2", _bell2_params(rng), mode, 1))

        # the shared attempt fails first, then one LP per configuration
        for _ in range(2):
            jobs.append(_gauges("per-config", "pr-box", {}, mode, 1))
            jobs.append(_gauges("per-config", "bipartite2", {}, mode, 1))
        jobs.append(_gauges("per-config", "ghz-xy", {}, mode, 1))

        # float tables snapped to rationals for the LP
        for _ in range(2):
            jobs.append(_gauges("snapped", "epr-b", {"angles": _angles(rng)}, mode, 1))
        jobs.append(_gauges("epr-b-regular-k4", "epr-b-regular", {"k": "4"}, mode, 1))

    jobs.append(_gauges("qsg-endpoint", "super-ghz", {}, "1", 2, infeasible=all_six))
    jobs.append(_gauges("qsg-endpoint", "super-ghz", {}, "auto", 2))
    # the dense 20 x 1024 tableau that forms the tail
    jobs.append(_gauges("epr-b-regular-k5", "epr-b-regular", {"k": "5"}, "1", 1))
    # restricted support (only --steps 1 reads --support)
    for _ in range(5):
        jobs.append(_gauges("double-plateau", "epr-b", {"angles": _angles(rng)}, "1", 1,
                            support="double-plateau"))
    return jobs


def _bell2_params(rng):
    """q1, q2 in {1/4, 1/2, 3/4}; q3, q4 in [max(q1, q2), min(1, q1 + q2)]."""
    q1, q2 = (Fraction(rng.randint(1, 3), 4) for _ in range(2))
    lo, hi = max(q1, q2), min(Fraction(1), q1 + q2)
    grid = [Fraction(i, 8) for i in range(9) if lo <= Fraction(i, 8) <= hi]
    q3, q4 = rng.choice(grid), rng.choice(grid)
    return {"q1": _frac(q1), "q2": _frac(q2), "q3": _frac(q3), "q4": _frac(q4)}


# -- collapse-sim -------------------------------------------------------------


def _settings(rng, n, K):
    return ",".join(str(rng.randrange(K)) for _ in range(n))


def _collapse(kind, catalog, params, settings, runs, seed, plan=None):
    argv = ["collapse", "--catalog", catalog]
    for name, value in params.items():
        argv += ["--param", f"{name}={value}"]
    argv += ["--settings", settings, "--runs", str(runs), "--seed", str(seed)]
    if plan:
        argv += ["--plan", plan]
    return _job(kind, argv, catalog=catalog, params=params,
                settings=[int(s) for s in settings.split(",")], runs=runs, plan=plan)


def _collapse_sim(rng):
    jobs = []
    # one-step: vectorised draws after one gauge solve.  w-xy is left out, as
    # its 0.3 s LP would swamp the sampling.  The 20 singlet jobs sit in the
    # middle of the latency order and hold the median.
    for catalog, n, K, count in (("pr-box", 2, 2, 10), ("singlet", 2, 3, 20),
                                 ("ghz-xy", 3, 2, 13)):
        for _ in range(count):
            jobs.append(_collapse("one-step", catalog, {}, _settings(rng, n, K),
                                  ONE_STEP_RUNS, rng.randrange(2**31)))
    # plan: per-draw conditioning and a gauge-cache lookup on every run.  The
    # four `2,final` jobs are the cheapest plans and hold the 90th percentile.
    for plan in ("2,final",) * 4 + ("0,final", "0,1,final"):
        jobs.append(_collapse("plan", "super-ghz", {}, _settings(rng, 3, 2),
                              PLAN_RUNS, rng.randrange(2**31), plan=plan))
    k = rng.choice(QSG_INFEASIBLE)
    jobs.append(_collapse("plan", "quasi-super-ghz", {"eps": f"{k}/{QSG_DEN}"},
                          _settings(rng, 3, 2), PLAN_RUNS, rng.randrange(2**31),
                          plan=f"{rng.randrange(3)},final"))
    return jobs


# -- table-analysis -----------------------------------------------------------


def product_mixture(rng, n, K, components):
    """Convex mixture of product tables: locally consistent by construction.

    Weights are parts of 12, factor probabilities k/8 with 1 <= k <= 7, so
    every cell is positive and each cell is an integer over 12 * 8**n.
    """
    cuts = sorted(rng.sample(range(1, 12), components - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [12])]
    factors = [[[rng.randint(1, 7) for _ in range(K)] for _ in range(n)]
               for _ in range(components)]
    den = 12 * 8**n
    table = {}
    for u in product(range(K), repeat=n):
        for x in product((0, 1), repeat=n):
            num = 0
            for part, comp in zip(parts, factors):
                term = part
                for i in range(n):
                    k = comp[i][u[i]]
                    term *= k if x[i] == 0 else 8 - k
                num += term
            table[(x, u)] = Fraction(num, den)
    return table


def make_signalling(rng, table, n, K):
    """Move mass between two cells that differ in region 0's outcome.

    The cells sum to the same total, so normalization holds, but region
    0's marginal at that setting vector no longer matches the others.
    """
    u = tuple(rng.randrange(K) for _ in range(n))
    rest = tuple(rng.randrange(2) for _ in range(n - 1))
    a, b = ((0,) + rest, u), ((1,) + rest, u)
    delta = min(table[a], table[b]) / 2
    table = dict(table)
    table[a] += delta
    table[b] -= delta
    return table


def system_json(table, n, K, backend):
    entries = []
    for (x, u), p in sorted(table.items(), key=lambda item: (item[0][1], item[0][0])):
        value = float(p) if backend == "float" else _frac(p)
        entries.append({"x": list(x), "u": list(u), "p": value})
    data = {"n": n, "k": K, "labels": [f"s{k}" for k in range(K)],
            "scalar": backend, "table": entries}
    return json.dumps(data, separators=(",", ":"))


def _table_analysis(rng):
    jobs, files = [], {}

    def system(verb, n, K, backend="rational", components=3, signalling=False):
        table = product_mixture(rng, n, K, components)
        if signalling:
            table = make_signalling(rng, table, n, K)
        name = f"t{len(files):03d}.json"
        files[name] = system_json(table, n, K, backend)
        jobs.append(_job(f"{verb}-n{n}k{K}", [verb, "--system", f"{SYSDIR}/{name}"],
                         file=name, n=n, k=K, backend=backend, components=components,
                         signalling=signalling))

    # The order of cost is laid out so that the median and the 90th
    # percentile each fall inside a block of like jobs, whatever the number
    # of passes.  About a quarter of the systems use the float backend.
    # Jobs under about 30 ms come first ...
    for n, K, count in ((3, 2, 3), (3, 3, 3), (4, 2, 2)):
        system("validate", n, K, "float")
        for _ in range(count - 1):
            system("validate", n, K)
        system("validate", n, K, signalling=True)
    for backend in ("float", "rational"):
        system("classify", 3, 2, backend)
        system("classify", 3, 3, backend)
        system("classify", 3, 2, backend, components=1)
    # ... then 16 identical sweeps, which hold the median ...
    for _ in range(16):
        jobs.append(_job("sweep-tsirelson",
                         ["sweep", "--catalog", "quasi-super-ghz", "--locate-tsirelson"],
                         crossing=0.0366))
    # ... then slower jobs, with four rational metrics jobs at (3, 3)
    # holding the 90th percentile below the three slowest.
    for n, K in ((4, 3), (5, 2)):
        system("validate", n, K, "float")
        system("validate", n, K)
        system("validate", n, K, signalling=True)
    system("validate", 5, 3, "float")
    system("classify", 4, 2, "float")
    for n, K, count in ((4, 2, 2), (4, 3, 2), (5, 2, 1)):
        for _ in range(count):
            system("classify", n, K)
    # metrics takes tens of seconds at (4, 3) and (5, 2), so it stops at (4, 2)
    system("metrics", 3, 2, "float")
    for n, K, count in ((3, 2, 3), (3, 3, 4), (4, 2, 1)):
        for _ in range(count):
            system("metrics", n, K)
    return jobs, files
