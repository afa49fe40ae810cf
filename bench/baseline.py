"""Re-time the baseline rows quoted in ROADMAP.md, once, outside the benchmark.

    python3 bench/baseline.py

Writes bench/baseline.json: each row's ROADMAP figure beside the median of
fresh timings on this machine, with the run environment.  It is not part
of the repeated benchmark runs; rerun it by hand when the machine changes.
"""

from __future__ import annotations

import json
import statistics
from time import perf_counter

import run

ROWS = [
    # (name, ROADMAP seconds, repeats)
    ("solve_all_gauges epr-b-regular K=4", 0.19, 3),
    ("solve_all_gauges epr-b-regular K=5", 1.5, 3),
    ("solve_all_gauges epr-b-regular K=6", 11.6, 1),
    ("simulate super-ghz plan 2,final 10^4 runs", 3.2, 3),
    ("simulate pr-box one-step 10^6 runs", 0.17, 3),
]


def main():
    run.fresh_import()
    from gaugesim import catalog, collapse, solver

    plan = collapse.CollapsePlan.parse("2,final")
    tasks = [
        lambda: solver.solve_all_gauges(catalog.epr_b_regular(4)),
        lambda: solver.solve_all_gauges(catalog.epr_b_regular(5)),
        lambda: solver.solve_all_gauges(catalog.epr_b_regular(6)),
        lambda: collapse.simulate(catalog.super_ghz(), (0, 0, 1), 10**4, 1, plan=plan),
        lambda: collapse.simulate(catalog.pr_box(), (0, 1), 10**6, 1),
    ]
    rows = []
    for (name, roadmap_s, repeats), task in zip(ROWS, tasks):
        times = []
        for _ in range(repeats):
            start = perf_counter()
            task()
            times.append(perf_counter() - start)
        rows.append({"row": name, "roadmap_s": roadmap_s,
                     "measured_s": statistics.median(times), "repeats": repeats})
        print(f"{name:45s} ROADMAP {roadmap_s:7.2f} s   measured {rows[-1]['measured_s']:7.3f} s")
    path = run.HERE / "baseline.json"
    path.write_text(json.dumps({"env": run.platform_info(), "rows": rows}, indent=1) + "\n",
                    encoding="utf-8")
    print(f"wrote {path.relative_to(run.ROOT)}")


if __name__ == "__main__":
    main()
