"""Output checks for benchmark jobs, run outside the timed region.

Each check takes the job, the exit code and the parsed JSON report, and
returns None when the answer is right or a one-line reason when it is not.
The checks verify properties of the answer, never a particular answer:
any gauge vertex that reconstructs the table passes, and sampled counts
are judged against the exact law with bounds of several standard errors,
so a correct change to the solver or to the random keying still passes.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from itertools import product

FLOAT_TOL = 1e-9
# Per-cell bound in standard errors.  Total variation gets the bound
# sum(se)/2 on its mean plus sqrt(ln(1e9) / 2N): one draw moves it by at
# most 1/N, so by McDiarmid's inequality a correct sampler exceeds the
# bound with probability below 1e-9.
CELL_Z = 6.0
TV_TAIL = math.log(1e9) / 2
TSIRELSON_CROSSING = 0.0366
CROSSING_TOL = 5e-4
CLASSICAL_CHSH = 2.0


class Table:
    """P(x|u) as a dict, with the shape and scalar backend of the system."""

    def __init__(self, n, K, backend, probs):
        self.n, self.K, self.backend, self.probs = n, K, backend, probs

    @classmethod
    def from_system(cls, system):
        return cls(system.n, system.num_settings, system.backend, dict(system.targets()))

    @classmethod
    def from_json(cls, text):
        data = json.loads(text)
        rational = data.get("scalar", "rational") == "rational"
        probs = {(tuple(e["x"]), tuple(e["u"])): Fraction(e["p"]) if rational else float(e["p"])
                 for e in data["table"]}
        return cls(data["n"], data["k"], data["scalar"], probs)

    def equal(self, a, b):
        if self.backend == "rational":
            return a == b
        return abs(float(a) - float(b)) <= FLOAT_TOL

    def condition(self, pos, setting, outcome):
        """(probability of the branch, conditioned table) for one region."""
        n = self.n
        u0 = tuple(setting if i == pos else 0 for i in range(n))
        marg = sum(p for (x, u), p in self.probs.items() if u == u0 and x[pos] == outcome)
        if marg <= 0:
            return marg, None
        probs = {}
        for (x, u), p in self.probs.items():
            if u[pos] == setting and x[pos] == outcome:
                probs[(x[:pos] + x[pos + 1:], u[:pos] + u[pos + 1:])] = p / marg
        return marg, Table(n - 1, self.K, self.backend, probs)


def _parse_weight(value):
    return Fraction(value) if isinstance(value, str) else Fraction(float(value))


def check_gauge_set(table, gauges):
    """Every target is reconstructed by every compatible distribution."""
    n, K = table.n, table.K
    gammas = [g.get("gamma") for g in gauges]
    if sorted(gammas) != list(range(n * K)):
        return f"gauge set covers configurations {gammas}, expected 0..{n * K - 1}"
    for dist in gauges:
        support = [int(j) for j in dist["support"]]
        weights = [_parse_weight(w) for w in dist["weights"]]
        if len(support) != len(weights) or len(set(support)) != len(support):
            return f"configuration {dist['gamma']}: malformed support"
        if any(j < 0 or j >= 1 << (n * K) for j in support):
            return f"configuration {dist['gamma']}: ignition index out of range"
        if any(w < 0 for w in weights):
            return f"configuration {dist['gamma']}: negative weight"
        i0, k0 = divmod(dist["gamma"], K)
        for (x, u), p in table.probs.items():
            if u[i0] != k0:
                continue
            shifts = [ui + i * K for i, ui in enumerate(u)]
            total = sum(w for j, w in zip(support, weights)
                        if all((j >> s) & 1 == xi for s, xi in zip(shifts, x)))
            if not table.equal(total, p):
                return (f"configuration {dist['gamma']}: P{x}|{u} reconstructed as "
                        f"{float(total)!r}, table has {float(p)!r}")
    return None


def check_gauges(job, rc, report, table):
    expect = job["expect"]
    if "infeasible" in expect:
        if rc != 3 or report.get("error") != "infeasible":
            return f"expected exit 3 (infeasible), got {rc}"
        if sorted(report.get("gammas", [])) != expect["infeasible"]:
            return f"infeasible configurations {report.get('gammas')}, expected {expect['infeasible']}"
        return None
    if rc != 0:
        return f"expected exit 0, got {rc}"
    if report.get("steps") != expect["steps"]:
        return f"steps {report.get('steps')}, expected {expect['steps']}"
    if expect["mode"] == "1":
        return check_gauge_set(table, report.get("gauges", []))
    return _check_certificate(table, report)


def _check_certificate(table, report):
    """Each positive-probability branch of the plan has a valid gauge set."""
    leaders = report.get("leaders", [])
    if len(leaders) != report["steps"] - 1 or len(set(leaders)) != len(leaders):
        return f"leaders {leaders} do not fit {report['steps']} steps"
    expected = {}

    def walk(current, remaining, chain):
        if len(chain) == len(leaders):
            expected["/".join(f"r{r}k{k}x{x}" for r, k, x in chain) or "root"] = current
            return
        head = leaders[len(chain)]
        pos = remaining.index(head)
        for setting in range(current.K):
            for outcome in (0, 1):
                prob, branch = current.condition(pos, setting, outcome)
                if prob > 0:
                    walk(branch, remaining[:pos] + remaining[pos + 1:],
                         chain + ((head, setting, outcome),))

    walk(table, list(range(table.n)), ())
    branches = report.get("branches", {})
    if set(branches) != set(expected):
        return f"certificate branches {sorted(branches)}, expected {sorted(expected)}"
    for key, sub in expected.items():
        reason = check_gauge_set(sub, branches[key])
        if reason:
            return f"branch {key}: {reason}"
    return None


def check_collapse(job, rc, report, table):
    expect = job["expect"]
    if rc != 0:
        return f"expected exit 0, got {rc}"
    runs, u = expect["runs"], tuple(expect["settings"])
    counts = report.get("counts", [])
    if report.get("runs") != runs or len(counts) != 1 or tuple(counts[0]["u"]) != u:
        return "report does not describe the requested runs and settings"
    outcomes = counts[0]["outcomes"]
    if sum(outcomes.values()) != runs or counts[0]["runs"] != runs:
        return f"counts sum to {sum(outcomes.values())}, expected {runs}"
    cells = {"".join(map(str, x)): float(table.probs[(x, u)])
             for x in product((0, 1), repeat=table.n)}
    if set(outcomes) - set(cells):
        return f"unknown outcome keys {sorted(set(outcomes) - set(cells))}"
    tv, tv_bound = 0.0, math.sqrt(TV_TAIL / runs)
    for key, p in cells.items():
        c = outcomes.get(key, 0)
        if p == 0 and c:
            return f"{c} draws landed on zero-probability outcome {key}"
        se = math.sqrt(p * (1 - p) / runs)
        if abs(c / runs - p) > CELL_Z * se + 1 / runs:
            return f"outcome {key}: frequency {c / runs:.5f} against probability {p:.5f}"
        tv += 0.5 * abs(c / runs - p)
        tv_bound += 0.5 * se
    if tv > tv_bound:
        return f"total variation {tv:.5f} exceeds {tv_bound:.5f}"
    return None


def check_validate(job, rc, report, table):
    consistent = not job["expect"]["signalling"]
    if rc != (0 if consistent else 2) or report.get("locally_consistent") is not consistent:
        return f"validate gave exit {rc}, locally_consistent={report.get('locally_consistent')}"
    return None


def check_classify(job, rc, report, table):
    if rc != 0:
        return f"expected exit 0, got {rc}"
    verdict = report.get("verdict")
    if verdict not in ("separable", "entangled-quantum-compatible"):
        return f"verdict {verdict!r} on a mixture of product tables"
    if job["expect"]["components"] == 1 and verdict != "separable":
        return f"verdict {verdict!r} on a product table"
    witness = report.get("witness")
    if witness and witness["chsh"] > CLASSICAL_CHSH + FLOAT_TOL:
        return f"witness CHSH {witness['chsh']} above 2 on a local mixture"
    return None


def joint_entropy(table, u, regions):
    dist = {}
    for x in product((0, 1), repeat=table.n):
        key = tuple(x[i] for i in regions)
        dist[key] = dist.get(key, 0.0) + float(table.probs[(x, u)])
    return -sum(p * math.log2(p) for p in dist.values() if p > 0)


def check_metrics(job, rc, report, table):
    if rc != 0:
        return f"expected exit 0, got {rc}"
    n = table.n
    verdict = report.get("classification", {}).get("verdict")
    if verdict == "super-quantum-detected":
        return "super-quantum verdict on a mixture of product tables"
    for u in product(range(table.K), repeat=n):
        key = ",".join(map(str, u))
        atoms = {int(m): v for m, v in report["atoms"][key].items()}
        if sorted(atoms) != list(range(1, 1 << n)):
            return f"settings {key}: atoms {sorted(atoms)}"
        for mask in range(1, 1 << n):
            h = joint_entropy(table, u, [i for i in range(n) if mask >> i & 1])
            rebuilt = sum(v for a, v in atoms.items() if a & mask)
            if abs(rebuilt - h) > FLOAT_TOL:
                return f"settings {key}: atoms rebuild H({mask}) as {rebuilt!r}, expected {h!r}"
        if abs(report["s1"][key] - joint_entropy(table, u, range(n))) > FLOAT_TOL:
            return f"settings {key}: joint entropy {report['s1'][key]!r}"
    return None


def check_sweep(job, rc, report, table):
    if rc != 0:
        return f"expected exit 0, got {rc}"
    crossing = report.get("tsirelson_crossing")
    if not isinstance(crossing, float) or abs(crossing - TSIRELSON_CROSSING) > CROSSING_TOL:
        return f"Tsirelson crossing {crossing!r}, expected {TSIRELSON_CROSSING} +- {CROSSING_TOL}"
    return None


CHECKS = {
    "gauges": check_gauges,
    "collapse": check_collapse,
    "validate": check_validate,
    "classify": check_classify,
    "metrics": check_metrics,
    "sweep": check_sweep,
}


def check(job, rc, output, table):
    """Reason the job's answer is wrong, or None."""
    try:
        report = json.loads(output) if output.strip() else {}
    except json.JSONDecodeError:
        return "report is not JSON"
    try:
        return CHECKS[job["argv"][0]](job, rc, report, table)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
