"""Classical collapse execution and empirical statistics.

A one-step collapse draws an ignition state from the gauge distribution of
one uniformly chosen submitted configuration and projects every region's
outcome from its bits.  A multi-step collapse first resolves some regions
one at a time from their single-region marginals, conditioning after each
draw, and finishes with a one-step collapse of the residual subsystem, so a
`CollapsePlan` is its ordered tuple of leading regions (none: one step).

Both run on one engine.  `CompiledPlan` turns a plan under fixed settings
into its branch tree once; runs are then drawn from it as numpy arrays in
fixed blocks of `BLOCK_RUNS`.  Block `b` draws from Philox keyed by
`(seed, b)`, so the counts for a seed do not depend on how many threads map
over the blocks.  Unless told otherwise, runs of more than one block use
every CPU the process may run on (`usable_cpus`): the calling thread draws
blocks beside the workers of one thread pool per process, built on first
use, kept for later calls and replaced by a larger one when a call needs
more.  `one_step_run` and `multi_step_run` are single-run views of the same
tree; a run's trace sample is the plain dict the CLI prints, a step per
leader and then the gauge stage.  Outcomes are counted by their code,
which packs region `i`'s outcome at bit `i` (`ignition.outcome_codes`).

Ignition states are drawn by inversion with a guide table (Chen and Asau,
1974): each candidate's key range is cut into equal buckets that remember
their first entry, so most runs read their entry in one lookup, and only
runs whose bucket holds a CDF bound search for it.  The result is the same
entry, run for run, as a search over the whole CDF.  `simulate` never
builds that entry per run: it counts runs by bucket, credits each plain
bucket's count to its entry's outcome, and searches only the runs of
buckets that hold a bound.

On Philox a block reads its runs' leader draws, candidates and ignition
keys from one `random_raw` array, decoded in place.  `random()` is the top
53 bits of the next raw word over 2^53, so a leader outcome is an integer
compare and a key is the word's top bits; a candidate is NumPy's bounded
int32 draw (Lemire's multiply-shift) of the words' 32-bit halves, low half
first, and a half that draw rejects sends the block to `random()` and
`integers()`.  Counts are those of the float draw, bit for bit.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import numpy as np

from .errors import GaugeSimError, Infeasible, InfeasibleBranch, ValidationError
from .ignition import config_index, outcome_codes, state_array
from .model import branches, condition, float_column
from .scalars import RATIONAL
from .solver import continuous_gauge, solve_all_gauges


@dataclass(frozen=True)
class CollapsePlan:
    """Distinct leading regions, drawn and conditioned on in order before the
    final gauge stage; no leaders is the one-step plan."""

    leaders: tuple = ()

    def __post_init__(self):
        if len(set(self.leaders)) != len(self.leaders):
            raise ValidationError("leading regions must be distinct")

    @classmethod
    def parse(cls, text):
        """Parse '2,final' style CLI plans; 'final' alone is the one-step plan."""
        steps = []
        for part in str(text).split(","):
            part = part.strip().lower()
            try:
                steps.append(part if part == "final" else int(part))
            except ValueError:
                raise ValidationError(
                    f"plan steps are region numbers or 'final', got {part!r}"
                ) from None
        if steps[-1] != "final":
            raise ValidationError("a plan ends with exactly one final gauge stage")
        if "final" in steps[:-1]:
            raise ValidationError("only leading-region steps may precede the final stage")
        return cls(tuple(steps[:-1]))


def _leader_positions(plan, n):
    """(region, its position among the regions still unresolved) per leader of
    `plan`, and the regions left for the final stage."""
    remaining, steps = list(range(n)), []
    for region in plan.leaders:
        # leaders are distinct, so one in range is unresolved
        if not 0 <= region < n:
            raise ValidationError(f"leading region {region} out of range for n={n}")
        steps.append((region, remaining.index(region)))
        remaining.remove(region)
    return steps, remaining


class EmpiricalTable:
    """Outcome counts per setting vector."""

    def __init__(self):
        self.counts = {}
        self.total = {}

    def add(self, u, x, amount=1):
        per_u = self.counts.setdefault(tuple(u), {})
        per_u[tuple(x)] = per_u.get(tuple(x), 0) + amount
        self.total[tuple(u)] = self.total.get(tuple(u), 0) + amount

    def frequency(self, u, x):
        u = tuple(u)
        n = self.total.get(u, 0)
        if n == 0:
            return 0.0
        return self.counts[u].get(tuple(x), 0) / n

    def tv_distance(self, system, u):
        """Total variation distance between frequencies and P(.|u)."""
        u = system.setting_indices(u)
        return 0.5 * sum(
            abs(self.frequency(u, x) - p)
            for x, p in zip(system.outcome_vectors(), float_column(system, u))
        )

    def as_dict(self):
        return {
            "counts": [
                {
                    "u": list(u),
                    "outcomes": {"".join(map(str, x)): c for x, c in sorted(per_u.items())},
                    "runs": self.total[u],
                }
                for u, per_u in sorted(self.counts.items())
            ]
        }


BLOCK_RUNS = 1 << 16
GUIDE_BITS = 12


def make_rng(seed):
    """Counter-based generator for single runs seeded by one integer."""
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _block_rng(seed, block):
    """Generator of run block `block`: Philox keyed by (seed, block)."""
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence(seed, spawn_key=(block,)))
    )


def usable_cpus():
    """CPUs this process may run on: its affinity set where the platform
    has one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


_kept = (None, 0, None)  # (pid, workers, pool) of the kept pool
_kept_lock = threading.Lock()  # held from each `_pool` call through its submits


def _pool(workers):
    """The kept pool of this process, replaced when it has fewer than `workers` threads or
    is a forked parent's (whose workers the child lacks); a replaced pool still runs its blocks."""
    global _kept
    pid, size, pool = _kept
    if pid != os.getpid() or size < workers:
        if pid == os.getpid():
            pool.shutdown(wait=False)
        pool = ThreadPoolExecutor(workers, thread_name_prefix="gaugesim-blocks")
        _kept = (os.getpid(), workers, pool)
    return pool


def _run_blocks(runs, seed, threads, draw, cells):
    """Sum `draw(rng, size)` count vectors over the fixed blocks of `runs`.

    The calling thread and `threads - 1` workers of the kept pool (`threads`
    None: `usable_cpus()`) claim blocks in order until none is left, so the
    caller draws rather than waits; a single block starts no worker.  A
    failed block ends the claims, and every lower block was claimed before
    it, so the error raised is the lowest failing block's, whatever the
    thread count.  `draw` also runs on the workers, so it must call no traced function."""
    sizes = [min(BLOCK_RUNS, runs - start) for start in range(0, runs, BLOCK_RUNS)]
    errors = {}
    claims = iter(range(len(sizes)))
    lock = threading.Lock()

    def end_claims():
        with lock:
            for _ in claims:
                pass

    def work():
        total = np.zeros(cells, dtype=np.int64)
        while True:
            with lock:
                block = next(claims, None)
            if block is None:
                return total
            try:
                total += draw(_block_rng(seed, block), sizes[block])
            except Exception as exc:
                errors[block] = exc
                end_claims()

    if threads is None:
        threads = usable_cpus()
    helpers = min(threads, len(sizes)) - 1
    with _kept_lock:
        futures = [_pool(threads - 1).submit(work) for _ in range(helpers)]
    totals = []
    try:
        totals.append(work())
    finally:
        end_claims()  # an interrupt of the caller leaves the workers no block
        totals += [future.result() for future in futures]
    if errors:
        raise errors[min(errors)]
    return sum(totals)


def _leader_cut(p0):
    """`ceil(p0 * 2^53)`: `random() >= p0` exactly when `raw >> 11` reaches it."""
    return np.ceil(np.asarray(p0) * 2.0 ** 53).astype(np.uint64)


def _add_candidates(key, words, width, scale):
    """Add run i's candidate `floor(u * width / 2^32)` (NumPy's bounded int32
    draw, Lemire's) from the i-th 32-bit half u of `words` (overwritten), low
    half first, shifted left by `scale`, to the uint64 `key`.  False when some
    u is one that draw rejects, `(u * width) mod 2^32 < (2^32 - width) mod width`.
    """
    if width == 1:
        return True
    halves = words.view(np.uint32)[:key.size]
    top = 33 - width.bit_length()  # a power of two is the top 32 - top bits
    if width == 1 << (32 - top) and scale <= top:  # never rejected; shifted in place
        np.right_shift(halves, top - scale, out=halves)
        key |= np.bitwise_and(halves, (width - 1) << scale, out=halves)
        return True
    product = np.multiply(halves, width, dtype=np.uint64)
    np.right_shift(product, 32, out=product)
    key += np.left_shift(product, scale, out=product)
    reject = (2**32 - width) % width
    return not reject or np.multiply(halves, width, out=halves).min() >= reject


def _outcome_bits(code, n):
    """Outcome vector of an n-bit code; region i is bit i."""
    return tuple((code >> i) & 1 for i in range(n))


def _counts_table(u, counts, n):
    table = EmpiricalTable()
    for code in np.flatnonzero(counts):
        table.add(u, _outcome_bits(int(code), n), int(counts[code]))
    return table


class GaugeCache:
    """Memoized one-step gauge sets keyed by the system's canonical table."""

    def __init__(self):
        self._cache = {}

    def get(self, system):
        key = system.canonical_key()
        if key not in self._cache:
            self._cache[key] = solve_all_gauges(system)
        return self._cache[key]


class CompiledPlan:
    """A plan's branch tree under fixed settings, laid out for array draws.

    Each leading step conditions exactly once per branch its float marginal
    can draw; each leaf takes its residual gauge set from `cache` (or
    `gauges`, for a plan without leaders).  A branch that conditioning
    rejects, an infeasible leaf and an unsubmitted `force_gamma` are kept on
    the leaves they affect and raised only when a run reaches one.

    Leaf `l` numbers the path of leader outcomes in binary, first leader
    most significant.  Candidate `c` of leaf `l` owns segment
    `s = l * len(candidates) + c` of one concatenated integer CDF: entry
    `bounds` rise from `s << bits` to `(s + 1) << bits`, so a run's segment
    and its ignition key, its uniform scaled to `bits` bits, form one full
    key; a run draws the first entry whose bound exceeds its full key.  The
    guide table finds it: each segment is cut into `2^g` equal buckets (at
    most `2^GUIDE_BITS` in all), `guide[b]` is the entry of bucket `b`'s
    lowest key, and `refine[b]` marks the buckets with a bound strictly
    inside them (`refined` lists them), whose runs alone search `bounds`.
    Per entry, `states`, `codes` (n-bit outcome code, region i at bit i)
    and the exact gauge `weights` are kept; `guide_codes[b]` is the code of
    `guide[b]`, and `branch_probs` holds each leaf's exact probability.
    Leaves that are unreachable or carry an error hold one placeholder
    entry per segment.

    `_keys` draws full keys (leader leaf, segment, ignition key) with
    `random()` and `integers()` for the per-run entries of `draw`, which
    `run` traces.  The bucket counts of `counts`, which `simulate` sums,
    decode the same keys from a Philox block's raw words (`_decode`), and
    use `_keys` for any other source (`_ScalarDraws`, test doubles).
    """

    def __init__(self, system, plan, u, force_gamma=None, cache=None, gauges=None):
        cache = cache or GaugeCache()
        u = system.setting_indices(u)
        n, K = system.n, system.num_settings
        steps, remaining = _leader_positions(plan or CollapsePlan(), n)
        residual_u = tuple(u[r] for r in remaining)
        self.n = n
        self.leaders = tuple((region, u[region]) for region, _pos in steps)
        self.candidates = tuple(config_index(i, s, K) for i, s in enumerate(residual_u))
        self.forced, unsubmitted = None, None
        if force_gamma in self.candidates:
            self.forced = self.candidates.index(force_gamma)
        elif force_gamma is not None:
            unsubmitted = ValidationError(
                f"configuration {force_gamma} is not submitted under settings {residual_u}"
            )

        # nodes of one depth: (subsystem or None, exact reach probability, error)
        level = [(system, Fraction(1) if system.backend == RATIONAL else 1.0, None)]
        self.p0 = []
        for depth, (region, pos) in enumerate(steps):
            p0 = np.full(len(level), 0.5)
            children = []
            for node, (current, prob, error) in enumerate(level):
                if current is None:
                    children += [(None, prob / 2, error)] * 2
                    continue
                marg = current.region_marginal(pos, u[region])
                p0[node] = float(marg[0])
                # a run reads outcome 1 exactly when its uniform is at least p0
                for outcome, drawn in ((0, p0[node] > 0), (1, p0[node] < 1)):
                    child, error = None, None
                    if drawn:
                        try:
                            child = condition(current, pos, u[region], outcome)
                        except ValidationError as exc:
                            error = InfeasibleBranch(depth, str(exc))
                        except GaugeSimError as exc:
                            error = exc
                    children.append((child, prob * marg[outcome], error))
            self.p0.append(p0)
            level = children

        width, m = len(self.candidates), len(steps)
        self.bits = min(53, 62 - (len(level) * width).bit_length())
        bounds, states, codes, self.weights, self.errors = [], [], [], [], []
        # an entry's local code is its residual code with the leaf number above
        # it; bit p of a local code is the outcome of full-system region regions[p]
        regions = remaining + [region for region, _pos in reversed(steps)]
        spread = np.array([sum(((c >> p) & 1) << r for p, r in enumerate(regions))
                           for c in range(1 << n)], dtype=np.int64)
        for leaf, (current, _prob, error) in enumerate(level):
            if current is not None and error is None:
                try:
                    gauge_set = gauges if gauges is not None and not steps else cache.get(current)
                except Infeasible as exc:
                    error = InfeasibleBranch(m, str(exc))
                else:
                    error = unsubmitted
            self.errors.append(error)
            for c, gamma in enumerate(self.candidates):
                items = [(0, 1)] if error is not None or current is None else [
                    (j, w) for j, w in sorted(gauge_set.by_gamma(gamma).weights.items()) if w > 0
                ]
                cumulative = np.cumsum([float(w) for _j, w in items])
                scaled = np.rint(cumulative / cumulative[-1] * float(1 << self.bits))
                scaled[-1] = 1 << self.bits
                bounds.extend(((leaf * width + c) << self.bits) + scaled.astype(np.int64))
                residual = outcome_codes([j for j, _w in items], residual_u, K)
                codes.extend(spread[residual | (leaf << len(remaining))])
                states.extend(j for j, _w in items)
                self.weights.extend(w for _j, w in items)
        self.branch_probs = [prob for _current, prob, _error in level]
        self.failing = np.array([e is not None for e in self.errors])
        self.bounds = np.array(bounds, dtype=np.int64)
        self.states = state_array(states)
        self.codes = np.array(codes, dtype=np.int64)
        # guide table: 2^g buckets per segment, at most 2^GUIDE_BITS in all
        segments = len(level) * width
        self.g = max(0, min(self.bits, GUIDE_BITS - (segments - 1).bit_length()))
        starts = np.arange(segments << self.g, dtype=np.int64) << (self.bits - self.g)
        self.guide = np.searchsorted(self.bounds, starts, side="right")
        ends = starts + ((1 << (self.bits - self.g)) - 1)
        self.refine = np.searchsorted(self.bounds, ends, side="right") != self.guide
        self.refined = np.flatnonzero(self.refine)
        self.guide_codes = self.codes[self.guide]
        # keys of counted runs: full when a refined bucket may search, else bucket bits
        self.scale = self.bits if self.refined.size else self.g
        self.cuts = [_leader_cut(p0) for p0 in self.p0]

    def _reach(self, leaf):
        """Raise the error of the first run whose leaf carries one."""
        if self.failing.any():
            hit = self.failing[leaf]
            if hit.any():
                raise self.errors[int(leaf[hit.argmax()])]

    def _keys(self, rng, size):
        """Full keys `(segment << bits) | ignition key` of `size` runs drawn
        with `random()` and `integers()`: leader uniforms, candidate, ignition."""
        leaf = np.zeros(1, dtype=np.int64)  # one element until a leader splits it
        lead = rng.random((len(self.p0), size))
        for depth, p0 in enumerate(self.p0):
            leaf = 2 * leaf + (lead[depth] >= p0[leaf])
        self._reach(leaf)
        width = len(self.candidates)
        if self.forced is not None:
            segment = leaf * width + self.forced
        else:
            segment = leaf * width + rng.integers(0, width, size, dtype=np.int32)
        return (segment << self.bits) | (rng.random(size) * float(1 << self.bits)).astype(np.int64)

    def draw(self, rng, size):
        """Entry index of `size` runs drawn from `rng`."""
        key = self._keys(rng, size)
        bucket = key >> (self.bits - self.g)
        entry = self.guide[bucket]
        slow = np.flatnonzero(self.refine[bucket])
        if slow.size:
            entry[slow] = np.searchsorted(self.bounds, key[slow], side="right")
        return entry

    def counts(self, rng, size):
        """Outcome-code counts of `size` runs drawn from `rng`, counted by
        bucket: `_decode` on Philox, else (or after a rejected candidate word,
        from the restored state) through `_keys`."""
        bit_generator = getattr(rng, "bit_generator", None)
        if isinstance(bit_generator, np.random.Philox):
            state = bit_generator.state
            drawn = self.forced is None and len(self.candidates) > 1
            words = bit_generator.random_raw((len(self.p0) + 1) * size + drawn * ((size + 1) // 2))
            counts = self._decode(words, size)
            if counts is not None:
                return counts
            bit_generator.state = state
        return self._tally(self._keys(rng, size) >> (self.bits - self.scale))

    def _decode(self, words, size):
        """Counts of `size` runs from a block's raw Philox words (overwritten),
        or None if NumPy would reject a candidate word.  In draw order: a row
        per leader, the candidate words unless forced or alone, a key word per run.
        """
        m, width, scale = len(self.p0), len(self.candidates), self.scale
        key = np.right_shift(words[-size:], 64 - scale, out=words[-size:])
        leaf = np.zeros(1, dtype=np.uint64)  # one element until a leader splits it
        lead = np.right_shift(words[:m * size], 11, out=words[:m * size]).reshape(m, size)
        for row, cut in zip(lead, self.cuts):
            np.greater_equal(row, cut[leaf], out=row)
            row |= np.left_shift(leaf, 1, out=leaf)
            leaf = row
        self._reach(leaf)
        if self.forced is not None:
            key += self.forced << scale
        elif not _add_candidates(key, words[m * size:-size], width, scale):
            return None
        if m:
            key += np.multiply(leaf, width << scale, out=leaf)
        return self._tally(key.view(np.int64))

    def _tally(self, key):
        """Outcome-code counts of runs by their keys at `scale` bits: each
        plain bucket's count goes to its guide entry's code, and runs in
        refined buckets search `bounds`."""
        bucket = key >> (self.bits - self.g) if self.refined.size else key
        per_bucket = np.bincount(bucket, minlength=self.guide.size)
        counts = np.zeros(1 << self.n, dtype=np.int64)
        if per_bucket[self.refined].any():
            entries = np.searchsorted(self.bounds, key[self.refine[bucket]], side="right")
            counts += np.bincount(self.codes[entries], minlength=counts.size)
            per_bucket[self.refined] = 0
        counts += np.bincount(self.guide_codes, weights=per_bucket,
                              minlength=counts.size).astype(np.int64)
        return counts

    def run(self, rng):
        """One run drawn with scalar calls on `rng`: its outcome and its trace
        sample, `{"steps": [...], "outcome": [...]}`, a step per leader then the gauge stage."""
        entry = int(self.draw(_ScalarDraws(rng), 1)[0])
        segment = (int(self.bounds[entry]) - 1) >> self.bits
        x = _outcome_bits(int(self.codes[entry]), self.n)
        steps = [{"kind": "lead", "region": region, "setting": setting, "outcome": x[region]}
                 for region, setting in self.leaders]
        steps.append({"kind": "gauge", "gamma": self.candidates[segment % len(self.candidates)],
                      "ignition": int(self.states[entry])})
        return x, {"steps": steps, "outcome": list(x)}


class _ScalarDraws:
    """Array-shaped draws made of scalar calls, for one run.

    Calls only `random()` and `integers(low, high)`, in run order, so any
    generator with those two methods can drive a single run.
    """

    def __init__(self, rng):
        self.rng = rng

    def random(self, shape):
        count = int(np.prod(shape))
        return np.array([float(self.rng.random()) for _ in range(count)]).reshape(shape)

    def integers(self, low, high, size, dtype=np.int64):
        return np.array([int(self.rng.integers(low, high)) for _ in range(size)], dtype=dtype)


def one_step_run(system, gauges, u, rng, force_gamma=None):
    """Single collapse: uniform gauge choice, one ignition draw, projection;
    the outcome and its trace sample (`CompiledPlan.run`)."""
    return CompiledPlan(system, None, u, force_gamma, gauges=gauges).run(rng)


def multi_step_run(system, plan, u, rng, cache=None, force_gamma=None):
    """Cascaded collapse following a plan, leading draws then a gauge stage;
    the outcome and its trace sample (`CompiledPlan.run`)."""
    return CompiledPlan(system, plan, u, force_gamma, cache).run(rng)


def plan_joint_probability(system, plan, u, x):
    """Exact joint law of a plan: product of branch laws.

    Multiplies each leading region's marginal by the conditioned residual
    probability; equals P(x|u) for valid systems (checked symbolically in
    tests, independent of any sampling).
    """
    u = system.setting_indices(u)
    x = tuple(x)
    if len(x) != system.n or not all(o in (0, 1) for o in x):
        raise ValidationError(f"expected {system.n} outcomes, each 0 or 1, got {x}")
    steps, remaining = _leader_positions(plan, system.n)
    current = system
    acc = Fraction(1) if system.backend == RATIONAL else 1.0
    for region, pos in steps:
        prob = current.region_marginal(pos, u[region])[x[region]]
        if prob == 0:
            return prob  # branch never taken; joint probability is zero
        acc *= prob
        current = condition(current, pos, u[region], x[region])
    return acc * current.prob(tuple(x[r] for r in remaining), tuple(u[r] for r in remaining))


@dataclass
class StepCertificate:
    """Minimal feasible step count with its plan and per-branch gauge sets."""

    steps: int
    plan: CollapsePlan
    branch_gauges: dict  # conditioning chain tuple -> GaugeSet

    def as_dict(self):
        return {
            "steps": self.steps,
            "leaders": list(self.plan.leaders),
            "branches": {
                "/".join(f"r{r}k{k}x{x}" for r, k, x in chain) or "root": [
                    d.to_dict() for d in gauges
                ]
                for chain, gauges in self.branch_gauges.items()
            },
        }


def find_min_steps(system, cache=None):
    """Smallest m admitting an m-step collapse, with a feasibility certificate.

    Leading-region orders are explored depth-first (lexicographic), and
    gauge feasibility of conditioned subsystems is memoized on their
    canonical tables.  Any n-region system collapses in at most n steps.
    """
    cache = cache or GaugeCache()
    n = system.n

    def feasible(current, leaders, chain, collected):
        """True when every reachable branch admits a one-step final stage."""
        if not leaders:
            try:
                collected[chain] = cache.get(current)
                return True
            except Infeasible:
                return False
        head, rest = leaders[0], leaders[1:]
        pos = [r for r in range(n) if r not in [c[0] for c in chain]].index(head)
        for setting, outcome, branch in branches(current, pos):
            if not feasible(branch, rest, chain + ((head, setting, outcome),), collected):
                return False
        return True

    for m in range(1, n + 1):
        for leaders in permutations(range(n), m - 1):
            collected = {}
            if feasible(system, leaders, (), collected):
                return StepCertificate(m, CollapsePlan(leaders), collected)
    raise AssertionError("an n-region system always collapses in n steps")


def simulate(system, u, runs, seed, gauges=None, plan=None, force_gamma=None,
             streams=None, cache=None, compiled=None):
    """Monte-Carlo collapse harness returning empirical outcome counts.

    The plan (one-step when omitted) is compiled once and every run is drawn
    from its tree in seed-keyed blocks; `compiled`, the `CompiledPlan` of
    the same system, plan, settings and forced gauge, is drawn from instead
    when given.  `streams` is the number of threads mapping over the
    blocks, all usable CPUs when None; the counts depend only on the seed.
    Without a plan or leaders, a system with no one-step gauges raises
    Infeasible.
    """
    if runs < 1:
        raise ValidationError("runs must be at least 1")
    u = system.setting_indices(u)
    tree = compiled
    if tree is None:
        cache = cache or GaugeCache()
        if gauges is None and (plan is None or not plan.leaders):
            gauges = cache.get(system)
        tree = CompiledPlan(system, plan, u, force_gamma, cache, gauges)
    counts = _run_blocks(runs, seed, streams, tree.counts, 1 << system.n)
    return _counts_table(u, counts, system.n)


def simulate_continuous(theta_pair, runs, seed, force_setting=None, streams=None):
    """Sampled two-region collapse for continuous settings.

    Draws the ignition angle from the gauge density of one of the two
    submitted settings (uniformly chosen unless forced) and projects both
    outcomes with the square-wave projection.  Runs are drawn in the same
    seed-keyed blocks as `simulate`, on `streams` threads (None: all usable
    CPUs).
    """
    theta_a, theta_b = float(theta_pair[0]), float(theta_pair[1])
    base = continuous_gauge(0.0)

    def draw(rng, size):
        if force_setting is None:
            igni = rng.integers(0, 2, size)
        else:
            igni = np.full(size, int(force_setting))
        theta_igni = np.where(igni == 0, theta_a, theta_b)
        nu = base.sample(rng, size)  # base density around 0; shift per run
        lam = (nu + theta_igni) % (2.0 * math.pi)
        x0 = (np.cos(theta_a - lam) >= 0).astype(np.int64)
        x1 = (np.cos(theta_b - lam) >= 0).astype(np.int64)
        return np.bincount(x0 + 2 * x1, minlength=4)

    counts = _run_blocks(runs, seed, streams, draw, 4)
    return _counts_table((theta_a, theta_b), counts, 2)
