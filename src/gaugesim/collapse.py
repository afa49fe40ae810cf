"""Classical collapse execution and empirical statistics.

A one-step collapse draws an ignition state from the gauge distribution of
one uniformly chosen submitted configuration and projects every region's
outcome from its bits.  A multi-step collapse first resolves some regions
one at a time from their single-region marginals, conditioning after each
draw, and finishes with a one-step collapse of the residual subsystem.

Both run on one engine.  `CompiledPlan` turns a plan under fixed settings
into its branch tree once; runs are then drawn from it as numpy arrays in
fixed blocks of `BLOCK_RUNS`.  Block `b` draws from Philox keyed by
`(seed, b)`, so the counts for a seed do not depend on how many threads map
over the blocks.  Unless told otherwise, runs of more than one block use
every CPU the process may run on (`usable_cpus`): the calling thread draws
blocks beside the workers of a thread pool that is built on first use and
kept for later calls.  `one_step_run` and `multi_step_run` are single-run
views of the same tree.  Outcomes are counted by their code, which packs
region `i`'s outcome at bit `i` (`ignition.outcome_codes`).

Ignition states are drawn by inversion with a guide table (Chen and Asau,
1974): each candidate's key range is cut into equal buckets that remember
their first entry, so most runs read their entry in one lookup, and only
runs whose bucket holds a CDF bound search for it.  The result is the same
entry, run for run, as a search over the whole CDF.  `simulate` never
builds that entry per run: it counts runs by bucket, credits each plain
bucket's count to its entry's outcome, and searches only the runs of
buckets that hold a bound.

A run's ignition key is its uniform `random()` scaled to the key's bits
and truncated.  On Philox, `random()` is the top 53 bits of the next raw
64-bit word over 2^53, so the key is the top bits of that word; the blocks
read the words with `random_raw` and shift them in place, with no float
round trip.  Candidates are drawn as int32, which takes the same bounded
32-bit draws as int64.  Counts are therefore those of the float draw, bit
for bit; tests pin both NumPy identities.
"""

from __future__ import annotations

import functools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations

import numpy as np

from .errors import GaugeSimError, Infeasible, InfeasibleBranch, ValidationError
from .ignition import config_index, outcome_codes, state_array
from .model import ProbabilitySystem, branches, condition, float_column
from .scalars import RATIONAL
from .solver import GaugeSet, continuous_gauge, solve_all_gauges


@dataclass(frozen=True)
class LeadingRegion:
    """Plan step: draw one region from its marginal, then condition on it."""

    region: int


@dataclass(frozen=True)
class FinalGauge:
    """Plan step: one-step gauge collapse of whatever regions remain."""


@dataclass(frozen=True)
class CollapsePlan:
    """Ordered steps: distinct leading regions, one final gauge stage last."""

    steps: tuple

    def __post_init__(self):
        if not self.steps or not isinstance(self.steps[-1], FinalGauge):
            raise ValidationError("a plan ends with exactly one final gauge stage")
        leaders = [s for s in self.steps[:-1]]
        if any(not isinstance(s, LeadingRegion) for s in leaders):
            raise ValidationError("only leading-region steps may precede the final stage")
        regions = [s.region for s in leaders]
        if len(set(regions)) != len(regions):
            raise ValidationError("leading regions must be distinct")

    @property
    def leaders(self):
        return tuple(s.region for s in self.steps[:-1])

    @classmethod
    def one_step(cls):
        return cls((FinalGauge(),))

    @classmethod
    def leading(cls, regions):
        return cls(tuple(LeadingRegion(r) for r in regions) + (FinalGauge(),))

    @classmethod
    def parse(cls, text):
        """Parse '2,final' style CLI plans; 'final' alone is the one-step plan."""
        steps = []
        for part in str(text).split(","):
            part = part.strip().lower()
            if part == "final":
                steps.append(FinalGauge())
                continue
            try:
                steps.append(LeadingRegion(int(part)))
            except ValueError:
                raise ValidationError(
                    f"plan steps are region numbers or 'final', got {part!r}"
                ) from None
        return cls(tuple(steps))


@dataclass
class TraceStep:
    kind: str  # "lead" or "gauge"
    detail: dict


@dataclass
class CollapseTrace:
    steps: list = field(default_factory=list)
    outcome: tuple = ()

    def record(self, kind, **detail):
        self.steps.append(TraceStep(kind, detail))

    def as_dict(self):
        return {
            "steps": [{"kind": s.kind, **s.detail} for s in self.steps],
            "outcome": list(self.outcome),
        }


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
        u = tuple(system.setting_index(s) for s in u)
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


@functools.cache
def _pool(workers, pid):
    """The kept pool of `workers` threads in process `pid`, built on the
    first call.

    Workers start as blocks arrive and wait for the next call when done.  A
    forked child has none of its parent's workers, so it asks with its own
    pid and builds its own pool.
    """
    return ThreadPoolExecutor(max_workers=workers, thread_name_prefix="gaugesim-blocks")


def _run_blocks(runs, seed, threads, draw, cells):
    """Sum `draw(rng, size)` count vectors over the fixed blocks of `runs`.

    The calling thread and `threads - 1` workers of the kept pool (`threads`
    None: `usable_cpus()`) claim blocks in order until none is left, so the
    caller draws rather than waits; a single block starts no worker.  A
    failed block ends the claims, and every lower block was claimed before
    it, so the error raised is the lowest failing block's, whatever the
    thread count.  `draw` also runs on the workers, so it must not call a
    function that a tracer wraps.
    """
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
    futures = ([_pool(threads - 1, os.getpid()).submit(work) for _ in range(helpers)]
               if helpers > 0 else [])
    totals = []
    try:
        totals.append(work())
    finally:
        end_claims()  # an interrupt of the caller leaves the workers no block
        totals += [future.result() for future in futures]
    if errors:
        raise errors[min(errors)]
    return sum(totals)


def _ignition_keys(rng, size, bits):
    """`(rng.random(size) * 2**bits).astype(np.int64)` for `bits` <= 53.

    A Philox generator's `random()` is `(raw >> 11) * 2**-53` of its next
    raw 64-bit word, so the key is the word's top `bits` bits: they are read
    from `random_raw`, which draws the same words, and shifted in place.
    """
    bit_generator = getattr(rng, "bit_generator", None)
    if isinstance(bit_generator, np.random.Philox):
        raw = bit_generator.random_raw(size)
        return np.right_shift(raw, 64 - bits, out=raw).view(np.int64)
    return (rng.random(size) * float(1 << bits)).astype(np.int64)


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

    One key step (`_keys`: leader leaf, segment, ignition key) feeds both
    the per-run entries of `draw`, which `run` traces, and the bucket
    counts of `counts`, which `simulate` sums.  A Philox generator supplies
    the keys from its raw words; any other source (`_ScalarDraws`, test
    doubles) from `random()`, with the same result.
    """

    def __init__(self, system, plan, u, force_gamma=None, cache=None, gauges=None):
        plan = plan or CollapsePlan.one_step()
        cache = cache or GaugeCache()
        u = tuple(system.setting_index(s) for s in u)
        n, K = system.n, system.num_settings
        remaining = list(range(n))
        steps = []
        for step in plan.steps[:-1]:
            # CollapsePlan keeps leading regions distinct, so one in range is unresolved
            if not 0 <= step.region < n:
                raise ValidationError(f"leading region {step.region} out of range for n={n}")
            steps.append((step.region, remaining.index(step.region)))
            remaining.remove(step.region)
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
                            child = condition(current, pos, u[region], outcome).system
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

    def _keys(self, rng, size):
        """Segment and ignition key of `size` runs: leader uniforms, candidate, ignition.

        The segment is an array of `size` runs, or of one element when every
        run shares it (a forced gauge without leaders).  Both arrays are new,
        so the caller may overwrite them.
        """
        leaf = np.zeros(1, dtype=np.int64)  # one element until a leader splits it
        lead = rng.random((len(self.p0), size))
        for depth, p0 in enumerate(self.p0):
            leaf = 2 * leaf + (lead[depth] >= p0[leaf])
        hit = self.failing[leaf]
        if hit.any():
            raise self.errors[int(leaf[hit.argmax()])]
        width = len(self.candidates)
        if self.forced is not None:
            segment = leaf * width + self.forced
        else:
            segment = rng.integers(0, width, size, dtype=np.int32)
            if self.p0:
                segment = leaf * width + segment
        return segment, _ignition_keys(rng, size, self.bits)

    def _search(self, bucket, key, slow):
        """Entries of runs `slow`, whose buckets hold a bound: a search of `bounds`."""
        keys = ((bucket[slow] >> self.g) << self.bits) | key[slow]
        return np.searchsorted(self.bounds, keys, side="right")

    def draw(self, rng, size):
        """Entry index of `size` runs drawn from `rng`."""
        segment, key = self._keys(rng, size)
        bucket = (segment << self.g) | (key >> (self.bits - self.g))
        entry = self.guide[bucket]
        slow = np.flatnonzero(self.refine[bucket])
        if slow.size:
            entry[slow] = self._search(bucket, key, slow)
        return entry

    def counts(self, rng, size):
        """Outcome-code counts of `size` runs drawn from `rng`, counted by bucket.

        Buckets are built in place over the fresh key and segment arrays, or
        beside the keys when a refined bucket may need them.  Runs in
        refined buckets search `bounds`; every other bucket's count goes to
        the code of its guide entry.
        """
        segment, key = self._keys(rng, size)
        bucket = np.right_shift(key, self.bits - self.g, out=None if self.refined.size else key)
        bucket |= np.left_shift(segment, self.g, out=segment)
        per_bucket = np.bincount(bucket, minlength=self.guide.size)
        counts = np.zeros(1 << self.n, dtype=np.int64)
        if per_bucket[self.refined].any():
            slow = np.flatnonzero(self.refine[bucket])
            counts += np.bincount(self.codes[self._search(bucket, key, slow)],
                                  minlength=counts.size)
            per_bucket[self.refined] = 0
        counts += np.bincount(self.guide_codes, weights=per_bucket,
                              minlength=counts.size).astype(np.int64)
        return counts

    def run(self, rng):
        """One traced run, drawn with scalar calls on `rng`."""
        entry = int(self.draw(_ScalarDraws(rng), 1)[0])
        segment = (int(self.bounds[entry]) - 1) >> self.bits
        x = _outcome_bits(int(self.codes[entry]), self.n)
        trace = CollapseTrace()
        for region, setting in self.leaders:
            trace.record("lead", region=region, setting=setting, outcome=x[region])
        trace.record("gauge", gamma=self.candidates[segment % len(self.candidates)],
                     ignition=int(self.states[entry]))
        trace.outcome = x
        return x, trace


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
    """Single collapse: uniform gauge choice, one ignition draw, projection."""
    return CompiledPlan(system, None, u, force_gamma, gauges=gauges).run(rng)


def multi_step_run(system, plan, u, rng, cache=None, force_gamma=None):
    """Cascaded collapse following a plan; leading draws then a gauge stage."""
    return CompiledPlan(system, plan, u, force_gamma, cache).run(rng)


def plan_joint_probability(system, plan, u, x):
    """Exact joint law of a plan: product of branch laws.

    Multiplies each leading region's marginal by the conditioned residual
    probability; equals P(x|u) for valid systems (checked symbolically in
    tests, independent of any sampling).
    """
    u = tuple(system.setting_index(s) for s in u)
    x = tuple(x)
    current = system
    remaining = list(range(system.n))
    acc = Fraction(1) if system.backend == RATIONAL else 1.0
    for step in plan.steps[:-1]:
        region = step.region
        pos = remaining.index(region)
        prob = current.region_marginal(pos, u[region])[x[region]]
        if prob == 0:
            return prob  # branch never taken; joint probability is zero
        acc *= prob
        current = condition(current, pos, u[region], x[region]).system
        remaining.pop(pos)
    residual_u = tuple(u[r] for r in remaining)
    residual_x = tuple(x[r] for r in remaining)
    return acc * current.prob(residual_x, residual_u)


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
            if not feasible(branch.system, rest, chain + ((head, setting, outcome),), collected):
                return False
        return True

    for m in range(1, n + 1):
        for leaders in permutations(range(n), m - 1):
            collected = {}
            if feasible(system, leaders, (), collected):
                return StepCertificate(m, CollapsePlan.leading(leaders), collected)
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
    tree = compiled
    if tree is None:
        cache = cache or GaugeCache()
        if gauges is None and (plan is None or not plan.leaders):
            gauges = cache.get(system)
        tree = CompiledPlan(system, plan, u, force_gamma, cache, gauges)
    counts = _run_blocks(runs, seed, streams, tree.counts, 1 << system.n)
    return _counts_table(tuple(system.setting_index(s) for s in u), counts, system.n)


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
