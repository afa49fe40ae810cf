"""Collapse runs: forced draws, plans, minimum steps, simulation."""

import math
import os
import time
import warnings
from fractions import Fraction as F
from itertools import permutations, product

import numpy as np
import pytest

import gaugesim as gs
from gaugesim.catalog import names
from gaugesim.collapse import (
    BLOCK_RUNS,
    GUIDE_BITS,
    CollapsePlan,
    CompiledPlan,
    GaugeCache,
    _block_rng,
    _ignition_keys,
    _ScalarDraws,
    find_min_steps,
    make_rng,
    multi_step_run,
    one_step_run,
    plan_joint_probability,
    simulate,
    simulate_continuous,
    usable_cpus,
)
from gaugesim.errors import Infeasible, InfeasibleBranch, ValidationError
from gaugesim.model import ProbabilitySystem, product_system
from gaugesim.solver import GaugeSet, solve_all_gauges, solve_gauge, verify_consistency


class ForcedRng:
    """Deterministic stand-in driving the draws through chosen branches."""

    def __init__(self, uniforms):
        self.uniforms = list(uniforms)

    def random(self):
        return self.uniforms.pop(0)

    def integers(self, low, high):
        return low


class TestOneStep:
    def test_pr_box_forced_draw(self):
        system = gs.pr_box()
        gauges = solve_all_gauges(system)
        # gauge 0 puts half the mass on the all-zero ignition state
        x, trace = one_step_run(system, gauges, (0, 0), ForcedRng([0.0]), force_gamma=0)
        assert x == (0, 0)
        assert trace.steps[0].detail == {"gamma": 0, "ignition": 0}

    def test_singlet_anticorrelated_always(self):
        system = gs.singlet()
        gauges = solve_all_gauges(system)
        rng = make_rng(5)
        for _ in range(200):
            x, _ = one_step_run(system, gauges, (0, 0), rng)
            assert x[0] != x[1]

    def test_deterministic_region(self):
        system = gs.one_region([F(1)])
        gauges = solve_all_gauges(system)
        rng = make_rng(0)
        for _ in range(20):
            x, _ = one_step_run(system, gauges, (0,), rng)
            assert x == (0,)

    def test_force_gamma_must_be_submitted(self):
        system = gs.pr_box()
        gauges = solve_all_gauges(system)
        with pytest.raises(ValidationError):
            one_step_run(system, gauges, (0, 0), make_rng(1), force_gamma=1)


    def test_ignition_states_past_int64(self):
        # 64 settings give a 64-bit index space; the all-ones state is 2^64 - 1
        system = gs.one_region([F(1, 2)] * 64)
        top = (1 << 64) - 1
        gauges = GaugeSet((solve_gauge(system, 5, support=[0, top]),))
        assert verify_consistency(system, gauges)
        table = simulate(system, (5,), 1000, seed=3, gauges=gauges)
        assert table.total[(5,)] == 1000
        assert 0 < table.counts[(5,)][(0,)] < 1000
        seen = set()
        for seed in range(20):
            x, trace = one_step_run(system, gauges, (5,), make_rng(seed))
            ignition = trace.steps[0].detail["ignition"]
            assert type(ignition) is int
            assert x == ((0,) if ignition == 0 else (1,))
            seen.add(ignition)
        assert seen == {0, top}


class TestMultiStep:
    def test_super_ghz_residual_is_anticorrelated_box(self):
        system = gs.super_ghz()
        plan = CollapsePlan.leading((2,))
        # first uniform pick of the leading outcome, then the gauge stage
        x, trace = multi_step_run(system, plan, (0, 0, 0), ForcedRng([0.0, 0.0, 0.0]))
        lead = trace.steps[0].detail
        assert lead == {"region": 2, "setting": 0, "outcome": 0}
        assert x[0] != x[1]  # residual box anticorrelates at (t0, t0)

    def test_ghz_residual_correlation_follows_branch(self):
        system = gs.ghz_xy()
        plan = CollapsePlan.leading((2,))
        for r in (0.0, 0.3, 0.7, 0.99):
            x, _ = multi_step_run(system, plan, (0, 0, 0), ForcedRng([r, 0.4, 0.6]))
            if x[2] == 0:
                assert x[0] == x[1]  # residual pair correlates at (X, X)
            else:
                assert x[0] != x[1]  # opposite branch anticorrelates

    def test_single_region_plan_reduces_to_one_step(self):
        system = gs.one_region([F(1, 4)])
        plan = CollapsePlan.one_step()
        x, trace = multi_step_run(system, plan, (0,), make_rng(2))
        assert x[0] in (0, 1)
        assert trace.steps[0].kind == "gauge"

    def test_plan_validation(self):
        with pytest.raises(ValidationError):
            CollapsePlan(())
        with pytest.raises(ValidationError):
            CollapsePlan.leading((0, 0))
        plan = CollapsePlan.parse("2,final")
        assert plan.leaders == (2,)


class TestProductLaw:
    def test_exact_on_catalog_systems(self):
        # the plan's analytic joint law equals the table, target by target
        for name in ("singlet", "pr-box", "ghz-xy", "w-xy", "super-ghz"):
            system = gs.build(name)
            for lead in range(system.n):
                plan = CollapsePlan.leading((lead,))
                for u in system.setting_vectors():
                    for x in system.outcome_vectors():
                        assert plan_joint_probability(system, plan, u, x) == \
                            system.prob(x, u), (name, lead, u, x)

    def test_two_leaders_exact(self):
        system = gs.super_ghz()
        plan = CollapsePlan.leading((2, 0))
        for u in system.setting_vectors():
            for x in system.outcome_vectors():
                assert plan_joint_probability(system, plan, u, x) == system.prob(x, u)


class TestFindMinSteps:
    def test_super_ghz_needs_two(self):
        certificate = find_min_steps(gs.super_ghz())
        assert certificate.steps == 2
        assert len(certificate.plan.leaders) == 1
        assert certificate.branch_gauges  # every reachable branch has gauges

    def test_quasi_mid_range_one_step(self):
        assert find_min_steps(gs.quasi_super_ghz(F(1, 8))).steps == 1

    def test_pr_box_one_step(self):
        assert find_min_steps(gs.pr_box()).steps == 1

    def test_cache_reuse(self):
        cache = GaugeCache()
        find_min_steps(gs.super_ghz(), cache)
        assert len(cache._cache) >= 2


class TestSeedDeterminism:
    def test_same_seed_same_trace(self):
        system = gs.singlet()
        gauges = solve_all_gauges(system)
        a = one_step_run(system, gauges, (0, 1), make_rng(123))
        b = one_step_run(system, gauges, (0, 1), make_rng(123))
        assert a[0] == b[0]
        assert a[1].as_dict() == b[1].as_dict()

    def test_same_seed_same_counts(self):
        system = gs.pr_box()
        t1 = simulate(system, (0, 1), 5000, seed=9)
        t2 = simulate(system, (0, 1), 5000, seed=9)
        assert t1.as_dict() == t2.as_dict()

    def test_streams_partition_runs(self):
        system = gs.pr_box()
        table = simulate(system, (0, 0), 1001, seed=3, streams=3)
        assert table.total[(0, 0)] == 1001

    @pytest.mark.parametrize("name, u, plan", [
        ("pr-box", (0, 1), None),
        ("super-ghz", (0, 1, 1), CollapsePlan.parse("2,final")),
    ])
    def test_counts_do_not_depend_on_threads(self, name, u, plan):
        system = gs.build(name)
        runs = 3 * BLOCK_RUNS + 17
        one = simulate(system, u, runs, seed=4, plan=plan, streams=1)
        four = simulate(system, u, runs, seed=4, plan=plan, streams=4)
        assert one.as_dict() == four.as_dict()
        assert one.total[u] == runs

    def test_continuous_counts_do_not_depend_on_threads(self):
        runs = 2 * BLOCK_RUNS + 5
        one = simulate_continuous((0.0, 1.0), runs, seed=8, streams=1)
        three = simulate_continuous((0.0, 1.0), runs, seed=8, streams=3)
        assert one.as_dict() == three.as_dict()


class TestSimulate:
    def test_epr_three_setting_tv(self):
        system = gs.epr_b((0.0, math.pi / 5, math.pi / 2))
        table = simulate(system, (0, 2), 100000, seed=42)
        assert table.tv_distance(system, (0, 2)) < 0.01

    @pytest.mark.parametrize("system", [
        gs.epr_b((0.0, math.pi / 5, math.pi / 2)),
        gs.general_bell2(F(1, 3), F(1, 4), F(5, 12), F(1, 2)),
    ], ids=["float", "rational"])
    def test_tv_distance_reads_each_probability_as_its_float(self, system):
        # the float column has the bits of float(P(x|u)) for every outcome
        for u in system.setting_vectors():
            table = simulate(system, u, 1000, seed=3)
            by_prob = 0.5 * sum(abs(table.frequency(u, x) - float(system.prob(x, u)))
                                for x in system.outcome_vectors())
            assert table.tv_distance(system, u) == by_prob

    def test_deterministic_system_tv_zero(self):
        system = product_system([gs.one_region([F(1)]), gs.one_region([F(0)])])
        table = simulate(system, (0, 0), 1000, seed=1)
        assert table.tv_distance(system, (0, 0)) == 0.0
        assert table.frequency((0, 0), (0, 1)) == 1.0

    def test_forced_gauges_agree(self):
        # both admissible gauge choices reproduce the same table
        system = gs.pr_box()
        for gamma in (0, 3):
            table = simulate(system, (0, 1), 100000, seed=11, force_gamma=gamma)
            assert table.tv_distance(system, (0, 1)) < 0.01

    def test_plan_simulation_matches_table(self):
        system = gs.super_ghz()
        plan = CollapsePlan.leading((2,))
        table = simulate(system, (0, 1, 0), 20000, seed=5, plan=plan)
        assert table.tv_distance(system, (0, 1, 0)) < 0.02


def _tv_bound(law, runs, delta=1e-6):
    """Mean-TV bound plus a McDiarmid deviation at failure probability delta."""
    mean = 0.5 * sum(math.sqrt(float(p) * (1 - float(p)) / runs) for p in law.values())
    return mean + math.sqrt(math.log(1 / delta) / (2 * runs))


def _tree_law(tree):
    """Exact outcome law of a compiled tree, from its branch probabilities and
    the gauge weights its key ranges were built from."""
    width = len(tree.candidates)
    chosen = range(width) if tree.forced is None else [tree.forced]
    segment_of = (tree.bounds - 1) >> tree.bits
    law = {}
    for leaf, reach in enumerate(tree.branch_probs):
        if reach == 0:
            continue
        for c in chosen:
            entries = [e for e in range(len(tree.codes)) if segment_of[e] == leaf * width + c]
            total = sum(tree.weights[e] for e in entries)
            for e in entries:
                code = int(tree.codes[e])
                law[code] = law.get(code, 0) + reach * tree.weights[e] / (total * len(chosen))
    return law


def _code(x):
    """Outcome code of x: region i at bit i."""
    return sum(xi << i for i, xi in enumerate(x))


def _plans(name, n):
    plans = [CollapsePlan.one_step()] + [CollapsePlan.leading((r,)) for r in range(n)]
    if name == "super-ghz":
        plans.append(CollapsePlan.leading((2, 0)))
    return plans


class TestCompiledEngine:
    @pytest.mark.parametrize("name, params", [
        ("singlet", {}), ("pr-box", {}), ("ghz-xy", {}), ("w-xy", {}),
        ("super-ghz", {}), ("quasi-super-ghz", {"eps": "1/32"}),
    ])
    def test_tree_law_is_the_exact_plan_law(self, name, params):
        system = gs.build(name, **params)
        cache = GaugeCache()
        one_step_feasible = name not in ("super-ghz", "quasi-super-ghz")
        for p_no, plan in enumerate(_plans(name, system.n)):
            for u_no, u in enumerate(system.setting_vectors()):
                if not plan.leaders and not one_step_feasible:
                    # infeasibility is not cached, so check one setting vector
                    tree = CompiledPlan(system, plan, u, cache=cache)
                    assert isinstance(tree.errors[0], InfeasibleBranch)
                    with pytest.raises(InfeasibleBranch):
                        multi_step_run(system, plan, u, make_rng(0), cache)
                    break
                self.check_tree(system, plan, u, cache, seed=100 * p_no + u_no)

    def test_two_leader_trees_on_distinct_coins(self):
        # a product of unequal coins tells every region and branch apart
        system = product_system([gs.one_region([F(1, 3), F(1, 5)]),
                                 gs.one_region([F(1, 2), F(6, 7)]),
                                 gs.one_region([F(1, 4), F(2, 3)])])
        cache = GaugeCache()
        for seed, leaders in enumerate(permutations(range(3), 2)):
            self.check_tree(system, CollapsePlan.leading(leaders), (1, 0, 1), cache, seed)

    @staticmethod
    def check_tree(system, plan, u, cache, seed, runs=10**5):
        tree = CompiledPlan(system, plan, u, cache=cache)
        assert all(e is None for e in tree.errors), (plan, u)
        law = _tree_law(tree)
        exact = {}
        for x in system.outcome_vectors():
            exact[x] = plan_joint_probability(system, plan, u, x)
            assert law.get(_code(x), 0) == exact[x], (plan.leaders, u, x)
        table = simulate(system, u, runs, seed=seed, plan=plan, cache=cache)
        tv = 0.5 * sum(abs(table.frequency(u, x) - float(p)) for x, p in exact.items())
        assert tv <= _tv_bound(exact, runs), (plan.leaders, u, tv)

    def test_forced_gauge_law(self):
        system = gs.pr_box()
        tree = CompiledPlan(system, None, (0, 1), force_gamma=3, cache=GaugeCache())
        law = _tree_law(tree)
        for x in system.outcome_vectors():
            assert law.get(_code(x), 0) == system.prob(x, (0, 1))

    @staticmethod
    def branch_mixture(q):
        """Region 0 reads 0 with probability q and leaves the super-quantum
        GHZ triple, else reads 1 and leaves three fair independent coins."""
        sg = gs.super_ghz()
        table = {}
        for u in product(range(2), repeat=4):
            for x in product((0, 1), repeat=4):
                rest = sg.prob(x[1:], u[1:])
                table[(x, u)] = q * rest if x[0] == 0 else (1 - q) * F(1, 8)
        return ProbabilitySystem(4, 2, sg.labels, table)

    def test_reachable_infeasible_leaf_raises(self):
        system = self.branch_mixture(F(1, 2))
        plan = CollapsePlan.leading((0,))
        tree = CompiledPlan(system, plan, (0, 0, 0, 0), cache=GaugeCache())
        assert isinstance(tree.errors[0], InfeasibleBranch) and tree.errors[1] is None
        with pytest.raises(InfeasibleBranch) as info:
            simulate(system, (0, 0, 0, 0), 1000, seed=1, plan=plan)
        assert info.value.step == 1

    def test_zero_probability_branch_is_never_drawn(self):
        system = self.branch_mixture(F(0))
        plan = CollapsePlan.leading((0,))
        tree = CompiledPlan(system, plan, (0, 1, 0, 1), cache=GaugeCache())
        assert tree.errors == [None, None] and tree.branch_probs[0] == 0
        table = simulate(system, (0, 1, 0, 1), 5000, seed=2, plan=plan)
        assert all(x[0] == 1 for x in table.counts[(0, 1, 0, 1)])
        assert table.total[(0, 1, 0, 1)] == 5000

    def test_one_step_simulate_still_raises_infeasible(self):
        with pytest.raises(Infeasible):
            simulate(gs.super_ghz(), (0, 0, 0), 100, seed=1)

    @pytest.mark.parametrize("name, u, plan", [
        ("pr-box", (0, 0), None),
        ("super-ghz", (0, 0, 0), CollapsePlan.parse("2,final")),
    ])
    def test_unsubmitted_force_gamma_raises(self, name, u, plan):
        with pytest.raises(ValidationError):
            simulate(gs.build(name), u, 100, seed=1, plan=plan, force_gamma=5)


class TestNonsignaling:
    def chi_square_stat(self, counts_a, counts_b):
        # 2x2 homogeneity statistic for region-0 outcome vs partner setting
        total_a = sum(counts_a.values())
        total_b = sum(counts_b.values())
        stat = 0.0
        for outcome in (0, 1):
            a = sum(c for x, c in counts_a.items() if x[0] == outcome)
            b = sum(c for x, c in counts_b.items() if x[0] == outcome)
            expected_rate = (a + b) / (total_a + total_b)
            for value, total in ((a, total_a), (b, total_b)):
                expected = expected_rate * total
                if expected > 0:
                    stat += (value - expected) ** 2 / expected
        return stat

    CHI2_1DF_AT_1_PERCENT = 6.634896601021213

    def test_discrete_marginal_stable_across_partner_setting(self):
        system = gs.epr_b((0.0, math.pi / 5, math.pi / 2))
        t1 = simulate(system, (0, 1), 50000, seed=21)
        t2 = simulate(system, (0, 2), 50000, seed=22)
        stat = self.chi_square_stat(
            t1.counts[(0, 1)], t2.counts[(0, 2)]
        )
        assert stat < self.CHI2_1DF_AT_1_PERCENT

    def test_continuous_marginal_stable(self):
        t1 = simulate_continuous((0.0, math.pi / 3), 100000, seed=31)
        t2 = simulate_continuous((0.0, 2.5), 100000, seed=32)
        stat = self.chi_square_stat(
            t1.counts[(0.0, math.pi / 3)], t2.counts[(0.0, 2.5)]
        )
        assert stat < self.CHI2_1DF_AT_1_PERCENT


class TestContinuousSimulation:
    def test_cosine_law_frequencies(self):
        theta = (0.0, math.pi / 3)
        table = simulate_continuous(theta, 100000, seed=7)
        assert table.frequency(theta, (0, 0)) == pytest.approx(0.375, abs=0.01)
        assert table.frequency(theta, (0, 1)) == pytest.approx(0.125, abs=0.01)

    def test_forced_setting_agrees(self):
        theta = (0.4, 1.9)
        want = 0.25 * (1 + math.cos(theta[0] - theta[1]))
        for forced in (0, 1):
            table = simulate_continuous(theta, 100000, seed=13, force_setting=forced)
            assert table.frequency(theta, (1, 1)) == pytest.approx(want, abs=0.01)


def reference_draw(tree, rng, size):
    """The plain inversion draw: one `searchsorted` of every run's key over
    the whole concatenated CDF, on the same generator calls as `draw`."""
    leaf = np.zeros(size, dtype=np.int64)
    lead = rng.random((len(tree.p0), size))
    for depth, p0 in enumerate(tree.p0):
        leaf = 2 * leaf + (lead[depth] >= p0[leaf])
    width = len(tree.candidates)
    choice = rng.integers(0, width, size) if tree.forced is None else tree.forced
    segment = leaf * width + choice
    ignition = (rng.random(size) * float(1 << tree.bits)).astype(np.int64)
    return np.searchsorted(tree.bounds, (segment << tree.bits) | ignition, side="right")


def _code_counts(tree, entries):
    """Outcome-code counts of runs that drew `entries`."""
    return np.bincount(tree.codes[entries], minlength=1 << tree.n)


class ArrayRng:
    """Hands out prepared arrays: `random` pops them in call order and
    `integers` returns the candidate array."""

    def __init__(self, randoms, choices):
        self.randoms = list(randoms)
        self.choices = choices

    def random(self, shape):
        out = self.randoms.pop(0)
        assert out.shape == np.empty(shape).shape
        return out

    def integers(self, low, high, size, dtype=np.int64):
        assert size == self.choices.size
        return self.choices.astype(dtype)


TOP64 = (1 << 64) - 1


def _coin64():
    system = gs.one_region([F(1, 2)] * 64)
    return system, GaugeSet((solve_gauge(system, 5, support=[0, TOP64]),))


def _differential_trees():
    """(label, tree) pairs covering the shapes the guide table must handle."""
    trees = []
    for name in names():
        system = gs.build(name)
        cache = GaugeCache()
        vectors = list(system.setting_vectors())
        for u in dict.fromkeys((vectors[0], vectors[-1])):
            trees.append((f"{name} {u}", CompiledPlan(system, None, u, cache=cache)))
    for label, system, u in (
        ("epr-b", gs.epr_b((0.0, math.pi / 5, math.pi / 2)), (0, 2)),
        ("w-xy", gs.w_xy(), (0, 1, 1)),
        ("epr-b-regular K=4", gs.epr_b_regular(4), (0, 3)),
        ("epr-b-regular K=4", gs.epr_b_regular(4), (1, 2)),
    ):
        trees.append((f"{label} {u}", CompiledPlan(system, None, u, cache=GaugeCache())))
    cache = GaugeCache()
    for plan, u in (("2,final", (0, 0, 1)), ("2,final", (1, 0, 1)),
                    ("0,1,final", (1, 0, 1)), ("0,final", (1, 1, 0))):
        trees.append((f"super-ghz {plan} {u}",
                      CompiledPlan(gs.super_ghz(), CollapsePlan.parse(plan), u, cache=cache)))
    qsg = gs.quasi_super_ghz(F(1, 128))  # one-step infeasible
    for plan in ("0,final", "1,final", "2,final"):
        trees.append((f"quasi-super-ghz 1/128 {plan}",
                      CompiledPlan(qsg, CollapsePlan.parse(plan), (0, 1, 1), cache=GaugeCache())))
    trees.append(("pr-box forced 3",
                  CompiledPlan(gs.pr_box(), None, (0, 1), force_gamma=3, cache=GaugeCache())))
    trees.append(("w-xy forced 5",
                  CompiledPlan(gs.w_xy(), None, (1, 0, 1), force_gamma=5, cache=GaugeCache())))
    system, gauges = _coin64()
    trees.append(("one-region 64", CompiledPlan(system, None, (5,), gauges=gauges)))
    return trees


DIFFERENTIAL_TREES = _differential_trees()


def _edge_runs(tree):
    """Leader uniforms, candidates and ignition uniforms of runs that put
    each reachable segment's keys on every bucket edge and next to every
    bound.  A key k is the uniform k / 2^bits, which scales back exactly."""
    m, width = len(tree.p0), len(tree.candidates)
    step = 1 << (tree.bits - tree.g)
    segment_of = (tree.bounds - 1) >> tree.bits
    leads, choices, keys = [], [], []
    for leaf, error in enumerate(tree.errors):
        path = [(leaf >> (m - 1 - d)) & 1 for d in range(m)]
        nodes = [leaf >> (m - d) for d in range(m)]
        p0s = [tree.p0[d][node] for d, node in enumerate(nodes)]
        if error is not None or any((o == 0 and p <= 0) or (o == 1 and p >= 1)
                                    for o, p in zip(path, p0s)):
            continue
        for c in range(width) if tree.forced is None else [tree.forced]:
            segment = leaf * width + c
            local = {0, (1 << tree.bits) - 1}
            for k in range(1 << tree.g):
                local |= {k * step - 1, k * step, k * step + 1}
            for bound in tree.bounds[segment_of == segment]:
                b = int(bound) - (segment << tree.bits)
                local |= {b - 1, b, b + 1}
            local = sorted(k for k in local if 0 <= k < 1 << tree.bits)
            leads += [[0.0 if o == 0 else 1 - 2.0 ** -53 for o in path]] * len(local)
            choices += [c] * len(local)
            keys += local
    size = len(keys)
    lead = np.array(leads, dtype=float).reshape(size, m).T.copy()
    uniforms = np.array(keys, dtype=float) / float(1 << tree.bits)
    assert ((uniforms * float(1 << tree.bits)).astype(np.int64) == keys).all()
    return lead, np.array(choices, dtype=np.int64), uniforms


class TestGuideTable:
    def test_cases_cover_refined_buckets(self):
        refined = {label for label, tree in DIFFERENTIAL_TREES if tree.refine.any()}
        assert {"epr-b (0, 2)", "w-xy (0, 1, 1)"} <= refined
        for _label, tree in DIFFERENTIAL_TREES:
            assert tree.guide.size == tree.refine.size <= 1 << GUIDE_BITS

    @pytest.mark.parametrize("label, tree", DIFFERENTIAL_TREES,
                             ids=[label for label, _tree in DIFFERENTIAL_TREES])
    def test_draw_matches_the_plain_search(self, label, tree):
        if any(error is not None for error in tree.errors) and not tree.p0:
            with pytest.raises(type(tree.errors[0])):
                tree.draw(_block_rng(1, 0), 100)
            with pytest.raises(type(tree.errors[0])) as info:
                tree.counts(_block_rng(1, 0), 100)
            assert info.value is tree.errors[0]
            return
        for seed, block, size in ((1, 0, 5000), (2, 3, 1), (3, 1, BLOCK_RUNS),
                                  (4, 2, 2 * BLOCK_RUNS + 3)):
            expect = reference_draw(tree, _block_rng(seed, block), size)
            assert (tree.draw(_block_rng(seed, block), size) == expect).all(), (seed, block)
            counts = tree.counts(_block_rng(seed, block), size)
            assert counts.dtype == np.int64
            assert (counts == _code_counts(tree, expect)).all(), (seed, block)
        for seed in range(20):
            expect = reference_draw(tree, _ScalarDraws(make_rng(seed)), 1)
            assert tree.draw(_ScalarDraws(make_rng(seed)), 1) == expect

    @pytest.mark.parametrize("label, tree", DIFFERENTIAL_TREES,
                             ids=[label for label, _tree in DIFFERENTIAL_TREES])
    def test_bucket_edges_and_bounds(self, label, tree):
        lead, choices, uniforms = _edge_runs(tree)
        if not uniforms.size:
            return
        runs = []
        for draw in (tree.draw, lambda rng, size: reference_draw(tree, rng, size)):
            rng = ArrayRng([lead, uniforms], choices)
            runs.append(draw(rng, uniforms.size))
        assert (runs[0] == runs[1]).all()
        counts = tree.counts(ArrayRng([lead, uniforms], choices), uniforms.size)
        assert (counts == _code_counts(tree, runs[1])).all()

    @pytest.mark.parametrize("label", ["pr-box (0, 0)", "w-xy (0, 1, 1)", "epr-b (0, 2)",
                                       "super-ghz 2,final (0, 0, 1)", "one-region 64"])
    def test_forced_uniforms_on_bucket_edges(self, label):
        tree = dict(DIFFERENTIAL_TREES)[label]
        edges = [0.0, 1 - 2.0 ** -53] + [k / (1 << tree.g) for k in range(1, 1 << tree.g, 61)]
        for lead in (0.0, 1 - 2.0 ** -53) if tree.p0 else (None,):
            for edge in edges:
                uniforms = [lead] * len(tree.p0) + [edge]
                got = tree.draw(_ScalarDraws(ForcedRng(uniforms)), 1)
                assert got == reference_draw(tree, _ScalarDraws(ForcedRng(uniforms)), 1)


class TestNumpyStreams:
    """The NumPy identities the block kernel relies on, for Philox generators.

    A NumPy release that breaks one must fail here rather than shift the
    counts of a seed."""

    @pytest.mark.parametrize("width", range(1, 9))
    def test_int32_candidates_are_the_int64_draw(self, width):
        for seed, size in ((1, 1), (2, 7), (3, 5000)):
            a, b = _block_rng(seed, 0), _block_rng(seed, 0)
            narrow = a.integers(0, width, size, dtype=np.int32)
            wide = b.integers(0, width, size)
            assert narrow.dtype == np.int32 and (narrow == wide).all()
            # the generators are left in the same state
            assert (a.random(9) == b.random(9)).all()
            assert (a.integers(0, width, 3, dtype=np.int32) == b.integers(0, width, 3)).all()

    @pytest.mark.parametrize("bits", [1, 40, 53])
    def test_raw_top_bits_are_the_scaled_uniform(self, bits):
        for seed, skip in ((1, 0), (2, 1), (3, 6)):
            a, b = _block_rng(seed, 1), _block_rng(seed, 1)
            # an odd number of 32-bit draws first leaves half a word buffered
            a.integers(0, 3, skip, dtype=np.int32)
            b.integers(0, 3, skip, dtype=np.int32)
            raw = a.bit_generator.random_raw(5000)
            scaled = (b.random(5000) * float(1 << bits)).astype(np.int64)
            assert ((raw >> np.uint64(64 - bits)).astype(np.int64) == scaled).all()
            assert (a.random(9) == b.random(9)).all()

    @pytest.mark.parametrize("bits", [1, 40, 53])
    def test_ignition_keys_match_the_float_draw(self, bits):
        keys = _ignition_keys(_block_rng(8, 0), 5000, bits)
        assert keys.dtype == np.int64
        assert (keys == _ignition_keys(_ScalarDraws(_block_rng(8, 0)), 5000, bits)).all()
        assert (keys == (_block_rng(8, 0).random(5000) * float(1 << bits)).astype(np.int64)).all()


# Counts and trace samples recorded with the plain `searchsorted` draw, for
# 2 * BLOCK_RUNS + 3 runs: (system, settings, plan, forced gauge, seed),
# counts by outcome string, then the trace sample of `make_rng(seed)`.
GOLDEN = [
    (("pr-box", (0, 1), None, None, 7), {"00": 65395, "11": 65680},
     {"outcome": [0, 0], "steps": [{"kind": "gauge", "gamma": 0, "ignition": 0}]}),
    (("pr-box", (0, 1), None, 3, 9), {"00": 65615, "11": 65460},
     {"outcome": [0, 0], "steps": [{"kind": "gauge", "gamma": 3, "ignition": 6}]}),
    (("epr-b", (0, 1), None, None, 11), {"00": 59413, "01": 6236, "10": 6340, "11": 59086},
     {"outcome": [1, 1], "steps": [{"kind": "gauge", "gamma": 0, "ignition": 57}]}),
    (("w-xy", (0, 1, 1), None, None, 5),
     {"000": 27198, "001": 5461, "010": 5449, "011": 27485,
      "100": 27224, "101": 5553, "110": 5625, "111": 27080},
     {"outcome": [1, 1, 1], "steps": [{"kind": "gauge", "gamma": 5, "ignition": 63}]}),
    (("epr-b-regular", (0, 3), None, None, 6), {"00": 9478, "01": 55906, "10": 56030, "11": 9661},
     {"outcome": [0, 1], "steps": [{"kind": "gauge", "gamma": 0, "ignition": 130}]}),
    (("one-region 64", (5,), None, None, 4), {"0": 65651, "1": 65424},
     {"outcome": [0], "steps": [{"kind": "gauge", "gamma": 5, "ignition": 0}]}),
    (("super-ghz", (0, 0, 1), "2,final", None, 1),
     {"000": 32466, "011": 32765, "101": 33158, "110": 32686},
     {"outcome": [0, 0, 0], "steps": [{"kind": "lead", "region": 2, "setting": 1, "outcome": 0},
                                      {"kind": "gauge", "gamma": 0, "ignition": 0}]}),
    (("super-ghz", (1, 0, 1), "0,1,final", None, 3),
     {"000": 32692, "011": 32799, "101": 32714, "110": 32870},
     {"outcome": [0, 0, 0], "steps": [{"kind": "lead", "region": 0, "setting": 1, "outcome": 0},
                                      {"kind": "lead", "region": 1, "setting": 0, "outcome": 0},
                                      {"kind": "gauge", "gamma": 1, "ignition": 0}]}),
    (("quasi-super-ghz 1/128", (0, 1, 1), "1,final", None, 2),
     {"000": 31697, "001": 1053, "010": 972, "011": 31617,
      "100": 1047, "101": 31628, "110": 32043, "111": 1018},
     {"outcome": [0, 1, 1], "steps": [{"kind": "lead", "region": 1, "setting": 1, "outcome": 1},
                                      {"kind": "gauge", "gamma": 3, "ignition": 10}]}),
]


def _golden_system(name):
    """System and one-step gauges (None: solved by the engine) of a golden case."""
    if name == "one-region 64":
        return _coin64()
    if name == "epr-b-regular":
        return gs.epr_b_regular(4), None
    if name == "quasi-super-ghz 1/128":
        return gs.quasi_super_ghz(F(1, 128)), None
    return gs.build(name), None


class TestGoldenCounts:
    @pytest.mark.parametrize("case, counts, trace", GOLDEN,
                             ids=[f"{c[0]} {c[2] or 'one-step'} seed {c[4]}" for c, _n, _t in GOLDEN])
    def test_counts_and_trace_sample_are_pinned(self, case, counts, trace):
        name, u, plan, force, seed = case
        system, gauges = _golden_system(name)
        plan = CollapsePlan.parse(plan) if plan else None
        runs = 2 * BLOCK_RUNS + 3
        cache = GaugeCache()
        for streams in (1, 3, None):
            table = simulate(system, u, runs, seed, gauges=gauges, plan=plan,
                             force_gamma=force, streams=streams, cache=cache)
            assert table.as_dict() == {"counts": [{"u": list(u), "outcomes": counts,
                                                   "runs": runs}]}, streams
        if gauges is None and plan is None:
            gauges = cache.get(system)
        _x, sample = CompiledPlan(system, plan, u, force, cache, gauges).run(make_rng(seed))
        assert sample.as_dict() == trace

    def test_failing_blocks_leave_the_kept_pool_usable(self):
        # every block reaches the infeasible leaf; the error is the same on any
        # thread count, and the pool that ran the failing blocks still counts
        system = TestCompiledEngine.branch_mixture(F(1, 2))
        plan = CollapsePlan.leading((0,))
        (name, u, _plan, force, seed), counts, _trace = GOLDEN[0]
        runs = 2 * BLOCK_RUNS + 3
        errors = []
        for streams in (None, 3, 1):
            with pytest.raises(InfeasibleBranch) as info:
                simulate(system, (0, 0, 0, 0), 5 * BLOCK_RUNS, seed=1, plan=plan,
                         streams=streams)
            errors.append((info.value.step, str(info.value)))
            table = simulate(gs.build(name), u, runs, seed, force_gamma=force, streams=streams)
            assert table.as_dict() == {"counts": [{"u": list(u), "outcomes": counts,
                                                   "runs": runs}]}, streams
        assert errors[0][0] == 1 and errors.count(errors[0]) == 3

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_draws_on_its_own_pool(self):
        # the child inherits the parent's kept pool but none of its workers
        (name, u, _plan, force, seed), counts, _trace = GOLDEN[0]
        runs = 2 * BLOCK_RUNS + 3
        simulate(gs.build(name), u, runs, seed, force_gamma=force, streams=2)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", DeprecationWarning)  # fork with threads
            pid = os.fork()
        if pid == 0:
            code = 1
            try:
                table = simulate(gs.build(name), u, runs, seed, force_gamma=force, streams=2)
                code = 0 if table.as_dict()["counts"][0]["outcomes"] == counts else 1
            finally:
                os._exit(code)
        deadline = time.monotonic() + 60
        while (done := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
            time.sleep(0.05)
        if done[0] == 0:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
        assert done[0] == pid and os.waitstatus_to_exitcode(done[1]) == 0


class TestUsableCpus:
    def test_affinity_set_where_the_platform_has_one(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert usable_cpus() == 3

    @pytest.mark.parametrize("count, expected", [(6, 6), (None, 1)])
    def test_cpu_count_without_affinity(self, monkeypatch, count, expected):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: count)
        assert usable_cpus() == expected
