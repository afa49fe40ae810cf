"""Gauge synthesis: simplex solutions, closed forms, continuous densities."""

import hashlib
import json
import math
import random
import time
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

import gaugesim as gs
from conftest import random_product_system, random_product_table
import reference_model as ref
from reference_model import in_target
from gaugesim.errors import Infeasible, NegativeEntry, SupportTooSmall, ValidationError
from gaugesim.ignition import bell_lift, bell_support, double_plateau
from gaugesim.scalars import EPS_NUM, RATIONAL, snap
from gaugesim.simplex import solve_nonnegative
from gaugesim.solver import (
    GaugeDistribution,
    GaugeSet,
    _assemble,
    _certificate,
    _equation_targets,
    _full_support,
    _lp_layout,
    continuous_gauge,
    epr_b_working_gauge,
    epr_regular_gauge,
    gauge_equations,
    reconstruct,
    solve_all_gauges,
    solve_gauge,
    solve_shared_gauge,
    verify_consistency,
)

MAX_VIOLATION_ANGLES = (0.0, math.pi / 5, math.pi / 2)

# Reference 3-setting weights at the angles above, per distribution and
# double-plateau state, quoted to three decimals.
THREE_SETTING_REFERENCE = {
    0: {0: 0.250, 1: 0.048, 3: 0.202, 4: 0.202, 6: 0.048, 7: 0.250},
    1: {0: 0.349, 1: 0.048, 3: 0.103, 4: 0.103, 6: 0.048, 7: 0.349},
    2: {0: 0.250, 1: 0.147, 3: 0.103, 4: 0.103, 6: 0.147, 7: 0.250},
}


class TestSolveGauge:
    def test_three_setting_reference_weights(self):
        system = gs.epr_b(MAX_VIOLATION_ANGLES)
        support = bell_support(3)
        for setting, expected in THREE_SETTING_REFERENCE.items():
            dist = solve_gauge(system, setting, support=support)
            for j_small, value in expected.items():
                got = float(dist.weight(bell_lift(j_small, 3)))
                assert got == pytest.approx(value, abs=5e-4)

    def test_super_ghz_one_step_impossible(self):
        with pytest.raises(Infeasible) as err:
            solve_all_gauges(gs.super_ghz())
        assert set(err.value.gammas) == set(range(6))

    def test_single_region_single_setting(self):
        system = gs.one_region([F(2, 7)])
        dist = solve_gauge(system, 0)
        assert dist.weight(0) + dist.weight(1) == 1
        assert reconstruct(dist, (0,), (0,), 1) == F(2, 7)

    def test_support_too_small_differs_from_infeasible(self):
        system = gs.epr_b((0.0, 2.5, 0.3))  # unordered angles leave the validity range
        with pytest.raises(SupportTooSmall):
            solve_gauge(system, 0, support=bell_support(3))
        # the full space still has solutions
        assert solve_gauge(system, 0) is not None

    def test_random_separable_bipartite_feasible(self, rng):
        from conftest import random_product_system

        for _ in range(15):
            system = random_product_system(rng, 2, 2)
            gauges = solve_all_gauges(system)
            assert verify_consistency(system, gauges)

    def test_support_bound(self):
        # basic solutions never use more states than the system rank bound
        for name in ("singlet", "pr-box", "w-xy"):
            system = gs.build(name)
            bound = 2 * (system.num_settings + 1) ** (system.n - 1)
            for dist in solve_all_gauges(system):
                assert len(dist.weights) <= bound


def brute_force_equations(system, gamma, support):
    """One row per target (x|u) with u selecting gamma, tested state by state."""
    K = system.num_settings
    return [[j for j in support if in_target(j, x, u, K)]
            for (x, u), _p in system.targets() if u[gamma // K] == gamma % K]


@pytest.mark.parametrize("name", gs.catalog.names())
def test_gauge_equations_match_brute_force(name):
    system = gs.build(name)
    R, D = _equation_targets(system)
    assert R.shape == (system.num_settings ** system.n, 2 ** system.n)
    for t, (_target, p) in enumerate(system.targets()):
        assert F(int(R.flat[t]), D) == (p if system.backend == RATIONAL else snap(p))
    full = _full_support(system.n, system.num_settings).tolist()
    shuffled = full[::3] + [j + (1 << 70) for j in full[1::3]]  # also past int64
    random.Random(name).shuffle(shuffled)
    supports = [full, shuffled]
    if system.n == 2:
        supports.append(bell_support(system.num_settings))
    for support in supports:
        for gamma in range(system.n * system.num_settings):
            rows = gauge_equations(system, gamma, support)
            assert [row.tolist() for row in rows] == brute_force_equations(
                system, gamma, support
            )


def assert_incidence_matches(system, support):
    """Each configuration's rows of the assembled incidence, as states,
    against `gauge_equations` and `brute_force_equations` on the LP's columns."""
    lp = _assemble(system, support)
    K = system.num_settings
    for gamma in range(system.n * K):
        rows = lp.incidence[lp.settings[:, gamma // K] == gamma % K]
        got = [lp.columns[row].tolist() for row in rows]
        assert got == [row.tolist() for row in gauge_equations(system, gamma, lp.columns)]
        assert got == brute_force_equations(system, gamma, lp.columns.tolist())
    return lp


@pytest.mark.parametrize("name", gs.catalog.names())
def test_incidence_matches_the_equations(name):
    system = gs.build(name)
    assert_incidence_matches(system, None)
    rng = random.Random(name)
    full = _full_support(system.n, system.num_settings).tolist()
    for size in (0, 1, 7, len(full) // 3):
        assert_incidence_matches(system, rng.sample(full, size))


def test_incidence_on_states_past_int64():
    # n = 2, K = 32: 64 configuration bits, so a state with bit 63 set is a
    # Python int and the LP's columns are an object array
    rng = random.Random(32)
    system = random_product_system(rng, 2, 32)
    support = [(1 << 63) | rng.getrandbits(63) for _ in range(40)]
    support += [rng.getrandbits(63) for _ in range(10)]
    lp = assert_incidence_matches(system, support)
    assert lp.columns.dtype == object and lp.incidence.any(axis=1).all()


# -- the assembled LP reaches the vertices of the stacked one ---------------

BELL2_PARAMS = [("1/3", "1/4", "5/12", "1/2"), ("1/4", "1/2", "1/2", "3/4"),
                ("1/8", "1/8", "1/8", "1/4"), ("1/2", "1/4", "1/2", "5/8")]


def pinned_systems():
    """Every other catalog system at its defaults, quasi-super-ghz at
    eps = k/128 for k = 0..32, epr-b-regular at K = 2..6 and four bell2 tables."""
    for name in gs.catalog.names():
        if name != "quasi-super-ghz":
            yield gs.build(name)
    for k in range(33):
        yield gs.build("quasi-super-ghz", eps=F(k, 128))
    for K in range(2, 7):
        yield gs.build("epr-b-regular", k=K)
    for params in BELL2_PARAMS:
        yield gs.general_bell2(*map(F, params))


# sha256 of the canonical JSON, per system, of the solved gauge set's
# `to_dict()` beside each distribution's weight order, or of the
# configurations reported infeasible; computed with the stacked shared LP
PINNED_GAUGES_SHA256 = "ff1c718acaf572265ff42440246652c3664ca083664ff065e3f12a865463a898"


def test_solved_gauges_match_the_pinned_digest():
    answers = []
    for system in pinned_systems():
        try:
            gauges = solve_all_gauges(system)
        except Infeasible as exc:
            answers.append({"infeasible": sorted(exc.gammas)})
        else:
            answers.append([gauges.to_dict(), [list(d.weights) for d in gauges]])
    assert len(answers) == 54
    digest = hashlib.sha256(json.dumps(answers).encode()).hexdigest()
    assert digest == PINNED_GAUGES_SHA256


def stacked_shared_gauge(system, support):
    """The shared LP as every configuration's rows of the assembled LP
    stacked, at the system's slack."""
    lp = _assemble(system, support)
    K = system.num_settings
    masks = [lp.settings[:, gamma // K] == gamma % K for gamma in range(system.n * K)]
    return solve_nonnegative(np.concatenate([lp.incidence[rows] for rows in masks]),
                             np.concatenate([lp.rhs[rows] for rows in masks]),
                             lp.columns, lp.slack, lp.denominator)


def assert_shared_matches_stack(system, support=None):
    got = solve_shared_gauge(system, support)
    want = stacked_shared_gauge(system, support)
    assert (got is None) == (want is None)
    if want is not None:
        assert list(got.items()) == list(want.items())
    return got is not None


def random_box_mixture(rng, floats, shape=None):
    """A product table mixed with a parity box, exact or as floats, of the
    given (n, K) or of a random small one.

    The box shows outcome vectors of parity f(u) for a random f, uniformly;
    its proper marginals are uniform, so the mixture is locally consistent
    but often has no shared gauge.
    """
    n, K = shape or rng.choice([(1, 2), (2, 2), (2, 3), (3, 2)])
    parity = {u: rng.randrange(2) for u in product(range(K), repeat=n)}
    w = F(rng.randint(0, 4), 4)
    table = {}
    for (x, u), p in random_product_table(rng, n, K, rng.choice((2, 4, 12))).items():
        value = w * (F(1, 2 ** (n - 1)) if sum(x) % 2 == parity[u] else 0) + (1 - w) * p
        table[(x, u)] = float(value) if floats else value
    return gs.ProbabilitySystem(n, K, [f"t{k}" for k in range(K)], table)


@pytest.mark.parametrize("name", gs.catalog.names())
def test_shared_gauge_equals_the_stacked_lp_on_catalog_systems(name):
    system = gs.build(name)
    assert_shared_matches_stack(system)
    if system.n == 2:
        assert_shared_matches_stack(system, bell_support(system.num_settings))


def test_shared_gauge_equals_the_stacked_lp_on_random_tables():
    rng = random.Random(20261018)
    outcomes = set()
    for trial in range(100):
        system = random_box_mixture(rng, floats=trial % 2 == 1)
        outcomes.add((system.backend, assert_shared_matches_stack(system)))
    assert len(outcomes) == 4  # feasible and infeasible, rational and float


# -- each configuration's LP on its distinct columns ------------------------


def copy_class_leaders(columns, gamma, K):
    """The first column in order of each class of states equal but for gamma's
    region's bits at its other settings, tested state by state."""
    i, k = gamma // K, gamma % K
    other = sum(1 << (c + i * K) for c in range(K) if c != k)
    seen, leaders = set(), []
    for j in columns:
        if j & ~other not in seen:
            seen.add(j & ~other)
            leaders.append(j)
    return leaders


def vertex(weights):
    return None if weights is None else list(weights.items())


def assert_distinct_columns_give_the_full_lp(system, support):
    """Each configuration's cached LP against its rows of the full incidence on
    every column: the same pivots and vertex, or the same failure, with and
    without the Bell certificate; `solve_gauge` gives the certified one.
    Returns the number of copies the configurations' LPs left out and the
    number of vertices found."""
    lp = _assemble(system, support)
    K = system.num_settings
    copies, found = 0, 0
    position = {j: at for at, j in enumerate(lp.columns.tolist())}
    for gamma in range(system.n * K):
        rows, columns, incidence = lp.configs[gamma]
        assert rows.tolist() == (lp.settings[:, gamma // K] == gamma % K).tolist()
        assert columns.tolist() == copy_class_leaders(lp.columns.tolist(), gamma, K)
        assert columns.dtype == lp.columns.dtype
        kept = [position[j] for j in columns.tolist()]
        assert incidence.tolist() == lp.incidence[rows][:, kept].tolist()
        rhs = lp.rhs[rows]
        certificate = _certificate(lp, K, gamma, rows)
        for y in (None, certificate):
            want = solve_nonnegative(lp.incidence[rows], rhs, lp.columns, lp.slack,
                                     lp.denominator, y)
            got = solve_nonnegative(incidence, rhs, columns, lp.slack, lp.denominator, y)
            assert vertex(got) == vertex(want), (gamma, y is None)
        try:
            solved = solve_gauge(system, gamma, support, lp=lp).weights
        except (Infeasible, SupportTooSmall):
            solved = None
        assert vertex(solved) == vertex(want)
        copies += lp.columns.size - columns.size
        found += solved is not None
    return copies, found


@pytest.mark.parametrize("n, K", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (3, 4)])
@pytest.mark.parametrize("floats", [False, True], ids=["rational", "float"])
def test_distinct_columns_give_the_vertex_of_every_column(n, K, floats):
    rng = random.Random(f"{n}:{K}:{floats}")
    full = _full_support(n, K).tolist()
    trials, counts = 3 if n * K < 12 else 1, np.zeros(2, dtype=int)
    for _ in range(trials):
        system = random_box_mixture(rng, floats, (n, K))
        for support in (None, rng.sample(full, len(full) // 3), rng.sample(full, 2 * n * K)):
            counts += assert_distinct_columns_give_the_full_lp(system, support)
    assert counts[0] > 0  # copies were left out
    assert counts[1] > 0 or trials == 1  # and, over three tables, vertices found


def deterministic_mixture(n, K, states):
    """Equal-weight mixture of the deterministic systems of `states`."""
    table = {}
    for u in product(range(K), repeat=n):
        for x in product((0, 1), repeat=n):
            hits = sum(all(j >> (u[i] + i * K) & 1 == x[i] for i in range(n)) for j in states)
            table[(x, u)] = F(hits, len(states))
    return gs.ProbabilitySystem(n, K, [f"t{k}" for k in range(K)], table)


def test_distinct_columns_on_states_past_int64():
    # n = 2, K = 32: states with bit 63 set make an object array of columns.
    # The working set holds the mixture's two states, copies of them for
    # some configurations, and other states, so the LPs have copies to drop
    # and vertices to find on a copy or on a state itself
    rng = random.Random(3264)
    states = [(1 << 63) | rng.getrandbits(63), rng.getrandbits(63)]
    system = deterministic_mixture(2, 32, states)
    support = states + [j ^ 1 << rng.randrange(64) for j in states for _ in range(6)]
    support += [(1 << 63) | rng.getrandbits(63) for _ in range(6)]
    support = list(dict.fromkeys(support))
    assert _assemble(system, support).columns.dtype == object
    assert all(assert_distinct_columns_give_the_full_lp(system, support))
    for dist in solve_all_gauges(system, support):  # the shared LP
        assert dist.weights == {j: F(1, 2) for j in states}


def test_the_layout_is_cached_read_only_per_support():
    full = _lp_layout(2, 3, None)
    assert _lp_layout(2, 3, None) is full
    one, other = _lp_layout(2, 3, (0, 5, 9)), _lp_layout(2, 3, (0, 5, 10))
    assert one is not other and one[0].tolist() != other[0].tolist()
    assert _lp_layout(2, 3, (0, 5, 9)) is one
    for columns, incidence, settings, configs in (full, one, other):
        for array in (columns, incidence, settings, *(a for config in configs for a in config)):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array.flat[0] = array.flat[0]
    # two systems of one shape share the layout, not the targets
    first = _assemble(gs.pr_box(), None)
    second = _assemble(random_product_system(random.Random(2), 2, 2), None)
    assert first.incidence is second.incidence and first.configs is second.configs
    assert first.rhs.tolist() != second.rhs.tolist()


# sha256 of epr-b-regular's solved gauge set at K = 7 and 8, each as one entry
# of PINNED_GAUGES_SHA256's list; computed with every column in every LP
EPR_B_REGULAR_SHA256 = {
    7: "112185c4bda2029547e877cef9e4b489ad297a412d02ebb46dc08cd128d07da0",
    8: "9b1b240db4a118f1bdaa8bdb2fd00082fb37096f3c7dc5450c91e65139a7d9e4",
}


@pytest.mark.parametrize("K", [7, 8])
def test_epr_b_regular_at_scale(K):
    system = gs.build("epr-b-regular", k=K)
    start = time.perf_counter()
    gauges = solve_all_gauges(system)
    seconds = time.perf_counter() - start
    answer = [gauges.to_dict(), [list(d.weights) for d in gauges]]
    assert hashlib.sha256(json.dumps(answer).encode()).hexdigest() == EPR_B_REGULAR_SHA256[K]
    if K == 8:
        assert seconds < 2.0, f"solve_all_gauges took {seconds:.2f} s at K = 8"


class TestPublishedVertices:
    def test_singlet_identical_quadruple(self):
        gauges = solve_all_gauges(gs.singlet())
        expected = {7: F(1, 4), 28: F(1, 4), 42: F(1, 4), 49: F(1, 4)}
        for dist in gauges:
            assert dist.weights == expected

    def test_pr_box_reference_supports(self):
        gauges = solve_all_gauges(gs.pr_box())
        assert gauges.by_gamma(0).weights == {0: F(1, 2), 15: F(1, 2)}
        assert gauges.by_gamma(1).weights == {6: F(1, 2), 9: F(1, 2)}
        assert gauges.by_gamma(2).weights == {0: F(1, 2), 15: F(1, 2)}
        assert gauges.by_gamma(3).weights == {6: F(1, 2), 9: F(1, 2)}

    def test_pr_box_has_no_shared_distribution(self):
        assert solve_shared_gauge(gs.pr_box()) is None

    @pytest.mark.parametrize("name", ["pr-box", "ghz-xy", "super-ghz", "singlet"])
    def test_each_configuration_is_built_once(self, monkeypatch, name):
        # the shared attempt fails on all but the singlet; every LP, shared or
        # per configuration, takes its rows from one LP assembled per call
        system = gs.build(name)
        assembled = []
        real = gs.solver._assemble
        monkeypatch.setattr(gs.solver, "_assemble",
                            lambda *args: assembled.append(args[1]) or real(*args))
        monkeypatch.setattr(gs.solver, "gauge_equations", lambda *a: pytest.fail("built"))
        for support in (None, list(range(1 << system.n * system.num_settings))):
            try:
                solve_all_gauges(system, support)
            except (Infeasible, SupportTooSmall):
                pass
        assert [support is None for support in assembled] == [True, False]

    def test_a_passed_lp_gives_the_fresh_vertex(self):
        system = gs.build("epr-b-regular", k=3)
        fresh = solve_gauge(system, 0)
        assert fresh.support() == (18, 27, 34, 43)
        assert solve_gauge(system, 0, None, lp=_assemble(system, None)) == fresh
        working = np.array([18, 27, 34, 43, 5])
        lp = _assemble(system, working)
        assert solve_gauge(system, 0, working, lp=lp) == fresh
        working[:4] = [1, 2, 3, 4]  # the LP holds its own copy of the columns
        assert solve_gauge(system, 0, working, lp=lp) == fresh
        assert solve_shared_gauge(gs.pr_box(), lp=_assemble(gs.pr_box(), None)) is None

    def test_float_targets_are_snapped_once_per_system(self, monkeypatch):
        system = gs.epr_b((0.0, math.pi / 5, math.pi / 2))
        snapped = []

        def counted(value):
            snapped.append(value)
            return snap(value)

        monkeypatch.setattr(gs.solver, "snap", counted)
        gauges = solve_all_gauges(system)
        assert verify_consistency(system, gauges)
        distinct = {p for _target, p in system.targets()}
        assert sorted(snapped) == sorted(distinct) and len(distinct) < len(list(system.targets()))


class TestVerifyConsistency:
    def test_three_setting_reference_table_deviation(self):
        # the rounded reference weights reproduce targets to table precision
        system = gs.epr_b(MAX_VIOLATION_ANGLES)
        from gaugesim.solver import GaugeDistribution, GaugeSet

        dists = []
        for i in (0, 1):
            for k, tbl in THREE_SETTING_REFERENCE.items():
                dists.append(GaugeDistribution(
                    k + 3 * i, {bell_lift(j, 3): w for j, w in tbl.items()}
                ))
        report = verify_consistency(system, GaugeSet(tuple(dists)))
        assert report.max_deviation <= 1e-3

    def test_perturbed_weight_reported(self):
        system = gs.pr_box()
        gauges = solve_all_gauges(system)
        bad = gauges.by_gamma(0).weights.copy()
        bad[0] += F(1, 100)
        from gaugesim.solver import GaugeDistribution, GaugeSet

        broken = GaugeSet(
            (GaugeDistribution(0, bad),) + tuple(
                d for d in gauges if d.gamma != 0
            )
        )
        report = verify_consistency(system, broken)
        assert not report
        assert report.max_deviation == pytest.approx(0.01)

    def test_gauge_invariance_of_reconstruction(self):
        # all compatible configurations reconstruct identical probabilities
        for name in ("singlet", "pr-box", "w-xy", "ghz-xy"):
            system = gs.build(name)
            try:
                gauges = solve_all_gauges(system)
            except Infeasible:
                continue
            K = system.num_settings
            for (x, u), p in system.targets():
                values = set()
                for i in range(system.n):
                    dist = gauges.by_gamma(u[i] + i * K)
                    values.add(reconstruct(dist, x, u, K))
                assert values == {p}


    @pytest.mark.parametrize("K, deviation, site", [
        (2, 8.326672684688674e-17, (1, (0, 1), (1, 0))),
        (3, 2.3592239273284576e-16, (2, (1, 1), (2, 0))),
        (4, 1.6653345369377348e-16, (0, (0, 0), (0, 1))),
        (5, 1.1102230246251565e-16, (0, (0, 0), (0, 0))),
        (6, 1.942890293094024e-16, (1, (0, 0), (1, 5))),
    ])
    def test_regular_plateau_report_is_pinned(self, K, deviation, site):
        # float sums fold in weight order, so the report keeps every bit
        family, plateau = epr_regular_gauge(K), double_plateau(K)
        # the family's weights over EPS_NUM on the lifted double-plateau states
        weights = [{bell_lift(plateau[r], K): family.weight(r, k) for r in range(2 * K)
                    if family.weight(r, k) > EPS_NUM} for k in range(K)]
        gauges = GaugeSet(tuple(
            GaugeDistribution(k + i * K, weights[k]) for i in (0, 1) for k in range(K)
        ))
        report = verify_consistency(gs.epr_b_regular(K), gauges)
        assert report.ok
        assert report.max_deviation == deviation
        assert report.worst_site == site

    @pytest.mark.parametrize("angles, deviation, site", [
        ((0, 0.3), 0.0, None),
        ((0.1, 0.35, 0.6), 5.551115123125783e-17, (1, (0, 0), (1, 0))),
        ((0, 0.3, 0.9, 1.4), 5.551115123125783e-17, (0, (1, 1), (0, 1))),
    ])
    def test_working_gauge_report_is_pinned(self, angles, deviation, site):
        report = verify_consistency(gs.epr_b(angles), epr_b_working_gauge(angles))
        assert report.ok
        assert report.max_deviation == deviation
        assert report.worst_site == site

    @pytest.mark.parametrize("name", ["singlet", "w-xy", "epr-b", "epr-b-regular"])
    def test_reconstruct_equals_the_in_target_fold(self, name):
        system = gs.build(name)
        K = system.num_settings
        gauges = (epr_b_working_gauge(MAX_VIOLATION_ANGLES) if name == "epr-b"
                  else solve_all_gauges(system))
        for dist in gauges:
            for (x, u), _p in system.targets():
                expected = sum(w for j, w in dist.weights.items() if in_target(j, x, u, K))
                got = reconstruct(dist, x, u, K)
                assert got == expected and type(got) is type(expected)


class TestWorkingSetCheck:
    SUPPORTS = {
        "duplicate": list(range(64)) + [5],
        "too-wide": [71, 28, 42, 49],
        "negative": [-57, 28, 42, 49],
    }

    @pytest.mark.parametrize("kind", SUPPORTS)
    @pytest.mark.parametrize("solve", [
        lambda system, support: solve_gauge(system, 0, support),
        solve_shared_gauge,
        solve_all_gauges,
    ], ids=["solve_gauge", "solve_shared_gauge", "solve_all_gauges"])
    def test_every_solve_rejects_a_bad_working_set(self, kind, solve):
        with pytest.raises(ValidationError, match="working set"):
            solve(gs.singlet(), self.SUPPORTS[kind])

    def test_the_whole_index_space_is_a_valid_working_set(self):
        assert solve_all_gauges(gs.singlet(), list(range(64))) == solve_all_gauges(gs.singlet())


class TestClosedFormWorkingGauges:
    def test_two_setting_distributions_identical(self):
        theta = 0.9
        gauges = epr_b_working_gauge((0.0, theta))
        g0, g1 = gauges.by_gamma(0), gauges.by_gamma(1)
        assert g0.weights == g1.weights
        assert g0.weight(bell_lift(0, 2)) == pytest.approx((1 + math.cos(theta)) / 4)
        assert g0.weight(bell_lift(1, 2)) == pytest.approx((1 - math.cos(theta)) / 4)

    def test_three_setting_matches_solver(self):
        system = gs.epr_b(MAX_VIOLATION_ANGLES)
        closed = epr_b_working_gauge(MAX_VIOLATION_ANGLES)
        support = bell_support(3)
        for gamma in range(3):
            solved = solve_gauge(system, gamma, support=support)
            for j in support:
                assert float(solved.weight(j)) == pytest.approx(
                    closed.by_gamma(gamma).weight(j), abs=1e-9
                )

    def test_four_setting_two_weight_values(self):
        angles = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4)
        gauges = epr_b_working_gauge(angles)
        values = set()
        for gamma in range(4):
            for w in gauges.by_gamma(gamma).weights.values():
                values.add(round(w, 3))
        assert values == {0.073, 0.177}
        report = verify_consistency(gs.epr_b(angles), gauges)
        assert report.max_deviation <= 1e-9

    def test_negative_entry_outside_validity(self):
        with pytest.raises(NegativeEntry):
            epr_b_working_gauge((0.0, 2.5, 0.3))


    def test_one_rule_gives_the_hand_tables(self):
        """Weights, dict order and NegativeEntry text equal the K = 2, 3, 4 hand
        tables bit for bit, on sorted, unsorted and negative angles and on
        the pi/8 grid, where many weights are exactly 0."""
        rng = random.Random(29)
        cases = [tuple(k * math.pi / 8 for k in ks) for K in (2, 3, 4)
                 for ks in product(range(-2, 6), repeat=K)]
        for _ in range(1500):
            K = rng.choice((2, 3, 4))
            angles = [rng.uniform(-math.pi, math.pi) * rng.choice((0.1, 0.5, 1)) for _ in range(K)]
            cases += [tuple(angles), tuple(sorted(angles))]
        outcomes = set()
        for angles in cases:
            try:
                want = ref.epr_b_working_gauge(angles)
            except NegativeEntry as exc:
                with pytest.raises(NegativeEntry) as info:
                    epr_b_working_gauge(angles)
                assert (str(info.value), info.value.value) == (str(exc), exc.value), angles
                outcomes.add("negative")
                continue
            got = epr_b_working_gauge(angles)
            assert [(d.gamma, list(d.weights.items())) for d in got] == \
                [(d.gamma, list(d.weights.items())) for d in want], angles
            outcomes.add("gauges")
        assert outcomes == {"negative", "gauges"}
        for angles in ((), (0.0,), (0.0,) * 5):
            with pytest.raises(ValidationError):
                epr_b_working_gauge(angles)


class TestRegularFamily:
    def test_normalization(self):
        for K in range(2, 9):
            family = epr_regular_gauge(K)
            assert sum(family.weight(r) for r in range(2 * K)) == pytest.approx(1.0)

    def test_five_setting_symbolic_pattern(self):
        family = epr_regular_gauge(5)
        alpha = math.pi / 10
        m = 0.5 * math.sin(alpha)
        pattern = [1.0, math.cos(2 * alpha), math.cos(4 * alpha),
                   math.cos(4 * alpha), math.cos(2 * alpha)]
        for r in range(10):
            assert family.weight(r) == pytest.approx(m * pattern[r % 5], abs=1e-12)
        for k in range(5):
            for r in range(10):
                assert family.weight(r, k) == pytest.approx(
                    family.weight((r - k) % 10), abs=1e-15
                )

    def test_closed_form_agrees_with_three_setting_table(self):
        # at evenly spaced angles the general closed form and the regular
        # family describe the same distributions
        K = 3
        angles = [k * math.pi / K for k in range(K)]
        table_form = epr_b_working_gauge(angles)
        family = epr_regular_gauge(K)
        plateau = double_plateau(K)
        for k in range(K):
            for r in range(2 * K):
                lifted = bell_lift(plateau[r], K)
                assert table_form.by_gamma(k).weight(lifted) == pytest.approx(
                    family.weight(r, k), abs=1e-12
                )

    @pytest.mark.parametrize("K", (3, 4, 5))
    def test_solver_agreement_on_plateau_support(self, K):
        system = gs.epr_b_regular(K)
        family = epr_regular_gauge(K)
        plateau = double_plateau(K)
        support = bell_support(K)
        for k in range(K):
            solved = solve_gauge(system, k, support=support)
            for r in range(2 * K):
                assert float(solved.weight(bell_lift(plateau[r], K))) == pytest.approx(
                    family.weight(r, k), abs=1e-9
                )


def _trapezoid(y, x):
    """Trapezoid rule over samples y at x, as NumPy's `trapezoid` (`trapz`
    before NumPy 2) computes it; spelled out so the tests run on both."""
    return float((np.diff(x) * (y[1:] + y[:-1]) / 2.0).sum())


class TestContinuousGauge:
    def test_density_normalizes(self):
        # quadrature oracle over a fine grid
        gauge = continuous_gauge(1.1)
        grid = np.linspace(0.0, 2 * math.pi, 200001)
        values = 0.25 * np.abs(np.cos(gauge.theta - grid))
        integral = _trapezoid(values, grid)
        assert integral == pytest.approx(1.0, abs=1e-8)

    def test_projection_values(self):
        gauge = continuous_gauge(0.7)
        assert gauge.projection(0.7, 0.7) == 1
        assert gauge.projection(0.7, 0.7 + math.pi) == 0

    def test_induced_probabilities_by_quadrature(self):
        # integrate the density over each joint projection cell
        theta_a, theta_b = 0.3, 1.4
        gauge = continuous_gauge(theta_a)
        grid = np.linspace(0.0, 2 * math.pi, 400001)
        density = 0.25 * np.abs(np.cos(theta_a - grid))
        x0 = np.cos(theta_a - grid) >= 0
        x1 = np.cos(theta_b - grid) >= 0
        c = math.cos(theta_a - theta_b)
        for b0 in (0, 1):
            for b1 in (0, 1):
                cell = (x0 == bool(b0)) & (x1 == bool(b1))
                got = _trapezoid(np.where(cell, density, 0.0), grid)
                want = 0.25 * (1 + c) if b0 == b1 else 0.25 * (1 - c)
                assert got == pytest.approx(want, abs=1e-5)

    def test_inverse_cdf_round_trip(self):
        gauge = continuous_gauge(0.0)
        # quantiles of the base density recover their own integrals
        for u in (0.01, 0.2, 0.25, 0.5, 0.74, 0.9, 0.999):
            lam = gauge._inverse_cdf(u)
            grid = np.linspace(0.0, lam, 200001)
            mass = _trapezoid(0.25 * np.abs(np.cos(grid)), grid)
            assert mass == pytest.approx(u, abs=1e-6)

    def test_sampler_matches_density(self):
        from gaugesim.collapse import make_rng

        gauge = continuous_gauge(0.5)
        rng = make_rng(11)
        draws = gauge.sample(rng, 200000)
        assert np.all((0 <= draws) & (draws < 2 * math.pi))
        # mass of the quarter period [theta, theta + pi/2) should be 1/4
        shifted = (draws - 0.5) % (2 * math.pi)
        frac = np.mean(shifted < math.pi / 2)
        assert frac == pytest.approx(0.25, abs=0.01)
