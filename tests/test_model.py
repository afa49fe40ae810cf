"""Core model: construction, validation, marginals, conditioning."""

import json
import math
import random
import re
import tracemalloc
import warnings
from fractions import Fraction as F
from itertools import combinations, product

import numpy as np
import pytest

import gaugesim as gs
import reference_model as ref
from gaugesim import model
from conftest import int64_mixture, random_product_table
from gaugesim.errors import (
    GaugeSimError,
    MissingTarget,
    NormalizationViolation,
    ValidationError,
    WrongArity,
    ZeroProbabilityBranch,
)
from gaugesim.model import (
    ProbabilitySystem,
    branches,
    condition,
    integer_view,
    is_locally_consistent,
    is_separable,
    is_totally_correlated,
    marginal,
    new_system,
    product_system,
)


def fair_coins(n=2, K=2):
    table = {
        (x, u): F(1, 2 ** n)
        for u in product(range(K), repeat=n)
        for x in product((0, 1), repeat=n)
    }
    return new_system(n, K, [f"t{k}" for k in range(K)], table)


def test_configuration_round_trip():
    from gaugesim.ignition import config_region, config_setting
    from gaugesim.model import Configuration

    for K in (1, 2, 3):
        for region in range(3):
            for setting in range(K):
                gamma = Configuration(region, setting, K).index
                assert (config_region(gamma, K), config_setting(gamma, K)) == (region, setting)


class TestConstruction:
    def test_pr_box_is_valid(self):
        system = gs.pr_box()
        assert system.n == 2 and system.num_settings == 2
        assert system.prob((0, 0), (0, 0)) == F(1, 2)

    @pytest.mark.parametrize("backend", ["rational", "float"])
    def test_prob_refuses_targets_outside_the_table(self, backend):
        # wrong lengths raised IndexError or TypeError, and a negative entry
        # read the table from its end
        system = gs.pr_box()
        if backend == "float":
            system = gs.ProbabilitySystem(2, 2, system.labels,
                                          {t: float(p) for t, p in system.targets()})
        for x, u in (((0, 0, 1), (0, 0)), ((0,), (0, 0)), ((0, 1), (0,)), ((), ())):
            with pytest.raises(ValidationError) as info:
                system.prob(x, u)
            assert str(info.value) == (f"expected 2 outcomes and 2 settings, "
                                       f"got {len(x)} and {len(u)}")
        for x, u in (((0, 2), (0, 0)), ((0, -1), (0, 0)), ((0, 1), (0, 2)),
                     ((0, 1), (-1, 0)), ((0, "a"), (0, 0)), ((0, 1), (0, 0.5))):
            with pytest.raises(ValidationError) as info:
                system.prob(x, u)
            assert str(info.value) == f"no target ({x}|{u})"
        assert system.prob([1, 1], np.array([1, 1])) == 0
        assert system.prob((1, 0), (1, 1)) == F(1, 2)

    def test_degenerate_one_region(self):
        system = new_system(1, 1, ["z"], {((0,), (0,)): 1, ((1,), (0,)): 0})
        assert system.prob((0,), (0,)) == 1

    def test_normalization_violation(self):
        table = {
            (x, u): F(1, 4)
            for u in product(range(2), repeat=3)
            for x in product((0, 1), repeat=3)
            if sum(x) % 2 == 0
        }
        table.update(
            {
                (x, u): F(0)
                for u in product(range(2), repeat=3)
                for x in product((0, 1), repeat=3)
                if sum(x) % 2 == 1
            }
        )
        table[((0, 0, 0), (0, 0, 0))] = F(1, 3)  # breaks one column's sum
        with pytest.raises(NormalizationViolation):
            new_system(3, 2, ["X", "Y"], table)

    def test_numpy_integer_entries_do_not_wrap(self):
        # two np.int64 entries of 2**62: their sum is reported as Python ints give it
        table = {((0,), (0,)): np.int64(2**62), ((1,), (0,)): np.int64(2**62)}
        with pytest.raises(NormalizationViolation) as err:
            new_system(1, 1, ["z"], table)
        assert "sum to 9223372036854775808," in str(err.value)
        assert "-9223372036854775808" not in str(err.value)
        exact = {key: int(value) for key, value in table.items()}
        with pytest.raises(NormalizationViolation) as want:
            new_system(1, 1, ["z"], exact)
        assert str(err.value) == str(want.value)
        # a valid table of numpy integers keeps its exact view
        system = new_system(1, 1, ["z"], {((0,), (0,)): np.int64(0), ((1,), (0,)): np.int64(1)})
        assert integer_view(system)[1] == 1 and system.prob((1,), (0,)) == 1

    def test_missing_target(self):
        table = {((0,), (0,)): F(1)}
        with pytest.raises(MissingTarget):
            new_system(1, 2, ["a", "b"], table)

    def test_rational_backend_rejects_floats(self):
        with pytest.raises(TypeError):
            new_system(
                1, 1, ["z"], {((0,), (0,)): 0.5, ((1,), (0,)): F(1, 2)},
                backend="rational",
            )

    def test_json_round_trip(self):
        for system in (gs.singlet(), gs.epr_b((0.0, 1.0))):
            clone = ProbabilitySystem.from_json(json.dumps(system.to_dict()))
            assert clone == system
            assert clone.backend == system.backend


class TestConsistency:
    def test_epr_b_locally_consistent(self):
        assert is_locally_consistent(gs.epr_b((0.0, 0.7, 1.2)))

    def test_constant_table_consistent(self):
        assert is_locally_consistent(fair_coins())

    def test_constructed_violation_detected(self):
        # region-0 marginal at setting 0 shifts by 1/10 when u1 flips
        table = {}
        for u in product(range(2), repeat=2):
            p0 = F(1, 2) if u[1] == 0 else F(2, 5)
            for x in product((0, 1), repeat=2):
                table[(x, u)] = (p0 if x[0] == 0 else 1 - p0) * F(1, 2)
        system = new_system(2, 2, ["a", "b"], table)
        report = is_locally_consistent(system)
        assert not report
        assert abs(report.max_deviation - 0.1) < 1e-12

    def test_worst_site_is_a_one_region_marginal(self):
        # Uniform n = 3 table; at u = (1, 0, 1) move 1/32 from x0 = 1 to
        # x0 = 0 for the rest (0, 0) and (1, 1).  Region 0's marginal shifts
        # by 1/16 while every two-region marginal shifts by at most 1/32.
        table = {
            (x, u): F(1, 8)
            for u in product(range(2), repeat=3)
            for x in product((0, 1), repeat=3)
        }
        for rest in ((0, 0), (1, 1)):
            table[((0,) + rest, (1, 0, 1))] += F(1, 32)
            table[((1,) + rest, (1, 0, 1))] -= F(1, 32)
        report = is_locally_consistent(new_system(3, 2, ["a", "b"], table))
        assert not report.ok
        assert report.max_deviation == 1 / 16
        assert report.worst_site == ((0,), (0,), (1,), (0, 1))


    def test_float_tie_keeps_the_first_site(self):
        report = is_locally_consistent(new_system(2, 2, ["a", "b"], _float_tie_table()))
        assert report.max_deviation == 0.125
        assert report.worst_site == ((0,), (0,), (0,), (1,))


class TestTotalCorrelation:
    def test_bell2_family_is_totally_correlated(self):
        for qs in ((F(1, 2), F(1, 2), F(3, 4), F(3, 4)),
                   (F(1, 3), F(1, 4), F(5, 12), F(1, 2))):
            assert is_totally_correlated(gs.general_bell2(*qs))

    def test_singlet_not_totally_correlated(self):
        assert not is_totally_correlated(gs.singlet())

    def test_independent_coins_not_totally_correlated(self):
        assert not is_totally_correlated(fair_coins())

    def test_wrong_arity(self):
        with pytest.raises(WrongArity):
            is_totally_correlated(gs.ghz_xy())


class TestMarginal:
    def test_w_pair_marginal(self):
        system = gs.w_xy()
        pair = marginal(system, (0, 1))
        assert type(pair) is ProbabilitySystem
        assert marginal(system, range(system.n)) is system
        assert pair.prob((0, 0), (0, 0)) == F(5, 12)
        assert pair.prob((0, 1), (0, 0)) == F(1, 12)
        assert pair.prob((0, 0), (0, 1)) == F(1, 4)

    def test_ghz_pair_marginal_uniform(self):
        pair = marginal(gs.ghz_xy(), (0, 1))
        for (x, u), p in pair.targets():
            assert p == F(1, 4)

    def test_product_marginal_returns_factor(self, rng):
        factors = [gs.one_region([F(1, 3), F(2, 3)]), gs.one_region([F(1, 2), F(1, 5)])]
        system = product_system(factors)
        kept = marginal(system, (0,))
        for k in range(2):
            for x in ((0,), (1,)):
                assert kept.prob(x, (k,)) == factors[0].prob(x, (k,))

    def test_marginal_composition(self):
        system = gs.w_xy()
        once = marginal(system, (0, 1))
        twice = marginal(once, (0,))
        direct = marginal(system, (0,))
        assert twice == direct


class TestConditioning:
    def test_super_ghz_branch_is_anticorrelated_box(self):
        branch = condition(gs.super_ghz(), 2, 0, 0)
        assert branch.prob((0, 0), (0, 0)) == F(0)
        assert branch.prob((0, 1), (0, 0)) == F(1, 2)

    def test_ghz_branch_is_bell_state(self):
        branch = condition(gs.ghz_xy(), 2, 0, 0)
        assert branch.prob((0, 0), (0, 0)) == F(1, 2)
        assert branch.prob((0, 1), (0, 0)) == F(0)
        assert branch.prob((0, 0), (0, 1)) == F(1, 4)

    def test_w_branch(self):
        branch = condition(gs.w_xy(), 2, 0, 0)
        assert branch.prob((0, 0), (0, 0)) == F(3, 4)
        assert branch.prob((0, 1), (0, 0)) == F(1, 12)

    def test_zero_probability_branch(self):
        system = product_system(
            [gs.one_region([F(1)]), gs.one_region([F(1, 2)])]
        )
        with pytest.raises(ZeroProbabilityBranch):
            condition(system, 0, 0, 1)

    def test_product_rule_reconstructs_parent(self):
        system = gs.w_xy()
        for setting in range(2):
            for outcome in (0, 1):
                branch = condition(system, 2, setting, outcome)
                weight = system.region_marginal(2, setting)[outcome]
                for u_rest in product(range(2), repeat=2):
                    for x_rest in product((0, 1), repeat=2):
                        lhs = weight * branch.prob(x_rest, u_rest)
                        rhs = system.prob(
                            x_rest + (outcome,), u_rest + (setting,)
                        )
                        assert lhs == rhs

    def test_separable_conditioning_leaves_marginal(self):
        system = product_system(
            [gs.one_region([F(1, 3), F(1, 2)]), gs.one_region([F(1, 4), F(3, 4)])]
        )
        branch = condition(system, 0, 1, 0)
        rest = marginal(system, (1,))
        assert branch == rest


class TestBranches:
    @staticmethod
    def _coin_pair(p1):
        """Region 0 shows 1 with probability p1 at setting 0 and 1/2 at setting 1."""
        half = F(1, 2) if isinstance(p1, F) else 0.5
        return product_system([gs.one_region([1 - p1, half]), gs.one_region([half, half])])

    def test_only_zero_probability_outcomes_are_skipped(self):
        every = [(0, 0), (0, 1), (1, 0), (1, 1)]
        for p1, expected in ((F(1, 10**12), every), (1e-12, every[:1] + every[2:]),
                             (F(0), every[:1] + every[2:])):
            system = self._coin_pair(p1)
            got = [(setting, outcome) for setting, outcome, _ in branches(system, 0)]
            assert got == expected, p1

    def test_setting_outcome_order_and_branches(self):
        system = gs.w_xy()
        for region in range(3):
            got = list(branches(system, region))
            assert [(s, x) for s, x, _ in got] == list(product(range(2), (0, 1)))
            for setting, outcome, branch in got:
                conditioned = condition(system, region, setting, outcome)
                assert type(branch) is ProbabilitySystem
                assert type(conditioned) is ProbabilitySystem
                assert branch == conditioned

    def test_one_region_system_has_no_branches(self):
        with pytest.raises(WrongArity):
            list(branches(gs.one_region([F(1, 2)]), 0))


class TestSeparability:
    def test_ghz_pair_marginal_separable(self):
        assert is_separable(marginal(gs.ghz_xy(), (0, 1)))

    def test_pr_box_not_separable(self):
        assert not is_separable(gs.pr_box())

    def test_product_separable(self, rng):
        from conftest import random_product_system

        for _ in range(20):
            assert is_separable(random_product_system(rng, 2, 2))


# -- differential tests against the dict-loop reference --------------------


def _mixture_table(rng, n, K):
    """Convex mixture of random product tables: locally consistent."""
    parts = [rng.randint(1, 6) for _ in range(3)]
    tables = [random_product_table(rng, n, K, denominator=6) for _ in parts]
    return {
        key: sum((F(w, sum(parts)) * t[key] for w, t in zip(parts, tables)), F(0))
        for key in tables[0]
    }


def _signalling(rng, table, n, K):
    """Move a third of one target's mass to another outcome at the same u."""
    table = dict(table)
    u = tuple(rng.randrange(K) for _ in range(n))
    column = list(product((0, 1), repeat=n))
    source = max(column, key=lambda x: (table[(x, u)], rng.random()))
    target = rng.choice([x for x in column if x != source])
    delta = table[(source, u)] / 3
    table[(source, u)] -= delta
    table[(target, u)] += delta
    return table


def _cases():
    rng = random.Random(20261018)
    shapes = [(n, K) for n in range(1, 5) for K in range(1, 4)] + [(5, 1), (5, 2)]
    cases = []
    for n, K in shapes:
        mixture = _mixture_table(rng, n, K)
        # biases in {0, 1/2, 1} give zero-probability branches
        coins = random_product_table(rng, n, K, denominator=2)
        variants = (("mix", mixture), ("sig", _signalling(rng, mixture, n, K)), ("coins", coins))
        for variant, table in variants:
            cases.append((f"n{n}-K{K}-{variant}-rational", n, K, table))
            # relative noise far below EPS_NUM makes float sums order-sensitive
            floats = {key: float(v) * (1 + 1e-12 * rng.random()) for key, v in table.items()}
            cases.append((f"n{n}-K{K}-{variant}-float", n, K, floats))
    # integer views past 2^53, which the consistency check reads as Python ints
    w = F(rng.randrange(1, 2**61 - 1), 2**61 - 1)
    a, b = _mixture_table(rng, 3, 2), _mixture_table(rng, 3, 2)
    mixed = {key: w * a[key] + (1 - w) * b[key] for key in a}
    cases.append(("n3-K2-bigden-sig-rational", 3, 2, _signalling(rng, mixed, 3, 2)))
    cases.append(("n2-K2-floattie-rational", 2, 2, _float_tie_table()))
    return cases


def _float_tie_table():
    """Two violations, 1/8 and 1/8 + 2^-80, that round to the same float.

    At u = (0, 1), 1/8 moves from x = (0, 0) to (1, 0), shifting region 0's
    marginal; at u = (1, 0), 1/8 + 2^-80 moves from (0, 0) to (0, 1),
    shifting region 1's.  The first site scanned keeps the float maximum.
    """
    table = {(x, u): F(1, 4) for u in product(range(2), repeat=2)
             for x in product((0, 1), repeat=2)}
    for u, target, delta in (((0, 1), (1, 0), F(1, 8)), ((1, 0), (0, 1), F(1, 8) + F(1, 2**80))):
        table[((0, 0), u)] -= delta
        table[(target, u)] += delta
    return table


CASES = _cases()


def _build(n, K, table):
    labels = [f"t{k}" for k in range(K)]
    return new_system(n, K, labels, table), ref.ReferenceSystem(n, K, labels, table)


def _same(system, expected):
    """Equal tables, value for value and type for type."""
    assert system.to_dict() == expected.to_dict()
    assert [type(p) for _, p in system.targets()] == [type(p) for p in expected.table.values()]
    assert dict(system.targets()) == expected.table


def _outcome(fn, *args):
    try:
        return fn(*args), None
    except GaugeSimError as exc:
        return None, (type(exc), str(exc))


@pytest.mark.parametrize("name,n,K,table", CASES, ids=[c[0] for c in CASES])
class TestDenseTableAgainstReference:
    def test_construction_and_to_dict(self, name, n, K, table):
        system, expected = _build(n, K, table)
        _same(system, expected)
        assert list(system.targets()) == list(expected.table.items())

    def test_consistency_report(self, name, n, K, table):
        system, expected = _build(n, K, table)
        assert is_locally_consistent(system) == ref.is_locally_consistent(expected)
        if name.endswith("mix-rational"):
            assert is_locally_consistent(system).ok

    def test_every_marginal(self, name, n, K, table):
        system, expected = _build(n, K, table)
        for size in range(1, n + 1):
            for kept in combinations(range(n), size):
                got, got_error = _outcome(marginal, system, kept)
                want, want_error = _outcome(ref.marginal, expected, kept)
                assert got_error == want_error, kept
                if want is not None:
                    _same(got, want)

    def test_every_condition(self, name, n, K, table):
        system, expected = _build(n, K, table)
        for region, setting, outcome in product(range(n), range(K), (0, 1)):
            got, got_error = _outcome(condition, system, region, setting, outcome)
            want, want_error = _outcome(ref.condition, expected, region, setting, outcome)
            assert got_error == want_error, (region, setting, outcome)
            if want is not None:
                _same(got, want)

    def test_region_marginals(self, name, n, K, table):
        system, expected = _build(n, K, table)
        for region, setting in product(range(n), range(K)):
            got = system.region_marginal(region, setting)
            want = expected.region_marginal(region, setting)
            assert got == want and list(map(type, got)) == list(map(type, want))

    def test_outcome_marginals(self, name, n, K, table):
        system, expected = _build(n, K, table)
        for size in range(1, n + 1):
            for kept in (*combinations(range(n), size), tuple(range(size))[::-1]):
                for u_kept in product(range(K), repeat=size):
                    got = system.outcome_marginal(kept, u_kept)
                    u = ref._settings(n, kept, u_kept, (), ())
                    want = tuple(ref._partial_sum(expected, kept, x, u)
                                 for x in product((0, 1), repeat=size))
                    assert got == want and list(map(type, got)) == list(map(type, want))

    def test_is_separable(self, name, n, K, table):
        system, expected = _build(n, K, table)
        assert is_separable(system) == ref.is_separable(expected)
        if name.endswith("coins-rational"):
            assert is_separable(system)

    def test_integer_views(self, name, n, K, table):
        system, expected = _build(n, K, table)
        if system.backend != "rational":
            assert integer_view(system) is None
            return
        for got, want in _family(system, expected):
            _view_matches(got, want)

    def test_canonical_key_tracks_table_equality(self, name, n, K, table):
        system, expected = _build(n, K, table)
        variants = [(system, expected), _build(n, K, dict(table))]
        if n > 1:
            variants.append(_build(n, K, _signalling(random.Random(name), table, n, K)))
        for (a, ref_a), (b, ref_b) in combinations(variants, 2):
            same = ref_a.canonical_key() == ref_b.canonical_key()
            assert (a.canonical_key() == b.canonical_key()) == same
            assert (a == b) == same


def _view_matches(system, expected):
    """The integer view holds the reference table exactly, in int64 only below 2**53."""
    N, D = integer_view(system)
    assert N.shape == (system.num_settings,) * system.n + (2,) * system.n
    assert N.dtype == object or (N.dtype == np.int64 and D < 2**53)
    assert [F(int(c), D) for c in N.flat] == list(expected.table.values())


def test_setting_index_takes_any_integer_but_a_bool():
    from gaugesim.collapse import simulate

    system = gs.pr_box()
    for index in (1, np.int64(1), np.uint8(1), "t1"):
        got = system.setting_index(index)
        assert got == 1 and type(got) is int
    with pytest.raises(ValidationError, match="out of range"):
        system.setting_index(np.int64(2))
    for flag in (True, False):
        with pytest.raises(ValidationError, match="bool"):
            system.setting_index(flag)
    report = simulate(system, (np.int64(0), 1), 1000, 5).as_dict()
    assert report == simulate(system, (0, 1), 1000, 5).as_dict()
    assert [type(s) for s in report["counts"][0]["u"]] == [int, int]
    with pytest.raises(ValidationError, match="bool"):
        simulate(system, (True, 1), 1000, 5)


def test_table_array_of_wrong_shape_rejected():
    cells = np.array([p for _key, p in fair_coins().targets()], dtype=object)
    with pytest.raises(ValidationError):
        ProbabilitySystem(2, 2, ["t0", "t1"], cells.reshape(2, 2, 4))
    assert ProbabilitySystem(2, 2, ["t0", "t1"], cells.reshape(2, 2, 2, 2)) == fair_coins()


def test_product_system_against_reference():
    rng = random.Random(7)
    for n, K in ((1, 1), (2, 2), (3, 3), (4, 2)):
        for kinds in ("rational", "float", "mixed"):
            factors = []
            for i in range(n):
                biases = [F(rng.randint(0, 5), 5) for _ in range(K)]
                if kinds == "float" or (kinds == "mixed" and i % 2):
                    biases = [float(b) for b in biases]
                factors.append(gs.one_region(biases))
            expected = ref.product_system(factors)
            _same(product_system(factors), expected)


def _constructor_error(build, *args):
    try:
        build(*args)
    except (GaugeSimError, TypeError) as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize("n,K,backend", [(1, 2, "rational"), (2, 2, "rational"),
                                         (3, 2, "float"), (2, 3, "float")])
def test_constructor_errors_match_reference(n, K, backend):
    rng = random.Random(n * 10 + K)
    base = _mixture_table(rng, n, K)
    if backend == "float":
        base = {key: float(v) for key, v in base.items()}
    keys = list(base)
    broken = []
    missing = dict(base)
    del missing[keys[len(keys) // 2]]
    broken.append(missing)
    extra = dict(base)
    extra[((0,) * n, (K,) * n)] = 0
    broken.append(extra)
    negative = dict(base)
    negative[keys[1]] = -F(1, 7) if backend == "rational" else -0.25
    negative[keys[-2]] = -F(1, 9) if backend == "rational" else -0.5
    broken.append(negative)
    unnormalised = dict(base)
    unnormalised[keys[-1]] = unnormalised[keys[-1]] + (F(1, 5) if backend == "rational" else 0.2)
    broken.append(unnormalised)
    labels = [f"t{k}" for k in range(K)]
    for table in broken:
        want = _constructor_error(ref.ReferenceSystem, n, K, labels, table, backend)
        assert want is not None
        assert _constructor_error(new_system, n, K, labels, table, backend) == want


def _overflow_table(n, K):
    """Uniform columns but the first, whose 2**n integer entries sum to 2**(64-n) + 1.

    Over D = 2**n every numerator fits int64, yet the first column's sum is
    2**64 + D, which an int64 sum would wrap to exactly D.
    """
    table = {(x, u): F(1, 2**n) for u in product(range(K), repeat=n)
             for x in product((0, 1), repeat=n)}
    column = list(product((0, 1), repeat=n))
    for x in column:
        table[(x, (0,) * n)] = F(2 ** (64 - 2 * n))
    table[(column[-1], (0,) * n)] += 1
    return table


def _wide_denominator(table, den):
    """The table mixed with weight 1/den into the uniform table, so D gains a factor den."""
    n = len(next(iter(table))[0])
    return {key: (1 - F(1, den)) * p + F(1, den * 2**n) for key, p in table.items()}


def _integer_error_cases():
    rng = random.Random(20261020)
    cases = []
    for n, K in ((1, 2), (2, 2), (3, 2), (2, 3), (4, 1)):
        base = _mixture_table(rng, n, K)
        for den_name, den in (("small", None), ("2^53+1", 2**53 + 1), ("2^61-1", 2**61 - 1)):
            valid = base if den is None else _wide_denominator(base, den)
            keys = list(valid)
            # a bad column before the first negative site: negativity is found first
            negatives = dict(valid)
            negatives[keys[1]] += F(1, 3)
            for key in sorted(rng.sample(keys[2:], 2), key=keys.index):
                negatives[key] = -negatives[key] - F(1, 5)
            cases.append((f"n{n}-K{K}-{den_name}-negatives", n, K, negatives))
            # two unnormalised columns: the first is reported, with its exact total
            columns = rng.sample(range(len(keys) // 2**n), min(2, len(keys) // 2**n))
            unnormalised = dict(valid)
            for c in columns:
                unnormalised[keys[c * 2**n + rng.randrange(2**n)]] += F(1, 7)
            cases.append((f"n{n}-K{K}-{den_name}-unnormalised", n, K, unnormalised))
    for n, K in ((2, 1), (2, 2), (3, 2), (5, 1)):
        cases.append((f"n{n}-K{K}-int64-overflow", n, K, _overflow_table(n, K)))
    return cases


INTEGER_ERROR_CASES = _integer_error_cases()


@pytest.mark.parametrize("name,n,K,table", INTEGER_ERROR_CASES,
                         ids=[c[0] for c in INTEGER_ERROR_CASES])
def test_integer_checks_report_the_reference_first_failure(name, n, K, table):
    labels = [f"t{k}" for k in range(K)]
    want = _constructor_error(ref.ReferenceSystem, n, K, labels, table)
    assert want is not None
    assert _constructor_error(new_system, n, K, labels, table) == want
    if name.endswith("overflow"):
        assert want[0] is NormalizationViolation
        assert want[1].endswith(f"sum to {2 ** (64 - n) + 1}, expected 1")


@pytest.mark.parametrize("n,den", [(2, 2**53 + 1), (3, 2**53 + 1), (3, 2**61 - 1)])
def test_wide_denominator_deviations_are_correctly_rounded(n, den):
    """|dN| / D past 2**53 must divide Python ints, not their float64 roundings.

    D = 2**n * den; at den = 2**53 + 1 the float64 of D drops the den's
    last bit, and 2**n / float(D) would read 2**-53 instead of 1 / den.
    """
    table = {(x, u): F(1, 2**n) for u in product(range(2), repeat=n)
             for x in product((0, 1), repeat=n)}
    u = (0,) + (1,) * (n - 1)
    table[((0,) * n, u)] -= F(1, den)
    table[((1,) + (0,) * (n - 1), u)] += F(1, den)
    system, expected = _build(n, 2, table)
    N, D = integer_view(system)
    assert D == 2**n * den and N.dtype == object
    report = is_locally_consistent(system)
    assert report == ref.is_locally_consistent(expected)
    assert report.max_deviation == float(F(1, den))
    got = _outcome(marginal, system, (0,))
    assert got == _outcome(ref.marginal, expected, (0,))
    assert got[1] is not None


def test_separable_product_at_n5_k3():
    table = random_product_table(random.Random(35), 5, 3, denominator=8)
    system, expected = _build(5, 3, table)
    assert is_separable(system) and ref.is_separable(expected)


def test_near_separable_mixture_at_n5_k3():
    rng = random.Random(36)
    a, b = (random_product_table(rng, 5, 3, denominator=8) for _ in range(2))
    w = F(1, 2**40)
    table = {key: (1 - w) * a[key] + w * b[key] for key in a}
    system, expected = _build(5, 3, table)
    assert is_locally_consistent(system).ok
    assert not is_separable(system)
    assert not ref.is_separable(expected)


# -- the integer view is the only form of a rational table ------------------

RATIONAL_CASES = [c for c in CASES if c[0].endswith("-rational")]


def _family(system, expected):
    """(system, reference) for the system, its marginals and its conditioned children."""
    n, K = system.n, system.num_settings
    pairs = [(system, expected)]
    for size in range(1, n):
        for kept in combinations(range(n), size):
            got, _error = _outcome(marginal, system, kept)
            if got is not None:
                pairs.append((got, ref.marginal(expected, kept)))
    for region, setting, outcome in product(range(n), range(K), (0, 1)):
        got, _error = _outcome(condition, system, region, setting, outcome)
        if got is not None:
            pairs.append((got, ref.condition(expected, region, setting, outcome)))
    return pairs


@pytest.mark.parametrize("name,n,K,table", RATIONAL_CASES, ids=[c[0] for c in RATIONAL_CASES])
def test_rational_systems_are_their_integer_views(name, n, K, table):
    """prob, targets, to_dict, canonical_key, == and hash made from (N, D) alone.

    Marginals and conditioned children keep an unreduced D; each must
    equal, and hash as, the system built afresh from the reference table,
    whose D is in lowest terms.
    """
    system, expected = _build(n, K, table)
    for got, want in _family(system, expected):
        _same(got, want)
        for (x, u), p in want.table.items():
            value = got.prob(x, u)
            assert value == p and type(value) is F
        held = [getattr(got, slot) for slot in ProbabilitySystem.__slots__ if hasattr(got, slot)]
        N, D = integer_view(got)
        assert [value for value in held if isinstance(value, np.ndarray)] == [N]
        assert N.dtype == np.int64 or all(type(c) is int for c in N.flat)
        cells = N.ravel().tolist()
        g = math.gcd(D, *cells)
        assert got.canonical_key()[-1] == (D // g, tuple(c // g for c in cells))
        rebuilt = new_system(want.n, K, want.labels, want.table)
        assert integer_view(rebuilt)[1] == D // g
        assert got == rebuilt and hash(got) == hash(rebuilt)
        assert ProbabilitySystem.from_dict(got.to_dict()) == got


def _rational_file(entries, n, K):
    """A system document with the given 'p' strings in table order."""
    keys = [(x, u) for u in product(range(K), repeat=n) for x in product((0, 1), repeat=n)]
    return {"n": n, "k": K, "labels": [f"t{k}" for k in range(K)], "scalar": "rational",
            "table": [{"x": list(x), "u": list(u), "p": p} for (x, u), p in zip(keys, entries)]}


def test_from_dict_reduces_unreduced_entries():
    system = ProbabilitySystem.from_dict(_rational_file(["2/4", "2/4", "0/7", "3/3"], 1, 2))
    N, D = integer_view(system)
    assert D == 2 and N.dtype == np.int64 and N.tolist() == [[1, 1], [0, 2]]
    assert system == new_system(1, 2, ["t0", "t1"], {((0,), (0,)): F(1, 2), ((1,), (0,)): F(1, 2),
                                                     ((0,), (1,)): F(0), ((1,), (1,)): F(1)})
    # written over 2**53 and more, in lowest terms over 2: int64, as built from values
    wide = ProbabilitySystem.from_dict(_rational_file(
        [f"{2**52}/{2**53}", f"{2**59}/{2**60}", f"0/{2**61}", f"{3**40}/{3**40}"], 1, 2))
    assert integer_view(wide)[1] == 2 and integer_view(wide)[0].dtype == np.int64
    assert wide == system


def test_from_dict_finds_a_missing_target_without_listing_every_target():
    """A file claiming n = 40 with one entry fails at its second target, not after 2**80 keys."""
    data = {"n": 40, "k": 2, "labels": ["a", "b"], "scalar": "rational",
            "table": [{"x": [0] * 40, "u": [0] * 40, "p": "1"}]}
    with pytest.raises(MissingTarget, match=r"outcomes \(0, .*, 0, 1\) at settings \(0, "):
        ProbabilitySystem.from_dict(data)


@pytest.mark.parametrize("name,n,K,table", RATIONAL_CASES, ids=[c[0] for c in RATIONAL_CASES])
def test_from_dict_of_scaled_entries_gives_the_same_view(name, n, K, table):
    """Each entry written as (c a)/(c b) for a random c parses to the same (N, D) and dtype."""
    system, _expected = _build(n, K, table)
    rng = random.Random(name)
    entries = []
    for _key, p in system.targets():
        c = rng.choice((1, 2, 7, 2**40, 3**30))
        entries.append(f"{p.numerator * c}/{p.denominator * c}")
    parsed = ProbabilitySystem.from_dict(_rational_file(entries, n, K))
    (N, D), (M, E) = integer_view(system), integer_view(parsed)
    assert D == E and N.dtype == M.dtype and N.tolist() == M.tolist()
    assert parsed == system


def _pair_signalling(rng, table, n, K):
    """Move mass around a 2x2 square of regions 0 and 1 at one u and one rest.

    Every one-region marginal stays put; the marginal of regions 0 and 1
    moves with the other regions' settings when n > 2 and K > 1.
    """
    table = dict(table)
    u = tuple(rng.randrange(K) for _ in range(n))
    rest = tuple(rng.randrange(2) for _ in range(n - 2))
    plus, minus = [((0, 0) + rest, u), ((1, 1) + rest, u)], [((0, 1) + rest, u), ((1, 0) + rest, u)]
    delta = min(table[key] for key in minus) / 2
    for key in plus:
        table[key] += delta
    for key in minus:
        table[key] -= delta
    return table


@pytest.mark.parametrize("K", range(1, 4))
@pytest.mark.parametrize("n", range(2, 6))
def test_single_drop_consistency_matches_the_full_scan(n, K):
    """ok, max_deviation and worst_site equal the full scan of every subset.

    `_consistency_scan` is that scan.  At n = 5 the reference's `Fraction`
    scan takes seconds, so the model's scan stands in for it there;
    `test_consistency_report` checks that scan against the reference.
    """
    rng = random.Random(100 * n + K)
    consistent = _mixture_table(rng, n, K)
    tables = [consistent, _signalling(rng, consistent, n, K),
              _pair_signalling(rng, consistent, n, K)]
    for table in tables:
        system, expected = _build(n, K, table)
        want = model._consistency_scan(system)
        if n <= 4:
            assert want == ref.is_locally_consistent(expected)
        got = is_locally_consistent(system)
        assert (got.ok, got.max_deviation, got.worst_site) == \
            (want.ok, want.max_deviation, want.worst_site)
    if n > 2 and K > 1:
        assert not is_locally_consistent(new_system(n, K, [f"t{k}" for k in range(K)],
                                                    tables[2])).ok


# -- file loading in one scan, and float sums left to right -------------------


def _bench_mixture(rng, n, K, components=3, zeros=False):
    """A convex mixture of product tables, weights parts of 12 and factors k/8.

    With `zeros`, region 0 always shows outcome 1 at setting 0, so every
    table has zero cells.
    """
    cuts = sorted(rng.sample(range(1, 12), components - 1))
    parts = [b - a for a, b in zip([0] + cuts, cuts + [12])]
    factors = [[[rng.randint(1, 7) for _ in range(K)] for _ in range(n)] for _ in parts]
    if zeros:
        for comp in factors:
            comp[0][0] = 0
    table = {}
    for u in product(range(K), repeat=n):
        for x in product((0, 1), repeat=n):
            num = 0
            for part, comp in zip(parts, factors):
                term = part
                for i in range(n):
                    term *= comp[i][u[i]] if x[i] == 0 else 8 - comp[i][u[i]]
                num += term
            table[(x, u)] = F(num, 12 * 8**n)
    return table


def _document(table, n, K, backend, keys):
    value = float if backend == "float" else (lambda p: f"{p.numerator}/{p.denominator}")
    return {"n": n, "k": K, "labels": [f"s{k}" for k in range(K)], "scalar": backend,
            "table": [{"x": list(x), "u": list(u), "p": value(table[(x, u)])} for x, u in keys]}


def _compact(data):
    """A document as gaugesim's compact layout writes it, the layout read in one scan."""
    return json.dumps(data, separators=(",", ":"))


def _held(system):
    """The cells a system holds: (dtype, shape, N, D) if rational, else each float.hex."""
    if system.backend == "float":
        table = model.float_table(system)
        return (table.dtype, table.shape, [(type(p), p.hex()) for p in table.ravel().tolist()])
    N, D = integer_view(system)
    return N.dtype, N.shape, N.tolist(), D


def _by_loop(data):
    """`from_dict`, the per-entry loop that reads any text the scanner leaves."""
    return _outcome(ProbabilitySystem.from_dict, data)


@pytest.mark.parametrize("backend", ["rational", "float"])
@pytest.mark.parametrize("n,K", [(3, 2), (4, 3), (5, 2), (5, 3)])
def test_column_loader_matches_the_entry_loop(n, K, backend):
    """A compact text in table order is read in one scan, in `to_dict` order or a
    shuffle by the loop; all agree.

    Broken copies (a column off by a quarter, a negative cell, too many
    labels, and for a float table a NaN cell beside too many labels) raise
    the same error by either route; an entry's error comes before the
    labels'.
    """
    rng = random.Random(f"{n}-{K}-{backend}")
    table = _bench_mixture(rng, n, K)
    table_order = list(model._target_keys(n, K))
    shuffled = table_order[:]
    rng.shuffle(shuffled)
    orders = {"table": table_order, "to_dict": sorted(table_order), "shuffled": shuffled}
    held = set()
    for order, keys in orders.items():
        data = _document(table, n, K, backend, keys)
        scanned = model._scan_system(_compact(data))
        assert (scanned is None) == (order != "table")
        system = ProbabilitySystem.from_json(_compact(data))
        want, error = _by_loop(data)
        assert error is None
        assert _held(system) == _held(want)
        held.add(repr(_held(system)))
    assert len(held) == 1
    key = table_order[2**n + 1]
    off = {**table, key: table[key] + F(1, 4)}
    negative = {**table, key: -table[key]}
    for keys in (table_order, sorted(table_order)):
        broken = [_document(off, n, K, backend, keys), _document(negative, n, K, backend, keys),
                  dict(_document(table, n, K, backend, keys), labels=["s0"] * (K + 1))]
        if backend == "float":
            broken.append(dict(_document({**table, key: math.nan}, n, K, backend, keys),
                               labels=["s0"] * (K + 1)))
        for data in broken:
            got = _outcome(ProbabilitySystem.from_json, _compact(data))
            assert got[0] is None and got == _by_loop(data)
        if backend == "float":
            assert got[1][1].startswith("bad table entry")


def test_column_loader_reads_integer_float_values_and_true_keys():
    """Ints in a float file read as JSON and float() read them, -0 as 0.0; [true] is
    the key [1], as in the loop, though only [1] is read in one scan."""
    data = {"n": 1, "k": 2, "labels": ["a", "b"], "scalar": "float",
            "table": [{"x": [0], "u": [0], "p": 1}, {"x": [True], "u": [0], "p": -0},
                      {"x": [0], "u": [1], "p": 0.25}, {"x": [1], "u": [True], "p": 0.75}]}
    text = _compact(data)
    assert model._scan_system(text) is None
    keys = text.replace("true", "1")
    assert model._scan_system(keys) is not None
    for system in (ProbabilitySystem.from_json(text), ProbabilitySystem.from_json(keys)):
        assert _held(system) == _held(_by_loop(data)[0])
        assert [type(p) for p in model.float_table(system).ravel().tolist()] == [float] * 4
        assert model.float_table(system)[0, 1].hex() == "0x0.0p+0"
    # wide ints are read in the scan too: each one's float shows in the error it raises
    for wide in (2**53 + 1, 2**63 + 1, 3**40, -(2**64) - 1):
        cells = zip(model._target_keys(1, 2), (wide, 0, 0.25, 0.75))
        data["table"] = [{"x": list(x), "u": list(u), "p": p} for (x, u), p in cells]
        got = _outcome(model._scan_system, _compact(data))
        assert got[0] is None and got == _by_loop(data)
        assert f" {float(wide)!r}" in got[1][1]



def test_from_json_builds_the_class_it_is_called_on():
    """A subclass's `from_json` gives the subclass, whether or not the text is read in one scan."""
    class Tagged(ProbabilitySystem):
        __slots__ = ()

    data = _document(_bench_mixture(random.Random(5), 2, 2), 2, 2, "rational",
                     model._target_keys(2, 2))
    for text in (_compact(data), json.dumps(data)):
        assert type(Tagged.from_json(text)) is Tagged

_VALUE = re.compile(r'"p":("[^"]*"|[^}]*)}')


def _mutants(text, rng, rational):
    """Seeded mutations of a compact table-order text, by name: a few keep the layout
    read in one scan, the others leave it, and many still decode to a valid system."""
    values = list(_VALUE.finditer(text))
    zero = '"0/1"' if rational else "0.0"

    def value(new, span=None):
        span = span or rng.choice(values).span(1)
        return text[:span[0]] + new + text[span[1]:]

    def entry(new):
        match = rng.choice(values)
        start = text.rindex("{", 0, match.start())
        return text[:start] + new(text[start:match.end()]) + text[match.end():]

    zeros = [m.span(1) for m in values if m[1] == zero]
    first, second = rng.sample(range(len(values)), 2) if len(values) > 1 else (0, 0)
    table = text.index('"table":[') + 9
    entries = text[table + 1:-3].split("},{")
    entries[first], entries[second] = entries[second], entries[first]
    cut = rng.randrange(1, len(text))
    comma = rng.choice([m.start() for m in re.finditer(",", text)])
    numerator = rng.choice(values)
    last, quote = text[text.rindex(",{") + 1:-2], '"'  # the last entry

    def widened(digits):  # a nonzero value written with a numerator of `digits` digits
        match = rng.choice([m for m in values if m[1] not in ('"0/1"', "0.0")])
        if not rational:
            return value(str(10 ** (digits - 1) + rng.randrange(10 ** (digits - 1))))
        num, den = map(int, match[1].strip('"').split("/"))
        scale = 10 ** (digits - len(str(num)))
        return value(f'"{num * scale}/{den * scale}"', match.span(1))

    yield from {
        "compact": text,
        "trailing JSON whitespace": text + " \r\n\t",
        "trailing form feed": text + "\x0c",
        "trailing no-break space": text + " ",
        "leading whitespace": "\n" + text,
        "space after a comma": text[:comma + 1] + " " + text[comma + 1:],
        "entries on lines": text.replace("},{", "},\n  {"),
        "header keys swapped": re.sub(r'^{"n":(\d+),"k":(\d+),', r'{"k":\2,"n":\1,', text),
        "entry keys swapped": entry(lambda e: re.sub(r'"x":(\[.*?\]),"u":(\[.*?\])',
                                                     r'"u":\2,"x":\1', e)),
        "p first": entry(lambda e: "{" + e[e.index('"p":'):-1] + "," + e[1:e.index('"p":')]
                         .rstrip(",") + "}"),
        "duplicate p, the other first": entry(lambda e: e.replace(
            '"p":', '"p":"9/1","p":' if rational else '"p":9,"p":')),
        "duplicate p, the same twice": entry(lambda e: e[:-1] + ',"p":' + e[e.index('"p":') + 4:]),
        "duplicate table, first empty": text.replace('"table":[', '"table":[],"table":[', 1),
        "duplicate table, last empty": text[:-1] + ',"table":[]}',
        "escaped label": text.replace('"s0"', '"s\\u0030"', 1),
        "label with a bracket": text.replace('"s0"', '"s]0"', 1),
        "extra label and a value off": value('"9/1"' if rational else "9.0").replace(
            '["s0"', '["s0","extra"', 1),
        "1E+2": value("1E+2"),
        "-0 for a zero": value("-0", zeros[0]) if zeros else value("-0"),
        "-0.0 for a zero": value("-0.0", zeros[0]) if zeros else value("-0.0"),
        "0 for a zero": value("0", zeros[0]) if zeros else value("0"),
        "1e400": value("1e400"),
        "NaN": value("NaN"),
        "5000-digit int": value("1" + "0" * 4999),
        "400-digit int": value("1" + "0" * 399),
        "5000-digit numerator": value('"1' + "0" * 4999 + '/1"'),
        "1/0": value('"1/0"'),
        "leading zero numerator": value(numerator[1][:1] + "0" + numerator[1][1:],
                                        numerator.span(1)),
        "true value": value("true"),
        "[true] for [1]": text.replace("[1", "[true", 1),
        "BOM": "﻿" + text,
        "truncated": text[:cut],
        "trailing garbage": text + "x",
        "trailing brace": text + "}",
        "swapped entries": text[:table] + "{" + "},{".join(entries) + "}]}",
        "18-digit numerator": widened(18),
        "19-digit numerator": widened(19),
        "20-digit numerator": widened(20),
        "numerator 2^63 - 1": value(f'"{2**63 - 1}/{2**63}"' if rational else str(2**63 - 1)),
        "numerator 2^63": value(f'"{2**63}/{2**63 + 1}"' if rational else str(2**63)),
        "subnormal for a zero": value("5e-324", zeros[0]) if zeros else value("5e-324"),
        "largest subnormal": value("2.2250738585072009e-308"),
        "17 significant digits": value(f"{float(F(numerator[1].strip(quote))):.16e}",
                                       numerator.span(1)),
        "one entry short": text[:text.rindex(",{")] + "]}",
        "one entry over": text[:-2] + "," + last + "]}",
        "table not closed": text[:-2],
        "comma before the first entry": text.replace('"table":[', '"table":[,', 1),
    }.items()


@pytest.mark.parametrize("n,K", [(1, 1), (3, 2), (4, 3), (5, 3)])
def test_scanner_reads_what_json_loads_and_the_loop_read(tmp_path, n, K):
    """Seeded differential fuzz: a file read in one scan, or left to `json.loads` and the
    per-entry loop, gives what `json.loads` and the loop give, or their error.

    The (5, 3) texts are large, so there every other mutation is made, of the
    rational and the float text in turn.
    """
    rng = random.Random(f"scan-{n}-{K}")
    path = tmp_path / "system.json"
    for backend in ("rational", "float"):
        table = _bench_mixture(rng, n, K, zeros=True)
        text = _compact(_document(table, n, K, backend, model._target_keys(n, K)))
        assert model._scan_system(text) is not None
        for i, (name, mutant) in enumerate(_mutants(text, rng, backend == "rational")):
            if n * K > 12 and i % 4 != 2 * (backend == "float"):
                continue
            path.write_text(mutant, encoding="utf-8")
            got = _outcome(model.load_system, path)
            want = _outcome(lambda t: ProbabilitySystem.from_dict(
                model._read_json(json.loads, t, str(path))), mutant)
            assert got[1] == want[1], (backend, name)
            if want[0] is not None:
                assert (got[0].canonical_key(), got[0].labels, got[0].backend, _held(got[0])) \
                    == (want[0].canonical_key(), want[0].labels, want[0].backend,
                        _held(want[0])), (backend, name)


@pytest.mark.parametrize("n,K", [(3, 2), (4, 3)])
def test_scanner_in_blocks_of_two_setting_vectors_reads_the_same(monkeypatch, tmp_path, n, K):
    """The fuzz above with the table split two setting vectors at a time, so block ends,
    found by their skeleton, fall inside every text and many of its mutations."""
    monkeypatch.setattr(model, "SCAN_ENTRIES", 2 ** (n + 1))
    test_scanner_reads_what_json_loads_and_the_loop_read(tmp_path, n, K)
    # the table closed and reopened at every block end: each block reads well on its own
    text = _compact(_document(_bench_mixture(random.Random(n), n, K), n, K, "rational",
                              model._target_keys(n, K)))
    firsts = [m.start() for m in re.finditer(re.escape(',{"x":' + _compact([0] * n)), text)]
    for end in reversed(firsts[1::2]):  # before setting vectors 2, 4, ...
        text = text[:end] + "]}" + text[end:]
    assert text.count("]}") == (K**n - 1) // 2 + 1 and model._scan_system(text) is None


def _float_texts(rng, count):
    """`count` JSON number texts of floats in [0, 1/64], seeded: short and long
    decimals, 17 and 25 significant digits, exponents, subnormals and signed zeros."""
    forms = [lambda x: repr(x), lambda x: f"{x:.{rng.randrange(1, 26)}e}",
             lambda x: f"{x:.{rng.randrange(1, 21)}g}".replace("e", rng.choice("eE")),
             lambda x: "0." + "".join(rng.choices("0123456789", k=rng.randrange(1, 40))),
             lambda x: repr(5e-324 * rng.randrange(1, 2**52)),
             lambda x: rng.choice(["0", "-0", "0.0", "-0.0", "0e0", "-0E+5", "0.000"])]
    texts = [rng.choice(forms)(rng.random() / 64) for _ in range(count)]
    return [t if float(t) <= 1 / 64 else "0.015625" for t in texts]


def test_scanner_reads_floats_bit_for_bit_as_float_does():
    """A compact float file of 10^5 seeded number texts (n = 5, K = 5) is read in one scan
    to the floats `json.loads` and `float()` give, bit for bit, -0 as 0.0."""
    n, K, rng = 5, 5, random.Random(20261021)
    texts = _float_texts(rng, 2**n * K**n)
    for start in range(0, len(texts), 2**n):  # the last of each column makes it sum to 1
        total = sum(map(float, texts[start:start + 2**n - 1]))
        texts[start + 2**n - 1] = repr(1 - total)
    data = {"n": n, "k": K, "labels": [f"s{k}" for k in range(K)], "scalar": "float",
            "table": [{"x": list(x), "u": list(u), "p": 0} for x, u in model._target_keys(n, K)]}
    parts = _compact(data).split('"p":0}')
    text = "".join(part + '"p":' + t + "}" for part, t in zip(parts, texts)) + parts[-1]
    scanned = model._scan_system(text)
    assert scanned is not None
    assert _held(scanned) == _held(_by_loop(json.loads(text))[0])
    assert "-0" in texts and any(0 < float(t) < 2.2250738585072014e-308 for t in texts)


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_scanner_peaks_near_twice_the_text_at_n7_k3(monkeypatch, tmp_path, backend):
    """A compact n = 7, K = 3 file (16-18 MB) is split a block of entries at a time, so
    loading it peaks under 2.5 times its text."""
    n, K = 7, 3
    N, D = int64_mixture(7, n, K)
    values = ([f'"{v}/{D}"' for v in N.ravel().tolist()] if backend == "rational"
              else [repr(v) for v in (N / D).ravel().tolist()])
    parts = _compact({"n": n, "k": K, "labels": ["a", "b", "c"], "scalar": backend, "table": [
        {"x": list(x), "u": list(u), "p": 0} for x, u in model._target_keys(n, K)]})
    parts = parts.split('"p":0}')
    path = tmp_path / "system.json"
    path.write_text("".join(p + '"p":' + v + "}" for p, v in zip(parts, values)) + parts[-1])
    del values, parts
    monkeypatch.setattr(ProbabilitySystem, "from_dict", None)  # only the scan may read it
    tracemalloc.start()
    try:
        system = model.load_system(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert system.backend == backend and system.n == n
    assert peak < 2.5 * path.stat().st_size


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_are_bad_entries_in_the_constructor(value):
    """NaN and infinities are bad entries, from a dict or an array, with no NumPy warning."""
    message = (f"bad table entry {{'x': [0], 'u': [1], 'p': {value!r}}}: "
               f"table entry must be finite, got {value!r}")
    table = {((0,), (0,)): 0.5, ((1,), (0,)): 0.5, ((0,), (1,)): value, ((1,), (1,)): 0.5}
    array = np.array([[0.5, 0.5], [value, 0.5]], dtype=object)
    for build in (lambda: new_system(1, 2, ["a", "b"], table),
                  lambda: ProbabilitySystem(1, 2, ["a", "b"], array, "float")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError) as caught:
                build()
        assert type(caught.value) is ValidationError and str(caught.value) == message


@pytest.mark.parametrize("backend", [None, "rational", "float"])
@pytest.mark.parametrize("value", [True, False, "1/2", 0.5, 1, 0, F(1, 2), np.int64(0),
                                   np.int64(1), np.float64(0.5)], ids=repr)
def test_array_entries_are_coerced_as_dict_entries_are(value, backend):
    """An entry in an object array gives the system, or the error type and message,
    that the same entry in a dict gives."""
    table = {((0,), (0,)): F(1, 2), ((1,), (0,)): F(1, 2), ((0,), (1,)): value,
             ((1,), (1,)): F(1, 2)}
    array = np.array([[F(1, 2), F(1, 2)], [None, F(1, 2)]], dtype=object)
    array[1, 0] = value
    outcomes = []
    for cells in (table, array):
        try:
            system = ProbabilitySystem(1, 2, ["a", "b"], cells, backend)
        except (TypeError, ValueError, ArithmeticError, ValidationError) as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append((system.canonical_key(), [type(p) for _key, p in system.targets()]))
    assert outcomes[0] == outcomes[1]


def _left_to_right(values):
    total = 0
    for v in values:
        total += v
    return total


def test_float_column_sums_run_left_to_right():
    """A 16-entry column whose np.sum differs from its left-to-right sum reports the latter."""
    column = [1.5] + [2.0**-53] * 15
    total = _left_to_right(column)
    assert total == 1.5 and float(np.sum(column)) != total
    table = {(x, (0,) * 4): p for x, p in zip(product((0, 1), repeat=4), column)}
    message = "targets for settings (0, 0, 0, 0) sum to 1.5, expected 1"
    with pytest.raises(NormalizationViolation, match=re.escape(message)):
        new_system(4, 1, ["t0"], table)
    data = _document(table, 4, 1, "float", model._target_keys(4, 1))
    with pytest.raises(NormalizationViolation, match=re.escape(message)):
        ProbabilitySystem.from_dict(data)
    # a sum from 0 of negative zeros is a positive zero
    with pytest.raises(NormalizationViolation, match=re.escape("(0,) sum to 0.0, expected 1")):
        new_system(1, 1, ["t0"], {((0,), (0,)): -0.0, ((1,), (0,)): -0.0})


def test_float_consistency_sums_run_left_to_right():
    """A signalling float table whose region-0 marginal sums 16 cells in an order-sensitive way.

    Every cell is 1/32 but region 0's outcome-0 cells at one setting vector,
    raised by random parts of 1/32000, and its outcome-1 cells there,
    lowered by the same parts in another order.  The worst deviation is
    that marginal's, and it must be the left-to-right sum's, as the
    reference scan computes it.
    """
    n, K = 5, 2
    rng = random.Random(0)
    u_star = (0, 1, 1, 0, 1)
    parts = [rng.random() / 32000 for _ in range(16)]
    lowered = parts[:]
    rng.shuffle(lowered)
    table = {(x, u): 1 / 32 for u in product(range(K), repeat=n) for x in product((0, 1), repeat=n)}
    rest = list(product((0, 1), repeat=n - 1))
    for r, up, down in zip(rest, parts, lowered):
        table[((0,) + r, u_star)] += up
        table[((1,) + r, u_star)] -= down
    system, expected = _build(n, K, table)
    report = is_locally_consistent(system)
    assert report == ref.is_locally_consistent(expected)
    assert not report.ok and report.worst_site[0] == (0,)
    cells = [table[((report.worst_site[1][0],) + r, u_star)] for r in rest]
    assert report.max_deviation == abs(_left_to_right(cells) - 0.5)
    # numpy's pairwise sum of the same cells would report another deviation
    assert abs(float(np.sum(cells)) - 0.5) != report.max_deviation


def test_a_system_keeps_its_own_copy_of_the_callers_array():
    """Writing the array a float system was built from leaves the system as it was."""
    for dtype in (object, np.float64):
        array = np.array([[0.5, 0.5], [0.25, 0.75]], dtype=dtype)
        system = ProbabilitySystem(1, 2, ["a", "b"], array, "float")
        key, digest = system.canonical_key(), hash(system)
        array[0, 0], array[0, 1] = 7.0, -6.0
        assert system.prob((0,), (0,)) == 0.5 and system.prob((1,), (0,)) == 0.5
        assert system.canonical_key() == key and hash(system) == digest


@pytest.mark.parametrize("backend", ["rational", "float"])
def test_held_arrays_are_read_only(backend):
    """Built, loaded, marginal and conditioned systems hold arrays no caller can write,
    and the backend they report is the one their array is held in; a float table is
    C-contiguous too.  At K = 1 a marginal's kept sums are already one column."""
    systems = []
    for n, K in ((3, 2), (3, 1), (4, 3)):
        table = _bench_mixture(random.Random(22), n, K)
        if backend == "float":
            table = {key: float(p) for key, p in table.items()}
        built = new_system(n, K, [f"s{k}" for k in range(K)], table)
        in_order = _document(table, n, K, backend, model._target_keys(n, K))
        systems += [built, ProbabilitySystem.from_json(json.dumps(built.to_dict())),
                    ProbabilitySystem.from_json(_compact(in_order)), condition(built, 1, 0, 1),
                    condition(condition(built, 0, K - 1, 0), 1, 0, 1)]
        systems += [marginal(built, kept) for kept in ((0,), (0, 2), (1, 2))]
    for system in systems:
        assert system.backend == backend
        assert (system.backend == "float") == (integer_view(system) is None)
        held = model.float_table(system) if backend == "float" else integer_view(system)[0]
        assert not held.flags.writeable
        assert held.flags.c_contiguous or backend == "rational"
        with pytest.raises(ValueError):
            held.flat[0] = 0


def test_float_values_are_python_floats_whatever_the_input(tmp_path):
    """A dict, an object array, a float64 array and a file give one system of Python floats."""
    n, K = 3, 2
    table = {key: float(p) for key, p in _bench_mixture(random.Random(23), n, K).items()}
    cells = [table[key] for key in model._target_keys(n, K)]
    shape = (K,) * n + (2,) * n
    path = tmp_path / "float.json"
    model.save_system(new_system(n, K, ["s0", "s1"], table), path)
    systems = [new_system(n, K, ["s0", "s1"], table),
               ProbabilitySystem(n, K, ["s0", "s1"], np.array(cells, dtype=object).reshape(shape)),
               ProbabilitySystem(n, K, ["s0", "s1"], np.array(cells).reshape(shape)),
               model.load_system(path)]
    assert len({system.canonical_key() for system in systems}) == 1
    for system in systems:
        assert system.backend == "float"
        values = [system.prob(x, u) for (x, u), _p in system.targets()]
        values += [p for _key, p in system.targets()]
        values += list(system.outcome_marginal((0, 2), (1, 0)))
        values += model.float_column(system, (1, 0, 1))
        assert values[:len(cells)] == cells
        assert {type(p) for p in values} == {float}
