"""Core model: construction, validation, marginals, conditioning."""

import random
from fractions import Fraction as F
from itertools import combinations, product

import pytest

import gaugesim as gs
import reference_model as ref
from conftest import random_product_table
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
    from gaugesim.model import Configuration

    for K in (1, 2, 3):
        for region in range(3):
            for setting in range(K):
                config = Configuration(region, setting, K)
                back = Configuration.from_index(config.index, K)
                assert (back.region, back.setting) == (region, setting)


class TestConstruction:
    def test_pr_box_is_valid(self):
        system = gs.pr_box()
        assert system.n == 2 and system.num_settings == 2
        assert system.prob((0, 0), (0, 0)) == F(1, 2)

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
            clone = ProbabilitySystem.from_json(system.to_json())
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
        pair = marginal(gs.w_xy(), (0, 1)).system
        assert pair.prob((0, 0), (0, 0)) == F(5, 12)
        assert pair.prob((0, 1), (0, 0)) == F(1, 12)
        assert pair.prob((0, 0), (0, 1)) == F(1, 4)

    def test_ghz_pair_marginal_uniform(self):
        pair = marginal(gs.ghz_xy(), (0, 1)).system
        for (x, u), p in pair.targets():
            assert p == F(1, 4)

    def test_product_marginal_returns_factor(self, rng):
        factors = [gs.one_region([F(1, 3), F(2, 3)]), gs.one_region([F(1, 2), F(1, 5)])]
        system = product_system(factors)
        kept = marginal(system, (0,)).system
        for k in range(2):
            for x in ((0,), (1,)):
                assert kept.prob(x, (k,)) == factors[0].prob(x, (k,))

    def test_marginal_composition(self):
        system = gs.w_xy()
        once = marginal(system, (0, 1)).system
        twice = marginal(once, (0,)).system
        direct = marginal(system, (0,)).system
        assert twice == direct


class TestConditioning:
    def test_super_ghz_branch_is_anticorrelated_box(self):
        branch = condition(gs.super_ghz(), 2, 0, 0).system
        assert branch.prob((0, 0), (0, 0)) == F(0)
        assert branch.prob((0, 1), (0, 0)) == F(1, 2)

    def test_ghz_branch_is_bell_state(self):
        branch = condition(gs.ghz_xy(), 2, 0, 0).system
        assert branch.prob((0, 0), (0, 0)) == F(1, 2)
        assert branch.prob((0, 1), (0, 0)) == F(0)
        assert branch.prob((0, 0), (0, 1)) == F(1, 4)

    def test_w_branch(self):
        branch = condition(gs.w_xy(), 2, 0, 0).system
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
                        lhs = weight * branch.system.prob(x_rest, u_rest)
                        rhs = system.prob(
                            x_rest + (outcome,), u_rest + (setting,)
                        )
                        assert lhs == rhs

    def test_separable_conditioning_leaves_marginal(self):
        system = product_system(
            [gs.one_region([F(1, 3), F(1, 2)]), gs.one_region([F(1, 4), F(3, 4)])]
        )
        branch = condition(system, 0, 1, 0).system
        rest = marginal(system, (1,)).system
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
                assert (branch.setting, branch.outcome) == (setting, outcome)
                assert branch == condition(system, region, setting, outcome)

    def test_one_region_system_has_no_branches(self):
        with pytest.raises(WrongArity):
            list(branches(gs.one_region([F(1, 2)]), 0))


class TestSeparability:
    def test_ghz_pair_marginal_separable(self):
        assert is_separable(marginal(gs.ghz_xy(), (0, 1)).system)

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
    return cases


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
                    assert got.kept_regions == kept
                    _same(got.system, want)

    def test_every_condition(self, name, n, K, table):
        system, expected = _build(n, K, table)
        for region, setting, outcome in product(range(n), range(K), (0, 1)):
            got, got_error = _outcome(condition, system, region, setting, outcome)
            want, want_error = _outcome(ref.condition, expected, region, setting, outcome)
            assert got_error == want_error, (region, setting, outcome)
            if want is not None:
                _same(got.system, want)

    def test_region_marginals(self, name, n, K, table):
        system, expected = _build(n, K, table)
        for region, setting in product(range(n), range(K)):
            got = system.region_marginal(region, setting)
            want = expected.region_marginal(region, setting)
            assert got == want and list(map(type, got)) == list(map(type, want))

    def test_outcome_marginals(self, name, n, K, table):
        system, expected = _build(n, K, table)
        for size in range(1, n + 1):
            for kept in combinations(range(n), size):
                for u_kept in product(range(K), repeat=size):
                    got = system.outcome_marginal(kept, u_kept)
                    u = ref._settings(n, kept, u_kept, (), ())
                    want = tuple(ref._partial_sum(expected, kept, x, u)
                                 for x in product((0, 1), repeat=size))
                    assert got == want and list(map(type, got)) == list(map(type, want))

    def test_canonical_key_tracks_table_equality(self, name, n, K, table):
        system, expected = _build(n, K, table)
        variants = [(system, expected), _build(n, K, dict(table))]
        if n > 1:
            variants.append(_build(n, K, _signalling(random.Random(name), table, n, K)))
        for (a, ref_a), (b, ref_b) in combinations(variants, 2):
            same = ref_a.canonical_key() == ref_b.canonical_key()
            assert (a.canonical_key() == b.canonical_key()) == same
            assert (a == b) == same


def test_table_array_of_wrong_shape_rejected():
    with pytest.raises(ValidationError):
        ProbabilitySystem(2, 2, ["a", "b"], fair_coins()._p.reshape(2, 2, 4))


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
