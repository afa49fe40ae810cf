"""Catalog constructors, their invariants and reference bundles."""

import hashlib
import json
from fractions import Fraction as F
from itertools import product

import numpy as np
import pytest

import gaugesim as gs
from gaugesim import catalog
from gaugesim.errors import ConstraintViolation, NegativeEntry, RangeError
from gaugesim.model import (
    ProbabilitySystem,
    _checked_view,
    integer_view,
    is_locally_consistent,
    is_separable,
    marginal,
)
from gaugesim.solver import verify_consistency


ALL_NAMES = (
    "one-region", "bell2", "bipartite2", "epr-b", "epr-b-regular",
    "singlet", "pr-box", "ghz-xy", "w-xy", "ghz-zzz", "w-zzz",
    "super-ghz", "quasi-super-ghz",
)


class TestRegistry:
    def test_names_complete(self):
        assert set(catalog.names()) == set(ALL_NAMES)

    def test_every_entry_builds_consistent_system(self):
        for name in ALL_NAMES:
            system = catalog.build(name)
            report = is_locally_consistent(system)
            assert report, (name, report)
            if system.backend == "rational":
                assert report.max_deviation == 0.0

    def test_unknown_parameters_rejected(self):
        with pytest.raises(Exception):
            catalog.build("singlet", nonsense="1")


class TestReferenceBundles:
    def test_bundles_verify_exactly(self):
        for name in ALL_NAMES:
            entry = catalog.get(name)
            if entry.reference_gauges is None:
                continue
            params = {p: default for p, (default, parser) in entry.params.items()}
            system = entry.make()
            kwargs = {
                p: parser(default)
                for p, (default, parser) in entry.params.items()
            }
            gauges = entry.reference_gauges(**kwargs)
            report = verify_consistency(system, gauges)
            assert report, (name, report.max_deviation)
            assert report.max_deviation == 0.0

    def test_one_region_two_state_fixture(self):
        probs = [F(1, 5), F(1, 2), F(9, 10), F(1, 3), F(3, 4)]
        system = gs.one_region(probs)
        gauges = catalog.one_region_reference_gauges(probs)
        for k in range(5):
            dist = gauges.by_gamma(k)
            assert dist.weight(0) == probs[k]
            assert dist.weight(31) == 1 - probs[k]
        assert verify_consistency(system, gauges).max_deviation == 0.0

    def test_bell2_gauge_closed_form(self, rng):
        # random legal parameter draws keep the closed form consistent
        found = 0
        while found < 25:
            q1, q2 = F(rng.randint(0, 12), 12), F(rng.randint(0, 12), 12)
            q3 = F(rng.randint(0, 12), 12)
            q4 = F(rng.randint(0, 12), 12)
            try:
                system = gs.general_bell2(q1, q2, q3, q4)
            except ConstraintViolation:
                continue
            found += 1
            gauges = catalog.general_bell2_reference_gauges(q1, q2, q3, q4)
            assert verify_consistency(system, gauges).max_deviation == 0.0

    def test_super_ghz_step2_bundles(self):
        from gaugesim.model import condition

        system = gs.super_ghz()
        for setting in (0, 1):
            branch = condition(system, 2, setting, 0)
            gauges = catalog.super_ghz_step2_gauges(setting)
            assert verify_consistency(branch, gauges).max_deviation == 0.0


class TestOneRegion:
    def test_out_of_range(self):
        with pytest.raises(RangeError):
            gs.one_region([F(3, 2)])

    def test_deterministic(self):
        system = gs.one_region([F(1)])
        assert system.prob((0,), (0,)) == 1

    def test_bloch_violation_for_three_biased_settings(self):
        from gaugesim.metrics import bloch_compatibility

        system = gs.one_region([F(9, 10), F(9, 10), F(9, 10)])
        assert not bloch_compatibility(system, 0, (0, 1, 2))


class TestBell2:
    def test_epr_two_setting_parameters(self):
        import math

        theta = 1.1
        q_diag = F(1, 2)
        q_off = F(3, 4)  # placeholder; exact float check below uses epr_b
        system = gs.general_bell2(q_diag, q_diag, q_off, q_off)
        assert gs.is_totally_correlated(system)

    def test_degenerate_gauges_when_offdiagonals_match(self):
        gauges = catalog.general_bell2_reference_gauges(
            F(1, 2), F(1, 2), F(3, 4), F(3, 4)
        )
        assert gauges.by_gamma(0).weights == gauges.by_gamma(1).weights

    def test_constraint_violations_named(self):
        with pytest.raises(ConstraintViolation):
            gs.general_bell2(F(3, 4), F(3, 4), F(1, 2), F(3, 4))  # q3 < q1
        with pytest.raises(ConstraintViolation):
            gs.general_bell2(F(1, 8), F(1, 8), F(1, 2), F(1, 8))  # q1+q2 < q3


class TestBipartite2:
    def test_ghz_pair_parameters_give_uniform(self):
        system = gs.general_bipartite2(*(F(3, 4),) * 4, *(F(1, 4),) * 4)
        for (_x, _u), p in system.targets():
            assert p == F(1, 4)
        assert is_separable(system)

    def test_w_pair_parameters(self):
        system = gs.general_bipartite2(
            F(7, 12), F(7, 12), F(3, 4), F(3, 4),
            F(1, 12), F(1, 12), F(1, 12), F(1, 12),
        )
        pair = marginal(gs.w_xy(), (0, 1))
        for (x, u), p in pair.targets():
            assert system.prob(x, u) == p

    def test_pr_box_parameters(self):
        system = gs.general_bipartite2(
            F(1, 2), F(1), F(1, 2), F(1, 2), F(0), F(1, 2), F(0), F(1, 2)
        )
        assert system == gs.pr_box()

    def test_negative_entry(self):
        with pytest.raises(NegativeEntry):
            gs.general_bipartite2(F(0), F(0), F(1), F(0), F(0), F(0), F(0), F(0))


class TestEprB:
    def test_totally_correlated_for_any_angles(self, rng):
        for _ in range(25):
            K = rng.randint(2, 5)
            angles = sorted(rng.uniform(0, 3.1) for _ in range(K))
            assert gs.is_totally_correlated(gs.epr_b(angles))

    def test_equal_angles_column(self):
        system = gs.epr_b((0.7, 0.7))
        assert system.prob((0, 1), (0, 1)) == pytest.approx(0.0)
        assert system.prob((0, 0), (0, 1)) == pytest.approx(0.5)

    def test_continuous_facade(self):
        continuous = gs.epr_b_continuous()
        assert continuous.probability(0, 0, 0.0, 0.0) == pytest.approx(0.5)
        gauge = continuous.gauge(0.3)
        assert gauge.density(0.3) == pytest.approx(0.25)


class TestTripartite:
    def test_w_xy_values(self):
        system = gs.w_xy()
        assert system.prob((0, 0, 0), (0, 0, 0)) == F(3, 8)
        assert system.prob((0, 0, 1), (0, 0, 0)) == F(1, 24)
        assert system.prob((0, 0, 0), (0, 0, 1)) == F(5, 24)
        assert system.prob((0, 1, 0), (0, 1, 0)) == F(5, 24)

    def test_w_zzz_born_weights(self):
        # squared amplitudes of the uniform one-excitation state
        system = gs.w_zzz()
        for x in system.outcome_vectors():
            want = F(1, 3) if sum(x) == 1 else F(0)
            assert system.prob(x, (0, 0, 0)) == want

    def test_ghz_zzz_values(self):
        system = gs.ghz_zzz()
        assert system.prob((0, 0, 0), (0, 0, 0)) == F(1, 2)
        assert system.prob((1, 1, 1), (0, 0, 0)) == F(1, 2)

    def test_ghz_xy_uniform_when_setting_sum_odd(self):
        system = gs.ghz_xy()
        assert system.prob((0, 0, 0), (0, 0, 1)) == F(1, 8)
        assert system.prob((1, 1, 1), (1, 0, 0)) == F(1, 8)

    def test_super_ghz_matches_quasi_at_zero(self):
        assert gs.super_ghz() == gs.quasi_super_ghz(F(0))


class TestQuasiSuperGhz:
    def test_range_check(self):
        with pytest.raises(RangeError):
            gs.quasi_super_ghz(F(1, 3))

    def test_uniform_at_one_eighth(self):
        system = gs.quasi_super_ghz(F(1, 8))
        assert is_separable(system)

    def test_pair_marginals_uniform_for_every_eps(self):
        for eps in (F(0), F(1, 32), F(1, 16), F(1, 8), F(3, 16), F(1, 4)):
            system = gs.quasi_super_ghz(eps)
            for kept in ((0, 1), (0, 2), (1, 2)):
                pair = marginal(system, kept)
                for (_x, _u), p in pair.targets():
                    assert p == F(1, 4)


def dict_quasi_super_ghz(eps):
    """The Fraction-dict construction `quasi_super_ghz` had before it built
    its integer view directly, kept as the reference."""
    eps = F(eps) if not isinstance(eps, float) else F(eps).limit_denominator(10**9)
    if not 0 <= eps <= F(1, 4):
        raise RangeError(f"eps must lie in [0, 1/4], got {eps}")
    quarter = F(1, 4) - eps
    table = {}
    for u in product(range(2), repeat=3):
        aligned = 1 if len(set(u)) == 1 else 0
        for x in product((0, 1), repeat=3):
            mismatch = (sum(x) % 2) != aligned
            table[(x, u)] = eps if mismatch else quarter
    return ProbabilitySystem(3, 2, ("t0", "t1"), table)


# k/128 for the bench grid, a float near the crossing, three values the
# default --locate-tsirelson bisection visits, and one with D past 2**53
DIRECT_BUILD_EPS = ([F(k, 128) for k in range(33)] + [0.0366]
                    + [F(37, 1024), F(149, 4096), F(599, 16384), F(1, 3 * 10**20)])


@pytest.mark.parametrize("eps", DIRECT_BUILD_EPS, ids=str)
def test_direct_build_matches_the_dict_construction(eps):
    got, want = gs.quasi_super_ghz(eps), dict_quasi_super_ghz(eps)
    (N, D), (N_ref, D_ref) = integer_view(got), integer_view(want)
    assert D == D_ref and N.dtype == N_ref.dtype and np.array_equal(N, N_ref)
    assert got.to_dict() == want.to_dict()
    assert got.canonical_key() == want.canonical_key()
    assert got.labels == want.labels and got.backend == want.backend


@pytest.mark.parametrize("eps", [F(1, 10**30), F(1, 4) - F(1, 10**30), F(1, 2**61 - 1),
                                 F(1, 2**61), F(1, 2**61 + 1), F(3, 2**62 + 1), F(1, 2**62)],
                         ids=str)
def test_direct_build_holds_the_view_built_from_lists(eps):
    """Numerator and denominator arrays give the view that Python-int lists
    did, dtype and cell types included, where 4b reaches 2**63 and past it."""
    a, b = eps.numerator, eps.denominator
    nums = [4 * a if zero else b - 4 * a for zero in catalog._SUPER_GHZ_ZEROS.tolist()]
    N_ref, D_ref = _checked_view(nums, [4 * b] * len(nums), (2,) * 6)
    N, D = integer_view(gs.quasi_super_ghz(eps))
    assert (N.dtype, N.ravel().tolist(), {type(c) for c in N.ravel()}, D) == \
        (N_ref.dtype, N_ref.ravel().tolist(), {type(c) for c in N_ref.ravel()}, D_ref)
    if eps == F(1, 10**30):
        assert N.dtype == object and D == 10**30
        assert set(N.ravel().tolist()) == {1, 10**30 // 4 - 1}


@pytest.mark.parametrize("eps,message", [
    (F(-1, 128), "eps must lie in [0, 1/4], got -1/128"),
    (F(33, 128), "eps must lie in [0, 1/4], got 33/128"),
])
def test_direct_build_range_errors_are_unchanged(eps, message):
    with pytest.raises(RangeError) as got:
        gs.quasi_super_ghz(eps)
    with pytest.raises(RangeError) as want:
        dict_quasi_super_ghz(eps)
    assert str(got.value) == str(want.value) == message


def _digest_cases():
    """(name, params) of every catalog entry at its defaults, then a parameter grid."""
    for name in catalog.names():
        yield name, {}
    for k in range(2, 7):
        yield "epr-b-regular", {"k": k}
    for angles in ([0.0, 0.5], [0.0, 0.7853981633974483, 1.5707963267948966, 2.356194490192345],
                   [0.1, 0.4, 0.9, 1.3, 2.0]):
        yield "epr-b", {"angles": angles}
    for eps in (F(0), F(1, 16), F(1, 8), 0.0366, F(1, 4)):
        yield "quasi-super-ghz", {"eps": eps}
    yield "bell2", {"q1": F(1, 3), "q2": F(1, 4), "q3": F(1, 2), "q4": F(5, 12)}
    yield "one-region", {"probs": [F(1, 5), F(0), F(1), F(2, 7)]}
    yield "one-region", {"probs": [0.2, 0.0, 1.0, 0.625]}


# inputs each constructor rejects, by name and parameters
_DIGEST_ERRORS = [
    ("one-region", {"probs": [F(1, 2), F(3, 2)]}),
    ("one-region", {"probs": [-0.25]}),
    ("bell2", {"q1": F(3, 2), "q2": F(1, 2), "q3": F(3, 4), "q4": F(3, 4)}),
    ("bell2", {"q1": F(3, 4), "q2": F(3, 4), "q3": F(1, 2), "q4": F(3, 4)}),
    ("bell2", {"q1": F(1, 8), "q2": F(1, 8), "q3": F(1, 8), "q4": F(1, 2)}),
    ("bipartite2", {"q1": 0, "q2": 0, "q3": 1, "q4": 0, "q5": 0, "q6": 0, "q7": 0, "q8": 0}),
    ("epr-b", {"angles": [0.3]}),
    ("quasi-super-ghz", {"eps": F(-1, 128)}),
    ("quasi-super-ghz", {"eps": 0.3}),
    ("one-region", {"probs": "1/2,x"}),
]


def _weights(gauges):
    """Each distribution's gamma and weights in order, each with its Python type."""
    return [[d.gamma, [[j, type(w).__name__, str(w)] for j, w in d.weights.items()]]
            for d in gauges]


def catalog_answers():
    answers = []
    for name, params in _digest_cases():
        entry = catalog.get(name)
        system = entry.make(**params)
        view = integer_view(system)
        record = [name, repr(params), repr(system.canonical_key()), list(system.labels),
                  system.backend, None if view is None else [view[1], str(view[0].dtype)]]
        if entry.reference_gauges is not None:
            parsed = {p: params.get(p, parser(default) if isinstance(default, str) else default)
                      for p, (default, parser) in entry.params.items()}
            record.append(_weights(entry.reference_gauges(**parsed)))
        answers.append(record)
    for setting in (0, 1):
        answers.append(["super-ghz step 2", setting,
                        _weights(catalog.super_ghz_step2_gauges(setting))])
    for name, params in _DIGEST_ERRORS:
        with pytest.raises(gs.GaugeSimError) as error:
            catalog.build(name, **params)
        answers.append([name, repr(params), type(error.value).__name__, str(error.value)])
    return answers


# sha256 of `catalog_answers()`: every catalog system's canonical key, labels,
# backend and integer view, its reference fixture's weights with their types,
# and the constructors' errors, as computed when each table was a Fraction dict
PINNED_CATALOG_SHA256 = "1e093b01d03c559816118c00232cf562c4e2eb6721ce3f7003fb7ce6fccd3198"


def test_catalog_matches_the_pinned_digest():
    digest = hashlib.sha256(json.dumps(catalog_answers()).encode()).hexdigest()
    assert digest == PINNED_CATALOG_SHA256
