"""Randomized invariant suites (seeded, 10^3 instances where cheap)."""

import random
from fractions import Fraction as F

import pytest

from conftest import (
    random_mixture_system,
    random_product_system,
    random_symmetric_product_system,
)

from gaugesim.metrics import (
    MIXED,
    atom_measures,
    bell_triangle_slack,
    chsh_max,
    hamming_divergence,
    measurement_entropy,
    spin_correlation,
)
from gaugesim.model import is_locally_consistent, marginal

N_INSTANCES = 1000


def test_rational_arithmetic_closure():
    rng = random.Random(101)
    for _ in range(N_INSTANCES):
        a = F(rng.randint(-60, 60), rng.randint(1, 60))
        b = F(rng.randint(-60, 60), rng.randint(1, 60))
        for value in (a + b, a - b, a * b) + ((a / b,) if b else ()):
            assert value.denominator > 0
            from math import gcd

            assert gcd(abs(value.numerator), value.denominator) == 1


def test_product_systems_respect_classical_chsh_bound():
    # non-contextual tables can never beat the classical CHSH bound of 2
    rng = random.Random(202)
    for _ in range(N_INSTANCES):
        K = rng.choice((2, 3))
        system = random_product_system(rng, 2, K)
        best = chsh_max(system)
        assert best.value <= 2 + 1e-9


def test_symmetric_products_have_nonnegative_triangle_slack():
    # the cross-region divergence obeys the triangle inequality whenever
    # the two regions share per-setting marginals (asymmetric independent
    # regions can violate it, so symmetry is part of the premise)
    rng = random.Random(212)
    for _ in range(N_INSTANCES):
        system = random_symmetric_product_system(rng, K=3)
        slack = bell_triangle_slack(system, 0, 1, 2)
        assert slack >= -1e-12


def test_product_substitution_identity():
    # Hamming divergence and the mixed-convention spin product are linked
    # by d = (1 + E[s0 s1]) / 2 on independent tables
    rng = random.Random(303)
    for _ in range(N_INSTANCES):
        system = random_product_system(rng, 2, 2)
        for u in system.setting_vectors():
            d = hamming_divergence(system, *u)
            s = spin_correlation(system, *u, convention=MIXED)
            assert d == pytest.approx(0.5 * (1 + s), abs=1e-12)


def test_mixtures_are_locally_consistent():
    rng = random.Random(404)
    for _ in range(300):
        n = rng.choice((2, 3))
        K = rng.choice((2, 3))
        system = random_mixture_system(rng, n, K)
        report = is_locally_consistent(system)
        assert report and report.max_deviation == 0.0


def test_polymatroidal_axioms_on_random_tables():
    # joint measurement entropies are monotone and submodular
    rng = random.Random(505)
    for _ in range(N_INSTANCES):
        n = 3
        K = rng.choice((2, 3))
        system = random_mixture_system(rng, n, K, components=2, denominator=8)
        u = tuple(rng.randrange(K) for _ in range(n))
        entropy = {}
        for mask in range(1, 1 << n):
            regions = [i for i in range(n) if mask >> i & 1]
            entropy[mask] = measurement_entropy(
                system, regions, tuple(u[i] for i in regions)
            )
        entropy[0] = 0.0
        full = (1 << n) - 1
        for alpha in range(full + 1):
            for beta in range(full + 1):
                if alpha | beta == beta:  # alpha subset of beta
                    assert entropy[alpha] <= entropy[beta] + 1e-9
                assert (
                    entropy[alpha] + entropy[beta]
                    >= entropy[alpha & beta] + entropy[alpha | beta] - 1e-9
                )


def test_diagram_reconstruction_identity():
    rng = random.Random(606)
    for _ in range(N_INSTANCES):
        system = random_mixture_system(rng, 3, 2, components=2, denominator=6)
        u = tuple(rng.randrange(2) for _ in range(3))
        diagram = atom_measures(system, u)
        for mask, joint in diagram.joint_entropies.items():
            assert diagram.reconstruct(mask) == pytest.approx(joint, abs=1e-9)


def test_marginal_chain_composition():
    rng = random.Random(707)
    for _ in range(200):
        system = random_mixture_system(rng, 3, 2)
        once = marginal(system, (0, 2))
        twice = marginal(once, (0,))
        direct = marginal(system, (0,))
        assert twice == direct


def test_normalization_preserved_by_marginals():
    rng = random.Random(808)
    for _ in range(200):
        system = random_mixture_system(rng, 3, 2)
        pair = marginal(system, (1, 2))
        for u in pair.setting_vectors():
            assert sum(pair.prob(x, u) for x in pair.outcome_vectors()) == 1
