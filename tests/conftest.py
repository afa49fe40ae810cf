"""Shared generators for randomized suites.

Random systems are built as convex mixtures of product tables, which are
completely locally consistent by construction while still carrying
classical correlations.
"""

import random
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from gaugesim.model import ProbabilitySystem


def random_fraction(rng, denominator=12):
    return Fraction(rng.randint(0, denominator), denominator)


def random_product_table(rng, n, K, denominator=12):
    """Table of an independent-regions system with random local biases."""
    biases = [
        [random_fraction(rng, denominator) for _ in range(K)] for _ in range(n)
    ]
    table = {}
    for u in product(range(K), repeat=n):
        for x in product((0, 1), repeat=n):
            p = Fraction(1)
            for i in range(n):
                b = biases[i][u[i]]
                p *= b if x[i] == 0 else 1 - b
            table[(x, u)] = p
    return table


def random_product_system(rng, n=2, K=2, denominator=12):
    return ProbabilitySystem(
        n, K, [f"t{k}" for k in range(K)], random_product_table(rng, n, K, denominator)
    )


def random_symmetric_product_system(rng, K=2, denominator=12):
    """Two independent regions sharing the same per-setting bias.

    The cross-region Hamming divergence is a pseudo-metric between settings
    only when the two regions' marginals agree setting by setting.
    """
    biases = [random_fraction(rng, denominator) for _ in range(K)]
    table = {}
    for u in product(range(K), repeat=2):
        for x in product((0, 1), repeat=2):
            p = Fraction(1)
            for i in range(2):
                b = biases[u[i]]
                p *= b if x[i] == 0 else 1 - b
            table[(x, u)] = p
    return ProbabilitySystem(2, K, [f"t{k}" for k in range(K)], table)


def random_mixture_system(rng, n=2, K=2, components=3, denominator=12):
    """Convex mixture of product tables: locally consistent, correlated."""
    parts = [rng.randint(1, 6) for _ in range(components)]
    total = sum(parts)
    weights = [Fraction(p, total) for p in parts]
    tables = [random_product_table(rng, n, K, denominator) for _ in range(components)]
    mixed = {}
    for key in tables[0]:
        mixed[key] = sum((w * t[key] for w, t in zip(weights, tables)), Fraction(0))
    return ProbabilitySystem(n, K, [f"t{k}" for k in range(K)], mixed)


def int64_mixture(seed, n, K):
    """(N, D): an even mixture of two product tables whose factors P(x_i = 0 | u_i) are
    seeded sixteenths, built in int64 arrays over D = 2 * 16^n with no `Fraction`."""
    N = np.zeros((K,) * n + (2,) * n, dtype=np.int64)
    for c in np.random.default_rng(seed).integers(1, 16, size=(2, n, K)):
        part = np.ones_like(N)
        for i in range(n):
            shape = [1] * (2 * n)
            shape[i], shape[n + i] = K, 2
            part = part * np.stack([c[i], 16 - c[i]], axis=1).reshape(shape)
        N += part
    return N, 2 * 16**n


@pytest.fixture
def rng():
    return random.Random(20260808)
