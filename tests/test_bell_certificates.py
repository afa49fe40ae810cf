"""Lifted-CHSH certificates of infeasibility.

Each member of the family, built here as dense rows, is checked as a
phase-1 dual vector on every ignition state, with no system in sight; the
solver's factorised screen must read each member's y.T and build each
member's row as those rows do; then, on catalog systems, seeded tables and
every LP the benchmark's gauge-lp job lists solve, a certificate that holds
must name an LP the simplex alone also rejects.
"""

import contextlib
import importlib.util
import io
import math
import random
from fractions import Fraction as F
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import gaugesim as gs
from conftest import random_mixture_system
from gaugesim import cli, simplex, solver
from gaugesim.errors import Infeasible
from gaugesim.ignition import bell_support
from gaugesim.solver import _assemble, _bell_screen, _certificate

SIZES = [(n, K) for n in range(2, 7) for K in range(1, 7) if n * K <= 12]


def outcome_codes(n, K):
    """codes[u, j]: the outcome vector (lexicographic index) state j shows at
    setting vector u (table order), for every state j < 2^(nK): region i
    reports bit u_i + i*K of j.  Row (x|u) of the incidence A holds the
    states with codes[u, j] == x."""
    states = np.arange(1 << n * K)
    codes = np.zeros((K ** n, states.size), dtype=np.int64)
    for row, u in enumerate(product(range(K), repeat=n)):
        for i, ui in enumerate(u):
            codes[row] = codes[row] << 1 | (states >> (ui + i * K)) & 1
    return codes


def assert_dual_feasible(Y, codes):
    """max y <= 1 and A^T y <= 0 on every state, for each row y of Y.

    Y's rows run over the targets of the setting vectors in `codes`, 2^n
    per vector, and (A^T y)_j is the sum over u of y at (u, codes[u, j]).
    Rows of Y touching the same setting vectors are summed together; states
    showing the same outcomes at those vectors take the same value, so each
    is summed once.
    """
    if not len(Y):
        return
    assert Y.max() <= 1
    width = Y.shape[1] // len(codes)
    touched = np.packbits((Y != 0).reshape(len(Y), -1, width).any(axis=2), axis=1)
    patterns, group = np.unique(np.ascontiguousarray(touched).view(f"V{touched.shape[1]}"),
                                return_inverse=True)
    for g, pattern in enumerate(patterns):
        blocks = np.flatnonzero(np.unpackbits(np.frombuffer(pattern, np.uint8)))
        key = np.zeros(codes.shape[1], dtype=np.int64)
        for b in blocks:
            key = key * width + codes[b]
        first = np.unique(key, return_index=True)[1]
        rows = np.take(Y, np.flatnonzero(group.ravel() == g), axis=0)
        sums = np.zeros((len(rows), first.size), dtype=np.int64)
        for b in blocks:
            sums += np.take(rows, b * width + codes[b, first], axis=1)
        assert sums.max() <= 0


# CHSH in 0/1 form less 3 at (s_0, t_0), over ((i, j), (x_a, x_b)): a row per odd
# set of the four setting pairs (s_i, t_j) scored on x_a != x_b, the rest on x_a == x_b
CHSH = np.int8([np.eye(2), 1 - np.eye(2)])[[d for d in product((0, 1), repeat=4) if sum(d) % 2]]
CHSH = CHSH.reshape(-1, 4, 4) - np.int8([[3], [0], [0], [0]])


def family_rows(n, K):
    """The family as dense int8 rows over the targets, built apart from the
    solver's factorised screen: per pair of regions a < b, CHSH on settings
    s0 < s1 of a and t0 < t1 of b, lifted by a setting and an outcome (0, 1
    or either) of each other region, rows ordered (variant, s pair, t pair,
    then (u_c, o_c) of each other region c in order)."""
    eye = np.eye(K, dtype=np.int8)
    pairs = eye[list(combinations(range(K), 2))].reshape(-1, 2, K)
    hit = np.einsum("pia,rjb->prabij", pairs, pairs).reshape(-1, 4)  # (s, t, u_a, u_b), (i, j)
    y = (CHSH[:, hit.argmax(axis=1)] * hit.any(axis=1)[:, None]).reshape(-1, 4 * K * K)
    for _ in range(n - 2):  # rows (y, lift) over columns (y, lift): (u_c, x_c) per other c
        lift = eye[:, None, :, None] * np.int8([[1, 0], [0, 1], [1, 1]])[:, None]
        y = (y[:, None, :, None] * lift.reshape(3 * K, 1, -1)).reshape(-1, y.shape[1] * 2 * K)
    at = np.arange(y.shape[1]).reshape((K, K, 2, 2) + (K, 2) * (n - 2))
    for a, b in combinations(range(n), 2):  # y over (u_a, u_b, x_a, x_b), then the others
        axes = [a, b, n + a, n + b] + [i for c in range(n) if c not in (a, b) for i in (c, n + c)]
        yield (a, b), np.take(y, at.transpose(np.argsort(axes)).ravel(), axis=1) if n > 2 else y


def strays(Y, n, K):
    """Whether each row of Y has a target outside each configuration's rows."""
    outside = np.indices((K,) * n + (2,) * n)[:n].reshape(n, -1, 1) != np.arange(K)
    outside = outside.transpose(1, 0, 2).reshape(-1, n * K).astype(np.float32)
    return (Y != 0).astype(np.float32) @ outside > 0


def family(n, K):
    """(Y, strays): every member as a row, and `strays` of those rows."""
    Y = np.concatenate([rows for _, rows in family_rows(n, K)])
    return Y, strays(Y, n, K)


def members(n, K):
    return math.comb(n, 2) * 8 * math.comb(K, 2) ** 2 * (3 * K) ** (n - 2)


def screened_lp(n, K, R, D=1):
    """The part of a `_GaugeLP` that `_certificate` reads, for targets R / D."""
    settings = np.array(list(product(range(K), repeat=n))).repeat(2 ** n, axis=0)
    return SimpleNamespace(settings=settings, bell=tuple(_bell_screen(R, D, n, K)))


@pytest.mark.parametrize("n, K", SIZES)
def test_every_certificate_is_dual_feasible_on_every_state(n, K):
    codes = outcome_codes(n, K)
    count, handed = 0, np.zeros(n * K, dtype=np.int64)
    for _, Y in family_rows(n, K):
        assert Y.shape[1] == (2 * K) ** n and Y.dtype == np.int8
        assert_dual_feasible(Y, codes)
        count += len(Y)
        # a configuration's LP holds only its rows, and the subfamily it can
        # be handed lives there: A^T y on those rows alone is the sum checked
        # above, so that subfamily is dual feasible on the LP's rows too
        handed += (~strays(Y, n, K)).sum(axis=0)
    assert count == members(n, K)
    assert (handed == (0 if n == 2 else math.comb(n - 1, 2) * 8 * math.comb(K, 2) ** 2
                       * 3 * (3 * K) ** (n - 3))).all()


@pytest.mark.parametrize("n, K", SIZES)
def test_the_screen_is_the_family_against_the_targets(n, K):
    """`_bell_screen` is Y.T member by member, in `family_rows` order, for
    any targets; past `_BELL_MEMBERS` members nothing is screened."""
    rng = np.random.default_rng(n * 10 + K)
    R = rng.integers(-1000, 1000, size=(2 * K) ** n)
    lp = screened_lp(n, K, R, 1000)
    if not 0 < members(n, K) <= solver._BELL_MEMBERS:
        assert lp.bell == ()
        return
    Y, strays = family(n, K)
    values = np.concatenate([V.ravel() for _, V in lp.bell])
    assert [pair for pair, _ in lp.bell] == [pair for pair, _ in family_rows(n, K)]
    assert np.allclose(values, Y @ (R / 1000))
    # each LP is handed its most violated member among those its rows hold
    for gamma in [None, *range(n * K)]:
        eligible = np.ones(len(Y), bool) if gamma is None else ~strays[:, gamma]
        handed = _certificate(lp, K, gamma)
        if not (values[eligible] > solver._BELL_MARGIN).any():
            assert handed is None
            continue
        best = np.flatnonzero(eligible & (values == values[eligible].max()))
        assert any(np.array_equal(handed, Y[q]) for q in best)


@pytest.mark.parametrize("n, K", [size for size in SIZES if 0 < members(*size) <= 35_000])
def test_each_member_is_built_as_its_row(n, K):
    """A screen that names one member alone hands over exactly that member's row."""
    Y, _ = family(n, K)
    rng = random.Random(n * 10 + K)
    lp = screened_lp(n, K, np.zeros((2 * K) ** n, dtype=np.int64))
    for (pair, V), (_, rows) in zip(lp.bell, family_rows(n, K)):
        for q in rng.sample(range(len(rows)), min(len(rows), 150)):
            named = np.full(V.shape, -1.0)
            named.flat[q] = 1.0
            one = SimpleNamespace(settings=lp.settings,
                                  bell=tuple((p, named if p == pair else np.full(W.shape, -1.0))
                                             for p, W in lp.bell))
            assert np.array_equal(_certificate(one, K), rows[q]), (pair, q)


# -- a certificate only ever names an LP the simplex rejects -------------------


def lp_rows(lp, system, gamma):
    K = system.num_settings
    return slice(None) if gamma is None else lp.settings[:, gamma // K] == gamma % K


def check_lps(system, support=None):
    """For the shared LP and every configuration's LP of `system`: every family
    member supported there that holds as a certificate (and the one the solver
    hands over) names an LP that the uncertified simplex rejects.  Returns the
    number of LPs settled by the handed certificate."""
    lp = _assemble(system, support)
    n, K = system.n, system.num_settings
    Y, strays = family(n, K) if members(n, K) else ((), ())
    settled = 0
    for gamma in [None, *range(n * K)]:
        rows = lp_rows(lp, system, gamma)
        A, rhs = lp.incidence[rows], lp.rhs[rows]
        slack = lp.slack / n if gamma is None else lp.slack
        handed = _certificate(lp, K, gamma, rows)
        candidates = [y[rows].astype(np.int64) for y, stray in zip(Y, strays)
                      if gamma is None or not stray[gamma]]
        holds = [simplex._refutes(A, rhs, y, slack, lp.denominator)
                 for y in ([] if handed is None else [handed]) + candidates]
        if any(holds):
            assert simplex.solve_nonnegative(A, rhs, lp.columns, slack, lp.denominator) is None
        settled += handed is not None and holds[0]
    return settled


def float_copy(system):
    return gs.ProbabilitySystem(system.n, system.num_settings, system.labels,
                                {key: float(p) for key, p in system.targets()})


@pytest.mark.parametrize("name", gs.catalog.names())
def test_catalog_certificates_agree_with_the_simplex(name):
    check_lps(gs.build(name))


@pytest.mark.parametrize("k", range(33))
def test_quasi_super_ghz_certificates_agree_with_the_simplex(k):
    system = gs.build("quasi-super-ghz", eps=F(k, 128))
    settled = [check_lps(system), check_lps(float_copy(system))]
    # one-step feasible exactly on [1/16, 3/16]: outside it, all seven LPs
    # (shared and per configuration) are settled by a certificate
    assert settled == ([0, 0] if 8 <= k <= 24 else [7, 7])


def test_epr_b_certificates_agree_with_the_simplex():
    rng = random.Random(27)
    for _ in range(12):
        angles = sorted(rng.uniform(0, math.pi) for _ in range(3))
        system = gs.epr_b(angles)
        check_lps(system)
        check_lps(system, bell_support(3))


def test_no_certificate_holds_on_a_local_mixture():
    rng = random.Random(2027)
    for n, K in [(2, 2), (2, 3), (3, 2), (2, 4)] * 5:
        system = random_mixture_system(rng, n, K)
        assert check_lps(system) == 0
        assert len(solver.solve_all_gauges(system)) == n * K


def load_bench_jobs():
    path = Path(__file__).resolve().parents[1] / "bench" / "jobs.py"
    spec = importlib.util.spec_from_file_location("bench_jobs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 5])
def test_gauge_lp_job_certificates_agree_with_the_simplex(monkeypatch, seed):
    """Every LP a gauge-lp job solves, through the CLI: whenever a handed
    certificate holds, the simplex without it rejects the LP too."""
    real = solver.solve_nonnegative
    counts = {"calls": 0, "settled": 0}

    def checked(A, rhs, columns, slack=F(0), denominator=1, certificate=None):
        counts["calls"] += 1
        if certificate is not None and simplex._refutes(A, rhs, certificate, slack, denominator):
            counts["settled"] += 1
            assert real(A, rhs, columns, slack, denominator) is None
        return real(A, rhs, columns, slack, denominator, certificate=certificate)

    monkeypatch.setattr(solver, "solve_nonnegative", checked)
    jobs, _ = load_bench_jobs().generate("gauge-lp", seed)
    for job in jobs:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(job["argv"])
    # seed 5's 348 LPs are the count the traced benchmark pins; 113 of its 115
    # failures are settled by a certificate (ghz-xy's two shared LPs are not)
    assert counts["calls"] == {1: 352, 5: 348}[seed]
    assert counts["settled"] == {1: 114, 5: 113}[seed]


def test_infeasible_lps_are_settled_with_no_pivot(monkeypatch):
    pivots = []
    real = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or real(*args))
    with pytest.raises(Infeasible) as err:
        solver.solve_all_gauges(gs.build("quasi-super-ghz", eps=F(3, 128)))
    assert sorted(err.value.gammas) == list(range(6)) and pivots == []
    # a feasible point of the same family still pivots
    solver.solve_all_gauges(gs.build("quasi-super-ghz", eps=F(1, 8)))
    assert pivots
