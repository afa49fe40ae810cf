"""Exact feasibility core."""

import math
import random
from fractions import Fraction as F

import numpy as np
import pytest

import gaugesim as gs
import reference_simplex
from gaugesim import simplex
from gaugesim.ignition import bell_support, state_array
from gaugesim.simplex import presolve_zero_rows, solve_nonnegative
from gaugesim.solver import _assemble, _column_order


def integer_lp(rows, rhs, columns):
    """(incidence, numerators, D) of 0/1 rows listed as column ids, with
    their rhs as Fractions; an id that is not a column is left out."""
    rows = [set(np.asarray(row).tolist()) for row in rows]
    A = np.array([[c in row for c in columns] for row in rows], dtype=bool)
    D = math.lcm(*(F(b).denominator for b in rhs))
    numerators = np.array([int(F(b) * D) for b in rhs], dtype=object)
    return A.reshape(len(rows), len(columns)), numerators, D


def solve(rows, rhs, columns, slack=F(0)):
    """`solve_nonnegative` on rows listed as column ids with Fraction rhs."""
    A, numerators, D = integer_lp(rows, rhs, columns)
    return solve_nonnegative(A, numerators, columns, slack, D)


def check(rows, rhs, solution):
    for row, b in zip(rows, rhs):
        assert sum(solution.get(c, 0) for c in row) == b
    assert all(v > 0 for v in solution.values())


def test_simple_feasible_system():
    rows = [[0, 1], [1, 2]]
    rhs = [F(1, 2), F(3, 4)]
    solution = solve(rows, rhs, [0, 1, 2])
    check(rows, rhs, solution)


def test_zero_row_forces_variables():
    rows = [[0, 1], [1, 2], [2]]
    rhs = [F(0), F(1), F(1)]
    solution = solve(rows, rhs, [0, 1, 2])
    check(rows, rhs, solution)
    assert 0 not in solution and 1 not in solution


def test_presolve_detects_emptied_row():
    # column 0 is killed by the zero row but row 1 needs it
    A = np.array([[True], [True]])
    assert presolve_zero_rows(A, np.array([False, True])) is None
    assert solve([[0], [0]], [F(0), F(1)], [0]) is None


def test_presolve_masks():
    # row 1 (rhs 0) fixes columns 1 and 3; column 4 is in no row and stays
    rows = [[0, 1], [1, 3], [2, 3]]
    A = np.zeros((3, 5), dtype=bool)
    for i, row in enumerate(rows):
        A[i, row] = True
    kept, reduced = presolve_zero_rows(A, np.array([True, False, True]))
    assert kept.tolist() == [True, False, True, False, True]
    assert reduced.tolist() == [[True, False, False], [False, True, False]]
    assert solve(rows, [F(1, 2), F(0), F(1, 3)], list(range(5))) == {
        0: F(1, 2), 2: F(1, 3)}


def test_all_zero_rhs_gives_the_empty_solution():
    rows = [[0, 1], [1, 2], []]
    assert solve(rows, [F(0), F(0), F(0)], [2, 1, 0]) == {}
    assert solve([], [], [0, 1]) == {}


def test_positive_row_losing_every_column_is_infeasible():
    rows = [[0, 1], [1, 2], [0, 2], [3]]
    assert solve(rows, [F(0), F(0), F(1), F(1)], [0, 1, 2, 3]) is None
    # a positive row with no columns at all
    assert solve([[0], []], [F(1), F(1, 2)], [0]) is None


@pytest.mark.parametrize("wide", [0, 10**9, 1 << 70], ids=["small", "wide", "python-int"])
def test_row_ids_outside_the_columns_are_ignored(wide):
    # ids 5 and 7 are no columns; ids past int64 are searched as Python ints
    assert same_as_reference([[0, 5, wide]], [F(1)], [0, 1]) == {0: 1}
    assert same_as_reference([[0, 5], [wide + 1]], [F(1), F(0)], [wide + 1, 0]) == {0: 1}
    assert same_as_reference([[0, 1], [7]], [F(1), F(1, 2)], [1, 0, wide + 2]) is None


def test_infeasible_by_conflict():
    rows = [[0], [0]]
    rhs = [F(1, 2), F(1, 3)]
    assert solve(rows, rhs, [0]) is None


def test_redundant_rows_accepted():
    rows = [[0, 1], [0, 1], [1]]
    rhs = [F(1), F(1), F(1, 4)]
    solution = solve(rows, rhs, [0, 1])
    check(rows, rhs, solution)


def test_basic_solution_support_bound():
    # support of a basic solution never exceeds the number of rows
    rows = [[0, 1, 2, 3, 4], [2, 3, 4, 5]]
    rhs = [F(1), F(1, 3)]
    solution = solve(rows, rhs, list(range(6)))
    check(rows, rhs, solution)
    assert len(solution) <= 2


def test_column_priority_controls_vertex():
    rows = [[0, 1]]
    rhs = [F(1)]
    assert solve(rows, rhs, [0, 1]) == {0: 1}
    assert solve(rows, rhs, [1, 0]) == {1: 1}


def test_slack_accepts_small_inconsistency():
    rows = [[0], [0]]
    rhs = [F(1, 2), F(1, 2) + F(1, 10**12)]
    assert same_as_reference(rows, rhs, [0]) is None
    loose = same_as_reference(rows, rhs, [0], slack=F(1, 10**9))
    assert loose is not None


def test_negative_rhs_rejected():
    with pytest.raises(ValueError, match="non-negative"):
        solve([[0]], [F(-1)], [0])


def test_incidence_must_match_the_rhs_and_columns():
    with pytest.raises(ValueError, match="incidence"):
        solve_nonnegative(np.ones((2, 3), dtype=bool), [1], [0, 1, 2])
    with pytest.raises(ValueError, match="incidence"):
        solve_nonnegative(np.ones((1, 3), dtype=bool), [1], [0, 1])


def test_a_certificate_is_used_only_when_it_holds(monkeypatch):
    # x0 + x1 = 1 with x0 = x1 = 3/4 has no solution; y = (-1, 1, 1) has
    # y <= 1 and A^T y = 0, and y . b = 1/2 > 0 proves it without a pivot
    A, rhs, D = integer_lp([[0, 1], [0], [1]], [F(1), F(3, 4), F(3, 4)], [0, 1])
    pivots = []
    real = simplex._pivot
    monkeypatch.setattr(simplex, "_pivot", lambda *args: pivots.append(1) or real(*args))
    assert solve_nonnegative(A, rhs, [0, 1], F(0), D) is None and pivots
    pivots.clear()
    good = np.array([-1, 1, 1])
    assert solve_nonnegative(A, rhs, [0, 1], F(0), D, certificate=good) is None
    assert not pivots
    # y . b = 1/2 is the proof's margin: a slack of 1/2 or more leaves it to the simplex
    assert simplex._refutes(A, rhs, good, F(1, 3), D)
    assert not simplex._refutes(A, rhs, good, F(1, 2), D)
    # an entry above 1, or a column with A^T y > 0, is no certificate
    assert not simplex._refutes(A, rhs, np.array([-1, 2, 1]), F(0), D)
    assert not simplex._refutes(A, rhs, np.array([1, -1, 1]), F(0), D)
    # a feasible LP keeps its vertex whatever it is handed
    rows, b = [[0, 1], [1, 2]], [F(1, 2), F(3, 4)]
    A, rhs, D = integer_lp(rows, b, [0, 1, 2])
    want = solve_nonnegative(A, rhs, [0, 1, 2], F(0), D)
    for y in ([1, 1], [0, 1], [-3, 1], [1, -1]):
        got = solve_nonnegative(A, rhs, [0, 1, 2], F(0), D, certificate=np.array(y))
        assert list(got.items()) == list(want.items())


def test_degenerate_system_terminates():
    # many interchangeable columns with tying ratios exercise Bland's rule
    rows = [[0, 1, 2, 3], [0, 1], [2, 3]]
    rhs = [F(1), F(1, 2), F(1, 2)]
    solution = solve(rows, rhs, [0, 1, 2, 3])
    check(rows, rhs, solution)


# -- differential tests against the dense Fraction tableau -----------------


def same_as_reference(rows, rhs, columns, slack=F(0)):
    """`matches_reference` on rows listed as column ids with Fraction rhs."""
    A, numerators, D = integer_lp(rows, rhs, columns)
    return matches_reference(A, numerators, columns, slack, D)


def matches_reference(A, rhs, columns, slack, denominator):
    """The solver's result against the reference's positive entries, in order.

    The reference takes each row as its column ids and each rhs as a
    Fraction.  It lists every column, zeros included; a zero carries no
    vertex information, so only its positive entries are compared, as an
    ordered list of (column, value) pairs.
    """
    got = solve_nonnegative(A, rhs, columns, slack, denominator)
    columns = state_array(columns)
    want = reference_simplex.solve_nonnegative(
        [columns[row].tolist() for row in A], [F(int(b), denominator) for b in rhs],
        columns.tolist(), slack=slack,
    )
    if want is None:
        assert got is None
    else:
        assert list(got.items()) == [(c, w) for c, w in want.items() if w > 0]
        assert all(type(c) is int for c in got)
    return got


@pytest.fixture
def pivot_dtypes(monkeypatch):
    """Record whether each pivot ran on Python ints, checking every division.

    Each pivot must also widen exactly where the bound from the exact
    maximum of its tableau would, and hand on a bound of its result.
    """
    seen = []
    pivot = simplex._pivot

    def checked(M, row, col, column, d, bound):
        seen.append(M.dtype == object)
        wide = M.astype(object)
        numerators = wide * int(M[row, col]) - np.multiply.outer(wide[:, col], wide[row])
        assert all(v % d == 0 for v in numerators.ravel())
        exact = abs(wide).max()
        if M.dtype != object:
            assert bound >= exact
            growth = int(M[row, col]) * exact + abs(wide[:, col]).max() * abs(wide[row]).max()
        result, p, next_bound = pivot(M, row, col, column, d, bound)
        if M.dtype != object:
            assert (result.dtype == object) == (growth >= simplex.INT64_LIMIT)
        if result.dtype != object:
            assert next_bound >= abs(result).max()
        return result, p, next_bound

    monkeypatch.setattr(simplex, "_pivot", checked)
    return seen


def catalog_lps():
    """Shared and per-configuration gauge LPs of every catalog system, as
    `solve_shared_gauge` and `solve_gauge` pass them to the simplex."""
    for name in gs.catalog.names():
        system = gs.build(name)
        supports = [None]
        if system.n == 2:
            supports.append(bell_support(system.num_settings))
        for support in supports:
            lp = _assemble(system, support)
            size = lp.columns.size
            K = system.num_settings
            masks = [lp.settings[:, gamma // K] == gamma % K for gamma in range(system.n * K)]
            for gamma, rows in enumerate(masks):
                yield (f"{name}/{size}/gamma={gamma}", lp.incidence[rows], lp.rhs[rows],
                       lp.columns, lp.slack, lp.denominator)
            yield (f"{name}/{size}/shared", lp.incidence, lp.rhs, lp.columns,
                   lp.slack / system.n, lp.denominator)


@pytest.mark.parametrize("case", list(catalog_lps()), ids=lambda c: c[0])
def test_catalog_lps_match_reference(case):
    matches_reference(*case[1:])


def test_random_systems_match_reference(pivot_dtypes):
    # small values make duplicate rows, zero rows and tied ratios common
    rng = random.Random(20240611)
    for _ in range(400):
        m, n = rng.randint(1, 7), rng.randint(1, 9)
        columns = list(range(n))
        rng.shuffle(columns)
        rows = [[c for c in range(n) if rng.random() < 0.4] for _ in range(m)]
        if m > 1 and rng.random() < 0.5:
            rows[rng.randrange(1, m)] = list(rows[0])
        x = [F(rng.randint(0, 2), rng.choice((1, 2, 3))) if rng.random() < 0.5 else F(0)
             for _ in range(n)]
        rhs = [sum((x[c] for c in row), F(0)) for row in rows]
        if rng.random() < 0.3:  # usually infeasible afterwards
            rhs[rng.randrange(m)] += F(1, rng.randint(1, 4))
        same_as_reference(rows, rhs, columns)
    assert pivot_dtypes and not any(pivot_dtypes)


def test_ratio_ties_go_to_lowest_basis_index():
    # the second pivot ties two rows at ratio 1; breaking the tie by row
    # position instead of basic variable index reaches another vertex
    rows = [[1, 2], [0, 1, 3], [0, 2]]
    rhs = [F(3), F(3), F(2)]
    solution = same_as_reference(rows, rhs, [3, 4, 1, 0, 2])
    assert list(solution.items()) == [(3, 2), (1, 1), (2, 2)]


def test_large_rhs_denominators_start_in_python_ints(pivot_dtypes):
    primes = (2**61 - 1, 2**31 - 1, 1000003)
    x = [F(1, primes[0]), F(2, primes[1]), F(3, primes[2]), F(5, primes[0])]
    rows = [[0, 1, 2], [1, 2], [0, 3], [2, 3]]
    rhs = [sum((x[c] for c in row), F(0)) for row in rows]
    assert same_as_reference(rows, rhs, [3, 2, 1, 0]) is not None
    assert pivot_dtypes and all(pivot_dtypes)


def test_a_configuration_reduces_its_rhs_below_the_table_denominator(pivot_dtypes):
    # D = 3 * 2^61 passes the widening limit, but setting 0's targets are
    # 1/3 and 2/3: divided by their gcd with D they pivot in int64
    system = gs.one_region([F(1, 3), F(1, 2**61)])
    lp = _assemble(system, None)
    assert lp.denominator >= simplex.INT64_LIMIT
    rows = lp.settings[:, 0] == 0
    want = matches_reference(lp.incidence[rows], lp.rhs[rows], lp.columns, lp.slack,
                             lp.denominator)
    assert gs.solve_gauge(system, 0).weights == want == {0: F(1, 3), 3: F(2, 3)}
    assert pivot_dtypes and not any(pivot_dtypes)


def test_growth_past_int64_mid_solve(pivot_dtypes):
    # the scaled rhs fits in int64, but pivots on a basis of determinant
    # above one push the entries past the widening bound
    rows = [[0, 3, 4], [0, 1, 2, 4], [1, 3, 4, 5], [2, 3, 5], [1, 4, 5]]
    x = [188258718257185338, 5018378135333418, 42828200896191412, 43716142052674250,
         209762718316266981, 272517124484312634, 112430419824943756]
    rhs = [F(sum(x[c] for c in row), 1000003) for row in rows]
    assert same_as_reference(rows, rhs, list(range(7))) is not None
    assert not pivot_dtypes[0] and pivot_dtypes[-1]


def record_pivots(monkeypatch):
    """(p, d, widened) of each pivot, recorded around the `_pivot` in place."""
    seen = []
    pivot = simplex._pivot

    def recorded(M, row, col, column, d, bound):
        result = pivot(M, row, col, column, d, bound)
        seen.append((column[row], d, M.dtype != object and result[0].dtype == object))
        return result

    monkeypatch.setattr(simplex, "_pivot", recorded)
    return seen


def test_a_long_unimodular_run_ends_in_a_widening_pivot(pivot_dtypes, monkeypatch):
    # x_j = j + 1 for j < 12 pivot in one by one with p = d = 1 while the
    # cost row's rhs stays near 3 * 2^60; the last row's 3 * 2^60 then
    # doubles it past the limit
    pivots = record_pivots(monkeypatch)
    rhs = [F(j + 1) for j in range(12)] + [F(3 << 60)]
    assert same_as_reference([[j] for j in range(13)], rhs, list(range(13))) is not None
    assert pivots == [(1, 1, False)] * 12 + [(1, 1, True)]
    assert pivot_dtypes == [False] * 13


def test_unimodular_pivots_around_a_determinant_two_basis(pivot_dtypes, monkeypatch):
    # the third pivot is a 2, which the fourth divides out again
    pivots = record_pivots(monkeypatch)
    rows = [[1, 2, 5], [0, 2, 3], [0, 1, 4], [4, 5]]
    assert same_as_reference(rows, [F(3), F(3), F(3), F(4)], list(range(6))) is not None
    assert [(p, d) for p, d, _wide in pivots] == [(1, 1), (1, 1), (2, 1), (1, 2), (1, 1), (1, 1)]
    assert pivot_dtypes == [False] * 6


def test_a_loose_bound_is_tightened_before_it_widens():
    M = np.array([[2, 1, 3], [1, 1, 2], [-3, -2, -5]], dtype=np.int64)
    result, p, bound = simplex._pivot(M.copy(), 0, 0, M[:, 0].tolist(), 1, simplex.INT64_LIMIT)
    assert result.dtype == np.int64 and p == 2
    assert result.tolist() == [[2, 1, 3], [0, 1, 1], [0, -1, -1]]
    assert 3 <= bound <= 2 * 5 + 3 * 3
    # 2^31 * 5 * 2^30 reaches the limit whatever the bound says
    wide, _p, _bound = simplex._pivot(M << 30, 0, 0, (M[:, 0] << 30).tolist(), 1, 5 << 30)
    assert wide.dtype == object
    assert wide.tolist() == [[2 << 30, 1 << 30, 3 << 30], [0, 1 << 60, 1 << 60],
                             [0, -1 << 60, -1 << 60]]


def test_the_carried_bound_covers_the_kept_pivot_row():
    # d = 3 divides the other rows below the pivot row, which stays as it is
    M = np.array([[1, 9], [1, 6], [-1, -3]], dtype=np.int64)
    result, p, bound = simplex._pivot(M.copy(), 0, 0, [1, 1, -1], 3, 9)
    assert result.tolist() == [[1, 9], [0, -1], [0, 2]] and p == 1
    assert bound >= 9


def test_ids_past_int64_match_reference():
    # the same random systems with every column id replaced by a wide state
    rng = random.Random(20241018)
    for _ in range(100):
        m, n = rng.randint(1, 6), rng.randint(1, 8)
        ids = rng.sample(range(1 << 70, (1 << 70) + 64), n)
        rows = [[ids[c] for c in range(n) if rng.random() < 0.4] for _ in range(m)]
        x = [F(rng.randint(0, 2), rng.choice((1, 2, 3))) for _ in range(n)]
        rhs = [sum((x[ids.index(c)] for c in row), F(0)) for row in rows]
        same_as_reference(rows, rhs, ids)


# -- column priority order ---------------------------------------------------


def sorted_column_order(columns):
    """The priority order as a sort key: popcount parity, then the state."""
    return sorted(columns, key=lambda j: (bin(j).count("1") & 1, j))


@pytest.mark.parametrize("bits", [0, 1, 2, 3, 6, 9, 12, 16, 20])
def test_column_order_on_full_supports(bits):
    full = np.arange(1 << bits, dtype=np.int64)
    assert _column_order(full).tolist() == sorted_column_order(range(1 << bits))


def test_column_order_on_working_sets():
    rng = random.Random(11)
    edges = [0, 1, (1 << 62) - 1, (1 << 63) - 1, 1 << 63, (1 << 64) - 1, 1 << 64]
    for trial in range(60):
        states = set(rng.sample(range(1 << 12), rng.randint(0, 30)))
        if trial % 2:  # past int64: the popcount comes from int.bit_count
            states.update((1 << 63) + rng.getrandbits(rng.randint(1, 80)) for _ in range(10))
            states.update(rng.sample(edges, 3))
        else:  # int64 states that use the high bits of the parity fold
            states.update(rng.getrandbits(63) for _ in range(10))
            states.update(edges[:4])
        states = list(states)
        rng.shuffle(states)
        got = _column_order(states)
        assert got.dtype == (object if max(states, default=0) >= 1 << 63 else np.int64)
        assert got.tolist() == sorted_column_order(states)
