"""Exact non-negative feasibility for 0/1 equality systems.

Solves  find x >= 0 with A x = b  where A has 0/1 entries and b >= 0 is
rational, via phase-1 simplex.  Bland's rule (lowest-index entering
variable, lowest basis index leaving on ratio ties) guarantees termination
and makes the returned basic feasible solution deterministic for a fixed
column order.  A arrives as one bool incidence matrix over the columns and
b as non-negative integers over one denominator D; presolve is a pair of
masks over A, and the tableau is filled from it in one assignment.  A
solution lists only its positive basic entries, in column priority order.

The tableau is kept fraction-free (Edmonds 1967, Bareiss 1968): the kept
rhs, divided by their common gcd g with D, are integers over D / g; from
there every entry is an integer over one common denominator ``d``, the
determinant of the current basis, and each pivot divides exactly by the
previous ``d``.  Every sign and ratio test is therefore the one an exact
rational tableau makes, so the pivot path and the returned vertex are
those of rational arithmetic.  Entries live in an int64 numpy array while
a pivot's intermediate values provably stay below ``INT64_LIMIT``, and in
Python ints (``dtype=object``) from the first pivot that could exceed it.
The growth test takes a bound carried from pivot to pivot for the row's and
the tableau's maxima, scanning them only when that would widen, so it widens
where the exact maxima would.  A p = d = 1 pivot is one outer-product step.
A candidate dual vector y handed in is tried after presolve: y <= 1 and A^T y <= 0
make y feasible for the dual of phase 1, so by weak duality y.b > slack proves the
phase-1 optimum above the slack.  It is checked exactly: a wrong one goes unused.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .ignition import state_array

# Intermediate magnitudes at or above this continue in Python ints; the
# margin below 2^63 keeps every product and difference of a pivot in range.
INT64_LIMIT = 1 << 62


def presolve_zero_rows(A, positive):
    """Fix to zero every variable appearing in a zero-rhs row.

    Sound because all coefficients and variables are non-negative.  `A` is
    the bool incidence matrix (rows by columns) and `positive` the bool mask
    of the rows with rhs > 0.  Returns (kept, reduced): the bool mask of the
    columns left free and the incidence of the positive rows on them.  None
    when a positive-rhs row loses all of its columns (infeasible).
    """
    kept = ~((~positive) @ A)  # a bool product: the columns in no zero-rhs row
    reduced = A[positive] if kept.all() else A[positive][:, kept]
    if not reduced.any(axis=1).all():
        return None
    return kept, reduced


def solve_nonnegative(A, rhs, columns, slack=Fraction(0), denominator=1, certificate=None):
    """Positive entries of a basic feasible solution of the 0/1 system, or None.

    A:           bool incidence matrix, rows by columns
    rhs:         integer array, one non-negative entry per row: the row's
                 value times `denominator`
    columns:     distinct candidate variables in priority order; Bland's
                 rule breaks ties by position in this order
    slack:       largest phase-1 optimum still accepted as feasible.  Zero
                 for exact systems; snapped float tables need a tiny
                 allowance because snapping perturbs their linear
                 dependencies.
    denominator: the positive integer every rhs entry is over
    certificate: a candidate dual vector, an integer array over the rows of A

    The result maps each column with a positive basic value to that value,
    in column priority order; every other variable is zero.
    """
    rhs = np.asarray(rhs)
    columns = state_array(columns)
    if A.shape != (rhs.size, columns.size):
        raise ValueError(f"incidence of shape {A.shape} for {rhs.size} rows "
                         f"and {columns.size} columns")
    if (rhs < 0).any():
        raise ValueError("rhs must be non-negative")
    positive = rhs > 0
    pre = presolve_zero_rows(A, positive)
    if pre is None or (certificate is not None
                       and _refutes(A, rhs, certificate, slack, denominator)):
        return None
    kept, A = pre
    m, n = A.shape
    if m == 0:
        return {}
    columns = columns[kept]

    # Rows 0..m-1: structural columns and the kept rhs over `scale`, the
    # lcm of their reduced denominators.  Row m: the phase-1 reduced costs
    # (artificials start basic at cost 1, so a structural column costs minus
    # its column sum).  Artificial columns are left out: they never
    # re-enter, and neither pricing nor the ratio step reads them.
    kept_rhs = rhs[positive].tolist()
    common = math.gcd(denominator, *kept_rhs)
    scale = denominator // common
    scaled = [b // common for b in kept_rhs]
    total = sum(scaled)
    M = np.zeros((m + 1, n + 1), dtype=np.int64)
    M[:m, :n] = A
    M[m, :n] = -A.sum(axis=0)
    if total >= INT64_LIMIT:
        M = M.astype(object)
    M[:m, n] = scaled
    M[m, n] = -total
    basis = [n + i for i in range(m)]  # artificial i has variable index n + i
    d = 1
    bound = max(total, m)  # no column sum exceeds m, no rhs the total

    while True:
        # Bland's entering column: the first with a negative cost
        negative = M[m, :n] < 0
        enter = int(negative.argmax())
        if not negative[enter]:
            break
        column = M[:, enter].tolist()
        leave = _leaving_row(M[:m, n].tolist(), column, basis)
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        M, d, bound = _pivot(M, leave, enter, column, d, bound)
        basis[leave] = enter

    d *= scale  # the rhs column is over d
    if Fraction(-int(M[m, n]), d) > slack:
        return None
    values = M[:m, n].tolist()
    return {
        int(columns[var]): Fraction(int(values[i]), d)
        for var, i in sorted((var, i) for i, var in enumerate(basis) if var < n)
        if values[i] > 0
    }


def _refutes(A, rhs, y, slack, denominator):
    """Whether y <= 1, A^T y <= 0 and y.rhs > slack * denominator hold, exactly."""
    rows = np.flatnonzero(y)
    y = y[rows].tolist()
    value = sum(a * b for a, b in zip(y, rhs[rows].tolist()))
    return (0 < len(y) and max(y) <= 1 and sum(map(abs, y)) < INT64_LIMIT
            and value * slack.denominator > slack.numerator * denominator
            and max((np.array(y, dtype=np.int64) @ A[rows]).tolist()) <= 0)


def _leaving_row(values, coeffs, basis):
    """Bland's leaving row: minimum ratio values[i]/coeffs[i] over coeffs > 0.

    Ratios are compared by exact cross-multiplication, ties going to the row
    of the lowest basic variable index; -1 when no coefficient is positive.
    `coeffs` may end with the entering cost, which is negative.
    """
    leave = -1
    for i, a in enumerate(coeffs):
        if a <= 0:
            continue
        if leave < 0:
            leave = i
            continue
        lhs, rhs = values[i] * coeffs[leave], values[leave] * a
        if lhs < rhs or (lhs == rhs and basis[i] < basis[leave]):
            leave = i
    return leave


def _pivot(M, row, col, column, d, bound):
    """Fraction-free pivot at (row, col), `column` being M[:, col] as a list;
    returns the tableau, the new denominator and a bound of its magnitudes.

    Every other row becomes (p*M[i] - M[i, col]*M[row]) / d, an exact
    division; the pivot row stays and p > 0 becomes the denominator.  An
    int64 tableau widens to Python ints first when p * max|M| + max|column|
    * max|M[row]| could reach INT64_LIMIT; `bound` (at least max|M|) stands
    in for the maxima of M until that alone would.  Divided by d, the sum
    taken bounds the new tableau; an object tableau's bound is not kept.
    """
    p = column[row]
    if M.dtype != object:
        col_max = max(-min(column), max(column))
        growth = (p + col_max) * bound
        if growth >= INT64_LIMIT:
            row_max = int(np.abs(M[row]).max())
            growth = p * bound + col_max * row_max
            if growth >= INT64_LIMIT:
                bound = int(np.abs(M).max())
                growth = p * bound + col_max * row_max
            if growth >= INT64_LIMIT:
                M = M.astype(object)
        bound = max(bound, growth // d)
    factors = M[:, col].copy()
    factors[row] = 0
    if p == d == 1:
        M -= factors[:, None] * M[row]
        return M, 1, bound
    pivot_row = M[row].copy()
    if p != 1:
        M *= p
    M -= factors[:, None] * pivot_row
    if d != 1:
        M //= d
    M[row] = pivot_row
    return M, p, bound
