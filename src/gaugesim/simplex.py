"""Exact non-negative feasibility for 0/1 equality systems.

Solves  find x >= 0 with A x = b  where A has 0/1 entries and b >= 0 is
rational, via phase-1 simplex.  Bland's rule (lowest-index entering
variable, lowest basis index leaving on ratio ties) guarantees termination
and makes the returned basic feasible solution deterministic for a fixed
column order.

The tableau is kept fraction-free (Edmonds 1967, Bareiss 1968): after the
rhs is scaled to integers, every entry is an integer over one common
denominator ``d``, the determinant of the current basis, and each pivot
divides exactly by the previous ``d``.  Every sign and ratio test is
therefore the one an exact rational tableau makes, so the pivot path and
the returned vertex are those of rational arithmetic.  Entries live in an
int64 numpy array while a pivot's intermediate values provably stay below
``INT64_LIMIT``, and in Python ints (``dtype=object``) from the first pivot
that could exceed it.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

# Intermediate magnitudes at or above this continue in Python ints; the
# margin below 2^63 keeps every product and difference of a pivot in range.
INT64_LIMIT = 1 << 62


def presolve_zero_rows(rows, rhs, columns):
    """Fix to zero every variable appearing in a zero-rhs row.

    Sound because all coefficients and variables are non-negative.  Returns
    (rows, rhs, kept_columns) with zero rows dropped, or None when a
    positive-rhs row loses all of its columns (infeasible).
    """
    kept = set(columns)
    for row, b in zip(rows, rhs):
        if b == 0:
            kept.difference_update(row)
    new_rows, new_rhs = [], []
    for row, b in zip(rows, rhs):
        if b == 0:
            continue
        reduced = [c for c in row if c in kept]
        if not reduced:
            return None
        new_rows.append(reduced)
        new_rhs.append(b)
    return new_rows, new_rhs, [c for c in columns if c in kept]


def solve_nonnegative(rows, rhs, columns, slack=Fraction(0)):
    """Basic feasible solution of the 0/1 equality system, or None.

    rows:    list of lists of column ids (unit coefficients)
    rhs:     matching non-negative Fractions
    columns: candidate variables in priority order; Bland's rule breaks
             ties by position in this list.
    slack:   largest phase-1 optimum still accepted as feasible.  Zero for
             exact systems; snapped float tables need a tiny allowance
             because snapping perturbs their linear dependencies.
    """
    if any(b < 0 for b in rhs):
        raise ValueError("rhs must be non-negative")
    all_columns = list(columns)
    pre = presolve_zero_rows(rows, rhs, columns)
    if pre is None:
        return None
    rows, rhs, columns = pre
    if not rows:
        return {c: Fraction(0) for c in all_columns}

    m = len(rows)
    n = len(columns)
    col_pos = {c: idx for idx, c in enumerate(columns)}

    # Rows 0..m-1: structural columns and the rhs scaled by L to integers.
    # Row m: the phase-1 reduced costs (artificials start basic at cost 1,
    # so a structural column costs minus its column sum).  Artificial
    # columns are left out: they never re-enter, and neither pricing nor
    # the ratio step reads them.
    rhs = [Fraction(b) for b in rhs]
    scale = math.lcm(*(b.denominator for b in rhs))
    scaled = [b.numerator * (scale // b.denominator) for b in rhs]
    total = sum(scaled)
    M = np.zeros((m + 1, n + 1), dtype=np.int64 if total < INT64_LIMIT else object)
    for i, row in enumerate(rows):
        M[i, [col_pos[c] for c in row]] = 1
        M[i, n] = scaled[i]
    M[m, :n] = -M[:m, :n].sum(axis=0)
    M[m, n] = -total
    basis = [n + i for i in range(m)]  # artificial i has variable index n + i
    d = 1

    while True:
        negative = np.flatnonzero(M[m, :n] < 0)
        if negative.size == 0:
            break
        enter = int(negative[0])
        leave = _leaving_row(M[:m, n].tolist(), M[:m, enter].tolist(), basis)
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        M, d = _pivot(M, leave, enter, d)
        basis[leave] = enter

    denominator = d * scale
    if Fraction(-int(M[m, n]), denominator) > slack:
        return None

    solution = {c: Fraction(0) for c in all_columns}
    for i, var in enumerate(basis):
        if var < n:
            solution[columns[var]] = Fraction(int(M[i, n]), denominator)
    return solution


def _leaving_row(values, coeffs, basis):
    """Bland's leaving row: minimum ratio values[i]/coeffs[i] over coeffs > 0.

    Ratios are compared by exact cross-multiplication; ties go to the row
    whose basic variable has the lowest index.  -1 when no coefficient is
    positive.
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


def _pivot(M, row, col, d):
    """Fraction-free pivot at (row, col); returns the tableau and new denominator.

    Every other row becomes (p*M[i] - M[i, col]*M[row]) / d with p the pivot,
    an exact division; the pivot row is kept as it is and p becomes the
    denominator.  Widens to Python ints first when the intermediate values
    could reach INT64_LIMIT.
    """
    p = M[row, col]
    if M.dtype != object:
        bound = (int(p) * int(np.abs(M).max())
                 + int(np.abs(M[:, col]).max()) * int(np.abs(M[row]).max()))
        if bound >= INT64_LIMIT:
            M = M.astype(object)
            p = M[row, col]
    pivot_row = M[row].copy()
    factors = M[:, col].copy()
    if p != 1:
        M *= p
    M -= np.multiply.outer(factors, pivot_row)
    if d != 1:
        M //= d
    M[row] = pivot_row
    return M, int(p)
