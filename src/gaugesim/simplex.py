"""Exact non-negative feasibility for 0/1 equality systems.

Solves  find x >= 0 with A x = b  where A has 0/1 entries and b >= 0 is
rational, via phase-1 simplex.  Bland's rule (lowest-index entering
variable, lowest basis index leaving on ratio ties) guarantees termination
and makes the returned basic feasible solution deterministic for a fixed
column order.  A arrives either as one bool incidence matrix over the
columns or as one int array of column ids per row, which becomes that
matrix; presolve is a pair of masks over it, and the tableau is filled from
it in one assignment.  A solution lists only its positive basic entries, in
column priority order.

The tableau is kept fraction-free (Edmonds 1967, Bareiss 1968): after the
rhs is scaled to integers, every entry is an integer over one common
denominator ``d``, the determinant of the current basis, and each pivot
divides exactly by the previous ``d``.  Every sign and ratio test is
therefore the one an exact rational tableau makes, so the pivot path and
the returned vertex are those of rational arithmetic.  Entries live in an
int64 numpy array while a pivot's intermediate values provably stay below
``INT64_LIMIT``, and in Python ints (``dtype=object``) from the first pivot
that could exceed it.  That test reads a bound of the largest entry carried
from pivot to pivot, and reduces the whole tableau only when the bound
alone would widen, so it widens exactly where the exact maximum would.
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
    kept = ~A[~positive].any(axis=0)
    reduced = A[positive]
    if not kept.all():
        reduced = reduced[:, kept]
    if not reduced.any(axis=1).all():
        return None
    return kept, reduced


def solve_nonnegative(rows, rhs, columns, slack=Fraction(0)):
    """Positive entries of a basic feasible solution of the 0/1 system, or None.

    rows:    per row, an int array (or list) of column ids with coefficient 1;
             or a 2-D bool array, rows by columns, the incidence itself
    rhs:     matching non-negative Fractions
    columns: distinct candidate variables in priority order; Bland's rule
             breaks ties by position in this order.  A row id that is not
             among them is no variable and is ignored.
    slack:   largest phase-1 optimum still accepted as feasible.  Zero for
             exact systems; snapped float tables need a tiny allowance
             because snapping perturbs their linear dependencies.

    The result maps each column with a positive basic value to that value,
    in column priority order; every other variable is zero.
    """
    rhs = [b if isinstance(b, Fraction) else Fraction(b) for b in rhs]
    if any(b.numerator < 0 for b in rhs):
        raise ValueError("rhs must be non-negative")
    columns = state_array(columns)
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype == bool:
        if rows.shape != (len(rhs), columns.size):
            raise ValueError(f"incidence of shape {rows.shape} for {len(rhs)} rows "
                             f"and {columns.size} columns")
        A = rows
    else:
        A = _incidence(rows, columns)
    positive = np.array([b.numerator > 0 for b in rhs], dtype=bool)
    pre = presolve_zero_rows(A, positive)
    if pre is None:
        return None
    kept, A = pre
    m, n = A.shape
    if m == 0:
        return {}
    columns = columns[kept]
    rhs = [b for b, keep in zip(rhs, positive) if keep]

    # Rows 0..m-1: structural columns and the rhs scaled by L to integers.
    # Row m: the phase-1 reduced costs (artificials start basic at cost 1,
    # so a structural column costs minus its column sum).  Artificial
    # columns are left out: they never re-enter, and neither pricing nor
    # the ratio step reads them.
    scale = math.lcm(*(b.denominator for b in rhs))
    scaled = [b.numerator * (scale // b.denominator) for b in rhs]
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
        leave = _leaving_row(M[:m, n].tolist(), M[:m, enter].tolist(), basis)
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        M, d, bound = _pivot(M, leave, enter, d, bound)
        basis[leave] = enter

    denominator = d * scale
    if Fraction(-int(M[m, n]), denominator) > slack:
        return None
    values = M[:m, n].tolist()
    return {
        int(columns[var]): Fraction(int(values[i]), denominator)
        for var, i in sorted((var, i) for i, var in enumerate(basis) if var < n)
        if values[i] > 0
    }


def _incidence(rows, columns):
    """Bool matrix, rows by columns, of the ids each row lists.

    An id that is not a column names no variable and is left out.  Dense
    ids (non-negative int64, the largest below the column and id counts
    together, as on every full support) find their column through a lookup
    table; others by binary search in the sorted columns.  On full supports
    the table is 1.3-2.2x faster; on working sets the two paths tie.
    """
    ids = [state_array(r) for r in rows]
    row = np.repeat(np.arange(len(ids)), [a.size for a in ids])
    ids = np.concatenate(ids) if ids else state_array([])
    n = columns.size
    if n == 0 or ids.size == 0:
        pos = np.full(ids.size, n)
    elif (columns.dtype != object and ids.dtype != object
          and min(columns.min(), ids.min()) >= 0
          and max(columns.max(), ids.max()) < n + ids.size):
        table = np.full(int(max(columns.max(), ids.max())) + 1, n)
        table[columns] = np.arange(n)
        pos = table[ids]
    else:
        order = np.argsort(columns, kind="stable")
        pos = order[np.minimum(np.searchsorted(columns[order], ids), n - 1)]
        pos[columns[pos] != ids] = n
    # column n collects the ids that are not columns
    A = np.zeros((len(rows), n + 1), dtype=bool)
    A[row, pos] = True
    return A[:, :n]


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


def _pivot(M, row, col, d, bound):
    """Fraction-free pivot at (row, col); returns the tableau, the new
    denominator and a bound of the new tableau's largest magnitude.

    Every other row becomes (p*M[i] - M[i, col]*M[row]) / d with p > 0 the
    pivot, an exact division; the pivot row is kept as it is and p becomes
    the denominator.  `bound` is at least the largest magnitude in M.  An
    int64 tableau widens to Python ints first when the intermediate values
    could reach INT64_LIMIT: p * max|M| + max|M[:, col]| * max|M[row]|
    bounds them, and max|M| is taken exactly only when `bound` in its place
    would widen.  Divided by d, the same sum bounds the new rows; the bound
    of an object tableau is not kept.
    """
    p = M[row, col]
    if M.dtype != object:
        row_max = int(np.abs(M[row]).max())
        products = int(np.abs(M[:, col]).max()) * row_max
        growth = int(p) * bound + products
        if growth >= INT64_LIMIT:
            bound = int(np.abs(M).max())
            growth = int(p) * bound + products
        if growth >= INT64_LIMIT:
            M = M.astype(object)
            p = M[row, col]
        bound = max(row_max, growth // d)
    pivot_row = M[row].copy()
    factors = M[:, col].copy()
    if p != 1:
        M *= p
    M -= np.multiply.outer(factors, pivot_row)
    if d != 1:
        M //= d
    M[row] = pivot_row
    return M, int(p), bound
