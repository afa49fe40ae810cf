"""Reference phase-1 simplex on a dense ``Fraction`` tableau.

The differential oracle for ``gaugesim.simplex``: the same presolve, the
same Bland rule (lowest-index entering variable, lowest basis index leaving
on ratio ties) and the same column order, with every entry an exact
``Fraction``.  ``solve_nonnegative`` here must return the very dict (or
None) that the fraction-free integer tableau returns.
"""

from __future__ import annotations

from fractions import Fraction


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

    # Dense tableau: n structural columns, m artificial columns, rhs.
    tableau = []
    for row, b in zip(rows, rhs):
        line = [Fraction(0)] * (n + m + 1)
        for c in row:
            line[col_pos[c]] = Fraction(1)
        line[-1] = Fraction(b)
        tableau.append(line)
    for i in range(m):
        tableau[i][n + i] = Fraction(1)
    basis = [n + i for i in range(m)]

    # Phase-1 objective: minimize the sum of artificials.  cost[j] is the
    # reduced cost c_j - z_j; artificials start with cost 0 in the basis.
    cost = [Fraction(0)] * (n + m + 1)
    for j in range(n + m + 1):
        s = Fraction(0)
        for i in range(m):
            s += tableau[i][j]
        cost[j] = (Fraction(1) if n <= j < n + m else Fraction(0)) - s

    while True:
        enter = -1
        for j in range(n):  # artificials never re-enter
            if cost[j] < 0:
                enter = j
                break
        if enter < 0:
            break
        leave = -1
        best = None
        for i in range(m):
            a = tableau[i][enter]
            if a > 0:
                ratio = tableau[i][-1] / a
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best = ratio
                    leave = i
        if leave < 0:
            raise ArithmeticError("phase-1 objective unbounded; inconsistent tableau")
        _pivot(tableau, cost, basis, leave, enter)

    objective = -cost[-1]
    if objective > slack:
        return None

    solution = {c: Fraction(0) for c in all_columns}
    for i, var in enumerate(basis):
        if var < n:
            solution[columns[var]] = tableau[i][-1]
    return solution


def _pivot(tableau, cost, basis, row, col):
    m = len(tableau)
    pivot_row = tableau[row]
    inv = Fraction(1) / pivot_row[col]
    if inv != 1:
        tableau[row] = pivot_row = [v * inv for v in pivot_row]
    width = len(pivot_row)
    for i in range(m):
        if i == row:
            continue
        factor = tableau[i][col]
        if factor != 0:
            line = tableau[i]
            for j in range(width):
                if pivot_row[j]:
                    line[j] -= factor * pivot_row[j]
    factor = cost[col]
    if factor != 0:
        for j in range(width):
            if pivot_row[j]:
                cost[j] -= factor * pivot_row[j]
    basis[row] = col
