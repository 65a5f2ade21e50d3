"""Exact rational linear algebra: Gauss-Jordan elimination with solution,
kernel basis, row combinations and infeasibility certificates, and the row
pivot that the simplex shares.  No floating point."""

from __future__ import annotations

from fractions import Fraction


def _pivot(tab, row, col):
    """Scale `row` so its `col` entry is 1, then clear column `col` from the
    other rows, skipping rows that are already zero there."""
    piv = tab[row][col]
    tab[row] = [x / piv for x in tab[row]]
    for i, r in enumerate(tab):
        if i != row and r[col] != 0:
            f = r[col]
            tab[i] = [x - f * y for x, y in zip(r, tab[row])]


def eliminate(rows, rhs, n_cols=0):
    """Solve A x = b over the rationals and keep the elimination record.

    n_cols is the width of an A without rows.  Returns ('solution',
    particular, kernel_basis, pivot_cols, tab), where tab holds one reduced
    row [A | b | T] per equation and T expresses it as a combination of the
    original equations: row i < len(pivot_cols) has a 1 in column
    pivot_cols[i] and 0 in every other pivot column, and the later rows are
    zero on A, so their T parts span {y : y . A = 0}.  Or ('infeasible',
    combo) as solve_exact.
    """
    m = len(rows)
    n = len(rows[0]) if m else n_cols
    tab = [[Fraction(x) for x in row] + [Fraction(b)]
           + [Fraction(int(i == j)) for j in range(m)]
           for i, (row, b) in enumerate(zip(rows, rhs))]

    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if tab[i][c] != 0), None)
        if pr is None:
            continue
        tab[r], tab[pr] = tab[pr], tab[r]
        _pivot(tab, r, c)
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if tab[i][n] != 0:
            return "infeasible", tab[i][n + 1:]

    particular = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = tab[i][n]
    free_cols = [c for c in range(n) if c not in set(pivot_cols)]
    kernel = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -tab[i][fc]
        kernel.append(vec)
    return "solution", particular, kernel, pivot_cols, tab


def solve_exact(rows, rhs):
    """Solve A x = b over the rationals.

    rows: list of coefficient lists, rhs: list of right-hand sides.
    Returns ('solution', particular, kernel_basis) where kernel_basis spans
    {x : A x = 0}, or ('infeasible', combo) where combo is a per-equation
    coefficient vector with combo . A = 0 and combo . b != 0.
    """
    return eliminate(rows, rhs)[:3]
