"""Exact rational linear algebra: Gauss-Jordan elimination with solution,
kernel basis, and infeasibility certificates.  No floating point."""

from __future__ import annotations

from fractions import Fraction


def solve_exact(rows, rhs):
    """Solve A x = b over the rationals.

    rows: list of coefficient lists, rhs: list of right-hand sides.
    Returns ('solution', particular, kernel_basis) where kernel_basis spans
    {x : A x = 0}, or ('infeasible', combo) where combo is a per-equation
    coefficient vector with combo . A = 0 and combo . b != 0.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(x) for x in row] for row in rows]
    b = [Fraction(x) for x in rhs]
    # tracking matrix: current rows as combinations of original equations
    t = [[Fraction(int(i == j)) for j in range(m)] for i in range(m)]

    pivot_cols: list[int] = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if a[i][c] != 0), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        b[r], b[pr] = b[pr], b[r]
        t[r], t[pr] = t[pr], t[r]
        inv = 1 / a[r][c]
        a[r] = [x * inv for x in a[r]]
        b[r] *= inv
        t[r] = [x * inv for x in t[r]]
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
                b[i] -= f * b[r]
                t[i] = [x - f * y for x, y in zip(t[i], t[r])]
        pivot_cols.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if b[i] != 0:
            return "infeasible", list(t[i])

    particular = [Fraction(0)] * n
    for i, c in enumerate(pivot_cols):
        particular[c] = b[i]
    free_cols = [c for c in range(n) if c not in set(pivot_cols)]
    kernel = []
    for fc in free_cols:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivot_cols):
            vec[c] = -a[i][fc]
        kernel.append(vec)
    return "solution", particular, kernel


def nullspace(rows, n_cols=None):
    """Basis of {x : A x = 0}."""
    if not rows:
        if n_cols is None:
            return []
        basis = []
        for j in range(n_cols):
            vec = [Fraction(0)] * n_cols
            vec[j] = Fraction(1)
            basis.append(vec)
        return basis
    res = solve_exact(rows, [Fraction(0)] * len(rows))
    assert res[0] == "solution"
    return res[2]

