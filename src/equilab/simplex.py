"""Exact rational linear programming: two-phase simplex with Bland's rule.

Problems are given as equality constraints over variables that are either
nonnegative or free (free variables are split internally).  All arithmetic is
in fractions; returned optimizers are verified against the constraints before
being handed back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactla import _pivot

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LPResult:
    status: str
    value: Fraction | None = None
    solution: tuple[Fraction, ...] | None = None


def _simplex_core(tab, basis, cost):
    """Minimize cost over the tableau; Bland's rule guarantees termination.
    Returns ('optimal', reduced_cost_row) or ('unbounded', entering_col)."""
    m = len(tab)
    n = len(cost)
    while True:
        # reduced costs: c - c_B . tab, skipping the tableau's zero entries
        red = list(cost)
        for i, bi in enumerate(basis):
            cb = cost[bi]
            if cb != 0:
                red = [x - cb * y if y else x for x, y in zip(red, tab[i])]
        # Bland: entering = smallest index with negative reduced cost
        col = next((j for j in range(n) if red[j] < 0), None)
        if col is None:
            return OPTIMAL, red
        row = None
        best = None
        for i in range(m):
            if tab[i][col] > 0:
                ratio = tab[i][n] / tab[i][col]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[row]):
                    best, row = ratio, i
        if row is None:
            return UNBOUNDED, col
        _pivot(tab, row, col)
        basis[row] = col


def lp_optimize(n_vars, equalities, objective, direction="min", free=()):
    """Optimize objective . x subject to the given equalities, x >= 0 except
    for indices listed in `free`.

    equalities: iterable of (coefficients, rhs).  Returns an LPResult; on
    'optimal' the solution is exact and satisfies every constraint.
    """
    free = set(free)
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    sign = Fraction(1) if direction == "min" else Fraction(-1)

    # split free variables: x_j = x_j' - x_j''
    cols = []  # (orig index, sign)
    for j in range(n_vars):
        cols.append((j, 1))
    for j in sorted(free):
        cols.append((j, -1))
    nt = len(cols)

    rows = []
    rhs = []
    for coeffs, b in equalities:
        coeffs = [Fraction(x) for x in coeffs]
        b = Fraction(b)
        row = [coeffs[j] * s for j, s in cols]
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    mc = len(rows)

    obj = [Fraction(x) for x in objective]
    cost2 = [sign * obj[j] * s for j, s in cols]

    # phase 1: artificials
    tab = [rows[i] + [Fraction(int(k == i)) for k in range(mc)] + [rhs[i]] for i in range(mc)]
    basis = [nt + i for i in range(mc)]
    cost1 = [Fraction(0)] * nt + [Fraction(1)] * mc
    status, _ = _simplex_core(tab, basis, cost1)
    assert status == OPTIMAL  # phase-1 objective bounded below by 0
    val1 = sum((cost1[basis[i]] * tab[i][-1] for i in range(mc)), Fraction(0))
    if val1 > 0:
        return LPResult(status=INFEASIBLE)
    # drive artificials out of the basis
    for i in range(mc):
        if basis[i] >= nt:
            col = next((j for j in range(nt) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, i, col)
                basis[i] = col
    # drop redundant rows still pinned to artificials, then artificial columns
    keep = [i for i in range(mc) if basis[i] < nt]
    tab = [tab[i][:nt] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    status, _ = _simplex_core(tab, basis, cost2)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    xt = [Fraction(0)] * nt
    for i, bi in enumerate(basis):
        xt[bi] = tab[i][-1]
    x = [Fraction(0)] * n_vars
    for (j, s), v in zip(cols, xt):
        x[j] += s * v
    value = sum((obj[j] * x[j] for j in range(n_vars)), Fraction(0))
    _verify(n_vars, equalities, free, x)
    return LPResult(status=OPTIMAL, value=value, solution=tuple(x))


def _verify(n_vars, equalities, free, x) -> None:
    for j in range(n_vars):
        if j not in free and x[j] < 0:
            raise AssertionError("optimizer violates nonnegativity")
    for coeffs, b in equalities:
        total = sum((Fraction(c) * x[j] for j, c in enumerate(coeffs)), Fraction(0))
        if total != Fraction(b):
            raise AssertionError("optimizer violates an equality constraint")
