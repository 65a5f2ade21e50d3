"""Exact rational linear programming: two-phase simplex with Bland's rule.

Problems are given as equality constraints over nonnegative variables; a
caller that needs a free variable t writes it as t+ - t- with two columns.
All arithmetic is in fractions; returned optimizers are verified against the
constraints before being handed back.
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


def lp_optimize(n_vars, equalities, objective, direction="min"):
    """Optimize objective . x subject to the given equalities and x >= 0.

    equalities: iterable of (coefficients, rhs).  Returns an LPResult; on
    'optimal' the solution is exact and satisfies every constraint.
    """
    if direction not in ("min", "max"):
        raise ValueError("direction must be 'min' or 'max'")
    sign = Fraction(1) if direction == "min" else Fraction(-1)

    rows = []
    rhs = []
    for coeffs, b in equalities:
        row = [Fraction(coeffs[j]) for j in range(n_vars)]
        b = Fraction(b)
        if b < 0:
            row = [-x for x in row]
            b = -b
        rows.append(row)
        rhs.append(b)
    mc = len(rows)

    obj = [Fraction(objective[j]) for j in range(n_vars)]
    cost2 = [sign * c for c in obj]

    # phase 1: artificials
    tab = [rows[i] + [Fraction(int(k == i)) for k in range(mc)] + [rhs[i]] for i in range(mc)]
    basis = [n_vars + i for i in range(mc)]
    cost1 = [Fraction(0)] * n_vars + [Fraction(1)] * mc
    status, _ = _simplex_core(tab, basis, cost1)
    assert status == OPTIMAL  # phase-1 objective bounded below by 0
    val1 = sum((cost1[basis[i]] * tab[i][-1] for i in range(mc)), Fraction(0))
    if val1 > 0:
        return LPResult(status=INFEASIBLE)
    # drive artificials out of the basis
    for i in range(mc):
        if basis[i] >= n_vars:
            col = next((j for j in range(n_vars) if tab[i][j] != 0), None)
            if col is not None:
                _pivot(tab, i, col)
                basis[i] = col
    # drop redundant rows still pinned to artificials, then artificial columns
    keep = [i for i in range(mc) if basis[i] < n_vars]
    tab = [tab[i][:n_vars] + [tab[i][-1]] for i in keep]
    basis = [basis[i] for i in keep]

    status, _ = _simplex_core(tab, basis, cost2)
    if status == UNBOUNDED:
        return LPResult(status=UNBOUNDED)
    x = [Fraction(0)] * n_vars
    for i, bi in enumerate(basis):
        x[bi] = tab[i][-1]
    value = sum((obj[j] * x[j] for j in range(n_vars)), Fraction(0))
    _verify(equalities, x)
    return LPResult(status=OPTIMAL, value=value, solution=tuple(x))


def _verify(equalities, x) -> None:
    if any(v < 0 for v in x):
        raise AssertionError("optimizer violates nonnegativity")
    for coeffs, b in equalities:
        total = sum((Fraction(c) * x[j] for j, c in enumerate(coeffs)), Fraction(0))
        if total != Fraction(b):
            raise AssertionError("optimizer violates an equality constraint")
