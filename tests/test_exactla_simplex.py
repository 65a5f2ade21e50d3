from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from equilab.exactla import solve_exact
from equilab.simplex import INFEASIBLE, OPTIMAL, UNBOUNDED, lp_optimize

from conftest import dot

rationals = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def linear_systems(draw):
    m = draw(st.integers(min_value=1, max_value=5))
    n = draw(st.integers(min_value=1, max_value=5))
    rows = [draw(st.lists(rationals, min_size=n, max_size=n)) for _ in range(m)]
    rhs = draw(st.lists(rationals, min_size=m, max_size=m))
    return rows, rhs


class TestSolveExact:
    def test_unique_solution(self):
        res = solve_exact([[2, 0], [0, 3]], [4, 9])
        assert res[0] == "solution"
        assert res[1] == [Fraction(2), Fraction(3)]
        assert res[2] == []

    def test_infeasible_certificate(self):
        rows = [[1, 1], [2, 2]]
        rhs = [1, 3]
        tag, combo = solve_exact(rows, rhs)
        assert tag == "infeasible"
        # combo . A = 0 and combo . b != 0
        for j in range(2):
            assert sum(combo[i] * rows[i][j] for i in range(2)) == 0
        assert sum(combo[i] * rhs[i] for i in range(2)) != 0

    def test_frozen_outputs(self):
        # column 0 needs a row swap; rows 2 and 3 are redundant (r0 + 2 r1 and
        # r1 - r0), so the combination depends on the pivot order and row layout
        rows = [[0, 2, 1, 1], [1, 1, 0, 2], [2, 4, 1, 5], [1, -1, -1, 1]]
        F = Fraction
        assert solve_exact(rows, [1, 2, 5, 1]) == (
            "solution", [F(3, 2), F(1, 2), F(0), F(0)],
            [[F(1, 2), F(-1, 2), F(1), F(0)], [F(-3, 2), F(-1, 2), F(0), F(1)]])
        assert solve_exact(rows, [1, 2, 6, 2]) == ("infeasible", [F(-1), F(-2), F(1), F(0)])

    @given(linear_systems())
    @settings(max_examples=80, deadline=None)
    def test_outputs_verify(self, sys_):
        rows, rhs = sys_
        res = solve_exact(rows, rhs)
        if res[0] == "solution":
            _, x, kernel = res
            for row, b in zip(rows, rhs):
                assert dot(row, x) == b
            for k in kernel:
                for row in rows:
                    assert dot(row, k) == 0
        else:
            combo = res[1]
            n = len(rows[0])
            assert all(
                sum(combo[i] * rows[i][j] for i in range(len(rows))) == 0
                for j in range(n)
            )
            assert sum(combo[i] * rhs[i] for i in range(len(rows))) != 0

    @given(linear_systems())
    @settings(max_examples=40, deadline=None)
    def test_kernel_dimension_matches_sympy(self, sys_):
        sympy = pytest.importorskip("sympy")
        rows, _ = sys_
        ker = solve_exact(rows, [0] * len(rows))[2]
        M = sympy.Matrix([[sympy.Rational(x) for x in row] for row in rows])
        assert len(ker) == len(M.nullspace())


class TestSimplex:
    def test_min_with_slack(self):
        # min x subject to x - s = 3, s >= 0  (i.e. x >= 3)
        res = lp_optimize(2, [([1, -1], 3)], [1, 0])
        assert res.status == OPTIMAL and res.value == 3

    def test_unbounded(self):
        res = lp_optimize(1, [], [1], direction="max")
        assert res.status == UNBOUNDED

    def test_symmetric_split(self):
        # max t s.t. a + b = 1, a >= t, b >= t  ->  1/2
        # encode a = t + p, b = t + q with p, q >= 0 and t = t+ - t-
        res = lp_optimize(
            4, [([1, 1, 2, -2], 1)], [0, 0, 1, -1], direction="max"
        )
        assert res.status == OPTIMAL and res.value == Fraction(1, 2)

    def test_infeasible(self):
        res = lp_optimize(1, [([1], -2)], [1])
        assert res.status == INFEASIBLE

    def test_free_variable_goes_negative(self):
        # min t with t = t+ - t- unconstrained
        res = lp_optimize(2, [], [1, -1], direction="min")
        assert res.status == UNBOUNDED

    def test_degenerate_redundant_rows(self):
        res = lp_optimize(2, [([1, 1], 1), ([2, 2], 2)], [1, 2])
        assert res.status == OPTIMAL and res.value == 1

    @given(st.integers(min_value=1, max_value=4),
           st.lists(st.lists(st.integers(min_value=-3, max_value=3),
                             min_size=1, max_size=4),
                    min_size=1, max_size=3),
           st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_against_scipy(self, n, raw_rows, raw_obj):
        scipy_opt = pytest.importorskip("scipy.optimize")
        rows = [(r[:n] + [0] * (n - len(r)), 1) for r in raw_rows]
        obj = (raw_obj[:n] + [0] * (n - len(raw_obj)))
        ours = lp_optimize(n, rows, obj)
        res = scipy_opt.linprog(
            c=obj,
            A_eq=[coeffs for coeffs, _ in rows],
            b_eq=[b for _, b in rows],
            bounds=[(0, None)] * n,
            method="highs",
        )
        if ours.status == OPTIMAL:
            assert res.status == 0
            assert abs(float(ours.value) - res.fun) < 1e-7
        elif ours.status == INFEASIBLE:
            assert res.status == 2
        else:
            assert res.status == 3
