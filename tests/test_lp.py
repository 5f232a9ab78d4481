import random
from fractions import Fraction

import pytest

from stablepairs import InputError
from stablepairs import lp


def test_single_variable_maximum():
    prog = lp.linear_program(1, [([1], lp.LEQ, 3), ([1], lp.GEQ, 0)], [1])
    result = lp.solve(prog)
    assert result.status == lp.OPTIMAL
    assert result.value == 3
    assert result.point == (Fraction(3),)


def test_contradiction_is_infeasible():
    prog = lp.linear_program(1, [([1], lp.GEQ, 1), ([1], lp.LEQ, 0)])
    assert lp.solve(prog).status == lp.INFEASIBLE


def test_edge_optimum_deterministic():
    cons = [([1, 1], lp.LEQ, 1), ([1, 0], lp.GEQ, 0), ([0, 1], lp.GEQ, 0)]
    prog = lp.linear_program(2, cons, [1, 1])
    result = lp.solve(prog)
    assert result.status == lp.OPTIMAL
    assert result.value == 1
    # any point of the optimal edge is acceptable; the pivot rule is
    # deterministic and lands on (1, 0)
    assert result.point == (Fraction(1), Fraction(0))
    again = lp.solve(prog)
    assert again == result


def test_unbounded_with_certificate_ray():
    prog = lp.linear_program(2, [([1, 0], lp.GEQ, 0)], [1, 0])
    result = lp.solve(prog)
    assert result.status == lp.UNBOUNDED
    ray = result.ray
    # feasible direction with positive objective gain
    assert ray[0] > 0
    assert ray[0] * 1 + ray[1] * 0 >= 0


def test_equality_system():
    prog = lp.linear_program(2, [([1, 1], lp.EQ, 1), ([1, -1], lp.EQ, 1)], [0, 1])
    result = lp.solve(prog)
    assert result.status == lp.OPTIMAL
    assert result.point == (Fraction(1), Fraction(0))
    assert result.value == 0


def test_negative_rhs_rows():
    prog = lp.linear_program(1, [([1], lp.GEQ, -5)], [-1])
    result = lp.solve(prog)
    assert result.value == 5
    assert result.point == (Fraction(-5),)


def test_malformed_rows_rejected():
    with pytest.raises(InputError):
        lp.linear_program(2, [([1], lp.LEQ, 1)], [1, 0])
    with pytest.raises(InputError):
        lp.linear_program(2, [([1, 0], "<", 1)], [1, 0])
    with pytest.raises(InputError):
        lp.linear_program(0, [], [])


def _random_bounded_program(rng):
    """max c.x  s.t.  A x <= b, 0 <= x <= u, with b >= 0 so x = 0 is feasible."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(0, 6)) for _ in range(m)]
    u = [Fraction(rng.randint(1, 5)) for _ in range(n)]
    c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    return n, m, A, b, u, c


def _primal(n, m, A, b, u, c):
    cons = [(A[i], lp.LEQ, b[i]) for i in range(m)]
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        cons.append((list(row), lp.LEQ, u[j]))
        cons.append((row, lp.GEQ, 0))
    return lp.linear_program(n, cons, c)


def test_resubstitution_of_optimal_points():
    rng = random.Random(7)
    for _ in range(60):
        n, m, A, b, u, c = _random_bounded_program(rng)
        prog = _primal(n, m, A, b, u, c)
        result = lp.solve(prog)
        assert result.status == lp.OPTIMAL
        x = result.point
        for row, rel, rhs in [(con.coeffs, con.relation, con.rhs)
                              for con in prog.constraints]:
            lhs = sum(r * xi for r, xi in zip(row, x))
            if rel == lp.LEQ:
                assert lhs <= rhs
            elif rel == lp.GEQ:
                assert lhs >= rhs
            else:
                assert lhs == rhs
        assert sum(ci * xi for ci, xi in zip(c, x)) == result.value


def test_duality_spot_check():
    # max{c.x : A'x <= b', x >= 0} vs min{b'.y : A''y >= c, y >= 0}, where
    # A' stacks A with the identity rows for the upper bounds u.
    rng = random.Random(11)
    for _ in range(40):
        n, m, A, b, u, c = _random_bounded_program(rng)
        primal = lp.solve(_primal(n, m, A, b, u, c))
        assert primal.status == lp.OPTIMAL
        rows = A + [[Fraction(1) if k == j else Fraction(0) for k in range(n)]
                    for j in range(n)]
        rhs = b + u
        nd = m + n
        cons = []
        for j in range(n):
            cons.append(([rows[i][j] for i in range(nd)], lp.GEQ, c[j]))
        for i in range(nd):
            row = [Fraction(0)] * nd
            row[i] = Fraction(1)
            cons.append((row, lp.GEQ, 0))
        dual = lp.solve(lp.linear_program(nd, cons, [-v for v in rhs]))
        assert dual.status == lp.OPTIMAL
        assert -dual.value == primal.value


def test_determinism_bit_for_bit():
    rng = random.Random(3)
    for _ in range(20):
        n, m, A, b, u, c = _random_bounded_program(rng)
        prog = _primal(n, m, A, b, u, c)
        assert lp.solve(prog) == lp.solve(prog)


def test_solve_min_l1_prefers_sparse_optimum():
    # the optimal face is the segment {x1 = -1, x2 free, x3 = 0}; the l1
    # stage must land on the x2 = 0 point no matter what the plain pivot does
    cons = [([0, 0, 1], lp.LEQ, 0),
            ([1, 0, 0], lp.LEQ, 1), ([1, 0, 0], lp.GEQ, -1),
            ([0, 1, 0], lp.LEQ, 1), ([0, 1, 0], lp.GEQ, -1)]
    prog = lp.linear_program(3, cons, [-1, 0, 1])
    plain = lp.solve(prog)
    refined = lp.solve_min_l1(prog, range(2))
    assert plain.value == refined.value == 1
    assert refined.point[:2] == (Fraction(-1), Fraction(0))
    assert sum(abs(c) for c in refined.point[:2]) <= \
        sum(abs(c) for c in plain.point[:2])

    # a zero optimum is not refined: the whole box in (x1, x2) is optimal
    # and the plain pivot lands on the corner (-1, -1), which comes back as is
    zero = lp.linear_program(3, cons, [0, 0, 1])
    plain = lp.solve(zero)
    assert plain.value == 0 and plain.point[:2] == (Fraction(-1), Fraction(-1))
    assert lp.solve_min_l1(zero, range(2)) == plain


def test_rationalize_direction_examples():
    assert lp.rationalize_direction([Fraction(1, 2), Fraction(-1, 2)]) == (1, -1)
    assert lp.rationalize_direction([Fraction(2, 3), Fraction(4, 3), Fraction(-2)]) == (1, 2, -3)
    assert lp.rationalize_direction([5, 0]) == (1, 0)
    with pytest.raises(InputError):
        lp.rationalize_direction([0, 0])
