from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from stablepairs import (
    InputError,
    LatticeContext,
    ModeError,
    pair,
    standard_simplex,
)

SL2 = LatticeContext.sl(2)
SL3 = LatticeContext.sl(3)


def test_pair_examples():
    assert pair((1, -1), (1, 0)) == 1
    # diagonal shift (5,5) is killed by a trace-zero direction
    assert pair((1, -1), (6, 5)) == 1
    assert pair((0, 0, 0), (2, -1, 4)) == 0


def test_pair_dimension_mismatch():
    with pytest.raises(InputError):
        pair((1, 0), (1, 0, 0))


def test_project_sl_examples():
    assert SL2.project_sl((1, 0)) == (Fraction(1, 2), Fraction(-1, 2))
    assert SL2.project_sl((2, 0)) == (Fraction(1), Fraction(-1))
    assert SL2.project_sl((3, 3)) == (Fraction(0), Fraction(0))


def test_project_sl_mode_error():
    with pytest.raises(ModeError):
        LatticeContext.free(2).project_sl((1, 0))


def test_standard_simplex_examples():
    simplex = standard_simplex(SL2, 1)
    assert set(simplex.vertices) == {
        (Fraction(1), Fraction(0)),
        (Fraction(0), Fraction(1)),
    }
    # barycenter projects to the origin
    assert SL2.project_sl((Fraction(1, 2), Fraction(1, 2))) == (Fraction(0), Fraction(0))
    doubled = standard_simplex(SL3, 2)
    assert set(doubled.vertices) == {
        (Fraction(2), Fraction(0), Fraction(0)),
        (Fraction(0), Fraction(2), Fraction(0)),
        (Fraction(0), Fraction(0), Fraction(2)),
    }


def test_standard_simplex_errors():
    with pytest.raises(ModeError):
        standard_simplex(LatticeContext.free(2), 1)
    with pytest.raises(InputError):
        standard_simplex(SL2, 0)


def test_context_validation():
    with pytest.raises(InputError):
        LatticeContext.free(0)
    with pytest.raises(InputError):
        LatticeContext("weird", 2)
    with pytest.raises(ModeError):
        SL2.rank
    with pytest.raises(ModeError):
        LatticeContext.free(2).matrix_size
    assert SL3.matrix_size == 3
    assert LatticeContext.free(4).rank == 4


def test_one_param_validation():
    with pytest.raises(InputError):
        SL2.check_one_param((1, 1))  # trace nonzero
    with pytest.raises(InputError):
        SL2.check_one_param((0, 0))  # zero direction
    assert SL2.check_one_param((3, -3)) == (3, -3)


coords = st.integers(min_value=-50, max_value=50)


@given(st.lists(coords, min_size=1, max_size=4).flatmap(
    lambda l: st.tuples(*(st.just(c) for c in l))),
    st.data())
def test_pair_bilinearity(lam, data):
    d = len(lam)
    vec = st.tuples(*([coords] * d))
    a = data.draw(vec)
    b = data.draw(vec)
    mu = data.draw(vec)
    assert pair(lam, tuple(x + y for x, y in zip(a, b))) == pair(lam, a) + pair(lam, b)
    assert pair(tuple(x + y for x, y in zip(lam, mu)), a) == pair(lam, a) + pair(mu, a)


@given(st.integers(min_value=-20, max_value=20),
       st.tuples(coords, coords, coords),
       st.tuples(coords, coords))
def test_diagonal_invariance(c, a, prefix):
    lam = (*prefix, -sum(prefix))  # arbitrary trace-zero direction
    shifted = tuple(x + c for x in a)
    assert pair(lam, shifted) == pair(lam, a)


@given(st.tuples(coords, coords, coords))
def test_project_sl_idempotent_and_kernel(a):
    proj = SL3.project_sl(a)
    assert sum(proj) == 0
    assert SL3.project_sl(proj) == proj
    # annihilates exactly the diagonal line
    if proj == (0, 0, 0):
        assert a[0] == a[1] == a[2]
    else:
        assert not (a[0] == a[1] == a[2])
