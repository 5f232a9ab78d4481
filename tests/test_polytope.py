import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablepairs import (
    InputError,
    LatticeContext,
    ModeError,
    RationalPolytope,
    contains_point,
    first_outside_vertex,
    hull_vertices,
    includes,
    minkowski_combine,
    simplex_contains,
    standard_simplex,
    support_value,
)
from stablepairs import lp
from stablepairs.polytope import _in_hull

SL2 = LatticeContext.sl(2)
SL3 = LatticeContext.sl(3)


def F(*xs):
    return tuple(Fraction(x) for x in xs)


def test_hull_midpoint_eliminated():
    got = hull_vertices([(0, 0), (1, 0), (Fraction(1, 2), 0)])
    assert got == (F(0, 0), F(1, 0))


def test_hull_interior_point_eliminated():
    # (0,0) is the barycenter of the triangle: (1/3)*[(1,0)+(0,1)+(-1,-1)]
    verts = ((1, 0), (0, 1), (-1, -1))
    mean = tuple(Fraction(sum(c), 3) for c in zip(*verts))
    assert mean == F(0, 0)
    got = hull_vertices([(1, 0), (0, 1), (-1, -1), (0, 0)])
    assert set(got) == {F(1, 0), F(0, 1), F(-1, -1)}


def test_hull_singleton():
    assert hull_vertices([(5, 5)]) == (F(5, 5),)


def test_hull_errors():
    with pytest.raises(InputError):
        hull_vertices([])
    with pytest.raises(InputError):
        hull_vertices([(1, 0), (1,)])


def test_support_value_examples():
    seg = RationalPolytope([(1, 0), (0, 1)])
    assert support_value(seg, (1, 1)) == 1
    diamond = RationalPolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    # max over the four vertices of <(2,3), .>
    assert max(2 * x + 3 * y for x, y in [(1, 0), (-1, 0), (0, 1), (0, -1)]) == 3
    assert support_value(diamond, (2, 3)) == 3
    origin = RationalPolytope([(0, 0)])
    assert support_value(origin, (17, -5)) == 0


def test_minkowski_identity_case():
    P = RationalPolytope([(1, 0), (0, 1), (-1, -1)])
    same = minkowski_combine(P, RationalPolytope([(0, 0)]), 1, 0)
    assert same.vertices == P.vertices


def test_minkowski_halving():
    P = RationalPolytope([(0, 0)])
    Q = RationalPolytope([(1, 0), (0, 1), (-1, -1)])
    got = minkowski_combine(P, Q, Fraction(1, 2), Fraction(1, 2))
    assert set(got.vertices) == {
        F(Fraction(1, 2), 0), F(0, Fraction(1, 2)),
        F(Fraction(-1, 2), Fraction(-1, 2)),
    }


def test_minkowski_segment_self_average():
    seg = RationalPolytope([(-1, 0), (1, 0)])
    got = minkowski_combine(seg, seg, Fraction(1, 2), Fraction(1, 2))
    assert got.vertices == seg.vertices


def test_minkowski_rejects_negative_coefficients():
    P = RationalPolytope([(0, 0)])
    with pytest.raises(InputError):
        minkowski_combine(P, P, -1, 0)


def test_contains_point_examples():
    tri = RationalPolytope([(1, 0), (0, 1), (-1, -1)])
    assert contains_point(tri, (0, 0))
    seg = RationalPolytope([(1, 0), (0, 1)])
    assert not contains_point(seg, (1, 1))
    single = RationalPolytope([(2, 2)])
    assert contains_point(single, (2, 2))
    assert not contains_point(single, (2, 3))


def test_vertices_need_no_membership_lp(monkeypatch):
    pentagon = RationalPolytope([(2, 0), (0, 2), (-2, 1), (-1, -2), (1, -2), (0, 0)])
    solves = []
    solve = lp.solve

    def counting(prog):
        solves.append(prog)
        return solve(prog)

    monkeypatch.setattr(lp, "solve", counting)
    assert includes(pentagon, pentagon)
    assert solves == []
    assert contains_point(pentagon, (0, 0))
    assert len(solves) == 1


def test_equal_vertices_are_shared():
    P = RationalPolytope([(0, 0), (2, 0), (0, 2), (1, 1)])
    Q = RationalPolytope([(2, 0), (5, 5), (Fraction(0), 0)])
    assert P.vertices[0] is Q.vertices[0]
    assert P.vertices[-1] is Q.vertices[1]
    half = Q.scaled(Fraction(1, 2))
    assert half.vertices[1] is RationalPolytope([(1, 0)]).vertices[0]
    # whole vertex tuples too, however the hull was reached
    assert RationalPolytope([(1, 1), (0, 2), (2, 0), (0, 0)]).vertices is P.vertices
    assert RationalPolytope([(0, 0), (1, 0)]).scaled(2).vertices is \
        RationalPolytope([(2, 0), (1, 0), (0, 0)]).vertices
    # int input must not leak into the shared vectors: (0, 0) == (F(0), F(0))
    R = RationalPolytope([(0, 0)])
    assert all(type(c) is Fraction for p in (P, Q, half, R) for v in p.vertices for c in v)


def test_includes_examples():
    big = RationalPolytope([(2, 0), (0, 2), (-2, -2)])
    small = RationalPolytope([(1, 0), (0, 1), (-1, -1)])
    assert includes(big, small)
    assert not includes(small, big)

    seg = RationalPolytope([(1, 0), (0, 1)])
    outlier = RationalPolytope([(2, 0)])
    assert not includes(seg, outlier)
    assert first_outside_vertex(seg, outlier) == F(2, 0)

    diamond = RationalPolytope([(1, 0), (-1, 0), (0, 1), (0, -1)])
    boundary_seg = RationalPolytope(
        [(Fraction(1, 2), Fraction(1, 2)), (Fraction(-1, 2), Fraction(-1, 2))]
    )
    assert includes(diamond, boundary_seg)


def test_simplex_contains_examples():
    assert simplex_contains((2, 0), 2, SL2)
    assert not simplex_contains((2, 0), 1, SL2)
    assert simplex_contains((1, 1), 2, SL2)
    with pytest.raises(ModeError):
        simplex_contains((1, 0), 1, LatticeContext.free(2))
    with pytest.raises(InputError):
        simplex_contains((1, 0), 0, SL2)


def test_simplex_contains_agrees_with_lp_membership():
    # closed form against the projected-polytope LP path
    rng = random.Random(5)
    for ctx in (SL2, SL3):
        scaled = {k: RationalPolytope(
            [ctx.project_sl(v) for v in standard_simplex(ctx, k).vertices])
            for k in (1, 2, 3, 4)}
        for _ in range(120):
            a = tuple(rng.randint(-3, 3) for _ in range(ctx.ambient_dim))
            for k in (1, 2, 3, 4):
                closed = simplex_contains(a, k, ctx)
                via_lp = scaled[k].contains_point(ctx.project_sl(a))
                assert closed == via_lp, (a, k, ctx)


small_points = st.lists(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=1, max_size=6
)


@settings(max_examples=60, deadline=None)
@given(small_points)
def test_hull_idempotence(points):
    verts = hull_vertices(points)
    assert hull_vertices(verts) == verts


# Collinear sets (with repeats) exercise the lexicographic shortcut on
# segments, including vertical ones where the first coordinate ties.
collinear_points = st.builds(
    lambda base, step, ks: [tuple(b + k * c for b, c in zip(base, step)) for k in ks],
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    st.lists(st.integers(-3, 3), min_size=1, max_size=6),
)
point_sets = st.one_of(small_points, collinear_points)


@settings(max_examples=60, deadline=None)
@given(point_sets, st.fractions(min_value=0, max_value=5, max_denominator=4))
# Fractional scaling makes the hull LPs fractional.  An integer tableau whose
# common denominator starts at the lcm of the data, not at 1, divides
# inexactly on this one.
@example([(0, 0), (1, 0), (-1, 1)], Fraction(1, 2))
def test_scaled_matches_hull_of_scaled_vertices(points, s):
    P = RationalPolytope(points)
    assert P.scaled(s).vertices == hull_vertices(
        [tuple(s * c for c in v) for v in P.vertices])


@settings(max_examples=60, deadline=None)
@given(point_sets)
def test_hull_keeps_exactly_the_extreme_points(points):
    kept = hull_vertices(points)
    for p in set(F(*p) for p in points) - set(kept):
        assert _in_hull(kept, p)
    if len(kept) > 1:
        for i, v in enumerate(kept):
            assert not _in_hull(kept[:i] + kept[i + 1:], v)


@settings(max_examples=40, deadline=None)
@given(small_points, small_points,
       st.integers(0, 3), st.integers(0, 3),
       st.tuples(st.integers(-5, 5), st.integers(-5, 5)))
def test_minkowski_support_additivity(pv, qv, s, t, x):
    P = RationalPolytope(pv)
    Q = RationalPolytope(qv)
    combined = minkowski_combine(P, Q, s, t)
    assert combined.support_value(x) == s * P.support_value(x) + t * Q.support_value(x)


@settings(max_examples=40, deadline=None)
@given(small_points, small_points)
def test_inclusion_iff_support_domination(pv, qv):
    # spot equivalence on sampled directions plus the generating vertices
    P = RationalPolytope(pv)
    Q = RationalPolytope(qv)
    inc = includes(P, Q)
    directions = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1), (2, -3),
                  (-5, 2)] + [tuple(v) for v in P.vertices + Q.vertices if any(v)]
    dominated = all(Q.support_value(x) <= P.support_value(x) for x in directions)
    if inc:
        assert dominated
    if not dominated:
        assert not inc


def test_vertex_order_is_lexicographic_and_stable():
    pts = [(1, 0), (-1, 0), (0, 1), (0, -1), (0, 0)]
    P = RationalPolytope(pts)
    assert P.vertices == tuple(sorted(P.vertices))
    assert RationalPolytope(list(reversed(pts))).vertices == P.vertices
