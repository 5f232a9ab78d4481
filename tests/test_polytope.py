import random
from collections import Counter
from fractions import Fraction
from itertools import combinations
from math import gcd
from operator import mul

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
from stablepairs import FrameFamily, lp, polytope, stability, verdict
from stablepairs.polytope import _int_rows, _kernel, _primitive, _shared

from conftest import build_corpus
from lp_reference import OPTIMAL, linear_program, reference_solve

SL2 = LatticeContext.sl(2)
SL3 = LatticeContext.sl(3)


# The r-subset enumeration that built hulls and facet descriptions before
# the double-description pass: the reference for ``polytope._hull``.

def _reference_pivots(ints):
    """Integer Gauss-Jordan elimination on the differences from the first
    point, column by column: rows spanning the direction space of the
    affine hull and their pivot columns, in increasing order."""
    base = ints[0]
    rows = [[x - y for x, y in zip(v, base)] for v in ints[1:]]
    pivots = []
    for col in range(len(base)):
        k = len(pivots)
        for found in range(k, len(rows)):
            if rows[found][col]:
                break
        else:
            continue
        rows[k], rows[found] = rows[found], rows[k]
        prow = rows[k]
        p = prow[col]
        for i, row in enumerate(rows):
            a = row[col]
            if a and i != k:
                new = [p * x - a * y for x, y in zip(row, prow)]
                g = gcd(*new)
                rows[i] = [x // g for x in new] if g > 1 else new
        pivots.append(col)
    return rows[:len(pivots)], pivots


def _facet_map(ints, pivots) -> dict:
    """The facets of the hull of distinct integer points, as primitive
    (normal, offset) pairs in the ``pivots`` coordinates of their affine
    hull, each mapped to the indices of the points on it.

    A hyperplane of the affine hull spanned by r of the points (r the
    affine rank) with every point on one side meets the hull in r affinely
    independent points, so it is a facet; every facet contains r such
    points, so none is missed.
    """
    r = len(pivots)
    coords = [[v[c] for c in pivots] for v in ints]
    facets = {}
    for subset in combinations(coords, r) if r else ():
        spans, spanned = _reference_pivots(subset)
        if len(spanned) < r - 1:
            continue
        (normal,) = _kernel(spans, spanned, r)
        h = sum(map(mul, normal, subset[0]))
        levels = [sum(map(mul, normal, v)) for v in coords]
        if max(levels) <= h:
            facet = _primitive(normal, h)
        elif min(levels) >= h:
            facet = _primitive([-x for x in normal], -h)
        else:
            continue
        if facet not in facets:
            facets[facet] = [i for i, x in enumerate(levels) if x == h]
    return facets


def _vertex_indices(ints) -> list:
    """Indices of the vertices of the hull of distinct integer points: a
    point is kept unless some other point is tight on every facet that it
    is tight on."""
    tight = [0] * len(ints)  # per point, one bit for each facet it is on
    for bit, on in enumerate(_facet_map(ints, _reference_pivots(ints)[1]).values()):
        for i in on:
            tight[i] |= 1 << bit
    return [i for i, mine in enumerate(tight)
            if not any(k != i and not mine & ~theirs for k, theirs in enumerate(tight))]


def reference_vertices(points) -> tuple:
    """Hull vertices of rational points by the enumeration, in
    lexicographic order."""
    pts = [tuple(Fraction(c) for c in p) for p in points]
    ints, _ = _int_rows(pts)
    rows = sorted({tuple(r): p for r, p in zip(ints, pts)}.items())
    if len(rows) > 2:
        rows = [rows[i] for i in _vertex_indices([r for r, _ in rows])]
    return tuple(p for _, p in rows)


def reference_facets(vertices) -> tuple:
    """(scale, pivots, equations, sorted facets, incidences) of the hull of
    a vertex tuple by the enumeration, fields as in ``polytope._Facets``."""
    ints, scale = _int_rows(vertices)
    reduced, pivots = _reference_pivots(ints)
    equations = [_primitive(e, sum(map(mul, e, ints[0])))
                 for e in _kernel(reduced, pivots, len(ints[0]))]
    on = _facet_map(ints, pivots)
    facets = sorted(on)
    return (scale, tuple(pivots), tuple(equations), tuple(facets),
            tuple(sum(1 << i for i in on[f]) for f in facets))


def assert_hull_pass_matches_enumeration(points, enumerate_points=True):
    """The hull pass against the enumeration: its facets and incidences on
    the points; the shared vertex tuple, in order; the integer vertex rows
    and scale of the polytope; and its facet description, equations,
    facets and incidences.

    Without ``enumerate_points`` the vertices are checked on the vertices
    alone, which costs C(v, r) subsets instead of C(n, r): each is a vertex
    of their hull, and every point satisfies its facet description, so
    they are exactly the extreme points.
    """
    if enumerate_points:
        ints, _ = _int_rows([tuple(Fraction(c) for c in p) for p in points])
        rows = sorted(set(map(tuple, ints)))
        on = _facet_map(rows, _reference_pivots(rows)[1])
        assert sorted(polytope._hull(rows)[2]) == sorted(
            f + (sum(1 << i for i in on[f]),) for f in on)
    verts = hull_vertices(points)
    expected = reference_vertices(points if enumerate_points else verts)
    assert verts == expected
    assert verts is _shared(tuple([_shared(v) for v in expected]))
    if not enumerate_points:
        ref = polytope._Facets(*reference_facets(verts))
        for p in points:
            (row,), m = _int_rows([tuple(Fraction(c) for c in p)])
            assert ref.contains(row, m), p
    P = RationalPolytope(points)
    assert P.vertices is verts
    rows, scale = _int_rows(verts)
    assert (P.rows, P.scale) == (tuple(map(tuple, rows)), scale)
    assert P._facets() == reference_facets(verts)


# LP references for the facet path: the membership, segment reach and hull
# the decisions used before it, solved by the Fraction reference simplex,
# which shares no code with the package.

def _convex_weight_rows(k: int, num_vars: int) -> list:
    """Rows making the first k of num_vars variables convex weights."""
    cons = []
    for i in range(k):
        row = [Fraction(0)] * num_vars
        row[i] = Fraction(1)
        cons.append((row, lp.GEQ, 0))
    cons.append(([Fraction(1)] * k + [Fraction(0)] * (num_vars - k), lp.EQ, 1))
    return cons


def _in_hull(points, y) -> bool:
    """Exact test: is y a convex combination of the given points?"""
    if len(points) == 1:
        return points[0] == y
    k = len(points)
    cons = _convex_weight_rows(k, k)
    for c in range(len(y)):
        cons.append(([p[c] for p in points], lp.EQ, y[c]))
    return reference_solve(linear_program(k, cons)).status == OPTIMAL


def reference_reach(points, a, b) -> Fraction:
    """Largest t in [0, 1] with a + t*(b - a) in the hull of the points, by
    one exact LP over convex weights on the points; a must be in the hull."""
    k = len(points)
    cons = _convex_weight_rows(k, k + 1)
    for c in range(len(a)):
        cons.append(([p[c] for p in points] + [a[c] - b[c]], lp.EQ, a[c]))
    cons.append(([Fraction(0)] * k + [Fraction(1)], lp.LEQ, 1))
    objective = [Fraction(0)] * k + [Fraction(1)]
    result = reference_solve(linear_program(k + 1, cons, objective))
    assert result.status == OPTIMAL
    return result.value


def reference_hull(points):
    """Sorted distinct points that are not in the hull of the others."""
    uniq = sorted(set(tuple(Fraction(c) for c in p) for p in points))
    if len(uniq) <= 2:
        return tuple(uniq)
    return tuple(p for i, p in enumerate(uniq) if not _in_hull(uniq[:i] + uniq[i + 1:], p))


def assert_facet_path_matches_lp(points, probes):
    """hull_vertices, contains_point and reach of the hull of the points
    against the LP references, at every probe, and from every probe inside
    the hull towards every probe; and the facet store's reach from all the
    probes inside towards all the probes against the least of those."""
    P = RationalPolytope(points)
    assert P.vertices == reference_hull(points)
    probes = [tuple(Fraction(c) for c in y) for y in probes]
    inside = [y for y in probes if P.contains_point(y)]
    for y in probes:
        assert (y in inside) == _in_hull(P.vertices, y), (P, y)
    least = 1
    for a in inside:
        for b in probes:
            # the hull is convex, so a segment between points inside is
            # inside; the LP reference answers the others
            want = 1 if b in inside else reference_reach(P.vertices, a, b)
            assert P.reach(a, b) == want, (P, a, b)
            least = min(least, want)
    if inside:
        rows, scale = _int_rows(inside + probes)
        got = P._facets().reach(rows[:len(inside)], scale, rows[len(inside):], scale)
        assert Fraction(*got) == least, (P, inside, probes)


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
    for scale in (0, -2, Fraction(1, 2)):
        with pytest.raises(InputError):
            hull_vertices([(1, 0)], scale)


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


def test_reach_needs_a_start_inside():
    tri = RationalPolytope([(0, 0), (1, 0), (0, 1)])
    assert tri.reach((0, 0), (2, 2)) == Fraction(1, 4)
    assert tri.reach((Fraction(1, 2), Fraction(1, 2)), (0, 0)) == 1
    # unchecked, these read -9/2 and 1 off the facets
    for a, b in (((5, 5), (6, 6)), ((2, 2), (0, 0))):
        with pytest.raises(InputError, match="inside the polytope"):
            tri.reach(a, b)


def test_reach_over_point_sets_is_the_least_pair_reach():
    # Different facets bind different pairs: in the square [0, 4]^2 the
    # first pair leaves through x = 4 at 3/5, and the least reach, 1/3,
    # belongs to the next two, one through y = 4 and one through x = 4.
    square = RationalPolytope([(0, 0), (4, 0), (0, 4), (4, 4)])
    As, Bs = [(1, 3), (3, 1)], [(6, 1), (1, 6)]
    assert [square.reach(a, b) for a in As for b in Bs] == \
        [Fraction(3, 5), Fraction(1, 3), Fraction(1, 3), Fraction(3, 5)]
    store = square._facets()
    assert Fraction(*store.reach(As, 1, Bs, 1)) == Fraction(1, 3)
    assert Fraction(*store.reach(As[:1], 1, Bs, 1)) == Fraction(1, 3)
    # every b inside: capped at 1
    assert Fraction(*store.reach(As, 1, [(4, 4), (2, 0)], 1)) == 1


def test_reach_over_point_sets_is_zero_when_one_b_leaves_the_affine_hull():
    # A segment and a triangle in space: one b off the affine hull gives 0,
    # however far the others reach, and a b in the affine hull but outside
    # the hull gives a positive reach.
    segment = RationalPolytope([(0, 0), (4, 0)])
    triangle = RationalPolytope([(0, 0, 0), (4, 0, 0), (0, 4, 0)])
    for P, a, outside, off in ((segment, (2, 0), (8, 0), (2, 1)),
                               (triangle, (1, 1, 0), (7, 1, 0), (1, 1, 1))):
        store = P._facets()
        assert Fraction(*store.reach([a], 1, [a, outside], 1)) == Fraction(1, 3)
        assert Fraction(*store.reach([a], 1, [a, off, outside], 1)) == 0
        assert P.reach(a, off) == 0


def test_vertices_need_no_membership_lp(monkeypatch):
    pentagon = RationalPolytope([(2, 0), (0, 2), (-2, 1), (-1, -2), (1, -2), (0, 0)])
    solves = []
    solve, solve_min_l1 = lp.solve, lp.solve_min_l1

    def counting(prog):
        solves.append(prog)
        return solve(prog)

    def counting_min_l1(prog, over):
        solves.append(prog)
        return solve_min_l1(prog, over)

    # a direction LP's first stage does not go through lp.solve
    monkeypatch.setattr(lp, "solve", counting)
    monkeypatch.setattr(lp, "solve_min_l1", counting_min_l1)
    assert includes(pentagon, pentagon)
    assert solves == []
    assert contains_point(pentagon, (0, 0))
    assert not contains_point(pentagon, (2, 1))
    assert solves == []


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
# Fractional scaling gives fractional points, which the facet enumeration
# brings to integers by the lcm of their denominators.
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


def geometry_points(A) -> tuple:
    rows, scale = A.geometry_rows()
    return tuple(tuple(Fraction(c, scale) for c in row) for row in rows)


def test_facet_path_matches_lp_on_corpus(corpus):
    # The questions the decisions ask: the hulls of the supports, membership
    # in N(w) and q*N(I) of the points of A(v) (and in N(w) of the
    # midpoints from N(v) towards q*N(I)), and the reach inside N(w) from
    # each vertex of N(v) it holds towards each vertex of q*N(I).
    memberships = reaches = 0
    for p in corpus:
        v_points, w_points = geometry_points(p.Av), geometry_points(p.Aw)
        for points in (v_points, w_points, v_points + w_points):
            assert hull_vertices(points) == reference_hull(points)
        q_vertices = p.q_identity.vertices
        probes = set(v_points) | {tuple((x + y) / 2 for x, y in zip(a, b))
                                  for a in p.hull_v.vertices for b in q_vertices}
        for P, ys in ((p.hull_w, probes), (p.q_identity, v_points)):
            for y in ys:
                assert P.contains_point(y) == _in_hull(P.vertices, y), (P, y)
            memberships += len(ys)
        for a in p.hull_v.vertices:
            if p.hull_w.contains_point(a):
                for b in q_vertices:
                    assert p.hull_w.reach(a, b) == reference_reach(p.hull_w.vertices, a, b)
                    reaches += 1
    assert (memberships, reaches) == (2678, 909)


@st.composite
def supports_of_low_rank(draw):
    """Point sets of affine rank 0-4 and probes around them: free rank 1-4
    (half the draws with rational points, as identity polytopes may have)
    or sl(2)-sl(5) (projected to the trace-zero hyperplane), as a single
    point, collinear, coplanar, with duplicates, or unstructured."""
    mode = draw(st.sampled_from(("free", "sl")))
    dim = draw(st.integers(1, 4) if mode == "free" else st.integers(2, 5))
    den = draw(st.sampled_from((1, 1, 2, 3))) if mode == "free" else 1
    coord = st.integers(-2, 2)
    point = st.tuples(*[coord] * dim)
    kind = draw(st.sampled_from(("single", "collinear", "coplanar", "duplicates",
                                 "plain", "plain")))
    if kind == "single":
        pts = [draw(point)]
    elif kind in ("collinear", "coplanar"):
        base = draw(point)
        steps = draw(st.lists(point, min_size=1, max_size=1 if kind == "collinear" else 2))
        ks = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(steps)),
                           min_size=2, max_size=6))
        pts = [tuple(b + sum(k * s[i] for k, s in zip(kk, steps)) for i, b in enumerate(base))
               for kk in ks]
    else:
        pts = draw(st.lists(point, min_size=dim + 1, max_size=dim + 4))
        if kind == "duplicates":
            pts += pts[:2]
    probes = draw(st.lists(point, max_size=4))
    probes += [tuple(x + y for x, y in zip(a, b)) for a, b in zip(pts, pts[1:] + pts[:1])]
    probes += pts
    if mode == "sl":
        ctx = LatticeContext.sl(dim)
        projected = [ctx.project_sl(y) for y in probes]
        # Halved projections add fractional probes; unprojected points leave
        # the trace-zero hyperplane unless their coordinates sum to zero.
        projected += [tuple(c / 2 for c in y) for y in projected[:3]]
        projected += [tuple(Fraction(c) for c in y) for y in probes[:2]]
        return [ctx.project_sl(a) for a in pts], projected

    def scaled(y, k=den):
        return tuple(Fraction(c, k) for c in y)

    return [scaled(a) for a in pts], [scaled(y) for y in probes] + [scaled(y, 2 * den) for y in probes]


# {0,1,2}^3 has 8 vertices; its edge midpoints, face centres and centre lie
# on the boundary or inside and must drop, also with a constant fourth
# coordinate (free rank 4, affine rank 3).
GRID = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


@settings(max_examples=100, deadline=None)
@given(supports_of_low_rank())
@example((GRID, [(1, 1, 1), (1, 0, 2), (3, 1, 1), (Fraction(1, 2), 2, 2), (1, 1, 0)]))
@example(([p + (1,) for p in GRID],
          [(1, 1, 1, 1), (1, 1, 1, 0), (0, 1, 2, 1), (2, 3, 0, 1), (Fraction(1, 2), 2, 2, 1)]))
@example(([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1),
           (1, 1, 1), (0, 0, 0), (Fraction(1, 2), Fraction(1, 2), Fraction(1, 2))],
          [(Fraction(1, 2), 0, 0), (2, 0, 0), (0, 0, 0), (1, 1, 2), (Fraction(1, 3), 1, 1)]))
@example(([(0, 0), (2, 0), (4, 0), (0, 2), (0, 4), (2, 2), (1, 1)],
          [(3, 1), (1, 3), (3, 2), (0, 0), (-1, 0), (4, 4), (2, 0)]))
def test_facet_path_matches_lp_on_low_rank_supports(case):
    points, probes = case
    assert_facet_path_matches_lp(points, probes)


CIRCLE = [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3),
          (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)]


@st.composite
def hull_point_sets(draw):
    """Point sets for the hull pass against the enumeration: free rank 1-5
    (integer or rational points) or sl(2)-sl(5) (projected), of affine rank
    0-5, as a single point, collinear or coplanar with boundary points,
    lattice points of a circle around its centre, with duplicates, or
    unstructured; a third of them scaled and shifted to coordinates near
    10^12."""
    mode = draw(st.sampled_from(("free", "sl")))
    dim = draw(st.integers(1, 5) if mode == "free" else st.integers(2, 5))
    point = st.tuples(*[st.integers(-2, 2)] * dim)
    kind = draw(st.sampled_from(("single", "collinear", "coplanar", "cocircular",
                                 "duplicates", "plain", "plain")))
    if kind == "single":
        pts = [draw(point)]
    elif kind == "cocircular":
        base, u, v = draw(point), draw(point), draw(point)
        on = draw(st.lists(st.sampled_from(CIRCLE), min_size=1, max_size=8))
        pts = [base] + [tuple(b + x * s + y * t for b, s, t in zip(base, u, v)) for x, y in on]
    elif kind in ("collinear", "coplanar"):
        base = draw(point)
        steps = draw(st.lists(point, min_size=1, max_size=1 if kind == "collinear" else 2))
        ks = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * len(steps)), min_size=2, max_size=7))
        pts = [tuple(b + sum(k * s[i] for k, s in zip(kk, steps)) for i, b in enumerate(base))
               for kk in ks]
    else:
        pts = draw(st.lists(point, min_size=dim + 1, max_size=dim + 5))
        if kind == "duplicates":
            pts += pts[:2]
    if draw(st.integers(0, 2)) == 0:
        big = 10 ** 10
        shift = draw(st.tuples(*[st.integers(-10 ** 12 // 2, 10 ** 12 // 2)] * dim))
        pts = [tuple(big * c + s for c, s in zip(p, shift)) for p in pts]
    if mode == "sl":
        ctx = LatticeContext.sl(dim)
        return [ctx.project_sl(a) for a in pts]
    den = draw(st.sampled_from((1, 1, 2, 3, 7)))
    return [tuple(Fraction(c, den) for c in p) for p in pts] if den > 1 else pts


CUBE = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
HALF = Fraction(1, 2)


@settings(max_examples=150, deadline=None)
@given(hull_point_sets())
# the unit cube with its centre, face centres and edge midpoints, also
# lifted to free rank 4 at a constant last coordinate and as the 4-cube
@example(CUBE + [(HALF, HALF, HALF), (HALF, HALF, 0), (1, HALF, HALF), (0, 0, HALF)])
@example([p + (7,) for p in CUBE] + [(HALF, HALF, HALF, 7), (0, HALF, 1, 7)])
@example([p + (t,) for p in CUBE for t in (0, 1)] + [(HALF,) * 4, (0, HALF, HALF, 1)])
# facets of this rank-4 set share three rows (with (0, 0, 0, 0) between
# two of them) without meeting in a ridge, so a shared-row count alone would
# join them
@example([(0, -1, -1, 0), (0, -1, 0, 1), (0, 0, 0, 0), (0, 1, 0, -1), (1, -1, 0, 0),
          (1, -1, 0, 1), (1, 0, -1, 1), (1, 1, 1, 0)])
def test_hull_pass_matches_enumeration(points):
    assert_hull_pass_matches_enumeration(points)


def test_large_supports_match_enumeration():
    # The 30-point free rank-4 set of the size table in ROADMAP.md, in full;
    # the 100-point rank-3 set on its vertices, as C(100, 3) subsets would
    # take the reference tens of seconds.
    rng = random.Random(2018)
    four = [tuple(rng.randint(-5, 5) for _ in range(4)) for _ in range(30)]
    three = [tuple(rng.randint(-5, 5) for _ in range(3)) for _ in range(100)]
    assert_hull_pass_matches_enumeration(four)
    assert_hull_pass_matches_enumeration(three, enumerate_points=False)


def dd_vertex_rows(points, scale):
    """``polytope._vertex_rows`` by the double-description pass at every
    affine rank: a row is a vertex unless another one lies on every facet
    it lies on."""
    ints, L = _int_rows([tuple(Fraction(c) for c in p) for p in points])
    rows = sorted(set(map(tuple, ints)))
    if len(rows) > 2:
        on = [(1 << len(rows)) - 1] * len(rows)  # per row, the rows on all its facets
        for _, _, mask in polytope._hull(rows)[2]:
            for i in range(len(rows)):
                if mask >> i & 1:
                    on[i] &= mask
        rows = [row for i, row in enumerate(rows) if on[i] == 1 << i]
    return polytope._canonical(rows, scale * L)


@st.composite
def low_rank_point_sets(draw):
    """Points of affine rank at most 2 in ambient dimension 2-5: a collinear
    run, a plane's lattice points, or lattice points of a circle around its
    centre in a plane, sometimes with duplicates; a third of them scaled
    and shifted to coordinates near 10^12, some as Fractions, and a scale
    of 1, 2 or 6."""
    dim = draw(st.integers(2, 5))
    point = st.tuples(*[st.integers(-2, 2)] * dim)
    kind = draw(st.sampled_from(("collinear", "coplanar", "cocircular")))
    base = draw(point)
    if kind == "cocircular":
        u, v = draw(point), draw(point)
        on = draw(st.lists(st.sampled_from(CIRCLE), min_size=1, max_size=8))
        pts = [base] + [tuple(b + x * s + y * t for b, s, t in zip(base, u, v)) for x, y in on]
    else:
        steps = draw(st.lists(point, min_size=1, max_size=1 if kind == "collinear" else 2))
        ks = draw(st.lists(st.tuples(*[st.integers(-3, 3)] * len(steps)), min_size=2, max_size=9))
        pts = [tuple(b + sum(k * s[i] for k, s in zip(kk, steps)) for i, b in enumerate(base))
               for kk in ks]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    if draw(st.integers(0, 2)) == 0:
        big = 10 ** 10
        shift = draw(st.tuples(*[st.integers(-10 ** 12 // 2, 10 ** 12 // 2)] * dim))
        pts = [tuple(big * c + s for c, s in zip(p, shift)) for p in pts]
    den = draw(st.sampled_from((1, 1, 2, 3, 7)))
    if den > 1:
        pts = [tuple(Fraction(c, den) for c in p) for p in pts]
    return pts, draw(st.sampled_from((1, 2, 6)))


@settings(max_examples=300, deadline=None)
@given(low_rank_point_sets())
@example(([(0, 0), (1, 0), (2, 0), (2, 1), (2, 2), (1, 1), (0, 2), (0, 1), (1, 2)], 1))
@example(([(5, 0, 1), (0, 5, 1), (-5, 0, 1), (0, -5, 1), (3, 4, 1), (0, 0, 1)], 2))
@example(([(10 ** 12, 1), (10 ** 12 + 1, 1), (10 ** 12 + 2, 1), (10 ** 12, 1)], 6))
def test_low_rank_vertices_match_the_double_description_pass(case):
    # Below affine rank 3 the vertices come from the first and last row or
    # the monotone chain, and must be those of the double-description pass
    points, scale = case
    ints, _ = _int_rows([tuple(Fraction(c) for c in p) for p in points])
    assert len(polytope._affine_pivots(sorted(set(map(tuple, ints))))[1]) <= 2
    assert polytope._vertex_rows(points, scale) == dd_vertex_rows(points, scale)
    # and so do the facets, with no double-description pass
    P = RationalPolytope(points, scale)
    expected = dd_store(P)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(polytope, "_hull", None)
        assert P._facets() == expected


def dd_store(P) -> tuple:
    """The facet description of P's vertex rows by the double-description
    pass at every affine rank, fields as in ``polytope._Facets``."""
    rows = P.rows
    reduced, pivots, facets = polytope._hull(rows)
    equations = [_primitive(e, sum(map(mul, e, rows[0])))
                 for e in _kernel(reduced, pivots, len(rows[0]))]
    facets.sort()
    return (P.scale, tuple(pivots), tuple(equations), tuple([(n, h) for n, h, _ in facets]),
            tuple([mask for _, _, mask in facets]))


@pytest.mark.parametrize("seed, stores, passes", [(20260810, 200, 14), (11, 204, 28)])
def test_corpus_stores_match_the_double_description_pass(monkeypatch, seed, stores, passes):
    # From empty shared caches, building and deciding a corpus fills the
    # facet stores of its queried polytopes.  Each equals the store of the
    # double-description pass, field by field, and that pass runs only on
    # rows of affine rank 3: at construction, and for the stores of rank
    # 3 (212 passes at every rank on the default corpus before the chain
    # gave the facets below rank 3).
    for cache in (polytope._shared, stability._sl_identity):
        cache.cache_clear()
    ranks = []
    hull = polytope._hull

    def recording(rows, elimination=None):
        result = hull(rows, elimination)
        ranks.append(len(result[1]))
        return result

    monkeypatch.setattr(polytope, "_hull", recording)
    instances = build_corpus(seed)
    for p in instances:
        verdict(FrameFamily([p]))
    assert ranks == [3] * passes
    monkeypatch.undo()
    polytopes = {id(P): P for p in instances
                 for P in (p.hull_v, p.hull_w, p.identity_geom, p.q_identity)}
    filled = [P for P in polytopes.values() if P._store is not None]
    assert len(filled) == stores
    for P in filled:
        assert P._store == dd_store(P), P


def test_construction_runs_one_elimination_and_at_most_one_hull_pass(monkeypatch):
    # A rank-3 set runs one elimination and one double-description pass on
    # it; a rank-2 set only the elimination.  The first query builds the
    # facet store from one more elimination, and a double-description pass
    # only from rank 3 on.
    calls = Counter()
    for name in ("_affine_pivots", "_hull"):
        def counting(*args, fn=getattr(polytope, name), name=name):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(polytope, name, counting)
    cube = RationalPolytope(CUBE + [(HALF, HALF, HALF), (HALF, HALF, 0)])
    assert cube.rows == tuple(map(tuple, CUBE)) and calls == {"_affine_pivots": 1, "_hull": 1}
    calls.clear()
    assert cube.contains_point((HALF, 0, 1)) and calls == {"_affine_pivots": 1, "_hull": 1}
    calls.clear()
    square = RationalPolytope([(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1), (HALF, HALF, 1)])
    assert len(square.rows) == 4 and calls == {"_affine_pivots": 1}
    calls.clear()
    assert square.contains_point((HALF, 0, 1)) and calls == {"_affine_pivots": 1}
