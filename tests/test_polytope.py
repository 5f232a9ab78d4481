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

SL2 = LatticeContext.sl(2)
SL3 = LatticeContext.sl(3)


# LP references for the facet path: the membership, segment reach and hull
# the decisions used before it.

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
    result = lp.solve(lp.linear_program(k, cons))
    return result.status == lp.OPTIMAL


def reference_reach(points, a, b) -> Fraction:
    """Largest t in [0, 1] with a + t*(b - a) in the hull of the points, by
    one exact LP over convex weights on the points; a must be in the hull."""
    k = len(points)
    cons = _convex_weight_rows(k, k + 1)
    for c in range(len(a)):
        cons.append(([p[c] for p in points] + [a[c] - b[c]], lp.EQ, a[c]))
    cons.append(([Fraction(0)] * k + [Fraction(1)], lp.LEQ, 1))
    objective = [Fraction(0)] * k + [Fraction(1)]
    result = lp.solve(lp.linear_program(k + 1, cons, objective))
    assert result.status == lp.OPTIMAL
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
    the hull towards every probe."""
    P = RationalPolytope(points)
    assert P.vertices == reference_hull(points)
    probes = [tuple(Fraction(c) for c in y) for y in probes]
    inside = [y for y in probes if P.contains_point(y)]
    for y in probes:
        assert (y in inside) == _in_hull(P.vertices, y), (P, y)
    for a in inside:
        for b in probes:
            assert P.reach(a, b) == reference_reach(P.vertices, a, b), (P, a, b)


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


def test_facet_path_matches_lp_on_corpus(corpus):
    # The questions the decisions ask: the hulls of the supports, membership
    # in N(w) and q*N(I) of the points of A(v) (and in N(w) of the
    # midpoints from N(v) towards q*N(I)), and the reach inside N(w) from
    # each vertex of N(v) it holds towards each vertex of q*N(I).
    memberships = reaches = 0
    for p in corpus:
        v_points, w_points = p.Av.geometry_points(), p.Aw.geometry_points()
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
