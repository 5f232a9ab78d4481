"""Exact rational convex polytopes given by point sets (V-representation).

Membership, inclusion, and support values are all decided from vertex sets
alone, either by exact maximization over vertices or by rational LP
feasibility.  No facet enumeration anywhere: the dimensions in play are
small and weight polytopes of single vectors are routinely degenerate
(points, segments, lower-dimensional hulls), so every operation here treats
those as first-class citizens.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from . import lp
from .lattice import InputError, LatticeContext, ModeError, RatVec, as_rat_vec, dot


def _check_common_dim(points: Sequence[RatVec]) -> int:
    if not points:
        raise InputError("empty point set")
    d = len(points[0])
    for p in points:
        if len(p) != d:
            raise InputError("points of mixed dimension")
    if d == 0:
        raise InputError("zero-dimensional ambient space")
    return d


def _convex_weight_rows(k: int, num_vars: int) -> list:
    """Rows making the first k of num_vars variables convex weights."""
    cons = []
    for i in range(k):
        row = [Fraction(0)] * num_vars
        row[i] = Fraction(1)
        cons.append((row, lp.GEQ, 0))
    cons.append(([Fraction(1)] * k + [Fraction(0)] * (num_vars - k), lp.EQ, 1))
    return cons


def _in_hull(points: Sequence[RatVec], y: RatVec) -> bool:
    """Exact test: is y a convex combination of the given points?"""
    if len(points) == 1:
        return points[0] == y
    k = len(points)
    cons = _convex_weight_rows(k, k)
    for c in range(len(y)):
        cons.append(([p[c] for p in points], lp.EQ, y[c]))
    result = lp.solve(lp.linear_program(k, cons))
    return result.status == lp.OPTIMAL


def _segment_reach(points: Sequence[RatVec], a: RatVec, b: RatVec) -> Fraction:
    """Largest t in [0, 1] with a + t*(b - a) in the hull of the points.

    The hull must contain a.  One exact LP: maximize t over convex weights
    on the points whose combination equals a + t*(b - a).
    """
    k = len(points)
    cons = _convex_weight_rows(k, k + 1)
    for c in range(len(a)):
        cons.append(([p[c] for p in points] + [a[c] - b[c]], lp.EQ, a[c]))
    cons.append(([Fraction(0)] * k + [Fraction(1)], lp.LEQ, 1))
    objective = [Fraction(0)] * k + [Fraction(1)]
    result = lp.solve(lp.linear_program(k + 1, cons, objective))
    if result.status != lp.OPTIMAL:
        raise RuntimeError("internal: segment start lies outside the hull")
    return result.value


@lru_cache(maxsize=4096)
def _shared(value):
    """One shared copy of each recently seen immutable value: vertex vectors
    and vertex tuples here, free-mode identity polytopes and verdicts in
    ``stability``.

    Small lattice weights make equal ones recur across polytopes and
    instances, so those hold these copies instead of their own.  Nothing is
    skipped: every value is computed in full before its shared twin is
    looked up.  Tuples must be built from Fractions only: an int tuple
    compares and hashes equal to its Fraction twin and would be handed out
    in its place.
    """
    return value


def hull_vertices(points: Iterable[Sequence]) -> tuple[RatVec, ...]:
    """Extreme points of the convex hull, in lexicographic order.

    Duplicates are removed first; a point is a vertex exactly when it is not
    a convex combination of the remaining points (decided by exact LP).  The
    lexicographically least and greatest points need no LP: lexicographic
    order is preserved by addition and positive scaling, so a convex
    combination of points all above (below) a point is itself above (below)
    it, and the extreme points of the order are never such combinations.
    """
    pts = [as_rat_vec(p) for p in points]
    _check_common_dim(pts)
    uniq = sorted(set(pts))
    if len(uniq) > 2:
        inner = [p for i, p in enumerate(uniq[1:-1], 1)
                 if not _in_hull(uniq[:i] + uniq[i + 1:], p)]
        uniq = [uniq[0], *inner, uniq[-1]]
    return _shared(tuple([_shared(v) for v in uniq]))


class RationalPolytope:
    """Convex hull of finitely many rational points.

    Only the vertex sublist is kept, computed once at construction; instances
    are immutable and safe to share between threads.
    """

    __slots__ = ("vertices", "dim")

    def __init__(self, points: Iterable[Sequence]):
        pts = tuple([as_rat_vec(p) for p in points])
        self.dim = _check_common_dim(pts)
        self.vertices = hull_vertices(pts)

    def __repr__(self):
        return f"RationalPolytope(vertices={[tuple(map(str, v)) for v in self.vertices]})"

    def __eq__(self, other):
        return isinstance(other, RationalPolytope) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def support_value(self, x: Sequence) -> Fraction:
        """max over the polytope of <x, y>; attained at a vertex."""
        direction = as_rat_vec(x)
        if len(direction) != self.dim:
            raise InputError(
                f"direction has dimension {len(direction)}, polytope has {self.dim}"
            )
        return max(dot(direction, v) for v in self.vertices)

    def min_pairing(self, x: Sequence) -> Fraction:
        """min over the polytope of <x, y>; equals -support_value at -x."""
        direction = as_rat_vec(x)
        if len(direction) != self.dim:
            raise InputError(
                f"direction has dimension {len(direction)}, polytope has {self.dim}"
            )
        return min(dot(direction, v) for v in self.vertices)

    def contains_point(self, y: Sequence) -> bool:
        """Exact membership; a vertex of the polytope needs no LP."""
        point = as_rat_vec(y)
        if len(point) != self.dim:
            raise InputError(
                f"point has dimension {len(point)}, polytope has {self.dim}"
            )
        return point in self.vertices or _in_hull(self.vertices, point)

    def scaled(self, s) -> "RationalPolytope":
        """The polytope s*P for a rational s >= 0, built without an LP.

        For s > 0 the scaled vertices are exactly the vertices of s*P, in the
        same lexicographic order; for s = 0 they all collapse to the origin.
        """
        factor = Fraction(s)
        if factor < 0:
            raise InputError("scaling factor must be nonnegative")
        verts = self.vertices[:1] if factor == 0 else self.vertices
        out = object.__new__(RationalPolytope)
        out.dim = self.dim
        out.vertices = _shared(tuple([_shared(tuple([factor * c for c in v])) for v in verts]))
        return out


def support_value(P: RationalPolytope, x: Sequence) -> Fraction:
    return P.support_value(x)


def contains_point(P: RationalPolytope, y: Sequence) -> bool:
    return P.contains_point(y)


def minkowski_combine(P: RationalPolytope, Q: RationalPolytope,
                      s, t) -> RationalPolytope:
    """Hull of {s*p + t*q} over vertices p of P and q of Q, for s, t >= 0.

    Its support value at every direction x is exactly
    s*support_value(P, x) + t*support_value(Q, x).
    """
    sf, tf = Fraction(s), Fraction(t)
    if sf < 0 or tf < 0:
        raise InputError("Minkowski coefficients must be nonnegative")
    if P.dim != Q.dim:
        raise InputError("polytopes of different dimension")
    combos = [
        tuple(sf * a + tf * b for a, b in zip(p, q))
        for p in P.vertices
        for q in Q.vertices
    ]
    return RationalPolytope(combos)


def first_outside_vertex(P: RationalPolytope, Q: RationalPolytope) -> RatVec | None:
    """First vertex of Q (lexicographic order) not contained in P, if any."""
    if P.dim != Q.dim:
        raise InputError("polytopes of different dimension")
    for v in Q.vertices:
        if not P.contains_point(v):
            return v
    return None


def includes(P: RationalPolytope, Q: RationalPolytope) -> bool:
    """True iff Q is a subset of P (every vertex of Q lies in P)."""
    return first_outside_vertex(P, Q) is None


def simplex_contains(a: Sequence[int], k: int, ctx: LatticeContext) -> bool:
    """Does the diagonal coset of weight ``a`` meet k times the standard simplex?

    Closed form: with s = (k - sum(a))/(N+1), the shifted representative
    a + s*(1,...,1) has coordinate sum k, and lies on the scaled simplex iff
    every shifted coordinate is nonnegative.
    """
    if ctx.mode != "sl":
        raise ModeError("simplex_contains is an sl-mode test")
    if k <= 0:
        raise InputError("simplex scale must be a positive integer")
    vec = ctx.check_weight(a)
    s = Fraction(k - sum(vec), ctx.ambient_dim)
    return all(c + s >= 0 for c in vec)
