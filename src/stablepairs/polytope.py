"""Exact rational convex polytopes given by their vertices.

A polytope is kept as its vertex tuple alone.  Support values are exact
maxima over the vertices.  Membership and segment reaches come from an exact
integer facet description (an H-representation), built once per vertex
tuple and cached:

* the vertices are scaled to integers by the lcm of their denominators;
* the equations of the affine hull (primitive integer normals and offsets)
  come from exact row reduction of the vertex differences;
* the facets are the hyperplanes of the affine hull, in its r pivot
  coordinates (r the affine rank), that r vertices span with every vertex
  on one side.

Weight polytopes of single vectors are routinely degenerate (points,
segments, lower-dimensional hulls), and this treats them as first-class
citizens: inside its affine hull every polytope is full-dimensional.  The
affine ranks in play are small, so enumerating r-subsets of points stays
cheap.

Hull vertices come from the same enumeration, run on the distinct input
points: while each facet is found, the points on it are recorded, and a
point is a vertex unless another point lies on every facet it lies on.  One
code path serves every affine rank, and no LP is solved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .lattice import InputError, LatticeContext, ModeError, RatVec, as_rat_vec, dot


def _check_common_dim(points: Sequence[RatVec]) -> None:
    if not points:
        raise InputError("empty point set")
    d = len(points[0])
    for p in points:
        if len(p) != d:
            raise InputError("points of mixed dimension")
    if d == 0:
        raise InputError("zero-dimensional ambient space")


def _int_rows(points: Sequence[RatVec]) -> tuple[list[list[int]], int]:
    """The points times the lcm L of all their denominators, and L."""
    scale = lcm(*[c.denominator for p in points for c in p])
    return [[c.numerator * (scale // c.denominator) for c in p] for p in points], scale


def _affine_pivots(ints: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Integer Gauss-Jordan elimination on the differences from the first
    point.

    Returns rows spanning the direction space of the affine hull and their
    pivot columns, in increasing order: the k-th row is nonzero at the k-th
    pivot column and every other row is zero there.  The pivot columns are
    affine coordinates on the affine hull.
    """
    base = ints[0]
    rows = [[x - y for x, y in zip(v, base)] for v in ints[1:]]
    pivots: list[int] = []
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


def _kernel(reduced: list[list[int]], pivots: list[int], d: int) -> list[list[int]]:
    """Integer basis of the vectors orthogonal to the rows from
    ``_affine_pivots``: one per free column f, lcm(pivot entries) at f, zero
    at the other free columns, and cancelling each row at its pivot."""
    size = lcm(*[row[c] for row, c in zip(reduced, pivots)])
    basis = []
    for f in range(d):
        if f not in pivots:
            normal = [0] * d
            normal[f] = size
            for row, c in zip(reduced, pivots):
                normal[c] = -row[f] * (size // row[c])
            basis.append(normal)
    return basis


def _primitive(normal: Sequence[int], offset: int) -> tuple[tuple[int, ...], int]:
    """Divide a nonzero integer normal and its offset by the normal's
    content; the offset is a value of the normal at an integer point, so
    the division is exact."""
    g = gcd(*normal)
    return tuple([x // g for x in normal]), offset // g


class _Facets(NamedTuple):
    """Integer H-representation of the hull of a vertex tuple.

    With L = ``scale``, a point y lies in the hull exactly when
    <e, L*y> = c for every (e, c) in ``equations`` and <n, (L*y)_P> <= h for
    every (n, h) in ``facets``, where (.)_P keeps the ``pivots``
    coordinates.  The equations cut out the affine hull, on which the pivot
    coordinates are affine coordinates; every normal is primitive.
    """

    scale: int
    pivots: tuple[int, ...]
    equations: tuple[tuple[tuple[int, ...], int], ...]
    facets: tuple[tuple[tuple[int, ...], int], ...]

    def contains(self, y: RatVec) -> bool:
        (Y,), m = _int_rows((y,))
        L = self.scale
        for e, c in self.equations:
            if sum(map(mul, e, Y)) * L != c * m:
                return False
        YP = [Y[c] for c in self.pivots]
        for n, h in self.facets:
            if sum(map(mul, n, YP)) * L > h * m:
                return False
        return True

    def reach(self, a: RatVec, b: RatVec) -> Fraction:
        """Largest t in [0, 1] with a + t(b - a) in the hull, for a in it.

        0 when b - a leaves the direction space of the affine hull;
        otherwise the least t at which the segment crosses a facet it
        rises towards, capped at 1.
        """
        (A,), ma = _int_rows((a,))
        (B,), mb = _int_rows((b,))
        step = [x * ma - y * mb for x, y in zip(B, A)]  # ma*mb*(b - a)
        for e, _ in self.equations:
            if sum(map(mul, e, step)):
                return Fraction(0)
        L = self.scale
        AP = [A[c] for c in self.pivots]
        SP = [step[c] for c in self.pivots]
        num, den = 1, 1
        for n, h in self.facets:
            rise = sum(map(mul, n, SP))
            if rise > 0:
                # <n, L(a + t(b - a))_P> = h at t = (h*ma - L<n, A_P>) mb / (L rise)
                slack = (h * ma - L * sum(map(mul, n, AP))) * mb
                if slack * den < num * L * rise:
                    num, den = slack, L * rise
        return Fraction(num, den)


def _facet_map(ints: Sequence[Sequence[int]], pivots: Sequence[int]) -> dict:
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
        spans, spanned = _affine_pivots(subset)
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


@lru_cache(maxsize=512)
def _facets(vertices: tuple[RatVec, ...]) -> _Facets:
    """The H-representation of the hull of a polytope's vertex tuple.

    Keyed by the shared vertex tuple, so equal polytopes hit one entry.
    """
    ints, scale = _int_rows(vertices)
    reduced, pivots = _affine_pivots(ints)
    equations = [_primitive(e, sum(map(mul, e, ints[0])))
                 for e in _kernel(reduced, pivots, len(ints[0]))]
    facets = tuple(sorted(_facet_map(ints, pivots)))
    return _Facets(scale, tuple(pivots), tuple(equations), facets)


def _vertex_indices(ints: Sequence[Sequence[int]]) -> list[int]:
    """Indices of the vertices of the hull of distinct integer points, read
    off the facets that ``_facet_map`` finds on the points themselves.

    A point is kept unless some other point is tight on every facet that it
    is tight on.  A vertex is the intersection of its facets, so no other
    point is tight on all of them.  A point inside a face of dimension >= 1
    is tight on exactly the facets that hold the face, and so is every
    vertex of that face.
    """
    tight = [0] * len(ints)  # per point, one bit for each facet it is on
    for bit, on in enumerate(_facet_map(ints, _affine_pivots(ints)[1]).values()):
        for i in on:
            tight[i] |= 1 << bit
    return [i for i, mine in enumerate(tight)
            if not any(k != i and not mine & ~theirs for k, theirs in enumerate(tight))]


@lru_cache(maxsize=8192)
def _shared(value):
    """One shared copy of each recently seen immutable value: vertex vectors
    and vertex tuples here; weight supports, their hulls, free-mode identity
    polytopes and verdicts in ``stability``.

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

    Duplicates are removed first.  Of more than two distinct points, the
    vertices are read off the facets of their hull (``_vertex_indices``), at
    every affine rank and without an LP.
    """
    pts = [as_rat_vec(p) for p in points]
    _check_common_dim(pts)
    ints, _ = _int_rows(pts)
    # A positive scale keeps lexicographic order, so the integer rows sort
    # and dedupe the points.
    rows = sorted({tuple(r): p for r, p in zip(ints, pts)}.items())
    if len(rows) > 2:
        rows = [rows[i] for i in _vertex_indices([r for r, _ in rows])]
    return _shared(tuple([_shared(p) for _, p in rows]))


class RationalPolytope:
    """Convex hull of finitely many rational points.

    Only the vertex sublist is kept, computed once at construction; instances
    are immutable and safe to share between threads.
    """

    __slots__ = ("vertices", "dim")

    def __init__(self, points: Iterable[Sequence]):
        self.vertices = hull_vertices(points)
        self.dim = len(self.vertices[0])

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

    def contains_point(self, y: Sequence) -> bool:
        """Exact membership: a vertex is found among the vertices, any other
        point is checked against the cached facet description."""
        point = as_rat_vec(y)
        if len(point) != self.dim:
            raise InputError(
                f"point has dimension {len(point)}, polytope has {self.dim}"
            )
        return point in self.vertices or _facets(self.vertices).contains(point)

    def reach(self, a: RatVec, b: RatVec) -> Fraction:
        """Largest t in [0, 1] with a + t*(b - a) in the polytope.  The
        polytope must contain a; both points must be Fraction tuples of its
        dimension."""
        return _facets(self.vertices).reach(a, b)

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
