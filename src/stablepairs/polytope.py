"""Exact rational convex polytopes, built and queried in integer arithmetic.

A polytope keeps its vertices as integer rows over their least common scale,
which every computation reads; the shared Fraction tuples of the API are
built on the first read of ``vertices``, so the decision path builds none.
Construction runs one integer row reduction, which gives the affine hull
and its rank r with r pivot coordinates on it.  Below rank 3 that settles
the vertices and the facets without a further pass: the two ends of a
segment, or Andrew's monotone chain on the two pivot coordinates of a
polygon, whose edges are its facets.  Double description runs only from
rank 3 on: one exact integer pass, ``_hull``, gives the facets in the pivot
coordinates with the points on each, and hull vertices are read off these
incidences.  Membership, inclusion and least segment reaches read the facet
description of the vertex rows (an H-representation), built on a
polytope's first query and kept on it: one list of integer inequalities
over every coordinate, the facets lifted out of the pivot coordinates and
each equation of the affine hull as two opposite rows, so that each query
is one pass over that list.  Degenerate hulls (points, segments,
lower-dimensional polytopes) are first-class: inside its affine hull every
polytope is full-dimensional.  The pass sweeps the current facets once per
point, it does not enumerate r-subsets, and no LP is solved.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul, sub
from typing import Iterable, NamedTuple, Sequence

from .lattice import InputError, LatticeContext, ModeError, RatVec, as_rat_vec, dot


def _int_rows(points: Sequence[RatVec]) -> tuple[list[list[int]], int]:
    """The points times the lcm L of all their denominators, and L."""
    scale = lcm(*[c.denominator for p in points for c in p])
    return [[c.numerator * (scale // c.denominator) for c in p] for p in points], scale


def _reduced(row: list[int]) -> list[int]:
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _affine_pivots(ints: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], list[int]]:
    """Integer Gauss-Jordan elimination on the differences from the first
    row, one row at a time, each carrying its combination of the accepted
    differences in d more columns (d = len(ints[0])).

    Returns rows spanning the direction space of the affine hull with their
    pivot columns, in increasing order of pivot (affine coordinates on the
    affine hull), and the indices of the first row and the rows whose
    differences were accepted, in order: r + 1 affinely independent rows.
    The k-th reduced row is nonzero at the k-th pivot column and every
    other row is zero there.
    """
    base = ints[0]
    d = len(base)
    rows, pivots, basis = [], [], [0]
    for i in range(1, len(ints)):
        if len(rows) == d:
            break
        new = list(map(sub, ints[i], base)) + [0] * d
        new[d + len(rows)] = 1
        for row, c in zip(rows, pivots):
            if a := new[c]:
                new = [row[c] * x - a * y for x, y in zip(new, row)]
        col = next(filter(new.__getitem__, range(d)), None)
        if col is not None:
            new = _reduced(new)
            for k, row in enumerate(rows):
                if a := row[col]:
                    rows[k] = _reduced([new[col] * x - a * y for x, y in zip(row, new)])
            rows.append(new)
            pivots.append(col)
            basis.append(i)
    order = sorted(range(len(pivots)), key=pivots.__getitem__)
    return list(map(rows.__getitem__, order)), sorted(pivots), basis


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


def _hull(ints: Sequence[Sequence[int]], elimination: tuple | None = None
          ) -> tuple[list[list[int]], list[int], list]:
    """The affine hull and the facets of the hull of distinct integer rows:
    the reduced rows and pivots of ``_affine_pivots``, and the facets as
    (n, h, mask), n a primitive normal in the pivot coordinates with
    <n, x_P> <= h on every row x, and mask the bits of the rows on it.
    ``elimination`` is the result of ``_affine_pivots(ints)`` where the
    caller has it already.

    Double description (Fukuda & Prodon 1996): the facets are the extreme
    rays of the cone of the (n, h) that every row satisfies.  The facets of
    a simplex of the rows start it; each further row drops the facets it
    violates, and a violated facet and a strictly satisfied one that meet
    in a ridge give the facet through that ridge and the row.  Two facets
    meet in a ridge exactly when no third holds every row both hold, so
    exact integers settle every degenerate case.
    """
    reduced, pivots, basis = elimination or _affine_pivots(ints)
    d, r = len(ints[0]), len(pivots)
    coords = [[v[c] for c in pivots] for v in ints]
    # The differences D of the simplex rows satisfy M D_P = diag(p) for the
    # combinations M and pivot entries p: column j of L D_P^-1 is the normal
    # of the facet through every simplex row but the (j + 1)-th, and their
    # sum that of the facet through every one but the first.
    L = lcm(*[row[c] for row, c in zip(reduced, pivots)])
    cols = [[row[d + j] * (L // row[c]) for row, c in zip(reduced, pivots)] for j in range(r)]
    normals = [[-x for x in col] for col in cols] + ([list(map(sum, zip(*cols)))] if r else [])
    full = sum([1 << k for k in basis])
    facets = [_primitive(n, sum(map(mul, n, coords[basis[j == r]]))) + (full ^ 1 << k,)
              for j, (n, k) in enumerate(zip(normals, basis[1:] + basis[:1]))]
    for i, x in enumerate(coords):
        if i in basis:
            continue
        bit = 1 << i
        values = [sum(map(mul, n, x)) - h for n, h, _ in facets]
        kept = [(n, h, mask | bit) if value == 0 else (n, h, mask)
                for (n, h, mask), value in zip(facets, values) if value <= 0]
        for f, value in zip(facets, values):
            if value > 0:
                kept += _new_facets(facets, values, f, value, r, bit)
        facets = kept
    return reduced, pivots, facets


def _new_facets(facets: list, values: list[int], f: tuple, value: int, r: int, bit: int) -> list:
    """The facets through the new row (``bit``) and each ridge where the
    violated facet f meets a facet that the row satisfies strictly."""
    n, h, mask = f
    out = []
    for g, below in zip(facets, values):
        if below < 0 and (ridge := mask & g[2]).bit_count() >= r - 1 and not any(
                e is not f and e is not g and e[2] & ridge == ridge for e in facets):
            # value * g - below * f is tight at the new row and on the ridge
            normal = [value * a - below * b for a, b in zip(g[0], n)]
            out.append(_primitive(normal, value * g[1] - below * h) + (ridge | bit,))
    return out


class _Facets(NamedTuple):
    """Integer H-representation of the hull of vertex rows with scale L.

    A point y lies in the hull exactly when <n, L*y> <= h for every (n, h)
    in ``inequalities``, each n primitive over all the coordinates: first
    the facets, sorted, then each equation e.x = c of the affine hull as the
    opposite pair (e, c), (-e, -c).
    """

    scale: int
    inequalities: tuple[tuple[tuple[int, ...], int], ...]

    def contains(self, Y: Sequence[int], m: int) -> bool:
        """Is Y/m in the hull?"""
        L = self.scale
        for n, h in self.inequalities:
            if sum(map(mul, n, Y)) * L > h * m:
                return False
        return True

    def reach(self, As: Sequence, ma: int, Bs: Sequence, mb: int) -> tuple[int, int]:
        """Least t_ab, the largest t in [0, 1] with a + t(b - a) in the hull,
        over a = A/ma in it for A in As and b = B/mb for B in Bs, as
        (numerator, positive denominator).  As t_ab falls with <n, a> and
        with <n, b>, an inequality n.x <= h whose largest value hB over the b
        exceeds h bounds every t_ab by (h - hA)/(hB - hA), hA the largest
        value over the a; the least of those bounds, capped at 1.  A bound of
        0 ends the sweep; a b off the affine hull gives one, as it breaks one
        side of an equation, where every a has slack 0."""
        L = self.scale
        num, den = 1, 1
        for n, h in self.inequalities:
            nb = max([sum(map(mul, n, Y)) for Y in Bs])
            if nb * L > h * mb:
                na = max([sum(map(mul, n, X)) for X in As])
                # (h - hA)/(hB - hA) with hA = L na/ma and hB = L nb/mb
                slack, rise = (h * ma - L * na) * mb, L * (nb * ma - na * mb)
                if not slack:
                    return 0, 1
                if slack * den < num * rise:
                    num, den = slack, rise
        return num, den


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


def _canonical(rows: Sequence[Sequence[int]], scale: int) -> tuple[tuple, int]:
    """Integer rows over a positive scale without a common factor, and that
    scale."""
    if scale > 1 and (g := gcd(scale, *[x for row in rows for x in row])) > 1:
        rows, scale = [[x // g for x in row] for row in rows], scale // g
    return tuple(map(tuple, rows)), scale


def _vertex_fractions(rows: Sequence[Sequence[int]], scale: int) -> tuple[RatVec, ...]:
    """The points rows/scale as a shared tuple of shared Fraction tuples."""
    frac = Fraction if scale == 1 else lambda x: Fraction(x, scale)
    return _shared(tuple([_shared(tuple(map(frac, row))) for row in rows]))


def _vertex_rows(points: Iterable[Sequence], scale: int) -> tuple[tuple, int]:
    """The extreme points of the hull of the points divided by ``scale``, in
    lexicographic order, as canonical integer rows and their scale.

    Integer points are used as they are, others are brought to integer rows
    by the lcm of their denominators, and duplicates go.  Of more than two,
    one ``_affine_pivots`` elimination gives the affine rank r, and the
    pivot coordinates are affine coordinates on the affine hull that order
    the rows as the rows themselves sort.  Below rank 3 no
    double-description pass runs: the monotone chain on the first and last
    pivot coordinates gives the vertices (``_chain``), the two ends of
    collinear rows.  From rank 3 on, one ``_hull`` pass on that elimination
    does, and a row is a vertex unless another one lies on every facet it
    lies on."""
    pts = list(points)
    if type(scale) is not int or scale < 1:
        raise InputError("scale must be a positive integer")
    if not pts:
        raise InputError("empty point set")
    if len({len(p) for p in pts}) > 1:
        raise InputError("points of mixed dimension")
    if not pts[0]:
        raise InputError("zero-dimensional ambient space")
    if not all(type(c) is int for p in pts for c in p):
        pts, L = _int_rows([as_rat_vec(p) for p in pts])
        scale *= L
    # A positive scale keeps lexicographic order, so the integer rows sort
    # and dedupe the points.
    rows = sorted(set(map(tuple, pts)))
    if len(rows) > 2:
        elimination = _affine_pivots(rows)
        pivots = elimination[1]
        if len(pivots) < 3:
            rows = sorted(_chain(rows, pivots[0], pivots[-1]))
        else:
            on = [(1 << len(rows)) - 1] * len(rows)  # per row, the rows on all its facets
            for _, _, mask in _hull(rows, elimination)[2]:
                for i in range(len(rows)):
                    if mask >> i & 1:
                        on[i] &= mask
            rows = [row for i, row in enumerate(rows) if on[i] == 1 << i]
    return _canonical(rows, scale)


def _chain(rows: Sequence[tuple], i: int, j: int) -> list[tuple]:
    """The vertices of the hull of distinct sorted rows of affine rank 1 or
    2 by Andrew's monotone chain (1979) on the pivot coordinates i <= j of
    ``_affine_pivots``: counterclockwise in (x_i, x_j) from the first row,
    and with i = j at rank 1, where no turn is to the left, the first row
    and the last.

    The rows agree before column i, and each column between i and j is an
    affine function of column i on their plane, so lexicographic order is
    the order by (x_i, x_j) that the chain sweeps in.  A turn that is not
    strictly to the left drops the middle row, so rows inside an edge go.
    """
    def turns_left(a, b, c):
        return (b[i] - a[i]) * (c[j] - a[j]) > (b[j] - a[j]) * (c[i] - a[i])

    ring = []
    for sweep in (rows, rows[::-1]):  # the lower chain, then the upper
        chain = []
        for row in sweep:
            while len(chain) > 1 and not turns_left(chain[-2], chain[-1], row):
                chain.pop()
            chain.append(row)
        ring += chain[:-1]  # each chain's last row starts the other
    return ring


def _faces(rows: Sequence[tuple]) -> list[tuple[tuple[int, ...], int]]:
    """The inequalities of ``_Facets`` for a polytope's vertex rows (sorted
    and distinct): the facets in the pivot coordinates of
    ``_affine_pivots``, lifted to every coordinate (0 off the pivots) and
    sorted, then the equations of ``_kernel`` in opposite pairs.  Only from
    affine rank 3 on does a double-description pass give the facets: there
    is none at rank 0; at rank 1 the two ends, -1 and +1 on the pivot
    coordinate; at rank 2 one facet per edge (a, b) of the counterclockwise
    chain, whose outward normal in the pivot coordinates (i, j) is
    (b_j - a_j, a_i - b_i), with value a_i b_j - a_j b_i at a and b."""
    elimination = _affine_pivots(rows)
    reduced, pivots, _ = elimination
    d, facets = len(rows[0]), []
    if len(pivots) > 2:
        facets = [(n, h) for n, h, _ in _hull(rows, elimination)[2]]
    elif len(pivots) == 2:
        i, j = pivots
        ring = _chain(rows, i, j)
        facets = [_primitive((b[j] - a[j], a[i] - b[i]), a[i] * b[j] - a[j] * b[i])
                  for a, b in zip(ring, ring[1:] + ring[:1])]
    elif pivots:
        (c,) = pivots
        facets = [((-1,), -rows[0][c]), ((1,), rows[1][c])]
    out = []
    for n, h in sorted(facets):
        lifted = [0] * d
        for c, x in zip(pivots, n):
            lifted[c] = x
        out.append((tuple(lifted), h))
    for e in _kernel(reduced, pivots, d):
        e, c = _primitive(e, sum(map(mul, e, rows[0])))
        out += [(e, c), (tuple([-x for x in e]), -c)]
    return out


def hull_vertices(points: Iterable[Sequence], scale: int = 1) -> tuple[RatVec, ...]:
    """Extreme points of the convex hull of the points divided by ``scale``
    (a positive integer), in lexicographic order, as shared Fraction tuples;
    see ``_vertex_rows``."""
    return _vertex_fractions(*_vertex_rows(points, scale))


class RationalPolytope:
    """Convex hull of finitely many rational points, ``points`` divided by
    ``scale`` (a positive integer).

    The vertices are computed once at construction, in lexicographic order,
    as integer ``rows`` over their least common ``scale``; equality and
    hashing go on those.  The facet description of the rows is built on the
    first query and the shared Fraction tuples of ``vertices`` on its first
    read, and both are kept.  Instances are immutable and thread-safe.
    """

    __slots__ = ("rows", "scale", "_vertices", "_store")

    def __init__(self, points: Iterable[Sequence], scale: int = 1):
        self.rows, self.scale = _vertex_rows(points, scale)
        self._vertices = self._store = None

    @property
    def vertices(self) -> tuple[RatVec, ...]:
        if self._vertices is None:
            self._vertices = _vertex_fractions(self.rows, self.scale)
        return self._vertices

    @property
    def dim(self) -> int:
        return len(self.rows[0])

    def __repr__(self):
        return f"RationalPolytope(vertices={[tuple(map(str, v)) for v in self.vertices]})"

    def __eq__(self, other):
        return isinstance(other, RationalPolytope) and (self.rows, self.scale) == (
            other.rows, other.scale)

    def __hash__(self):
        return hash((self.rows, self.scale))

    def _checked(self, y: Sequence, what: str = "point") -> RatVec:
        vec = as_rat_vec(y)
        if len(vec) != self.dim:
            raise InputError(f"{what} has dimension {len(vec)}, polytope has {self.dim}")
        return vec

    def support_value(self, x: Sequence) -> Fraction:
        """max over the polytope of <x, y>; attained at a vertex."""
        direction = self._checked(x, "direction")
        return max(dot(direction, v) for v in self.vertices)

    def _row(self, y: Sequence) -> tuple[Sequence[int], int]:
        """The point y as an integer row over a positive scale."""
        if type(y) is tuple and len(y) == self.dim and all(type(c) is int for c in y):
            return y, 1
        (row,), m = _int_rows([self._checked(y)])
        return row, m

    def _facets(self) -> _Facets:
        """The H-representation of the hull of the vertex rows as one list
        of integer inequalities over every coordinate, built on the first
        query by ``_faces``, a ``_hull`` pass only from affine rank 3 on; a
        polytope that is never queried holds none."""
        if self._store is None:
            self._store = _Facets(self.scale, tuple(_faces(self.rows)))
        return self._store

    def contains_point(self, y: Sequence) -> bool:
        """Exact membership, read off the polytope's facet description."""
        return self._facets().contains(*self._row(y))

    def reach(self, a: Sequence, b: Sequence) -> Fraction:
        """Largest t in [0, 1] with a + t*(b - a) in the polytope, the facet
        store's reach over one pair; an a outside is an ``InputError``."""
        facets, (A, ma) = self._facets(), self._row(a)
        if not facets.contains(A, ma):
            raise InputError("reach needs a starting point inside the polytope")
        B, mb = self._row(b)
        return Fraction(*facets.reach([A], ma, [B], mb))

    def scaled(self, s) -> "RationalPolytope":
        """The polytope s*P for a rational s >= 0, without a hull pass: for
        s > 0 the scaled vertices are exactly the vertices of s*P, in the
        same order; for s = 0 they all collapse to the origin."""
        factor = s if type(s) is int else Fraction(s)
        if factor < 0:
            raise InputError("scaling factor must be nonnegative")
        k = factor.numerator
        out = object.__new__(RationalPolytope)
        rows = self.rows[:1] if k == 0 else self.rows
        out.rows, out.scale = _canonical([[k * x for x in row] for row in rows],
                                         self.scale * factor.denominator)
        out._vertices = out._store = None
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
    # s*X/L + t*Y/M over the common scale of both terms
    a = sf.numerator * tf.denominator * Q.scale
    b = tf.numerator * sf.denominator * P.scale
    combos = [[a * x + b * y for x, y in zip(X, Y)] for X in P.rows for Y in Q.rows]
    return RationalPolytope(combos, sf.denominator * tf.denominator * P.scale * Q.scale)


def _first_outside(P: RationalPolytope, Q: RationalPolytope) -> int | None:
    """Index of the first vertex row of Q (lexicographic order) not in P, if
    any.  A vertex row of Q among P's is inside; P's facet description is
    read only for the others."""
    if P.dim != Q.dim:
        raise InputError("polytopes of different dimension")
    for i, X in enumerate(Q.rows):
        if (Q.scale != P.scale or X not in P.rows) and not P._facets().contains(X, Q.scale):
            return i
    return None


def first_outside_vertex(P: RationalPolytope, Q: RationalPolytope) -> RatVec | None:
    """First vertex of Q (lexicographic order) not contained in P, if any."""
    i = _first_outside(P, Q)
    return None if i is None else Q.vertices[i]


def includes(P: RationalPolytope, Q: RationalPolytope) -> bool:
    """True iff Q is a subset of P (every vertex of Q lies in P)."""
    return _first_outside(P, Q) is None


def simplex_contains(a: Sequence[int], k: int, ctx: LatticeContext) -> bool:
    """Does the diagonal coset of weight ``a`` meet k times the standard simplex?

    Closed form: with s = (k - sum(a))/(N+1), the shifted representative
    a + s*(1,...,1) has coordinate sum k, and lies on the scaled simplex iff
    every shifted coordinate is nonnegative, that is (N+1)*c + k - sum(a)
    >= 0 for every coordinate c, an integer test.
    """
    if ctx.mode != "sl":
        raise ModeError("simplex_contains is an sl-mode test")
    if k <= 0:
        raise InputError("simplex scale must be a positive integer")
    vec = ctx.check_weight(a)
    n, shift = ctx.ambient_dim, k - sum(vec)
    return all(n * c + shift >= 0 for c in vec)
