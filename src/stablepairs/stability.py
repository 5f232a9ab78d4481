"""K-stability decisions for pairs of weight supports.

The central objects are a pair of weight supports A(v), A(w) together with a
degree q and an identity polytope N(I).  All decisions reduce to exact
polytope geometry on the weight polytopes:

* semistable  <=>  N(v) is contained in N(w),
* stable      <=>  semistable, and no direction attains equal minima on
                   N(v) and N(w) while the minimum on q*N(I) is strictly
                   smaller,
* uniformly stable with margin m  <=>
                   (1 - 1/m) N(v) + (1/m) q N(I)  is contained in  N(w).

For a semistable pair the last two are one question.  With t_ab the reach of
the segment from a vertex a of N(v) towards a vertex b of q*N(I) inside
N(w), the pair is stable exactly when every t_ab is positive, and then the
least margin is m = ceil(1 / min t_ab).  That least reach takes no pair:
each inequality n.x <= h of N(w), a facet or one side of an affine-hull
equation, needs only the largest values of n on N(v) and q*N(I), so one pass
over them, without an LP, decides stability and fixes m.  Only a zero walks
the pairs: a stability LP runs at each pair of zero reach (elsewhere its
optimum cannot be positive) until one gives the witness of an unstable pair.
Each query of N(w)'s facet store names the row that decides it: the first
one that an escaped vertex of N(v) breaks, or the one of the least reach.

In sl mode the geometry happens on the trace-zero projections of the
integer weights, kept as integers N times over, while every weight
evaluation stays on the integer representatives (the two agree on trace-zero
directions, which is all a one-parameter subgroup of SL can be).

The decisions read the integer vertex rows of the polytopes only: the
reaches, the inclusion test and the rows of every witness LP, which go to
``lp`` as integers over one denominator, so deciding builds no Fraction
vertex tuple.

Every returned witness is a primitive integer vector and is re-verified by
direct weight evaluation before being handed back, so a witness is always a
standalone machine-checkable certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import gcd
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .lattice import (EQ, GEQ, LEQ, Constraint, InputError, IntVec, LatticeContext, ModeError,
                      _Record, dot, standard_simplex)
from .polytope import (
    RationalPolytope,
    _first_outside,
    _shared,
    includes,
    minkowski_combine,  # noqa: F401  (bench/tracing.py wraps it by this name)
    simplex_contains,
)


class WeightSupport(_Record):
    """Finite nonempty set of integer weights sharing a context.

    Weights are deduplicated and kept in lexicographic order, so equal
    supports compare equal and every downstream iteration is deterministic.
    """

    __slots__ = _fields = ("weights", "context")

    def __init__(self, weights: Iterable[Sequence[int]], context: LatticeContext):
        checked = sorted({context.check_weight(a) for a in weights})
        if not checked:
            raise InputError("a weight support must be nonempty")
        object.__setattr__(self, "weights", tuple(checked))
        object.__setattr__(self, "context", context)

    def __len__(self):
        return len(self.weights)

    def geometry_rows(self) -> tuple[tuple[IntVec, ...], int]:
        """Weights as geometry coordinates, in integer rows over one scale:
        literal with scale 1 in free mode; in sl mode N*a - sum(a)*(1,...,1)
        with scale N = ``ambient_dim``, N times the trace-zero projection."""
        if self.context.mode == "sl":
            n = self.context.ambient_dim
            return tuple([tuple([n * c - s for c in a])
                          for a, s in zip(self.weights, map(sum, self.weights))]), n
        return self.weights, 1

    def shifted(self, offset: Sequence[int]) -> "WeightSupport":
        off = self.context.check_weight(offset)
        return WeightSupport(
            [tuple(c + o for c, o in zip(a, off)) for a in self.weights],
            self.context,
        )


def weight(lam: Sequence[int], A: WeightSupport) -> int:
    """Weight of a one-parameter subgroup against a support: the minimum
    pairing over the support.  Equals -support_value(hull(A), -lam)."""
    vec = A.context.check_one_param(lam)
    return min(dot(vec, a) for a in A.weights)


def deg_of_V(all_rep_weights: WeightSupport, ctx: LatticeContext) -> int:
    """Least k >= 1 such that every listed weight's coset meets k times the
    standard simplex.

    Hull containment reduces to its vertices, so feeding the full weight
    list of a representation here computes its degree.
    """
    if ctx.mode != "sl":
        raise ModeError("deg_of_V needs sl mode; supply q explicitly otherwise")
    if all_rep_weights.context != ctx:
        raise InputError("weight support context mismatch")
    # simplex_contains(a, k) holds iff k >= sum(a) - (N+1)*min(a); the bound
    # is an integer, so the minimal k is available in closed form.
    n = ctx.ambient_dim
    k = max(sum(a) - n * min(a) for a in all_rep_weights.weights)
    k = max(k, 1)
    assert all(simplex_contains(a, k, ctx) for a in all_rep_weights.weights)
    return k


@lru_cache(maxsize=64)
def _sl_identity(ctx: LatticeContext, q: int) -> tuple[RationalPolytope, ...]:
    """N(I) in sl mode: the standard simplex, its trace-zero projection and q
    times that projection.  They depend on the context and q alone and are
    immutable, so instances share them instead of each holding a copy."""
    identity = standard_simplex(ctx, 1)
    geom = RationalPolytope(*WeightSupport(identity.rows, ctx).geometry_rows())
    return identity, geom, geom.scaled(q)


class PairInstance(_Record):
    """A (v, w, q, N(I)) problem statement, validated at construction.

    Rejected unless N(v) is contained in q*N(I) and (in free mode) the
    identity polytope contains the origin.  sl-mode instances always use the
    standard simplex as identity.  An instance may keep equal supports,
    hulls and (in free mode) an equal identity polytope built earlier in
    place of its own.

    An immutable value: equality and hashing go over (Av, Aw, q, identity),
    which fix everything else it holds.
    """

    __slots__ = (
        "Av", "Aw", "q", "context", "identity",
        "hull_v", "hull_w", "identity_geom", "q_identity",
    )
    _fields = ("Av", "Aw", "q", "identity")

    def __init__(self, Av: WeightSupport, Aw: WeightSupport, q: int,
                 identity: RationalPolytope | None = None):
        if Av.context != Aw.context:
            raise InputError("v and w supports live in different contexts")
        ctx = Av.context
        if type(q) is not int or q < 1:
            raise InputError("q must be a positive integer")

        if ctx.mode == "sl":
            if identity is not None:
                raise InputError("sl mode fixes the identity polytope; do not pass one")
            for a in Av.weights:
                if not simplex_contains(a, q, ctx):
                    raise InputError(
                        f"weight {a} of A(v) escapes {q} times the standard simplex; "
                        f"q is too small"
                    )
            identity, identity_geom, q_identity = _sl_identity(ctx, q)
        else:
            if identity is None:
                raise InputError("free mode requires an explicit identity polytope")
            if identity.dim != ctx.ambient_dim:
                raise InputError("identity polytope dimension mismatch")
            # shared first, so equal identities share one facet description
            identity = identity_geom = _shared(identity)
            if not identity.contains_point((0,) * identity.dim):
                raise InputError("identity polytope must contain the origin")
            q_identity = _shared(identity.scaled(q))

        Av, Aw = _shared(Av), _shared(Aw)
        hull_v = _shared(RationalPolytope(*Av.geometry_rows()))
        hull_w = _shared(RationalPolytope(*Aw.geometry_rows()))
        for name, value in (("Av", Av), ("Aw", Aw), ("q", q), ("identity", identity),
                            ("context", ctx), ("hull_v", hull_v), ("hull_w", hull_w),
                            ("identity_geom", identity_geom),
                            ("q_identity", q_identity)):
            object.__setattr__(self, name, value)

        if ctx.mode == "free" and not includes(q_identity, hull_v):
            raise InputError("N(v) is not contained in q times the identity polytope")

    def __repr__(self):
        return (f"PairInstance(|Av|={len(self.Av)}, |Aw|={len(self.Aw)}, "
                f"q={self.q}, mode={self.context.mode!r})")

    def identity_weight(self, lam: Sequence[int]) -> Fraction:
        """w_lam(I) against the unscaled identity polytope's vertex set."""
        vec = self.context.check_one_param(lam)
        I = self.identity
        return Fraction(min([dot(vec, Y) for Y in I.rows]), I.scale)


class FrameFamily(_Record):
    """Torus-aligned snapshots of one pair; verdicts conjoin over frames.

    Equal frames, equal tuples of them and an equal family built earlier
    are kept in place of new ones: constructing a family returns the
    shared instance.  Without frames, as copy and pickle call it, it
    returns a blank instance for them to fill in.
    """

    __slots__ = _fields = ("frames",)

    def __new__(cls, frames: Iterable[PairInstance] | None = None):
        if frames is None:
            return super().__new__(cls)
        fr = tuple(frames)
        if not fr:
            raise InputError("a frame family must be nonempty")
        ctx, q = fr[0].context, fr[0].q
        for f in fr[1:]:
            if f.context != ctx or f.q != q:
                raise InputError("frames must share context and q")
        family = super().__new__(cls)
        object.__setattr__(family, "frames", _shared(tuple([_shared(f) for f in fr])))
        return _shared(family)


class StabilityVerdict(_Record):
    """Semistable and stable flags, the least uniform margin of a stable
    family, and the witness of a failing one with its frame index."""

    __slots__ = _fields = ("semistable", "stable", "uniform_m", "witness",
                           "frame_index")

    def __init__(self, semistable: bool, stable: bool, uniform_m: int | None = None,
                 witness: IntVec | None = None, frame_index: int | None = None):
        object.__setattr__(self, "semistable", semistable)
        object.__setattr__(self, "stable", stable)
        object.__setattr__(self, "uniform_m", uniform_m)
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "frame_index", frame_index)


# ---------------------------------------------------------------------------
# LP plumbing.  Every LP the package poses extracts a direction: a
# semistability or stability witness here, or a degeneration direction.  All
# of them go through ``_best_direction``, which constrains the direction to
# the box [-1, 1]^d (a compact normalization slice, so strict inequalities
# become "optimum > 0") and to the trace-zero hyperplane in sl mode.  Every
# row is written in integers over one denominator (``lattice.Constraint``),
# straight from the integer vertex rows of the polytopes, and is
# homogeneous (right-hand side 0).  Where the directions span at most a
# plane (free rank <= 2, sl(<= 3)), the program is settled in closed form,
# and an LP runs only for the least-l1 stage of an sl(3) tie.

def _direction_frame_constraints(ctx: LatticeContext, num_vars: int) -> list:
    d = ctx.ambient_dim
    units = [tuple([int(j == i) for j in range(num_vars)]) for i in range(d)]
    cons = [Constraint(e, rel, rhs, 1) for e in units for rel, rhs in ((LEQ, 1), (GEQ, -1))]
    if ctx.mode == "sl":
        cons.append(Constraint((1,) * d + (0,) * (num_vars - d), EQ, 0, 1))
    return cons


def _direction_program(ctx: LatticeContext, rows: list, objective: Sequence[int],
                       den: int):
    """The ``lp.LinearProgram`` of ``_best_direction``: the box frame, then
    ``rows``.  ``lp.solve_min_l1`` solves it from free rank 3 and sl(4) on;
    below, the least-l1 stage of an sl(3) tie runs on it.

    A row with all-zero coefficients and right-hand side 0 constrains
    nothing and is dropped.  It has no entry in any other column, so it never
    wins a ratio test or moves a reduced cost: Bland's rule takes the same
    pivots over the shifted column indices, and the result is the same.
    """
    from . import lp
    num_vars = len(objective)
    cons = _direction_frame_constraints(ctx, num_vars)
    cons += [con for con in rows if con.rhs or any(con.coeffs)]
    return lp.LinearProgram(num_vars, tuple(cons), tuple(objective), den)


def _best_direction(ctx: LatticeContext, rows: list, objective: Sequence[int],
                    den: int) -> IntVec | None:
    """Primitive integral direction of least l1 norm among the maximizers of
    ``objective``/``den`` subject to the box frame and then ``rows``
    (``lattice.Constraint``), or None when the optimum is not positive.

    The first ``ambient_dim`` variables are the direction; a program may
    carry one more, c, such as a separation level.  Every caller keeps one
    contract: the rows are homogeneous (right-hand side 0), so the program
    is feasible at the origin, as ``lp.solve_min_l1`` requires; a row that
    holds c is a ">=" row with a negative coefficient on c, an upper bound
    on c; the objective does not lower c, and raises it only where a row
    bounds it, so the program has an optimum.  ``_best_in_plane`` raises
    RuntimeError on any other program, the LP path on an unbounded one.
    A positive optimum with a single least-l1 point gives that point
    whatever the pivot path; where least-l1 points tie, the least-l1 stage
    picks one, breaking ties by its pivot path, so the row order of
    ``_direction_program`` fixes witnesses.

    Where the directions span at most a plane, ``_best_in_plane`` settles
    the program without an LP, but for the stage of a tie; ``lp`` is
    imported only where a program is solved.
    """
    d = ctx.ambient_dim
    if d - (ctx.mode == "sl") <= 2:
        return _best_in_plane(ctx, rows, objective, den)
    from . import lp
    result = lp.solve_min_l1(_direction_program(ctx, rows, objective, den), range(d))
    if result.value <= 0:
        return None
    return lp.rationalize_direction(result.point[:d])


def _lift(basis: tuple[IntVec, ...], t: Sequence[int]) -> IntVec:
    """The direction sum(t_i * basis_i)."""
    return tuple([sum(map(mul, column, t)) for column in zip(*basis)])


@lru_cache(maxsize=16)
def _plane(ctx: LatticeContext) -> tuple[tuple[IntVec, ...], tuple]:
    """For a context whose directions span at most a plane: a basis of the
    directions, e_i in free mode and e_i - e_d in sl mode, and the nonzero
    points t of {-1, 0, 1}^k, k the dimension, whose direction
    ``_lift(basis, t)`` lies in the box, as (t, direction) pairs.  Those
    are the corners of the box frame and, in free rank 2, the midpoints of
    its edges, where a coordinate changes sign; in sl(3), as on a line, a
    coordinate changes sign only at corners."""
    d, sl = ctx.ambient_dim, ctx.mode == "sl"
    basis = tuple([tuple([(j == i) - (sl and j == d - 1) for j in range(d)])
                   for i in range(d - sl)])
    points = [(t, lam) for t in product((1, 0, -1), repeat=len(basis))
              if any(t) and max(map(abs, lam := _lift(basis, t))) == 1]
    return basis, tuple(points)


def _best_in_plane(ctx: LatticeContext, rows: list, objective: Sequence[int],
                   den: int) -> IntVec | None:
    """``_best_direction`` where the directions span at most a plane: free
    rank <= 2 and sl(<= 3).  Every row and the objective are read in the
    coordinates t of ``_plane``'s basis.  A program outside the contract of
    ``_best_direction`` raises RuntimeError.

    A row without the extra variable c reads a.t >= 0 (a "<=" row is its
    negation, an "=" row both), and a row with c bounds it from above,
    c <= a.t / b with b > 0.  Where the objective raises c, the best value
    F(t) is gain.t + rise * min(a.t / b) over those bounds; where it
    ignores c, c can sit below every bound and F(t) is gain.t.  Either way
    F is concave and positively homogeneous on the cone of directions
    where the rows without c hold.  A positive optimum lies on the frame's
    boundary, where scaling t up would not raise it, and the frame's gauge
    is max |lam_i|.  Along that boundary F changes slope, or the cone ends,
    only at a corner or where a line through the origin crosses: the zero
    set of a row without c, or a tie of two bounds on c.  The least-l1
    maximizer lies at one of those points or where a coordinate changes
    sign.  So the candidates are ``_plane``'s points and the two boundary
    points of every such line, and each is evaluated exactly: its value
    over its gauge, compared by cross-multiplication.

    The maximizers form one segment of one edge of the frame.  In free rank
    2 the l1 norm on an edge (1, s) is 1 + |s|, so one candidate has the
    least.  On a hexagon edge in sl(3) it is 2, so a segment of positive
    length is a tie: ``lp.least_l1_stage`` then picks from
    ``_direction_program`` with the exact optimum, as ``lp.solve_min_l1``
    would.  On a line the candidates are the two unit directions +-e, and
    F(e) + F(-e) <= 2 F(0) = 0, so at most one is positive; sl(1) has none.
    """
    d = ctx.ambient_dim
    basis, points = _plane(ctx)
    rise = objective[d] if len(objective) > d else 0  # on c
    pure, highs = {}, []  # a for a.t >= 0; (a, b) for c <= a.t / b
    for con in rows:
        if con.rhs:
            raise RuntimeError("internal: a direction row is not homogeneous")
        a = [sum(map(mul, con.coeffs, e)) for e in basis]
        b = con.coeffs[d] if len(con.coeffs) > d else 0
        if b:
            if b > 0 or con.relation != GEQ:
                raise RuntimeError("internal: a direction row bounds the extra variable "
                                   "other than from above")
            highs.append((a, -b))
        elif any(a):
            g = gcd(*a)
            for sign in {LEQ: (-g,), EQ: (g, -g), GEQ: (g,)}[con.relation]:
                pure[tuple([x // sign for x in a])] = None
    if rise < 0 or rise and not highs:
        raise RuntimeError("internal: the program is unbounded")
    if not rise:
        highs = []  # c sits below every bound, so none of them counts

    candidates = dict(points)
    if len(basis) == 2:
        # a.t / x = c.t / y on the line (y a - x c).t = 0
        ties = [[y * u - x * v for u, v in zip(a, c)]
                for (a, x), (c, y) in combinations(highs, 2)]
        for p, q in [*pure, *ties]:
            if p or q:
                g = gcd(p, q)
                for t in ((q // g, -p // g), (-q // g, p // g)):
                    if t not in candidates:
                        candidates[t] = _lift(basis, t)

    gain = [sum(map(mul, objective, e)) for e in basis]  # the objective on t
    best_num, best_den, tied = 0, 1, []
    for t, lam in candidates.items():
        if any(sum(map(mul, a, t)) < 0 for a in pure):
            continue
        high = None  # the least bound on c, k / b
        for a, b in highs:
            k = sum(map(mul, a, t))
            if high is None or k * high[1] < high[0] * b:
                high = (k, b)
        k, b = high or (0, 1)
        num = sum(map(mul, gain, t)) * b + rise * k
        num_den = b * max(map(abs, lam))
        if num * best_den > best_num * num_den:
            best_num, best_den, tied = num, num_den, [lam]
        elif num * best_den == best_num * num_den and num > 0:
            tied.append(lam)
    if len(tied) > 1:
        norms = [Fraction(sum(map(abs, lam)), max(map(abs, lam))) for lam in tied]
        tied = [lam for lam, norm in zip(tied, norms) if norm == min(norms)]
    if len(tied) <= 1:
        return tied[0] if tied else None
    from . import lp
    point = lp.least_l1_stage(_direction_program(ctx, rows, objective, den), range(d),
                              Fraction(best_num, best_den * den))
    return lp.rationalize_direction(point[:d])


def _argmin_constraints(B: Sequence[int], mb: int, points: Sequence, mp: int) -> list:
    """<lam, p - b> >= 0 for every p, i.e. b attains the minimum, for b = B/mb
    and the points P/mp of the integer rows P in ``points``."""
    return [Constraint(tuple([x * mb - y * mp for x, y in zip(P, B)]), GEQ, 0, mb * mp)
            for P in points]


def _semistability_witness(p: PairInstance, X: Sequence[int]) -> IntVec:
    """Integral direction separating the escaped vertex m' = X/L of N(v),
    L the scale of its rows, from N(w).

    Solves max c - <lam, m'> over (lam, c) subject to <lam, y> >= c on the
    vertices of N(w); a positive optimum is guaranteed because m' lies
    strictly outside.  A positive optimum puts the minimum of lam on N(w)
    above its value at m', and lam is trace-zero in sl mode, so lam itself
    certifies w_lam(w) > w_lam(v); that is re-verified by direct evaluation.
    """
    W = p.hull_w
    rows = [Constraint(Y + (-W.scale,), GEQ, 0, W.scale) for Y in W.rows]
    L = p.hull_v.scale
    lam = _best_direction(p.context, rows, [-x for x in X] + [L], L)
    if lam is None:
        raise RuntimeError("internal: separation LP failed on an escaped vertex")
    if weight(lam, p.Aw) <= weight(lam, p.Av):
        raise RuntimeError("internal: separating direction failed re-verification")
    return lam


def is_semistable(p: PairInstance) -> tuple[bool, IntVec | None]:
    """Decide w_lam(w) <= w_lam(v) for every one-parameter subgroup.

    Equivalent to N(v) being contained in N(w); on failure returns an
    integral witness with w_lam(w) > w_lam(v).
    """
    outside = _first_outside(p.hull_w, p.hull_v)
    if outside is None:
        return True, None
    return False, _semistability_witness(p, p.hull_v.rows[outside[0]])


def _stability_witness(p: PairInstance, U: Sequence[int], R: Sequence[int]) -> IntVec | None:
    """Integral lam with w_lam(v) = w_lam(w) and q*w_lam(I) < w_lam(v) that
    attains its minima at the vertex u of N(v) and the vertex p_hat of
    q*N(I), or None when there is none; U and R are their integer rows.

    One LP: constrain u and p_hat to be the argmin vertices, force
    w_lam(w) >= w_lam(v) (equality then follows from semistability), and
    maximize the strictness margin <lam, u - p_hat>.  Its optimum is
    positive only where the reach from u to p_hat is zero, and then gives
    the witness, re-verified by direct weight evaluation.
    """
    V, Q, W = p.hull_v, p.q_identity, p.hull_w
    # Row order is frame, v-argmin, p_hat-argmin, w-argmin: ties in the
    # min-l1 stage are broken by the pivot path, so it fixes witnesses.
    rows = (_argmin_constraints(U, V.scale, V.rows, V.scale)
            + _argmin_constraints(R, Q.scale, Q.rows, Q.scale)
            + _argmin_constraints(U, V.scale, W.rows, W.scale))
    objective = [x * Q.scale - y * V.scale for x, y in zip(U, R)]  # u - p_hat
    lam = _best_direction(p.context, rows, objective, V.scale * Q.scale)
    if lam is None:
        return None
    wv = weight(lam, p.Av)
    ww = weight(lam, p.Aw)
    wq = p.q * p.identity_weight(lam)
    if ww != wv or wq >= wv:
        raise RuntimeError("internal: stability witness failed re-verification")
    return lam


class _Reach(NamedTuple):
    """A semistable frame's least reach num/den, the index of the row of N(w)
    attaining it, and if 0, the vertex rows (U, R) that gave the witness."""

    num: int
    den: int
    row: int | None
    pair: tuple[IntVec, IntVec] | None = None
    witness: IntVec | None = None


def _margin_or_witness(p: PairInstance) -> _Reach:
    """Decide stability of a semistable frame together with its margin: a
    positive least reach t when stable, with m = ceil(1 / t), and otherwise
    a zero reach with a stability witness.

    For vertices a of N(v) and b of q*N(I), t_ab is the largest t in [0, 1]
    with a + t(b - a) in N(w); each a lies in the convex N(w), so those t
    form the interval [0, t_ab].  (1 - 1/m) N(v) + (1/m) q N(I) is the hull
    of the points a + (1/m)(b - a), so it fits in N(w) exactly when
    1/m <= t_ab for every pair.  ``_Facets.reach`` of both vertex sets gives
    t = min t_ab and its row in one pass over N(w)'s inequalities.

    The frame is stable exactly when every t_ab is positive.  t_ab = 0 means
    b - a leaves the tangent cone of N(w) at a, i.e. some lam in the normal
    cone of N(w) at a has <lam, b - a> < 0; that lam attains equal minima
    on N(v) and N(w) at a and a strictly smaller minimum on q*N(I), which is
    a violation.  Conversely a violation's argmins u, p_hat give
    t_{u p_hat} = 0.  In sl mode the same holds inside the trace-zero
    hyperplane, where all the projected points lie.

    So only a zero least reach walks the pairs, a over the rows of N(v) and
    then b over those of q*N(I), and the witness LP runs at each pair of
    zero reach until one is positive.  A vertex a with a zero reach always
    yields a witness: the lam above attains its minimum on q*N(I) at a
    vertex p_hat, and t_{a p_hat} = 0.
    """
    V, Q = p.hull_v, p.q_identity
    facets = p.hull_w._facets()
    least = _Reach(*facets.reach(V.rows, V.scale, Q.rows, Q.scale))
    if least.num:
        return least
    for A, B in product(V.rows, Q.rows):
        if not facets.reach([A], V.scale, [B], Q.scale)[0] and (
                lam := _stability_witness(p, A, B)) is not None:
            return least._replace(pair=(A, B), witness=lam)
    raise RuntimeError("internal: zero segment reach without a stability witness")


def is_stable(p: PairInstance) -> tuple[bool, IntVec | None]:
    """Decide K-stability.  On failure the witness certifies whichever clause
    broke: either w_lam(w) > w_lam(v), or equality together with
    q*w_lam(I) < w_lam(v).  A view of ``verdict`` on the single frame."""
    v = verdict(FrameFamily([p]))
    return v.stable, v.witness


def minimal_uniform_m(p: PairInstance) -> int | None:
    """Least m >= 1 with (1 - 1/m) N(v) + (1/m) q N(I) inside N(w), or None
    when the instance is not stable.  A view of ``verdict`` on the single
    frame; the margin comes from the same least segment reach that decides
    stability (see ``_margin_or_witness``)."""
    return verdict(FrameFamily([p])).uniform_m


def check_tian0(p: PairInstance, m: int, lam: Sequence[int]) -> bool:
    """Exact evaluation of m*(w_lam(v) - w_lam(w)) >= w_lam(v) - q*w_lam(I)."""
    if type(m) is not int or m < 1:
        raise InputError("m must be a positive integer")
    vec = p.context.check_one_param(lam)
    wv = weight(vec, p.Av)
    ww = weight(vec, p.Aw)
    wq = p.q * p.identity_weight(vec)
    return m * (wv - ww) >= wv - wq


def verdict(family: FrameFamily) -> StabilityVerdict:
    """Conjoin per-frame decisions; witness and frame index come from the
    first failing frame, and the uniform margin is the max over frames.

    Semistability is decided first on every frame.  Then one least segment
    reach per frame decides stability and gives that frame's margin; the
    per-(u, p_hat) stability LP runs only at the zero reaches of the first
    frame found unstable, to extract its witness.
    """
    for idx, frame in enumerate(family.frames):
        ok, wit = is_semistable(frame)
        if not ok:
            return _shared(StabilityVerdict(
                semistable=False, stable=False, witness=wit, frame_index=idx
            ))
    margins = []
    for idx, frame in enumerate(family.frames):
        least = _margin_or_witness(frame)
        if least.witness is not None:
            return _shared(StabilityVerdict(
                semistable=True, stable=False, witness=least.witness, frame_index=idx
            ))
        margins.append(-(-least.den // least.num))
    return _shared(
        StabilityVerdict(semistable=True, stable=True, uniform_m=max(margins)))
