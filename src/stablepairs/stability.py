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

For a semistable pair the last two are one question.  With t_ab the reach
of the segment from a vertex a of N(v) towards a vertex b of q*N(I) inside
N(w), the pair is stable exactly when every t_ab is positive, and then the
least margin is m = ceil(1 / min t_ab).  So one pass of segment reaches,
read off the facet description of N(w) without an LP, decides stability
and fixes m; a direction LP runs only to extract the witness of an
unstable pair.

In sl mode the geometry happens on the trace-zero projections of the
integer weights, while every weight evaluation stays on the integer
representatives (the two agree on trace-zero directions, which is all a
one-parameter subgroup of SL can be).

Every returned witness is a primitive integer vector and is re-verified by
direct weight evaluation before being handed back, so a witness is always a
standalone machine-checkable certificate.
"""

from __future__ import annotations

from functools import lru_cache
from fractions import Fraction
from math import ceil
from typing import Iterable, Sequence

from . import lp
from .lattice import (
    InputError,
    IntVec,
    LatticeContext,
    ModeError,
    _Record,
    dot,
    standard_simplex,
)
from .polytope import (
    RationalPolytope,
    _shared,
    first_outside_vertex,
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

    def geometry_points(self) -> tuple:
        """Weights as geometry coordinates: projected in sl mode, literal
        otherwise."""
        if self.context.mode == "sl":
            return tuple([self.context.project_sl(a) for a in self.weights])
        return tuple([tuple([Fraction(c) for c in a]) for a in self.weights])

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
    geom = RationalPolytope([ctx.project_sl(v) for v in identity.vertices])
    return identity, geom, geom.scaled(q)


class PairInstance:
    """A (v, w, q, N(I)) problem statement, validated at construction.

    Rejected unless N(v) is contained in q*N(I) and (in free mode) the
    identity polytope contains the origin.  sl-mode instances always use the
    standard simplex as identity.  An instance may keep equal supports,
    hulls and (in free mode) an equal identity polytope built earlier in
    place of its own.
    """

    __slots__ = (
        "Av", "Aw", "q", "context", "identity",
        "hull_v", "hull_w", "identity_geom", "q_identity",
    )

    def __init__(self, Av: WeightSupport, Aw: WeightSupport, q: int,
                 identity: RationalPolytope | None = None):
        if Av.context != Aw.context:
            raise InputError("v and w supports live in different contexts")
        ctx = Av.context
        if not isinstance(q, int) or q < 1:
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
            if not identity.contains_point((Fraction(0),) * identity.dim):
                raise InputError("identity polytope must contain the origin")
            identity = identity_geom = _shared(identity)
            q_identity = _shared(identity.scaled(q))

        self.Av = _shared(Av)
        self.Aw = _shared(Aw)
        self.q = q
        self.context = ctx
        self.identity = identity
        self.identity_geom = identity_geom
        self.q_identity = q_identity
        self.hull_v = _shared(RationalPolytope(Av.geometry_points()))
        self.hull_w = _shared(RationalPolytope(Aw.geometry_points()))

        if ctx.mode == "free" and not includes(self.q_identity, self.hull_v):
            raise InputError("N(v) is not contained in q times the identity polytope")

    def __repr__(self):
        return (f"PairInstance(|Av|={len(self.Av)}, |Aw|={len(self.Aw)}, "
                f"q={self.q}, mode={self.context.mode!r})")

    def identity_weight(self, lam: Sequence[int]) -> Fraction:
        """w_lam(I) against the unscaled identity polytope's vertex set."""
        vec = self.context.check_one_param(lam)
        return min(dot(vec, y) for y in self.identity.vertices)


class FrameFamily(_Record):
    """Torus-aligned snapshots of one pair; verdicts conjoin over frames."""

    __slots__ = _fields = ("frames",)

    def __init__(self, frames: Iterable[PairInstance]):
        fr = tuple(frames)
        if not fr:
            raise InputError("a frame family must be nonempty")
        ctx, q = fr[0].context, fr[0].q
        for f in fr[1:]:
            if f.context != ctx or f.q != q:
                raise InputError("frames must share context and q")
        object.__setattr__(self, "frames", fr)


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
# LP plumbing.  Every LP the package solves extracts a direction: a
# semistability or stability witness here, or a degeneration direction.  All
# of them go through ``_best_direction``, which constrains the direction to
# the box [-1, 1]^d (a compact normalization slice, so strict inequalities
# become "optimum > 0") and to the trace-zero hyperplane in sl mode.

def _direction_frame_constraints(ctx: LatticeContext, num_vars: int) -> list:
    d = ctx.ambient_dim
    cons = []
    for i in range(d):
        row = [Fraction(0)] * num_vars
        row[i] = Fraction(1)
        cons.append((row, lp.LEQ, 1))
        cons.append((list(row), lp.GEQ, -1))
    if ctx.mode == "sl":
        row = [Fraction(0)] * num_vars
        for i in range(d):
            row[i] = Fraction(1)
        cons.append((row, lp.EQ, 0))
    return cons


def _best_direction(ctx: LatticeContext, rows: list, objective: list) -> IntVec | None:
    """Primitive integral direction of least l1 norm among the maximizers of
    ``objective`` subject to the box frame and then ``rows``, or None when
    the optimum is not positive.

    The first ``ambient_dim`` variables are the direction; a program may
    carry one more, such as a separation level.  Every caller's program is
    feasible at the origin and bounded on the box, so any status other than
    optimal is an internal error.
    """
    d = ctx.ambient_dim
    num_vars = len(objective)
    cons = _direction_frame_constraints(ctx, num_vars) + rows
    result = lp.solve_min_l1(lp.linear_program(num_vars, cons, objective), range(d))
    if result.status != lp.OPTIMAL:
        raise RuntimeError(f"internal: direction LP ended {result.status}")
    if result.value <= 0:
        return None
    return lp.rationalize_direction(result.point[:d])


def _argmin_constraints(base, points, num_vars: int) -> list:
    """<lam, p - base> >= 0 for every p, i.e. base attains the minimum."""
    cons = []
    for p in points:
        row = [p[i] - base[i] for i in range(len(base))]
        row += [Fraction(0)] * (num_vars - len(base))
        cons.append((row, lp.GEQ, 0))
    return cons


def _semistability_witness(p: PairInstance, m_prime) -> IntVec:
    """Integral direction separating the escaped vertex of N(v) from N(w).

    Solves max c - <lam, m'> over (lam, c) subject to <lam, y> >= c on the
    vertices of N(w); a positive optimum is guaranteed because m' lies
    strictly outside.  A positive optimum puts the minimum of lam on N(w)
    above its value at m', and lam is trace-zero in sl mode, so lam itself
    certifies w_lam(w) > w_lam(v); that is re-verified by direct evaluation.
    """
    rows = [(list(y) + [Fraction(-1)], lp.GEQ, 0) for y in p.hull_w.vertices]
    objective = [-c for c in m_prime] + [Fraction(1)]
    lam = _best_direction(p.context, rows, objective)
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
    outside = first_outside_vertex(p.hull_w, p.hull_v)
    if outside is None:
        return True, None
    return False, _semistability_witness(p, outside)


def _stability_witness(p: PairInstance, u, start: int) -> IntVec:
    """Integral lam with w_lam(v) = w_lam(w) and q*w_lam(I) < w_lam(v), for
    a vertex u of N(v) whose segment towards the start-th vertex of q*N(I)
    leaves N(w) at once.

    One LP per vertex p_hat of q*N(I) from the start-th on: constrain u and
    p_hat to be the argmin vertices, force w_lam(w) >= w_lam(v) (equality
    then follows from semistability), and maximize the strictness margin
    <lam, u - p_hat>.  The first positive optimum gives the witness; an
    optimum is positive only where the reach from u to p_hat is zero, so the
    vertices before the start-th need no LP.
    """
    ctx = p.context
    d = ctx.ambient_dim
    q_vertices = p.q_identity.vertices
    # Row order is frame, v-argmin, p_hat-argmin, w-argmin: ties in the
    # min-l1 stage are broken by the pivot path, so it fixes witnesses.
    head = _argmin_constraints(u, p.hull_v.vertices, d)
    tail = _argmin_constraints(u, p.hull_w.vertices, d)
    for p_hat in q_vertices[start:]:
        rows = head + _argmin_constraints(p_hat, q_vertices, d) + tail
        lam = _best_direction(ctx, rows, [u[i] - p_hat[i] for i in range(d)])
        if lam is not None:
            wv = weight(lam, p.Av)
            ww = weight(lam, p.Aw)
            wq = p.q * p.identity_weight(lam)
            if ww != wv or wq >= wv:
                raise RuntimeError(
                    "internal: stability witness failed re-verification"
                )
            return lam
    raise RuntimeError("internal: zero segment reach without a stability witness")


def _margin_or_witness(p: PairInstance) -> tuple[int | None, IntVec | None]:
    """Decide stability of a semistable frame together with its margin:
    (m, None) when stable, (None, lam) with a stability witness otherwise.

    For vertices a of N(v) and b of q*N(I), t_ab is the largest t in [0, 1]
    with a + t(b - a) in N(w); each a lies in the convex N(w), so those t
    form the interval [0, t_ab].  t_ab is read off the facet description of
    N(w): 0 when b - a leaves the direction space of its affine hull, else
    the least t at which the segment crosses a facet, capped at 1.  The
    combination (1 - 1/m) N(v) + (1/m) q N(I) is the hull of the points
    a + (1/m)(b - a), so it fits in N(w) exactly when 1/m <= t_ab for every
    pair, and m is the ceiling of 1 / min t_ab.

    The frame is stable exactly when every t_ab is positive.  t_ab = 0 means
    b - a leaves the tangent cone of N(w) at a, i.e. some lam in the normal
    cone of N(w) at a has <lam, b - a> < 0; that lam attains equal minima
    on N(v) and N(w) at a and a strictly smaller minimum on q*N(I), which is
    a violation.  Conversely a violation's argmins u, p_hat give
    t_{u p_hat} = 0.  In sl mode the same holds inside the trace-zero
    hyperplane, where all the projected points lie.
    """
    least = Fraction(1)
    for a in p.hull_v.vertices:
        for k, b in enumerate(p.q_identity.vertices):
            reach = p.hull_w.reach(a, b)
            if reach == 0:
                return None, _stability_witness(p, a, k)
            least = min(least, reach)
    return ceil(1 / least), None


def is_stable(p: PairInstance) -> tuple[bool, IntVec | None]:
    """Decide K-stability.  On failure the witness certifies whichever clause
    broke: either w_lam(w) > w_lam(v), or equality together with
    q*w_lam(I) < w_lam(v).  A view of ``verdict`` on the single frame."""
    v = verdict(FrameFamily([p]))
    return v.stable, v.witness


def minimal_uniform_m(p: PairInstance) -> int | None:
    """Least m >= 1 with (1 - 1/m) N(v) + (1/m) q N(I) inside N(w), or None
    when the instance is not stable.  A view of ``verdict`` on the single
    frame; the margin comes from the same segment reaches that decide
    stability (see ``_margin_or_witness``)."""
    return verdict(FrameFamily([p])).uniform_m


def check_tian0(p: PairInstance, m: int, lam: Sequence[int]) -> bool:
    """Exact evaluation of m*(w_lam(v) - w_lam(w)) >= w_lam(v) - q*w_lam(I)."""
    if not isinstance(m, int) or m < 1:
        raise InputError("m must be a positive integer")
    vec = p.context.check_one_param(lam)
    wv = weight(vec, p.Av)
    ww = weight(vec, p.Aw)
    wq = p.q * p.identity_weight(vec)
    return m * (wv - ww) >= wv - wq


def verdict(family: FrameFamily) -> StabilityVerdict:
    """Conjoin per-frame decisions; witness and frame index come from the
    first failing frame, and the uniform margin is the max over frames.

    Semistability is decided first on every frame.  Then one pass of
    segment reaches per frame decides stability and gives that frame's
    margin; the per-(u, p_hat) stability LP runs only to extract the
    witness of the first frame found unstable.
    """
    for idx, frame in enumerate(family.frames):
        ok, wit = is_semistable(frame)
        if not ok:
            return _shared(StabilityVerdict(
                semistable=False, stable=False, witness=wit, frame_index=idx
            ))
    margins = []
    for idx, frame in enumerate(family.frames):
        m, wit = _margin_or_witness(frame)
        if wit is not None:
            return _shared(StabilityVerdict(
                semistable=True, stable=False, witness=wit, frame_index=idx
            ))
        margins.append(m)
    return _shared(
        StabilityVerdict(semistable=True, stable=True, uniform_m=max(margins)))
