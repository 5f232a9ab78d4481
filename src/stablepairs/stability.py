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

In sl mode the geometry happens on the trace-zero projections of the
integer weights, while every weight evaluation stays on the integer
representatives (the two agree on trace-zero directions, which is all a
one-parameter subgroup of SL can be).

Every returned witness is a primitive integer vector and is re-verified by
direct weight evaluation before being handed back, so a witness is always a
standalone machine-checkable certificate.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil
from typing import Iterable, Sequence

from . import lp
from .lattice import (
    InputError,
    IntVec,
    LatticeContext,
    ModeError,
    dot,
    standard_simplex,
)
from .polytope import (
    RationalPolytope,
    _segment_reach,
    first_outside_vertex,
    includes,
    minkowski_combine,  # noqa: F401  (bench/tracing.py wraps it by this name)
    simplex_contains,
)


@dataclass(frozen=True)
class WeightSupport:
    """Finite nonempty set of integer weights sharing a context.

    Weights are deduplicated and kept in lexicographic order, so equal
    supports compare equal and every downstream iteration is deterministic.
    """

    weights: tuple[IntVec, ...]
    context: LatticeContext

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
            return tuple(self.context.project_sl(a) for a in self.weights)
        return tuple(tuple(Fraction(c) for c in a) for a in self.weights)

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


class PairInstance:
    """A (v, w, q, N(I)) problem statement, validated at construction.

    Rejected unless N(v) is contained in q*N(I) and (in free mode) the
    identity polytope contains the origin.  sl-mode instances always use the
    standard simplex as identity.
    """

    __slots__ = (
        "Av", "Aw", "q", "context", "identity",
        "hull_v", "hull_w", "identity_geom",
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
            identity = standard_simplex(ctx, 1)
            for a in Av.weights:
                if not simplex_contains(a, q, ctx):
                    raise InputError(
                        f"weight {a} of A(v) escapes {q} times the standard simplex; "
                        f"q is too small"
                    )
            identity_geom = RationalPolytope(
                [ctx.project_sl(v) for v in identity.vertices]
            )
        else:
            if identity is None:
                raise InputError("free mode requires an explicit identity polytope")
            if identity.dim != ctx.ambient_dim:
                raise InputError("identity polytope dimension mismatch")
            origin = (Fraction(0),) * ctx.ambient_dim
            if not identity.contains_point(origin):
                raise InputError("identity polytope must contain the origin")
            identity_geom = identity

        self.Av = Av
        self.Aw = Aw
        self.q = q
        self.context = ctx
        self.identity = identity
        self.identity_geom = identity_geom
        self.hull_v = RationalPolytope(Av.geometry_points())
        self.hull_w = RationalPolytope(Aw.geometry_points())

        if ctx.mode == "free" and not includes(identity.scaled(q), self.hull_v):
            raise InputError("N(v) is not contained in q times the identity polytope")

    def __repr__(self):
        return (f"PairInstance(|Av|={len(self.Av)}, |Aw|={len(self.Aw)}, "
                f"q={self.q}, mode={self.context.mode!r})")

    def identity_weight(self, lam: Sequence[int]) -> Fraction:
        """w_lam(I) against the unscaled identity polytope's vertex set."""
        vec = self.context.check_one_param(lam)
        return min(dot(vec, y) for y in self.identity.vertices)


@dataclass(frozen=True)
class FrameFamily:
    """Torus-aligned snapshots of one pair; verdicts conjoin over frames."""

    frames: tuple[PairInstance, ...]

    def __init__(self, frames: Iterable[PairInstance]):
        fr = tuple(frames)
        if not fr:
            raise InputError("a frame family must be nonempty")
        ctx, q = fr[0].context, fr[0].q
        for f in fr[1:]:
            if f.context != ctx or f.q != q:
                raise InputError("frames must share context and q")
        object.__setattr__(self, "frames", fr)


@dataclass(frozen=True)
class StabilityVerdict:
    semistable: bool
    stable: bool
    uniform_m: int | None = None
    witness: IntVec | None = None
    frame_index: int | None = None


# ---------------------------------------------------------------------------
# LP plumbing shared by the decision procedures.  All programs constrain the
# direction to the box [-1, 1]^d (a compact normalization slice, so strict
# inequalities become "optimum > 0") and to the trace-zero hyperplane in sl
# mode.

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

    Solves max c - <lam, m'> subject to <lam, y> >= c on the vertices of
    N(w); a positive optimum is guaranteed because m' lies strictly outside.
    The rationalized direction is re-verified (and flipped if needed) so the
    returned lam certifies w_lam(w) > w_lam(v) by direct evaluation.
    """
    ctx = p.context
    d = ctx.ambient_dim
    nv = d + 1  # lam plus the separation level c
    cons = _direction_frame_constraints(ctx, nv)
    for y in p.hull_w.vertices:
        cons.append((list(y) + [Fraction(-1)], lp.GEQ, 0))
    objective = [-c for c in m_prime] + [Fraction(1)]
    result = lp.solve_min_l1(lp.linear_program(nv, cons, objective), range(d))
    if result.status != lp.OPTIMAL or result.value <= 0:
        raise RuntimeError("internal: separation LP failed on an escaped vertex")
    lam = lp.rationalize_direction(result.point[:d])
    for candidate in (lam, tuple(-c for c in lam)):
        if sum(candidate) != 0 and ctx.mode == "sl":
            continue
        if weight(candidate, p.Aw) > weight(candidate, p.Av):
            return candidate
    raise RuntimeError("internal: separating direction failed re-verification")


def is_semistable(p: PairInstance) -> tuple[bool, IntVec | None]:
    """Decide w_lam(w) <= w_lam(v) for every one-parameter subgroup.

    Equivalent to N(v) being contained in N(w); on failure returns an
    integral witness with w_lam(w) > w_lam(v).
    """
    outside = first_outside_vertex(p.hull_w, p.hull_v)
    if outside is None:
        return True, None
    return False, _semistability_witness(p, outside)


def _stability_violation(p: PairInstance) -> IntVec | None:
    """Assuming semistability, search for lam with w_lam(v) = w_lam(w) and
    q*w_lam(I) < w_lam(v).

    One LP per (vertex u of N(v), vertex p_hat of q*N(I)): constrain u and
    p_hat to be the argmin vertices, force w_lam(w) >= w_lam(v) (equality
    then follows from semistability), and maximize the strictness margin
    <lam, u - p_hat>.
    """
    ctx = p.context
    d = ctx.ambient_dim
    q_identity = p.identity_geom.scaled(p.q)
    for u in p.hull_v.vertices:
        # Row order is frame, v-argmin, p_hat-argmin, w-argmin: ties in the
        # min-l1 stage are broken by the pivot path, so it fixes witnesses.
        head = _direction_frame_constraints(ctx, d)
        head += _argmin_constraints(u, p.hull_v.vertices, d)
        tail = _argmin_constraints(u, p.hull_w.vertices, d)
        for p_hat in q_identity.vertices:
            cons = head + _argmin_constraints(p_hat, q_identity.vertices, d) + tail
            objective = [u[i] - p_hat[i] for i in range(d)]
            result = lp.solve_min_l1(lp.linear_program(d, cons, objective), range(d))
            if result.status != lp.OPTIMAL:
                raise RuntimeError("internal: stability LP must be bounded on the box")
            if result.value > 0:
                lam = lp.rationalize_direction(result.point)
                wv = weight(lam, p.Av)
                ww = weight(lam, p.Aw)
                wq = p.q * p.identity_weight(lam)
                if ww != wv or wq >= wv:
                    raise RuntimeError(
                        "internal: stability witness failed re-verification"
                    )
                return lam
    return None


def is_stable(p: PairInstance) -> tuple[bool, IntVec | None]:
    """Decide K-stability.  On failure the witness certifies whichever clause
    broke: either w_lam(w) > w_lam(v), or equality together with
    q*w_lam(I) < w_lam(v)."""
    semi, witness = is_semistable(p)
    if not semi:
        return False, witness
    violation = _stability_violation(p)
    if violation is not None:
        return False, violation
    return True, None


def _minimal_m_of_stable(p: PairInstance) -> int:
    q_identity = p.identity_geom.scaled(p.q)
    reach = min(
        _segment_reach(p.hull_w.vertices, a, b)
        for a in p.hull_v.vertices
        for b in q_identity.vertices
    )
    if reach == 0:
        raise RuntimeError("internal: no uniform margin on a stable instance")
    return ceil(1 / reach)


def minimal_uniform_m(p: PairInstance) -> int | None:
    """Least m >= 1 with (1 - 1/m) N(v) + (1/m) q N(I) inside N(w), or None
    when the instance is not stable.

    Computed in one pass.  The combination is the hull of the points
    a + (1/m)(b - a) over vertices a of N(v) and b of q*N(I).  Each a lies in
    the convex N(w), so the t with a + t(b - a) in N(w) form an interval
    [0, t_ab], found by one exact LP; the combination fits exactly when
    1/m <= t_ab for every pair, so m is the ceiling of 1 / min t_ab.
    """
    stable, _ = is_stable(p)
    if not stable:
        return None
    return _minimal_m_of_stable(p)


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
    first failing frame, and the uniform margin is the max over frames."""
    semis = []
    for idx, frame in enumerate(family.frames):
        ok, wit = is_semistable(frame)
        if not ok:
            return StabilityVerdict(
                semistable=False, stable=False, witness=wit, frame_index=idx
            )
        semis.append(frame)
    for idx, frame in enumerate(semis):
        wit = _stability_violation(frame)
        if wit is not None:
            return StabilityVerdict(
                semistable=True, stable=False, witness=wit, frame_index=idx
            )
    m = max(_minimal_m_of_stable(frame) for frame in family.frames)
    return StabilityVerdict(semistable=True, stable=True, uniform_m=m)
