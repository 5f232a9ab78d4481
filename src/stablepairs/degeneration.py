"""Driving a weighted vector to a prescribed limit support, constructively.

Given a support and a subset of its indices to survive, search for a
one-parameter subgroup whose renormalized limit has exactly the surviving
support, or certify that no single subgroup reaches it.

A direction achieves the target exactly when its pairings are equal across
the kept weights and strictly larger on every dropped weight.  Translating
all weights by one kept base weight turns that into "zero on kept, positive
on dropped", which is one LP: maximize the minimum slack over the dropped
weights subject to equalities on the kept ones, on a compact box slice.  A
positive optimum scales to an integral witness; a nonpositive optimum rules
out every direction, since achieving directions scale into the box.

When every weight is kept, any nonzero direction in the solution subspace
of the equalities achieves the target: with no slack variable, one LP per
coordinate k in turn maximizes lam_k; the feasible set is symmetric under
lam -> -lam, so maximizing -lam_k is positive exactly when maximizing lam_k
is, and is not tried.  One loop poses every program on one row list and
re-verifies the direction.  All go through ``stability._best_direction``,
which drops the all-zero equality of a kept weight that repeats the base
weight: it constrains nothing, and without it the simplex takes the same
pivots.  Up to a plane (free rank <= 2, sl(<= 3)) that helper solves no LP
but the least-l1 stage of an sl(3) tie.
"""

from __future__ import annotations

from operator import sub
from typing import Iterable, Sequence

from .lattice import EQ, GEQ, Constraint, InputError, IntVec, LatticeContext, _Record, dot
from .stability import WeightSupport, _best_direction


class DegenerationProblem(_Record):
    """An ordered weight list and the set of positions meant to survive.

    Order matters: ``keep`` holds 0-based positions into ``weights`` as
    supplied, so callers can address duplicated weights unambiguously.
    """

    __slots__ = _fields = ("weights", "keep", "context")

    def __init__(self, weights: Iterable[Sequence[int]],
                 keep: Iterable[int], context: LatticeContext):
        ws = tuple(context.check_weight(a) for a in weights)
        if not ws:
            raise InputError("a degeneration problem needs at least one weight")
        kept = frozenset(keep)
        if not kept:
            raise InputError("the keep set must be nonempty")
        for i in kept:
            if type(i) is not int or not 0 <= i < len(ws):
                raise InputError(f"keep index {i!r} out of range 0..{len(ws) - 1}")
        object.__setattr__(self, "weights", ws)
        object.__setattr__(self, "keep", kept)
        object.__setattr__(self, "context", context)


def limit_support(A: WeightSupport, lam: Sequence[int]) -> tuple[IntVec, ...]:
    """Support of the renormalized limit: the weights attaining the minimum
    pairing with ``lam``."""
    vec = A.context.check_one_param(lam)
    pairings = [dot(vec, a) for a in A.weights]
    low = min(pairings)
    return tuple(a for a, v in zip(A.weights, pairings) if v == low)


def _achieves(prob: DegenerationProblem, lam: IntVec) -> bool:
    pairings = [dot(lam, a) for a in prob.weights]
    low = min(pairings)
    return {i for i, v in enumerate(pairings) if v == low} == prob.keep


def find_degeneration(prob: DegenerationProblem) -> IntVec | None:
    """Primitive integral direction whose limit support is exactly the keep
    set, or None when no direction reaches it."""
    ctx = prob.context
    d = ctx.ambient_dim
    kept = sorted(prob.keep)
    dropped = [i for i in range(len(prob.weights)) if i not in prob.keep]
    base = prob.weights[kept[0]]

    def diff_row(i: int) -> tuple[int, ...]:
        return tuple(map(sub, prob.weights[i], base))

    # variables: the direction, then, when a weight is dropped, the least
    # slack over the dropped weights
    extra = (0,) if dropped else ()
    rows = [Constraint(diff_row(j) + extra, EQ, 0, 1) for j in kept[1:]]
    rows += [Constraint(diff_row(i) + (-1,), GEQ, 0, 1) for i in dropped]
    objectives = ([[0] * d + [1]] if dropped
                  else [[int(i == k) for i in range(d)] for k in range(d)])
    for objective in objectives:
        lam = _best_direction(ctx, rows, objective, 1)
        if lam is not None:
            if not _achieves(prob, lam):
                raise RuntimeError("internal: degeneration direction failed re-verification")
            return lam
    return None
