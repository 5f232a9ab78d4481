"""Floating-point realization of the analytic layer.

Squared norms of torus translates, the log-ratio functional p, slope
extraction along one-parameter subgroups, and the piecewise-linear energy
difference of support maxima.

Everything here works with moduli only: phases of torus entries and of
coefficients never enter any of the norms below, so inputs carry positive
magnitudes.  Norm evaluations factor out the dominant exponent and sum in
log-domain; at the slope sample points (2^-20, 2^-24) a naive product would
underflow double precision long before the weights get interesting.

Each :class:`CoefficientVector` builds the per-weight pieces of those
exponents once, at construction, and one helper evaluates them at both
secant sample points in a single pass over the support.  Every exponent is
still formed as 2 log|c_a| + sum_i (2 a_i) * log|t_i|, added left to right
over the nonzero coordinates, and the terms are summed in support order, so
``norm_sq``, ``p_value`` and ``slope_along`` return the same floats, bit for
bit, as evaluating each sample point on its own in that order.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

from .lattice import InputError, IntVec, _Record
from .stability import WeightSupport

_LOG2 = math.log(2.0)
_SLOPE_LOG_T1 = -20.0 * _LOG2
_SLOPE_LOG_T2 = -24.0 * _LOG2
_SLOPE_DENOM = 2.0 * (_SLOPE_LOG_T2 - _SLOPE_LOG_T1)


class CoefficientVector(_Record):
    """A support together with positive coefficient magnitudes, one per weight.

    ``magnitudes`` is aligned with ``support.weights``.  Weights listed more
    than once by a caller combine by root-sum-square, since only the summed
    squared magnitude per weight enters any norm.

    Construction also precomputes, per weight a, the pieces of its norm
    exponent: ``2.0 * log(magnitude)`` and the pairs ``(i, 2.0 * a_i)`` over
    the nonzero coordinates.  They live in a private field that takes no
    part in equality, hashing or repr, and they are exactly the values a
    direct evaluation would form first, so precomputing them changes no
    result.
    """

    __slots__ = ("support", "magnitudes", "_terms")
    _fields = ("support", "magnitudes")

    def __init__(self, support: WeightSupport, magnitudes: Sequence[float]):
        mags = tuple(float(m) for m in magnitudes)
        if len(mags) != len(support.weights):
            raise InputError(
                f"{len(mags)} magnitudes for {len(support.weights)} weights"
            )
        for m in mags:
            if not m > 0 or math.isinf(m):
                raise InputError("coefficient magnitudes must be positive and finite")
        terms = []
        for a, mag in zip(support.weights, mags):
            coeffs = tuple([(i, 2.0 * ai) for i, ai in enumerate(a) if ai])
            terms.append((2.0 * math.log(mag), coeffs))
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "_terms", tuple(terms))

    @classmethod
    def units(cls, support: WeightSupport) -> "CoefficientVector":
        """All magnitudes 1; slopes do not depend on this choice."""
        return cls(support, (1.0,) * len(support.weights))

    @classmethod
    def from_pairs(cls, support_weights: Iterable[tuple[IntVec, float]],
                   context) -> "CoefficientVector":
        listed: dict[IntVec, list[float]] = {}
        for a, m in support_weights:
            key = context.check_weight(a)
            m = float(m)
            if not m > 0:
                raise InputError("coefficient magnitudes must be positive")
            listed.setdefault(key, []).append(m)
        support = WeightSupport(listed.keys(), context)
        return cls(support, [_root_sum_square(listed[a]) for a in support.weights])


def _root_sum_square(mags: list[float]) -> float:
    """Combined magnitude of one weight listed with the given magnitudes.

    A weight listed once keeps its magnitude as given, so any positive finite
    float is accepted.  Otherwise the squares are summed in listing order
    and the root taken, unless that sum overflows to inf or underflows to 0;
    then ``math.hypot``, which rescales by the largest magnitude, takes its
    place.
    """
    if len(mags) == 1:
        return mags[0]
    total = 0.0
    for m in mags:
        total += m * m
    if 0.0 < total < math.inf:
        return math.sqrt(total)
    return math.hypot(*mags)


class TorusPoint(_Record):
    """Moduli of a diagonal torus element, all positive."""

    __slots__ = _fields = ("moduli",)

    def __init__(self, moduli: Sequence[float]):
        mods = tuple(float(t) for t in moduli)
        for t in mods:
            if not t > 0:
                raise InputError("torus moduli must be positive")
        object.__setattr__(self, "moduli", mods)


def _log_norms_sq(v: CoefficientVector, logs1: Sequence[float],
                  logs2: Sequence[float]) -> tuple[float, float]:
    """log of sum_a |c_a|^2 * prod_i |t_i|^(2 a_i) at two points, given by
    their log-moduli, in one pass over the support; dominant term factored.

    Single-point callers pass the same point twice.
    """
    exps1 = []
    exps2 = []
    for base, coeffs in v._terms:
        e1 = e2 = base
        for i, ca in coeffs:
            e1 += ca * logs1[i]
            e2 += ca * logs2[i]
        exps1.append(e1)
        exps2.append(e2)
    top1 = max(exps1)
    top2 = max(exps2)
    return (top1 + math.log(sum([math.exp(e - top1) for e in exps1])),
            top2 + math.log(sum([math.exp(e - top2) for e in exps2])))


def _require_matching(v: CoefficientVector, w: CoefficientVector):
    if v.support.context != w.support.context:
        raise InputError("coefficient vectors live in different contexts")


def norm_sq(t: TorusPoint, v: CoefficientVector) -> float:
    """Squared norm of the torus translate of v."""
    if len(t.moduli) != v.support.context.ambient_dim:
        raise InputError("torus point dimension mismatch")
    logs = [math.log(m) for m in t.moduli]
    return math.exp(_log_norms_sq(v, logs, logs)[0])


def p_value(t: TorusPoint, v: CoefficientVector, w: CoefficientVector) -> float:
    """log ||t(w)||^2 - log ||t(v)||^2, computed stably in log-domain."""
    _require_matching(v, w)
    if len(t.moduli) != v.support.context.ambient_dim:
        raise InputError("torus point dimension mismatch")
    logs = [math.log(m) for m in t.moduli]
    return _log_norms_sq(w, logs, logs)[0] - _log_norms_sq(v, logs, logs)[0]


def slope_along(lam: Sequence[int], v: CoefficientVector,
                w: CoefficientVector) -> float:
    """Coefficient of log|t|^2 in p along the subgroup, by secant.

    Sampled at t = 2^-20 and 2^-24; for tame coefficient magnitudes this
    lands within 1e-6 of the exact integer w_lam(w) - w_lam(v).
    """
    _require_matching(v, w)
    vec = v.support.context.check_one_param(lam)
    logs1 = [c * _SLOPE_LOG_T1 for c in vec]
    logs2 = [c * _SLOPE_LOG_T2 for c in vec]
    w1, w2 = _log_norms_sq(w, logs1, logs2)
    v1, v2 = _log_norms_sq(v, logs1, logs2)
    return ((w2 - v2) - (w1 - v1)) / _SLOPE_DENOM


def f_energy(theta: Sequence[float], Av: WeightSupport, Aw: WeightSupport) -> float:
    """Piecewise-linear energy: max of <a', theta> over A(w) minus the same
    max over A(v), evaluated on geometry coordinates.

    Nonnegative everywhere exactly when the pair is semistable frame-wise;
    positively homogeneous of degree one by construction.
    """
    if Av.context != Aw.context:
        raise InputError("supports live in different contexts")
    th = [float(x) for x in theta]
    if len(th) != Av.context.ambient_dim:
        raise InputError("direction dimension mismatch")

    def top(support: WeightSupport) -> float:
        best = -math.inf
        rows, scale = support.geometry_rows()
        for row in rows:
            val = sum(c / scale * x for c, x in zip(row, th))
            if val > best:
                best = val
        return best

    return top(Aw) - top(Av)
