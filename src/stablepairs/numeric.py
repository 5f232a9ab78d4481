"""Floating-point realization of the analytic layer.

Squared norms of torus translates, the log-ratio functional p, slope
extraction along one-parameter subgroups, and the piecewise-linear energy
difference of support maxima.

Everything here works with moduli only: phases of torus entries and of
coefficients never enter any of the norms below, so inputs carry positive
magnitudes.  Norm evaluations factor out the dominant exponent and sum in
log-domain; at the slope sample points (2^-20, 2^-24) a naive product would
underflow double precision long before the weights get interesting.

Each :class:`CoefficientVector` compiles its kernel at construction: one
straight-line function, generated from the vector's own weights and
magnitudes, that returns its log squared norms at two points of a ray in a
single call.  ``norm_sq``, ``p_value`` and ``slope_along`` evaluate every
norm through it.  It does the float operations of a direct evaluation in the
same order: each exponent is 2 log|c_a| + sum_i (2 a_i) * log|t_i|, added
left to right over the nonzero coordinates, and the terms are summed in
support order, so the results are the same floats, bit for bit, as
evaluating each point on its own.  Compiling is the cost: once per vector,
about 0.3 ms for 3 weights, 7 ms for 119 and 50 ms for 1,028 (CPython 3.11
on a 2-core Xeon VM), where the vector alone took 0.004 to 0.9 ms.  Each
evaluation then skips the interpreter's loops over the support and its
coordinates.
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

    Construction also compiles the kernel, ``kernel(d, s1, s2)``: the log
    squared norms at the two points whose log-moduli are ``d_i * s1`` and
    ``d_i * s2``.  Its source holds only integer indices and the reprs of
    the floats ``2.0 * log(magnitude)`` and ``2.0 * a_i`` formed here, so no
    input string enters it.  The kernel lives in a private slot that takes
    no part in equality, hashing or repr; a pickle or copy holds the fields
    alone and compiles the kernel again.
    """

    __slots__ = ("support", "magnitudes", "_kernel")
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
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "magnitudes", mags)
        object.__setattr__(self, "_kernel", _compile_kernel(support, mags))

    def __reduce__(self):
        return self.__class__, (self.support, self.magnitudes)

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


def _compile_kernel(support: WeightSupport, mags: tuple[float, ...]):
    """Compile ``kernel(d, s1, s2)`` for these weights and magnitudes.

    Per weight k, one statement sets the exponents a_k, b_k at both points
    to the base and one ``+=`` per nonzero coordinate adds its term, so the
    parser's nesting limits do not grow with the dimension.  Every x_i and
    y_i is formed, used or not, so an entry of d too large for a float
    raises OverflowError whatever the support.
    """
    src = ["def kernel(d, s1, s2):"]
    src += [f" x{i} = d[{i}] * s1; y{i} = d[{i}] * s2"
            for i in range(support.context.ambient_dim)]
    for k, (a, mag) in enumerate(zip(support.weights, mags)):
        src.append(f" a{k} = b{k} = {2.0 * math.log(mag)!r}")
        src += [f" a{k} += {2.0 * ai!r} * x{i}; b{k} += {2.0 * ai!r} * y{i}"
                for i, ai in enumerate(a) if ai]
    norms = []
    for e in "ab":
        names = [f"{e}{k}" for k in range(len(mags))]
        top = f"max({', '.join(names)})" if len(names) > 1 else names[0]
        src.append(f" top_{e} = {top}")
        terms = "".join([f"exp({n} - top_{e}), " for n in names])
        norms.append(f"top_{e} + log(sum(({terms})))")
    src.append(f" return {norms[0]}, {norms[1]}")
    # 2.0 * a_i overflows to inf for |a_i| past about 9e307; repr writes inf
    namespace = {"exp": math.exp, "log": math.log, "inf": math.inf}
    exec("\n".join(src), namespace)
    return namespace["kernel"]


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
    """Moduli of a diagonal torus element, all positive and finite."""

    __slots__ = _fields = ("moduli",)

    def __init__(self, moduli: Sequence[float]):
        mods = tuple(float(t) for t in moduli)
        for t in mods:
            if not t > 0 or math.isinf(t):
                raise InputError("torus moduli must be positive and finite")
        object.__setattr__(self, "moduli", mods)


def _require_matching(v: CoefficientVector, w: CoefficientVector):
    if v.support.context != w.support.context:
        raise InputError("coefficient vectors live in different contexts")


def norm_sq(t: TorusPoint, v: CoefficientVector) -> float:
    """Squared norm of the torus translate of v."""
    if len(t.moduli) != v.support.context.ambient_dim:
        raise InputError("torus point dimension mismatch")
    logs = [math.log(m) for m in t.moduli]
    return math.exp(v._kernel(logs, 1.0, 1.0)[0])


def p_value(t: TorusPoint, v: CoefficientVector, w: CoefficientVector) -> float:
    """log ||t(w)||^2 - log ||t(v)||^2, computed stably in log-domain."""
    _require_matching(v, w)
    if len(t.moduli) != v.support.context.ambient_dim:
        raise InputError("torus point dimension mismatch")
    logs = [math.log(m) for m in t.moduli]
    # multiplying each log-modulus by 1.0 is exact
    return w._kernel(logs, 1.0, 1.0)[0] - v._kernel(logs, 1.0, 1.0)[0]


def slope_along(lam: Sequence[int], v: CoefficientVector,
                w: CoefficientVector) -> float:
    """Coefficient of log|t|^2 in p along the subgroup, by secant.

    Sampled at t = 2^-20 and 2^-24; for tame coefficient magnitudes this
    lands within 1e-6 of the exact integer w_lam(w) - w_lam(v).
    """
    _require_matching(v, w)
    vec = v.support.context.check_one_param(lam)
    w1, w2 = w._kernel(vec, _SLOPE_LOG_T1, _SLOPE_LOG_T2)
    v1, v2 = v._kernel(vec, _SLOPE_LOG_T1, _SLOPE_LOG_T2)
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
