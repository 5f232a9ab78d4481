import copy
import itertools
import math
import pickle
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepairs import (
    CoefficientVector,
    InputError,
    LatticeContext,
    TorusPoint,
    WeightSupport,
    f_energy,
    is_semistable,
    norm_sq,
    p_value,
    slope_along,
    weight,
)
from stablepairs import oracle
from conftest import build_corpus

FREE2 = LatticeContext.free(2)
SL2 = LatticeContext.sl(2)

DIAMOND = WeightSupport([(1, 0), (-1, 0), (0, 1), (0, -1)], FREE2)
ORIGIN = WeightSupport([(0, 0)], FREE2)


def test_norm_sq_examples():
    cw = CoefficientVector.units(DIAMOND)
    assert norm_sq(TorusPoint((1.0, 1.0)), cw) == pytest.approx(4.0, rel=1e-12)
    single = CoefficientVector.units(WeightSupport([(1, 0)], FREE2))
    assert norm_sq(TorusPoint((math.e, 1.0)), single) == pytest.approx(
        math.e ** 2, rel=1e-12
    )
    # 2^2 + 2^-2 + 1 + 1
    assert norm_sq(TorusPoint((2.0, 1.0)), cw) == pytest.approx(6.25, rel=1e-12)


def test_norm_sq_validation():
    cw = CoefficientVector.units(DIAMOND)
    with pytest.raises(InputError):
        norm_sq(TorusPoint((1.0,)), cw)
    with pytest.raises(InputError):
        TorusPoint((1.0, 0.0))
    with pytest.raises(InputError):
        TorusPoint((float("inf"), 1.0))
    with pytest.raises(InputError):
        CoefficientVector(DIAMOND, (1.0, 1.0, 1.0))
    with pytest.raises(InputError):
        CoefficientVector(DIAMOND, (1.0, -1.0, 1.0, 1.0))


def test_p_value_examples():
    cw = CoefficientVector.units(DIAMOND)
    cv = CoefficientVector.units(ORIGIN)
    assert p_value(TorusPoint((3.0, 0.5)), cw, cw) == 0.0
    t1 = TorusPoint((1.0, 1.0))
    assert p_value(t1, cv, cw) == pytest.approx(math.log(4.0), rel=1e-12)
    assert p_value(TorusPoint((2.0, 1.0)), cv, cw) == pytest.approx(
        math.log(6.25), rel=1e-12
    )


def test_slope_examples():
    cv = CoefficientVector.units(ORIGIN)
    cw = CoefficientVector.units(DIAMOND)
    assert slope_along((0, 1), cv, cw) == pytest.approx(-1.0, abs=1e-6)
    assert slope_along((0, 1), cw, cw) == 0.0
    fd_v = CoefficientVector.units(WeightSupport([(1, 0)], FREE2))
    fd_w = CoefficientVector.units(WeightSupport([(0, 0)], FREE2))
    assert slope_along((-1, 0), fd_v, fd_w) == pytest.approx(1.0, abs=1e-6)


def test_slope_rejects_zero_direction():
    cv = CoefficientVector.units(ORIGIN)
    with pytest.raises(InputError):
        slope_along((0, 0), cv, cv)


def _random_support(rng, ctx, dim):
    return WeightSupport(
        [tuple(rng.randint(-3, 3) for _ in range(dim))
         for _ in range(rng.randint(1, 5))],
        ctx,
    )


def test_slope_bridge_unit_coefficients():
    rng = random.Random(2024)
    for _ in range(200):
        dim = rng.choice((1, 2, 3))
        ctx = LatticeContext.free(dim)
        sv = _random_support(rng, ctx, dim)
        sw = _random_support(rng, ctx, dim)
        lam = (0,) * dim
        while not any(lam):
            lam = tuple(rng.randint(-3, 3) for _ in range(dim))
        got = slope_along(lam, CoefficientVector.units(sv), CoefficientVector.units(sw))
        exact = weight(lam, sw) - weight(lam, sv)
        assert abs(got - exact) <= 1e-6


def test_slope_tame_coefficient_spread():
    # an order of magnitude either way leaves the secant inside the 1e-6
    # contract; extreme spreads would not at these sample points
    rng = random.Random(77)
    for _ in range(120):
        dim = rng.choice((2, 3))
        ctx = LatticeContext.free(dim)
        sv = _random_support(rng, ctx, dim)
        sw = _random_support(rng, ctx, dim)
        cv = CoefficientVector(sv, [10 ** rng.uniform(-1, 1) for _ in sv.weights])
        cw = CoefficientVector(sw, [10 ** rng.uniform(-1, 1) for _ in sw.weights])
        lam = (0,) * dim
        while not any(lam):
            lam = tuple(rng.randint(-3, 3) for _ in range(dim))
        exact = weight(lam, sw) - weight(lam, sv)
        assert abs(slope_along(lam, cv, cw) - exact) <= 1e-6


def test_slope_underflow_guard():
    # weights of size 8 at t = 2^-24 would underflow a naive evaluation
    ctx = LatticeContext.free(2)
    sv = WeightSupport([(8, 8)], ctx)
    sw = WeightSupport([(-8, -8), (8, 8)], ctx)
    got = slope_along((1, 1), CoefficientVector.units(sv), CoefficientVector.units(sw))
    assert got == pytest.approx(-32.0, abs=1e-6)


def test_f_energy_examples():
    assert f_energy((0.0, 0.0), ORIGIN, DIAMOND) == 0.0
    assert f_energy((0.0, 1.0), ORIGIN, DIAMOND) == 1.0
    assert f_energy((0.7, -0.3), DIAMOND, DIAMOND) == 0.0


def test_f_energy_sl_projects_out_the_diagonal():
    v = WeightSupport([(0, 0)], SL2)
    w = WeightSupport([(1, 1)], SL2)  # same coset as (0,0)
    for theta in ((1.0, 1.0), (-2.0, -2.0), (0.3, -0.8)):
        assert f_energy(theta, v, w) == pytest.approx(0.0, abs=1e-12)


def test_f_energy_homogeneity():
    rng = random.Random(5)
    for _ in range(60):
        ctx = LatticeContext.free(2)
        sv = _random_support(rng, ctx, 2)
        sw = _random_support(rng, ctx, 2)
        theta = (rng.uniform(-2, 2), rng.uniform(-2, 2))
        base = f_energy(theta, sv, sw)
        for s in (0.0, 0.25, 3.0):
            scaled = f_energy((s * theta[0], s * theta[1]), sv, sw)
            assert abs(scaled - s * base) <= 1e-12 * max(1.0, abs(s * base))


def test_f_energy_nonnegative_on_semistable_instances():
    rng = random.Random(8)
    semistable = [p for p in build_corpus(101)[:80] if is_semistable(p)[0]]
    assert semistable
    for p in semistable:
        dim = p.context.ambient_dim
        for _ in range(1000 // len(semistable) + 5):
            theta = tuple(rng.uniform(-3, 3) for _ in range(dim))
            assert f_energy(theta, p.Av, p.Aw) >= -1e-12


# -- bit-identity against a direct evaluation ---------------------------
#
# The reference below evaluates every norm exponent from the weights and
# magnitudes at each sample point on its own, as the library did before it
# precomputed per-weight terms.  The library must return the same floats,
# bit for bit, not merely close ones.

_REF_LOG_T1 = -20.0 * math.log(2.0)
_REF_LOG_T2 = -24.0 * math.log(2.0)


def _reference_log_norm_sq(log_moduli, v):
    terms = []
    for a, mag in zip(v.support.weights, v.magnitudes):
        e = 2.0 * math.log(mag)
        for ai, li in zip(a, log_moduli):
            if ai:
                e += 2.0 * ai * li
        terms.append(e)
    top = max(terms)
    return top + math.log(sum(math.exp(t - top) for t in terms))


def reference_norm_sq(t, v):
    return math.exp(_reference_log_norm_sq([math.log(m) for m in t.moduli], v))


def reference_p_value(t, v, w):
    logs = [math.log(m) for m in t.moduli]
    return _reference_log_norm_sq(logs, w) - _reference_log_norm_sq(logs, v)


def reference_slope_along(lam, v, w):
    vec = v.support.context.check_one_param(lam)

    def p_at(log_t):
        logs = [c * log_t for c in vec]
        return _reference_log_norm_sq(logs, w) - _reference_log_norm_sq(logs, v)

    p1 = p_at(_REF_LOG_T1)
    p2 = p_at(_REF_LOG_T2)
    return (p2 - p1) / (2.0 * (_REF_LOG_T2 - _REF_LOG_T1))


def assert_same_float(got, ref):
    # hex() also tells 0.0 from -0.0
    assert got.hex() == ref.hex(), (got, ref)


def test_slopes_match_reference_on_every_grid_direction(corpus):
    # every fifth dimension-2 instance (free and sl(2) alternate), every
    # fourth sl(3) instance and one free rank-3 instance, whole oracle grids
    sample = corpus[0:200:5] + corpus[200:240:4] + corpus[240:241]
    assert {(p.context.mode, p.context.ambient_dim) for p in sample} == {
        ("free", 2), ("sl", 2), ("sl", 3), ("free", 3)}
    directions = 0
    for p in sample:
        cv = CoefficientVector.units(p.Av)
        cw = CoefficientVector.units(p.Aw)
        grid = oracle.enumerate_directions(oracle.box_for(p), p.context)
        for lam in grid.tolist():
            assert_same_float(slope_along(lam, cv, cw),
                              reference_slope_along(lam, cv, cw))
        directions += len(grid)
    assert directions > 100_000


@st.composite
def numeric_cases(draw):
    """A context (free rank 1-3, sl(2) or sl(3)), two coefficient vectors
    with non-unit magnitudes, a nonzero admissible direction and a torus
    point.  Half the vectors come from from_pairs with repeated weights,
    which combine by root-sum-square."""
    mode, dim = draw(st.sampled_from(
        [("free", 1), ("free", 2), ("free", 3), ("sl", 2), ("sl", 3)]))
    ctx = LatticeContext.free(dim) if mode == "free" else LatticeContext.sl(dim)
    coord = st.integers(-4, 4)
    magnitude = st.floats(min_value=1e-3, max_value=1e3)
    weights = st.lists(st.tuples(*[coord] * dim), min_size=1, max_size=5)

    def vector():
        pts = draw(weights)
        if draw(st.booleans()):
            pts = pts + draw(st.lists(st.sampled_from(pts), min_size=1, max_size=3))
            mags = draw(st.lists(magnitude, min_size=len(pts), max_size=len(pts)))
            return CoefficientVector.from_pairs(zip(pts, mags), ctx)
        support = WeightSupport(pts, ctx)
        mags = draw(st.lists(magnitude, min_size=len(support.weights),
                             max_size=len(support.weights)))
        return CoefficientVector(support, mags)

    cv, cw = vector(), vector()
    lam = list(draw(st.tuples(*[coord] * dim)))
    if mode == "sl":
        lam[-1] = -sum(lam[:-1])
    if not any(lam):
        lam[0] = 1
        if mode == "sl":
            lam[-1] = -1
    t = TorusPoint(draw(st.lists(magnitude, min_size=dim, max_size=dim)))
    return lam, cv, cw, t


@settings(max_examples=400, deadline=None)
@given(numeric_cases())
def test_numeric_layer_matches_reference(case):
    lam, cv, cw, t = case
    assert_same_float(slope_along(lam, cv, cw), reference_slope_along(lam, cv, cw))
    assert slope_along(lam, cw, cw) == 0.0
    assert_same_float(p_value(t, cv, cw), reference_p_value(t, cv, cw))
    assert_same_float(norm_sq(t, cv), reference_norm_sq(t, cv))
    assert_same_float(norm_sq(t, cw), reference_norm_sq(t, cw))


def test_numeric_layer_matches_reference_on_generic_floats():
    # hypothesis favours round magnitudes; seeded generic ones make the
    # order of every addition and of the final sum show in the last bit
    rng = random.Random(4242)
    contexts = [LatticeContext.free(1), LatticeContext.free(2),
                LatticeContext.free(3), LatticeContext.sl(2), LatticeContext.sl(3)]
    for _ in range(1500):
        ctx = rng.choice(contexts)
        dim = ctx.ambient_dim
        cv, cw = (
            CoefficientVector(s, [10 ** rng.uniform(-2, 2) for _ in s.weights])
            for s in (_random_support(rng, ctx, dim), _random_support(rng, ctx, dim))
        )
        lam = [0] * dim
        while not any(lam):
            lam = [rng.randint(-3, 3) for _ in range(dim)]
            if ctx.mode == "sl":
                lam[-1] = -sum(lam[:-1])
        t = TorusPoint([10 ** rng.uniform(-1, 1) for _ in range(dim)])
        assert_same_float(slope_along(lam, cv, cw), reference_slope_along(lam, cv, cw))
        assert_same_float(p_value(t, cv, cw), reference_p_value(t, cv, cw))
        assert_same_float(norm_sq(t, cw), reference_norm_sq(t, cw))
    # Several weights of pairing 0 with lam tie for the dominant term at both
    # sample points, so the order of the final sum shows in the slope too.
    for _ in range(500):
        lam = (0, 0)
        while not any(lam):
            lam = (rng.randint(-3, 3), rng.randint(-3, 3))
        perp = (-lam[1], lam[0])

        def tied_support():
            pts = [(k * perp[0] + j * lam[0], k * perp[1] + j * lam[1])
                   for k in rng.sample(range(-2, 3), rng.randint(3, 5))
                   for j in range(rng.randint(1, 2))]
            support = WeightSupport(pts, FREE2)
            return CoefficientVector(
                support, [10 ** rng.uniform(-2, 2) for _ in support.weights])

        cv, cw = tied_support(), tied_support()
        assert_same_float(slope_along(lam, cv, cw), reference_slope_along(lam, cv, cw))


@pytest.fixture(scope="module")
def kernel_pairs():
    """Pairs of coefficient vectors whose kernels stretch the generated
    source: 2,000 weights, rank 40 with every coordinate nonzero, a support
    with no coordinate terms, a single weight, repeated weights combined by
    from_pairs, and a coordinate whose doubled coefficient overflows to inf."""
    rng = random.Random(2828)

    def mags(support):
        return [10 ** rng.uniform(-2, 2) for _ in support.weights]

    free3 = LatticeContext.free(3)
    cube = list(itertools.product(range(-6, 7), repeat=3))
    big = WeightSupport(rng.sample(cube, 2000), free3)
    small = WeightSupport(rng.sample(cube, 7), free3)
    free40 = LatticeContext.free(40)
    nonzero = (-3, -2, -1, 1, 2, 3)

    def dense(count):
        return WeightSupport([tuple(rng.choice(nonzero) for _ in range(40))
                              for _ in range(count)], free40)

    dense_v, dense_w = dense(12), dense(25)
    single = WeightSupport([(2, -1)], FREE2)
    pts = [(1, 0), (0, 1), (1, 0), (-1, -1), (0, 1), (1, 0)]
    repeated = CoefficientVector.from_pairs(
        zip(pts, [10 ** rng.uniform(-2, 2) for _ in pts]), FREE2)
    huge = WeightSupport([(10 ** 308, 0), (0, 1)], FREE2)
    return [
        (CoefficientVector(small, mags(small)), CoefficientVector(big, mags(big))),
        (CoefficientVector(dense_v, mags(dense_v)),
         CoefficientVector(dense_w, mags(dense_w))),
        (CoefficientVector.units(ORIGIN), CoefficientVector(single, (3.7,))),
        (CoefficientVector(single, (0.2,)), repeated),
        (CoefficientVector.units(ORIGIN), CoefficientVector.units(huge)),
    ]


def test_kernels_match_reference_on_extreme_supports(kernel_pairs):
    rng = random.Random(5)
    for cv, cw in kernel_pairs:
        dim = cv.support.context.ambient_dim
        for _ in range(12):
            lam = [0] * dim
            while not any(lam):
                lam = [rng.randint(-3, 3) for _ in range(dim)]
            t = TorusPoint([2 ** rng.uniform(-1, 1) for _ in range(dim)])
            assert_same_float(slope_along(lam, cv, cw),
                              reference_slope_along(lam, cv, cw))
            assert_same_float(p_value(t, cv, cw), reference_p_value(t, cv, cw))
            assert_same_float(norm_sq(t, cv), reference_norm_sq(t, cv))
            assert_same_float(norm_sq(t, cw), reference_norm_sq(t, cw))
        # every coordinate of the direction is converted to a float, even
        # one that no weight uses
        with pytest.raises(OverflowError):
            slope_along([10 ** 400] + [0] * (dim - 1), cv, cv)


def test_kernels_survive_pickle_and_copy(kernel_pairs):
    rng = random.Random(6)
    for cv, cw in kernel_pairs:
        dim = cv.support.context.ambient_dim
        lam = [rng.randint(1, 3) for _ in range(dim)]
        for back_v, back_w in ((pickle.loads(pickle.dumps(cv)),
                                pickle.loads(pickle.dumps(cw))),
                               (copy.copy(cv), copy.copy(cw))):
            assert back_v == cv and back_w == cw
            assert back_w._kernel is not cw._kernel
            assert_same_float(slope_along(lam, back_v, back_w),
                              slope_along(lam, cv, cw))


def test_precomputed_terms_leave_equality_hash_and_repr_alone():
    a = CoefficientVector(DIAMOND, (1.0, 2.0, 3.0, 4.0))
    b = CoefficientVector.from_pairs(
        zip(DIAMOND.weights, (1.0, 2.0, 3.0, 4.0)), FREE2)
    assert a == b and hash(a) == hash(b)
    assert a != CoefficientVector.units(DIAMOND)
    assert repr(a) == (f"CoefficientVector(support={DIAMOND!r}, "
                       f"magnitudes=(1.0, 2.0, 3.0, 4.0))")


def test_slope_validation_is_kept():
    cv = CoefficientVector.units(WeightSupport([(0, 0)], SL2))
    cw = CoefficientVector.units(WeightSupport([(1, 0), (0, 1)], SL2))
    with pytest.raises(InputError):
        slope_along((1, 1), cv, cw)  # sl direction with nonzero sum
    with pytest.raises(InputError):
        slope_along((1, -1, 0), cv, cw)  # wrong length
    with pytest.raises(InputError):
        slope_along((True, -1), cv, cw)  # bool coordinate
    with pytest.raises(InputError):
        slope_along((1, -1), CoefficientVector.units(DIAMOND), cw)  # contexts differ
    with pytest.raises(InputError):
        p_value(TorusPoint((1.0, 2.0)), CoefficientVector.units(DIAMOND), cw)
