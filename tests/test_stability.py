import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepairs import (
    FrameFamily,
    InputError,
    LatticeContext,
    ModeError,
    PairInstance,
    RationalPolytope,
    WeightSupport,
    check_tian0,
    deg_of_V,
    is_semistable,
    is_stable,
    minimal_uniform_m,
    minkowski_combine,
    includes,
    support_value,
    verdict,
    weight,
)
from conftest import random_pair_instance

FREE2 = LatticeContext.free(2)
SL2 = LatticeContext.sl(2)
BOX2 = RationalPolytope([(1, 1), (1, -1), (-1, 1), (-1, -1)])


def test_weight_examples():
    A = WeightSupport([(1, 0), (0, 1)], FREE2)
    assert weight((1, -1), A) == -1
    I2 = WeightSupport([(1, 0), (0, 1)], SL2)
    assert weight((1, -1), I2) == -1
    diamond = WeightSupport([(1, 0), (-1, 0), (0, 1), (0, -1)], FREE2)
    assert weight((0, -1), diamond) == -1


def test_weight_rejects_zero_direction():
    A = WeightSupport([(1, 0)], FREE2)
    with pytest.raises(InputError):
        weight((0, 0), A)


@settings(max_examples=80, deadline=None)
@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
                min_size=1, max_size=6),
       st.tuples(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)))
def test_weight_support_duality(weights, lam):
    # w_lam(A) = -support_value(hull(A), -lam), exactly
    if not any(lam):
        return
    ctx = LatticeContext.free(3)
    A = WeightSupport(weights, ctx)
    hull = RationalPolytope(A.weights)
    assert weight(lam, A) == -support_value(hull, tuple(-c for c in lam))


def test_deg_of_v_examples():
    assert deg_of_V(WeightSupport([(1, 0), (0, 1)], SL2), SL2) == 1
    assert deg_of_V(WeightSupport([(2, 0), (0, 2), (1, 1)], SL2), SL2) == 2
    assert deg_of_V(WeightSupport([(0, 0)], SL2), SL2) == 1
    with pytest.raises(ModeError):
        deg_of_V(WeightSupport([(1, 0)], SL2), FREE2)


def test_weight_support_dedupes_and_sorts():
    A = WeightSupport([(1, 0), (0, 1), (1, 0)], FREE2)
    assert A.weights == ((0, 1), (1, 0))
    with pytest.raises(InputError):
        WeightSupport([], FREE2)


def test_pair_instance_construction_guards():
    # q too small for the support: N(v) escapes q*N(I)
    with pytest.raises(InputError):
        PairInstance(WeightSupport([(3, 0)], SL2), WeightSupport([(0, 0)], SL2), 1)
    with pytest.raises(InputError):
        PairInstance(WeightSupport([(5, 0)], FREE2),
                     WeightSupport([(0, 0)], FREE2), 1, BOX2)
    # identity must contain the origin in free mode
    offset = RationalPolytope([(1, 1), (2, 1), (1, 2)])
    with pytest.raises(InputError):
        PairInstance(WeightSupport([(1, 1)], FREE2),
                     WeightSupport([(1, 1)], FREE2), 2, offset)
    # identity polytope is fixed in sl mode
    with pytest.raises(InputError):
        PairInstance(WeightSupport([(1, 0)], SL2),
                     WeightSupport([(1, 0)], SL2), 1, BOX2)
    with pytest.raises(InputError):
        PairInstance(WeightSupport([(1, 0)], SL2),
                     WeightSupport([(1, 0)], FREE2), 1)


def test_is_semistable_nested_sl_segments(fix_a):
    ok, wit = is_semistable(fix_a)
    assert ok and wit is None


def test_is_semistable_failure_with_witness():
    p = PairInstance(WeightSupport([(1, 0)], FREE2),
                     WeightSupport([(0, 0)], FREE2), 1, BOX2)
    ok, lam = is_semistable(p)
    assert not ok
    assert lam == (-1, 0)
    assert weight(lam, p.Av) == -1
    assert weight(lam, p.Aw) == 0


def test_is_semistable_reflexive():
    A = WeightSupport([(2, -1), (0, 3)], FREE2)
    p = PairInstance(A, A, 3, BOX2)
    assert is_semistable(p) == (True, None)


def test_is_stable_fixtures(fix_a, fix_b, fix_c):
    assert is_stable(fix_b) == (True, None)
    ok, lam = is_stable(fix_c)
    assert not ok
    assert lam in ((0, 1), (0, -1))
    # witness re-verification by hand: equal weights, strict premise
    assert weight(lam, fix_c.Av) == weight(lam, fix_c.Aw) == 0
    assert fix_c.q * fix_c.identity_weight(lam) == -1
    # the premise is never strict for FIX-A, so it is stable
    assert is_stable(fix_a) == (True, None)


def test_minimal_uniform_m_fixtures(fix_a, fix_b, fix_c):
    assert minimal_uniform_m(fix_b) == 2
    assert minimal_uniform_m(fix_a) == 1
    assert minimal_uniform_m(fix_c) is None


def test_minimal_m_inclusion_is_tight(fix_b):
    # the combination vertex (-1/m, -1/m) needs 1-norm 2/m <= 1
    comb = minkowski_combine(fix_b.hull_v, fix_b.identity_geom.scaled(fix_b.q),
                             Fraction(1, 2), Fraction(1, 2))
    assert includes(fix_b.hull_w, comb)
    comb1 = minkowski_combine(fix_b.hull_v, fix_b.identity_geom.scaled(fix_b.q),
                              Fraction(0), Fraction(1))
    assert not includes(fix_b.hull_w, comb1)


def included_at(p, k):
    """Is (1 - 1/k) N(v) + (1/k) q N(I) inside N(w), by hull and inclusion?"""
    comb = minkowski_combine(p.hull_v, p.identity_geom.scaled(p.q),
                             Fraction(k - 1, k), Fraction(1, k))
    return includes(p.hull_w, comb)


@pytest.mark.parametrize("r,m", [(1, 300), (7, 43)])
def test_minimal_m_at_large_margin(r, m):
    # The reach from the origin towards the box corner (150, 150) is r/300;
    # at r = 1 its reciprocal is an integer, so the combination at m touches
    # the boundary of N(w).
    diamond = [(r, 0), (-r, 0), (0, r), (0, -r)]
    p = PairInstance(WeightSupport([(0, 0)], FREE2), WeightSupport(diamond, FREE2),
                     150, BOX2)
    assert minimal_uniform_m(p) == m
    assert included_at(p, m) and not included_at(p, m - 1)


def test_check_tian0_examples(fix_b, fix_a):
    assert check_tian0(fix_b, 2, (0, -1))
    # at m=1 the direction (1,1) violates: 1*(0-(-1)) = 1 < 2 = 0 - 1*(-2)
    assert weight((1, 1), fix_b.Aw) == -1
    assert fix_b.identity_weight((1, 1)) == -2
    assert not check_tian0(fix_b, 1, (1, 1))
    # all three weights coincide for every trace-zero direction when both
    # supports are the simplex weights, so the inequality is 0 >= 0 at any m
    I2 = WeightSupport([(1, 0), (0, 1)], SL2)
    p_eq = PairInstance(I2, I2, 1)
    for lam in ((1, -1), (-1, 1), (4, -4)):
        assert weight(lam, p_eq.Av) == weight(lam, p_eq.Aw) == \
            p_eq.q * p_eq.identity_weight(lam)
        for m in (1, 2, 17):
            assert check_tian0(p_eq, m, lam)
    with pytest.raises(InputError):
        check_tian0(fix_b, 0, (0, 1))
    with pytest.raises(InputError):
        check_tian0(fix_b, 1, (0, 0))


def test_verdict_families(fix_b, fix_c, fix_d):
    only_b = verdict(FrameFamily([fix_b]))
    assert (only_b.semistable, only_b.stable, only_b.uniform_m) == (True, True, 2)
    assert only_b.witness is None

    mixed = verdict(FrameFamily([fix_b, fix_c]))
    assert mixed.semistable and not mixed.stable
    assert mixed.uniform_m is None
    assert mixed.frame_index == 1
    assert mixed.witness in ((0, 1), (0, -1))

    bad = verdict(FrameFamily([fix_d]))
    assert not bad.semistable and not bad.stable
    assert bad.witness == (-1, 0)
    assert bad.frame_index == 0


def test_frame_family_validation(fix_b, fix_c, fix_a):
    with pytest.raises(InputError):
        FrameFamily([])
    with pytest.raises(InputError):
        FrameFamily([fix_b, fix_a])  # different contexts
    seg = WeightSupport([(-1, 0), (1, 0)], FREE2)
    q2 = PairInstance(seg, seg, 2, BOX2)
    with pytest.raises(InputError):
        FrameFamily([fix_c, q2])  # same context, different q


def test_witness_soundness_on_random_instances():
    rng = random.Random(99)
    for i in range(40):
        p = random_pair_instance(rng, 2, "sl" if i % 2 else "free", 3)
        semi, wit = is_semistable(p)
        if not semi:
            assert weight(wit, p.Aw) > weight(wit, p.Av)
            continue
        stable, wit = is_stable(p)
        if not stable:
            assert weight(wit, p.Av) == weight(wit, p.Aw)
            assert p.q * p.identity_weight(wit) < weight(wit, p.Av)


def test_sl_coset_invariance_spot():
    rng = random.Random(31)
    for _ in range(15):
        p = random_pair_instance(rng, 2, "sl", 3)
        for c in (1, -2):
            shifted = PairInstance(p.Av.shifted((c, c)), p.Aw.shifted((c, c)), p.q)
            assert is_semistable(shifted)[0] == is_semistable(p)[0]
            assert is_stable(shifted)[0] == is_stable(p)[0]
            assert minimal_uniform_m(shifted) == minimal_uniform_m(p)


def test_free_scale_equivariance_spot(fix_b):
    for s in (2, 5):
        scaled = PairInstance(
            WeightSupport([tuple(s * c for c in a) for a in fix_b.Av.weights], FREE2),
            WeightSupport([tuple(s * c for c in a) for a in fix_b.Aw.weights], FREE2),
            fix_b.q,
            fix_b.identity.scaled(s),
        )
        assert is_stable(scaled) == (True, None)
        assert minimal_uniform_m(scaled) == 2


def test_minkowski_monotonicity_around_threshold():
    rng = random.Random(17)
    found = 0
    while found < 8:
        p = random_pair_instance(rng, 2, rng.choice(("free", "sl")), 3)
        m = minimal_uniform_m(p)
        if m is None:
            continue
        found += 1
        assert included_at(p, m) and included_at(p, m + 1) and included_at(p, 2 * m)
        if m > 1:
            assert not included_at(p, m - 1)
