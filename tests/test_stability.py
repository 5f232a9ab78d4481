import gc
import hashlib
import random
import sys
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stablepairs import (
    DegenerationProblem,
    FrameFamily,
    InputError,
    LatticeContext,
    ModeError,
    PairInstance,
    RationalPolytope,
    WeightSupport,
    check_tian0,
    deg_of_V,
    find_degeneration,
    is_semistable,
    is_stable,
    minimal_uniform_m,
    minkowski_combine,
    includes,
    support_value,
    verdict,
    weight,
)
from stablepairs import degeneration, lp, polytope, stability
from stablepairs.generate import free_q, identity_points, pair_instance
from stablepairs.polytope import first_outside_vertex
from stablepairs.stability import _direction_frame_constraints
from conftest import build_corpus, make_fix_b
from lp_reference import linear_program

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


@settings(max_examples=80, deadline=None)
@given(st.integers(2, 5).flatmap(lambda n: st.lists(
    st.tuples(*[st.integers(-10 ** 12, 10 ** 12)] * n), min_size=1, max_size=6)))
def test_sl_geometry_rows_are_scaled_projections(weights):
    n = len(weights[0])
    ctx = LatticeContext.sl(n)
    A = WeightSupport(weights, ctx)
    rows, scale = A.geometry_rows()
    assert scale == n
    assert all(type(c) is int for row in rows for c in row)
    assert rows == tuple(tuple(n * c for c in ctx.project_sl(a)) for a in A.weights)
    free = WeightSupport(weights, LatticeContext.free(n))
    assert free.geometry_rows() == (free.weights, 1)


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


@pytest.mark.parametrize("build", [
    lambda p: PairInstance(p.Av, p.Aw, True, p.identity),
    lambda p: LatticeContext.free(True),
    lambda p: LatticeContext.sl(True),
    lambda p: DegenerationProblem(p.Aw.weights, [True], p.context),
    lambda p: check_tian0(p, True, (0, -1)),
], ids=["q", "rank", "matrix size", "keep index", "margin"])
def test_booleans_are_not_integers(build, fix_b):
    # True == 1, but as a count or an index it is a caller's mistake
    with pytest.raises(InputError):
        build(fix_b)


def test_q_identity_is_built_once_per_instance(fix_a, fix_b):
    assert fix_b.q_identity == fix_b.identity.scaled(fix_b.q)
    assert fix_a.q_identity == fix_a.identity_geom.scaled(fix_a.q)
    # sl-mode identity polytopes depend only on the context and q
    first = PairInstance(fix_a.Av, fix_a.Aw, fix_a.q)
    again = PairInstance(fix_a.Av, fix_a.Aw, fix_a.q)
    assert again.identity is first.identity
    assert again.identity_geom is first.identity_geom
    assert again.q_identity is first.q_identity


def test_origin_check_runs_once_per_instance(monkeypatch):
    # The origin is interior to the pentagon, not a vertex of it.
    points = [(2, 0), (0, 2), (-2, 1), (-1, -2), (1, -2)]
    first_identity = RationalPolytope(points)
    equal_identity = RationalPolytope(points)
    assert equal_identity == first_identity and equal_identity is not first_identity
    Av = WeightSupport([(1, 0), (0, 1)], FREE2)
    Aw = WeightSupport([(1, 1), (-1, -1), (1, -1), (-1, 1)], FREE2)
    origin = (Fraction(0), Fraction(0))
    checked = []
    contains_point = RationalPolytope.contains_point

    def counting(self, y):
        checked.append((self, tuple(y)))
        return contains_point(self, y)

    monkeypatch.setattr(RationalPolytope, "contains_point", counting)
    for identity in (first_identity, equal_identity):
        checked.clear()
        PairInstance(Av, Aw, 1, identity)
        assert checked.count((identity, origin)) == 1
    # an identity polytope without the origin is rejected every time
    offset = RationalPolytope([(1, 1), (3, 1), (1, 3), (2, 2)])
    for _ in range(2):
        with pytest.raises(InputError):
            PairInstance(WeightSupport([(1, 1)], FREE2),
                         WeightSupport([(1, 1)], FREE2), 2, offset)


def test_default_round_solves_only_witness_lps(monkeypatch):
    # Only witnesses cost LPs: building the default-seed corpus, hull
    # vertices included, solves none, deciding it solves only the direction
    # LPs that pick witnesses, and membership and segment reaches never
    # solve one.  Of the 225 direction programs, the 215 of free rank-2,
    # sl(2) and sl(3) frames are settled in closed form, so 10 free rank-3
    # programs reach lp.solve_min_l1 (153 did before the closed form took
    # the plane).  19 least-l1 stages run, as before: 4 of those 10 LPs,
    # and 15 sl(3) ties that the closed form hands to the stage directly.
    directions = {"build": 0, "decide": 0, "geometry": 0}
    stages = dict(directions)
    stage = ["build"]
    solve, solve_min_l1 = lp.solve, lp.solve_min_l1

    def counting(prog):
        stages[stage[-1]] += 1
        return solve(prog)

    def counting_min_l1(prog, over):
        directions[stage[-1]] += 1
        return solve_min_l1(prog, over)

    def lp_free(method):
        def wrapped(*args):
            stage.append("geometry")
            try:
                return method(*args)
            finally:
                stage.pop()
        return wrapped

    monkeypatch.setattr(lp, "solve", counting)
    monkeypatch.setattr(lp, "solve_min_l1", counting_min_l1)
    for name in ("contains_point", "reach"):
        monkeypatch.setattr(RationalPolytope, name, lp_free(getattr(RationalPolytope, name)))
    instances = build_corpus()
    stage[0] = "decide"
    for p in instances:
        verdict(FrameFamily([p]))
    assert directions == {"build": 0, "decide": 10, "geometry": 0}
    assert stages == {"build": 0, "decide": 19, "geometry": 0}


def test_deciding_the_corpus_reads_no_vertex_tuple(monkeypatch):
    # Building and deciding every frame of the default corpus, the 131
    # semistable ones among them, reads the integer vertex rows only: no
    # polytope's Fraction vertex tuple is read, so none is built.
    reads = []
    vertices = RationalPolytope.vertices

    def counting(P):
        reads.append(P)
        return vertices.fget(P)

    monkeypatch.setattr(RationalPolytope, "vertices", property(counting))
    instances = build_corpus()
    semistable = [p for p in instances if is_semistable(p)[0]]
    for p in instances:
        verdict(FrameFamily([p]))
    assert len(semistable) == 131 and reads == []


def test_facet_stores_are_built_once_per_queried_polytope(monkeypatch):
    # A polytope builds its facet description on its first query and keeps
    # it, and equal polytopes are one shared object.  From empty shared
    # caches, building the default corpus builds the stores of its 10
    # distinct free-mode N(I) and q*N(I) (the origin and N(v) checks), and
    # deciding it those of 190 distinct N(w); deciding again builds none.
    for cache in (polytope._shared, stability._sl_identity):
        cache.cache_clear()
    built = []
    facets = polytope._Facets

    def counting(*fields):
        built.append(fields)
        return facets(*fields)

    monkeypatch.setattr(polytope, "_Facets", counting)
    instances = build_corpus()
    assert len(built) == 10
    families = [FrameFamily([p]) for p in instances]
    for family in families:
        verdict(family)
    assert len(built) == 200
    for family in families:
        verdict(family)
    assert len(built) == 200
    polytopes = {id(P): P for p in instances
                 for P in (p.hull_v, p.hull_w, p.identity_geom, p.q_identity)}
    assert sum(P._store is not None for P in polytopes.values()) == 200
    # N(v) is never queried: one that equals no N(w), N(I) or q*N(I) has none
    queried = {P for p in instances for P in (p.hull_w, p.identity_geom, p.q_identity)}
    unqueried = [p.hull_v for p in instances if p.hull_v not in queried]
    assert len(unqueried) == 128 and all(V._store is None for V in unqueried)


def test_stability_lp_runs_only_at_zero_reaches(monkeypatch):
    # Frame 156 of the default corpus.  From the one vertex (3, 0) of N(v)
    # the reaches towards the vertices of q*N(I) are 0, 2/3, 0 and 1.  The
    # program at the first zero reach is not positive, the one at the
    # second gives the witness: two direction programs, where a scan from
    # the first zero reach on also posed one at reach 2/3.  In free rank 2
    # the closed form settles both, so no LP runs.
    p = PairInstance(WeightSupport([(3, 0)], FREE2),
                     WeightSupport([(-1, -1), (1, -2), (3, 0)], FREE2),
                     3, RationalPolytope(identity_points("diamond", 2)))
    assert [p.hull_w.reach((3, 0), b) for b in p.q_identity.vertices] == \
        [0, Fraction(2, 3), 0, 1]
    solves = []
    solve, solve_min_l1 = lp.solve, lp.solve_min_l1

    def counting(prog):
        solves.append(prog)
        return solve(prog)

    def counting_min_l1(prog, over):
        solves.append(prog)
        return solve_min_l1(prog, over)

    monkeypatch.setattr(lp, "solve", counting)
    monkeypatch.setattr(lp, "solve_min_l1", counting_min_l1)
    calls = recorded_directions(monkeypatch, lambda: verdict(FrameFamily([p])))
    assert [(caller, lam) for caller, *_, lam, _ in calls] == \
        [("_stability_witness", None), ("_stability_witness", (1, -4))]
    v = verdict(FrameFamily([p]))
    assert (v.stable, v.witness, solves) == (False, (1, -4), [])


def verdict_keys_digest(instances) -> str:
    """sha256 over the verdict keys (flags, witness, margin, frame index)
    of the instances, in order."""
    h = hashlib.sha256()
    for p in instances:
        v = verdict(FrameFamily([p]))
        h.update(repr((v.semistable, v.stable, v.witness, v.uniform_m,
                       v.frame_index)).encode())
    return h.hexdigest()


def test_corpus_verdict_keys_are_pinned(corpus):
    # The 250 default-seed corpus instances, recorded while the least-l1
    # stage still ran at every positive optimum.  A change in any witness,
    # margin or frame index changes it.
    assert verdict_keys_digest(corpus) == \
        "6d6341a97bb6d45c8569596719a644cfe411188ce65b7b66c28d9a4598ed15ac"


def test_second_seed_corpus_verdict_keys_are_pinned():
    # The corpus at seed 11, recorded while the least-l1 stage still ran
    # wherever the first optimum was not a single point.
    assert verdict_keys_digest(build_corpus(11)) == \
        "6344cc8ad2c09153a730641590d49c65a45504b89a3e5b47b8d62453d6e30fd9"


def test_value_objects_have_no_instance_dict(fix_b):
    family = FrameFamily([fix_b])
    for obj in (fix_b.Av, family, verdict(family), fix_b.context):
        assert not hasattr(obj, "__dict__"), type(obj)


def test_retained_bytes_per_instance():
    # Start from one cache state whatever ran before: empty the shared
    # caches and fill them from the default corpus.  A corpus from another
    # seed shares with it only what small lattice weights make recur.
    for cache in (polytope._shared, stability._sl_identity):
        cache.cache_clear()
    corpus = build_corpus()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        other = build_corpus(seed=7)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(other) == len(corpus)
    assert retained / len(other) < 1536


def test_pair_instance_is_an_immutable_value(fix_b):
    twin = make_fix_b()
    assert twin is not fix_b and twin == fix_b and hash(twin) == hash(fix_b)
    assert repr(twin) == "PairInstance(|Av|=1, |Aw|=4, q=1, mode='free')"
    # each of (Av, Aw, q, identity) takes part in equality
    for other in (PairInstance(WeightSupport([(1, 0)], FREE2), fix_b.Aw, 1, fix_b.identity),
                  PairInstance(fix_b.Av, WeightSupport([(0, 0)], FREE2), 1, fix_b.identity),
                  PairInstance(fix_b.Av, fix_b.Aw, 2, fix_b.identity),
                  PairInstance(fix_b.Av, fix_b.Aw, 1, BOX2)):
        assert other != fix_b
    for name in PairInstance.__slots__:
        with pytest.raises(AttributeError):
            setattr(twin, name, getattr(twin, name))
        with pytest.raises(AttributeError):
            delattr(twin, name)
    # a frame family keeps the equal frames built before it, and is the
    # family built before it from equal frames
    first = FrameFamily([fix_b, fix_b])
    again = FrameFamily([twin, make_fix_b()])
    assert again.frames is first.frames and again.frames[1] is fix_b
    assert again is first and FrameFamily([twin, make_fix_b()]) is first


def test_equal_verdicts_are_shared(fix_b):
    first = verdict(FrameFamily([fix_b]))
    again = verdict(FrameFamily([fix_b]))
    assert again is first


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


def reference_semistability_witness(p, m_prime):
    """The separation witness for an escaped vertex m' of N(v) as first
    written: one min-l1 LP on the box frame, then the direction or its
    negation, whichever separates, skipping one that is not trace-zero in sl
    mode.  Kept as the reference ``is_semistable`` must reproduce."""
    ctx = p.context
    d = ctx.ambient_dim
    nv = d + 1
    cons = _direction_frame_constraints(ctx, nv)
    for y in p.hull_w.vertices:
        cons.append((list(y) + [Fraction(-1)], lp.GEQ, 0))
    objective = [-c for c in m_prime] + [Fraction(1)]
    result = lp.solve_min_l1(linear_program(nv, cons, objective), range(d))
    assert result.value > 0
    lam = lp.rationalize_direction(result.point[:d])
    for candidate in (lam, tuple([-c for c in lam])):
        if sum(candidate) != 0 and ctx.mode == "sl":
            continue
        if weight(candidate, p.Aw) > weight(candidate, p.Av):
            return candidate
    raise AssertionError("no separating direction")


def test_semistability_witness_matches_reference_on_corpus(corpus):
    failing = 0
    for p in corpus:
        outside = first_outside_vertex(p.hull_w, p.hull_v)
        if outside is not None:
            failing += 1
            # the row named with the escaped vertex is one that it breaks
            i, row = polytope._first_outside(p.hull_w, p.hull_v)
            n, h = p.hull_w._facets().inequalities[row]
            assert sum(map(mul, n, p.hull_v.rows[i])) * p.hull_w.scale > h * p.hull_v.scale
            assert is_semistable(p) == (False, reference_semistability_witness(p, outside))
    assert failing == 119
    # on this sl(3) frame the least-l1 tie is broken by the row order, box
    # frame first
    sl3 = LatticeContext.sl(3)
    p = PairInstance(WeightSupport([(0, 0, 1), (1, 0, 0), (1, 0, 1)], sl3),
                     WeightSupport([(1, 1, 0), (1, 0, 0), (1, 0, 1)], sl3), 2)
    outside = first_outside_vertex(p.hull_w, p.hull_v)
    assert reference_semistability_witness(p, outside) == (2, -1, -1)
    assert is_semistable(p) == (False, (2, -1, -1))


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
        p = pair_instance(rng, 2, "sl" if i % 2 else "free", 3)
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
        p = pair_instance(rng, 2, "sl", 3)
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
        p = pair_instance(rng, 2, rng.choice(("free", "sl")), 3)
        m = minimal_uniform_m(p)
        if m is None:
            continue
        found += 1
        assert included_at(p, m) and included_at(p, m + 1) and included_at(p, 2 * m)
        if m > 1:
            assert not included_at(p, m - 1)


def reference_argmin_constraints(base, points, num_vars):
    """<lam, p - base> >= 0 for every p, zero-padded to num_vars, the row of
    base against itself included: the rows of the scan as first written."""
    cons = []
    for p in points:
        row = [p[i] - base[i] for i in range(len(base))]
        row += [Fraction(0)] * (num_vars - len(base))
        cons.append((row, lp.GEQ, 0))
    return cons


def reference_violation(p):
    """Stability witness by the scan over every (vertex u of N(v), vertex
    p_hat of q*N(I)): the first positive stability LP's direction, or None
    when no LP is positive.  Kept as the reference the reach-based decision
    in ``verdict`` must reproduce, witness for witness."""
    ctx, d = p.context, p.context.ambient_dim
    q_vertices = p.identity_geom.scaled(p.q).vertices
    for u in p.hull_v.vertices:
        head = _direction_frame_constraints(ctx, d)
        head += reference_argmin_constraints(u, p.hull_v.vertices, d)
        tail = reference_argmin_constraints(u, p.hull_w.vertices, d)
        for p_hat in q_vertices:
            cons = head + reference_argmin_constraints(p_hat, q_vertices, d) + tail
            objective = [u[i] - p_hat[i] for i in range(d)]
            result = lp.solve_min_l1(linear_program(d, cons, objective), range(d))
            if result.value > 0:
                return lp.rationalize_direction(result.point)
    return None


def reference_margin_or_witness(p):
    """The pair pass that decided a semistable frame before the least reach
    over the facets of N(w): for each vertex row A of N(v), the reach towards
    every vertex row B of q*N(I), the witness LP at each zero reach in turn,
    then a running least reach over the row's reaches.  (m, None) when
    stable, (None, lam) otherwise."""
    V, Q = p.hull_v, p.q_identity
    facets = p.hull_w._facets()
    num, den = 1, 1  # the least reach so far, num/den
    for A in V.rows:
        reaches = [facets.reach([A], V.scale, [B], Q.scale) for B in Q.rows]
        for B, (t, _, _) in zip(Q.rows, reaches):
            if t == 0 and (lam := stability._stability_witness(p, A, B)) is not None:
                return None, lam
        for t, u, _ in reaches:
            if t == 0:
                raise RuntimeError("internal: zero segment reach without a stability witness")
            if t * den < num * u:
                num, den = t, u
    return -(-den // num), None


def matches_reference(p) -> bool:
    """On a semistable instance, check verdict's stable flag and witness
    against the reference scan, and its margin and witness against the
    pair pass, and return True; return False otherwise."""
    if not is_semistable(p)[0]:
        return False
    v = verdict(FrameFamily([p]))
    expected = reference_violation(p)
    assert v.semistable
    assert v.stable == (expected is None)
    assert v.witness == expected
    assert (v.uniform_m is None) == (expected is not None)
    assert (v.uniform_m, v.witness) == reference_margin_or_witness(p)
    return True


def test_verdict_matches_reference_scan_on_corpus(corpus):
    # the default-seed corpus and the one at seed 11
    assert [sum(map(matches_reference, instances))
            for instances in (corpus, build_corpus(11))] == [131, 110]


def test_margin_of_a_large_free_rank_4_frame_matches_the_pair_pass():
    # Far larger than any corpus frame: 30 v-weights in [-2, 2]^4, also
    # among the w-weights, and 50 more w-weights in [-4, 4]^4, with q = 3
    # and the box identity.  N(v) has 25 vertices, q*N(I) 16 and N(w) 135
    # facets.  The least reach over the facets gives the pair pass's margin
    # over all 400 pairs, and the combination fits at m but not at m - 1.
    rng = random.Random(27)
    v = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(30)]
    w = v + [tuple(rng.randint(-4, 4) for _ in range(4)) for _ in range(50)]
    ctx = LatticeContext.free(4)
    p = PairInstance(WeightSupport(v, ctx), WeightSupport(w, ctx), 3,
                     RationalPolytope(identity_points("box", 4)))
    assert (len(p.hull_v.rows), len(p.q_identity.rows),
            len(p.hull_w._facets().inequalities)) == (25, 16, 135)
    assert reference_margin_or_witness(p) == (9, None)
    assert minimal_uniform_m(p) == 9
    assert included_at(p, 9) and not included_at(p, 8)


@st.composite
def degenerate_support(draw, dim):
    """A few small integer weights that are collinear, duplicated, a single
    point, or unstructured, and in rank 3 also coplanar."""
    coord = st.integers(-2, 2)
    point = st.tuples(*[coord] * dim)
    step = st.tuples(*[st.integers(-1, 1)] * dim)
    kinds = ("single", "collinear", "duplicates", "plain") + ("coplanar",) * (dim == 3)
    kind = draw(st.sampled_from(kinds))
    if kind == "single":
        return [draw(point)]
    if kind == "collinear":
        base, s = draw(point), draw(step)
        ks = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        return [tuple(b + k * c for b, c in zip(base, s)) for k in ks]
    if kind == "coplanar":
        base, s, t = draw(point), draw(step), draw(step)
        ks = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=5))
        return [tuple(b + i * x + j * y for b, x, y in zip(base, s, t)) for i, j in ks]
    pts = draw(st.lists(point, min_size=1, max_size=4))
    if kind == "duplicates":
        pts = pts + pts[:1]
    return pts


@st.composite
def nested_supports(draw, mode, dim, surround=st.booleans()):
    """Weights of A(v), and of an A(w) that contains them, from
    ``degenerate_support``.  Where ``surround`` draws True (by default in
    half the draws), A(w) also holds the lattice neighbours of each weight
    of A(v), which puts N(v) inside the relative interior of N(w), so
    stable frames are drawn as well as unstable ones."""
    v_list = draw(degenerate_support(dim))
    w_list = v_list + draw(degenerate_support(dim))
    if draw(surround):
        unit = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
        if mode == "sl":
            steps = [tuple(a - b for a, b in zip(e, f))
                     for e in unit for f in unit if e != f]
        else:
            steps = unit + [tuple(-c for c in e) for e in unit]
        w_list += [tuple(a + s for a, s in zip(v, step)) for v in v_list for step in steps]
    return v_list, w_list


@st.composite
def nested_degenerate_instances(draw):
    """Semistable instances with degenerate supports: A(w) contains A(v).
    Free rank 2 with a box or diamond identity, or sl(2), or sl(3)."""
    mode, dim = draw(st.sampled_from((("free", 2), ("sl", 2), ("sl", 3))))
    v_list, w_list = draw(nested_supports(mode, dim))
    if mode == "sl":
        ctx = LatticeContext.sl(dim)
        Av, Aw = WeightSupport(v_list, ctx), WeightSupport(w_list, ctx)
        q = deg_of_V(WeightSupport(Av.weights + Aw.weights, ctx), ctx)
        return PairInstance(Av, Aw, q)
    shape = draw(st.sampled_from(("box", "diamond")))
    q = free_q(shape, v_list) + draw(st.integers(0, 2))
    return PairInstance(WeightSupport(v_list, FREE2), WeightSupport(w_list, FREE2),
                        q, RationalPolytope(identity_points(shape, dim)))


@st.composite
def degenerate_families(draw):
    """Two or three frames sharing a context and q, with degenerate
    supports: free rank 2 or 3 with a box or diamond identity, or sl(2) or
    sl(3).  In a third of the families every frame has surrounded nested
    supports (``nested_supports``), so whole families are often stable; in
    the others half the frames have nested supports and the others two
    unrelated ones, mostly not semistable.  q is ``deg_of_V`` of all the
    frames' weights in sl mode, and in free mode the least q that holds
    every frame's N(v), or 1 more."""
    mode, dim = draw(st.sampled_from((("free", 2), ("free", 3), ("sl", 2), ("sl", 3))))
    all_surrounded = draw(st.sampled_from((True, False, False)))
    supports = []
    for _ in range(draw(st.integers(2, 3))):
        if all_surrounded:
            supports.append(draw(nested_supports(mode, dim, st.just(True))))
        elif draw(st.booleans()):
            supports.append(draw(nested_supports(mode, dim)))
        else:
            supports.append((draw(degenerate_support(dim)), draw(degenerate_support(dim))))
    if mode == "sl":
        ctx = LatticeContext.sl(dim)
        q = deg_of_V(WeightSupport([a for v, w in supports for a in v + w], ctx), ctx)
        return [PairInstance(WeightSupport(v, ctx), WeightSupport(w, ctx), q)
                for v, w in supports]
    ctx = LatticeContext.free(dim)
    shape = draw(st.sampled_from(("box", "diamond")))
    q = free_q(shape, [a for v, _ in supports for a in v]) + draw(st.integers(0, 1))
    identity = RationalPolytope(identity_points(shape, dim))
    return [PairInstance(WeightSupport(v, ctx), WeightSupport(w, ctx), q, identity)
            for v, w in supports]


def minimality_holds(p) -> bool:
    """On a stable frame with m > 1, check that the row of N(w) attaining
    its least reach gives a direction lam at which the combination fits at
    m but not at m - 1: lam = -n for the row's normal n, in sl mode
    projected to trace zero as -(d*n - sum(n)*(1, ..., 1)), made primitive.
    Return True there and False on any other frame."""
    if not is_semistable(p)[0]:
        return False
    least = stability._margin_or_witness(p)
    if least.witness is not None:
        return False
    m = -(-least.den // least.num)
    if m == 1:
        return False
    n, _ = p.hull_w._facets().inequalities[least.row]
    if p.context.mode == "sl":
        n = [len(n) * x - sum(n) for x in n]
    g = gcd(*n)
    lam = tuple([-x // g for x in n])
    assert check_tian0(p, m, lam), (p, m, lam)
    assert not check_tian0(p, m - 1, lam), (p, m, lam)
    return True


def test_attaining_row_gives_the_minimality_direction_on_corpus(corpus):
    # every stable frame with m > 1 of the default-seed corpus and the one
    # at seed 11
    assert [sum(map(minimality_holds, instances))
            for instances in (corpus, build_corpus(11))] == [25, 18]


@settings(max_examples=60, deadline=None)
@given(nested_degenerate_instances())
def test_verdict_matches_reference_scan_on_degenerate_supports(p):
    assert matches_reference(p)
    minimality_holds(p)


@st.composite
def permuted_sl_pairs(draw):
    """An sl(4) or sl(5) pair from ``nested_supports``, surrounded in half
    the draws, and a permutation of its coordinates."""
    dim = draw(st.sampled_from((4, 5)))
    v_list, w_list = draw(nested_supports("sl", dim))
    return dim, v_list, w_list, draw(st.permutations(range(dim)))


def test_sl_decisions_are_invariant_under_coordinate_permutations():
    # ROADMAP item 6 in sl(4) and sl(5), where the oracle has no guarantee:
    # permuting the N + 1 coordinates (the Weyl group S_{N+1}) moves both
    # supports and fixes the standard simplex and q, so semistable, stable
    # and m must not change.  The original witness, permuted, re-verifies
    # on the moved instance by integer weights; it need not be that
    # instance's own witness, as least-l1 ties are not invariant.  The
    # supports are nested, so every witness is a stability witness, from a
    # direction LP whose face phase decides its uniqueness.
    seen = Counter()

    @settings(max_examples=60, deadline=None)
    @given(permuted_sl_pairs())
    def check(case):
        dim, v_list, w_list, perm = case
        ctx = LatticeContext.sl(dim)

        def move(vec):
            return tuple([vec[i] for i in perm])

        pairs = []
        for v, w in ((v_list, w_list), ([move(a) for a in v_list], [move(a) for a in w_list])):
            Av, Aw = WeightSupport(v, ctx), WeightSupport(w, ctx)
            q = deg_of_V(WeightSupport(Av.weights + Aw.weights, ctx), ctx)
            pairs.append(PairInstance(Av, Aw, q))
        p, moved = pairs
        before, after = [verdict(FrameFamily([frame])) for frame in pairs]
        assert p.q == moved.q
        assert (after.semistable, after.stable, after.uniform_m) == \
            (before.semistable, before.stable, before.uniform_m)
        if before.witness is not None:
            lam = move(before.witness)
            wv, ww = weight(lam, moved.Av), weight(lam, moved.Aw)
            if before.semistable:
                assert ww == wv and moved.q * moved.identity_weight(lam) < wv
            else:
                assert ww > wv
        seen[before.stable, before.witness is not None] += 1

    check()
    assert seen[True, False] and seen[False, True], seen


def test_family_verdict_follows_its_rule_over_single_frames():
    # verdict(family) from the frames' own verdicts, by the rule in its
    # docstring: the first frame that is not semistable wins, even after
    # an earlier unstable frame; otherwise the first unstable frame wins;
    # otherwise m is the largest frame margin.
    outcomes = Counter()

    @settings(max_examples=200, deadline=None)
    @given(degenerate_families())
    def check(frames):
        singles = [verdict(FrameFamily([f])) for f in frames]
        unsemistable = [i for i, v in enumerate(singles) if not v.semistable]
        unstable = [i for i, v in enumerate(singles) if not v.stable]
        if unstable:
            i = (unsemistable or unstable)[0]
            expected = stability.StabilityVerdict(
                semistable=not unsemistable, stable=False,
                witness=singles[i].witness, frame_index=i)
            outcomes["not semistable after unstable" if unstable[0] < i
                     else "not semistable" if unsemistable else "unstable"] += 1
        else:
            expected = stability.StabilityVerdict(
                semistable=True, stable=True, uniform_m=max(v.uniform_m for v in singles))
            outcomes["stable"] += 1
        assert verdict(FrameFamily(frames)) == expected, frames

    check()
    assert len(outcomes) == 4, outcomes


# Direction programs whose directions span at most a plane: free rank <= 2
# and sl(<= 3), where ``_best_direction`` solves no LP but the least-l1
# stage of an sl(3) tie.  The references are the LP path, and on a line
# the closed form that ran there before the plane one, ``best_on_line``.

LINES = (LatticeContext.free(1), LatticeContext.sl(1), LatticeContext.sl(2))
PLANES = (FREE2, LatticeContext.sl(3))


def direction_dim(ctx) -> int:
    return ctx.ambient_dim - (ctx.mode == "sl")


def lp_path_direction(ctx, rows, objective, den):
    """``_best_direction`` by its LP path in any dimension: the least-l1
    optimum of its program, rationalized, or None when not positive."""
    d = ctx.ambient_dim
    result = lp.solve_min_l1(stability._direction_program(ctx, rows, objective, den), range(d))
    return lp.rationalize_direction(result.point[:d]) if result.value > 0 else None


def lp_path(ctx, rows, objective, den):
    """``lp_path_direction`` and the least-l1 stages it runs, as
    (program, over, optimum)."""
    stages = []
    stage = lp.least_l1_stage

    def recording(prog, over, value):
        stages.append((prog, list(over), value))
        return stage(prog, over, value)

    lp.least_l1_stage = recording
    try:
        return lp_path_direction(ctx, rows, objective, den), stages
    finally:
        lp.least_l1_stage = stage


_FLIPPED = {lp.LEQ: lp.GEQ, lp.EQ: lp.EQ, lp.GEQ: lp.LEQ}


def positive_at(rows, objective, lam) -> bool:
    """Whether the best value of a homogeneous program at the direction
    ``lam``, over its extra variable c if any, is positive; False where no
    c satisfies the rows.  With k its value at lam, a row reads
    k + b*c (relation) 0, which bounds c by -k/b when b is not 0.  Whether
    c is bounded where the objective rises does not depend on lam, and
    when it is not, the program is unbounded (RuntimeError)."""
    d = len(lam)
    rise = objective[d] if len(objective) > d else 0  # on c
    feasible, lows, highs = True, [], []
    for con in rows:
        k = sum(c * x for c, x in zip(con.coeffs, lam))
        b = con.coeffs[d] if len(con.coeffs) > d else 0
        if b:
            relation = con.relation if b > 0 else _FLIPPED[con.relation]
            if relation != lp.LEQ:
                lows.append(Fraction(-k, b))
            if relation != lp.GEQ:
                highs.append(Fraction(-k, b))
        elif k and con.relation != (lp.GEQ if k > 0 else lp.LEQ):
            feasible = False
    if rise > 0 and not highs or rise < 0 and not lows:
        raise RuntimeError("internal: the program is unbounded")
    if not feasible or lows and highs and max(lows) > min(highs):
        return False
    value = sum(c * x for c, x in zip(objective, lam))
    if rise:
        value += rise * (min(highs) if rise > 0 else max(lows))
    return value > 0


def best_on_line(ctx, rows, objective):
    """``_best_direction`` on a line as it was settled before the plane
    closed form: the directions are t*e for one primitive e, (1,) in free
    rank 1 and (1, -1) in sl(2), with t in [-1, 1], and a positive optimum
    sits at t = 1 or t = -1 alone; in sl(1) e is 0."""
    d = ctx.ambient_dim
    if any(con.rhs for con in rows):
        raise RuntimeError("internal: a direction row is not homogeneous")
    e = (0,) if ctx.mode == "sl" and d == 1 else (1,) if d == 1 else (1, -1)
    for lam in (e, tuple([-x for x in e])):
        if positive_at(rows, objective, lam):
            return lam
    return None


def recorded_directions(monkeypatch, run):
    """run() with every ``_best_direction`` call recorded as (caller name,
    context, rows, objective, den, returned direction, the least-l1 stages
    it ran as (program, over, optimum))."""
    calls, stages = [], []
    best, stage = stability._best_direction, lp.least_l1_stage

    def recording(ctx, rows, objective, den):
        stages.clear()
        lam = best(ctx, rows, objective, den)
        calls.append((sys._getframe(1).f_code.co_name, ctx, rows, objective, den, lam,
                      list(stages)))
        return lam

    def recording_stage(prog, over, value):
        stages.append((prog, list(over), value))
        return stage(prog, over, value)

    with monkeypatch.context() as m:
        m.setattr(stability, "_best_direction", recording)
        m.setattr(degeneration, "_best_direction", recording)
        m.setattr(lp, "least_l1_stage", recording_stage)
        run()
    return calls


def assert_posed(ctx, rows, objective):
    """The contract of ``_best_direction``: homogeneous rows, every row
    that holds the extra variable c a ">=" row with a negative coefficient
    on it (an upper bound), and an objective that does not lower c and
    raises it only where a row bounds it; the number of rows that bound
    c."""
    d = ctx.ambient_dim
    assert all(con.rhs == 0 for con in rows)
    bounds = [con for con in rows if len(con.coeffs) > d and con.coeffs[d]]
    assert all(con.relation == lp.GEQ and con.coeffs[d] < 0 for con in bounds)
    rise = objective[d] if len(objective) > d else 0
    assert rise >= 0 and (bounds or not rise)
    return len(bounds)


@pytest.mark.parametrize("seed,count", [(20260810, 72), (11, 75)])
def test_line_programs_of_the_corpus_match_the_lp_path(monkeypatch, seed, count):
    # Every direction program of an sl(2) frame met deciding the corpus:
    # the closed form returns what the LP path and the line reference
    # return.  Each is positive: on a line, a zero reach from a towards b
    # puts a at the end of N(w), and so of N(v), on the side of b, and the
    # stability LP there always gives a witness.
    instances = build_corpus(seed)
    calls = recorded_directions(
        monkeypatch, lambda: [verdict(FrameFamily([p])) for p in instances])
    line = [call for call in calls if direction_dim(call[1]) <= 1]
    assert len(line) == count
    for _, ctx, rows, objective, den, lam, stages in line:
        assert (lam, stages) == (lp_path_direction(ctx, rows, objective, den), [])
        assert lam == best_on_line(ctx, rows, objective)
    assert {lam for *_, lam, _ in line} == {(1, -1), (-1, 1)}


@pytest.mark.parametrize("seed,count,ties,nones", [(20260810, 143, 15, 4), (11, 142, 15, 3)])
def test_plane_programs_of_the_corpus_match_the_lp_path(monkeypatch, seed, count, ties, nones):
    # Every direction program of a free rank-2 or sl(3) frame met deciding
    # the corpus: the closed form returns what the LP path returns, and it
    # runs the least-l1 stage exactly where the LP path does, on the same
    # program and optimum.  Those are sl(3) ties; free rank 2 never ties.
    # The programs that are not positive are stability LPs at a zero reach.
    instances = build_corpus(seed)
    calls = recorded_directions(
        monkeypatch, lambda: [verdict(FrameFamily([p])) for p in instances])
    plane = [call for call in calls if direction_dim(call[1]) == 2]
    assert len(plane) == count
    tied = [ctx for _, ctx, *_, stages in plane if stages]
    assert len(tied) == ties and set(tied) == {LatticeContext.sl(3)}
    none = [caller for caller, *_, lam, _ in plane if lam is None]
    assert none == ["_stability_witness"] * nones
    for _, ctx, rows, objective, den, lam, stages in plane:
        assert (lam, stages) == lp_path(ctx, rows, objective, den)
        assert len(stages) <= 1


@pytest.mark.parametrize("seed,counts,bounds", [
    (20260810, (119, 106, 222, 498), 879), (11, (140, 87, 206, 496), 816)])
def test_every_direction_program_of_the_corpus_is_posed(monkeypatch, seed, counts, bounds):
    # Every direction program met deciding the corpus, at every rank, and
    # finding a degeneration of each w support that keeps its first weight
    # alone or every weight, keeps the contract of ``_best_direction``:
    # the closed form reads each row on the extra variable c as an upper
    # bound and raises on any other, and the LP path takes the same rows.
    # The semistability witness and the search with dropped weights bound
    # c in every program; the stability LP and the full-keep-set search
    # carry none.
    instances = build_corpus(seed)

    def run():
        for p in instances:
            verdict(FrameFamily([p]))
            weights = p.Aw.weights
            for keep in ([0], range(len(weights))):
                find_degeneration(DegenerationProblem(weights, keep, p.context))

    seen, rows_on_c = Counter(), 0
    for caller, ctx, rows, objective, *_ in recorded_directions(monkeypatch, run):
        bounded = assert_posed(ctx, rows, objective)
        seen[caller, bool(bounded)] += 1
        rows_on_c += bounded
    assert seen == dict(zip([("_semistability_witness", True), ("_stability_witness", False),
                             ("find_degeneration", True), ("find_degeneration", False)],
                            counts))
    assert rows_on_c == bounds


@st.composite
def line_cases(draw):
    """A pair and a degeneration problem in free rank 1 (with a segment
    identity around the origin), sl(1) or sl(2), from
    ``degenerate_support``: half the pairs nested, a third of the keep
    sets keeping every weight."""
    mode, dim = draw(st.sampled_from((("free", 1), ("sl", 1), ("sl", 2))))
    if draw(st.booleans()):
        v_list, w_list = draw(nested_supports(mode, dim))
    else:
        v_list, w_list = draw(degenerate_support(dim)), draw(degenerate_support(dim))
    ctx = LatticeContext.sl(dim) if mode == "sl" else LatticeContext.free(dim)
    Av, Aw = WeightSupport(v_list, ctx), WeightSupport(w_list, ctx)
    if mode == "sl":
        p = PairInstance(Av, Aw, deg_of_V(WeightSupport(Av.weights + Aw.weights, ctx), ctx))
    else:
        lo, hi = draw(st.integers(-2, -1)), draw(st.integers(1, 2))
        q = 1
        while not all(q * lo <= a <= q * hi for (a,) in Av.weights):
            q += 1
        p = PairInstance(Av, Aw, q + draw(st.integers(0, 1)),
                         RationalPolytope([(lo,), (hi,)]))
    return p, draw(degeneration_problems(ctx))


@st.composite
def degeneration_problems(draw, ctx):
    """A degeneration problem in ``ctx`` from ``degenerate_support``, a
    third of them keeping every weight."""
    dim = ctx.ambient_dim
    weights = draw(degenerate_support(dim)) + draw(degenerate_support(dim))
    if draw(st.sampled_from((True, False, False))):
        keep = range(len(weights))
    else:
        keep = draw(st.sets(st.integers(0, len(weights) - 1), min_size=1))
    return DegenerationProblem(weights, keep, ctx)


@st.composite
def plane_cases(draw):
    """A pair and a degeneration problem in free rank 2 (with a box or
    diamond identity) or sl(3), from ``degenerate_support``: half the pairs
    nested, so that many are semistable, the others unrelated."""
    mode, dim = draw(st.sampled_from((("free", 2), ("sl", 3))))
    if draw(st.booleans()):
        v_list, w_list = draw(nested_supports(mode, dim))
    else:
        v_list, w_list = draw(degenerate_support(dim)), draw(degenerate_support(dim))
    ctx = LatticeContext.sl(dim) if mode == "sl" else FREE2
    Av, Aw = WeightSupport(v_list, ctx), WeightSupport(w_list, ctx)
    if mode == "sl":
        p = PairInstance(Av, Aw, deg_of_V(WeightSupport(Av.weights + Aw.weights, ctx), ctx))
    else:
        shape = draw(st.sampled_from(("box", "diamond")))
        p = PairInstance(Av, Aw, free_q(shape, v_list) + draw(st.integers(0, 1)),
                         RationalPolytope(identity_points(shape, dim)))
    return p, draw(degeneration_problems(ctx))


def test_line_programs_from_every_caller_match_the_lp_path(monkeypatch):
    # Semistability and stability witnesses, degeneration with dropped
    # weights and the full-keep-set search, in free rank 1, sl(1) and
    # sl(2): the closed form returns what the LP path and the line
    # reference return.
    seen = Counter()

    @settings(max_examples=300, deadline=None)
    @given(line_cases())
    def check(case):
        p, prob = case
        calls = recorded_directions(
            monkeypatch, lambda: (verdict(FrameFamily([p])), find_degeneration(prob)))
        for caller, ctx, rows, objective, den, lam, stages in calls:
            assert_posed(ctx, rows, objective)
            assert (lam, stages) == (lp_path_direction(ctx, rows, objective, den), [])
            assert lam == best_on_line(ctx, rows, objective)
            seen[caller, len(objective) > ctx.ambient_dim] += 1
            seen[ctx.mode, ctx.ambient_dim, lam is not None] += 1

    check()
    for key in (("_semistability_witness", True), ("_stability_witness", False),
                ("find_degeneration", True), ("find_degeneration", False),
                ("free", 1, True), ("free", 1, False),
                ("sl", 1, False), ("sl", 2, True), ("sl", 2, False)):
        assert seen[key] > 0, (key, seen)


def test_plane_programs_from_every_caller_match_the_lp_path(monkeypatch):
    # The same four callers in free rank 2 and sl(3): the closed form
    # returns what the LP path returns and runs the least-l1 stage exactly
    # where it does, on the same program and optimum; free rank 2 never
    # reaches the stage.
    seen = Counter()

    @settings(max_examples=300, deadline=None)
    @given(plane_cases())
    def check(case):
        p, prob = case
        calls = recorded_directions(
            monkeypatch, lambda: (verdict(FrameFamily([p])), find_degeneration(prob)))
        for caller, ctx, rows, objective, den, lam, stages in calls:
            assert_posed(ctx, rows, objective)
            assert (lam, stages) == lp_path(ctx, rows, objective, den)
            assert not (stages and ctx == FREE2)
            key = caller, len(objective) > ctx.ambient_dim
            seen[key, "tie" if stages else lam is not None] += 1
            seen[ctx.mode, lam is not None] += 1

    check()
    for caller in (("_semistability_witness", True), ("_stability_witness", False),
                   ("find_degeneration", True), ("find_degeneration", False)):
        assert seen[caller, True] > 0, (caller, seen)
    for key in (("free", True), ("free", False), ("sl", True), ("sl", False),
                (("find_degeneration", True), False), (("_stability_witness", False), "tie")):
        assert seen[key] > 0, (key, seen)


@pytest.mark.parametrize("ctx", LINES + PLANES)
def test_line_path_rejects_a_row_that_is_not_homogeneous(ctx):
    # feasible at the origin, but with right-hand side -1
    row = lp.Constraint((1,) * ctx.ambient_dim, lp.GEQ, -1, 1)
    objective = (1,) + (0,) * (ctx.ambient_dim - 1)
    with pytest.raises(RuntimeError, match="not homogeneous"):
        stability._best_direction(ctx, [row], objective, 1)


def test_line_path_raises_on_an_unbounded_program():
    # maximize c, which no row bounds
    with pytest.raises(RuntimeError, match="unbounded"):
        stability._best_direction(LatticeContext.free(1), [], (0, 1), 1)


def test_line_path_rejects_a_lower_bound_on_the_extra_variable():
    # maximize c subject to c >= <lam, 1>: a lower bound on c, which no
    # caller poses, is an internal error in the closed form; the LP path
    # finds the program unbounded, as c has no upper bound at any lam
    ctx = LatticeContext.free(1)
    rows = [lp.Constraint((-1, 1), lp.GEQ, 0, 1)]
    with pytest.raises(RuntimeError, match="other than from above"):
        stability._best_direction(ctx, rows, (0, 1), 1)
    with pytest.raises(RuntimeError, match="unbounded"):
        lp_path_direction(ctx, rows, (0, 1), 1)


@pytest.mark.parametrize("ctx", LINES + PLANES)
@pytest.mark.parametrize("relation,b", [(lp.LEQ, 1), (lp.LEQ, -1), (lp.EQ, -1), (lp.GEQ, 1)])
def test_closed_form_rejects_a_row_that_bounds_c_other_than_from_above(ctx, relation, b):
    # next to an upper bound c <= <lam, 1>, so the program is bounded: a
    # "<=" row (even an upper bound written so), an "=" row, or a ">=" row
    # with a positive coefficient on c
    d = ctx.ambient_dim
    rows = [lp.Constraint((1,) * d + (-1,), lp.GEQ, 0, 1),
            lp.Constraint((0,) * d + (b,), relation, 0, 1)]
    with pytest.raises(RuntimeError, match="other than from above"):
        stability._best_direction(ctx, rows, (0,) * d + (1,), 1)


@pytest.mark.parametrize("ctx", PLANES)
def test_plane_path_raises_on_an_unbounded_program(ctx):
    # minimize c subject to c <= <lam, 1> and <lam, e_0> >= 0: c has no
    # lower bound at any lam
    d = ctx.ambient_dim
    rows = [lp.Constraint((1,) * d + (-1,), lp.GEQ, 0, 1),
            lp.Constraint((1,) + (0,) * d, lp.GEQ, 0, 1)]
    objective = (0,) * d + (-1,)
    with pytest.raises(RuntimeError, match="unbounded"):
        stability._best_direction(ctx, rows, objective, 1)
    with pytest.raises(RuntimeError, match="unbounded"):
        lp_path_direction(ctx, rows, objective, 1)


def test_an_extra_variable_in_no_row_is_no_error(monkeypatch):
    # Maximize lam_0 with an extra variable that no row bounds and the
    # objective ignores: the program is bounded.  The LP face phase used to
    # maximize that variable too and raise "unbounded"; it now tests only
    # the direction's coordinates.  Free rank 2 is settled in closed form,
    # sl(3) is a tie (the hexagon edge lam_0 = 1) left to the least-l1
    # stage, and free ranks 3 and 4 end in the face phase.
    stages = []
    stage = lp.least_l1_stage

    def recording(prog, over, value):
        stages.append(value)
        return stage(prog, over, value)

    monkeypatch.setattr(lp, "least_l1_stage", recording)
    cases = [(FREE2, (1, 0), []), (LatticeContext.sl(3), (1, -1, 0), [1]),
             (LatticeContext.free(3), (1, 0, 0), []),
             (LatticeContext.free(4), (1, 0, 0, 0), [])]
    for ctx, expected, stage_values in cases:
        stages.clear()
        d = ctx.ambient_dim
        assert stability._best_direction(ctx, [], (1,) + (0,) * d, 1) == expected
        assert stages == stage_values


@st.composite
def homogeneous_programs(draw, contexts):
    """A program posed as ``_best_direction`` requires, in one of
    ``contexts``, with or without an extra variable c: up to four small
    integer rows without c of every relation over denominators 1-3, which
    cut off rays, and with c one to three ">=" rows with a negative
    coefficient on it, which bound it from above, and an objective that
    raises c or ignores it."""
    ctx = draw(st.sampled_from(contexts))
    d = ctx.ambient_dim
    extra = draw(st.booleans())
    direction = st.tuples(*[st.integers(-2, 2)] * d)
    rows = [lp.Constraint(a + (0,) * extra, relation, 0, den)
            for a, relation, den in draw(st.lists(st.tuples(
                direction, st.sampled_from((lp.LEQ, lp.EQ, lp.GEQ)), st.integers(1, 3)),
                max_size=4))]
    objective = draw(direction)
    if extra:
        rows += [lp.Constraint(a + (-b,), lp.GEQ, 0, den)
                 for a, b, den in draw(st.lists(st.tuples(
                     direction, st.integers(1, 2), st.integers(1, 3)), min_size=1, max_size=3))]
        objective += (draw(st.integers(0, 2)),)
    return ctx, draw(st.permutations(rows)), objective


@settings(max_examples=400, deadline=None)
@given(homogeneous_programs(LINES))
def test_line_path_matches_the_lp_path_on_homogeneous_programs(case):
    ctx, rows, objective = case
    assert_posed(ctx, rows, objective)
    expected = lp_path_direction(ctx, rows, objective, 1)
    assert stability._best_direction(ctx, rows, objective, 1) == expected
    assert best_on_line(ctx, rows, objective) == expected


def test_plane_path_matches_the_lp_path_on_homogeneous_programs(monkeypatch):
    # Random homogeneous programs in free rank 2 and sl(3): the closed form
    # returns the LP path's direction and runs the least-l1 stage exactly
    # where it does, on the same program and optimum.  The draws hold
    # rays that a row without c cuts off, ties, and objectives that raise c
    # under two or more bounds, whose pairwise ties add candidates.
    seen = Counter()

    @settings(max_examples=500, deadline=None)
    @given(homogeneous_programs(PLANES))
    def check(case):
        ctx, rows, objective = case
        if assert_posed(ctx, rows, objective) > 1 and objective[-1]:
            seen["c under two bounds"] += 1
        [(*_, lam, stages)] = recorded_directions(
            monkeypatch, lambda: stability._best_direction(ctx, rows, objective, 1))
        assert (lam, stages) == lp_path(ctx, rows, objective, 1)
        assert not (stages and ctx == FREE2)
        seen[ctx.mode, "tie" if stages else lam is not None] += 1
        d = ctx.ambient_dim
        for _, point in stability._plane(ctx)[1]:
            ks = [sum(c * x for c, x in zip(con.coeffs, point)) for con in rows]
            if any(k and (len(con.coeffs) == d or not con.coeffs[d])
                   and con.relation != (lp.GEQ if k > 0 else lp.LEQ)
                   for k, con in zip(ks, rows)):
                seen["ray cut off"] += 1

    check()
    for key in (("free", True), ("free", False), ("sl", True), ("sl", False), ("sl", "tie"),
                "ray cut off", "c under two bounds"):
        assert seen[key] > 0, (key, seen)
