import gc
import hashlib
import random
import tracemalloc
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
from stablepairs import lp, polytope, stability
from stablepairs.cli import _free_q
from stablepairs.polytope import first_outside_vertex
from stablepairs.stability import _direction_frame_constraints
from conftest import build_corpus, identity_polytope, make_fix_b, random_pair_instance

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
    # solve one.  26 of the 225 direction LPs run the least-l1 stage.
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
    assert directions == {"build": 0, "decide": 225, "geometry": 0}
    assert stages == {"build": 0, "decide": 26, "geometry": 0}


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
    # LP at the first zero reach is not positive, the one at the second
    # gives the witness: two direction LPs, where a scan from the first zero
    # reach on also solved one at reach 2/3.  The witness's optimum is a
    # single point, so neither runs the least-l1 stage.
    p = PairInstance(WeightSupport([(3, 0)], FREE2),
                     WeightSupport([(-1, -1), (1, -2), (3, 0)], FREE2),
                     3, identity_polytope("diamond", 2))
    assert [p.hull_w.reach((3, 0), b) for b in p.q_identity.vertices] == \
        [0, Fraction(2, 3), 0, 1]
    directions = []
    stages = []
    solve, solve_min_l1 = lp.solve, lp.solve_min_l1

    def counting(prog):
        stages.append(prog)
        return solve(prog)

    def counting_min_l1(prog, over):
        directions.append(prog)
        return solve_min_l1(prog, over)

    monkeypatch.setattr(lp, "solve", counting)
    monkeypatch.setattr(lp, "solve_min_l1", counting_min_l1)
    v = verdict(FrameFamily([p]))
    assert (v.stable, v.witness, len(directions), len(stages)) == (False, (1, -4), 2, 0)


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
    # a frame family keeps the equal frames built before it
    first = FrameFamily([fix_b, fix_b])
    again = FrameFamily([twin, make_fix_b()])
    assert again.frames is first.frames and again.frames[1] is fix_b


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
    result = lp.solve_min_l1(lp.linear_program(nv, cons, objective), range(d))
    assert result.status == lp.OPTIMAL and result.value > 0
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
            result = lp.solve_min_l1(lp.linear_program(d, cons, objective), range(d))
            assert result.status == lp.OPTIMAL
            if result.value > 0:
                return lp.rationalize_direction(result.point)
    return None


def matches_reference(p) -> bool:
    """On a semistable instance, check verdict's stable flag and witness
    against the reference scan and return True; return False otherwise."""
    if not is_semistable(p)[0]:
        return False
    v = verdict(FrameFamily([p]))
    expected = reference_violation(p)
    assert v.semistable
    assert v.stable == (expected is None)
    assert v.witness == expected
    assert (v.uniform_m is None) == (expected is not None)
    return True


def test_verdict_matches_reference_scan_on_corpus(corpus):
    assert sum(matches_reference(p) for p in corpus) == 131


@st.composite
def degenerate_support(draw, dim):
    """A few small integer weights that are collinear, duplicated, a single
    point, or unstructured."""
    coord = st.integers(-2, 2)
    point = st.tuples(*[coord] * dim)
    kind = draw(st.sampled_from(("single", "collinear", "duplicates", "plain")))
    if kind == "single":
        return [draw(point)]
    if kind == "collinear":
        base = draw(point)
        step = draw(st.tuples(*[st.integers(-1, 1)] * dim))
        ks = draw(st.lists(st.integers(-2, 2), min_size=1, max_size=4))
        return [tuple(b + k * s for b, s in zip(base, step)) for k in ks]
    pts = draw(st.lists(point, min_size=1, max_size=4))
    if kind == "duplicates":
        pts = pts + pts[:1]
    return pts


@st.composite
def nested_degenerate_instances(draw):
    """Semistable instances with degenerate supports: A(w) contains A(v).
    Free rank 2 with a box or diamond identity, or sl(2), or sl(3).  Half
    the draws also surround each weight of A(v) by its lattice neighbours in
    A(w), which puts N(v) inside the relative interior of N(w), so stable
    verdicts are drawn as well as unstable ones."""
    mode, dim = draw(st.sampled_from((("free", 2), ("sl", 2), ("sl", 3))))
    v_list = draw(degenerate_support(dim))
    w_list = v_list + draw(degenerate_support(dim))
    if draw(st.booleans()):
        unit = [tuple(int(i == k) for i in range(dim)) for k in range(dim)]
        if mode == "sl":
            steps = [tuple(a - b for a, b in zip(e, f))
                     for e in unit for f in unit if e != f]
        else:
            steps = unit + [tuple(-c for c in e) for e in unit]
        w_list += [tuple(a + s for a, s in zip(v, step)) for v in v_list for step in steps]
    if mode == "sl":
        ctx = LatticeContext.sl(dim)
        Av, Aw = WeightSupport(v_list, ctx), WeightSupport(w_list, ctx)
        q = deg_of_V(WeightSupport(Av.weights + Aw.weights, ctx), ctx)
        return PairInstance(Av, Aw, q)
    shape = draw(st.sampled_from(("box", "diamond")))
    q = _free_q(shape, v_list) + draw(st.integers(0, 2))
    return PairInstance(WeightSupport(v_list, FREE2), WeightSupport(w_list, FREE2),
                        q, identity_polytope(shape, dim))


@settings(max_examples=60, deadline=None)
@given(nested_degenerate_instances())
def test_verdict_matches_reference_scan_on_degenerate_supports(p):
    assert matches_reference(p)
