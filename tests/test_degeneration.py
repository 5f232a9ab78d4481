import itertools
import math
import random
from fractions import Fraction

import pytest

from stablepairs import (
    DegenerationProblem,
    InputError,
    LatticeContext,
    WeightSupport,
    find_degeneration,
    limit_support,
    lp,
)
from stablepairs.lattice import dot
from stablepairs.stability import _direction_frame_constraints

FREE2 = LatticeContext.free(2)
SL2 = LatticeContext.sl(2)


def brute_reachable(prob: DegenerationProblem, bound: int) -> bool:
    """Exhaustive check: does any integer direction in the box achieve the
    keep set as the argmin of its pairings?"""
    ctx = prob.context
    d = ctx.ambient_dim
    for lam in itertools.product(range(-bound, bound + 1), repeat=d):
        if not any(lam):
            continue
        if ctx.mode == "sl" and sum(lam) != 0:
            continue
        pairings = [dot(lam, a) for a in prob.weights]
        low = min(pairings)
        if {i for i, v in enumerate(pairings) if v == low} == prob.keep:
            return True
    return False


def exhaustive_bound(prob: DegenerationProblem) -> int:
    """d * Hadamard bound over pairwise weight differences; in dimension <= 3
    this box provably meets every argmin-pattern cone."""
    d = prob.context.ambient_dim
    if d == 1:
        return 1
    spread = 0
    for i in range(d):
        coords = [a[i] for a in prob.weights]
        spread = max(spread, max(coords) - min(coords))
    if spread == 0:
        return d
    x = (d - 1) ** (d - 1) * spread ** (2 * (d - 1))
    root = math.isqrt(x)
    if root * root < x:
        root += 1
    return d * root


def test_reach_origin_from_triangle():
    prob = DegenerationProblem([(1, 0), (0, 1), (0, 0)], [2], FREE2)
    lam = find_degeneration(prob)
    assert lam == (1, 1)
    assert [dot(lam, a) for a in prob.weights] == [1, 1, 0]


def test_sign_contradiction_unreachable():
    prob = DegenerationProblem([(1, 0), (-1, 0), (0, 0)], [2], FREE2)
    assert find_degeneration(prob) is None
    assert not brute_reachable(prob, exhaustive_bound(prob))


def test_keep_everything_single_weight_sl():
    # a single weight is always its own argmin, so any trace-zero direction
    # achieves the full keep set
    prob = DegenerationProblem([(1, -1)], [0], SL2)
    lam = find_degeneration(prob)
    assert lam is not None
    assert sum(lam) == 0
    A = WeightSupport([(1, -1)], SL2)
    assert set(limit_support(A, lam)) == {(1, -1)}


def test_keep_everything_needs_equal_pairings():
    prob = DegenerationProblem([(1, 0), (0, 1)], [0, 1], FREE2)
    lam = find_degeneration(prob)
    assert lam is not None
    assert dot(lam, (1, 0)) == dot(lam, (0, 1))


def test_nonzero_common_level():
    # argmin at (1,0) forces a positive common level: no direction pairs to
    # zero on the kept weight while staying positive on (2,0)
    prob = DegenerationProblem([(1, 0), (2, 0)], [0], FREE2)
    lam = find_degeneration(prob)
    assert lam is not None
    pairings = [dot(lam, a) for a in prob.weights]
    assert pairings[0] < pairings[1]


def test_limit_support_examples():
    A = WeightSupport([(1, 0), (0, 1)], FREE2)
    assert limit_support(A, (1, -1)) == ((0, 1),)
    assert set(limit_support(A, (1, 1))) == {(1, 0), (0, 1)}
    B = WeightSupport([(1, 0), (-1, 0), (0, 0)], FREE2)
    assert limit_support(B, (2, 5)) == ((-1, 0),)
    with pytest.raises(InputError):
        limit_support(A, (0, 0))


def test_problem_validation():
    with pytest.raises(InputError):
        DegenerationProblem([(1, 0)], [], FREE2)
    with pytest.raises(InputError):
        DegenerationProblem([(1, 0)], [1], FREE2)
    with pytest.raises(InputError):
        DegenerationProblem([], [0], FREE2)


def test_duplicate_weight_split_is_unreachable():
    # same weight kept at one index and dropped at another can never split
    prob = DegenerationProblem([(1, 0), (1, 0), (0, 0)], [0], FREE2)
    assert find_degeneration(prob) is None


def test_round_trip_random():
    rng = random.Random(12)
    for trial in range(80):
        mode = "sl" if trial % 2 else "free"
        dim = rng.choice((2, 3))
        ctx = LatticeContext.sl(dim) if mode == "sl" else LatticeContext.free(dim)
        weights = sorted({
            tuple(rng.randint(-2, 2) for _ in range(dim))
            for _ in range(rng.randint(1, 5))
        })
        lam = None
        while lam is None:
            cand = tuple(rng.randint(-3, 3) for _ in range(dim))
            if mode == "sl":
                cand = cand[:-1] + (-sum(cand[:-1]),)
            if any(cand):
                lam = cand
        pairings = [dot(lam, a) for a in weights]
        low = min(pairings)
        keep = [i for i, v in enumerate(pairings) if v == low]
        prob = DegenerationProblem(weights, keep, ctx)
        found = find_degeneration(prob)
        assert found is not None, (weights, keep, lam)
        got = [dot(found, a) for a in weights]
        low2 = min(got)
        assert [i for i, v in enumerate(got) if v == low2] == keep
        # primitivity of the certificate
        assert math.gcd(*(abs(c) for c in found)) == 1


def test_none_is_sound_against_brute_force():
    rng = random.Random(13)
    confirmed_none = 0
    while confirmed_none < 12:
        dim = rng.choice((2, 3))
        ctx = LatticeContext.free(dim)
        weights = sorted({
            tuple(rng.randint(-2, 2) for _ in range(dim))
            for _ in range(rng.randint(2, 5))
        })
        size = rng.randint(1, len(weights))
        keep = sorted(rng.sample(range(len(weights)), size))
        prob = DegenerationProblem(weights, keep, ctx)
        lam = find_degeneration(prob)
        if lam is None:
            assert not brute_reachable(prob, exhaustive_bound(prob))
            confirmed_none += 1
        else:
            got = [dot(lam, a) for a in weights]
            low = min(got)
            assert [i for i, v in enumerate(got) if v == low] == keep


def reference_annihilator(prob, equalities):
    """The full-keep-set search as first written: one LP per coordinate and
    sign, maximizing +lam_k and then -lam_k."""
    ctx = prob.context
    d = ctx.ambient_dim
    cons = _direction_frame_constraints(ctx, d) + equalities
    for k in range(d):
        for sign in (1, -1):
            objective = [Fraction(0)] * d
            objective[k] = Fraction(sign)
            result = lp.solve_min_l1(lp.linear_program(d, cons, objective), range(d))
            if result.status == lp.OPTIMAL and result.value > 0:
                return lp.rationalize_direction(result.point)
    return None


def reference_degeneration(prob):
    """``find_degeneration`` as first written, each LP built and solved in
    place.  Kept as the reference the shared direction helper must
    reproduce, direction for direction."""
    ctx = prob.context
    d = ctx.ambient_dim
    kept = sorted(prob.keep)
    dropped = [i for i in range(len(prob.weights)) if i not in prob.keep]
    base = prob.weights[kept[0]]
    rows = [[Fraction(a - b) for a, b in zip(prob.weights[i], base)]
            for i in range(len(prob.weights))]
    if not dropped:
        equalities = [(rows[j], lp.EQ, 0) for j in kept[1:] if any(rows[j])]
        return reference_annihilator(prob, equalities)
    nv = d + 1
    cons = _direction_frame_constraints(ctx, nv)
    for j in kept[1:]:
        cons.append((rows[j] + [Fraction(0)], lp.EQ, 0))
    for i in dropped:
        cons.append((rows[i] + [Fraction(-1)], lp.GEQ, 0))
    objective = [Fraction(0)] * d + [Fraction(1)]
    result = lp.solve_min_l1(lp.linear_program(nv, cons, objective), range(d))
    assert result.status == lp.OPTIMAL
    if result.value <= 0:
        return None
    return lp.rationalize_direction(result.point[:d])


def counted(monkeypatch, fn, prob):
    """fn(prob) and the number of LPs it solved."""
    solves = []
    solve = lp.solve

    def counting(prog):
        solves.append(prog)
        return solve(prog)

    with monkeypatch.context() as m:
        m.setattr(lp, "solve", counting)
        return fn(prob), len(solves)


def test_matches_reference_on_random_problems(monkeypatch):
    # On the first problem the least-l1 tie is broken by the row order, box
    # frame first.  Then free rank 2-4 and sl(2)-sl(4), where a third of the
    # keep sets keep everything.
    problems = [DegenerationProblem(
        [(-1, -1, 2), (2, 2, -2), (2, 1, -2), (-2, -2, -1), (-1, 2, 1)], [0],
        LatticeContext.sl(3))]
    rng = random.Random(14)
    for _ in range(240):
        dim = rng.choice((2, 3, 4))
        ctx = rng.choice((LatticeContext.free, LatticeContext.sl))(dim)
        weights = [tuple(rng.randint(-2, 2) for _ in range(dim))
                   for _ in range(rng.randint(1, 5))]
        if rng.random() < 1 / 3:
            keep = range(len(weights))
        else:
            keep = rng.sample(range(len(weights)), rng.randint(1, len(weights)))
        problems.append(DegenerationProblem(weights, keep, ctx))
    assert reference_degeneration(problems[0]) == (2, 1, -3)
    full = 0
    for prob in problems:
        full += len(prob.keep) == len(prob.weights)
        lam, solves = counted(monkeypatch, find_degeneration, prob)
        expected, reference_solves = counted(monkeypatch, reference_degeneration, prob)
        assert lam == expected, (prob.weights, sorted(prob.keep))
        assert solves <= reference_solves
    assert full >= 60


def test_full_keep_set_skips_the_negated_objective(monkeypatch):
    # lam_1 = 0 is forced: maximizing lam_1 gives 0 (one LP), maximizing
    # lam_2 gives 1 (two LPs, the second picks the least l1 norm); the
    # reference also maximizes -lam_1 before moving on
    prob = DegenerationProblem([(0, 0), (1, 0)], [0, 1], FREE2)
    assert counted(monkeypatch, find_degeneration, prob) == ((0, 1), 3)
    assert counted(monkeypatch, reference_degeneration, prob) == ((0, 1), 4)
