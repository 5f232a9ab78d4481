"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
report.  The shared corpus (200 ambient-dimension-2 instances, 50
ambient-dimension-3 instances, free and sl modes mixed) comes from
conftest.build_corpus and is reused across criteria.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction

import pytest

from stablepairs import (
    CoefficientVector,
    DegenerationProblem,
    LatticeContext,
    PairInstance,
    RationalPolytope,
    WeightSupport,
    check_tian0,
    find_degeneration,
    includes,
    is_semistable,
    is_stable,
    minimal_uniform_m,
    minkowski_combine,
    slope_along,
    support_value,
    weight,
)
from stablepairs import oracle
from stablepairs.generate import support
from stablepairs.lattice import dot

from conftest import make_fix_a, make_fix_b, make_fix_c, make_fix_d
from test_degeneration import brute_reachable, exhaustive_bound


def report(name: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@dataclass
class Decision:
    instance: PairInstance
    box: oracle.OracleBox
    semistable: bool
    semi_witness: tuple | None
    stable: bool
    stable_witness: tuple | None
    minimal_m: int | None


@pytest.fixture(scope="module")
def decisions(corpus):
    out = []
    for p in corpus:
        semi, semi_wit = is_semistable(p)
        stab, stab_wit = (is_stable(p) if semi else (False, semi_wit))
        m = minimal_uniform_m(p) if stab else None
        out.append(Decision(p, oracle.box_for(p), semi, semi_wit, stab, stab_wit, m))
    return out


def test_criterion_1_weight_identity():
    rng = random.Random(1001)
    t0 = time.monotonic()
    checked = 0
    for _ in range(500):
        dim = rng.choice((1, 2, 3))
        ctx = LatticeContext.free(dim)
        A = WeightSupport(support(rng, dim, -3, 3), ctx)
        hull = RationalPolytope(A.weights)
        for _ in range(50):
            lam = (0,) * dim
            while not any(lam):
                lam = tuple(rng.randint(-3, 3) for _ in range(dim))
            assert weight(lam, A) == -support_value(hull, tuple(-c for c in lam))
            checked += 1
    elapsed = time.monotonic() - t0
    report("criterion 1: weight identity on 500x50 samples",
           checked == 25000 and elapsed < 10.0, f"{elapsed:.1f}s")


def test_criterion_2_oracle_equivalence(decisions):
    mismatches = 0
    for d in decisions:
        assert d.box.exhaustive_guarantee
        brute_semi, _ = oracle.brute_semistable(d.instance, d.box)
        brute_stab, _ = oracle.brute_stable(d.instance, d.box)
        if brute_semi != d.semistable or brute_stab != d.stable:
            mismatches += 1
            continue
        p = d.instance
        if d.semi_witness is not None:
            if not weight(d.semi_witness, p.Aw) > weight(d.semi_witness, p.Av):
                mismatches += 1
        elif d.stable_witness is not None:
            wv = weight(d.stable_witness, p.Av)
            if not (weight(d.stable_witness, p.Aw) == wv
                    and p.q * p.identity_weight(d.stable_witness) < wv):
                mismatches += 1
    report("criterion 2: oracle equivalence on the corpus", mismatches == 0,
           f"{len(decisions)} instances")


def test_criterion_3_uniform_stability(decisions):
    stable_count = 0
    semi_only_count = 0
    for d in decisions:
        p = d.instance
        if d.stable:
            stable_count += 1
            assert d.minimal_m is not None and d.minimal_m >= 1
            qI = p.identity_geom.scaled(p.q)

            def included(m: int) -> bool:
                comb = minkowski_combine(p.hull_v, qI,
                                         Fraction(m - 1, m), Fraction(1, m))
                return includes(p.hull_w, comb)

            assert included(d.minimal_m)
            if d.minimal_m > 1:
                assert not included(d.minimal_m - 1)
            grid = oracle.enumerate_directions(d.box, p.context)
            for row in grid:
                lam = tuple(int(c) for c in row)
                assert check_tian0(p, d.minimal_m, lam), (p, lam)
        elif d.semistable:
            semi_only_count += 1
            assert d.minimal_m is None
            lam = d.stable_witness
            assert lam is not None
            assert max(abs(c) for c in lam) <= d.box.bound
            for m in range(1, 1025):
                assert not check_tian0(p, m, lam)
    report("criterion 3: uniform stability margins", True,
           f"{stable_count} stable, {semi_only_count} semistable-only")


def test_criterion_4_golden_fixtures():
    fix_a, fix_b = make_fix_a(), make_fix_b()
    fix_c, fix_d = make_fix_c(), make_fix_d()
    ok = True
    ok &= is_stable(fix_a) == (True, None) and minimal_uniform_m(fix_a) == 1
    ok &= is_stable(fix_b) == (True, None) and minimal_uniform_m(fix_b) == 2
    semi_c, _ = is_semistable(fix_c)
    stab_c, wit_c = is_stable(fix_c)
    ok &= semi_c and not stab_c and wit_c in ((0, 1), (0, -1))
    semi_d, wit_d = is_semistable(fix_d)
    ok &= not semi_d and wit_d == (-1, 0)
    report("criterion 4: golden fixtures pinned", ok)


def test_criterion_5_slope_bridge(decisions):
    rng = random.Random(505)
    for _ in range(200):
        d = rng.choice(decisions)
        p = d.instance
        dim = p.context.ambient_dim
        lam = (0,) * dim
        while not any(lam) or (p.context.mode == "sl" and sum(lam) != 0):
            lam = tuple(rng.randint(-3, 3) for _ in range(dim))
        got = slope_along(lam, CoefficientVector.units(p.Av),
                          CoefficientVector.units(p.Aw))
        exact = weight(lam, p.Aw) - weight(lam, p.Av)
        assert abs(got - exact) <= 1e-6, (p, lam)

    sign_mismatches = 0
    for d in decisions:
        p = d.instance
        cv = CoefficientVector.units(p.Av)
        cw = CoefficientVector.units(p.Aw)
        grid = oracle.enumerate_directions(d.box, p.context)
        worst = -float("inf")
        for row in grid.tolist():
            s = slope_along(row, cv, cw)
            if s > worst:
                worst = s
        if d.semistable != (worst <= 1e-6):
            sign_mismatches += 1
    report("criterion 5: slope bridge and sign sweep", sign_mismatches == 0)


_INFEASIBLE_PROBLEMS = [
    # sign contradictions around a kept point
    (LatticeContext.free(1), [(1,), (-1,), (0,)], [2]),
    (LatticeContext.free(2), [(1, 0), (-1, 0), (0, 0)], [2]),
    (LatticeContext.free(2), [(1, 1), (-1, -1), (0, 0)], [2]),
    (LatticeContext.free(2), [(5, 5), (-5, -5), (0, 0)], [2]),
    (LatticeContext.free(3), [(1, 0, 0), (-1, 0, 0), (0, 0, 0)], [2]),
    (LatticeContext.free(3), [(1, 1, 1), (-1, -1, -1), (0, 0, 0)], [2]),
    # a segment midpoint can never be the whole limit
    (LatticeContext.free(1), [(0,), (1,), (2,)], [1]),
    (LatticeContext.free(1), [(2,), (0,), (1,)], [2]),
    (LatticeContext.free(2), [(0, 0), (1, 0), (2, 0)], [1]),
    (LatticeContext.free(2), [(0, 0), (0, 1), (0, 2)], [1]),
    (LatticeContext.free(2), [(0, 0), (2, 2), (1, 1)], [2]),
    (LatticeContext.free(2), [(2, 0), (0, 2), (1, 1)], [2]),
    (LatticeContext.free(2), [(0, 0), (0, 2), (2, 0), (1, 1)], [3]),
    (LatticeContext.free(2), [(1, 2), (3, 4), (2, 3)], [2]),
    (LatticeContext.free(3), [(0, 0, 0), (1, 1, 0), (2, 2, 0)], [1]),
    (LatticeContext.free(3), [(0, 0, 0), (0, 1, 0), (0, 2, 0)], [1]),
    # sl-mode: trace-zero directions cannot separate these
    (LatticeContext.sl(2), [(2, 0), (0, 2), (1, 1)], [2]),
    (LatticeContext.sl(2), [(1, 0), (0, 1), (2, 0)], [0]),
    (LatticeContext.sl(2), [(2, 0), (0, 2), (1, 1), (3, -1)], [2]),
    (LatticeContext.sl(3), [(2, 0, 0), (0, 2, 0), (1, 1, 0)], [2]),
]


def test_criterion_6_degeneration_round_trip():
    rng = random.Random(606)
    done = 0
    while done < 100:
        dim = rng.choice((1, 2, 3))
        mode = rng.choice(("free", "sl")) if dim >= 2 else "free"
        ctx = LatticeContext.sl(dim) if mode == "sl" else LatticeContext.free(dim)
        weights = sorted({
            tuple(rng.randint(-2, 2) for _ in range(dim))
            for _ in range(rng.randint(1, 5))
        })
        lam = None
        while lam is None:
            cand = list(rng.randint(-3, 3) for _ in range(dim))
            if mode == "sl":
                cand[-1] = -sum(cand[:-1])
            if any(cand) and abs(cand[-1]) <= 3:
                lam = tuple(cand)
        pairings = [dot(lam, a) for a in weights]
        low = min(pairings)
        keep = [i for i, v in enumerate(pairings) if v == low]
        prob = DegenerationProblem(weights, keep, ctx)
        found = find_degeneration(prob)
        assert found is not None, (weights, keep, lam)
        got = [dot(found, a) for a in weights]
        low2 = min(got)
        assert [i for i, v in enumerate(got) if v == low2] == keep
        done += 1

    assert len(_INFEASIBLE_PROBLEMS) == 20
    for ctx, weights, keep in _INFEASIBLE_PROBLEMS:
        prob = DegenerationProblem(weights, keep, ctx)
        assert find_degeneration(prob) is None, (weights, keep)
        assert not brute_reachable(prob, exhaustive_bound(prob)), (weights, keep)
    report("criterion 6: degeneration round trips and certified unreachability",
           True, "100 round trips, 20 infeasible")


def test_criterion_7_invariance(decisions):
    checked = 0
    for d in decisions[:100]:
        p = d.instance
        baseline = (d.semistable, d.stable, d.minimal_m)
        if p.context.mode == "sl":
            ones = (1,) * p.context.ambient_dim
            for c in (1, -2):
                shift = tuple(c * o for o in ones)
                moved = PairInstance(p.Av.shifted(shift), p.Aw.shifted(shift), p.q)
                semi, _ = is_semistable(moved)
                stab, _ = (is_stable(moved) if semi else (False, None))
                m = minimal_uniform_m(moved) if stab else None
                assert (semi, stab, m) == baseline, (p, c)
        else:
            for s in (2, 3):
                scaled = PairInstance(
                    WeightSupport([tuple(s * c for c in a) for a in p.Av.weights],
                                  p.context),
                    WeightSupport([tuple(s * c for c in a) for a in p.Aw.weights],
                                  p.context),
                    p.q,
                    p.identity.scaled(s),
                )
                semi, _ = is_semistable(scaled)
                stab, _ = (is_stable(scaled) if semi else (False, None))
                m = minimal_uniform_m(scaled) if stab else None
                assert (semi, stab, m) == baseline, (p, s)
        checked += 1
    report("criterion 7: coset and scale invariance", checked == 100)


def test_criterion_8_determinism(tmp_path):
    instance = {
        "mode": "free",
        "rank": "2",
        "q": "1",
        "identity_polytope": [["1", "1"], ["1", "-1"], ["-1", "1"], ["-1", "-1"]],
        "frames": [
            {"v_support": [["-1", "0"], ["1", "0"]],
             "w_support": [["-1", "0"], ["1", "0"]]}
        ],
    }
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(instance), encoding="utf-8")

    check_runs = [
        subprocess.run(
            [sys.executable, "-m", "stablepairs.cli",
             "check", str(path), "--format", "json"],
            capture_output=True,
        )
        for _ in range(2)
    ]
    ok = (check_runs[0].stdout == check_runs[1].stdout
          and check_runs[0].returncode == check_runs[1].returncode == 3)

    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run = subprocess.run(
            [sys.executable, "-m", "stablepairs.cli", "corpus",
             "--dim", "2", "--max-coord", "3", "--count", "4",
             "--seed", "99", "--out", str(out)],
            capture_output=True,
        )
        ok = ok and run.returncode == 0
        outs.append({f.name: f.read_bytes() for f in out.iterdir()})
    ok = ok and outs[0] == outs[1] and len(outs[0]) == 4
    report("criterion 8: byte-deterministic check and corpus", ok)
