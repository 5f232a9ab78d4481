"""The four benchmark workloads: seeded set-up, one operation, and the
output-correctness gate that runs after the timed region.

Each workload is a ``Workload`` whose ``ops`` list is cycled by the closed
loop in ``run.py``.  ``run_op`` returns whatever the gate needs; ``check``
takes the ``(op index, result)`` pairs of a run and returns a
``GateReport``: the positions whose output is wrong, a digest of the
outputs and a summary of the checks made.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

import inputs
import stablepairs
from stablepairs import lattice, numeric, stability
from stablepairs.lattice import LatticeContext
from stablepairs.polytope import RationalPolytope, includes, minkowski_combine
from stablepairs.stability import FrameFamily, PairInstance, WeightSupport

# Exhaustive oracle checks stop at this many grid directions per frame; a
# larger box (or ambient dimension 4) gets the bounded check instead.
ORACLE_GRID_CAP = 250_000
BOUNDED_RADIUS = 6
M_CAP = 1 << 20
SLOPE_TOL = 1e-6
SLOPE_SAMPLES = 8


# ---------------------------------------------------------------------------
# Shared pieces

def context_of(raw: inputs.RawInstance) -> LatticeContext:
    return LatticeContext.sl(raw.dim) if raw.mode == "sl" else LatticeContext.free(raw.dim)


def build_family(raw: inputs.RawInstance) -> FrameFamily:
    """The library objects for one raw instance (runs the hull LPs)."""
    ctx = context_of(raw)
    identity = RationalPolytope(raw.identity) if raw.mode == "free" else None
    return FrameFamily(
        PairInstance(WeightSupport(f.v, ctx), WeightSupport(f.w, ctx), raw.q, identity)
        for f in raw.frames
    )


def verdict_key(v: stability.StabilityVerdict) -> tuple:
    return (v.semistable, v.stable, v.witness, v.uniform_m, v.frame_index)


def digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def witness_holds(v: stability.StabilityVerdict, family: FrameFamily) -> bool:
    """Re-verify the verdict's witness by integer weight evaluation against
    the clause it claims to break; a stable verdict carries none."""
    if v.stable:
        return v.witness is None and v.semistable and v.uniform_m is not None and v.uniform_m >= 1
    if v.witness is None or v.frame_index is None or not 0 <= v.frame_index < len(family.frames):
        return False
    p = family.frames[v.frame_index]
    wv = stability.weight(v.witness, p.Av)
    ww = stability.weight(v.witness, p.Aw)
    if not v.semistable:
        return ww > wv
    return ww == wv and p.q * p.identity_weight(v.witness) < wv


def grid_size(box, mode: str) -> int:
    side = 2 * box.bound + 1
    return side ** (box.dim - 1 if mode == "sl" else box.dim)


def oracle_expectation(family: FrameFamily):
    """Verdict fields the brute-force oracle gives for a family.

    Returns ``(exhaustive, semistable, stable, m)``.  When some frame's
    exhaustive box is too large (or the ambient dimension exceeds 3) the
    oracle runs on a box of radius ``BOUNDED_RADIUS``; a violation found
    there is still a proof, but absence of one is not, so the caller only
    checks the implications that remain valid.
    """
    from stablepairs import oracle

    exhaustive = True
    semi = stab = True
    m = 1
    for p in family.frames:
        box = oracle.box_for(p)
        if not box.exhaustive_guarantee or grid_size(box, p.context.mode) > ORACLE_GRID_CAP:
            exhaustive = False
            box = oracle.OracleBox(min(box.bound, BOUNDED_RADIUS), box.dim, False)
        s, _ = oracle.brute_semistable(p, box)
        t, _ = oracle.brute_stable(p, box)
        semi &= s
        stab &= t
        if t:
            fm = oracle.brute_min_m(p, box, M_CAP)
            m = max(m, fm if fm is not None else M_CAP + 1)
    return exhaustive, semi, stab, (m if stab else None)


def included_at(p: PairInstance, m: int) -> bool:
    """(1 - 1/m) N(v) + (1/m) q N(I) inside N(w), by the library's geometry."""
    comb = minkowski_combine(p.hull_v, p.identity_geom.scaled(p.q),
                             Fraction(m - 1, m), Fraction(1, m))
    return includes(p.hull_w, comb)


def verdict_agrees(v: stability.StabilityVerdict, family: FrameFamily, expect) -> bool:
    exhaustive, semi, stab, m = expect
    if exhaustive:
        return (v.semistable, v.stable, v.uniform_m) == (semi, stab, m)
    # Bounded box: a violation it finds refutes a positive verdict, and its
    # margin is a lower bound on the true one.  That m is the least margin
    # is checked on the geometry instead: every frame is included at m and
    # some frame is not at m - 1.
    if v.semistable and not semi:
        return False
    if not v.stable:
        return True
    if not stab or (m is not None and v.uniform_m < m):
        return False
    return (all(included_at(p, v.uniform_m) for p in family.frames)
            and (v.uniform_m == 1
                 or not all(included_at(p, v.uniform_m - 1) for p in family.frames)))


@dataclass
class GateReport:
    wrong: set = field(default_factory=set)
    digest: str = ""
    checks: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Workloads

class Workload:
    name = ""
    in_process = True
    # A traced run does this many ops per second of --seconds: a fixed count,
    # so that its counters repeat exactly for a seed.
    trace_ops_per_second: float

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.ops: list = []

    def run_op(self, op):
        raise NotImplementedError

    def check(self, results) -> GateReport:
        raise NotImplementedError

    def close(self):
        pass


class _Decide(Workload):
    """One op: build the library objects from raw integers, then decide."""

    def run_op(self, raw):
        family = build_family(raw)
        return family, stability.verdict(family)

    def check(self, results) -> GateReport:
        report = GateReport()
        first: dict[int, tuple] = {}
        families: dict[int, FrameFamily] = {}
        witnesses = 0
        for k, (idx, (family, v)) in enumerate(results):
            key = verdict_key(v)
            if first.setdefault(idx, key) != key:
                report.wrong.add(k)  # same input, different output
            families.setdefault(idx, family)
            if v.witness is not None:
                witnesses += 1
            if not witness_holds(v, family):
                report.wrong.add(k)
        exhaustive = bounded = 0
        bad_idx = set()
        for idx, family in families.items():
            expect = oracle_expectation(family)
            if expect[0]:
                exhaustive += 1
            else:
                bounded += 1
            sem, sta, wit, m, fi = first[idx]
            if not verdict_agrees(stability.StabilityVerdict(sem, sta, m, wit, fi), family,
                                  expect):
                bad_idx.add(idx)
        for k, (idx, _) in enumerate(results):
            if idx in bad_idx:
                report.wrong.add(k)
        ordered = sorted(first.items())
        counts = {"unstable": 0, "semistable_only": 0, "stable": 0}
        for _, (sem, sta, *_rest) in ordered:
            counts["stable" if sta else "semistable_only" if sem else "unstable"] += 1
        report.digest = digest(ordered)
        report.checks = {"instances": len(ordered), "witnesses_reverified": witnesses,
                         "oracle_exhaustive": exhaustive, "oracle_bounded": bounded,
                         "verdicts": counts}
        return report


class Corpus(_Decide):
    name = "corpus"
    trace_ops_per_second = 6
    ROUNDS = 4

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ops = inputs.corpus_rounds(seed, self.ROUNDS)


class Hard(_Decide):
    name = "hard"
    trace_ops_per_second = 0.75
    COUNT = 140

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.ops = inputs.hard_inputs(seed, self.COUNT)


@dataclass(frozen=True)
class _Identity:
    vertices: tuple


@dataclass(frozen=True)
class OracleView:
    """The fields of ``PairInstance`` that ``oracle`` reads, built without
    the hull LPs that constructing a ``PairInstance`` runs."""

    Av: WeightSupport
    Aw: WeightSupport
    q: int
    context: LatticeContext
    identity: _Identity


def oracle_view(raw: inputs.RawInstance) -> OracleView:
    ctx = context_of(raw)
    if raw.mode == "sl":
        points = []
        for i in range(raw.dim):
            e = [0] * raw.dim
            e[i] = 1
            points.append(e)
    else:
        points = raw.identity
    vertices = tuple(sorted(lattice.as_rat_vec(p) for p in points))
    f = raw.frames[0]
    return OracleView(WeightSupport(f.v, ctx), WeightSupport(f.w, ctx), raw.q, ctx,
                      _Identity(vertices))


class Crosscheck(Workload):
    """One op: brute-force stability over the instance's oracle grid, then
    the numeric slope along every grid direction; the largest slope's sign
    must match the brute semistability verdict."""

    name = "crosscheck"
    trace_ops_per_second = 12
    ROUNDS = 10

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from stablepairs import oracle  # noqa: F401  (numpy's import is set-up)
        # Free rank-2 and sl(3) instances only.  A free rank-3 instance has
        # 117,648 grid directions and takes seconds, so a handful would
        # decide a run; an sl(2) instance has a few dozen and takes about a
        # millisecond, and at 40% of ops they put the median on the cliff
        # between the two.
        self.ops = [oracle_view(raw) for raw in inputs.corpus_rounds(seed, self.ROUNDS)
                    if (raw.mode, raw.dim) in (("free", 2), ("sl", 3))]

    def run_op(self, view):
        from stablepairs import oracle
        box = oracle.box_for(view)
        semi, witness = oracle.brute_stable(view, box)
        # A stability witness has equal weights; only a semistability
        # witness has w_lam(w) > w_lam(v).
        brute_semi = semi or (stability.weight(witness, view.Aw)
                              <= stability.weight(witness, view.Av))
        grid = oracle.enumerate_directions(box, view.context)
        cv = numeric.CoefficientVector.units(view.Av)
        cw = numeric.CoefficientVector.units(view.Aw)
        worst = -float("inf")
        for row in grid.tolist():
            s = numeric.slope_along(row, cv, cw)
            if s > worst:
                worst = s
        return brute_semi, semi, witness, worst, len(grid)

    def check(self, results) -> GateReport:
        from stablepairs import oracle
        report = GateReport()
        seen: dict[int, tuple] = {}
        sampled = 0
        for k, (idx, res) in enumerate(results):
            brute_semi, _, _, worst, _ = res
            if brute_semi != (worst <= SLOPE_TOL):
                report.wrong.add(k)
            if seen.setdefault(idx, res) != res:
                report.wrong.add(k)
        rng = random.Random(self.seed)
        bad_idx = set()
        for idx in sorted(seen):
            view = self.ops[idx]
            grid = oracle.enumerate_directions(oracle.box_for(view), view.context)
            cv = numeric.CoefficientVector.units(view.Av)
            cw = numeric.CoefficientVector.units(view.Aw)
            for row in rng.sample(grid.tolist(), min(SLOPE_SAMPLES, len(grid))):
                exact = stability.weight(row, view.Aw) - stability.weight(row, view.Av)
                sampled += 1
                if abs(numeric.slope_along(row, cv, cw) - exact) > SLOPE_TOL:
                    bad_idx.add(idx)
        for k, (idx, _) in enumerate(results):
            if idx in bad_idx:
                report.wrong.add(k)
        ordered = [(idx, seen[idx][0], seen[idx][1], seen[idx][2], round(seen[idx][3], 6))
                   for idx in sorted(seen)]
        report.digest = digest(ordered)
        report.checks = {"instances": len(ordered), "slopes_sampled": sampled,
                         "directions": sum(seen[i][4] for i in seen)}
        return report


class Cli(Workload):
    """One op: one ``python -m stablepairs.cli`` child on an instance file.

    The gate replays every distinct command through ``cli.main`` in this
    process and requires the same stdout and exit code.
    """

    name = "cli"
    in_process = False
    trace_ops_per_second = 1
    FILES = 30

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        from stablepairs import cli  # noqa: F401  (what the child imports)
        self.dir = workdir / f"cli-{seed}-{os.getpid()}"
        self.dir.mkdir(parents=True, exist_ok=True)
        src = Path(stablepairs.__file__).resolve().parents[1]
        self.env = dict(os.environ, PYTHONPATH=str(src))
        for i, (raw, commands) in enumerate(inputs.cli_inputs(seed, self.FILES)):
            path = self.dir / f"instance-{i:03d}.json"
            path.write_text(json.dumps(inputs.instance_dict(raw), sort_keys=True),
                            encoding="utf-8")
            self.ops += [[a.replace("{path}", str(path)) for a in args] for args in commands]

    def run_op(self, args):
        proc = subprocess.run([sys.executable, "-m", "stablepairs.cli", *args],
                              capture_output=True, env=self.env, timeout=60)
        return proc.returncode, proc.stdout

    def run_inproc(self, args):
        from stablepairs import cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(args)
        return code, out.getvalue().encode("utf-8")

    def check(self, results) -> GateReport:
        report = GateReport()
        expected: dict[int, tuple] = {}
        for k, (idx, res) in enumerate(results):
            if idx not in expected:
                expected[idx] = self.run_inproc(self.ops[idx])
            code, out = expected[idx]
            if res != expected[idx] or code not in (0, 3, 4):
                report.wrong.add(k)
        ordered = [(idx, self.ops[idx][0], expected[idx]) for idx in sorted(expected)]
        report.digest = digest(ordered)
        report.checks = {"commands": len(ordered),
                         "compared_with_inproc": len(results)}
        return report

    def close(self):
        for path in self.dir.glob("*.json"):
            path.unlink()
        self.dir.rmdir()


WORKLOADS = {w.name: w for w in (Corpus, Hard, Cli, Crosscheck)}


def make(name: str, seed: int, workdir: Path) -> Workload:
    return WORKLOADS[name](seed, workdir)

