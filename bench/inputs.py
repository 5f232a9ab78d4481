"""Seeded raw inputs for every benchmark workload.

Everything here is plain integer data: supports, q and identity-polytope
points.  No LP is solved and no polytope is built, so generating inputs
costs the same whatever the LP layer does.  Building
``WeightSupport``/``PairInstance`` objects from this data is part of the
timed operation (see ``workloads.py``).

At the default seed ``corpus_inputs`` reproduces ``tests/conftest.py``'s
``build_corpus()`` draw for draw, including its q (computed here in closed
form instead of by the test's ``includes`` loop).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from stablepairs.lattice import LatticeContext
from stablepairs.stability import WeightSupport, deg_of_V

DEFAULT_SEED = 20260810

IntVec = tuple[int, ...]


@dataclass(frozen=True)
class RawFrame:
    v: tuple[IntVec, ...]
    w: tuple[IntVec, ...]


@dataclass(frozen=True)
class RawInstance:
    """One pair problem as integers; ``identity`` is None in sl mode."""

    mode: str
    dim: int
    q: int
    identity: tuple[IntVec, ...] | None
    frames: tuple[RawFrame, ...]


def identity_points(shape: str, dim: int) -> tuple[IntVec, ...]:
    """Vertices of the unit box or unit diamond, in lexicographic order."""
    if shape == "box":
        return tuple(itertools.product((-1, 1), repeat=dim))
    points = []
    for i in range(dim):
        for s in (1, -1):
            e = [0] * dim
            e[i] = s
            points.append(tuple(e))
    return tuple(sorted(points))


def free_q(shape: str, v_supports) -> int:
    """Least q >= 1 with every v weight inside q times the unit box (max
    abs coordinate) or the unit diamond (l1 norm)."""
    norm = (lambda a: max(abs(c) for c in a)) if shape == "box" else (
        lambda a: sum(abs(c) for c in a))
    return max([1] + [norm(a) for v in v_supports for a in v])


def sl_q(weights, dim: int) -> int:
    """Degree of the representation spanned by the listed sl weights
    (``deg_of_V`` is closed-form and solves no LP)."""
    ctx = LatticeContext.sl(dim)
    return deg_of_V(WeightSupport(weights, ctx), ctx)


def _support(rng: random.Random, dim: int, lo: int, hi: int) -> list:
    return [
        tuple(rng.randint(lo, hi) for _ in range(dim))
        for _ in range(rng.randint(1, 4))
    ]


def _corpus_instance(rng: random.Random, dim: int, mode: str, max_coord: int,
                     nonneg: bool = False) -> RawInstance:
    # Same draw order as conftest.random_pair_instance.
    lo = 0 if nonneg else -max_coord
    v = _support(rng, dim, lo, max_coord)
    w = _support(rng, dim, lo, max_coord)
    if rng.random() < 0.4:
        w = v + w
    frame = (RawFrame(tuple(v), tuple(w)),)
    if mode == "sl":
        return RawInstance("sl", dim, sl_q(set(v + w), dim), None, frame)
    shape = "box" if dim == 3 else rng.choice(("box", "diamond"))
    return RawInstance("free", dim, free_q(shape, [v]),
                       identity_points(shape, dim), frame)


def _corpus(rng: random.Random) -> list[RawInstance]:
    out = [_corpus_instance(rng, 2, "sl" if i % 2 else "free", 3)
           for i in range(200)]
    out += [_corpus_instance(rng, 3, "sl", 1, nonneg=True) for _ in range(40)]
    out += [_corpus_instance(rng, 3, "free", 1) for _ in range(10)]
    return out


def corpus_inputs(seed: int = DEFAULT_SEED) -> list[RawInstance]:
    """The 250-instance acceptance mix: 200 in ambient dimension 2 (free and
    sl alternating), 40 sl(3) and 10 free rank-3."""
    return _corpus(random.Random(seed))


def corpus_rounds(seed: int, rounds: int) -> list[RawInstance]:
    """``corpus_inputs(seed)`` followed by further corpora of the same mix
    drawn from the seed, so that a run need not repeat an instance.  Each
    corpus is shuffled, so that any stretch of the list has the corpus's
    mix of dimensions and modes."""
    order = random.Random(f"{seed}/order")
    out = []
    for r in range(rounds):
        corpus = corpus_inputs(seed) if r == 0 else _corpus(random.Random(f"{seed}/{r}"))
        order.shuffle(corpus)
        out += corpus
    return out


# ---------------------------------------------------------------------------
# hard: fewer, larger LPs.  Instance i's class is fixed by i: its space
# (sl(3), sl(4), free rank 3), whether it is nested or enclosing, and whether
# it has two frames.  Every seed thus gives the same mix and only the
# coordinates vary, which keeps a run's cost steady from seed to seed.

HARD_SPACES = (("sl", 3), ("sl", 4), ("free", 3))
HARD_MAX_COORD = 3


def _nested_frame(rng: random.Random, dim: int) -> RawFrame:
    """A(w) contains A(v): semistable, and stable only by accident."""
    top = HARD_MAX_COORD
    v = [tuple(rng.randint(-top, top) for _ in range(dim)) for _ in range(2)]
    extra = [tuple(rng.randint(-top, top) for _ in range(dim)) for _ in range(2)]
    return RawFrame(tuple(v), tuple(v + extra))


def _enclosing_frame(rng: random.Random, mode: str, dim: int) -> RawFrame:
    """A(w) spans a polytope with the origin inside and A(v) lies strictly
    inside it, so the pair is stable, mostly with m of 3 to 5."""
    if mode == "free":
        # The octahedron of radius 3 around one point at distance 2 on an
        # axis: q = 2, and m = 4.
        w = []
        for i in range(dim):
            for s in (1, -1):
                e = [0] * dim
                e[i] = s * HARD_MAX_COORD
                w.append(tuple(e))
        e = [0] * dim
        e[rng.randrange(dim)] = rng.choice((2, -2))
        return RawFrame((tuple(e),), tuple(w))
    # c times the standard simplex plus up to 6 - dim points of the opposite
    # simplex; A(v) is two 0/1 points strictly inside.
    c = 2
    w = []
    for i in range(dim):
        e = [0] * dim
        e[i] = c
        w.append(tuple(e))
    for _ in range(6 - dim):
        e = [c] * dim
        e[rng.randrange(dim)] = 0
        w.append(tuple(e))
    v = []
    while len(v) < 2:
        a = tuple(rng.randint(0, 1) for _ in range(dim))
        if sum(a) - dim * min(a) < c:
            v.append(a)
    return RawFrame(tuple(v), tuple(w))


# One cycle of hard classes: (space index, enclosing, frames).  Nested sl
# instances get a second frame every other cycle, so about a fifth of all
# instances have two frames.  The shares put the median op inside the band
# of nested free rank-3 and enclosing sl(3) instances, and the tail inside
# the enclosing sl(4) and free rank-3 ones, rather than on a gap between
# classes, where a percentile would jump from seed to seed.
HARD_CYCLE = ((0, False, 1), (1, False, 1), (2, False, 1), (2, False, 2),
              (0, True, 1), (1, True, 1), (1, True, 1), (2, True, 1), (2, True, 1))


def hard_instance(rng: random.Random, index: int) -> RawInstance:
    space, enclosing, n_frames = HARD_CYCLE[index % len(HARD_CYCLE)]
    if not enclosing and space < 2 and (index // len(HARD_CYCLE)) % 2:
        n_frames = 2
    mode, dim = HARD_SPACES[space]
    frames = tuple(
        _enclosing_frame(rng, mode, dim) if enclosing else _nested_frame(rng, dim)
        for _ in range(n_frames)
    )
    if mode == "sl":
        weights = {a for f in frames for a in f.v + f.w}
        return RawInstance("sl", dim, sl_q(weights, dim), None, frames)
    return RawInstance("free", dim, free_q("box", [f.v for f in frames]),
                       identity_points("box", dim), frames)


def hard_inputs(seed: int, count: int) -> list[RawInstance]:
    rng = random.Random(seed)
    return [hard_instance(rng, i) for i in range(count)]


# ---------------------------------------------------------------------------
# cli: instance files plus a fixed command mix.

CLI_COMMANDS = ("check", "witness", "min-m", "degenerate", "slope")


def instance_dict(raw: RawInstance) -> dict:
    """The CLI's JSON schema for a raw instance (every number a string)."""
    def vecs(points):
        return [[str(c) for c in a] for a in points]

    data = {"mode": raw.mode, "q": str(raw.q),
            "frames": [{"v_support": vecs(f.v), "w_support": vecs(f.w)}
                       for f in raw.frames]}
    if raw.mode == "free":
        data["rank"] = str(raw.dim)
        data["identity_polytope"] = vecs(raw.identity)
    else:
        data["matrix_size"] = str(raw.dim)
    return data


def _direction(rng: random.Random, mode: str, dim: int) -> IntVec:
    while True:
        lam = [rng.randint(-3, 3) for _ in range(dim)]
        if mode == "sl":
            lam[-1] = -sum(lam[:-1])
        if any(lam):
            return tuple(lam)


def cli_args(rng: random.Random, raw: RawInstance, command: str) -> list[str]:
    """Arguments after the program name, with ``{path}`` standing for the
    instance file."""
    args = [command, "{path}", "--format", "json"]
    if command == "degenerate":
        v = raw.frames[0].v
        keep = sorted(rng.sample(range(1, len(v) + 1), rng.randint(1, len(v))))
        args.append("--keep=" + ",".join(map(str, keep)))
    elif command == "slope":
        lam = _direction(rng, raw.mode, raw.dim)
        args.append("--lambda=" + ",".join(map(str, lam)))
    return args


def cli_inputs(seed: int, count: int) -> list[tuple[RawInstance, list[list[str]]]]:
    """Small corpus-style instances (ambient dimension 2, coordinates within
    2, free and sl alternating), each with one argument list per command, so
    that the library's own work stays a small part of a call."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        raw = _corpus_instance(rng, 2, "sl" if i % 2 else "free", 2)
        out.append((raw, [cli_args(rng, raw, command) for command in CLI_COMMANDS]))
    return out
