"""Shared fixtures: the four golden instances and a reproducible corpus.

The corpus mixes free and sl modes across ambient dimensions 2 and 3 and
biases part of the draw toward nested supports (hull of A(v) inside hull of
A(w)) so that the semistable and stable branches get real coverage instead
of the unstable-dominated mix plain uniform sampling produces.
"""

from __future__ import annotations

import random

import pytest

from stablepairs import (
    LatticeContext,
    PairInstance,
    RationalPolytope,
    WeightSupport,
    deg_of_V,
)
from stablepairs.cli import _free_q, _identity_points

FREE2 = LatticeContext.free(2)
SL2 = LatticeContext.sl(2)

BOX2 = [(1, 1), (1, -1), (-1, 1), (-1, -1)]
TRIANGLE2 = [(1, 0), (0, 1), (-1, -1)]
DIAMOND_W = [(1, 0), (-1, 0), (0, 1), (0, -1)]


def make_fix_a() -> PairInstance:
    return PairInstance(
        WeightSupport([(1, 0), (0, 1)], SL2),
        WeightSupport([(2, 0), (0, 2)], SL2),
        1,
    )


def make_fix_b() -> PairInstance:
    return PairInstance(
        WeightSupport([(0, 0)], FREE2),
        WeightSupport(DIAMOND_W, FREE2),
        1,
        RationalPolytope(TRIANGLE2),
    )


def make_fix_c() -> PairInstance:
    seg = WeightSupport([(-1, 0), (1, 0)], FREE2)
    return PairInstance(seg, seg, 1, RationalPolytope(BOX2))


def make_fix_d() -> PairInstance:
    return PairInstance(
        WeightSupport([(1, 0)], FREE2),
        WeightSupport([(0, 0)], FREE2),
        1,
        RationalPolytope(BOX2),
    )


@pytest.fixture(scope="session")
def fix_a():
    return make_fix_a()


@pytest.fixture(scope="session")
def fix_b():
    return make_fix_b()


@pytest.fixture(scope="session")
def fix_c():
    return make_fix_c()


@pytest.fixture(scope="session")
def fix_d():
    return make_fix_d()


def identity_polytope(shape: str, dim: int) -> RationalPolytope:
    return RationalPolytope(_identity_points(shape, dim))


def random_support(rng: random.Random, dim: int, lo: int, hi: int) -> list:
    return [
        tuple(rng.randint(lo, hi) for _ in range(dim))
        for _ in range(rng.randint(1, 4))
    ]


def random_pair_instance(rng: random.Random, dim: int, mode: str,
                         max_coord: int, nonneg: bool = False) -> PairInstance:
    lo = 0 if nonneg else -max_coord
    v_list = random_support(rng, dim, lo, max_coord)
    w_list = random_support(rng, dim, lo, max_coord)
    if rng.random() < 0.4:
        w_list = v_list + w_list  # nested supports: semistable by construction
    if mode == "sl":
        ctx = LatticeContext.sl(dim)
        Av = WeightSupport(v_list, ctx)
        Aw = WeightSupport(w_list, ctx)
        rep = WeightSupport(Av.weights + Aw.weights, ctx)
        return PairInstance(Av, Aw, deg_of_V(rep, ctx))
    ctx = LatticeContext.free(dim)
    Av = WeightSupport(v_list, ctx)
    Aw = WeightSupport(w_list, ctx)
    # Keep dimension-3 identity spreads small so oracle boxes stay tractable.
    shape = "box" if dim == 3 else rng.choice(("box", "diamond"))
    return PairInstance(Av, Aw, _free_q(shape, v_list), identity_polytope(shape, dim))


def build_corpus(seed: int = 20260810) -> list[PairInstance]:
    """200 dimension-2 instances plus 50 dimension-3 instances."""
    rng = random.Random(seed)
    instances = []
    for i in range(200):
        instances.append(
            random_pair_instance(rng, 2, "sl" if i % 2 else "free", 3)
        )
    for _ in range(40):
        instances.append(random_pair_instance(rng, 3, "sl", 1, nonneg=True))
    for _ in range(10):
        instances.append(random_pair_instance(rng, 3, "free", 1))
    return instances


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
