"""Shared fixtures: the four golden instances and a reproducible corpus.

The corpus mixes free and sl modes across ambient dimensions 2 and 3 and
biases part of the draw toward nested supports (hull of A(v) inside hull of
A(w)) so that the semistable and stable branches get real coverage instead
of the unstable-dominated mix plain uniform sampling produces.
"""

from __future__ import annotations

import random

import pytest

from stablepairs import LatticeContext, PairInstance, RationalPolytope, WeightSupport
from stablepairs.generate import pair_instance

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


def build_corpus(seed: int = 20260810) -> list[PairInstance]:
    """200 dimension-2 instances plus 50 dimension-3 instances."""
    rng = random.Random(seed)
    instances = [pair_instance(rng, 2, "sl" if i % 2 else "free", 3) for i in range(200)]
    instances += [pair_instance(rng, 3, "sl", 1, nonneg=True) for _ in range(40)]
    instances += [pair_instance(rng, 3, "free", 1) for _ in range(10)]
    return instances


@pytest.fixture(scope="session")
def corpus():
    return build_corpus()
