"""Seeded random instances: the files of ``stablepairs corpus`` and the pair
instances of the test corpus.

Every draw reads only the caller's ``random.Random``, so a seed fixes the
instances.  A support draws its size, one to four weights, and then their
coordinates.  In free mode the identity polytope is the unit box or diamond
and q the least multiple of it that holds A(v); in sl mode q is
``deg_of_V`` of every weight drawn.
"""

from __future__ import annotations

import itertools
import random

from .lattice import LatticeContext
from .polytope import RationalPolytope
from .stability import PairInstance, WeightSupport, deg_of_V

_IDENTITY_SHAPES = ("box", "diamond")


def support(rng: random.Random, dim: int, lo: int, hi: int) -> list:
    """One to four weights with every coordinate in [lo, hi]."""
    return [tuple(rng.randint(lo, hi) for _ in range(dim))
            for _ in range(rng.randint(1, 4))]


def identity_points(shape: str, dim: int) -> list[tuple[int, ...]]:
    """The 2^dim vertices of the unit box, or the 2*dim of the unit
    diamond, +-e_i."""
    if shape == "box":
        return list(itertools.product((-1, 1), repeat=dim))
    return [tuple([s * (j == i) for j in range(dim)]) for i in range(dim) for s in (1, -1)]


def free_q(shape: str, weights) -> int:
    """Least q >= 1 with every weight inside q times the unit box (max
    absolute coordinate) or the unit diamond (l1 norm)."""
    norm = max if shape == "box" else sum
    return max([1] + [norm(abs(c) for c in a) for a in weights])


def _strings(points) -> list:
    return [[str(c) for c in a] for a in points]


def instance_dict(rng: random.Random, dim: int, max_coord: int) -> dict:
    """One schema-valid instance file, as the dict that ``json`` writes."""
    mode = rng.choice(("free", "sl")) if dim >= 2 else "free"
    supports = [(support(rng, dim, -max_coord, max_coord),
                 support(rng, dim, -max_coord, max_coord))
                for _ in range(1 if rng.random() < 0.8 else 2)]
    data = {"mode": mode, "frames": [{"v_support": _strings(v), "w_support": _strings(w)}
                                     for v, w in supports]}
    if mode == "free":
        shape = rng.choice(_IDENTITY_SHAPES)
        data.update(rank=str(dim), q=str(free_q(shape, [a for v, _ in supports for a in v])),
                    identity_polytope=_strings(sorted(identity_points(shape, dim))))
        return data
    ctx = LatticeContext.sl(dim)
    rep = sorted({a for v, w in supports for a in v + w})
    data["matrix_size"] = str(dim)
    if rng.random() < 0.5:
        data["q"] = str(deg_of_V(WeightSupport(rep, ctx), ctx))
    else:
        data["rep_weights"] = _strings(rep)
    return data


def pair_instance(rng: random.Random, dim: int, mode: str, max_coord: int,
                  nonneg: bool = False) -> PairInstance:
    """One pair with coordinates in [-max_coord, max_coord], or in [0,
    max_coord] when ``nonneg``.  Four in ten put A(v) inside A(w), so that
    the pair is semistable."""
    lo = 0 if nonneg else -max_coord
    v_list, w_list = support(rng, dim, lo, max_coord), support(rng, dim, lo, max_coord)
    if rng.random() < 0.4:
        w_list = v_list + w_list
    ctx = LatticeContext.sl(dim) if mode == "sl" else LatticeContext.free(dim)
    Av, Aw = WeightSupport(v_list, ctx), WeightSupport(w_list, ctx)
    if mode == "sl":
        return PairInstance(Av, Aw, deg_of_V(WeightSupport(Av.weights + Aw.weights, ctx), ctx))
    # Dimension-3 identities are boxes, which keeps oracle boxes small.
    shape = "box" if dim == 3 else rng.choice(_IDENTITY_SHAPES)
    identity = RationalPolytope(identity_points(shape, dim))
    return PairInstance(Av, Aw, free_q(shape, v_list), identity)
