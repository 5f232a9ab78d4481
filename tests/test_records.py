"""The package's value classes against the dataclasses they replaced.

The value classes share ``lattice._Record``, which gives them equality,
hashing and repr without importing ``dataclasses`` (whose import pulls in
inspect, ast, dis and tokenize on every command-line start).  The
definitions below are the replaced ones, kept as the reference: the same
names, fields, defaults and decorator arguments.  Their validating
constructors are left out, since validation takes no part in equality,
hashing or repr; each reference object is built from a real object's field
values.
"""

from __future__ import annotations

import copy
import itertools
import pickle
import random
from dataclasses import dataclass, field, fields
from fractions import Fraction

import pytest

from stablepairs import cli, degeneration, lattice, lp, numeric, stability


@dataclass(frozen=True, slots=True)
class LatticeContext:
    mode: str
    ambient_dim: int


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


@dataclass(frozen=True)
class LinearProgram:
    num_vars: int
    constraints: tuple
    objective: tuple[Fraction, ...]


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None


@dataclass(frozen=True, slots=True)
class WeightSupport:
    weights: tuple
    context: object


@dataclass(frozen=True, slots=True)
class FrameFamily:
    frames: tuple


@dataclass(frozen=True, slots=True)
class StabilityVerdict:
    semistable: bool
    stable: bool
    uniform_m: int | None = None
    witness: tuple | None = None
    frame_index: int | None = None


@dataclass(frozen=True)
class CoefficientVector:
    support: object
    magnitudes: tuple[float, ...]
    _terms: tuple = field(init=False, compare=False, repr=False)


@dataclass(frozen=True)
class TorusPoint:
    moduli: tuple[float, ...]


@dataclass(frozen=True)
class DegenerationProblem:
    weights: tuple
    keep: frozenset[int]
    context: object


@dataclass
class Instance:
    context: object
    q: int
    identity: object
    family: object
    ordered_supports: list
    coefficients: list


REFERENCES = {
    lattice.LatticeContext: LatticeContext,
    lp.Constraint: Constraint,
    lp.LinearProgram: LinearProgram,
    lp.LpResult: LpResult,
    stability.WeightSupport: WeightSupport,
    stability.FrameFamily: FrameFamily,
    stability.StabilityVerdict: StabilityVerdict,
    numeric.CoefficientVector: CoefficientVector,
    numeric.TorusPoint: TorusPoint,
    degeneration.DegenerationProblem: DegenerationProblem,
    cli.Instance: Instance,
}


def reference(obj):
    ref_cls = REFERENCES[type(obj)]
    return ref_cls(**{f.name: getattr(obj, f.name) for f in fields(ref_cls) if f.init})


@pytest.fixture(scope="module")
def samples(corpus):
    """Up to 60 objects of each class, from decisions on the corpus."""
    found = {cls: [] for cls in REFERENCES}

    def keep(obj):
        found[type(obj)].append(obj)

    solve = lp.solve

    def recording_solve(prog):
        result = solve(prog)
        keep(prog)
        keep(result)
        for con in prog.constraints:
            keep(con)
        return result

    rng = random.Random(7)
    lp.solve = recording_solve
    try:
        for p in corpus[::4]:
            family = stability.FrameFamily([p])
            for obj in (p.context, p.Av, p.Aw, family, stability.verdict(family),
                        numeric.CoefficientVector.units(p.Aw)):
                keep(obj)
            pairs = [(a, rng.choice((0.5, 1.0, 2.0))) for a in p.Av.weights * 2]
            keep(numeric.CoefficientVector.from_pairs(pairs, p.context))
            keep(numeric.TorusPoint([rng.choice((0.5, 1.0, 3.0))
                                     for _ in range(p.context.ambient_dim)]))
            weights = list(p.Aw.weights)
            prob = degeneration.DegenerationProblem(
                weights, rng.sample(range(len(weights)), rng.randint(1, len(weights))),
                p.context)
            keep(prob)
            degeneration.find_degeneration(prob)
        for _ in range(30):
            keep(cli.instance_from_dict(cli.random_instance_dict(rng, 2, 2)))
    finally:
        lp.solve = solve
    out = {}
    for cls, objs in found.items():
        assert objs, cls
        # equal objects that are not the same object, next to distinct ones
        out[cls] = [x for obj in objs[:30] for x in (obj, copy.copy(obj))]
    return out


@pytest.mark.parametrize("cls", REFERENCES, ids=lambda c: c.__name__)
def test_eq_hash_repr_match_the_dataclass(samples, cls):
    objs = samples[cls]
    refs = [reference(x) for x in objs]
    for x, rx in zip(objs, refs):
        assert repr(x) == repr(rx)
        if cls is cli.Instance:
            with pytest.raises(TypeError):
                hash(x)
            with pytest.raises(TypeError):
                hash(rx)
        else:
            assert hash(x) == hash(rx)
        assert x != object() and rx != object()
        assert (x == 1) is (rx == 1) is False
    for i, j in itertools.product(range(len(objs)), repeat=2):
        assert (objs[i] == objs[j]) is (refs[i] == refs[j])
        assert (objs[i] != objs[j]) is (refs[i] != refs[j])
    # equal fields in a subclass instance are not enough
    for x, rx in ((objs[0], refs[0]), (objs[1], refs[1])):
        twin, rtwin = copy.copy(x), copy.copy(rx)
        object.__setattr__(twin, "__class__", type("Twin", (cls,), {"__slots__": ()}))
        object.__setattr__(rtwin, "__class__", type("Twin", (type(rx),), {"__slots__": ()}))
        assert (x == twin) is (rx == rtwin) is False
        assert (twin == x) is (rtwin == rx) is False


@pytest.mark.parametrize("cls", REFERENCES, ids=lambda c: c.__name__)
def test_fields_are_frozen_and_survive_pickling(samples, cls):
    obj = samples[cls][0]
    ref = reference(obj)
    for name in cls._fields:
        value = getattr(obj, name)
        if cls is cli.Instance:
            setattr(obj, name, value)  # the one mutable class, as before
            setattr(ref, name, value)
            continue
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            setattr(ref, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
    # PairInstance compares by identity, so a pickled frame family is equal
    # to its original only as far as the dataclass one was
    back = pickle.loads(pickle.dumps(obj))
    assert type(back) is cls and repr(back) == repr(obj)
    assert (back == obj) is (pickle.loads(pickle.dumps(ref)) == ref)


def test_coefficient_terms_stay_out_of_eq_hash_repr():
    ctx = lattice.LatticeContext.free(2)
    support = stability.WeightSupport([(1, 0), (0, 1)], ctx)
    cv = numeric.CoefficientVector(support, [2.0, 3.0])
    twin = copy.copy(cv)
    object.__setattr__(twin, "_terms", ())
    assert twin == cv and hash(twin) == hash(cv) and repr(twin) == repr(cv)
    assert "_terms" not in repr(cv)
