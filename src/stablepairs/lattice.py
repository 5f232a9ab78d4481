"""Character/cocharacter lattices, their pairing, and the two ambient modes.

Everything downstream works over one of two ambient setups:

* ``free`` mode: a rank-r torus with character lattice Z^r.  Weights and
  one-parameter subgroups are plain integer vectors of length r.
* ``sl`` mode: the diagonal torus of SL(N+1).  Weights live in Z^(N+1) as
  representatives of their class modulo the all-ones vector, and
  one-parameter subgroups are integer vectors with coordinate sum zero
  (trace zero, so they land in SL).

No canonical weight normalization is imposed in ``sl`` mode; all verdicts
are invariant under shifting a weight by a multiple of (1,...,1) as long as
every test direction is trace-zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from operator import attrgetter
from typing import Iterable, Sequence


class InputError(ValueError):
    """Malformed input: dimension mismatch, empty data, zero vector, etc."""


class ModeError(InputError):
    """Operation not available in this lattice mode."""


IntVec = tuple[int, ...]
RatVec = tuple[Fraction, ...]


def as_int_vec(coords: Iterable[int]) -> IntVec:
    vec = tuple(coords)
    for c in vec:
        if not isinstance(c, int) or isinstance(c, bool):
            raise InputError(f"integer coordinate expected, got {c!r}")
    return vec


def as_rat_vec(coords: Iterable) -> RatVec:
    """Coordinates as a tuple of Fractions; such a tuple comes back as is,
    and a list of Fractions is copied without re-wrapping each entry."""
    if type(coords) in (tuple, list) and all(type(c) is Fraction for c in coords):
        return coords if type(coords) is tuple else tuple(coords)
    # Short-lived tuples in this package are built from lists, not
    # generators: tuple() sizes a list's tuple exactly, but over-allocates a
    # generator's and shrinks it, and such tuples, once freed, pile up in
    # CPython's per-size tuple free lists (about 1 MB of peak RSS over a
    # few thousand decisions).
    return tuple([Fraction(c) for c in coords])


def dot(x: Sequence, y: Sequence):
    """Exact inner product; int when both sides are int."""
    if len(x) != len(y):
        raise InputError(f"dimension mismatch: {len(x)} vs {len(y)}")
    return sum(a * b for a, b in zip(x, y))


class _Record:
    """Immutable value object over the attribute names in ``_fields``.

    Equality, hashing and repr are those of a frozen dataclass with these
    fields: equal only to an instance of the same class with equal fields,
    ``hash(tuple of fields)``, and ``Name(field=value, ...)``.  Assigning or
    deleting an attribute raises AttributeError.  Subclasses declare
    ``__slots__`` (which may hold more than ``_fields``) and set their slots
    in ``__init__`` through ``object.__setattr__``.

    It stands in for ``@dataclass`` because that module pulls in inspect,
    ast, dis and tokenize, which a fresh ``python -m stablepairs.cli`` would
    otherwise import and compile before doing any work.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls._fields)
        # attrgetter of one name returns the bare value, not a 1-tuple
        cls._values = staticmethod(get if len(cls._fields) > 1
                                   else lambda obj: (get(obj),))

    def __eq__(self, other):
        # Contexts and supports are shared, so most comparisons are of an
        # object with itself; a tuple of fields always equals itself.
        if other is self:
            return True
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        body = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # copy and pickle restore slots through here, past __setattr__
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class LatticeContext(_Record):
    """Ambient data shared by weights and one-parameter subgroups.

    Construct through :meth:`free` or :meth:`sl`; ``ambient_dim`` is r in
    free mode and N+1 in sl mode.  Those two hand out one shared instance
    per mode and dimension.
    """

    __slots__ = _fields = ("mode", "ambient_dim")

    def __init__(self, mode: str, ambient_dim: int):
        if mode not in ("free", "sl"):
            raise InputError(f"unknown lattice mode {mode!r}")
        if type(ambient_dim) is not int or ambient_dim < 1:
            raise InputError("ambient dimension must be a positive integer")
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "ambient_dim", ambient_dim)

    @classmethod
    @lru_cache(maxsize=64, typed=True)
    def free(cls, rank: int) -> "LatticeContext":
        if rank < 1:
            raise InputError("rank must be positive")
        return cls("free", rank)

    @classmethod
    @lru_cache(maxsize=64, typed=True)
    def sl(cls, matrix_size: int) -> "LatticeContext":
        if matrix_size < 1:
            raise InputError("matrix size must be positive")
        return cls("sl", matrix_size)

    @property
    def rank(self) -> int:
        if self.mode != "free":
            raise ModeError("rank is a free-mode attribute")
        return self.ambient_dim

    @property
    def matrix_size(self) -> int:
        if self.mode != "sl":
            raise ModeError("matrix_size is an sl-mode attribute")
        return self.ambient_dim

    # -- validation ---------------------------------------------------

    def check_weight(self, a: Sequence[int]) -> IntVec:
        vec = as_int_vec(a)
        if len(vec) != self.ambient_dim:
            raise InputError(
                f"weight has length {len(vec)}, expected {self.ambient_dim}"
            )
        return vec

    def check_one_param(self, lam: Sequence[int]) -> IntVec:
        vec = as_int_vec(lam)
        if len(vec) != self.ambient_dim:
            raise InputError(
                f"one-parameter subgroup has length {len(vec)}, "
                f"expected {self.ambient_dim}"
            )
        if self.mode == "sl" and sum(vec) != 0:
            raise InputError(
                f"sl-mode one-parameter subgroup must have coordinate sum 0, "
                f"got {sum(vec)}"
            )
        if not any(vec):
            raise InputError("one-parameter subgroup must be nonzero")
        return vec

    # -- operations ---------------------------------------------------

    def project_sl(self, a: Sequence) -> RatVec:
        """Project a point to the trace-zero hyperplane.

        Realizes the quotient by the diagonal line: returns
        a - (sum(a)/(N+1)) * (1,...,1), which has coordinate sum zero.  Two
        points differing by a multiple of (1,...,1) project to the same
        point; on integer weights this is the quotient map on cosets.
        """
        if self.mode != "sl":
            raise ModeError("project_sl requires an sl-mode context")
        vec = as_rat_vec(a)
        if len(vec) != self.ambient_dim:
            raise InputError(
                f"point has length {len(vec)}, expected {self.ambient_dim}"
            )
        shift = sum(vec) / self.ambient_dim
        return tuple([c - shift for c in vec])


def pair(lam: Sequence[int], a: Sequence[int]) -> int:
    """Standard pairing of a one-parameter subgroup with a character.

    Plain integer dot product.  In sl mode the value does not depend on the
    chosen diagonal representative of ``a`` provided ``lam`` has coordinate
    sum zero.
    """
    return dot(as_int_vec(lam), as_int_vec(a))


def standard_simplex(ctx: LatticeContext, k: int):
    """k times the weight polytope of the identity matrix, in ambient coords.

    The convex hull of {k*e_1, ..., k*e_(N+1)}.  After :meth:`project_sl`
    its image contains the origin in its relative interior.
    """
    from .polytope import RationalPolytope

    if ctx.mode != "sl":
        raise ModeError("the standard simplex lives in sl mode")
    if k <= 0:
        raise InputError("simplex scale must be a positive integer")
    n = ctx.ambient_dim
    verts = []
    for i in range(n):
        e = [0] * n
        e[i] = k
        verts.append(tuple(e))
    return RationalPolytope(verts)


# The rows of ``lp``'s programs, here so that callers write them without it.
_RELATIONS = LEQ, EQ, GEQ = ("<=", "=", ">=")


class Constraint(_Record):
    """One row ``coeffs . x  relation  rhs``, all of it divided by ``den``:
    integer coefficients and right-hand side over one positive
    denominator."""

    __slots__ = _fields = ("coeffs", "relation", "rhs", "den")

    def __init__(self, coeffs: tuple[int, ...], relation: str, rhs: int, den: int):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", rhs)
        object.__setattr__(self, "den", den)
