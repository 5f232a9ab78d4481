"""Exact rational linear programming.

A small dense two-phase simplex over ``fractions.Fraction`` with Bland's
pivot rule, so termination is unconditional and identical programs yield
bit-identical answers.  Problem sizes in this package stay tiny (tens of
variables and constraints), which is why no effort is spent on smarter
pivoting or sparsity.

Variables are free (unrestricted sign); nonnegativity, boxes, and
normalization slices are expressed as ordinary constraints by the callers.
Strict inequalities are never part of the constraint language: callers
encode strictness as "maximize the slack and test optimum > 0".
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .lattice import InputError, as_rat_vec

LEQ = "<="
EQ = "="
GEQ = ">="
_RELATIONS = (LEQ, EQ, GEQ)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Fraction, ...]
    relation: str
    rhs: Fraction


def constraint(coeffs: Iterable, relation: str, rhs) -> Constraint:
    if relation not in _RELATIONS:
        raise InputError(f"unknown relation {relation!r}")
    return Constraint(as_rat_vec(coeffs), relation, Fraction(rhs))


@dataclass(frozen=True)
class LinearProgram:
    """num_vars free rational variables, linear constraints, linear objective.

    ``sense`` is "maximize" or "feasibility"; a feasibility program is solved
    as maximization of the zero objective.
    """

    num_vars: int
    constraints: tuple[Constraint, ...]
    objective: tuple[Fraction, ...]
    sense: str = "maximize"

    def __post_init__(self):
        if self.num_vars < 1:
            raise InputError("a linear program needs at least one variable")
        if self.sense not in ("maximize", "feasibility"):
            raise InputError(f"unknown sense {self.sense!r}")
        if len(self.objective) != self.num_vars:
            raise InputError("objective row length differs from num_vars")
        for k, con in enumerate(self.constraints):
            if len(con.coeffs) != self.num_vars:
                raise InputError(
                    f"constraint {k} has {len(con.coeffs)} coefficients, "
                    f"expected {self.num_vars}"
                )


def linear_program(num_vars: int, constraints: Iterable, objective=None,
                   sense: str = "maximize") -> LinearProgram:
    cons = tuple(
        c if isinstance(c, Constraint) else constraint(*c) for c in constraints
    )
    if objective is None:
        obj = (Fraction(0),) * num_vars
        sense = "feasibility"
    else:
        obj = as_rat_vec(objective)
    return LinearProgram(num_vars, cons, obj, sense)


@dataclass(frozen=True)
class LpResult:
    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None
    ray: tuple[Fraction, ...] | None = None


_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Tableau:
    """Dense simplex tableau over Fractions.

    Column layout: [x+_0..x+_{n-1}, x-_0..x-_{n-1}, slacks, artificials].
    Row i keeps the artificial variable art_i as its initial basic variable;
    artificial columns are never allowed to re-enter the basis.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        m = len(lp.constraints)
        rows: list[list[Fraction]] = []
        rhs: list[Fraction] = []
        slack_count = sum(1 for c in lp.constraints if c.relation != EQ)
        ncols = 2 * n + slack_count + m
        self.n = n
        self.m = m
        self.ncols = ncols
        self.art_start = 2 * n + slack_count

        slack_at = 2 * n
        for i, con in enumerate(lp.constraints):
            coeffs = list(con.coeffs)
            rel = con.relation
            b = con.rhs
            if b < 0:
                coeffs = [-c for c in coeffs]
                b = -b
                rel = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[rel]
            row = [_ZERO] * ncols
            for j, c in enumerate(coeffs):
                row[j] = c
                row[n + j] = -c
            if rel != EQ:
                row[slack_at] = _ONE if rel == LEQ else -_ONE
                slack_at += 1
            row[self.art_start + i] = _ONE
            rows.append(row)
            rhs.append(b)

        self.rows = rows
        self.rhs = rhs
        self.basis = [self.art_start + i for i in range(m)]

    # Cost row convention: zrow[j] = z_j - c_j, zval = current objective.
    def _reset_costs(self, costs: list[Fraction]):
        zrow = [-c for c in costs]
        zval = _ZERO
        for i, bi in enumerate(self.basis):
            cb = costs[bi]
            if cb != 0:
                row = self.rows[i]
                for j in range(self.ncols):
                    if row[j] != 0:
                        zrow[j] += cb * row[j]
                zval += cb * self.rhs[i]
        self.zrow = zrow
        self.zval = zval

    def _pivot(self, r: int, j: int):
        row = self.rows[r]
        piv = row[j]
        if piv != 1:
            inv = 1 / piv
            self.rows[r] = row = [c * inv for c in row]
            self.rhs[r] *= inv
        for i in range(self.m):
            if i == r:
                continue
            f = self.rows[i][j]
            if f != 0:
                target = self.rows[i]
                for k in range(self.ncols):
                    if row[k] != 0:
                        target[k] -= f * row[k]
                self.rhs[i] -= f * self.rhs[r]
        f = self.zrow[j]
        if f != 0:
            for k in range(self.ncols):
                if row[k] != 0:
                    self.zrow[k] -= f * row[k]
            self.zval -= f * self.rhs[r]
        self.basis[r] = j

    def _ratio_row(self, j: int) -> int | None:
        """Bland leaving row: min ratio, ties broken by smallest basic index."""
        best = None
        best_ratio = None
        for i in range(self.m):
            a = self.rows[i][j]
            if a > 0:
                ratio = self.rhs[i] / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[best])):
                    best = i
                    best_ratio = ratio
        return best

    def run(self, allowed: int) -> int | None:
        """Bland simplex loop over columns < allowed.

        Returns None at optimality, or the entering column index when the
        program is unbounded in that direction.
        """
        while True:
            enter = None
            for j in range(allowed):
                if self.zrow[j] < 0:
                    enter = j
                    break
            if enter is None:
                return None
            leave = self._ratio_row(enter)
            if leave is None:
                return enter
            self._pivot(leave, enter)


def solve(lp: LinearProgram) -> LpResult:
    """Solve exactly.  Returns optimal value and point, an infeasibility
    verdict, or an unbounded verdict with a certificate ray (a feasible
    direction of unbounded objective improvement)."""
    tab = _Tableau(lp)
    n, m, ncols = tab.n, tab.m, tab.ncols

    # Phase 1: drive the artificial variables to zero.
    phase1 = [_ZERO] * ncols
    for j in range(tab.art_start, ncols):
        phase1[j] = Fraction(-1)
    tab._reset_costs(phase1)
    tab.run(tab.art_start)
    if tab.zval < 0:
        return LpResult(INFEASIBLE)

    # Degenerate basic artificials: pivot them out where possible; rows that
    # are zero on every structural column are redundant and stay put.
    for i in range(m):
        if tab.basis[i] >= tab.art_start:
            for j in range(tab.art_start):
                if tab.rows[i][j] != 0:
                    tab._pivot(i, j)
                    break

    # Phase 2: the real objective on the split variables.
    costs = [_ZERO] * ncols
    for j in range(n):
        costs[j] = lp.objective[j]
        costs[n + j] = -lp.objective[j]
    tab._reset_costs(costs)
    enter = tab.run(tab.art_start)

    if enter is not None:
        direction = [_ZERO] * ncols
        direction[enter] = _ONE
        for i in range(m):
            direction[tab.basis[i]] = -tab.rows[i][enter]
        ray = tuple(direction[j] - direction[n + j] for j in range(n))
        return LpResult(UNBOUNDED, ray=ray)

    std = [_ZERO] * ncols
    for i in range(m):
        std[tab.basis[i]] = tab.rhs[i]
    point = tuple(std[j] - std[n + j] for j in range(n))
    return LpResult(OPTIMAL, value=tab.zval, point=point)


def solve_min_l1(prog: LinearProgram, over: Sequence[int]) -> LpResult:
    """Solve, then pick the optimal point of least l1 norm over the given
    variable indices, when the optimum is positive.

    Two-stage and fully exact: the first optimum becomes an equality
    constraint, then the sum of absolute values of the chosen variables is
    minimized through the usual t_i >= +/- x_i envelope.  Keeps witnesses
    canonical instead of whatever vertex of a degenerate optimal face the
    pivot order happens to visit first.

    Only a positive optimum is refined: every caller discards a
    non-positive optimum without reading its point, so such a result is
    ``solve(prog)`` unchanged.
    """
    first = solve(prog)
    if first.status != OPTIMAL or first.value <= 0:
        return first
    n = prog.num_vars
    k = len(over)
    if k == 0:
        return first
    ext = n + k
    cons = []
    for con in prog.constraints:
        cons.append((list(con.coeffs) + [_ZERO] * k, con.relation, con.rhs))
    cons.append((list(prog.objective) + [_ZERO] * k, EQ, first.value))
    for slot, j in enumerate(over):
        row = [_ZERO] * ext
        row[n + slot] = _ONE
        row[j] = Fraction(-1)
        cons.append((list(row), GEQ, 0))  # t >= x
        row[j] = _ONE
        cons.append((row, GEQ, 0))        # t >= -x
    objective = [_ZERO] * n + [Fraction(-1)] * k
    second = solve(linear_program(ext, cons, objective))
    if second.status != OPTIMAL:
        return first
    return LpResult(OPTIMAL, first.value, second.point[:n])


def rationalize_direction(point: Sequence) -> tuple[int, ...]:
    """Primitive integer vector that is a positive multiple of the input.

    Clears denominators with their lcm, then divides by the gcd of the
    entries, so the result has entry gcd 1.
    """
    vec = as_rat_vec(point)
    if not vec or not any(vec):
        raise InputError("cannot rationalize the zero vector")
    scale = lcm(*(f.denominator for f in vec))
    ints = [int(f * scale) for f in vec]
    g = gcd(*ints)
    return tuple(c // g for c in ints)
