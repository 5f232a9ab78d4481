"""Exact rational linear programming.

A small dense two-phase simplex with Bland's pivot rule, so termination is
unconditional and identical programs yield bit-identical answers.  Programs
and results are over ``fractions.Fraction``; the pivots run over integers
with one common denominator (Bareiss/Edmonds fraction-free elimination),
which takes the same pivot path as a rational tableau without a gcd per
entry.  Problem sizes in this package stay tiny (tens of variables and
constraints), which is why no effort is spent on smarter pivoting or
sparsity.

Variables are free (unrestricted sign); nonnegativity, boxes, and
normalization slices are expressed as ordinary constraints by the callers.
Strict inequalities are never part of the constraint language: callers
encode strictness as "maximize the slack and test optimum > 0".

The package's geometry runs on exact facet descriptions, not on LPs.  The
programs solved here only extract directions: the semistability and
stability witnesses and degeneration directions, all through one helper,
``stability._best_direction``, which calls ``solve_min_l1`` on a box frame
and rationalizes the optimal direction.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Sequence

from .lattice import InputError, _Record, as_rat_vec

LEQ = "<="
EQ = "="
GEQ = ">="
_RELATIONS = (LEQ, EQ, GEQ)

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class Constraint(_Record):
    """One row ``coeffs . x  relation  rhs``."""

    __slots__ = _fields = ("coeffs", "relation", "rhs")

    def __init__(self, coeffs: tuple[Fraction, ...], relation: str, rhs: Fraction):
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "relation", relation)
        object.__setattr__(self, "rhs", rhs)


def constraint(coeffs: Iterable, relation: str, rhs) -> Constraint:
    if relation not in _RELATIONS:
        raise InputError(f"unknown relation {relation!r}")
    return Constraint(as_rat_vec(coeffs), relation, Fraction(rhs))


class LinearProgram(_Record):
    """num_vars free rational variables, linear constraints, and a linear
    objective to maximize; a feasibility question maximizes zero.
    """

    __slots__ = _fields = ("num_vars", "constraints", "objective")

    def __init__(self, num_vars: int, constraints: tuple[Constraint, ...],
                 objective: tuple[Fraction, ...]):
        if num_vars < 1:
            raise InputError("a linear program needs at least one variable")
        if len(objective) != num_vars:
            raise InputError("objective row length differs from num_vars")
        for k, con in enumerate(constraints):
            if len(con.coeffs) != num_vars:
                raise InputError(
                    f"constraint {k} has {len(con.coeffs)} coefficients, "
                    f"expected {num_vars}"
                )
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "objective", objective)


def linear_program(num_vars: int, constraints: Iterable, objective=None) -> LinearProgram:
    cons = tuple([
        c if isinstance(c, Constraint) else constraint(*c) for c in constraints
    ])
    if objective is None:
        obj = (Fraction(0),) * num_vars
    else:
        obj = as_rat_vec(objective)
    return LinearProgram(num_vars, cons, obj)


class LpResult(_Record):
    """Status, with the optimal value and point or the unbounded ray."""

    __slots__ = _fields = ("status", "value", "point", "ray")

    def __init__(self, status: str, value: Fraction | None = None,
                 point: tuple[Fraction, ...] | None = None,
                 ray: tuple[Fraction, ...] | None = None):
        object.__setattr__(self, "status", status)
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "ray", ray)


_ZERO = Fraction(0)
_ONE = Fraction(1)


class _Tableau:
    """Dense simplex tableau over integers with one common denominator.

    Column layout: [x+_0..x+_{n-1}, x-_0..x-_{n-1}, slacks, artificials],
    and each row carries its right-hand side as one more last entry.  Row i
    keeps the artificial variable art_i as its initial basic variable;
    artificial columns never re-enter the basis and nothing reads them, so
    they are not stored: only their basis indices art_start + i remain.

    Every stored entry is an integer numerator over the common denominator
    ``den``; programs come in and results go out as Fractions.  The rows
    start as the constraints times the lcm of all their denominators, with
    ``den`` = 1 and the artificial columns at 1.  That rescales every
    artificial variable by the same positive factor, so the signs of the
    reduced costs, the ratio-test order and Bland's ties are those of the
    rational tableau, and the pivot path is the same.  A pivot on p turns
    every other row x, the cost row included, into
    (p*x - a*pivot_row) // den and then sets den = p: the integer-preserving
    elimination of Bareiss and Edmonds.  Every entry stays, up to sign, a
    minor of the starting matrix, so each division is exact.
    """

    def __init__(self, lp: LinearProgram):
        n = lp.num_vars
        m = len(lp.constraints)
        slack_count = sum(1 for c in lp.constraints if c.relation != EQ)
        width = 2 * n + slack_count
        self.n = n
        self.m = m
        self.art_start = width
        scale = lcm(*[c.denominator for con in lp.constraints
                      for c in (*con.coeffs, con.rhs)])

        rows: list[list[int]] = []
        slack_at = 2 * n
        for con in lp.constraints:
            coeffs = [c.numerator * (scale // c.denominator) for c in con.coeffs]
            b = con.rhs.numerator * (scale // con.rhs.denominator)
            rel = con.relation
            if b < 0:
                coeffs = [-c for c in coeffs]
                b = -b
                rel = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[rel]
            row = [0] * (width + 1)
            for j, c in enumerate(coeffs):
                row[j] = c
                row[n + j] = -c
            if rel != EQ:
                row[slack_at] = scale if rel == LEQ else -scale
                slack_at += 1
            row[width] = b
            rows.append(row)

        self.rows = rows
        self.den = 1
        self.basis = [width + i for i in range(m)]

    # Cost row convention: zrow[j] = z_j - c_j and zrow[-1] = the current
    # objective, each times den and one positive cost scale.  Only signs are
    # read until phase 2 ends, when the value is zrow[-1] / (den * scale).
    def _reset_costs(self, costs: list[int], art_cost: int = 0):
        """Price out the basis for integer costs on the stored columns and
        one common cost for every artificial."""
        den = self.den
        zrow = [-den * c for c in costs] + [0]
        for i, bi in enumerate(self.basis):
            cb = costs[bi] if bi < self.art_start else art_cost
            if cb:
                zrow = [z + cb * x for z, x in zip(zrow, self.rows[i])]
        self.zrow = zrow

    def _pivot(self, r: int, j: int):
        prow = self.rows[r]
        p = prow[j]
        den = self.den

        def eliminate(row):
            a = row[j]
            if a:
                return [(p * x - a * y) // den for x, y in zip(row, prow)]
            if p != den:
                return [p * x // den for x in row]
            return row

        rows = self.rows
        for i in range(self.m):
            if i != r:
                rows[i] = eliminate(rows[i])
        self.zrow = eliminate(self.zrow)
        if p < 0:
            # Only the artificial pivot-out step pivots on a negative entry;
            # negating everything keeps the common denominator positive.
            self.rows = [[-x for x in row] for row in rows]
            self.zrow = [-x for x in self.zrow]
            p = -p
        self.den = p
        self.basis[r] = j

    def _ratio_row(self, j: int) -> int | None:
        """Bland leaving row: min ratio, ties broken by smallest basic index.

        Ratios rhs_i / a_ij share the denominator, so they are compared by
        cross-multiplication of the numerators."""
        best = None
        for i, row in enumerate(self.rows):
            a = row[j]
            if a > 0:
                if best is not None:
                    lhs, rhs = row[-1] * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and self.basis[i] > self.basis[best]):
                        continue
                best, best_a, best_b = i, a, row[-1]
        return best

    def run(self, allowed: int) -> int | None:
        """Bland simplex loop over columns < allowed.

        Returns None at optimality, or the entering column index when the
        program is unbounded in that direction.
        """
        while True:
            enter = None
            zrow = self.zrow
            for j in range(allowed):
                if zrow[j] < 0:
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
    n, m, width = tab.n, tab.m, tab.art_start

    # Phase 1: drive the artificial variables to zero.
    tab._reset_costs([0] * width, art_cost=-1)
    tab.run(width)
    if tab.zrow[-1] < 0:
        return LpResult(INFEASIBLE)

    # Degenerate basic artificials: pivot them out where possible; rows that
    # are zero on every structural column are redundant and stay put.
    for i in range(m):
        if tab.basis[i] >= width:
            row = tab.rows[i]
            for j in range(width):
                if row[j] != 0:
                    tab._pivot(i, j)
                    break

    # Phase 2: the real objective on the split variables.
    cost_scale = lcm(*[c.denominator for c in lp.objective])
    costs = [0] * width
    for j, c in enumerate(lp.objective):
        costs[j] = c.numerator * (cost_scale // c.denominator)
        costs[n + j] = -costs[j]
    tab._reset_costs(costs)
    enter = tab.run(width)
    den = tab.den

    if enter is not None:
        direction = [_ZERO] * (width + m)
        direction[enter] = _ONE
        for i in range(m):
            direction[tab.basis[i]] = Fraction(-tab.rows[i][enter], den)
        ray = tuple([direction[j] - direction[n + j] for j in range(n)])
        return LpResult(UNBOUNDED, ray=ray)

    std = [_ZERO] * (width + m)
    for i in range(m):
        std[tab.basis[i]] = Fraction(tab.rows[i][-1], den)
    point = tuple([std[j] - std[n + j] for j in range(n)])
    return LpResult(OPTIMAL, value=Fraction(tab.zrow[-1], den * cost_scale),
                    point=point)


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
    ``solve(prog)`` unchanged.  The refinement is feasible (the first point
    with t = |x|) and bounded (its objective is at most 0), so any other
    status is an internal error.
    """
    first = solve(prog)
    if first.status != OPTIMAL or first.value <= 0:
        return first
    n = prog.num_vars
    k = len(over)
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
        raise RuntimeError("internal: the least-l1 stage must have an optimum")
    return LpResult(OPTIMAL, first.value, second.point[:n])


def rationalize_direction(point: Sequence) -> tuple[int, ...]:
    """Primitive integer vector that is a positive multiple of the input.

    Clears denominators with their lcm, then divides by the gcd of the
    entries, so the result has entry gcd 1.
    """
    vec = as_rat_vec(point)
    if not vec or not any(vec):
        raise InputError("cannot rationalize the zero vector")
    scale = lcm(*[f.denominator for f in vec])
    ints = [int(f * scale) for f in vec]
    g = gcd(*ints)
    return tuple([c // g for c in ints])
