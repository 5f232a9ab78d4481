"""Rational program builders and an independent Fraction simplex for tests.

``lp`` solves only the direction LPs the package writes from integer rows,
all of them feasible and bounded.  Tests also pose programs from rational
data, some infeasible or unbounded: ``linear_program`` builds them as
``lp.LinearProgram``, and ``reference_solve`` solves any of them on a
Fraction tableau that shares no code with ``lp``'s solver, so references
that need a general LP (hull membership, segment reach, the extent of a
least-l1 set) do not call the code they check.  The tableau takes the
same Bland pivots as ``lp``'s, from the artificial basis or from the
origin, so it is also the reference for ``lp``'s pivot path.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple

from stablepairs import lp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


class Result(NamedTuple):
    """A reference answer: its status, and for an optimal program the
    optimal value and an optimal point."""

    status: str
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None


def _over_lcm(values) -> tuple[tuple[int, ...], int]:
    """Rationals as integers over the lcm of their denominators, and that
    lcm."""
    vec = [Fraction(v) for v in values]
    den = lcm(*[f.denominator for f in vec])
    return tuple([f.numerator * (den // f.denominator) for f in vec]), den


def constraint(coeffs, relation: str, rhs) -> lp.Constraint:
    """The row ``coeffs . x  relation  rhs`` from rational entries."""
    (*ints, b), den = _over_lcm([*coeffs, rhs])
    return lp.Constraint(tuple(ints), relation, b, den)


def linear_program(num_vars: int, constraints, objective=None) -> lp.LinearProgram:
    """A program from ``lp.Constraint`` rows or (coeffs, relation, rhs)
    triples of rationals, and a rational objective (zero when None)."""
    cons = tuple([
        c if isinstance(c, lp.Constraint) else constraint(*c) for c in constraints
    ])
    if objective is None:
        return lp.LinearProgram(num_vars, cons, (0,) * num_vars, 1)
    return lp.LinearProgram(num_vars, cons, *_over_lcm(objective))


def rational_rows(prog):
    """The constraints of prog as (coeffs, relation, rhs) over Fractions."""
    return [([Fraction(c, con.den) for c in con.coeffs], con.relation,
             Fraction(con.rhs, con.den)) for con in prog.constraints]


def rational_objective(prog):
    return [Fraction(c, prog.objective_den) for c in prog.objective]


def _lean(values):
    """Integral Fractions as ints, whose arithmetic is much cheaper; the
    others as they are."""
    return [int(v) if v.denominator == 1 else v for v in values]


class _ReferenceTableau:
    """Simplex tableau over the rationals, each row a dict of its nonzero
    entries.  Integral entries of the program start as ints, which stay ints
    until a Fraction reaches them.

    Column layout: [x+_0..x+_{n-1}, x-_0..x-_{n-1}, slacks, artificials].
    By default row i keeps the artificial variable art_i as its initial
    basic variable.  ``at_origin`` starts from the point x = 0, which must
    be feasible: a ">=" row with right-hand side 0 is negated, every
    inequality's slack is basic at its right-hand side, and only the "="
    rows keep their artificials.  Artificial columns are never allowed to
    re-enter the basis.
    """

    def __init__(self, prog, at_origin: bool = False):
        n = prog.num_vars
        slack_count = sum(1 for c in prog.constraints if c.relation != lp.EQ)
        self.n = n
        self.art_start = 2 * n + slack_count
        self.rows: list[dict] = []
        self.rhs: list = []
        self.basis: list[int] = []

        slack_at = 2 * n
        for i, (coeffs, rel, b) in enumerate(rational_rows(prog)):
            *coeffs, b = _lean(coeffs + [b])
            if b < 0 or (at_origin and b == 0 and rel == lp.GEQ):
                coeffs = [-c for c in coeffs]
                b = -b
                rel = {lp.LEQ: lp.GEQ, lp.GEQ: lp.LEQ, lp.EQ: lp.EQ}[rel]
            assert not at_origin or rel == lp.LEQ or (rel == lp.EQ and b == 0), \
                f"constraint {i} does not hold at the origin"
            row = {}
            for j, c in enumerate(coeffs):
                if c:
                    row[j], row[n + j] = c, -c
            if at_origin and rel == lp.LEQ:
                self.basis.append(slack_at)
            else:
                row[self.art_start + i] = 1
                self.basis.append(self.art_start + i)
            if rel != lp.EQ:
                row[slack_at] = 1 if rel == lp.LEQ else -1
                slack_at += 1
            self.rows.append(row)
            self.rhs.append(b)
        self.zrow: dict = {}
        self.zval = 0

    # Cost row convention: zrow[j] = z_j - c_j, zval = current objective.
    def _reset_costs(self, costs: dict):
        """Price out the basis for the costs, a dict of nonzero costs by
        column."""
        zrow = {j: -c for j, c in costs.items()}
        zval = 0
        for bi, row, b in zip(self.basis, self.rows, self.rhs):
            cb = costs.get(bi)
            if cb:
                _add(zrow, cb, row)
                zval += cb * b
        self.zrow = zrow
        self.zval = zval

    def _pivot(self, r: int, j: int):
        row = self.rows[r]
        piv = row[j]
        if piv == -1:
            self.rows[r] = row = {k: -c for k, c in row.items()}
            self.rhs[r] = -self.rhs[r]
        elif piv != 1:
            inv = 1 / Fraction(piv)
            self.rows[r] = row = {k: c * inv for k, c in row.items()}
            self.rhs[r] *= inv
        for i, target in enumerate(self.rows):
            f = target.get(j)
            if f and i != r:
                _add(target, -f, row)
                self.rhs[i] -= f * self.rhs[r]
        f = self.zrow.get(j)
        if f:
            _add(self.zrow, -f, row)
            self.zval -= f * self.rhs[r]
        self.basis[r] = j

    def _ratio_row(self, j: int) -> int | None:
        """Bland leaving row: min ratio, ties broken by smallest basic index."""
        best = None
        best_ratio = None
        for i, row in enumerate(self.rows):
            a = row.get(j, 0)
            if a > 0:
                ratio = Fraction(self.rhs[i]) / a
                if (best_ratio is None or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[best])):
                    best = i
                    best_ratio = ratio
        return best

    def run(self, columns) -> int | None:
        """Bland simplex loop over the given columns, a range or a set.

        Returns None at optimality, or the entering column index when the
        program is unbounded in that direction.
        """
        while True:
            enter = min([j for j, z in self.zrow.items() if j in columns and z < 0],
                        default=None)
            if enter is None:
                return None
            leave = self._ratio_row(enter)
            if leave is None:
                return enter
            self._pivot(leave, enter)


def _add(target: dict, f, row: dict):
    """target += f * row, in place, keeping only nonzero entries."""
    for k, c in row.items():
        v = target.get(k, 0) + f * c
        if v:
            target[k] = v
        else:
            del target[k]


def reference_solve(prog) -> Result:
    """Any program, two-phase on a Fraction tableau: the optimal value and
    point, ``INFEASIBLE`` or ``UNBOUNDED``.  On a program ``lp.solve``
    solves, both take the same pivots, so the results are identical, field
    by field."""
    return reference_tableau(prog)[1]


def reference_tableau(prog, at_origin: bool = False) -> tuple[_ReferenceTableau, Result]:
    """A Fraction tableau of prog after ``reference_solve``, or after the
    first stage of ``lp.solve_min_l1`` with ``at_origin`` (no phase 1), and
    its result."""
    tab = _ReferenceTableau(prog, at_origin)
    n, width = tab.n, tab.art_start

    if not at_origin:
        # Phase 1: drive the artificial variables to zero.
        tab._reset_costs({width + i: -1 for i in range(len(tab.rows))})
        tab.run(range(width))
        if tab.zval < 0:
            return tab, Result(INFEASIBLE)

    # Degenerate basic artificials: pivot them out where possible; rows that
    # are zero on every structural column are redundant and stay put.
    for i, b in enumerate(tab.basis):
        if b >= width:
            j = min([j for j in tab.rows[i] if j < width], default=None)
            if j is not None:
                tab._pivot(i, j)

    # Phase 2: the real objective on the split variables.
    costs = {}
    for j, c in enumerate(_lean(rational_objective(prog))):
        if c:
            costs[j], costs[n + j] = c, -c
    tab._reset_costs(costs)
    if tab.run(range(width)) is not None:
        return tab, Result(UNBOUNDED)

    std = dict(zip(tab.basis, tab.rhs))
    point = tuple(Fraction(std.get(j, 0) - std.get(n + j, 0)) for j in range(n))
    return tab, Result(OPTIMAL, Fraction(tab.zval), point)
