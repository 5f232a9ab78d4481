"""Rational program builders and an independent Fraction simplex for tests.

``lp`` solves only the direction LPs the package writes from integer rows,
all of them feasible and bounded.  Tests also pose programs from rational
data, some infeasible or unbounded: ``linear_program`` builds them as
``lp.LinearProgram``, and ``reference_solve`` solves any of them on a
Fraction tableau that shares no code with ``lp``'s solvers, so references
that need a general LP (hull membership, segment reach, the extent of a
least-l1 set) do not call the code they check.
"""

from fractions import Fraction
from math import lcm

from stablepairs import lp

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"

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
    Row i keeps the artificial variable art_i as its initial basic variable;
    artificial columns are never allowed to re-enter the basis.
    """

    def __init__(self, prog):
        n = prog.num_vars
        m = len(prog.constraints)
        slack_count = sum(1 for c in prog.constraints if c.relation != lp.EQ)
        self.n = n
        self.m = m
        self.art_start = 2 * n + slack_count
        self.rows: list[dict] = []
        self.rhs: list = []

        slack_at = 2 * n
        for i, (coeffs, rel, b) in enumerate(rational_rows(prog)):
            *coeffs, b = _lean(coeffs + [b])
            if b < 0:
                coeffs = [-c for c in coeffs]
                b = -b
                rel = {lp.LEQ: lp.GEQ, lp.GEQ: lp.LEQ, lp.EQ: lp.EQ}[rel]
            row = {}
            for j, c in enumerate(coeffs):
                if c:
                    row[j], row[n + j] = c, -c
            if rel != lp.EQ:
                row[slack_at] = 1 if rel == lp.LEQ else -1
                slack_at += 1
            row[self.art_start + i] = 1
            self.rows.append(row)
            self.rhs.append(b)
        self.basis = [self.art_start + i for i in range(m)]

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

    def run(self, allowed: int) -> int | None:
        """Bland simplex loop over columns < allowed.

        Returns None at optimality, or the entering column index when the
        program is unbounded in that direction.
        """
        while True:
            enter = min([j for j, z in self.zrow.items() if j < allowed and z < 0],
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


def reference_solve(prog) -> lp.LpResult:
    """Any program, two-phase on a Fraction tableau: the optimal value and
    point, ``INFEASIBLE`` or ``UNBOUNDED``.  On a program ``lp.solve``
    solves, both take the same pivots, so the results are identical, field
    by field."""
    tab = _ReferenceTableau(prog)
    n, m = tab.n, tab.m

    # Phase 1: drive the artificial variables to zero.
    tab._reset_costs({tab.art_start + i: -1 for i in range(m)})
    tab.run(tab.art_start)
    if tab.zval < 0:
        return lp.LpResult(INFEASIBLE)

    # Degenerate basic artificials: pivot them out where possible; rows that
    # are zero on every structural column are redundant and stay put.
    for i in range(m):
        if tab.basis[i] >= tab.art_start:
            j = min([j for j in tab.rows[i] if j < tab.art_start], default=None)
            if j is not None:
                tab._pivot(i, j)

    # Phase 2: the real objective on the split variables.
    costs = {}
    for j, c in enumerate(_lean(rational_objective(prog))):
        if c:
            costs[j], costs[n + j] = c, -c
    tab._reset_costs(costs)
    if tab.run(tab.art_start) is not None:
        return lp.LpResult(UNBOUNDED)

    std = dict(zip(tab.basis, tab.rhs))
    point = tuple(Fraction(std.get(j, 0) - std.get(n + j, 0)) for j in range(n))
    return lp.LpResult(OPTIMAL, value=Fraction(tab.zval), point=point)
