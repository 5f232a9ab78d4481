"""Exact rational linear programming for the package's direction LPs.

A small two-phase simplex with Bland's pivot rule, so termination is
unconditional and identical programs yield bit-identical answers.  Every row
of a program, the objective too, is given as integers over one positive
row denominator, written there directly from integer weight rows; results
come back as Fractions.  The row type, ``Constraint`` with its relations, is
``lattice``'s, so callers write rows without loading this module, and
``stability`` imports it only where a program is solved.  One sparse
tableau runs every stage: each row keeps its nonzero entries as integers
over the row's own positive scale, so a pivot touches only the rows with an
entry in the entering column.

Variables are free (unrestricted sign); nonnegativity, boxes, and
normalization slices are expressed as ordinary constraints by the callers.
Strict inequalities are never part of the constraint language: callers
encode strictness as "maximize the slack and test optimum > 0".

The package's geometry runs on exact facet descriptions, not on LPs.  The
programs solved here only extract directions: the semistability and
stability witnesses and degeneration directions, all through one helper,
``stability._best_direction``, which calls ``solve_min_l1`` on a box frame
and rationalizes the optimal direction.  Where the directions span at most
a plane (free rank <= 2, sl(<= 3)) it settles the program in closed form
instead, and calls only ``least_l1_stage``, on an sl(3) tie.  Those
programs, and the least-l1 stages built from them, are feasible and
bounded (a run that finds otherwise raises RuntimeError); the first are
feasible at the origin, so ``solve_min_l1`` starts its first stage there,
with no phase 1.  At a positive optimum it minimizes the l1 norm on the
optimal face in the same tableau, decides exactly whether the least-l1
point is unique in the coordinates asked for, and runs the two-phase
``least_l1_stage`` (``solve`` on a larger program) only when it is not.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Collection, Sequence

from .lattice import EQ, GEQ, LEQ, _RELATIONS, Constraint, InputError, _Record, as_rat_vec


class LinearProgram(_Record):
    """num_vars free rational variables, linear constraints, and a linear
    objective ``objective . x / objective_den`` to maximize, integers over a
    positive denominator; a feasibility question maximizes zero.
    """

    __slots__ = _fields = ("num_vars", "constraints", "objective", "objective_den")

    def __init__(self, num_vars: int, constraints: tuple[Constraint, ...],
                 objective: tuple[int, ...], objective_den: int):
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
            if con.relation not in _RELATIONS:
                raise InputError(f"unknown relation {con.relation!r}")
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "objective_den", objective_den)


class LpResult(_Record):
    """The optimal value and an optimal point; every program solved here has
    both, so ``ray`` is always None."""

    __slots__ = _fields = ("value", "point", "ray")

    def __init__(self, value: Fraction, point: tuple[Fraction, ...],
                 ray: tuple[Fraction, ...] | None = None):
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "point", point)
        object.__setattr__(self, "ray", ray)


class _Tableau:
    """Sparse simplex tableau with one positive scale per row.

    Column layout: [x+_0..x+_{n-1}, x-_0..x-_{n-1}, slacks, artificials].
    Artificial columns never re-enter the basis and nothing reads them, so
    they are not stored: only their basis indices art_start + i remain.
    Each row keeps only its nonzero entries, as a dict from column to
    integer, with the right-hand side at column ``art_start``; it stands
    for the tableau row divided by its scale, the entry in its basic column
    (for a basic artificial, the artificial's implicit entry).  The cost
    row is kept the same way over ``zscale``.

    The rows start as the constraints times the lcm ``scale`` of their
    least row denominators, con.den // gcd(con.den, con.rhs, *con.coeffs),
    which is the lcm of the denominators of all their entries as reduced
    fractions, however a row is written, with each slack entry at +-scale.
    The start basis is one of two.  By default every row i keeps the
    artificial art_i, at implicit entry and scale 1, for the two-phase
    method; that rescales every artificial variable by the same positive
    factor.  ``at_origin`` starts from the point x = 0, which must be
    feasible: a ">=" row with right-hand side 0 is negated, so every
    inequality reads "<=" with b >= 0 and its slack is basic at b, over
    ``scale``, and only the "=" rows (all with b = 0) keep their
    artificials, at scale 1.

    The ratio test compares b_i / a_ij and Bland's entering rule reads
    only the signs of reduced costs; both are invariant under positive row
    scaling, so the pivot path is that of the rational tableau.  A pivot on
    p in row r turns every row x with an entry q in the entering column
    into p*x - q*pivot_row over its scale times p, over the union of the
    two supports, and divides it by the gcd of its entries and scale; every
    other row stays as it is.
    """

    def __init__(self, lp: LinearProgram, at_origin: bool = False):
        n = lp.num_vars
        cons = lp.constraints
        width = 2 * n + sum(1 for c in cons if c.relation != EQ)
        self.n = n
        self.art_start = width
        least = [con.den // gcd(con.den, con.rhs, *con.coeffs) for con in cons]
        scale = lcm(*least)

        rows: list[dict] = []
        scales: list[int] = []
        basis: list[int] = []
        slack_at = 2 * n
        for i, (con, d) in enumerate(zip(cons, least)):
            g, k = con.den // d, scale // d
            b = con.rhs // g * k
            rel = con.relation
            if b < 0 or (at_origin and b == 0 and rel == GEQ):
                k, b = -k, -b
                rel = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}[rel]
            if at_origin and (rel == GEQ or (rel == EQ and b)):
                raise InputError(f"constraint {i} does not hold at the origin")
            row = {}
            for j, c in enumerate(con.coeffs):
                if c:
                    row[j] = c // g * k
                    row[n + j] = -row[j]
            if b:
                row[width] = b
            if rel == EQ or not at_origin:
                basis.append(width + i)
                scales.append(1)
            else:
                basis.append(slack_at)
                scales.append(scale)
            if rel != EQ:
                row[slack_at] = scale if rel == LEQ else -scale
                slack_at += 1
            rows.append(row)

        self.rows = rows
        self.scales = scales
        self.basis = basis
        self.zrow: dict = {}
        self.zscale = 1

    # Cost row convention: zrow[j] = z_j - c_j and zrow[art_start] = the
    # current objective, each times zscale and one positive cost scale.
    # Only signs are read until phase 2 ends, when the value is
    # zrow[art_start] / (zscale * scale).
    def _reset_costs(self, costs: list[int], art_cost: int = 0):
        """Price out the basis for integer costs on the stored columns and
        one common cost for every artificial."""
        width = self.art_start
        cb = [costs[b] if b < width else art_cost for b in self.basis]
        scale = lcm(*[s for c, s in zip(cb, self.scales) if c])
        zrow = {j: -c * scale for j, c in enumerate(costs) if c}
        for c, s, row in zip(cb, self.scales, self.rows):
            if c:
                f = c * (scale // s)
                for j, x in row.items():
                    zrow[j] = zrow.get(j, 0) + f * x
        self.zrow = {j: x for j, x in zrow.items() if x}
        self.zscale = _primitive(self.zrow, scale)

    def _pivot(self, r: int, j: int):
        rows, scales = self.rows, self.scales
        prow = rows[r]
        p = prow[j]
        if p < 0:
            # only the artificial pivot-out step pivots on a negative entry
            prow = rows[r] = {k: -x for k, x in prow.items()}
            p = -p
        for i, row in enumerate(rows):
            q = row.get(j)
            if q and i != r:
                scales[i] = _eliminate(row, scales[i], p, q, prow)
        q = self.zrow.get(j)
        if q:
            self.zscale = _eliminate(self.zrow, self.zscale, p, q, prow)
        scales[r] = p
        self.basis[r] = j

    def _ratio_row(self, j: int) -> int | None:
        """Bland leaving row: min ratio, ties broken by smallest basic index.

        A ratio b_i / a_ij does not depend on the row's scale; ratios are
        compared by cross-multiplication."""
        end, basis = self.art_start, self.basis
        best = None
        for i, row in enumerate(self.rows):
            a = row.get(j)
            if a is not None and a > 0:
                b = row.get(end, 0)
                if best is not None:
                    lhs, rhs = b * best_a, best_b * a
                    if lhs > rhs or (lhs == rhs and basis[i] > basis[best]):
                        continue
                best, best_a, best_b = i, a, b
        return best

    def run(self, columns: Collection[int]) -> None:
        """Bland simplex loop to optimality: each time the least of
        ``columns`` (a range or a set, tested by membership) with a
        negative reduced cost enters.  Every program solved here is
        bounded, so a ratio test without a leaving row is an internal
        error."""
        while True:
            enter = min([j for j, z in self.zrow.items() if z < 0 and j in columns],
                        default=None)
            if enter is None:
                return
            leave = self._ratio_row(enter)
            if leave is None:
                raise RuntimeError("internal: the program is unbounded")
            self._pivot(leave, enter)


def _eliminate(row: dict, scale: int, p: int, q: int, prow: dict) -> int:
    """Make a sparse row p*row - q*prow, in place, over scale*p divided by
    the gcd of its entries and that scale; return the new scale."""
    if p != 1:
        for k in row:
            row[k] *= p
    for k, y in prow.items():
        x = row.get(k, 0) - q * y
        if x:
            row[k] = x
        else:
            del row[k]
    return _primitive(row, scale * p)


def _primitive(row: dict, scale: int) -> int:
    """Divide a sparse row and its scale by their gcd, the row in place;
    return the new scale."""
    if scale == 1:
        return 1
    g = gcd(scale, *row.values())
    if g != 1:
        for k in row:
            row[k] //= g
    return scale // g


def solve(lp: LinearProgram) -> LpResult:
    """Solve a feasible, bounded program exactly, two-phase: the optimal
    value and an optimal point.  An infeasible or unbounded program is an
    internal error and raises RuntimeError."""
    tab = _Tableau(lp)

    # Phase 1: drive the artificial variables to zero.
    tab._reset_costs([0] * tab.art_start, art_cost=-1)
    tab.run(range(tab.art_start))
    if tab.zrow.get(tab.art_start, 0) < 0:
        raise RuntimeError("internal: the program is infeasible")
    return _optimize(tab, lp)


def _optimize(tab: _Tableau, prog: LinearProgram) -> LpResult:
    """Phase 2 from a feasible basis, and the result read off the tableau."""
    n, width = tab.n, tab.art_start

    # Degenerate basic artificials: pivot them out where possible; rows that
    # are zero on every structural column are redundant and stay put.
    for i, b in enumerate(tab.basis):
        if b >= width:
            j = min([j for j in tab.rows[i] if j < width], default=None)
            if j is not None:
                tab._pivot(i, j)

    # Phase 2: the real objective on the split variables, over its least
    # denominator.
    g = gcd(prog.objective_den, *prog.objective)
    cost_scale = prog.objective_den // g
    costs = [0] * width
    for j, c in enumerate(prog.objective):
        costs[j] = c // g
        costs[n + j] = -costs[j]
    tab._reset_costs(costs)
    tab.run(range(width))
    value = Fraction(tab.zrow.get(width, 0), tab.zscale * cost_scale)
    return LpResult(value, _point(tab))


def _point(tab: _Tableau) -> tuple[Fraction, ...]:
    """The basic solution in x = x+ - x-."""
    n, end = tab.n, tab.art_start
    x_rows = [(b, row.get(end, 0), s) for b, row, s in zip(tab.basis, tab.rows, tab.scales)
              if b < 2 * n]
    common = lcm(*[s for _, _, s in x_rows])
    x = [0] * n
    for b, v, s in x_rows:
        v *= common // s
        if b < n:
            x[b] += v
        else:
            x[b - n] -= v
    return tuple([Fraction(v, common) for v in x])


def _moves(tab: _Tableau, fixed: frozenset):
    """For each nonbasic column of zero reduced cost outside ``fixed``, in
    an optimal tableau, how raising it moves x = x+ - x-, one integer per
    coordinate.  The mirror of a basic x+- column moves nothing, as x+ and
    x- then rise together."""
    n, zrow = tab.n, tab.zrow
    skip = fixed.union(tab.basis)
    # Every basic x+- column's row, brought to the lcm of their scales:
    # the row's entry in column j times its factor is the drop per unit of
    # j over that lcm, with the sign of the column's variable in x.
    x_rows = [(i, b) for i, b in enumerate(tab.basis) if b < 2 * n]
    common = lcm(*[tab.scales[i] for i, _ in x_rows])
    x_rows = [(tab.rows[i], (1 if b < n else -1) * (common // tab.scales[i]), b % n)
              for i, b in x_rows]
    for j in range(tab.art_start):
        if j in zrow or j in skip:
            continue
        move = [0] * n
        if j < 2 * n:
            move[j % n] = common if j < n else -common
        for row, f, k in x_rows:
            a = row.get(j)
            if a:
                move[k] -= f * a
        yield move


def _face_min_l1(tab: _Tableau, over: Sequence[int]) -> tuple[Fraction, ...] | None:
    """Minimize sum(|x_j|, j in over) on the optimal face of an optimal
    tableau, in place, and return a least-l1 point when the least-l1 set
    is one point in the coordinates ``over``, else None.

    The optimal face is the feasible set with every column of positive
    reduced cost at 0, so those columns are fixed and the others priced
    with the cost -(x+_j + x-_j) for j in ``over``.  Only columns of zero
    reduced cost enter, and a pivot on such a column leaves the first cost
    row as it was, so every basis visited stays on the face.  At the end
    the least-l1 points of the face are the optimal points of this
    program.

    Then the columns of positive reduced cost in this cost row are fixed
    too, and each coordinate x_k in ``over`` that some free column moves
    is maximized and minimized with Bland's rule over the free columns; a
    pivot on a column of zero reduced cost leaves both cost rows as they
    were, so every basis visited stays on the least-l1 set.  A coordinate
    that no free column moves is constant on the set, as every feasible
    direction is a nonnegative combination of the free columns'.  A column
    that a degenerate row blocks may count as moving a coordinate that is
    fixed, which the two runs tell.  The point is unique in ``over``
    exactly when no coordinate there moves, and then every least-l1 stage
    returns it there, whatever its pivot path; callers read no other
    coordinate.  The other coordinates are never maximized, so one that no
    row bounds, such as an extra variable outside the objective, raises
    nothing.
    """
    n, width = tab.n, tab.art_start
    fixed = frozenset([j for j, z in tab.zrow.items() if z > 0 and j < width])
    costs = [0] * width
    for j in over:
        costs[j] = costs[n + j] = -1
    tab._reset_costs(costs)
    # -l1 is at most 0, so this program is bounded
    tab.run(set(range(width)).difference(fixed))
    moves = [move for move in _moves(tab, fixed) if any([move[k] for k in over])]
    if moves:
        free = {j for j in range(width) if j not in tab.zrow and j not in fixed}
        for k in over:
            if not any(move[k] for move in moves):
                continue
            for sign in (1, -1):
                costs = [0] * width
                costs[k], costs[n + k] = sign, -sign
                tab._reset_costs(costs)
                start = Fraction(tab.zrow.get(width, 0), tab.zscale)
                tab.run(free)
                if Fraction(tab.zrow.get(width, 0), tab.zscale) != start:
                    return None
    return _point(tab)


def solve_min_l1(prog: LinearProgram, over: Sequence[int]) -> LpResult:
    """Solve a program that is feasible at the origin, then pick the optimal
    point of least l1 norm over the given variable indices, when the
    optimum is positive.

    The first stage starts from the origin's slack basis (no phase 1); it
    raises InputError when the origin is infeasible, RuntimeError when the
    program is unbounded.  A non-positive optimum comes back with some
    optimal point, which every caller discards.  At a positive optimum
    ``_face_min_l1`` minimizes the l1 norm on the optimal face, in the same
    tableau, and decides exactly whether the least-l1 point is unique in
    ``over``; when it is, it comes back, as every least-l1 stage would
    return it there.  Otherwise the points of least l1 norm tie, and
    ``least_l1_stage`` picks one.
    """
    tab = _Tableau(prog, at_origin=True)
    first = _optimize(tab, prog)
    if first.value <= 0:
        return first
    point = _face_min_l1(tab, over)
    if point is None:
        point = least_l1_stage(prog, over, first.value)
    return LpResult(first.value, point)


def least_l1_stage(prog: LinearProgram, over: Sequence[int],
                   value: Fraction) -> tuple[Fraction, ...]:
    """The least-l1 stage of ``solve_min_l1``: an optimal point of ``prog``,
    whose optimum is ``value``, of least l1 norm over ``over``.

    It runs two-phase and fully exact on the original program through
    ``solve``: the optimum becomes an equality constraint, then the sum of
    absolute values of the chosen variables is minimized through the usual
    t_i >= +/- x_i envelope.  Keeps witnesses canonical instead of whatever
    vertex of a degenerate optimal face the pivot order happens to visit
    first; on such a face the pivot path of this stage breaks the ties, and
    that path depends on ``prog`` and ``value`` alone.  It is feasible (an
    optimal point with t = |x|) and bounded (its objective is at most 0).
    """
    n = prog.num_vars
    k = len(over)
    pad = (0,) * k
    cons = [Constraint(con.coeffs + pad, con.relation, con.rhs, con.den)
            for con in prog.constraints]
    # objective . x / objective_den = value
    num, den = value.numerator, value.denominator
    cons.append(Constraint(tuple([c * den for c in prog.objective]) + pad, EQ,
                           num * prog.objective_den, den * prog.objective_den))
    for slot, j in enumerate(over):
        row = [0] * (n + k)
        row[n + slot] = 1
        row[j] = -1
        cons.append(Constraint(tuple(row), GEQ, 0, 1))  # t >= x
        row[j] = 1
        cons.append(Constraint(tuple(row), GEQ, 0, 1))  # t >= -x
    return solve(LinearProgram(n + k, tuple(cons), (0,) * n + (-1,) * k, 1)).point[:n]


def rationalize_direction(point: Sequence) -> tuple[int, ...]:
    """Primitive integer vector that is a positive multiple of the input.

    Clears denominators with their lcm, then divides by the gcd of the
    entries, so the result has entry gcd 1.
    """
    vec = as_rat_vec(point)
    den = lcm(*[f.denominator for f in vec])
    ints = [f.numerator * (den // f.denominator) for f in vec]
    g = gcd(*ints)
    if not g:
        raise InputError("cannot rationalize the zero vector")
    return tuple([c // g for c in ints])
