import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from stablepairs import FrameFamily, InputError, find_degeneration, verdict
from stablepairs import lp

from conftest import build_corpus
from lp_reference import (
    INFEASIBLE, OPTIMAL, UNBOUNDED, _ReferenceTableau, linear_program, rational_objective,
    rational_rows, reference_solve, reference_tableau,
)
from test_degeneration import duplicated_keep_problems, random_problems


def test_single_variable_maximum():
    prog = linear_program(1, [([1], lp.LEQ, 3), ([1], lp.GEQ, 0)], [1])
    result = lp.solve(prog)
    assert result.value == 3
    assert result.point == (Fraction(3),)


def test_edge_optimum_deterministic():
    cons = [([1, 1], lp.LEQ, 1), ([1, 0], lp.GEQ, 0), ([0, 1], lp.GEQ, 0)]
    prog = linear_program(2, cons, [1, 1])
    result = lp.solve(prog)
    assert result.value == 1
    # any point of the optimal edge is acceptable; the pivot rule is
    # deterministic and lands on (1, 0)
    assert result.point == (Fraction(1), Fraction(0))
    again = lp.solve(prog)
    assert again == result


def test_equality_system():
    prog = linear_program(2, [([1, 1], lp.EQ, 1), ([1, -1], lp.EQ, 1)], [0, 1])
    result = lp.solve(prog)
    assert result.point == (Fraction(1), Fraction(0))
    assert result.value == 0


def test_negative_rhs_rows():
    prog = linear_program(1, [([1], lp.GEQ, -5)], [-1])
    result = lp.solve(prog)
    assert result.value == 5
    assert result.point == (Fraction(-5),)


def test_malformed_rows_rejected():
    with pytest.raises(InputError):
        linear_program(2, [([1], lp.LEQ, 1)], [1, 0])
    with pytest.raises(InputError, match="unknown relation '<'"):
        lp.LinearProgram(2, (lp.Constraint((1, 0), "<", 1, 1),), (1, 0), 1)
    with pytest.raises(InputError):
        linear_program(0, [], [])


def _random_bounded_program(rng):
    """max c.x  s.t.  A x <= b, 0 <= x <= u, with b >= 0 so x = 0 is feasible."""
    n = rng.randint(1, 4)
    m = rng.randint(1, 4)
    A = [[Fraction(rng.randint(-4, 4)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(0, 6)) for _ in range(m)]
    u = [Fraction(rng.randint(1, 5)) for _ in range(n)]
    c = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
    return n, m, A, b, u, c


def _primal(n, m, A, b, u, c):
    cons = [(A[i], lp.LEQ, b[i]) for i in range(m)]
    for j in range(n):
        row = [Fraction(0)] * n
        row[j] = Fraction(1)
        cons.append((list(row), lp.LEQ, u[j]))
        cons.append((row, lp.GEQ, 0))
    return linear_program(n, cons, c)


def test_resubstitution_of_optimal_points():
    rng = random.Random(7)
    for _ in range(60):
        n, m, A, b, u, c = _random_bounded_program(rng)
        prog = _primal(n, m, A, b, u, c)
        result = lp.solve(prog)
        x = result.point
        for row, rel, rhs in [(con.coeffs, con.relation, con.rhs)
                              for con in prog.constraints]:
            lhs = sum(r * xi for r, xi in zip(row, x))
            if rel == lp.LEQ:
                assert lhs <= rhs
            elif rel == lp.GEQ:
                assert lhs >= rhs
            else:
                assert lhs == rhs
        assert sum(ci * xi for ci, xi in zip(c, x)) == result.value


def test_duality_spot_check():
    # max{c.x : A'x <= b', x >= 0} vs min{b'.y : A''y >= c, y >= 0}, where
    # A' stacks A with the identity rows for the upper bounds u.
    rng = random.Random(11)
    for _ in range(40):
        n, m, A, b, u, c = _random_bounded_program(rng)
        primal = lp.solve(_primal(n, m, A, b, u, c))
        rows = A + [[Fraction(1) if k == j else Fraction(0) for k in range(n)]
                    for j in range(n)]
        rhs = b + u
        nd = m + n
        cons = []
        for j in range(n):
            cons.append(([rows[i][j] for i in range(nd)], lp.GEQ, c[j]))
        for i in range(nd):
            row = [Fraction(0)] * nd
            row[i] = Fraction(1)
            cons.append((row, lp.GEQ, 0))
        dual = lp.solve(linear_program(nd, cons, [-v for v in rhs]))
        assert -dual.value == primal.value


def test_determinism_bit_for_bit():
    rng = random.Random(3)
    for _ in range(20):
        n, m, A, b, u, c = _random_bounded_program(rng)
        prog = _primal(n, m, A, b, u, c)
        assert lp.solve(prog) == lp.solve(prog)


def test_solve_min_l1_prefers_sparse_optimum():
    # the optimal face is the segment {x1 = -1, x2 free, x3 = 0}; the l1
    # stage must land on the x2 = 0 point no matter what the plain pivot does
    cons = [([0, 0, 1], lp.LEQ, 0),
            ([1, 0, 0], lp.LEQ, 1), ([1, 0, 0], lp.GEQ, -1),
            ([0, 1, 0], lp.LEQ, 1), ([0, 1, 0], lp.GEQ, -1)]
    prog = linear_program(3, cons, [-1, 0, 1])
    plain = lp.solve(prog)
    refined = lp.solve_min_l1(prog, range(2))
    assert plain.value == refined.value == 1
    assert refined.point[:2] == (Fraction(-1), Fraction(0))
    assert sum(abs(c) for c in refined.point[:2]) <= \
        sum(abs(c) for c in plain.point[:2])

    # a zero optimum is not refined: the whole box in (x1, x2) is optimal,
    # and some optimal point comes back with the value
    zero = linear_program(3, cons, [0, 0, 1])
    result = lp.solve_min_l1(zero, range(2))
    assert result.value == 0
    assert_optimal_point(zero, result)


def assert_optimal_point(prog, result):
    """result.point satisfies every constraint of prog and attains
    result.value."""
    x = result.point
    for con in prog.constraints:
        lhs = sum(c * xi for c, xi in zip(con.coeffs, x))
        assert {lp.LEQ: lhs <= con.rhs, lp.GEQ: lhs >= con.rhs,
                lp.EQ: lhs == con.rhs}[con.relation], (prog, result)
    assert sum(c * xi for c, xi in zip(rational_objective(prog), x)) == result.value


def test_solve_min_l1_needs_a_feasible_origin():
    # each program is feasible, but not at x = 0
    for row in [([1, 0], lp.GEQ, 1), ([1, 1], lp.EQ, 2), ([0, 1], lp.LEQ, -1),
                ([Fraction(1, 2), 0], lp.EQ, Fraction(-1, 3))]:
        box = [([1, 0], lp.LEQ, 5), ([0, 1], lp.LEQ, 5),
               ([1, 0], lp.GEQ, -5), ([0, 1], lp.GEQ, -5)]
        prog = linear_program(2, box + [row], [1, 1])
        assert lp.solve(prog).value == reference_solve(prog).value
        with pytest.raises(InputError, match="constraint 4 does not hold at the origin"):
            lp.solve_min_l1(prog, range(2))


def test_rationalize_direction_examples():
    assert lp.rationalize_direction([Fraction(1, 2), Fraction(-1, 2)]) == (1, -1)
    assert lp.rationalize_direction([Fraction(2, 3), Fraction(4, 3), Fraction(-2)]) == (1, 2, -3)
    assert lp.rationalize_direction([5, 0]) == (1, 0)
    with pytest.raises(InputError):
        lp.rationalize_direction([0, 0])


# ---------------------------------------------------------------------------
# Reference: the Fraction tableau of ``lp_reference``, which takes the same
# Bland pivots as ``lp``'s tableau in the same order, two-phase and from the
# origin.

def pivot_path(solver, *args):
    """solver(*args), and the (entering, leaving) columns of every pivot it
    takes on the first tableau it pivots, ``lp``'s or the reference's.  In
    ``lp.solve_min_l1`` that is the tableau from the origin: the least-l1
    stage builds its own, and only after a positive optimum, which no
    tableau reaches from the origin without a pivot."""
    pivots = []
    originals = {cls: cls.__dict__["_pivot"] for cls in (lp._Tableau, _ReferenceTableau)}

    def recording(pivot):
        def wrapped(tab, r, j):
            pivots.append((tab, j, tab.basis[r]))
            pivot(tab, r, j)
        return wrapped

    for cls, pivot in originals.items():
        cls._pivot = recording(pivot)
    try:
        result = solver(*args)
    finally:
        for cls, pivot in originals.items():
            cls._pivot = pivot
    return result, [(j, leave) for tab, j, leave in pivots if tab is pivots[0][0]]


_REFERENCE_PATHS = {}


def reference_path(prog):
    """``pivot_path(reference_solve, prog)``, memoized by the rational rows
    and objective of prog, which alone fix the reference's pivots and
    result.  The tests pose many programs more than once: a least-l1 stage
    is solved by ``reference_solve_min_l1`` and again by
    ``assert_same_as_reference``, and decisions repeat direction programs.
    """
    key = (prog.num_vars, tuple([(tuple(c), rel, b) for c, rel, b in rational_rows(prog)]),
           tuple(rational_objective(prog)))
    if key not in _REFERENCE_PATHS:
        _REFERENCE_PATHS[key] = pivot_path(reference_solve, prog)
    return _REFERENCE_PATHS[key]


def assert_same_as_reference(prog):
    """lp.solve takes the pivots of the Fraction reference, on a program it
    finds optimal, and returns its value and point."""
    got, path = pivot_path(lp.solve, prog)
    want, want_path = reference_path(prog)
    assert want.status == OPTIMAL, prog
    assert path == want_path, prog
    # repr also tells an int apart from an equal Fraction
    assert repr((got.value, got.point)) == repr((want.value, want.point)), prog


def least_l1_rows(prog, over, value):
    """The rows of the least-l1 stage over Fractions: prog's rows and the
    objective fixed at value over the variables x and t, and the envelope
    t_j >= +/- x_j for j in over."""
    n = prog.num_vars
    k = len(over)
    cons = [(coeffs + [0] * k, rel, rhs) for coeffs, rel, rhs in rational_rows(prog)]
    cons.append((rational_objective(prog) + [0] * k, lp.EQ, value))
    for slot, j in enumerate(over):
        row = [0] * (n + k)
        row[n + slot] = 1
        row[j] = -1
        cons.append((list(row), lp.GEQ, 0))
        row[j] = 1
        cons.append((row, lp.GEQ, 0))
    return cons


def reference_solve_min_l1(prog, over):
    """``lp.solve_min_l1`` as it was before the first stage started at the
    origin: two-phase ``reference_solve`` on the program, then, at a
    positive optimum, the least-l1 stage, whatever the shape of the optimal
    set."""
    first = reference_path(prog)[0]
    if first.value <= 0:
        return first
    n, k = prog.num_vars, len(over)
    second = reference_path(linear_program(n + k, least_l1_rows(prog, over, first.value),
                                           [0] * n + [-1] * k))[0]
    return first._replace(point=second.point[:n])


def reference_from_origin(prog, runs):
    """The first stage of ``lp.solve_min_l1`` on the Fraction reference,
    from the origin, then one Bland run for each (costs, columns) pair of
    runs, in order; the first stage's result."""
    tab, first = reference_tableau(prog, at_origin=True)
    for costs, columns in runs:
        tab._reset_costs({j: c for j, c in enumerate(costs) if c})
        tab.run(columns)
    return first


def assert_min_l1_as_reference(prog, over) -> str:
    """lp.solve_min_l1 against the reference, and which way it went.

    Its tableau from the origin must take the pivots of the reference's:
    the first stage's, and in the face phase those of the reference priced
    with each cost row that phase prices and run over the same columns.
    Every positive optimum runs the face phase once.  "least-l1", when it
    then ran that stage, must come back identical, field by field, and the
    stage's program must take the reference's pivots.  "face", when the
    least-l1 set on the first optimum's face was one point in the
    coordinates ``over``, must have the reference's value and its point in
    those coordinates, and an optimal point.  A non-positive optimum ("not
    positive") must have the reference's value and an optimal point."""
    stages = []
    faces = []
    runs = []
    solve, face_min_l1 = lp.solve, lp._face_min_l1

    def counting(program):
        stages.append(program)
        return solve(program)

    def on_face(tab, over):
        faces.append(over)
        reset, run = tab._reset_costs, tab.run

        def recording_reset(costs):
            runs.append([costs, None])
            reset(costs)

        def recording_run(columns):
            runs[-1][1] = columns
            run(columns)

        tab._reset_costs, tab.run = recording_reset, recording_run
        return face_min_l1(tab, over)

    lp.solve, lp._face_min_l1 = counting, on_face
    try:
        got, path = pivot_path(lp.solve_min_l1, prog, over)
    finally:
        lp.solve, lp._face_min_l1 = solve, face_min_l1
    first, origin_path = pivot_path(reference_from_origin, prog, runs)
    assert path == origin_path and got.value == first.value, prog
    want = reference_solve_min_l1(prog, over)
    if want.value <= 0:
        assert not stages and not faces and got.value == want.value, prog
        assert_optimal_point(prog, got)
        return "not positive"
    assert len(stages) <= len(faces) == 1
    if not stages:
        # coordinates outside over may take any value on the least-l1 set
        assert_optimal_point(prog, got)
        got, want = [(r.value, [r.point[j] for j in over]) for r in (got, want)]
    else:
        got, want = [(r.value, r.point) for r in (got, want)]
    # repr also tells an int apart from an equal Fraction
    assert repr(got) == repr(want), prog
    for program in stages:
        assert_same_as_reference(program)
    return "least-l1" if stages else "face"


def test_face_phase_answers_only_a_unique_least_l1_point():
    # max x1 + x2 subject to |x1| <= 2 and x1 + x2 <= 1: the optimal face is
    # the line x1 + x2 = 1 inside the box.  Its point of least |x1| is
    # (0, 1), one point, which the face phase returns.  The facet row's
    # slack would move x, but it stays at 0 on the face, so it does not
    # count.  Over both variables the least-l1 points (t, 1 - t), t in
    # [0, 1], tie, and only the least-l1 stage picks one.
    cons = [([1, 0], lp.LEQ, 2), ([1, 0], lp.GEQ, -2), ([1, 1], lp.LEQ, 1)]
    prog = linear_program(2, cons, [1, 1])
    assert assert_min_l1_as_reference(prog, range(1)) == "face"
    assert lp.solve_min_l1(prog, range(1)).point == (0, 1)
    assert assert_min_l1_as_reference(prog, range(2)) == "least-l1"


def test_exact_test_sees_past_a_degenerate_row():
    # max -x subject to |x| <= 1 and 0 <= y <= x + 1, over x alone.  The
    # optimum x = -1 pins y to 0, so the optimal set is the one point
    # (-1, 0).  Three rows are tight there, and the optimal basis keeps y
    # nonbasic with zero reduced cost: raising or lowering y would move the
    # point, but the rows y >= 0 and y <= x + 1, basic at 0, block it.  A
    # column still moves x after the face phase; the exact test finds the
    # point unique, so lp.solve never runs.
    box = [([1, 0], lp.LEQ, 1), ([1, 0], lp.GEQ, -1)]
    pinned = linear_program(2, box + [([1, -1], lp.GEQ, -1), ([0, 1], lp.GEQ, 0)],
                               [-1, 0])
    # With one more variable z, |z| <= 1, over x and z, and y <= x + 1 + z,
    # the optimal face x = -1, 0 <= y <= z is a triangle.  Its least-l1
    # point (-1, 0, 0) is still unique: only raising z, which the face
    # phase fixes, would let y rise.
    box = [([1, 0, 0], lp.LEQ, 1), ([1, 0, 0], lp.GEQ, -1),
           ([0, 1, 0], lp.LEQ, 1), ([0, 1, 0], lp.GEQ, -1)]
    triangle = linear_program(3, box + [([0, 0, 1], lp.GEQ, 0), ([-1, -1, 1], lp.LEQ, 1)],
                                 [-1, 0, 0])
    moves = lp._moves
    for prog, over in ((pinned, range(1)), (triangle, range(2))):
        moved = []

        def recording(tab, fixed):
            found = list(moves(tab, fixed))
            moved.append(any(map(any, found)))
            return iter(found)

        lp._moves = recording
        try:
            assert assert_min_l1_as_reference(prog, over) == "face"
        finally:
            lp._moves = moves
        assert moved == [True]
        assert lp.solve_min_l1(prog, over).point == (-1,) + (0,) * (prog.num_vars - 1)
        assert coordinates_are_fixed(prog, over)


def coordinates_are_fixed(prog, over) -> bool:
    """Whether every coordinate x_k, k in ``over``, takes one value on the
    least-l1 set of prog's optimal face, by the Fraction reference: the
    least l1 norm over that face, then the least and the greatest x_k at
    that norm.  The other coordinates are free to vary, and none of them
    is maximized, so one that no row bounds is no error."""
    n, k = prog.num_vars, len(over)
    rows = least_l1_rows(prog, over, reference_solve(prog).value)
    t_only = [0] * n + [1] * k
    least = -reference_solve(linear_program(n + k, rows, [-c for c in t_only])).value
    rows.append((t_only, lp.EQ, least))
    for j in over:
        unit = [0] * (n + k)
        unit[j] = 1
        high = reference_solve(linear_program(n + k, rows, unit))
        low = reference_solve(linear_program(n + k, rows, [-c for c in unit]))
        assert high.status == low.status == OPTIMAL, prog
        if high.value != -low.value:
            return False
    return True


def record_direction_lps(instances):
    """Decide each instance on its own; the direction LPs as (program,
    over) pairs and the least-l1 stage programs, in order."""
    directions = []
    stages = []
    solve, solve_min_l1 = lp.solve, lp.solve_min_l1

    def recording(prog):
        stages.append(prog)
        return solve(prog)

    def recording_min_l1(prog, over):
        directions.append((prog, over))
        return solve_min_l1(prog, over)

    lp.solve, lp.solve_min_l1 = recording, recording_min_l1
    try:
        for p in instances:
            verdict(FrameFamily([p]))
    finally:
        lp.solve, lp.solve_min_l1 = solve, solve_min_l1
    return directions, stages


def test_replay_of_corpus_decisions_matches_reference(corpus):
    # Deciding the default corpus solves 10 direction LPs, all of them
    # witness LPs of free rank-3 frames: membership and segment reaches
    # solve none, and the 215 programs of free rank-2, sl(2) and sl(3)
    # frames are settled in closed form (they were 153 LPs before the
    # closed form took the plane).  4 of the 10 run the least-l1 stage and
    # 6 end with a single least-l1 point on the optimal face; the first
    # stage and the face phase of each take the pivots of the Fraction
    # reference from the origin.  The closed form hands 15 sl(3) ties to
    # the stage directly, so 19 stages run, each on a true tie, and take
    # the reference's pivots.
    directions, stages = record_direction_lps(corpus)
    assert (len(directions), len(stages)) == (10, 19)
    ways = Counter(assert_min_l1_as_reference(prog, over) for prog, over in directions)
    assert ways == {"least-l1": 4, "face": 6}
    for prog in stages:
        assert_same_as_reference(prog)


def test_seed_11_corpus_decisions_match_reference():
    # The same on the seed-11 corpus: 10 direction LPs (152 before the
    # plane closed form), all free rank 3, and 17 least-l1 stages, 15 of
    # them sl(3) ties entered from the closed form; every direction LP
    # identical to the reference and every tableau on its pivots.
    directions, stages = record_direction_lps(build_corpus(11))
    assert (len(directions), len(stages)) == (10, 17)
    ways = Counter(assert_min_l1_as_reference(prog, over) for prog, over in directions)
    assert ways["least-l1"] == 2
    for prog in stages:
        assert_same_as_reference(prog)


def test_corpus_lps_match_an_independent_float_solver(corpus, monkeypatch):
    # HiGHS, in floats, must find every direction LP of the default corpus
    # and every least-l1 stage optimal, with, up to a float tolerance, the
    # optimal value of the exact solver.  Since the closed form settles the
    # programs of free rank 2 and sl(3) frames, those are 10 direction LPs
    # (153 before) and 19 stages.
    optimize = pytest.importorskip("scipy.optimize")
    solved = []
    solve, solve_min_l1 = lp.solve, lp.solve_min_l1

    def recording(prog):
        solved.append((prog, result := solve(prog)))
        return result

    def recording_min_l1(prog, over):
        solved.append((prog, result := solve_min_l1(prog, over)))
        return result

    monkeypatch.setattr(lp, "solve", recording)
    monkeypatch.setattr(lp, "solve_min_l1", recording_min_l1)
    for p in corpus:
        verdict(FrameFamily([p]))
    monkeypatch.undo()
    assert len(solved) == 10 + 19
    for prog, result in solved:
        upper, eq = [], []
        for coeffs, rel, rhs in rational_rows(prog):
            if rel == lp.EQ:
                eq.append((coeffs, rhs))
            else:
                sign = 1 if rel == lp.LEQ else -1
                upper.append(([sign * c for c in coeffs], sign * rhs))

        def split(rows):
            if not rows:
                return None, None
            return ([[float(c) for c in coeffs] for coeffs, _ in rows],
                    [float(rhs) for _, rhs in rows])

        A_ub, b_ub = split(upper)
        A_eq, b_eq = split(eq)
        highs = optimize.linprog([-float(c) for c in rational_objective(prog)],
                                 A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=b_eq,
                                 bounds=[(None, None)] * prog.num_vars, method="highs")
        assert highs.status == 0, (prog, highs.message)
        assert -highs.fun == pytest.approx(float(result.value), rel=1e-7, abs=1e-9), prog


def test_no_direction_program_has_a_zero_row(corpus, monkeypatch):
    # A row with all-zero coefficients and right-hand side 0 constrains
    # nothing: the self rows of the stability LPs, and the equality of a
    # kept weight that repeats the base weight.  None reaches the simplex.
    recorded = []
    solve_min_l1 = lp.solve_min_l1

    def recording(prog, over):
        recorded.append(prog)
        return solve_min_l1(prog, over)

    monkeypatch.setattr(lp, "solve_min_l1", recording)
    for p in corpus:
        verdict(FrameFamily([p]))
    decision_programs = len(recorded)
    for prob in (random_problems(random.Random(14), 240)
                 + duplicated_keep_problems(random.Random(15), 80)):
        find_degeneration(prob)
    assert decision_programs > 0 and len(recorded) > decision_programs
    for prog in recorded:
        for con in prog.constraints:
            assert any(con.coeffs) or con.rhs != 0, prog


small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def small_programs(draw):
    """Tiny programs over all three relations with fractional data, negative
    right-hand sides, exact duplicates, and redundant equalities (scaled
    sums of two equality rows), which leave degenerate basic artificials
    after phase 1.  A third of the draws have no objective."""
    n = draw(st.integers(1, 3))
    coeffs = st.lists(small_fractions, min_size=n, max_size=n)
    rows = draw(st.lists(
        st.tuples(coeffs, st.sampled_from((lp.LEQ, lp.EQ, lp.GEQ)), small_fractions),
        max_size=5))
    picks = st.tuples(st.integers(0, 9), st.integers(0, 9),
                      st.sampled_from((1, -1, Fraction(1, 2), 3)))
    for i, k, s in draw(st.lists(picks, max_size=3)):
        if not rows:
            break
        a, b = rows[i % len(rows)], rows[k % len(rows)]
        if a[1] == b[1] == lp.EQ:
            rows.append(([s * (x + y) for x, y in zip(a[0], b[0])], lp.EQ,
                         s * (a[2] + b[2])))
        else:
            rows.append(a)
    objective = draw(st.one_of(coeffs, st.none()))
    return linear_program(n, rows, objective)


def test_small_programs_match_reference():
    # lp.solve against the Fraction reference, pivot for pivot, on every
    # program the reference finds optimal; on an infeasible or unbounded
    # one lp.solve raises, as such a program is never posed by the
    # package.
    statuses = Counter()

    @settings(max_examples=300, deadline=None)
    @given(small_programs())
    def check(prog):
        status = reference_solve(prog).status
        statuses[status] += 1
        if status == OPTIMAL:
            assert_same_as_reference(prog)
        else:
            with pytest.raises(RuntimeError, match=status):
                lp.solve(prog)

    check()
    assert all(statuses[s] for s in (OPTIMAL, INFEASIBLE, UNBOUNDED)), statuses


@st.composite
def origin_programs(draw):
    """Programs feasible at the origin, shaped like the direction LPs, with
    the variables to minimize over.

    The first d variables get a box frame (with fractional bounds), and in
    sl-like draws a trace-zero equality.  Then rows over all variables:
    homogeneous rows of every relation, inequalities whose right-hand side
    has the sign that keeps the origin feasible, and exact duplicates of
    earlier rows.  The objective is random, the coefficients of a row (an
    optimal face along that row), random with the direction zeroed (the
    whole box optimal), or an "l1 facet": one more row with coefficients in
    {-1, 0, 1} and a positive right-hand side, and the same coefficients as
    the objective, so that the least-l1 points of its optimal face tie.
    Half the draws carry one more variable, like the semistability LP's
    level, in a box of its own, so every program is bounded, as every
    direction LP is."""
    d = draw(st.integers(1, 3))
    n = d + draw(st.integers(0, 1))
    cons = []
    for i in range(n):
        unit = [0] * n
        unit[i] = 1
        bound = draw(st.sampled_from((1, 1, Fraction(1, 2), 2)))
        cons += [(unit, lp.LEQ, bound), (unit, lp.GEQ, -bound)]
    if d > 1 and draw(st.booleans()):
        cons.append(([1] * d + [0] * (n - d), lp.EQ, 0))
    coeffs = st.lists(small_fractions, min_size=n, max_size=n)
    nonneg = st.fractions(min_value=0, max_value=4, max_denominator=3)
    row = st.one_of(
        st.tuples(coeffs, st.sampled_from((lp.LEQ, lp.EQ, lp.GEQ)), st.just(0)),
        st.tuples(coeffs, st.just(lp.LEQ), nonneg),
        st.tuples(coeffs, st.just(lp.GEQ), nonneg.map(lambda b: -b)))
    cons += draw(st.lists(row, max_size=6))
    for i in draw(st.lists(st.integers(0, 20), max_size=3)):
        cons.append(cons[i % len(cons)])
    shape = draw(st.sampled_from(("random", "row", "zero direction", "l1 facet")))
    objective = draw(coeffs)
    if shape == "row":
        objective = [draw(st.sampled_from((1, -1, Fraction(1, 2)))) * c
                     for c in cons[draw(st.integers(0, len(cons) - 1))][0]]
    elif shape == "zero direction":
        objective[:d] = [0] * d
    elif shape == "l1 facet":
        objective = draw(st.lists(st.sampled_from((-1, 0, 1)), min_size=n, max_size=n))
        cons.append((objective, lp.LEQ, draw(st.sampled_from((1, Fraction(1, 2), 2)))))
    return linear_program(n, cons, objective), range(d)


# max x1 + x2 on |x1| <= 2, x1 + x2 <= 1: over both coordinates the
# least-l1 points of the face tie, over x1 alone one is least.  The draws
# of origin_programs reach a tie in the face phase in only some runs, so
# these examples keep both answers of the face phase in every run.
TIED_FACE = (linear_program(2, [([1, 0], lp.LEQ, 2), ([1, 0], lp.GEQ, -2),
                                ([1, 1], lp.LEQ, 1)], [1, 1]), range(2))
SINGLE_ON_FACE = (TIED_FACE[0], range(1))


@settings(max_examples=300, deadline=None)
@given(st.one_of(small_programs(), origin_programs().map(lambda case: case[0])),
       st.lists(st.integers(1, 12), min_size=20, max_size=20))
def test_integer_rows_give_the_tableau_of_their_rational_rows(prog, factors):
    # The tableau starts from the rational entries times the lcm of their
    # denominators, however the rows are written over integers: each row and
    # the objective times a positive factor, over that factor times their
    # denominator, give the same integers and the same result.  A row keeps
    # its nonzero entries, the right-hand side at art_start.  From the
    # artificial basis every row has scale 1.  From the origin, where the
    # program is feasible there, every inequality's slack is basic, at that
    # lcm as its entry and the row's scale, and every "=" row keeps its
    # artificial at scale 1.
    assert len(prog.constraints) < len(factors)
    scaled = lp.LinearProgram(
        prog.num_vars,
        tuple([lp.Constraint(tuple([c * k for c in con.coeffs]), con.relation,
                             con.rhs * k, con.den * k)
               for con, k in zip(prog.constraints, factors)]),
        tuple([c * factors[-1] for c in prog.objective]), prog.objective_den * factors[-1])
    rows = rational_rows(prog)
    scale = lcm(*[f.denominator for coeffs, _, rhs in rows for f in (*coeffs, rhs)])
    n = prog.num_vars
    tab = lp._Tableau(prog)
    end = tab.art_start

    def leading(tab):
        """Every row's entries on the x+ columns and its right-hand side."""
        return [{j: x for j, x in row.items() if j < n or j == end} for row in tab.rows]

    def expected(negated):
        """The same of the rational rows times the lcm, each row negated
        where negated(relation, rhs) holds."""
        out = []
        for coeffs, rel, rhs in rows:
            f = -scale if negated(rel, rhs) else scale
            row = {j: c * f for j, c in enumerate(coeffs) if c}
            if rhs:
                row[end] = rhs * f
            out.append(row)
        return out

    assert leading(tab) == expected(lambda rel, rhs: rhs < 0)
    assert tab.scales == [1] * len(rows)
    assert tab.basis == [end + i for i in range(len(rows))]
    twin = lp._Tableau(scaled)
    assert (twin.rows, twin.scales, twin.basis) == (tab.rows, tab.scales, tab.basis)
    if all({lp.LEQ: rhs >= 0, lp.GEQ: rhs <= 0, lp.EQ: rhs == 0}[rel] for _, rel, rhs in rows):
        origin = lp._Tableau(prog, at_origin=True)
        assert leading(origin) == expected(lambda rel, rhs: rel == lp.GEQ)
        assert [b for b in origin.basis if b < end] == list(range(2 * n, end))
        for i, (_, rel, _) in enumerate(rows):
            b = origin.basis[i]
            if rel == lp.EQ:
                assert (b, origin.scales[i]) == (end + i, 1)
            else:
                assert origin.rows[i][b] == origin.scales[i] == scale
        twin = lp._Tableau(scaled, at_origin=True)
        assert (twin.rows, twin.scales, twin.basis) == \
            (origin.rows, origin.scales, origin.basis)
    else:
        with pytest.raises(InputError, match="does not hold at the origin"):
            lp._Tableau(prog, at_origin=True)
    status = reference_solve(prog).status
    if status == OPTIMAL:
        assert repr(lp.solve(scaled)) == repr(lp.solve(prog))
    else:
        for program in (prog, scaled):
            with pytest.raises(RuntimeError, match=status):
                lp.solve(program)


def test_solve_min_l1_matches_reference_on_origin_programs():
    # Positive optima come back as from the two-stage reference, both
    # ways: a single least-l1 point on the optimal face, and the least-l1
    # stage.
    ways = Counter()

    @settings(max_examples=300, deadline=None)
    @given(origin_programs())
    @example(TIED_FACE)
    def check(case):
        ways[assert_min_l1_as_reference(*case)] += 1

    check()
    assert ways["face"] > 0 and ways["least-l1"] > 0, ways


def test_unbounded_direction_program_raises():
    # max y subject to |x| <= 1 and y >= x: feasible at the origin, but y
    # has no upper bound.  No direction LP is unbounded, so this is an
    # internal error.
    box = [([1, 0], lp.LEQ, 1), ([1, 0], lp.GEQ, -1)]
    prog = linear_program(2, box + [([-1, 1], lp.GEQ, 0)], [0, 1])
    assert reference_solve(prog).status == UNBOUNDED
    with pytest.raises(RuntimeError, match="unbounded"):
        lp.solve_min_l1(prog, range(1))


def test_face_phase_reads_only_the_coordinates_over():
    # max x subject to |x|, |y| <= 1, with z in no row: the program is
    # bounded, and its least-l1 point over (x, y) is (1, 0) whatever z is.
    # The face phase tests x and y alone, so z, which nothing bounds on the
    # optimal face, raises nothing and the least-l1 stage does not run.
    box = [([1, 0, 0], lp.LEQ, 1), ([1, 0, 0], lp.GEQ, -1),
           ([0, 1, 0], lp.LEQ, 1), ([0, 1, 0], lp.GEQ, -1)]
    prog = linear_program(3, box, [1, 0, 0])
    assert assert_min_l1_as_reference(prog, range(2)) == "face"
    assert lp.solve_min_l1(prog, range(2)).point[:2] == (1, 0)


def test_face_phase_is_unique_exactly_when_every_coordinate_is_fixed():
    # Whenever solve_min_l1 reaches the face phase, the face phase returns
    # a point exactly when the Fraction reference finds every coordinate in
    # over fixed on the least-l1 set; only then is the least-l1 stage
    # skipped.
    answers = Counter()

    @settings(max_examples=200, deadline=None)
    @given(origin_programs())
    @example(TIED_FACE)
    @example(SINGLE_ON_FACE)
    def check(case):
        prog, over = case
        said = []
        face_min_l1 = lp._face_min_l1

        def recording(tab, over):
            said.append(point := face_min_l1(tab, over))
            return point

        lp._face_min_l1 = recording
        try:
            lp.solve_min_l1(prog, over)
        finally:
            lp._face_min_l1 = face_min_l1
        if said:
            unique = coordinates_are_fixed(prog, over)
            assert (said[0] is not None) == unique, prog
            answers[unique] += 1

    check()
    assert answers[True] and answers[False], answers
