"""Exact LP solver: frozen examples, properties, and a float cross-oracle."""

import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reflecto.linprog as linprog
from _generators import all_active_box_program, random_m_matrix, random_p_not_m_matrix
from reflecto import (
    Constraint,
    InternalInconsistencyError,
    LinearProgram,
    LpStatus,
    MatrixShapeError,
    Relation,
    build_system,
    check_tight_system,
    constraint,
    linear_program,
    lp_solve,
)


def _cap(n, k, hi):
    """The row x_k <= hi over n variables."""
    return constraint([1 if j == k else 0 for j in range(n)], Relation.LE, hi)


def test_pinned_single_variable():
    # min x: pinned by two rows at 1, and by the implicit x >= 0 at 0 when the
    # only row allows negative x.
    for rows, value in (
        ([constraint([1], Relation.GE, 1), constraint([1], Relation.LE, 1)], 1),
        ([constraint([1], Relation.GE, -5)], 0),
    ):
        outcome = lp_solve(linear_program([1], rows))
        assert outcome.status is LpStatus.OPTIMAL
        assert outcome.optimum == value
        assert outcome.solution == (Fraction(value),)


def test_two_variable_minimum():
    program = linear_program(
        [1, 1],
        [constraint([1, 1], Relation.GE, 3)],
    )
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == 3


def test_unbounded_without_constraints():
    outcome = lp_solve(linear_program([-1], []))
    assert outcome.status is LpStatus.UNBOUNDED
    assert outcome.solution is None and outcome.optimum is None


def test_unbounded_through_constraints():
    # min -x - y subject to x - y = 0, x, y >= 0
    program = linear_program(
        [-1, -1],
        [constraint([1, -1], Relation.EQ, 0)],
    )
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.UNBOUNDED
    assert outcome.solution is None


def test_infeasible():
    program = linear_program(
        [0],
        [constraint([1], Relation.GE, 2), constraint([1], Relation.LE, 1)],
    )
    assert lp_solve(program).status is LpStatus.INFEASIBLE


def test_equality_with_fractions():
    # min x + y subject to 2x + 3y = 1, x, y >= 0 -> y = 1/3
    program = linear_program(
        [1, 1],
        [constraint([2, 3], Relation.EQ, 1)],
    )
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == Fraction(1, 3)
    assert outcome.solution == (Fraction(0), Fraction(1, 3))


def test_two_sided_bounds():
    program = linear_program(
        [-1, -2],
        [constraint([1, 1], Relation.LE, Fraction(3, 2)), _cap(2, 0, 1), _cap(2, 1, 1)],
    )
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == Fraction(-5, 2)
    assert outcome.solution == (Fraction(1, 2), Fraction(1))


def test_degenerate_homogeneous_system():
    # All rows pass through the origin; the solver must not cycle.
    program = linear_program(
        [-1, -1, -1],
        [
            constraint([1, -1, 0], Relation.GE, 0),
            constraint([0, 1, -1], Relation.GE, 0),
            constraint([-1, 0, 1], Relation.GE, 0),
            constraint([1, 1, 1], Relation.LE, 3),
        ]
        + [_cap(3, k, 1) for k in range(3)],
    )
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == -3
    assert outcome.solution == (Fraction(1), Fraction(1), Fraction(1))


def test_constraint_keeps_only_nonzero_terms():
    row = constraint([0, 2, 0, "-1/3", 0], "<=", 4)
    assert row.terms == ((1, Fraction(2)), (3, Fraction(-1, 3)))
    assert row.relation is Relation.LE and row.rhs == 4
    assert constraint([0, 0], Relation.GE, -1).terms == ()


@pytest.mark.parametrize(
    "terms",
    [((2, Fraction(1)),), ((-1, Fraction(1)),), ((0, Fraction(1)), (0, Fraction(2)))],
    ids=["beyond-objective", "negative", "repeated"],
)
def test_terms_must_name_distinct_columns_of_the_objective(terms):
    row = Constraint(terms, Relation.LE, Fraction(1))
    with pytest.raises(MatrixShapeError):
        linear_program([1, 1], [row])
    with pytest.raises(MatrixShapeError):
        lp_solve(LinearProgram((Fraction(1), Fraction(1)), (row,)))
    with pytest.raises(MatrixShapeError):
        LinearProgram((Fraction(1), Fraction(1)), (), (row,))


def test_hand_built_zero_terms_are_dropped():
    # A zero coefficient names a column without constraining it: -x1 <= -1
    # alone forces x1 >= 1 whatever the zero term on x0 says.
    row = Constraint(((0, Fraction(0)), (1, Fraction(-1))), Relation.LE, Fraction(-1))
    outcome = lp_solve(LinearProgram((Fraction(1), Fraction(1)), (row,)))
    assert outcome.optimum == 1 and outcome.solution == (Fraction(0), Fraction(1))


def _check_at(rows, point):
    """``_check_point`` at the rational ``point``, over the integer forms of ``rows``."""
    scale = lcm(*(x.denominator for x in point))
    integer_rows = [linprog._scaled(row) for row in rows]
    linprog._check_point(integer_rows, [int(x * scale) for x in point], scale)


def _solve_recording_checks(program):
    """``lp_solve(program)`` and the integer rows it hands to ``_check_point``."""
    seen = []
    check = linprog._check_point

    def spy_check(rows, z, scale):
        seen.append(list(rows))
        check(seen[-1], z, scale)

    linprog._check_point = spy_check
    try:
        return lp_solve(program), seen
    finally:
        linprog._check_point = check


def test_check_point_rejects_a_point_that_breaks_a_row():
    # the second row is checked whether it is active or lazy
    rows = (constraint([1, 1], Relation.GE, 2), constraint([0, 1], Relation.LE, 1))
    full = linear_program([1, 1], rows)
    for program in (full, replace(full, constraints=rows[:1], lazy=rows[1:])):
        outcome, checked = _solve_recording_checks(program)
        assert outcome.optimum == 2
        assert checked == [[linprog._scaled(row) for row in rows]]
        _check_at(rows, (Fraction(1), Fraction(1)))
        for point in ((Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(3))):
            with pytest.raises(InternalInconsistencyError, match="violates constraint"):
                _check_at(rows, point)
        with pytest.raises(InternalInconsistencyError, match="negative"):
            _check_at(rows, (Fraction(3), Fraction(-1)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 3),
    st.fractions(-3, 3, max_denominator=6).filter(bool),
)
def test_integer_point_check_agrees_with_row_value(seed, k, delta):
    # lp_solve checks its point in integers against every active and lazy
    # row; moved along one coordinate, the point must be rejected exactly
    # when some row's relation fails in Fraction arithmetic through
    # row_value, or when the point leaves x >= 0
    rng = random.Random(seed)
    program = _split(_random_program(rng), rng)
    outcome, checked = _solve_recording_checks(program)
    assume(outcome.status is LpStatus.OPTIMAL)
    rows = program.constraints + program.lazy
    assert checked == [[linprog._scaled(row) for row in rows]]
    point = list(outcome.solution)
    point[k % len(point)] += delta
    breaks = any(
        not row.relation.holds(linprog.row_value(row.terms, point), row.rhs) for row in rows
    ) or any(x < 0 for x in point)
    if breaks:
        with pytest.raises(InternalInconsistencyError):
            _check_at(rows, point)
    else:
        _check_at(rows, point)


@pytest.fixture
def kernel_log(monkeypatch):
    """Record the pivots, lexicographic tie-breaks and the redundant rows
    that ``drop_artificials`` leaves empty, in every solve."""
    log = {"pivots": [], "lex": [], "drops": []}
    tableau = linprog._Tableau
    pivot, lex_least, drop = tableau._pivot, tableau._lex_least, tableau.drop_artificials

    def spy_pivot(self, r, c):
        log["pivots"].append(self.T[r][c])
        pivot(self, r, c)

    def spy_lex_least(self, tied, reference):
        log["lex"].append(len(tied))
        return lex_least(self, tied, reference)

    def spy_drop(self):
        drop(self)
        log["drops"].append(sum(var >= self.art_start for var in self.basis))

    monkeypatch.setattr(tableau, "_pivot", spy_pivot)
    monkeypatch.setattr(tableau, "_lex_least", spy_lex_least)
    monkeypatch.setattr(tableau, "drop_artificials", spy_drop)
    return log


def test_redundant_equality_row_stays_in_place(kernel_log, monkeypatch):
    # After phase one the duplicate row is zero on every real column and its
    # artificial cannot leave the basis, so the row stays, empty, with its
    # artificial basic at 0.
    after = []
    drop = linprog._Tableau.drop_artificials

    def spy_drop(self):
        drop(self)
        after.append((self.m, len(self.T), self.T[1], self.basis[1] >= self.art_start))

    monkeypatch.setattr(linprog._Tableau, "drop_artificials", spy_drop)
    program = linear_program(
        [1, 2],
        [constraint([1, 1], Relation.EQ, 2), constraint([1, 1], Relation.EQ, 2)],
    )
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == 2
    assert outcome.solution == (Fraction(2), Fraction(0))
    assert kernel_log["drops"] == [1]
    # Both rows and the cost row remain; row 1 is the empty redundant row.
    assert after == [(2, 3, {}, True)]


# 0 <relation> rhs is false for these, so the all-zero row makes the program
# infeasible.
_UNSATISFIABLE_ZERO_ROWS = {
    (Relation.LE, -1),
    (Relation.EQ, -1),
    (Relation.EQ, 1),
    (Relation.GE, 1),
}


@pytest.mark.parametrize("rhs", [-1, 0, 1])
@pytest.mark.parametrize("relation", list(Relation))
def test_all_zero_row_goes_through_the_tableau(relation, rhs):
    # A hand-built row whose one term is 0, between two live rows: it makes
    # the program infeasible exactly when 0 <relation> rhs is false, and
    # otherwise changes nothing.
    live = [constraint([1, 1], Relation.LE, 4), constraint([1, -1], Relation.GE, -1)]
    zero = Constraint(((1, Fraction(0)),), relation, Fraction(rhs))
    outcome = lp_solve(linear_program([-1, -2], [live[0], zero, live[1]]))
    if (relation, rhs) in _UNSATISFIABLE_ZERO_ROWS:
        assert outcome.status is LpStatus.INFEASIBLE
    else:
        assert outcome == lp_solve(linear_program([-1, -2], live))
        assert outcome.status is LpStatus.OPTIMAL


def test_zero_level_artificial_leaves_on_negative_entry(kernel_log):
    # A homogeneous equality needs no phase-one pivot; its artificial is
    # pivoted out on the first real column, whose entry is -1.
    program = linear_program(
        [-1, -1],
        [constraint([-1, 1], Relation.EQ, 0), constraint([1, 1], Relation.LE, 2)],
    )
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == -2
    assert outcome.solution == (Fraction(1), Fraction(1))
    assert kernel_log["pivots"][0] == -1
    assert kernel_log["drops"] == [0]


def _chain_program(n=14):
    """x1 <= x2 <= ... <= xn in the unit box, maximising their sum.

    Every pivot through the origin is degenerate.
    """
    rows = [
        constraint([1 if k == i else -1 if k == i + 1 else 0 for k in range(n)], Relation.LE, 0)
        for i in range(n - 1)
    ]
    return linear_program([-1] * n, rows + [_cap(n, k, 1) for k in range(n)])


def test_long_degenerate_run_breaks_ties_lexicographically(kernel_log):
    n = 14
    outcome = lp_solve(_chain_program(n))
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == -n
    assert outcome.solution == (Fraction(1),) * n
    assert len(kernel_log["lex"]) == 13


def _beale_program():
    """Beale's cycling example (1955; Chvatal, *Linear Programming*, ch. 3).

    Its two degenerate rows carry their slacks as columns 0 and 1, ahead of
    x4..x7 in columns 2..5, so that a least-basic-index tie-break meets the
    ties as the textbook's smallest-subscript rule does.  x6 <= 1 keeps its
    own slack.
    """
    return linear_program(
        [0, 0, Fraction(-3, 4), 20, Fraction(-1, 2), 6],
        [
            constraint([1, 0, Fraction(1, 4), -8, -1, 9], Relation.EQ, 0),
            constraint([0, 1, Fraction(1, 2), -12, Fraction(-1, 2), 3], Relation.EQ, 0),
            constraint([0, 0, 0, 0, 1, 0], Relation.LE, 1),
        ],
    )


def test_beale_cycling_example_reaches_its_optimum(kernel_log):
    # Under Dantzig pricing with least-index ties this program returns to
    # its starting basis every 6 pivots; the lexicographic tie-break decides
    # its two ties.
    outcome = lp_solve(_beale_program())
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == Fraction(-5, 4)
    assert outcome.solution == (Fraction(3, 4), 0, 1, 0, 1, 0)
    assert kernel_log["lex"] == [2, 2]
    # 2 pivots move the artificials out, then 5 more reach the optimum.
    assert len(kernel_log["pivots"]) == 7


def test_pivot_limit_stops_a_phase(monkeypatch):
    # Beale's phase 2 takes 5 pivots; the guard against a solver fault
    # raises on the 4th.
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 3)
    with pytest.raises(InternalInconsistencyError, match="pivot limit"):
        lp_solve(_beale_program())


def test_pivot_limit_stops_the_dual_phase(monkeypatch):
    # x = 0 is optimal for the active row without a pivot; the lazy x >= 1
    # takes one dual pivot, which the limit refuses
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 0)
    program = linear_program([1], [_cap(1, 0, 5)])
    program = replace(program, lazy=(constraint([1], Relation.GE, 1),))
    with pytest.raises(InternalInconsistencyError, match="pivot limit"):
        lp_solve(program)


def test_hard_p_not_m_program_pivot_count_is_pinned(monkeypatch):
    # This d = 5 system took 1,341 pivots when long degenerate runs switched
    # to Bland's least-index pricing, 256 when only runs of 12 or more
    # degenerate pivots broke ties lexicographically, and 230 with every
    # monotonicity row active; with those rows lazy it takes 154.
    pivots = []
    pivot = linprog._Tableau._pivot

    def spy_pivot(self, r, c):
        pivots.append((r, c))
        pivot(self, r, c)

    monkeypatch.setattr(linprog._Tableau, "_pivot", spy_pivot)
    verdict = check_tight_system(random_p_not_m_matrix(random.Random(7), 5), (1,) * 5)
    assert not verdict.tight
    assert verdict.optimum == Fraction(9495272740414719542, 300868934493777695)
    assert len(pivots) == 154


def _random_program(rng: random.Random):
    n = rng.randint(1, 4)
    m = rng.randint(1, 5)
    rows = []
    for _ in range(m):
        coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(n)]
        relation = rng.choice([Relation.LE, Relation.GE, Relation.EQ])
        rows.append(constraint(coeffs, relation, Fraction(rng.randint(-6, 6))))
    objective = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
    for k in range(n):
        if 0.7 <= rng.random() < 0.85:
            rows.append(_cap(n, k, rng.randint(1, 5)))
    return linear_program(objective, rows)


def _split(program, rng: random.Random):
    """``program`` with each row made lazy at random."""
    lazy = [rng.random() < 0.5 for _ in program.constraints]
    rows = list(zip(program.constraints, lazy))
    return replace(
        program,
        constraints=tuple(row for row, is_lazy in rows if not is_lazy),
        lazy=tuple(row for row, is_lazy in rows if is_lazy),
    )


@pytest.fixture
def dual_log(monkeypatch):
    """Record each dual phase's result and every basis it pivots to; fail
    if a basis repeats before the objective moves."""
    log = {"phases": [], "lex": 0, "pivots": 0}
    tableau = linprog._Tableau
    run_dual, pivot, lex = tableau.run_dual_phase, tableau._pivot, tableau._dual_lex_least

    def spy_run_dual(self):
        self.dual_bases = {frozenset(self.basis)}
        log["phases"].append(run_dual(self))
        del self.dual_bases
        return log["phases"][-1]

    def spy_pivot(self, r, c):
        bases = getattr(self, "dual_bases", None)
        if bases is None:
            pivot(self, r, c)
            return
        before = self.objective_value()
        pivot(self, r, c)
        if self.objective_value() != before:
            bases.clear()
        assert frozenset(self.basis) not in bases
        bases.add(frozenset(self.basis))
        log["pivots"] += 1

    def spy_lex(self, tied, reference):
        log["lex"] += 1
        return lex(self, tied, reference)

    monkeypatch.setattr(tableau, "run_dual_phase", spy_run_dual)
    monkeypatch.setattr(tableau, "_pivot", spy_pivot)
    monkeypatch.setattr(tableau, "_dual_lex_least", spy_lex)
    return log


@pytest.mark.parametrize("zero_objective", [False, True])
def test_lazy_rows_keep_status_and_optimum(dual_log, zero_objective):
    # lp_solve checks the point against the lazy rows too.  With a zero
    # objective every reduced cost is 0, so every dual ratio test ties and
    # the lexicographic rule picks each entering column; no basis repeats.
    rng = random.Random(24)
    for _ in range(400):
        program = _random_program(rng)
        if zero_objective:
            program = replace(program, objective=(Fraction(0),) * len(program.objective))
        outcome = lp_solve(_split(program, rng))
        expected = lp_solve(program)
        assert (outcome.status, outcome.optimum) == (expected.status, expected.optimum)
    # some dual phases reached an optimum and some proved infeasibility
    assert dual_log["phases"].count(True) > 20 and dual_log["phases"].count(False) > 20
    assert dual_log["pivots"] > 50
    assert (dual_log["lex"] > 20) is zero_objective


def test_lazy_row_makes_the_program_infeasible(dual_log):
    # max x with x <= 1 active: the lazy x >= 2 becomes s1 + s2 = -1 over
    # the two slacks, with no negative entry to enter
    program = linear_program([-1], [constraint([1], Relation.LE, 1)])
    program = replace(program, lazy=(constraint([1], Relation.GE, 2),))
    assert lp_solve(program) == linprog.LpOutcome(LpStatus.INFEASIBLE)
    assert dual_log["phases"] == [False] and dual_log["pivots"] == 0


def test_lazy_rows_bound_an_unbounded_active_program(dual_log):
    # x - y <= 1 alone is unbounded in max x + y; the lazy caps bound it, so
    # the program is solved once more with every row active
    rows = (constraint([1, -1], Relation.LE, 1), _cap(2, 0, 3), _cap(2, 1, 3))
    program = replace(linear_program([-1, -1], rows[:1]), lazy=rows[1:])
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL and outcome.optimum == -6
    assert outcome.solution == (Fraction(3), Fraction(3))
    assert dual_log["phases"] == []


def test_lazy_equality_enters_as_two_rows():
    # min x + y with x + y >= 1 active; the lazy x - y = 1/2 moves the
    # optimal vertex from (1, 0) or (0, 1) to (3/4, 1/4)
    program = linear_program([1, 1], [constraint([1, 1], Relation.GE, 1)])
    program = replace(program, lazy=(constraint([1, -1], Relation.EQ, Fraction(1, 2)),))
    outcome = lp_solve(program)
    assert outcome.optimum == 1 and outcome.solution == (Fraction(3, 4), Fraction(1, 4))


def test_against_float_solver():
    scipy_optimize = pytest.importorskip("scipy.optimize")
    rng = random.Random(21)
    agreements = 0
    for _ in range(60):
        program = _random_program(rng)
        outcome = lp_solve(program)

        n = len(program.objective)
        A_ub, b_ub, A_eq, b_eq = [], [], [], []
        for row in program.constraints:
            coeffs = [0.0] * n
            for j, c in row.terms:
                coeffs[j] = float(c)
            if row.relation is Relation.LE:
                A_ub.append(coeffs)
                b_ub.append(float(row.rhs))
            elif row.relation is Relation.GE:
                A_ub.append([-c for c in coeffs])
                b_ub.append(-float(row.rhs))
            else:
                A_eq.append(coeffs)
                b_eq.append(float(row.rhs))
        reference = scipy_optimize.linprog(
            [float(c) for c in program.objective],
            A_ub=A_ub or None,
            b_ub=b_ub or None,
            A_eq=A_eq or None,
            b_eq=b_eq or None,
            bounds=(0, None),
            method="highs",
        )
        if reference.status == 0:
            assert outcome.status is LpStatus.OPTIMAL
            assert abs(float(outcome.optimum) - reference.fun) < 1e-7
        elif reference.status == 2:
            assert outcome.status is LpStatus.INFEASIBLE
        elif reference.status == 3:
            assert outcome.status is LpStatus.UNBOUNDED
        else:  # numerical trouble in the oracle; nothing to compare
            continue
        agreements += 1
    assert agreements >= 50


def test_row_permutation_preserves_optimum():
    rng = random.Random(22)
    for _ in range(25):
        program = _random_program(rng)
        outcome = lp_solve(program)
        shuffled = list(program.constraints)
        rng.shuffle(shuffled)
        permuted = linear_program(program.objective, shuffled)
        other = lp_solve(permuted)
        assert outcome.status is other.status
        if outcome.status is LpStatus.OPTIMAL:
            assert outcome.optimum == other.optimum


def test_repeated_runs_are_bit_identical():
    rng = random.Random(23)
    for _ in range(10):
        program = _random_program(rng)
        first = lp_solve(program)
        second = lp_solve(program)
        assert first == second


def _outcome_text(outcome) -> str:
    def vector(values):
        return "-" if values is None else ",".join(str(v) for v in values)

    optimum = "-" if outcome.optimum is None else str(outcome.optimum)
    return f"{outcome.status.value}|{optimum}|{vector(outcome.solution)}"


def test_random_program_outcomes_are_pinned():
    # A different pivot sequence can end at another optimal vertex; the
    # digest covers every field of all 60 outcomes.
    rng = random.Random(21)
    lines = [_outcome_text(lp_solve(_random_program(rng))) for _ in range(60)]
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == "3ff470dc25a840cb3521be16a5d409da77b10b14e62e92623c72880ef150b984"


def _solve_every_program():
    """Solve the pinned LPs: tightness LPs at d = 2..5, then 60 random programs.

    For every d, one M-matrix and one P-not-M matrix, each at b = 1 and at one
    sampled b.  The d = 5 P-not-M matrix is drawn from its own seed, whose two
    LPs take 156 and 143 pivots; the draw of the shared stream takes 220 and
    251 (1,021 and 1,651 under the former Bland fallback).  The box LP is
    solved directly, with every row active: ``check_tight_system`` closes
    some of these systems by sign forcing and would skip their LPs, and it
    makes the monotonicity rows lazy, which takes the four d = 5 P-not-M
    LPs to 134, 143, 151 and 148 pivots.
    """
    rng = random.Random(73)
    draws = [(rng, gen, d) for d in range(2, 6) for gen in (random_m_matrix, random_p_not_m_matrix)]
    draws[-1] = (random.Random(87), random_p_not_m_matrix, 5)
    for stream, gen, d in draws:
        R = gen(stream, d)
        sampled = tuple(Fraction(stream.randint(1, 16), stream.randint(1, 16)) for _ in range(d))
        for b in ((1,) * d, sampled):
            yield lp_solve(all_active_box_program(build_system(R, b)))
    rng = random.Random(21)
    for _ in range(60):
        yield lp_solve(_random_program(rng))


def test_pivot_sequence_is_pinned(monkeypatch):
    # Every (row, column) the solver pivots on, in order; how the tableau
    # stores its rows must not change a single pivot choice.
    pivots = []
    pivot = linprog._Tableau._pivot

    def spy_pivot(self, r, c):
        pivots.append(f"{r},{c}")
        pivot(self, r, c)

    monkeypatch.setattr(linprog._Tableau, "_pivot", spy_pivot)
    for _ in _solve_every_program():
        pivots.append("|")
    assert len(pivots) == 937 + 76
    digest = hashlib.sha256(" ".join(pivots).encode()).hexdigest()
    assert digest == "4c6f06f7901f51f8ee5e08c299bcced9749181243a5bec22b97abb5066175082"


class _FullTableau(linprog._Tableau):
    """Reference tableau: every row stored from the start and pivoted in full."""

    _init = linprog._Tableau.__init__
    _pivot = linprog._Tableau._pivot

    def __init__(self, *args):
        self._init(*args)
        for i, (terms, rhs) in self.unstored.items():
            row = dict(terms)
            row[self.basis[i]] = 1
            if rhs:
                row[self.rhs_col] = rhs
            self.T[i] = row
        self.unstored = {}


def test_derived_rows_equal_stored_rows(monkeypatch):
    # Each solve runs a full-storage reference beside it, pivoting on the same
    # (row, column); after every pivot each unstored row, derived from the
    # stored rows, must equal the reference's row exactly.  Rows are compared
    # as rationals, by cross-multiplying: deleting the artificial columns can
    # leave a stored row with a common factor that a derived row, reduced by
    # its gcd, does not carry.  The reference deletes its artificial columns
    # at the same point, before the pivot-outs, which both then take in step.
    tableau = linprog._Tableau
    init, pivot = tableau.__init__, tableau._pivot
    delete = tableau._delete_artificial_columns
    checked = {"rows": 0, "pivots": 0}

    def assert_rows_match(tab):
        ref = tab.reference
        assert tab.basis == ref.basis and len(tab.T) == len(ref.T)
        for i in tab.unstored:
            assert tab.basis[i] >= tab.nz and not tab.T[i]
            row, den = tab._derived_row(i)
            expected, expected_den = ref.T[i], ref.den[i]
            assert {j: v * expected_den for j, v in row.items()} == {
                j: v * den for j, v in expected.items()
            }
            checked["rows"] += 1

    def spy_init(self, *args):
        init(self, *args)
        self.reference = _FullTableau(*args)
        assert_rows_match(self)

    def spy_pivot(self, r, c):
        pivot(self, r, c)
        pivot(self.reference, r, c)
        assert_rows_match(self)
        checked["pivots"] += 1

    def spy_delete(self):
        delete(self)
        delete(self.reference)
        assert_rows_match(self)

    monkeypatch.setattr(tableau, "__init__", spy_init)
    monkeypatch.setattr(tableau, "_pivot", spy_pivot)
    monkeypatch.setattr(tableau, "_delete_artificial_columns", spy_delete)
    for _ in _solve_every_program():
        pass
    assert checked["pivots"] == 937
    assert checked["rows"] > 10 * checked["pivots"]


def test_no_basis_repeats_between_objective_moves(monkeypatch):
    # Within a phase, every basis since the objective last moved is kept; a
    # basis seen again before the next move would mean the solver cycles.
    # Pivots that move artificials out between the phases are not counted.
    tableau = linprog._Tableau
    run_phase, pivot = tableau.run_phase, tableau._pivot
    checked = {"pivots": 0}

    def spy_run_phase(self, cost_index, stop_at_zero):
        self.phase_cost = cost_index
        self.bases = {frozenset(self.basis)}
        done = run_phase(self, cost_index, stop_at_zero)
        self.phase_cost = None
        return done

    def value(self):
        return Fraction(self.T[self.phase_cost].get(self.rhs_col, 0), self.den[self.phase_cost])

    def spy_pivot(self, r, c):
        if getattr(self, "phase_cost", None) is None:
            pivot(self, r, c)
            return
        before = value(self)
        pivot(self, r, c)
        if value(self) != before:
            self.bases = set()
        basis = frozenset(self.basis)
        assert basis not in self.bases
        self.bases.add(basis)
        checked["pivots"] += 1

    monkeypatch.setattr(tableau, "run_phase", spy_run_phase)
    monkeypatch.setattr(tableau, "_pivot", spy_pivot)
    for _ in _solve_every_program():
        pass
    lp_solve(_beale_program())
    lp_solve(_chain_program())
    assert checked["pivots"] > 400
