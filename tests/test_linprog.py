"""Exact LP solver: frozen examples, properties, and a float cross-oracle."""

import hashlib
import random
from fractions import Fraction

import pytest

import reflecto.linprog as linprog
from _generators import random_m_matrix, random_p_not_m_matrix
from reflecto import (
    Constraint,
    InternalInconsistencyError,
    LinearProgram,
    LpStatus,
    MatrixShapeError,
    Relation,
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


def test_hand_built_zero_terms_are_dropped():
    # A zero coefficient names a column without constraining it: -x1 <= -1
    # alone forces x1 >= 1 whatever the zero term on x0 says.
    row = Constraint(((0, Fraction(0)), (1, Fraction(-1))), Relation.LE, Fraction(-1))
    outcome = lp_solve(LinearProgram((Fraction(1), Fraction(1)), (row,)))
    assert outcome.optimum == 1 and outcome.solution == (Fraction(0), Fraction(1))


def test_check_point_rejects_a_point_that_breaks_a_row():
    program = linear_program(
        [1, 1], [constraint([1, 1], Relation.GE, 2), constraint([0, 1], Relation.LE, 1)]
    )
    linprog._check_point(program, (Fraction(1), Fraction(1)))
    for point in ((Fraction(1, 2), Fraction(1)), (Fraction(0), Fraction(3))):
        with pytest.raises(InternalInconsistencyError, match="violates constraint"):
            linprog._check_point(program, point)
    with pytest.raises(InternalInconsistencyError, match="negative"):
        linprog._check_point(program, (Fraction(3), Fraction(-1)))


@pytest.fixture
def kernel_log(monkeypatch):
    """Record the pivots, lexicographic tie-breaks and row drops of every solve."""
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
        rows = self.m
        drop(self)
        log["drops"].append(rows - self.m)

    monkeypatch.setattr(tableau, "_pivot", spy_pivot)
    monkeypatch.setattr(tableau, "_lex_least", spy_lex_least)
    monkeypatch.setattr(tableau, "drop_artificials", spy_drop)
    return log


def test_redundant_equality_row_is_dropped(kernel_log):
    # After phase one the duplicate row is zero on every real column and its
    # artificial cannot leave the basis, so the row is deleted.
    program = linear_program(
        [1, 2],
        [constraint([1, 1], Relation.EQ, 2), constraint([1, 1], Relation.EQ, 2)],
    )
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == 2
    assert outcome.solution == (Fraction(2), Fraction(0))
    assert kernel_log["drops"] == [1]


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


def test_long_degenerate_run_breaks_ties_lexicographically(kernel_log):
    # x1 <= x2 <= ... <= x14 in the unit box: every pivot through the origin
    # is degenerate, so after _DEGENERATE_FALLBACK of them the ratio test
    # breaks its ties on the reference basis.
    n = 14
    rows = [
        constraint([1 if k == i else -1 if k == i + 1 else 0 for k in range(n)], Relation.LE, 0)
        for i in range(n - 1)
    ]
    program = linear_program([-1] * n, rows + [_cap(n, k, 1) for k in range(n)])
    outcome = lp_solve(program)
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == -n
    assert outcome.solution == (Fraction(1),) * n
    assert len(kernel_log["pivots"]) > linprog._DEGENERATE_FALLBACK
    assert kernel_log["lex"]


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
    # Dantzig pricing with least-index ties returns to the starting basis
    # every 6 pivots.  After two laps the lexicographic tie-break decides
    # the next two ties, and the second leaves the cycle.
    outcome = lp_solve(_beale_program())
    assert outcome.status is LpStatus.OPTIMAL
    assert outcome.optimum == Fraction(-5, 4)
    assert outcome.solution == (Fraction(3, 4), 0, 1, 0, 1, 0)
    assert kernel_log["lex"] == [2, 2]
    # 2 pivots move the artificials out, then 12 degenerate ones and 5 more.
    assert len(kernel_log["pivots"]) == 2 + linprog._DEGENERATE_FALLBACK + 5


def test_beale_cycling_example_cycles_without_the_tie_break(monkeypatch):
    monkeypatch.setattr(linprog, "_DEGENERATE_FALLBACK", linprog._MAX_PIVOTS + 1)
    monkeypatch.setattr(linprog, "_MAX_PIVOTS", 60)
    with pytest.raises(InternalInconsistencyError, match="pivot limit"):
        lp_solve(_beale_program())


def test_hard_p_not_m_program_pivot_count_is_pinned(monkeypatch):
    # This d = 5 system took 1,341 pivots when long degenerate runs switched
    # to Bland's least-index pricing; the lexicographic tie-break takes 256.
    pivots = []
    pivot = linprog._Tableau._pivot

    def spy_pivot(self, r, c):
        pivots.append((r, c))
        pivot(self, r, c)

    monkeypatch.setattr(linprog._Tableau, "_pivot", spy_pivot)
    verdict = check_tight_system(random_p_not_m_matrix(random.Random(7), 5), (1,) * 5)
    assert not verdict.tight
    assert verdict.optimum == Fraction(9495272740414719542, 300868934493777695)
    assert len(pivots) == 256


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
    LPs take 143 and 155 pivots; the draw of the shared stream takes 221 and
    239 (1,021 and 1,651 under the former Bland fallback).
    """
    rng = random.Random(73)
    draws = [(rng, gen, d) for d in range(2, 6) for gen in (random_m_matrix, random_p_not_m_matrix)]
    draws[-1] = (random.Random(87), random_p_not_m_matrix, 5)
    for stream, gen, d in draws:
        R = gen(stream, d)
        sampled = tuple(Fraction(stream.randint(1, 16), stream.randint(1, 16)) for _ in range(d))
        for b in ((1,) * d, sampled):
            yield check_tight_system(R, b)
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
    assert len(pivots) == 933 + 76
    digest = hashlib.sha256(" ".join(pivots).encode()).hexdigest()
    assert digest == "2f5bc815fa63be0b9709387b41f32566c7cceace543b4909144d0476337a0bf4"


class _FullTableau(linprog._Tableau):
    """Reference tableau: every row stored from the start and pivoted in full."""

    _init = linprog._Tableau.__init__
    _pivot = linprog._Tableau._pivot
    drop_artificials = linprog._Tableau.drop_artificials

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
    # its gcd, does not carry.
    tableau = linprog._Tableau
    init, pivot, drop = tableau.__init__, tableau._pivot, tableau.drop_artificials
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

    def spy_drop(self):
        drop(self)
        drop(self.reference)
        assert_rows_match(self)

    monkeypatch.setattr(tableau, "__init__", spy_init)
    monkeypatch.setattr(tableau, "_pivot", spy_pivot)
    monkeypatch.setattr(tableau, "drop_artificials", spy_drop)
    for _ in _solve_every_program():
        pass
    assert checked["pivots"] == 933
    assert checked["rows"] > 10 * checked["pivots"]
