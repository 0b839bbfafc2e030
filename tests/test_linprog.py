"""Exact LP solver: frozen examples, properties, and a float cross-oracle."""

import hashlib
import random
from fractions import Fraction

import pytest

import reflecto.linprog as linprog
from reflecto import (
    LpStatus,
    Relation,
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


@pytest.fixture
def kernel_log(monkeypatch):
    """Record the pivots, pricing calls and row drops of every solve."""
    log = {"pivots": [], "bland": [], "drops": []}
    tableau = linprog._Tableau
    pivot, entering, drop = tableau._pivot, tableau._entering, tableau.drop_artificials

    def spy_pivot(self, r, c):
        log["pivots"].append(self.T[r][c])
        pivot(self, r, c)

    def spy_entering(self, cost_row, bland):
        col = entering(self, cost_row, bland)
        if bland and col is not None:
            log["bland"].append(col)
        return col

    def spy_drop(self):
        rows = self.m
        drop(self)
        log["drops"].append(rows - self.m)

    monkeypatch.setattr(tableau, "_pivot", spy_pivot)
    monkeypatch.setattr(tableau, "_entering", spy_entering)
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


def test_long_degenerate_run_switches_to_bland(kernel_log):
    # x1 <= x2 <= ... <= x14 in the unit box: every pivot through the origin
    # is degenerate, so pricing falls back to the least-index rule.
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
    assert kernel_log["bland"]


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
            coeffs = [float(c) for c in row.coeffs]
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
