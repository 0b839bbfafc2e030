"""The boundary-value system, its LP oracle, witnesses, and the decision layers."""

import hashlib
import json
import random
import re
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reflecto.classify
import reflecto.tightness as tightness
from reflecto import (
    LP_DIMENSION_CAP,
    DecisionStatus,
    DimensionCapError,
    InternalInconsistencyError,
    NotCompletelySError,
    ProofMethod,
    RatMatrix,
    RationalParseError,
    Relation,
    ReflectoError,
    VarIndex,
    as_rational,
    assignment_from_table,
    assignment_to_table,
    build_system,
    canonical_variables,
    check_tight_system,
    decide_tight_matrix,
    format_rational,
    is_completely_s,
    lp_solve,
    nonnegative_case_witness,
    parse_variable_key,
    sample_b_vectors,
    verify_assignment,
)
from reflecto.linprog import row_value

from _generators import (
    all_active_box_program,
    random_m_matrix,
    random_matrix,
    random_p_not_m_matrix,
    reference_box_rows,
    unforced_count_reference,
)

REFLECTION = RatMatrix([[1, 0, 0], [-3, 1, 0], [3, -2, 1]])
ONES3 = (Fraction(1), Fraction(1), Fraction(1))

# Hand-checked non-trivial solution of the system for (REFLECTION, ones).
# The x{1,2} corner is forced to 1 by the singleton balance rows together
# with monotonicity; the remaining variables form a one-parameter family and
# this is its midpoint.
WITNESS_TABLE = {
    "x{}": "1",
    "x{1}": "1",
    "x{2}": "1",
    "x{3}": "3/4",
    "x{1,2}": "1",
    "x{1,3}": "1/2",
    "x{2,3}": "1/2",
    "x{1,2,3}": "1/2",
    "x{}^(1)": "1",
    "x{2}^(1)": "1",
    "x{3}^(1)": "1/2",
    "x{2,3}^(1)": "1/2",
    "x{}^(2)": "1",
    "x{1}^(2)": "1",
    "x{3}^(2)": "1/2",
    "x{1,3}^(2)": "1/2",
    "x{}^(3)": "1",
    "x{1}^(3)": "1/2",
    "x{2}^(3)": "1/2",
    "x{1,2}^(3)": "1/2",
}


# --------------------------------------------------------------------------
# variable indexing
# --------------------------------------------------------------------------


def test_boundary_variables_merge_their_own_index():
    assert VarIndex.boundary(1, {1, 2}) == VarIndex.boundary(1, {2})
    assert VarIndex.boundary(3, {3}) == VarIndex.boundary(3, ())
    assert VarIndex.boundary(3, ()).is_constant


def test_canonical_variable_count():
    for d in range(1, 6):
        total = len(canonical_variables(d))
        assert total == 2**d + d * 2 ** (d - 1)
        free = sum(1 for v in canonical_variables(d) if not v.is_constant)
        assert free == (2**d - 1) + d * (2 ** (d - 1) - 1)


def test_variable_keys_round_trip():
    for d in range(1, 5):
        for var in canonical_variables(d):
            assert parse_variable_key(var.key(), d) == var


def test_parse_variable_key_canonicalizes_aliases():
    assert parse_variable_key("x{1,2}^(1)", 3) == parse_variable_key("x{2}^(1)", 3)


def test_parse_variable_key_rejects_malformed():
    long_index = "9" * 5000  # more digits than int() converts
    for bad in [
        "x{0}",
        "x{4}",
        "y{1}",
        "x{1,1}",
        "x{1,,2}",
        "x{1}^(0)",
        "x{1}^(5)",
        "x(1)",
        f"x{{{long_index}}}",
        f"x{{1}}^({long_index})",
        "x{1}^(٢)",  # a non-ASCII digit two
    ]:
        with pytest.raises(RationalParseError):
            parse_variable_key(bad, 3)


def test_conflicting_aliases_are_rejected():
    # Two names for the same canonical variable carrying different values:
    # exactly the inconsistency that makes naive transcriptions of published
    # witness tables unverifiable.
    table = {"x{1,2}^(1)": "1/2", "x{2}^(1)": "1"}
    with pytest.raises(RationalParseError):
        assignment_from_table(table, 2)


def test_table_keys_resolve_as_parse_variable_key_resolves_them():
    # Canonical keys are looked up among the dimension's names and the rest
    # parsed: an alias or a padded key merges into its variable, a bad key
    # is refused with parse_variable_key's message, a conflict names the
    # last key that set the variable, and above the cap every key is parsed.
    x1, x2_1 = VarIndex.plain((1,)), VarIndex.boundary(1, (2,))
    table = {" x{1} ": "1/2", "x{2}^(1)": "1/3", "x{1,2}^(1)": "1/3"}
    assert assignment_from_table(table, 2) == {x1: Fraction(1, 2), x2_1: Fraction(1, 3)}
    for bad in ("x{3}", "x{1,1}", "y{1}"):
        with pytest.raises(RationalParseError) as expected:
            parse_variable_key(bad, 2)
        with pytest.raises(RationalParseError, match=re.escape(str(expected.value))):
            assignment_from_table({bad: "1"}, 2)
    table = {"x{2}^(1)": "1", "x{1,2}^(1)": "1", " x{2}^(1)": "1/2"}
    message = "conflicting values for x{2}^(1): keys 'x{1,2}^(1)' and ' x{2}^(1)' disagree"
    with pytest.raises(RationalParseError, match=re.escape(message)):
        assignment_from_table(table, 2)
    assert assignment_from_table({"x{13}": "1"}, 13) == {VarIndex.plain((13,)): Fraction(1)}


def test_assignment_table_round_trip():
    assignment = assignment_from_table(WITNESS_TABLE, 3)
    assert assignment_to_table(assignment) == WITNESS_TABLE


# --------------------------------------------------------------------------
# system assembly
# --------------------------------------------------------------------------


def test_dimension_one_system_forces_all_ones():
    R = RatMatrix([[Fraction(2)]])
    system = build_system(R, [1])
    assert [v.key() for v in system.variables] == ["x{1}"]
    balance = [row for row in system.rows if row.label.startswith("balance")]
    assert len(balance) == 1
    # single row 2*(1 - x{1}) = 0
    assert balance[0].terms == ((VarIndex.plain((1,)), Fraction(-2)),)
    assert balance[0].rhs == Fraction(-2)
    verdict = check_tight_system(R, [1])
    assert verdict.tight and verdict.optimum == 1


def test_two_dimensional_balance_rows_match_hand_expansion():
    R = RatMatrix([[2, -1], [-1, 2]])
    system = build_system(R, [Fraction(1), Fraction(3)])
    rows = {row.label: row for row in system.rows}
    # singleton row for D={1}, i=1: 2*(1 - x1) - 3*(x1^(2) - x1) = 0
    row = rows["balance[D={1},i=1]"]
    assert dict(row.terms) == {
        VarIndex.plain((1,)): Fraction(1),  # -(2) - (-3) = 1
        VarIndex.boundary(2, (1,)): Fraction(-3),
    }
    assert row.rhs == Fraction(-2)
    # pair rows exist for both i
    assert "balance[D={1,2},i=1]" in rows and "balance[D={1,2},i=2]" in rows
    # monotonicity on cover pairs
    assert "mono[x{1}>=x{1,2}]" in rows and "mono[x{2}>=x{1,2}]" in rows


def test_all_ones_is_feasible_in_every_built_system():
    rng = random.Random(41)
    for _ in range(20):
        d = rng.randint(1, 3)
        entries = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
            for _ in range(d)
        ]
        for i in range(d):
            entries[i][i] = abs(entries[i][i]) + 1
        R = RatMatrix(entries)
        b = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(d)]
        system = build_system(R, b)
        ones = {v: Fraction(1) for v in canonical_variables(d)}
        report = verify_assignment(system, ones)
        assert report.ok and report.is_all_ones


def _system_text(system) -> str:
    lines = [f"d={system.dimension} b={','.join(map(str, system.b))}"]
    lines.append(" ".join(v.key() for v in system.variables))
    for row in system.rows:
        terms = " ".join(f"{v.key()}:{c}" for v, c in row.terms)
        lines.append(f"{row.label}|{terms}|{row.relation.value}|{row.rhs}")
    return "\n".join(lines)


def test_build_system_is_pinned():
    # Labels, variables, term order, coefficients, relations and rhs of nine
    # systems.  The dimensions are interleaved, so the cached one-dimension
    # frame is both rebuilt and re-entered; the last matrix has two rows
    # whose total R_ij b_j is zero, so their balance rows carry no x_D term.
    # In the second pass an LP at the same d runs before each system is
    # built (R = 0 closes nothing), so the LP side builds each frame first.
    rng = random.Random(61)
    pairs = []
    for d in (3, 4, 3, 5, 2, 4, 1, 5):
        entries = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
            for _ in range(d)
        ]
        b = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(d)]
        pairs.append((RatMatrix(entries), b))
    pairs.append((RatMatrix([[2, -1, 0], [1, 1, -3], [0, -1, 4]]), [1, 2, 1]))
    for lp_first in (False, True):
        texts = []
        for R, b in pairs:
            if lp_first:
                tightness._frame.cache_clear()
                d = R.rows
                assert not check_tight_system(RatMatrix.zeros(d, d), [1] * d).tight
            texts.append(_system_text(build_system(R, b)))
        text = "\n".join(texts)
        assert text.count("\n") + 1 == 888
        digest = hashlib.sha256(text.encode()).hexdigest()
        assert digest == "fb6ad871c9f37af262ad5a6eedabfe92f317ba80be01b6c0c586346af7fad34b"


@pytest.mark.parametrize("family", ["balance", "two_families", "two_indices"])
def test_all_ones_check_reads_every_row(monkeypatch, family):
    # _frame checks, once per dimension, that every row is active at x = 1
    # and that each monotonicity row joins two unknowns of one family one
    # index apart.  Here the first balance row loses its anchor slot (rhs 0,
    # coefficient sum -R_11 b_1), or the first cover pair is x{1} >= x{1,2}^(3)
    # (two families) or x{1} >= x{1,2,3} (two indices), ids 1, 27 and 7.
    real_sets, real_covers = tightness._balance_sets, tightness._cover_pairs
    if family == "balance":
        def balance_sets(d):
            rows = real_sets(d)
            members, D, slots = next(rows)
            assert D == 1 and slots[0] is None  # D = {1}: the anchor x{}^(1)
            yield members, D, slots[1:]
            yield from rows

        monkeypatch.setattr(tightness, "_balance_sets", balance_sets)
        label = "balance[D={1},i=1]"
    else:
        upper = 27 if family == "two_families" else 7

        def cover_pairs(d):
            yield 1, upper
            yield from real_covers(d)

        monkeypatch.setattr(tightness, "_cover_pairs", cover_pairs)
        label = "mono[x{1}>=x{1,2}^(3)]" if family == "two_families" else "mono[x{1}>=x{1,2,3}]"
    tightness._frame.cache_clear()
    with pytest.raises(InternalInconsistencyError, match=re.escape(label)):
        build_system(REFLECTION, ONES3)


def test_build_system_refuses_above_cap_before_the_skeleton(monkeypatch):
    def fail(d):
        raise AssertionError(f"the d = {d} frame was built")

    monkeypatch.setattr(tightness, "_frame", fail)
    with pytest.raises(DimensionCapError):
        build_system(RatMatrix.identity(13), [1] * 13)


def test_each_consumer_builds_only_its_own_rows(monkeypatch):
    # a frame built for the LP holds no SystemRow, and one built for a
    # system no LP Constraint
    def fail(*args, **kwargs):
        raise AssertionError("a row of the other consumer was built")

    pnm4 = RatMatrix(
        [
            ["124/35", "2/5", "1", "-2"],
            ["1", "91/24", "-1/8", "2"],
            ["-1", "1/7", "149/14", "-7"],
            ["-1", "-3/2", "-8/5", "347/70"],
        ]
    )
    tightness._frame.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(tightness, "SystemRow", fail)
        assert _unforced_count(pnm4, [1] * 4)  # the LP runs
        assert check_tight_system(pnm4, [1] * 4).tight
    tightness._frame.cache_clear()
    monkeypatch.setattr(tightness, "Constraint", fail)
    system = build_system(RatMatrix.identity(8), [1] * 8)
    assert len(system.variables) == 1271


# --------------------------------------------------------------------------
# witness verification
# --------------------------------------------------------------------------


def test_hand_witness_verifies():
    assignment = assignment_from_table(WITNESS_TABLE, 3)
    report = verify_assignment(build_system(REFLECTION, ONES3), assignment)
    assert report.ok, report.failures()
    assert not report.is_all_ones


def test_all_ones_assignment_reports_trivial():
    system = build_system(REFLECTION, ONES3)
    ones = {v: Fraction(1) for v in canonical_variables(3)}
    report = verify_assignment(system, ones)
    assert report.ok and report.is_all_ones


def test_perturbed_witness_fails_a_balance_row():
    table = dict(WITNESS_TABLE)
    table["x{3}"] = "1"
    assignment = assignment_from_table(table, 3)
    system = build_system(REFLECTION, ONES3)
    report = verify_assignment(system, assignment)
    assert not report.ok
    failing = [c.label for c in report.failures()]
    assert "balance[D={3},i=3]" in failing


def test_missing_variable_is_reported_by_key():
    from reflecto import MissingVariableError

    table = dict(WITNESS_TABLE)
    del table["x{2,3}^(1)"]
    assignment = assignment_from_table(table, 3)
    system = build_system(REFLECTION, ONES3)
    with pytest.raises(MissingVariableError) as info:
        verify_assignment(system, assignment)
    assert "x{2,3}^(1)" in str(info.value)


def _fraction_report(system, assignment):
    """``(failed, is_all_ones)`` of ``verify_assignment``, with every check
    made in Fractions and each row evaluated by ``row_value``."""
    Check = tightness.CheckResult
    value = {var: as_rational(assignment[var]) for var in canonical_variables(system.dimension)}
    failed = []
    for var, x in value.items():
        if var.is_constant and x != 1:
            failed.append(Check(f"anchor[{var.key()}=1]", f"{var.key()} = {format_rational(x)}"))
    for row in system.rows:
        lhs = row_value(row.terms, value)
        if not row.relation.holds(lhs, row.rhs):
            failed.append(
                Check(row.label, f"lhs = {format_rational(lhs)}, rhs = {format_rational(row.rhs)}")
            )
    for var in system.variables:
        if not 0 <= value[var] <= 1:
            detail = f"{var.key()} = {format_rational(value[var])}"
            failed.append(Check(f"range[{var.key()}]", detail))
    return tuple(failed), all(x == 1 for x in value.values())


@lru_cache(maxsize=None)
def _verified_assignments():
    """(system, assignment) pairs that verify: LP witnesses at d = 1..4 and
    one at d = 5, the hand witness and the all-ones assignment of the
    fixture."""
    rng = random.Random(64)
    pairs = []
    while len(pairs) < 13:
        d = len(pairs) % 4 + 1 if len(pairs) < 12 else 5
        R = random_matrix(rng, d, zero_chance=0.4)
        b = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(d)]
        verdict = check_tight_system(R, b)
        if verdict.witness is not None:
            pairs.append((build_system(R, b), verdict.witness))
    system = build_system(REFLECTION, ONES3)
    pairs.append((system, assignment_from_table(WITNESS_TABLE, 3)))
    pairs.append((system, {v: Fraction(1) for v in canonical_variables(3)}))
    return tuple(pairs)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.integers(0, 14),
    st.lists(
        st.tuples(st.integers(0, 2**16), st.fractions(-2, 2, max_denominator=12)), max_size=4
    ),
)
def test_integer_checks_report_what_fraction_checks_report(case, moves):
    # verify_assignment sums each row in integers over its own terms'
    # denominators; moved off a verified witness (constants included), its
    # failed checks, labels and details must be those of the same checks in
    # Fraction arithmetic through row_value, and so must is_all_ones
    system, witness = _verified_assignments()[case]
    assignment = dict(witness)
    names = canonical_variables(system.dimension)
    for k, delta in moves:
        var = names[k % len(names)]
        assignment[var] = as_rational(assignment[var]) + delta
    report = verify_assignment(system, assignment)
    assert (report.failed, report.is_all_ones) == _fraction_report(system, assignment)


def test_integer_checks_with_a_distinct_prime_denominator_per_value():
    # every value over its own prime: no two terms of a row share a
    # denominator, so each row's running denominator grows at every term
    system = build_system(REFLECTION, ONES3)
    primes = [p for p in range(2, 200) if all(p % q for q in range(2, p))]
    assignment = {
        var: Fraction(1) if var.is_constant else Fraction(p - 1, p)
        for var, p in zip(canonical_variables(3), primes)
    }
    report = verify_assignment(system, assignment)
    assert report.failed
    assert (report.failed, report.is_all_ones) == _fraction_report(system, assignment)


def test_witness_checks_build_no_row(monkeypatch):
    # at d = 8, with SystemRow made to fail, an assignment that breaks one
    # balance row, one monotonicity row and one range is still checked, and
    # its report is what the named rows give in Fractions once SystemRow is
    # back.  Column 8 of R is 0, so no balance row holds an x^(8).
    def fail(*args, **kwargs):
        raise AssertionError("a SystemRow was built")

    table = assignment_to_table({v: Fraction(1) for v in canonical_variables(8)})
    table["x{2,3,4,5,6,7,8}^(1)"] = "-1/2"  # in balance row (D={1,...,8}, i=1)
    table["x{1,2,3,4,5,6}^(8)"] = "1/2"  # below its cover x{1,...,7}^(8)
    assignment = assignment_from_table(table, 8)
    with monkeypatch.context() as patch:
        patch.setattr(tightness, "SystemRow", fail)
        system = build_system(RatMatrix.diagonal([1] * 7 + [0]), [1] * 8)
        report = verify_assignment(system, assignment)
    assert [c.label for c in report.failed] == [
        "balance[D={1,2,3,4,5,6,7,8},i=1]",
        "mono[x{1,2,3,4,5,6}^(8)>=x{1,2,3,4,5,6,7}^(8)]",
        "range[x{2,3,4,5,6,7,8}^(1)]",
    ]
    assert (report.failed, report.is_all_ones) == _fraction_report(system, assignment)


# --------------------------------------------------------------------------
# the LP oracle
# --------------------------------------------------------------------------


def test_reflection_fixture_is_not_tight_for_unit_b():
    verdict = check_tight_system(REFLECTION, ONES3)
    assert not verdict.tight
    assert verdict.variable_count == 16
    assert verdict.optimum == Fraction(11, 2)
    system = build_system(REFLECTION, ONES3)
    report = verify_assignment(system, verdict.witness)
    assert report.ok and not report.is_all_ones


def test_box_witness_rescales_along_the_cone():
    # After y = 1 - x every row is homogeneous, so the box on the unknowns
    # only fixes the scale of a point of the cone.  Doubling the fixture's
    # y leaves every row satisfied but leaves the box; scaling the largest
    # y back to 1 verifies again and is still not all-ones.
    x = check_tight_system(REFLECTION, ONES3).witness
    doubled = {var: 1 - 2 * (1 - v) for var, v in x.items()}
    system = build_system(REFLECTION, ONES3)
    failures = verify_assignment(system, doubled).failures()
    assert len(failures) == 10
    assert all(c.label.startswith("range[") for c in failures)

    top = max(1 - v for v in doubled.values())
    rescaled = {var: 1 - (1 - v) / top for var, v in doubled.items()}
    report = verify_assignment(system, rescaled)
    assert report.ok and not report.is_all_ones


def test_lp_witnesses_verify():
    rng = random.Random(61)
    checked = 0
    while checked < 30:
        d = rng.randint(1, 3)
        R = random_matrix(rng, d)
        if not is_completely_s(R)[0]:
            continue
        b = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(d)]
        verdict = check_tight_system(R, b)
        if not verdict.tight:
            report = verify_assignment(build_system(R, b), verdict.witness)
            assert report.ok and not report.is_all_ones
        checked += 1


def test_seeded_verdicts_and_witnesses_are_pinned():
    # Optima and witness tables of completely-S matrices at d = 3 and 4, drawn
    # as in test_lp_witnesses_verify; a different pivot sequence
    # would report a different optimal vertex, hence a different witness.
    rng = random.Random(62)
    records = []
    while len(records) < 20:
        d = 3 if len(records) < 10 else 4
        R = random_matrix(rng, d)
        if not is_completely_s(R)[0]:
            continue
        b = [Fraction(rng.randint(1, 5), rng.randint(1, 5)) for _ in range(d)]
        for rhs in ([1] * d, b):
            verdict = check_tight_system(R, rhs)
            table = None if verdict.tight else assignment_to_table(verdict.witness)
            records.append([str(verdict.optimum), table])
    digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    assert digest == "0ef0c7ae09589ff318789f8ce15ce9ea3d9cd68b2c44610dcd55a20b86d016e7"


@st.composite
def _completely_s_pairs(draw):
    """(R, b) with d <= 4 and R completely-S.  Off-diagonal entries are 0
    with chance about one half, and all nonpositive in about half the draws
    (Z-matrices, often tight).  The diagonal is row-dominant (so R is a
    P-matrix) or half of that, filtered to completely-S."""
    d = draw(st.integers(1, 4))
    upper = draw(st.sampled_from([0, 4]))
    off = st.one_of(st.just(Fraction(0)), st.fractions(-4, upper, max_denominator=4))
    rows = [[draw(off) if i != j else Fraction(0) for j in range(d)] for i in range(d)]
    halve = draw(st.booleans())
    for i, row in enumerate(rows):
        dominance = sum(abs(v) for v in row)
        row[i] = (dominance / 2 if halve else dominance) + draw(
            st.fractions(Fraction(1, 4), 4, max_denominator=4)
        )
    R = RatMatrix(rows)
    assume(is_completely_s(R)[0])
    b = [draw(st.fractions(Fraction(1, 8), 8, max_denominator=8)) for _ in range(d)]
    return R, b


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_completely_s_pairs())
def test_lazy_monotonicity_rows_keep_the_full_lp_optimum(pair):
    # check_tight_system hands the monotonicity rows to the LP as lazy rows;
    # its optimum must be that of the LP with every row active, and its
    # witness must satisfy the whole system
    R, b = pair
    system = build_system(R, b)
    verdict = check_tight_system(R, b)
    full = lp_solve(all_active_box_program(system))
    assert verdict.optimum == len(system.variables) + full.optimum
    if not verdict.tight:
        report = verify_assignment(system, verdict.witness)
        assert report.ok and not report.is_all_ones


def test_reflection_fixture_is_tight_for_some_b():
    # Non-tightness genuinely depends on b here: the balance row for D={3}
    # degenerates when 3*b1 - 2*b2 + b3 = 0 and monotonicity then pins
    # every remaining variable at 1 (hand elimination).
    verdict = check_tight_system(REFLECTION, (1, 2, 1))
    assert verdict.tight
    assert verdict.optimum == verdict.variable_count


def test_symmetric_all_ones_matrix_is_not_tight():
    verdict = check_tight_system(RatMatrix([[1, 1], [1, 1]]), (1, 1))
    assert not verdict.tight
    system = build_system(RatMatrix([[1, 1], [1, 1]]), (1, 1))
    assert verify_assignment(system, verdict.witness).ok


def test_strictly_coupled_m_matrix_is_tight():
    R = RatMatrix([[3, -1, -1], [-1, 3, -1], [-1, -1, 3]])
    verdict = check_tight_system(R, ONES3)
    assert verdict.tight


def test_staircase_matrix_is_tight_for_several_b():
    R = RatMatrix(
        [
            [Fraction(1, 3), 0, 0],
            [Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 6)],
            [0, Fraction(-1, 2), Fraction(1, 2)],
        ]
    )
    for b in (ONES3,) + sample_b_vectors(3, 3, 51):
        assert check_tight_system(R, b).tight


def test_decoupled_diagonal_system_admits_non_unit_solutions():
    # A decoupled coordinate never anchors its cross-boundary unknowns: for
    # diagonal R the variables x{1,2}, x{2}^(1), x{1}^(2) only appear in the
    # pair balance rows, which equate them without pinning the level.
    for d in (2, 3):
        verdict = check_tight_system(RatMatrix.identity(d), [1] * d)
        assert not verdict.tight
        system = build_system(RatMatrix.identity(d), [1] * d)
        report = verify_assignment(system, verdict.witness)
        assert report.ok and not report.is_all_ones


def test_block_diagonal_m_matrix_is_not_tight_either():
    R = RatMatrix([[1, -1, 0], [-1, 2, 0], [0, 0, 1]])
    verdict = check_tight_system(R, ONES3)
    assert not verdict.tight


def test_b_absorption_is_structural():
    rng = random.Random(42)
    for _ in range(15):
        d = rng.randint(1, 3)
        entries = [
            [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)]
            for _ in range(d)
        ]
        for i in range(d):
            entries[i][i] = abs(entries[i][i]) + 1
        R = RatMatrix(entries)
        b = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in range(d)]
        absorbed = R @ RatMatrix.diagonal(b)
        left = build_system(R, b)
        right = build_system(absorbed, [1] * d)
        assert left.rows == right.rows
        assert left.variables == right.variables


def test_lp_above_dimension_cap_is_refused_when_unknowns_are_left(monkeypatch):
    # the diagonal system is not tight, so sign forcing leaves unknowns and
    # the LP it would need is refused before it is built
    def fail(*args, **kwargs):
        raise AssertionError("the LP was built above the LP cap")

    monkeypatch.setattr(tightness, "_box_program", fail)
    d = LP_DIMENSION_CAP + 1
    with pytest.raises(DimensionCapError, match="leaves 1263 of its 1271 unknowns"):
        check_tight_system(RatMatrix.identity(d), [1] * d)


def test_sign_forcing_certifies_m_matrix_above_the_lp_cap(monkeypatch):
    # neither the LP nor its cached frame of fixed rows is built
    def fail(*args, **kwargs):
        raise AssertionError("an LP or its frame was built on a system closed by sign forcing")

    monkeypatch.setattr(tightness, "lp_solve", fail)
    monkeypatch.setattr(tightness, "_frame", fail)
    d = LP_DIMENSION_CAP + 1
    verdict = check_tight_system(random_m_matrix(random.Random(1), d), [1] * d)
    assert verdict == tightness.TightnessVerdict(True, 1271, Fraction(1271), None)


def _box_program(R, b):
    return tightness._box_program(*tightness._products(R, tightness._check_inputs(R, b)))


def _unforced_count(R, b):
    return tightness._unforced_count(*tightness._products(R, tightness._check_inputs(R, b)))


def test_box_programs_of_one_dimension_share_the_cached_frame():
    # only the balance rows depend on (R, b); the box rows, the lazy
    # monotonicity rows and the objective are the same objects at one d
    rng = random.Random(3)
    first = _box_program(random_m_matrix(rng, 4), [1] * 4)
    second = _box_program(random_matrix(rng, 4), [2, 1, 3, 1])
    assert first.lazy is second.lazy and first.objective is second.objective
    assert len(first.lazy) == 64 and all(row.relation is Relation.GE for row in first.lazy)
    balance, box = first.constraints[:32], first.constraints[32:]
    assert all(row.relation is Relation.EQ for row in balance)
    assert box == second.constraints[32:] == tuple(
        tightness.Constraint(((k, Fraction(1)),), Relation.LE, Fraction(1)) for k in range(43)
    )
    assert balance != second.constraints[:32]


def test_two_lps_leave_the_frame_rows_as_they_were(monkeypatch):
    # The tableau rewrites its stored rows in place.  The box and lazy rows
    # of _frame(d), shared by every LP of that dimension, and the integer
    # rows cached on them must come out of two LPs as a fresh frame builds
    # them, and the second LP must equal its solve on that fresh frame.
    rng = random.Random(11)
    cases = [(random_p_not_m_matrix(rng, 4), b) for b in ((1, 1, 1, 1), (2, 1, 3, 1))]
    assert all(_unforced_count(R, b) for R, b in cases)
    outcomes = []
    solve = tightness.lp_solve

    def spy_solve(program):
        outcomes.append(solve(program))
        return outcomes[-1]

    monkeypatch.setattr(tightness, "lp_solve", spy_solve)

    def fixed_rows(frame):
        return [(row.terms, row.relation, row.rhs, row._int_row) for row in frame.box + frame.lazy]

    frame = tightness._frame(4)
    verdict = [check_tight_system(R, b) for R, b in cases][1]
    assert len(outcomes) == 2 and tightness._frame(4) is frame
    tightness._frame.cache_clear()
    assert check_tight_system(*cases[1]) == verdict
    assert tightness._frame(4) is not frame
    assert fixed_rows(tightness._frame(4)) == fixed_rows(frame)
    assert outcomes[2] == outcomes[1]


def test_sign_forced_systems_have_lp_optimum_at_the_variable_count():
    # whenever sign forcing closes a system, the box LP must prove it tight
    rng = random.Random(5)
    closed = 0
    for _ in range(150):
        d = rng.randint(1, 4)
        R = random_matrix(rng, d)
        b = [Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(d)]
        system = build_system(R, b)
        if _unforced_count(R, b):
            continue
        closed += 1
        outcome = lp_solve(all_active_box_program(system))
        assert outcome.optimum == 0, (R.to_strings(), b)
        assert check_tight_system(R, b) == tightness.TightnessVerdict(
            True, len(system.variables), Fraction(len(system.variables)), None
        )
    assert closed >= 30


@st.composite
def _sign_pairs(draw):
    """(R, b) with d <= 4, any signs: entries are 0 with chance about one
    half, and in about half the draws with d > 1 one column is all 0, so
    some boundary unknown is in no row."""
    d = draw(st.integers(1, 4))
    entry = st.one_of(st.just(Fraction(0)), st.fractions(-4, 4, max_denominator=4))
    rows = [[draw(entry) for _ in range(d)] for _ in range(d)]
    if d > 1 and draw(st.booleans()):
        j = draw(st.integers(0, d - 1))
        for row in rows:
            row[j] = Fraction(0)
    b = [draw(st.fractions(Fraction(1, 4), 4, max_denominator=4)) for _ in range(d)]
    return RatMatrix(rows), b


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_sign_pairs())
def test_integer_closure_agrees_with_the_system_closure(pair):
    # the closure on bit sets, from the signs of R b alone, must leave as
    # many unknowns as sign forcing over the built system's rows
    R, b = pair
    assert _unforced_count(R, b) == unforced_count_reference(build_system(R, b))


def test_integer_closure_counts_unknowns_in_no_row():
    # with column 2 zero, x{1}^(2) is in no row and stays free; R = 0 at
    # d = 1 leaves x{1}, and R = 3 forces it
    for rows, left in (([[1, 0], [-1, 0]], 4), ([[0, 1], [0, 1]], 4), ([[0]], 1), ([[3]], 0)):
        R = RatMatrix(rows)
        assert _unforced_count(R, [1] * R.rows) == left
        assert unforced_count_reference(build_system(R, [1] * R.rows)) == left


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(_sign_pairs())
def test_box_program_is_the_program_of_the_built_system(pair):
    # the balance rows, built on integer ids, must equal the rows of the
    # built system in y = 1 - x over its variables, term for term and in
    # the same order; so must the cached box and monotonicity rows
    R, b = pair
    system = build_system(R, b)
    balance, monotone, box = reference_box_rows(system)
    program = _box_program(R, b)
    assert program.constraints == balance + box
    assert program.lazy == monotone
    assert program.objective == (Fraction(-1),) * len(system.variables)
    active = all_active_box_program(system).constraints
    assert active == balance + program.lazy + program.constraints[len(balance):]


def _forbid_building_the_system(monkeypatch, *more):
    def fail(*args, **kwargs):
        raise AssertionError("a system, its names or its LP frame was built")

    for name in ("_frame", "canonical_variables", "build_system", *more):
        monkeypatch.setattr(tightness, name, fail)


def test_identity_at_the_dimension_cap_is_refused_from_signs(monkeypatch):
    # the 12 x 12 identity forces only its 12 singletons; no system is built
    _forbid_building_the_system(monkeypatch)
    with pytest.raises(DimensionCapError, match="leaves 28647 of its 28659 unknowns"):
        check_tight_system(RatMatrix.identity(12), [1] * 12)


def test_m_matrix_at_the_dimension_cap_is_certified_from_signs(monkeypatch):
    _forbid_building_the_system(monkeypatch)
    verdict = check_tight_system(random_m_matrix(random.Random(1), 12), [1] * 12)
    assert verdict == tightness.TightnessVerdict(True, 28659, Fraction(28659), None)


def test_above_the_dimension_cap_nothing_is_enumerated(monkeypatch):
    _forbid_building_the_system(monkeypatch, "_unforced_count", "_canonical_ids", "_balance_sets")
    with pytest.raises(DimensionCapError, match="subset-enumeration cap"):
        check_tight_system(RatMatrix.identity(13), [1] * 13)


def test_rejects_nonpositive_b():
    from reflecto import MatrixShapeError

    with pytest.raises(MatrixShapeError):
        build_system(REFLECTION, (1, 0, 1))
    with pytest.raises(MatrixShapeError):
        build_system(REFLECTION, (1, 1))


# --------------------------------------------------------------------------
# explicit two-by-two witness
# --------------------------------------------------------------------------


def test_nonnegative_case_witness_matches_formulas():
    witness = nonnegative_case_witness(RatMatrix([[1, 1], [1, 1]]), (1, 1))
    assert witness[VarIndex.plain((1,))] == Fraction(3, 4)
    assert witness[VarIndex.plain((2,))] == Fraction(3, 4)
    assert witness[VarIndex.plain((1, 2))] == Fraction(1, 2)
    assert witness[VarIndex.boundary(1, (2,))] == Fraction(1, 2)
    assert witness[VarIndex.boundary(2, (1,))] == Fraction(1, 2)


def test_nonnegative_case_witness_with_zero_entry():
    witness = nonnegative_case_witness(RatMatrix([[1, 0], [1, 1]]), (1, 1))
    assert witness[VarIndex.plain((1,))] == Fraction(1)
    assert witness[VarIndex.plain((2,))] == Fraction(3, 4)
    assert witness[VarIndex.plain((1, 2))] == Fraction(1, 2)
    system = build_system(RatMatrix([[1, 0], [1, 1]]), (1, 1))
    assert verify_assignment(system, witness).ok


def test_nonnegative_case_witness_validates_inputs():
    with pytest.raises(ReflectoError):
        nonnegative_case_witness(RatMatrix([[2, -1], [-1, 2]]), (1, 1))


# --------------------------------------------------------------------------
# the layered decision
# --------------------------------------------------------------------------


def test_decide_reflection_fixture_not_tight_at_unit_b():
    decision = decide_tight_matrix(REFLECTION)
    assert decision.status is DecisionStatus.NOT_TIGHT
    assert decision.b_witness == ONES3
    system = build_system(REFLECTION, ONES3)
    assert verify_assignment(system, decision.witness).ok


def test_decide_staircase():
    R = RatMatrix(
        [
            [Fraction(1, 3), 0, 0],
            [Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 6)],
            [0, Fraction(-1, 2), Fraction(1, 2)],
        ]
    )
    decision = decide_tight_matrix(R)
    assert decision.status is DecisionStatus.TIGHT_PROVEN
    assert decision.method is ProofMethod.STAIRCASE


def test_decide_two_by_two_and_dim_one():
    decision = decide_tight_matrix(RatMatrix([[2, -1], [-1, 2]]))
    assert decision.status is DecisionStatus.TIGHT_PROVEN
    assert decision.method is ProofMethod.TWO_BY_TWO
    decision = decide_tight_matrix(RatMatrix([[Fraction(1, 2)]]))
    assert decision.status is DecisionStatus.TIGHT_PROVEN
    assert decision.method is ProofMethod.DIM_ONE


def test_decide_m_matrix_route():
    R = RatMatrix([[1, 0, 0], [0, 1, 0], [-1, 0, 1]])
    # not staircase (zero subdiagonal), but an M-matrix
    decision = decide_tight_matrix(R)
    assert decision.status is DecisionStatus.TIGHT_PROVEN
    assert decision.method is ProofMethod.M_MATRIX
    assert not hasattr(decision, "__dict__")  # slotted


def test_decide_nonnegative_two_by_two_produces_witness():
    decision = decide_tight_matrix(RatMatrix([[1, 1], [1, 1]]))
    assert decision.status is DecisionStatus.NOT_TIGHT
    assert decision.b_witness == (Fraction(1), Fraction(1))
    system = build_system(RatMatrix([[1, 1], [1, 1]]), (1, 1))
    report = verify_assignment(system, decision.witness)
    assert report.ok and not report.is_all_ones


def test_decide_requires_completely_s():
    with pytest.raises(NotCompletelySError) as info:
        decide_tight_matrix(RatMatrix([[1, -1], [-1, 1]]))
    assert info.value.failing_subset == (1, 2)


def test_decide_runs_no_definiteness_test(monkeypatch):
    # no certificate reads definiteness, so only classify_matrix computes it
    calls = []
    definite = reflecto.classify.is_positive_definite

    def spy(matrix):
        calls.append(matrix)
        return definite(matrix)

    monkeypatch.setattr(reflecto.classify, "is_positive_definite", spy)
    staircase = RatMatrix([[2, 1, -1], [-1, 2, 1], [0, -1, 2]])
    for R, method in (
        (random_m_matrix(random.Random(3), 5), ProofMethod.M_MATRIX),
        (staircase, ProofMethod.STAIRCASE),
        (REFLECTION, None),  # refuted by the LP at unit b
    ):
        assert decide_tight_matrix(R).method is method
        assert calls == []
        reflecto.classify.classify_matrix(R)
        assert calls == [R]
        calls.clear()
    # x2 > 2 x3 and x3 > 2 x2 have no positive solution: {1,2,3} is the
    # first subset that is not an S-matrix
    not_s = RatMatrix([[1, 0, 0], [0, 1, -2], [0, -2, 1]])
    with pytest.raises(NotCompletelySError) as info:
        decide_tight_matrix(not_s)
    assert calls == []
    assert info.value.failing_subset == reflecto.classify.classify_matrix(not_s).failing_subset
    assert info.value.failing_subset == (1, 2, 3)


def test_decide_sampled_stages():
    # Tight at unit b but outside every sign certificate: the column-scaled
    # variant of the reflection fixture, whose unit-b system is the fixture's
    # system at b = (1, 2, 1).
    R = RatMatrix([[1, 0, 0], [-3, 2, 0], [3, -4, 1]])
    decision = decide_tight_matrix(R, sample_count=0)
    assert decision.status is DecisionStatus.UNKNOWN_SAMPLED
    assert decision.tested_b == ((Fraction(1), Fraction(1), Fraction(1)),)

    # With sampling enabled the decision must stay sound either way.
    decision = decide_tight_matrix(R, sample_count=5, seed=3)
    if decision.status is DecisionStatus.NOT_TIGHT:
        system = build_system(R, decision.b_witness)
        assert verify_assignment(system, decision.witness).ok
    else:
        assert decision.status is DecisionStatus.UNKNOWN_SAMPLED


def test_refutation_at_unit_b_draws_no_sampled_b(monkeypatch):
    draws = []

    class CountingRandom(random.Random):
        def randint(self, a, b):
            draws.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(tightness, "random", SimpleNamespace(Random=CountingRandom))
    decision = decide_tight_matrix(REFLECTION, sample_count=20)
    assert decision.b_witness == ONES3
    assert draws == []

    # Tight at unit b, refuted at the third of five sampled b: the decision
    # draws those three, in the order sample_b_vectors lists them, and stops.
    R = RatMatrix([[1, 0, 0], [-3, 2, 0], [3, -4, 1]])
    decision = decide_tight_matrix(R, sample_count=5, seed=1)
    assert len(draws) == 3 * 2 * 3  # three b, two randint calls per entry
    assert decision.b_witness == sample_b_vectors(3, 5, 1)[2]


def test_negative_sample_count_is_refused_before_any_lp(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("an LP ran for a negative sample count")

    monkeypatch.setattr(reflecto.classify, "lp_solve", fail)
    monkeypatch.setattr(tightness, "lp_solve", fail)
    # completely-S but not P: classification alone would run S-LPs
    not_p = RatMatrix([[1, 2], [2, 1]])
    for R in (REFLECTION, not_p):
        with pytest.raises(ReflectoError, match="sample count"):
            decide_tight_matrix(R, sample_count=-5)
    with pytest.raises(ReflectoError, match="sample count"):
        sample_b_vectors(3, -2, 0)
    assert sample_b_vectors(3, 0, 0) == ()


def test_sampled_b_vectors_are_reproducible():
    assert sample_b_vectors(3, 4, 0) == sample_b_vectors(3, 4, 0)
    assert sample_b_vectors(3, 4, 0) != sample_b_vectors(3, 4, 1)
    for b in sample_b_vectors(5, 10, 9):
        assert all(0 < v <= 16 for v in b)
        assert all(v.denominator <= 16 for v in b)
