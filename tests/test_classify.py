"""Matrix class membership and the two-by-two / staircase sign tests."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from reflecto import (
    DimensionCapError,
    RatMatrix,
    TwoByTwoCase,
    classify_matrix,
    classify_two_by_two,
    has_staircase_sign_pattern,
    is_completely_s,
    is_m_matrix,
    is_p_matrix,
    is_positive_definite,
    is_s_matrix,
    subsets_lex,
)
from reflecto import classify
from reflecto.tightness import build_system

from _generators import (
    random_m_matrix,
    random_matrix,
    random_p_not_m_matrix,
    random_rational,
    random_signed_rational,
    random_staircase_matrix,
)

REFLECTION = RatMatrix([[1, 0, 0], [-3, 1, 0], [3, -2, 1]])
LBFS_REFLECTION = RatMatrix(
    [
        [Fraction(1, 3), 0, 0],
        [Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 6)],
        [0, Fraction(-1, 2), Fraction(1, 2)],
    ]
)


def test_subset_enumeration_is_lexicographic():
    assert list(subsets_lex(3)) == [
        (1,),
        (1, 2),
        (1, 2, 3),
        (1, 3),
        (2,),
        (2, 3),
        (3,),
    ]


def test_s_matrix_basics():
    assert is_s_matrix(RatMatrix([[1]]))
    assert not is_s_matrix(RatMatrix([[-1]]))
    assert is_s_matrix(RatMatrix([[0, 1], [1, 0]]))  # x = (1, 1) works


def test_completely_s_accepts_triangular_reflection():
    ok, failing = is_completely_s(REFLECTION)
    assert ok and failing is None


def test_completely_s_rejects_singular_symmetric():
    ok, failing = is_completely_s(RatMatrix([[1, -1], [-1, 1]]))
    assert not ok
    assert failing == (1, 2)


def test_completely_s_rejects_negative_scalar():
    ok, failing = is_completely_s(RatMatrix([[-1]]))
    assert not ok and failing == (1,)


def test_p_matrix_triangular():
    ok, failing = is_p_matrix(REFLECTION)
    assert ok and failing is None


def test_p_matrix_rejects_rank_deficient():
    ok, failing = is_p_matrix(RatMatrix([[1, 1], [1, 1]]))
    assert not ok and failing == (1, 2)


def test_p_matrix_lbfs_minors():
    # the seven principal minors, checked directly
    minors = {
        subset: LBFS_REFLECTION.principal_submatrix(subset).det()
        for subset in subsets_lex(3)
    }
    assert minors == {
        (1,): Fraction(1, 3),
        (2,): Fraction(1, 2),
        (3,): Fraction(1, 2),
        (1, 2): Fraction(1, 6),
        (1, 3): Fraction(1, 6),
        (2, 3): Fraction(1, 6),
        (1, 2, 3): Fraction(1, 18),
    }
    ok, _ = is_p_matrix(LBFS_REFLECTION)
    assert ok


def _per_subset_p_test(matrix):
    """Reference: every principal minor from its own determinant, in lex order."""
    for subset in subsets_lex(matrix.rows):
        if matrix.principal_submatrix(subset).det() <= 0:
            return False, subset
    return True, None


def _rank_deficient(rng, d):
    """The last row is a combination of two earlier rows; [[0]] when d = 1."""
    if d == 1:
        return RatMatrix([[0]])
    rows = random_matrix(rng, d).row_lists()
    i, j = rng.randrange(d - 1), rng.randrange(d - 1)
    c = random_signed_rational(rng)
    rows[-1] = [a + c * b for a, b in zip(rows[i], rows[j])]
    return RatMatrix(rows)


def _shifted_m_matrix(rng, d):
    """M - tI with 0 < t < min diagonal: a minor fails at depth >= 2, if any."""
    M = random_m_matrix(rng, d)
    t = min(M.at(i, i) for i in range(d)) * Fraction(rng.randint(1, 16), 17)
    return M - RatMatrix.identity(d).scale(t)


def test_p_matrix_matches_per_subset_determinants():
    rng = random.Random(10)
    # ones on the diagonal and -1/(d-1) elsewhere: the k x k principal minors
    # are (1 + a)^(k-1) (1 - (k-1) a) with a = 1/(d-1), positive for k < d
    # and zero for k = d, so the first failure is the full index set
    deep = [
        RatMatrix([[1 if i == j else Fraction(-1, d - 1) for j in range(d)] for i in range(d)])
        for d in range(2, 8)
    ]
    for M in deep:
        assert is_p_matrix(M) == (False, tuple(range(1, M.rows + 1)))
    families = (
        random_m_matrix,
        random_p_not_m_matrix,
        random_staircase_matrix,
        lambda rng, d: random_matrix(rng, d, zero_chance=rng.random() * 0.6),
        _rank_deficient,
        _shifted_m_matrix,
    )
    matrices = deep + [families[i % 6](rng, 1 + i % 7) for i in range(2000)]
    failures = Counter()
    for M in matrices:
        expected = _per_subset_p_test(M)
        assert is_p_matrix(M) == expected
        if not expected[0]:
            failures[len(expected[1])] += 1
    assert sum(failures.values()) >= 500
    assert max(failures) == 7
    # structured families, where the walk first visits only interval minors
    structured = (_symmetric_shrunk, _upper_hessenberg_shrunk, _lower_triangular_pivot)
    outcomes = Counter()
    for i in range(900):
        family = i % len(structured)
        M = structured[family](rng, 1 + (i // len(structured)) % 7)
        expected = _per_subset_p_test(M)
        assert is_p_matrix(M) == expected
        outcomes[family, expected[0]] += 1
    for family in range(len(structured)):
        assert outcomes[family, True] >= 30 and outcomes[family, False] >= 30
    # tridiagonal: the first failing interval is (3, 4), but the gapped subset
    # (1, 3, 4) comes before it in lex order, and only the full walk finds it
    tridiagonal = RatMatrix([[2, 0, 0, 0], [0, 1, -2, 0], [0, 1, 1, -2], [0, 0, -2, 2]])
    assert _per_subset_p_test(tridiagonal) == is_p_matrix(tridiagonal) == (False, (1, 3, 4))


def _shrunk_diagonal(rng, rows):
    """Set each diagonal entry to its row's absolute sum times a factor in (0, 3/2].

    A factor above 1 makes the row strictly dominant; below it, minors can fail.
    """
    for i, row in enumerate(rows):
        row[i] = 0
        row[i] = (sum(abs(v) for v in row) + 1) * Fraction(rng.randint(1, 12), 8)
    return RatMatrix(rows)


def _symmetric_shrunk(rng, d):
    """Symmetric, mixed-sign off-diagonal entries: definite or indefinite."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i):
            rows[i][j] = rows[j][i] = random_signed_rational(rng)
    return _shrunk_diagonal(rng, rows)


def _upper_hessenberg_shrunk(rng, d):
    """Zeros below the first subdiagonal, mixed signs elsewhere."""
    rows = [
        [random_signed_rational(rng) if i <= j + 1 else Fraction(0) for j in range(d)]
        for i in range(d)
    ]
    return _shrunk_diagonal(rng, rows)


def _lower_triangular_pivot(rng, d):
    """Lower triangular; half the time one diagonal entry is zero or negative."""
    rows = [
        [random_signed_rational(rng) if j < i else Fraction(0) for j in range(d)]
        for i in range(d)
    ]
    for i in range(d):
        rows[i][i] = random_rational(rng)
    if rng.random() < 0.5:
        k = rng.randrange(d)
        rows[k][k] = -random_rational(rng) if rng.random() < 0.5 else Fraction(0)
    return RatMatrix(rows)


def test_structured_p_matrices_visit_only_deciding_minors(monkeypatch):
    # each recursive call below the top level is one positive principal minor:
    # a Z-matrix walks its 12 leading minors, a dense one all 4095; the
    # interval-minor recurrence decides a Hessenberg matrix without the walk
    visited = Counter()
    walk = classify._first_nonpositive_minor

    def counted(block, prefix, *args, **kwargs):
        visited["minors"] += bool(prefix)
        return walk(block, prefix, *args, **kwargs)

    monkeypatch.setattr(classify, "_first_nonpositive_minor", counted)
    rng = random.Random(14)
    d = 12
    staircase = random_staircase_matrix(rng, d)
    cases = {
        "z": (random_m_matrix(rng, d), 12),
        "upper hessenberg": (staircase, 0),
        "lower hessenberg": (staircase.transpose(), 0),
        "dense": (random_p_not_m_matrix(rng, d), 4095),
    }
    for name, (M, minors) in cases.items():
        visited.clear()
        assert is_p_matrix(M) == (True, None), name
        assert visited["minors"] == minors, name
    # definiteness walks the leading chain of the symmetric part, whatever M is
    symmetric = _gram(rng, d, d) + RatMatrix.identity(d)
    for M in (symmetric, symmetric + _random_skew(rng, d)):
        visited.clear()
        assert is_positive_definite(M)
        assert visited["minors"] == 12


def _first_nonpositive_minor_by_det(M):
    """The lexicographically first subset with det M[S] <= 0, by determinants."""
    return next((S for S in subsets_lex(M.rows) if M.principal_submatrix(S).det() <= 0), None)


_small_entries = st.fractions(min_value=-4, max_value=4, max_denominator=4)


@st.composite
def _z_matrices(draw):
    """Off-diagonal entries <= 0, diagonal mostly positive; d <= 6."""
    d = draw(st.integers(1, 6))
    diagonal = st.fractions(min_value=-2, max_value=24, max_denominator=4)
    off = st.fractions(min_value=-4, max_value=0, max_denominator=4)
    return RatMatrix(
        [[draw(diagonal if i == j else off) for j in range(d)] for i in range(d)]
    )


@st.composite
def _symmetric_matrices(draw):
    d = draw(st.integers(1, 6))
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i, d):
            rows[i][j] = rows[j][i] = draw(_small_entries)
    # a positive diagonal shift makes about half the draws definite
    shift = draw(st.integers(0, 16))
    return RatMatrix(rows) + RatMatrix.identity(d).scale(shift)


_FUZZ = settings(max_examples=200, deadline=None, derandomize=True, database=None)


@_FUZZ
@given(_z_matrices())
def test_z_matrix_leading_chain_agrees_with_every_minor(M):
    # the leading chain decides P on a Z-matrix, and its first failure is
    # the first failing subset of the full walk, which visits it first
    failing = _first_nonpositive_minor_by_det(M)
    assert is_p_matrix(M) == (failing is None, failing)


@st.composite
def _hessenberg_matrices(draw):
    """Upper or lower Hessenberg, d <= 6.  Diagonal shifts drawn per row
    make about half the draws P-matrices and some fail only at a later
    index, and small integer entries make some minors zero."""
    d = draw(st.integers(1, 6))
    entries = st.one_of(st.integers(-2, 2), _small_entries)
    rows = [[draw(entries) if i <= j + 1 else 0 for j in range(d)] for i in range(d)]
    for i in range(d):
        rows[i][i] += draw(st.integers(0, 8))
    M = RatMatrix(rows)
    return M.transpose() if draw(st.booleans()) else M


@_FUZZ
@given(_hessenberg_matrices())
# every interval minor before (1, 3) in lex order is positive
@example(RatMatrix([[1, 0, 0], [0, 1, 2], [0, -1, 0]]))
def test_hessenberg_interval_minors_agree_with_every_minor(M):
    # the recurrence decides P; a failure is reported by the full walk, so a
    # gapped subset such as (1, 3) that precedes every failing interval wins
    failing = _first_nonpositive_minor_by_det(M)
    assert is_p_matrix(M) == (failing is None, failing)


@_FUZZ
@given(_symmetric_matrices())
def test_definiteness_leading_chain_agrees_with_every_minor(M):
    # a symmetric matrix is positive definite exactly when it is a P-matrix
    assert is_positive_definite(M) is (_first_nonpositive_minor_by_det(M) is None)


def test_p_matrix_computes_no_determinant(monkeypatch):
    calls = Counter()
    for name in ("det", "principal_submatrix"):
        original = getattr(RatMatrix, name)

        def counted(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(RatMatrix, name, counted)
    assert is_p_matrix(random_m_matrix(random.Random(8), 8)) == (True, None)
    assert calls["det"] == 0 and calls["principal_submatrix"] == 0


def test_m_matrix_examples():
    assert is_m_matrix(RatMatrix([[2, -1], [-1, 2]]))
    assert is_m_matrix(RatMatrix.identity(4))
    assert not is_m_matrix(REFLECTION)  # entry (3, 1) is positive


def test_positive_definite_examples():
    assert is_positive_definite(RatMatrix.identity(3))
    assert not is_positive_definite(RatMatrix([[1, 3], [0, 1]]))
    assert is_positive_definite(RatMatrix([[2, -1], [-1, 2]]))


def _leading_minors_positive(matrix):
    """Reference: Sylvester's criterion on (M + M')/2, one det per leading minor."""
    symmetric = (matrix + matrix.transpose()).scale(Fraction(1, 2))
    return all(
        symmetric.principal_submatrix(range(1, k + 1)).det() > 0
        for k in range(1, matrix.rows + 1)
    )


def _random_skew(rng, d):
    """A random skew-symmetric matrix: it leaves the symmetric part unchanged."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(i + 1, d):
            rows[i][j] = random_signed_rational(rng)
            rows[j][i] = -rows[i][j]
    return RatMatrix(rows)


def _gram(rng, rank, d):
    """B'B for a random rank x d matrix B: semidefinite, singular when rank < d."""
    B = random_matrix(rng, max(rank, d), zero_chance=0.3)
    B = RatMatrix(B.row_lists()[:rank])
    return B.transpose() @ B


def _semidefinite_singular(rng, d):
    """Symmetric part B'B with rank(B) < d, plus a skew part; [[0]] when d = 1."""
    if d == 1:
        return RatMatrix([[0]])
    return _gram(rng, rng.randint(1, d - 1), d) + _random_skew(rng, d)


def _last_leading_minor_fails(rng, d):
    """Symmetric part S - t e_d e_d' with S definite: only the d-th leading
    minor changes, and t is chosen so that it is zero or negative."""
    S = _gram(rng, d, d) + RatMatrix.identity(d)
    full = S.det()
    inner = S.principal_submatrix(range(1, d)).det() if d > 1 else Fraction(1)
    t = full / inner * (1 + Fraction(rng.randint(0, 3), 4))
    corner = RatMatrix([[t if i == j == d - 1 else 0 for j in range(d)] for i in range(d)])
    return S - corner + _random_skew(rng, d)


def test_positive_definite_matches_leading_minors():
    rng = random.Random(12)
    families = (
        random_m_matrix,
        random_p_not_m_matrix,
        random_staircase_matrix,
        lambda rng, d: random_matrix(rng, d, zero_chance=rng.random() * 0.6),
        _semidefinite_singular,
        _last_leading_minor_fails,
    )
    outcomes = Counter()
    for i in range(2400):
        family = i % len(families)
        M = families[family](rng, 1 + (i // len(families)) % 8)
        expected = _leading_minors_positive(M)
        assert is_positive_definite(M) == expected
        if family == 5 and M.rows > 1:  # every leading minor but the d-th is positive
            assert _leading_minors_positive(M.principal_submatrix(range(1, M.rows)))
        outcomes[family, expected] += 1
    # semidefinite-but-singular and last-minor matrices are never definite
    assert outcomes[4, True] == outcomes[5, True] == 0
    assert outcomes[4, False] == outcomes[5, False] == 400
    # the generator families and random entries reach both answers
    assert sum(outcomes[f, True] for f in range(4)) >= 300
    assert sum(outcomes[f, False] for f in range(4)) >= 300


def test_dimension_cap():
    # checked before any subset is enumerated, so a 13x13 matrix stays cheap
    big = RatMatrix.identity(13)
    for check in (
        is_completely_s,
        is_p_matrix,
        is_m_matrix,
        is_positive_definite,
        has_staircase_sign_pattern,
        classify_matrix,
        lambda matrix: build_system(matrix, [1] * matrix.rows),
    ):
        with pytest.raises(DimensionCapError, match="cap 12"):
            check(big)


def test_two_by_two_cases():
    assert classify_two_by_two(RatMatrix([[2, -1], [-1, 2]])) is TwoByTwoCase.TIGHT_NONPOSITIVE
    assert classify_two_by_two(RatMatrix([[1, 1], [-1, 1]])) is TwoByTwoCase.TIGHT_MIXED
    assert classify_two_by_two(RatMatrix([[1, -1], [-1, 1]])) is TwoByTwoCase.NOT_COMPLETELY_S
    assert classify_two_by_two(RatMatrix([[1, 0], [1, 1]])) is TwoByTwoCase.NOT_TIGHT_NONNEGATIVE
    assert classify_two_by_two(RatMatrix([[0, 1], [1, 1]])) is TwoByTwoCase.DIAGONAL_FAIL


def test_two_by_two_cases_are_exhaustive_and_exclusive():
    values = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    for a, b, c, d in product(values, repeat=4):
        case = classify_two_by_two(RatMatrix([[a, b], [c, d]]))
        assert isinstance(case, TwoByTwoCase)
        if a <= 0 or d <= 0:
            assert case is TwoByTwoCase.DIAGONAL_FAIL
        else:
            # re-derive the case by first principles
            if (b < 0 < c) or (c < 0 < b):
                assert case is TwoByTwoCase.TIGHT_MIXED
            elif b >= 0 and c >= 0 and (b > 0 or c > 0):
                assert case is TwoByTwoCase.NOT_TIGHT_NONNEGATIVE
            elif a * d - b * c > 0:
                assert case is TwoByTwoCase.TIGHT_NONPOSITIVE
            else:
                assert case is TwoByTwoCase.NOT_COMPLETELY_S


def test_not_completely_s_case_matches_full_test():
    # for positive-diagonal 2x2, the sign case refutes completely-S exactly
    # when the subset enumeration does
    values = [Fraction(-2), Fraction(-1), Fraction(0), Fraction(1), Fraction(2)]
    for b, c in product(values, repeat=2):
        for a, d in ((Fraction(1), Fraction(1)), (Fraction(2), Fraction(1))):
            R = RatMatrix([[a, b], [c, d]])
            case = classify_two_by_two(R)
            ok, _ = is_completely_s(R)
            assert ok == (case is not TwoByTwoCase.NOT_COMPLETELY_S)


def test_staircase_pattern_examples():
    assert has_staircase_sign_pattern(LBFS_REFLECTION)
    assert not has_staircase_sign_pattern(REFLECTION)  # entry (3, 1) nonzero
    for d in (2, 3, 4):
        assert not has_staircase_sign_pattern(RatMatrix.identity(d))
    assert has_staircase_sign_pattern(RatMatrix([[1]]))


def test_staircase_pattern_invariant_under_column_scaling():
    rng = random.Random(31)
    for _ in range(20):
        n = rng.randint(1, 4)
        M = random_matrix(rng, n)
        scales = [Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(n)]
        scaled = M @ RatMatrix.diagonal(scales)
        assert has_staircase_sign_pattern(M) == has_staircase_sign_pattern(scaled)


def test_class_inclusion_chain_on_random_matrices():
    rng = random.Random(32)
    matrices = [random_matrix(rng, rng.randint(1, 4)) for _ in range(60)]
    # completely-S but not P, so the S-LP sweep has to run
    matrices += [
        RatMatrix([[1, 1], [1, 1]]),
        RatMatrix([[1, 2], [2, 1]]),
        RatMatrix([[1, 0, 0], [0, 1, 3], [0, 3, 1]]),
    ]
    non_p_completely_s = 0
    for M in matrices:
        report = classify_matrix(M)
        # each field agrees with its standalone predicate
        completely_s, cs_failure = is_completely_s(M)
        p, p_failure = is_p_matrix(M)
        assert report.is_completely_s == completely_s
        assert report.is_p == p
        assert report.is_m == is_m_matrix(M)
        assert report.is_positive_definite == is_positive_definite(M)
        assert report.has_staircase_pattern == has_staircase_sign_pattern(M)
        assert report.failing_subset == (cs_failure if not completely_s else p_failure)
        non_p_completely_s += completely_s and not p
        if report.is_m:
            assert report.is_p
        if report.is_p:
            assert report.is_completely_s
        if report.is_positive_definite:
            assert report.is_p
        # failing subset is present exactly when completely-S or P fails
        assert (report.failing_subset is not None) == (
            not report.is_completely_s or not report.is_p
        )
    assert non_p_completely_s >= 3


def test_class_report_for_reflection_matrix():
    report = classify_matrix(REFLECTION)
    assert report.is_completely_s
    assert report.is_p
    assert not report.is_m
    assert report.failing_subset is None
    # slotted: no per-instance __dict__; equality and replace() work as before
    assert not hasattr(report, "__dict__")
    assert replace(report) == report and replace(report, is_m=True).is_m
