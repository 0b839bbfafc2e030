"""Membership tests for the matrix classes that govern reflection matrices.

A square matrix is an S-matrix when some positive vector has a strictly
positive image, completely-S when every principal submatrix is an S-matrix,
a P-matrix when every principal minor is positive, and an M-matrix when it is
a P-matrix with nonpositive off-diagonal entries.  The inclusions
M => P => completely-S hold and are asserted by the test suite.

The strict system {x > 0, Cx > 0} is decided through the closed feasibility
system {x >= 0, Cx >= 1}: a solution of the closed system yields x + eps*1 as
a strict solution for small eps, and conversely any strict solution scales
into the closed one.  This makes the question decidable by one exact LP.

Principal subsets are enumerated in lexicographic order of their sorted index
tuples, and the first failing subset is reported, so results are deterministic
regardless of any internal evaluation order.  The P-test visits the subsets in
that order with one fraction-free elimination step per subset: it never forms
a principal submatrix or calls ``RatMatrix.det``, so each minor costs O(d^2)
integer operations (see ``is_p_matrix``).  On a Z-matrix the d leading
minors {1..k} decide the P-property, one elimination chain of O(d^3); on a
Hessenberg matrix the d(d+1)/2 minors on intervals {i..j} decide it.  The
walk visits those alone unless an interval minor fails.  Positive
definiteness is the leading chain of the symmetric part, so no test here
computes a determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import Iterator, Optional

from .errors import DimensionCapError, MatrixShapeError
from .linprog import LpStatus, Relation, constraint, linear_program, lp_solve
from .matrix import RatMatrix

DEFAULT_DIMENSION_CAP = 12


def subsets_lex(n: int) -> Iterator[tuple[int, ...]]:
    """All nonempty subsets of {1..n} in lexicographic order of sorted tuples."""

    def rec(prefix: tuple[int, ...], start: int) -> Iterator[tuple[int, ...]]:
        for k in range(start, n + 1):
            current = prefix + (k,)
            yield current
            yield from rec(current, k + 1)

    yield from rec((), 1)


def _require_square(matrix: RatMatrix) -> int:
    """The dimension of a square matrix; the one shape check of every
    classification and tightness entry point."""
    if not matrix.is_square:
        raise MatrixShapeError(f"the matrix must be square, got {matrix.rows}x{matrix.cols}")
    return matrix.rows


def _check_cap(d: int) -> None:
    if d > DEFAULT_DIMENSION_CAP:
        raise DimensionCapError(
            f"dimension {d} exceeds the subset-enumeration cap {DEFAULT_DIMENSION_CAP}"
        )


def is_s_matrix(matrix: RatMatrix) -> bool:
    """True iff some x > 0 has Cx > 0, decided by exact LP feasibility."""
    d = _require_square(matrix)
    rows = [
        constraint(matrix.row(i), Relation.GE, 1)
        for i in range(d)
    ]
    outcome = lp_solve(linear_program([Fraction(0)] * d, rows))
    return outcome.status is LpStatus.OPTIMAL


def is_completely_s(matrix: RatMatrix) -> tuple[bool, Optional[tuple[int, ...]]]:
    """Check every principal submatrix; returns the first failing subset."""
    d = _require_square(matrix)
    _check_cap(d)
    for subset in subsets_lex(d):
        if not is_s_matrix(matrix.principal_submatrix(subset)):
            return False, subset
    return True, None


def is_p_matrix(matrix: RatMatrix) -> tuple[bool, Optional[tuple[int, ...]]]:
    """True iff every principal minor is positive; first failure reported.

    Each row is first multiplied by the lcm of its denominators.  Scaling row
    i by m_i > 0 multiplies the minor on a subset S by the product of m_i over
    S, a positive factor, so every principal minor keeps its sign and the
    test runs on integers.

    The subsets are then walked depth first in ``subsets_lex`` order.  At a
    prefix S with minor p = det A[S] > 0, ``block[a][b]`` is the bordered
    minor det A[S + (j,), S + (k,)] for the indices j, k above S.  Its
    diagonal entry for j is the principal minor of S + (j,), and by
    Sylvester's identity one Bareiss step with that pivot, divided exactly by
    p, gives the bordered minors of S + (j,) (Tsatsomeros and Li, "A
    recursive test for P-matrices", BIT 40, 2000).  A subset costs O(d^2)
    integer operations, and the walk stops at the first nonpositive minor.

    For two structures fewer minors already decide the question, and the
    walk first visits only those:

    * a Z-matrix (off-diagonal entries <= 0) with positive leading minors
      det A[{1..k}] is a nonsingular M-matrix, hence P (Fiedler and Ptak,
      Czech. Math. J. 12, 1962): d minors, one Bareiss chain of O(d^3);
    * in an upper Hessenberg matrix (A_ij = 0 for i > j + 1) or a lower one,
      A[S] is block triangular over the runs of consecutive indices in S, so
      det A[S] is a product of the d(d+1)/2 interval minors det A[{i..j}].

    The reported subset is always the lexicographically first failure.  The
    full walk visits the leading chain before any other subset, so a failing
    leading minor is that failure already.  A gapped subset can come before
    a failing interval, so there the full walk runs.
    """
    d = _require_square(matrix)
    _check_cap(d)
    integer_rows = []
    for row in matrix.row_lists():
        mult = lcm(*(v.denominator for v in row))
        integer_rows.append([v.numerator * (mult // v.denominator) for v in row])
    mode = _deciding_minors(matrix)
    failing = _first_nonpositive_minor(integer_rows, (), 0, 1, mode)
    if failing is not None and mode is _INTERVALS:
        failing = _first_nonpositive_minor(integer_rows, (), 0, 1, _ALL)
    return failing is None, failing


# Which principal minors a walk visits: every one, the intervals {i..j}, or
# the leading chain {1..k}.
_ALL, _INTERVALS, _LEADING = "all", "intervals", "leading"


def _deciding_minors(matrix: RatMatrix) -> str:
    """The leading chain for a Z-matrix, the intervals for an upper or lower
    Hessenberg matrix, else every minor (see ``is_p_matrix``)."""
    if _nonpositive_off_diagonal(matrix):
        return _LEADING
    d, at = matrix.rows, matrix.at
    if all(at(i, j).numerator == 0 for i in range(d) for j in range(i - 1)) or all(
        at(j, i).numerator == 0 for i in range(d) for j in range(i - 1)
    ):
        return _INTERVALS
    return _ALL


def _first_nonpositive_minor(
    block: list[list[int]],
    prefix: tuple[int, ...],
    first: int,
    prev: int,
    mode: str,
) -> Optional[tuple[int, ...]]:
    # block[a] belongs to the 0-based index first + a; prev is det A[prefix].
    # _INTERVALS takes only the first branch below the top level, so the walk
    # visits exactly the subsets {i..j}; _LEADING takes only the first branch
    # at every level, the subsets {1..k}.
    for a, pivot_row in enumerate(block):
        subset = prefix + (first + a + 1,)
        pivot = pivot_row[a]
        if pivot <= 0:
            return subset
        tail = a + 1
        child = [
            [(pivot * row[c] - row[a] * pivot_row[c]) // prev for c in range(tail, len(row))]
            for row in block[tail:]
        ]
        failing = _first_nonpositive_minor(child, subset, first + tail, pivot, mode)
        if failing is not None or mode is _LEADING or (mode is _INTERVALS and prefix):
            return failing
    return None


def _nonpositive_off_diagonal(matrix: RatMatrix) -> bool:
    # A Fraction's sign is its numerator's; reading it skips Fraction's
    # comparison operators.
    return all(
        v.numerator <= 0
        for i in range(matrix.rows)
        for j, v in enumerate(matrix.row(i))
        if i != j
    )


def is_m_matrix(matrix: RatMatrix) -> bool:
    """P-matrix with nonpositive off-diagonal entries."""
    _require_square(matrix)
    return _nonpositive_off_diagonal(matrix) and is_p_matrix(matrix)[0]


def is_positive_definite(matrix: RatMatrix) -> bool:
    """x'Mx > 0 for all nonzero real x, decided on the symmetric part M + M'.

    x'Mx = x'(M + M')x / 2, and a symmetric matrix is positive definite
    exactly when its leading minors are positive (Sylvester's criterion;
    Horn and Johnson, Matrix Analysis, Thm 7.2.5).  M + M' is scaled to
    integers by one lcm of all denominators, which keeps it symmetric, and
    the leading chain of the walk in ``is_p_matrix`` decides it: d minors,
    stopping at the first nonpositive one.  Like every class test it refuses
    d > DEFAULT_DIMENSION_CAP.
    """
    d = _require_square(matrix)
    _check_cap(d)
    rows = matrix.row_lists()
    mult = lcm(*(v.denominator for row in rows for v in row))
    scaled = [[v.numerator * (mult // v.denominator) for v in row] for row in rows]
    symmetric = [[scaled[i][j] + scaled[j][i] for j in range(d)] for i in range(d)]
    return _first_nonpositive_minor(symmetric, (), 0, 1, _LEADING) is None


class TwoByTwoCase(Enum):
    """Exhaustive, mutually exclusive sign cases for a 2x2 reflection matrix."""

    DIAGONAL_FAIL = "diagonal_fail"          # some diagonal entry <= 0
    TIGHT_NONPOSITIVE = "tight_nonpositive"  # off-diag <= 0 and det > 0
    TIGHT_MIXED = "tight_mixed"              # off-diag of strictly opposite signs
    NOT_TIGHT_NONNEGATIVE = "not_tight_nonnegative"  # off-diag >= 0, not both 0
    NOT_COMPLETELY_S = "not_completely_s"    # off-diag <= 0 and det <= 0


def classify_two_by_two(matrix: RatMatrix) -> TwoByTwoCase:
    """Sign classification deciding tightness for 2x2 matrices.

    With a positive diagonal, the matrix is tight (and completely-S) exactly
    in the TIGHT_NONPOSITIVE and TIGHT_MIXED cases; NOT_TIGHT_NONNEGATIVE is
    completely-S but not tight; NOT_COMPLETELY_S fails the S-property.
    """
    if not matrix.is_square or matrix.rows != 2:
        raise MatrixShapeError("two-by-two classification requires a 2x2 matrix")
    a, b = matrix.at(0, 0), matrix.at(0, 1)
    c, d = matrix.at(1, 0), matrix.at(1, 1)
    if a <= 0 or d <= 0:
        return TwoByTwoCase.DIAGONAL_FAIL
    if (b < 0 < c) or (c < 0 < b):
        return TwoByTwoCase.TIGHT_MIXED
    if b >= 0 and c >= 0 and (b > 0 or c > 0):
        return TwoByTwoCase.NOT_TIGHT_NONNEGATIVE
    # both off-diagonal entries are <= 0 (and not in the mixed/nonnegative cases)
    if a * d - b * c > 0:
        return TwoByTwoCase.TIGHT_NONPOSITIVE
    return TwoByTwoCase.NOT_COMPLETELY_S


def has_staircase_sign_pattern(matrix: RatMatrix) -> bool:
    """P-matrix whose lower part is a strict staircase.

    Pattern: positive diagonal, strictly negative first subdiagonal, zeros
    everywhere below it, arbitrary entries above the diagonal.  Matrices of
    this shape are tight for every positive scale vector, and the pattern is
    invariant under right-multiplication by a positive diagonal matrix.
    """
    _check_cap(_require_square(matrix))
    return _staircase_signs(matrix) and is_p_matrix(matrix)[0]


def _staircase_signs(matrix: RatMatrix) -> bool:
    for i in range(matrix.rows):
        row = matrix.row(i)
        if row[i].numerator <= 0:
            return False
        if i >= 1 and row[i - 1].numerator >= 0:
            return False
        if any(v.numerator for v in row[: max(i - 1, 0)]):
            return False
    return True


@dataclass(frozen=True, slots=True)
class ClassReport:
    """Summary of class membership for one square matrix.

    ``failing_subset`` carries the first principal index set refuting
    completely-S membership, or, when completely-S holds but the P-property
    fails, the first subset with a nonpositive minor.  ``has_staircase_pattern``
    is the answer of ``has_staircase_sign_pattern``.
    """

    is_completely_s: bool
    is_p: bool
    is_m: bool
    is_positive_definite: bool
    has_staircase_pattern: bool
    failing_subset: Optional[tuple[int, ...]] = None


def classify_matrix(matrix: RatMatrix) -> ClassReport:
    """Run every class test and package the result.

    The principal minors are computed once.  P implies completely-S, so the
    2^d - 1 S-LPs run only when some minor is nonpositive; the M-property and
    the staircase pattern are the P-property plus a sign condition.
    """
    p, p_failure = is_p_matrix(matrix)
    if p:
        completely_s, failing = True, None
    else:
        completely_s, failing = is_completely_s(matrix)
        if completely_s:
            failing = p_failure
    return ClassReport(
        is_completely_s=completely_s,
        is_p=p,
        is_m=p and _nonpositive_off_diagonal(matrix),
        is_positive_definite=is_positive_definite(matrix),
        has_staircase_pattern=p and _staircase_signs(matrix),
        failing_subset=failing,
    )
