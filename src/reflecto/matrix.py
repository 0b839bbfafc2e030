"""Dense matrices over exact rationals.

No package path computes a determinant: the signs of minors come from the
P-matrix test in ``classify``, which runs the fraction-free (Bareiss)
recurrence once over the whole subset tree, and singularity from the
``SingularMatrixError`` of ``inverse``.  ``det`` stays for the tests and the
benchmark tracer.  Inverses use exact Gauss-Jordan elimination directly on
``Fraction`` entries.  Pivoting is always "first nonzero row", so results are
deterministic.

Index conventions: raw entry access is 0-based (``at``), while index *sets*
naming rows/columns of principal submatrices are 1-based throughout the
package, matching the station/class numbering used everywhere else.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

from .errors import MatrixShapeError, SingularMatrixError
from .rational import Rational, RationalLike, as_rational, format_rational


class RatMatrix:
    """Immutable dense matrix of ``Fraction`` entries."""

    __slots__ = ("_rows", "rows", "cols")

    def __init__(self, rows: Iterable[Iterable[RationalLike]]):
        converted = tuple(tuple(as_rational(v) for v in row) for row in rows)
        if not converted:
            raise MatrixShapeError("matrix must have at least one row")
        width = len(converted[0])
        if width == 0:
            raise MatrixShapeError("matrix must have at least one column")
        if any(len(row) != width for row in converted):
            raise MatrixShapeError("all rows must have the same length")
        self._rows = converted
        self.rows = len(converted)
        self.cols = width

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(
            [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "RatMatrix":
        return RatMatrix([[Fraction(0)] * cols for _ in range(rows)])

    @staticmethod
    def diagonal(values: Sequence[RationalLike]) -> "RatMatrix":
        vals = [as_rational(v) for v in values]
        n = len(vals)
        return RatMatrix(
            [[vals[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
        )

    # -- basic access ------------------------------------------------------

    def at(self, r: int, c: int) -> Rational:
        return self._rows[r][c]

    def row(self, r: int) -> tuple[Rational, ...]:
        return self._rows[r]

    def row_lists(self) -> list[list[Rational]]:
        return [list(row) for row in self._rows]

    def to_strings(self) -> list[list[str]]:
        return [[format_rational(v) for v in row] for row in self._rows]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RatMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        body = "; ".join(" ".join(format_rational(v) for v in row) for row in self._rows)
        return f"RatMatrix({self.rows}x{self.cols}: {body})"

    # -- arithmetic --------------------------------------------------------

    def _require_same_shape(self, other: "RatMatrix") -> None:
        if self.rows != other.rows or self.cols != other.cols:
            raise MatrixShapeError(
                f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}"
            )

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix(
            [
                [a + b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        self._require_same_shape(other)
        return RatMatrix(
            [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(self._rows, other._rows)
            ]
        )

    def scale(self, factor: RationalLike) -> "RatMatrix":
        f = as_rational(factor)
        return RatMatrix([[f * v for v in row] for row in self._rows])

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise MatrixShapeError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        cols = other.transpose()._rows
        return RatMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in cols] for row in self._rows]
        )

    def apply(self, vector: Sequence[RationalLike]) -> tuple[Rational, ...]:
        """Matrix-vector product."""
        vec = [as_rational(v) for v in vector]
        if len(vec) != self.cols:
            raise MatrixShapeError(f"vector length {len(vec)} != {self.cols} columns")
        return tuple(sum(a * b for a, b in zip(row, vec)) for row in self._rows)

    def transpose(self) -> "RatMatrix":
        return RatMatrix([list(col) for col in zip(*self._rows)])

    # -- elimination kernels -------------------------------------------------

    def det(self) -> Rational:
        """Exact determinant via fraction-free Bareiss elimination.

        Rows are first cleared to integers (tracking the total scale), then the
        Bareiss recurrence keeps every intermediate entry equal to a minor of
        the integer matrix, so nothing grows beyond determinant size.

        No package path calls it: the tests use it as their reference, and
        ``perfbench/tracer.py`` wraps it as a span.
        """
        if not self.is_square:
            raise MatrixShapeError("determinant requires a square matrix")
        n = self.rows
        scale = Fraction(1)
        work: list[list[int]] = []
        for row in self._rows:
            mult = lcm(*(v.denominator for v in row)) if row else 1
            scale *= mult
            work.append([int(v * mult) for v in row])

        sign = 1
        prev = 1
        for k in range(n - 1):
            pivot_row = next((i for i in range(k, n) if work[i][k] != 0), None)
            if pivot_row is None:
                return Fraction(0)
            if pivot_row != k:
                work[k], work[pivot_row] = work[pivot_row], work[k]
                sign = -sign
            pivot = work[k][k]
            top = work[k]
            for i in range(k + 1, n):
                row_i = work[i]
                factor = row_i[k]
                for j in range(k + 1, n):
                    row_i[j] = (row_i[j] * pivot - factor * top[j]) // prev
                row_i[k] = 0
            prev = pivot
        return Fraction(sign * work[n - 1][n - 1]) / scale

    def inverse(self) -> "RatMatrix":
        """Exact inverse via Gauss-Jordan; raises SingularMatrixError if det = 0."""
        if not self.is_square:
            raise MatrixShapeError("inverse requires a square matrix")
        n = self.rows
        aug = [list(row) + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(self._rows)]
        for k in range(n):
            pivot_row = next((i for i in range(k, n) if aug[i][k] != 0), None)
            if pivot_row is None:
                raise SingularMatrixError("matrix is singular")
            if pivot_row != k:
                aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            pivot = aug[k][k]
            aug[k] = [v / pivot for v in aug[k]]
            for i in range(n):
                if i == k:
                    continue
                factor = aug[i][k]
                if factor != 0:
                    aug[i] = [a - factor * b for a, b in zip(aug[i], aug[k])]
        return RatMatrix([row[n:] for row in aug])

    # -- submatrices ---------------------------------------------------------

    def principal_submatrix(self, subset: Iterable[int]) -> "RatMatrix":
        """Principal submatrix on a set of 1-based indices, in ascending order."""
        if not self.is_square:
            raise MatrixShapeError("principal submatrix requires a square matrix")
        indices = sorted(set(subset))
        if not indices:
            raise MatrixShapeError("index subset must be nonempty")
        if indices[0] < 1 or indices[-1] > self.rows:
            raise MatrixShapeError(f"indices {indices} out of range 1..{self.rows}")
        return RatMatrix(
            [[self._rows[i - 1][j - 1] for j in indices] for i in indices]
        )
