"""Exception types shared across the package."""

from __future__ import annotations


class ReflectoError(Exception):
    """Base class for every error raised by this package."""


class RationalParseError(ReflectoError, ValueError):
    """A string is not a canonical rational literal of the form p, -p or p/q."""


class MatrixShapeError(ReflectoError, ValueError):
    """A matrix operation received operands of incompatible dimensions."""


class SingularMatrixError(ReflectoError, ArithmeticError):
    """An inverse was requested for a matrix whose determinant is zero."""


class DimensionCapError(ReflectoError, ValueError):
    """Work that grows as 2^d was requested above its dimension cap.

    The caps cover the subset enumerations of classification and the
    tightness LP, whose system has 2^d + d*2^(d-1) unknowns.
    """


class NotCompletelySError(ReflectoError, ValueError):
    """A tight-matrix decision was requested for a matrix outside its domain.

    The decision procedure presumes a completely-S matrix; the offending
    principal index set is carried so callers can report it.
    """

    def __init__(self, failing_subset: tuple[int, ...]):
        self.failing_subset = tuple(failing_subset)
        super().__init__(
            "matrix is not completely-S: principal submatrix on indices "
            f"{set(self.failing_subset)} admits no positive vector with a "
            "strictly positive image"
        )


class QSingularError(ReflectoError, ArithmeticError):
    """The station workload matrix is singular, so no reflection matrix exists."""


class SpecValidationError(ReflectoError, ValueError):
    """A network description violates one of its structural invariants."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        lines = "; ".join(f"{field}: {message}" for field, message in self.issues)
        super().__init__(f"invalid network description ({lines})")


class MissingVariableError(ReflectoError, ValueError):
    """An assignment omits a variable the system requires."""

    def __init__(self, key: str):
        self.key = key
        super().__init__(f"assignment is missing variable {key}")


class InternalInconsistencyError(ReflectoError, RuntimeError):
    """Two independent computation paths disagreed; indicates a bug, not bad input."""
