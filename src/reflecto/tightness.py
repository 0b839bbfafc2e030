"""Certification of the subset-indexed boundary system of a reflection matrix.

For a d x d matrix R and a positive vector b, the system couples interior
unknowns x_D (one per index set D) with boundary unknowns x_D^(j), every one
in [0,1], through three families of constraints:

* balance rows: for every nonempty D and every i in D,
  sum_j R[i][j] b[j] (x_D^(j) - x_D) = 0;
* monotonicity: both families are antitone in D under set inclusion;
* anchors: x_{} and every x_{}^(j) equal 1.

Boundary unknowns never depend on their own upper index: x_D^(j) equals
x_{D minus j}^(j).  That merge rule is baked into the variable indexing here
(a boundary variable is stored with j outside its subset), which keeps the
system small and makes the rule hold by construction.

The pair (R, b) is *tight* when the all-ones assignment is the only solution.
Since every variable is bounded above by 1, minimising the total sum over the
feasible polytope decides uniqueness with a single exact LP: the minimum
equals the variable count exactly when all-ones is the unique solution, and
any optimal vertex below that count is a verifiable witness of non-tightness.

A matrix is a *tight matrix* when (R, b) is tight for every b > 0.  That
universal statement is undecidable by sampling, so the layered decision
procedure first applies the sign-pattern certificates (dimension one, the
two-by-two classification, the staircase pattern, the M-matrix criterion) and
only then falls back to the LP oracle on sampled b vectors, reporting an
honest "unknown, all samples tight" when nothing refutes tightness.

The [0,1] range of the boundary unknowns matches their origin as limits of
moment generating functions of probability measures at nonpositive
arguments, and it cannot change a verdict: after y = 1 - x every row is
homogeneous, so the feasible y form a polyhedral cone, and (R, b) is tight
exactly when that cone is {0}.  A box on y only rescales a nonzero point of
the cone.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations
from typing import Mapping, Optional, Sequence

from .classify import TwoByTwoCase, _check_cap, classify_matrix, classify_two_by_two
from .errors import (
    DimensionCapError,
    InternalInconsistencyError,
    MatrixShapeError,
    MissingVariableError,
    NotCompletelySError,
    RationalParseError,
    ReflectoError,
)
from .linprog import Constraint, LpStatus, Relation, constraint, linear_program, lp_solve
from .matrix import RatMatrix
from .rational import Rational, RationalLike, as_rational, format_rational, parse_rational

# Largest d for which check_tight_system runs its LP: about 15 s at d = 7 on
# a random M-matrix at b = 1 (README, "Practical sizes"), where the time grows
# 10-15x per dimension; non-M inputs take far longer (11-18 s against 0.1-0.2 s
# for M-matrices at d = 5); extrapolated, d = 8 would take minutes even on
# M-matrices.
LP_DIMENSION_CAP = 7

# --------------------------------------------------------------------------
# variable indexing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class VarIndex:
    """Canonical name of one system unknown.

    ``j is None`` marks an interior variable x_D; otherwise the variable is
    the boundary unknown for coordinate j, stored with j removed from the
    subset so that the merge rule is an identity of names.
    """

    subset: frozenset
    j: Optional[int] = None

    @staticmethod
    def plain(subset) -> "VarIndex":
        return VarIndex(frozenset(subset), None)

    @staticmethod
    def boundary(j: int, subset) -> "VarIndex":
        return VarIndex(frozenset(subset) - {j}, j)

    @property
    def is_constant(self) -> bool:
        return not self.subset

    def sort_key(self) -> tuple:
        family = 0 if self.j is None else 1
        return (family, self.j or 0, tuple(sorted(self.subset)))

    def key(self) -> str:
        body = ",".join(str(i) for i in sorted(self.subset))
        suffix = "" if self.j is None else f"^({self.j})"
        return "x{" + body + "}" + suffix


@lru_cache(maxsize=1)
def canonical_variables(d: int) -> tuple[VarIndex, ...]:
    """Every canonical variable, constants included: 2^d + d*2^(d-1) names.

    The names for the most recent d are kept, so the systems and witnesses of
    one dimension share them; at d = 12 they take about 20 MiB, which is why
    only one dimension is kept.
    """
    out = [VarIndex.plain(subset) for subset in _all_subsets(d)]
    for j in range(1, d + 1):
        others = [i for i in range(1, d + 1) if i != j]
        out.extend(VarIndex(frozenset(s), j) for s in _all_subsets_of(others))
    return tuple(sorted(out, key=VarIndex.sort_key))


def _all_subsets(d: int):
    return _all_subsets_of(list(range(1, d + 1)))


def _all_subsets_of(items: Sequence[int]):
    for size in range(len(items) + 1):
        yield from (tuple(c) for c in combinations(items, size))


# --------------------------------------------------------------------------
# system
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemRow:
    label: str
    terms: tuple[tuple[VarIndex, Rational], ...]
    relation: Relation
    rhs: Rational


@dataclass(frozen=True)
class TightnessSystem:
    dimension: int
    reflection: RatMatrix
    b: tuple[Rational, ...]
    variables: tuple[VarIndex, ...]  # free canonical variables, in column order
    rows: tuple[SystemRow, ...]


def _check_inputs(reflection: RatMatrix, b: Sequence[RationalLike]) -> tuple[Rational, ...]:
    if not reflection.is_square:
        raise MatrixShapeError("the reflection matrix must be square")
    _check_cap(reflection.rows)
    scale = tuple(as_rational(v) for v in b)
    if len(scale) != reflection.rows:
        raise MatrixShapeError("b must have one entry per coordinate")
    if any(v <= 0 for v in scale):
        raise MatrixShapeError("b must be strictly positive")
    return scale


def build_system(reflection: RatMatrix, b: Sequence[RationalLike]) -> TightnessSystem:
    """Assemble the balance and monotonicity rows over canonical variables.

    The all-ones assignment is feasible by construction; this is asserted
    before returning.  Raises DimensionCapError above DEFAULT_DIMENSION_CAP
    before any subset is enumerated.
    """
    scale = _check_inputs(reflection, b)
    d = reflection.rows
    indices = list(range(1, d + 1))
    nonempty = [subset for subset in _all_subsets(d) if subset]

    variables = tuple(v for v in canonical_variables(d) if not v.is_constant)
    rows: list[SystemRow] = []

    def set_name(subset) -> str:
        return "{" + ",".join(str(i) for i in sorted(subset)) + "}"

    # balance rows
    for subset in nonempty:
        dset = frozenset(subset)
        for i in subset:
            terms: dict[VarIndex, Rational] = {}
            rhs = Fraction(0)
            total = Fraction(0)
            for j in indices:
                coefficient = reflection.at(i - 1, j - 1) * scale[j - 1]
                total += coefficient
                if coefficient == 0:
                    continue
                var = VarIndex.boundary(j, dset)
                if var.is_constant:
                    rhs -= coefficient
                else:
                    terms[var] = terms.get(var, Fraction(0)) + coefficient
            if total != 0:
                plain = VarIndex.plain(dset)
                terms[plain] = terms.get(plain, Fraction(0)) - total
            terms = {v: c for v, c in terms.items() if c != 0}
            rows.append(
                SystemRow(
                    f"balance[D={set_name(subset)},i={i}]",
                    tuple(sorted(terms.items(), key=lambda t: t[0].sort_key())),
                    Relation.EQ,
                    rhs,
                )
            )

    # monotonicity rows on cover pairs, interior family first; transitivity
    # supplies the full order, and a cover from an anchor is part of the box
    for j in (None, *indices):
        for subset in nonempty:
            dset = frozenset(subset)
            if j in dset:
                continue
            for m in indices:
                if m in dset or m == j:
                    continue
                lower, upper = VarIndex(dset, j), VarIndex(dset | {m}, j)
                rows.append(
                    SystemRow(
                        f"mono[{lower.key()}>={upper.key()}]",
                        ((lower, Fraction(1)), (upper, Fraction(-1))),
                        Relation.GE,
                        Fraction(0),
                    )
                )

    system = TightnessSystem(
        dimension=d,
        reflection=reflection,
        b=scale,
        variables=variables,
        rows=tuple(rows),
    )

    ones = {v: Fraction(1) for v in canonical_variables(d)}
    report = verify_assignment(system, ones)
    if not report.ok:
        raise InternalInconsistencyError(
            "the all-ones assignment must satisfy every constraint"
        )
    return system


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    label: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    is_all_ones: bool
    checks: tuple[CheckResult, ...]

    def failures(self) -> tuple[CheckResult, ...]:
        return tuple(c for c in self.checks if not c.passed)


def verify_assignment(
    system: TightnessSystem, assignment: Mapping[VarIndex, Rational]
) -> VerificationReport:
    """Exact check of every constraint; reports each row separately.

    The assignment must cover every canonical variable of the system's
    dimension (constants included).
    """
    everything = canonical_variables(system.dimension)
    for var in everything:
        if var not in assignment:
            raise MissingVariableError(var.key())

    checks: list[CheckResult] = []

    def value(var: VarIndex) -> Rational:
        return as_rational(assignment[var])

    for var in everything:
        if var.is_constant:
            v = value(var)
            checks.append(
                CheckResult(
                    f"anchor[{var.key()}=1]",
                    v == 1,
                    f"{var.key()} = {format_rational(v)}",
                )
            )

    for row in system.rows:
        lhs = sum((c * value(v) for v, c in row.terms), Fraction(0))
        if row.relation is Relation.EQ:
            passed = lhs == row.rhs
        elif row.relation is Relation.GE:
            passed = lhs >= row.rhs
        else:
            passed = lhs <= row.rhs
        checks.append(
            CheckResult(
                row.label,
                passed,
                f"lhs = {format_rational(lhs)}, rhs = {format_rational(row.rhs)}",
            )
        )

    for var in system.variables:
        v = value(var)
        checks.append(
            CheckResult(f"range[{var.key()}]", 0 <= v <= 1, f"{var.key()} = {format_rational(v)}")
        )

    ok = all(c.passed for c in checks)
    is_all_ones = all(value(v) == 1 for v in everything)
    return VerificationReport(ok=ok, is_all_ones=is_all_ones, checks=checks)


# --------------------------------------------------------------------------
# the LP oracle
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TightnessVerdict:
    """Outcome of the single-LP uniqueness test.

    ``optimum`` is the exact minimum of the variable sum over the [0,1] box;
    it is always set, never None.  The system is tight exactly when the
    optimum equals the number of free variables.  A witness is attached
    whenever the system is not tight.
    """

    tight: bool
    variable_count: int
    optimum: Rational
    witness: Optional[dict]


def check_tight_system(
    reflection: RatMatrix, b: Sequence[RationalLike]
) -> TightnessVerdict:
    """Decide whether (R, b) admits only the all-ones solution.

    One LP runs on the substitution y = 1 - x with y >= 0 and one row
    y_k <= 1 per unknown, maximising sum(y) over the rows of the bounded
    system.  Every row is homogeneous in y, so y = 0 is feasible; the solver
    still enters each balance equality with an artificial variable and pivots
    it out before it optimises.  Those pivots can be most of the pivot count
    (80 of 93 on a d = 5 M-matrix at b = 1), but not of the time: over the 96
    d = 4 inputs of the benchmark's certify-lp pool, the 3,543 phase-2 pivots
    take 85% of the pivot time and the 3,072 pivot-outs 15%.  The witness is
    re-verified exactly.
    Raises DimensionCapError above ``LP_DIMENSION_CAP``.
    """
    if reflection.rows > LP_DIMENSION_CAP:
        raise DimensionCapError(
            f"dimension {reflection.rows} exceeds the tightness-LP cap {LP_DIMENSION_CAP}"
        )
    system = build_system(reflection, b)
    nfree = len(system.variables)
    column = {var: k for k, var in enumerate(system.variables)}

    rows = []
    for row in system.rows:
        coeffs = [Fraction(0)] * nfree
        coeff_sum = Fraction(0)
        for var, c in row.terms:
            coeffs[column[var]] = -c
            coeff_sum += c
        rows.append(constraint(coeffs, row.relation, row.rhs - coeff_sum))
    # y_k <= 1, built directly: constraint() would coerce nfree^2 zeros.
    zero, one = (Fraction(0),) * nfree, Fraction(1)
    rows.extend(
        Constraint(zero[:k] + (one,) + zero[k + 1:], Relation.LE, one)
        for k in range(nfree)
    )
    objective = [Fraction(-1)] * nfree  # minimise -sum(y) = maximise sum(y)
    outcome = lp_solve(linear_program(objective, rows))
    if outcome.status is not LpStatus.OPTIMAL:
        raise InternalInconsistencyError(
            f"the box LP is feasible at y = 0 and bounded; the solver reported {outcome.status.value}"
        )

    optimum = nfree + outcome.optimum
    if optimum == nfree:
        return TightnessVerdict(True, nfree, optimum, None)
    witness = {
        v: Fraction(1) for v in canonical_variables(system.dimension) if v.is_constant
    }
    for var, y in zip(system.variables, outcome.solution):
        witness[var] = Fraction(1) - y
    report = verify_assignment(system, witness)
    if not report.ok or report.is_all_ones:
        raise InternalInconsistencyError("extracted witness failed verification")
    return TightnessVerdict(False, nfree, optimum, witness)


# --------------------------------------------------------------------------
# the two-by-two explicit witness
# --------------------------------------------------------------------------


def nonnegative_case_witness(reflection: RatMatrix, b: Sequence[RationalLike]) -> dict:
    """Explicit non-tightness witness for 2x2 matrices with off-diag >= 0.

    With a1 = R12 b2 / (R11 b1) and a2 = R21 b1 / (R22 b2), the assignment
    x_{1} = (a1/2 + 1)/(a1 + 1), x_{2} = (a2/2 + 1)/(a2 + 1) and
    x_{1,2} = x_{2}^(1) = x_{1}^(2) = 1/2 satisfies every constraint.
    """
    scale = _check_inputs(reflection, b)
    half = Fraction(1, 2)
    case = classify_two_by_two(reflection)
    if case is not TwoByTwoCase.NOT_TIGHT_NONNEGATIVE:
        raise ReflectoError(
            f"witness construction applies to the nonnegative off-diagonal case, got {case.value}"
        )
    b1, b2 = scale
    a1 = reflection.at(0, 1) * b2 / (reflection.at(0, 0) * b1)
    a2 = reflection.at(1, 0) * b1 / (reflection.at(1, 1) * b2)

    witness = {
        VarIndex.plain(()): Fraction(1),
        VarIndex.boundary(1, (1,)): Fraction(1),
        VarIndex.boundary(2, (2,)): Fraction(1),
        VarIndex.plain((1,)): (half * a1 + 1) / (a1 + 1),
        VarIndex.plain((2,)): (half * a2 + 1) / (a2 + 1),
        VarIndex.plain((1, 2)): half,
        VarIndex.boundary(1, (2,)): half,
        VarIndex.boundary(2, (1,)): half,
    }
    report = verify_assignment(build_system(reflection, scale), witness)
    if not report.ok:
        raise InternalInconsistencyError("explicit witness failed verification")
    return witness


# --------------------------------------------------------------------------
# the layered tight-matrix decision
# --------------------------------------------------------------------------


class DecisionStatus(Enum):
    TIGHT_PROVEN = "tight_proven"
    NOT_TIGHT = "not_tight"
    UNKNOWN_SAMPLED = "unknown_sampled"


class ProofMethod(Enum):
    DIM_ONE = "dim_one"
    TWO_BY_TWO = "two_by_two_signs"
    STAIRCASE = "staircase_pattern"
    M_MATRIX = "m_matrix"


@dataclass(frozen=True, slots=True)
class TightMatrixDecision:
    status: DecisionStatus
    method: Optional[ProofMethod] = None
    b_witness: Optional[tuple[Rational, ...]] = None
    witness: Optional[dict] = None
    tested_b: Optional[tuple[tuple[Rational, ...], ...]] = None


def sample_b_vectors(
    d: int, count: int, seed: int
) -> tuple[tuple[Rational, ...], ...]:
    """Seeded positive rationals u/v with u, v uniform on 1..16."""
    return tuple(_sampled_b(d, count, seed))


def _sampled_b(d: int, count: int, seed: int):
    """Lazy ``sample_b_vectors``; the count is checked when this is called."""
    if count < 0:
        raise ReflectoError(f"sample count must be nonnegative, got {count}")
    rng = random.Random(seed)
    return (
        tuple(Fraction(rng.randint(1, 16), rng.randint(1, 16)) for _ in range(d))
        for _ in range(count)
    )


def decide_tight_matrix(
    reflection: RatMatrix,
    sample_count: int = 20,
    seed: int = 0,
) -> TightMatrixDecision:
    """Layered decision: sign certificates first, then the sampled LP oracle.

    The certificates read one ``classify_matrix`` report.  Raises
    NotCompletelySError when the matrix fails the completely-S precondition,
    because the tight-matrix question presumes it.  A negative
    ``sample_count`` raises ReflectoError before any LP runs.
    """
    d = reflection.rows
    sampled = _sampled_b(d, sample_count, seed)
    report = classify_matrix(reflection)
    if not report.is_completely_s:
        raise NotCompletelySError(report.failing_subset)

    ones = tuple(Fraction(1) for _ in range(d))

    if d == 1:
        return TightMatrixDecision(DecisionStatus.TIGHT_PROVEN, ProofMethod.DIM_ONE)

    if d == 2:
        case = classify_two_by_two(reflection)
        if case in (TwoByTwoCase.TIGHT_NONPOSITIVE, TwoByTwoCase.TIGHT_MIXED):
            return TightMatrixDecision(
                DecisionStatus.TIGHT_PROVEN, ProofMethod.TWO_BY_TWO
            )
        if case is TwoByTwoCase.NOT_TIGHT_NONNEGATIVE:
            witness = nonnegative_case_witness(reflection, ones)
            return TightMatrixDecision(
                DecisionStatus.NOT_TIGHT, b_witness=ones, witness=witness
            )
        raise InternalInconsistencyError(
            "a completely-S 2x2 matrix must fall in a tight or nonnegative case"
        )

    if report.has_staircase_pattern:
        return TightMatrixDecision(DecisionStatus.TIGHT_PROVEN, ProofMethod.STAIRCASE)

    if report.is_m:
        return TightMatrixDecision(DecisionStatus.TIGHT_PROVEN, ProofMethod.M_MATRIX)

    tested: list[tuple[Rational, ...]] = []
    # each sampled b is drawn only when it is about to be tested
    for b in chain((ones,), sampled):
        verdict = check_tight_system(reflection, b)
        tested.append(b)
        if not verdict.tight:
            return TightMatrixDecision(
                DecisionStatus.NOT_TIGHT, b_witness=b, witness=verdict.witness
            )
    return TightMatrixDecision(
        DecisionStatus.UNKNOWN_SAMPLED, tested_b=tuple(tested)
    )


# --------------------------------------------------------------------------
# witness tables (the external serialization format)
# --------------------------------------------------------------------------

_KEY_RE = re.compile(r"^x\{(?P<body>[0-9,]*)\}(?:\^\((?P<j>[0-9]+)\))?$")


def parse_variable_key(key: str, d: int) -> VarIndex:
    """Parse "x{1,3}" or "x{1,3}^(2)" into a canonical variable name."""
    match = _KEY_RE.match(key.strip())
    if not match:
        raise RationalParseError(f"malformed variable key: {key!r}")
    body, j = match.group("body"), match.group("j")
    try:
        subset = tuple(int(piece) for piece in body.split(",")) if body else ()
        j = None if j is None else int(j)
    except ValueError:  # an empty piece, or more digits than int() converts
        raise RationalParseError(f"malformed variable key: {key!r}") from None
    if any(not 1 <= i <= d for i in subset) or len(set(subset)) != len(subset):
        raise RationalParseError(f"indices out of range in key {key!r} for dimension {d}")
    if j is None:
        return VarIndex.plain(subset)
    if not 1 <= j <= d:
        raise RationalParseError(f"boundary index out of range in key {key!r}")
    return VarIndex.boundary(j, subset)


def assignment_to_table(assignment: Mapping[VarIndex, Rational]) -> dict:
    """Serialize an assignment as canonical key/value strings."""
    ordered = sorted(assignment.items(), key=lambda item: item[0].sort_key())
    return {var.key(): format_rational(as_rational(v)) for var, v in ordered}


def assignment_from_table(table: Mapping[str, str], d: int) -> dict:
    """Parse a witness table, merging aliases of the same canonical variable.

    Keys carrying j inside their subset are canonicalized; if two aliases of
    one variable disagree, the table is rejected.
    """
    out: dict[VarIndex, Rational] = {}
    sources: dict[VarIndex, str] = {}
    for key, raw in table.items():
        var = parse_variable_key(key, d)
        value = parse_rational(raw) if isinstance(raw, str) else as_rational(raw)
        if var in out and out[var] != value:
            raise RationalParseError(
                f"conflicting values for {var.key()}: keys {sources[var]!r} and {key!r} disagree"
            )
        out[var] = value
        sources[var] = key
    return out
