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

from .classify import (
    TwoByTwoCase,
    _check_cap,
    _memberships,
    _require_square,
    classify_two_by_two,
)
from .errors import (
    DimensionCapError,
    InternalInconsistencyError,
    MatrixShapeError,
    MissingVariableError,
    NotCompletelySError,
    RationalParseError,
    ReflectoError,
)
from .linprog import (
    Constraint,
    LinearProgram,
    LpStatus,
    Relation,
    lp_solve,
    row_value,
)
from .matrix import RatMatrix
from .rational import Rational, RationalLike, as_rational, format_rational, parse_rational

# Largest d for which check_tight_system runs its LP.  On a system that sign
# forcing leaves open, such as p_not_m_rows(Random(17), d) of perfbench at
# b = 1, the LP takes 0.06 s at d = 5, 0.8 s at d = 6 and 8 s at d = 7 (one
# run each, Python 3.11.7, shared 2-vCPU Intel Xeon); with every
# monotonicity row active it took 0.5 s, 8.4 s and 704 s.  Above the cap,
# only systems that sign forcing closes without an LP are answered.
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
    b: tuple[Rational, ...]
    variables: tuple[VarIndex, ...]  # free canonical variables, in column order
    rows: tuple[SystemRow, ...]


def _check_inputs(reflection: RatMatrix, b: Sequence[RationalLike]) -> tuple[Rational, ...]:
    _check_cap(_require_square(reflection))
    scale = tuple(as_rational(v) for v in b)
    if len(scale) != reflection.rows:
        raise MatrixShapeError(
            f"b has {len(scale)} entries for a {reflection.rows}x{reflection.rows} matrix"
        )
    if any(v <= 0 for v in scale):
        raise MatrixShapeError("b must be strictly positive")
    return scale


@dataclass(frozen=True)
class _Skeleton:
    """The part of every d x d system that does not depend on R or b.

    ``balance`` has one ``(label, i, x_D, slots)`` per balance row, in row
    order: i is 0-based, and ``slots`` lists ``(j, x_D^(j))`` for j = 0..d-1,
    with ``None`` for the anchor x_{}^(j) of a singleton D = {j}.  The
    interior x_D sorts before every boundary unknown, and these by j, so a
    row's terms come out in canonical order.  ``monotone`` holds the finished
    monotonicity rows.
    """

    variables: tuple[VarIndex, ...]
    balance: tuple[tuple[str, int, VarIndex, tuple[tuple[int, Optional[VarIndex]], ...]], ...]
    monotone: tuple[SystemRow, ...]


@lru_cache(maxsize=1)
def _skeleton(d: int) -> _Skeleton:
    """Rows and variables of the d x d system; one dimension is kept, as in
    ``canonical_variables``."""
    indices = list(range(1, d + 1))
    nonempty = [frozenset(subset) for subset in _all_subsets(d) if subset]

    def set_name(subset) -> str:
        return "{" + ",".join(str(i) for i in sorted(subset)) + "}"

    balance = []
    for dset in nonempty:
        slots = []
        for j in indices:
            var = VarIndex.boundary(j, dset)
            slots.append((j - 1, None if var.is_constant else var))
        plain, slots = VarIndex.plain(dset), tuple(slots)
        balance.extend(
            (f"balance[D={set_name(dset)},i={i}]", i - 1, plain, slots) for i in sorted(dset)
        )

    # monotonicity rows on cover pairs, interior family first; transitivity
    # supplies the full order, and a cover from an anchor is part of the box
    monotone = []
    one, minus_one, zero = Fraction(1), Fraction(-1), Fraction(0)
    for j in (None, *indices):
        for dset in nonempty:
            if j in dset:
                continue
            for m in indices:
                if m in dset or m == j:
                    continue
                lower, upper = VarIndex(dset, j), VarIndex(dset | {m}, j)
                monotone.append(
                    SystemRow(
                        f"mono[{lower.key()}>={upper.key()}]",
                        ((lower, one), (upper, minus_one)),
                        Relation.GE,
                        zero,
                    )
                )
    variables = tuple(v for v in canonical_variables(d) if not v.is_constant)
    return _Skeleton(variables, tuple(balance), tuple(monotone))


def build_system(reflection: RatMatrix, b: Sequence[RationalLike]) -> TightnessSystem:
    """Assemble the balance and monotonicity rows over canonical variables.

    Row (D, i) of the balance family has the term R_ij b_j on x_D^(j) for
    every j, or on the rhs for the anchor, and minus their sum on x_D; the
    d^2 products and d sums are formed once per call, and everything else
    comes from the cached skeleton of the dimension.  Every row is active at
    the all-ones assignment by construction (after y = 1 - x it is
    homogeneous): each row's coefficient sum is checked to equal its rhs
    before returning.  Raises DimensionCapError above DEFAULT_DIMENSION_CAP
    before any subset is enumerated.
    """
    scale = _check_inputs(reflection, b)
    d = reflection.rows
    skeleton = _skeleton(d)
    coefficients = [[reflection.at(i, j) * scale[j] for j in range(d)] for i in range(d)]
    interior = [-sum(row, Fraction(0)) for row in coefficients]

    rows: list[SystemRow] = []
    zero = Fraction(0)
    for label, i, plain, slots in skeleton.balance:
        row = coefficients[i]
        terms = [(plain, interior[i])] if interior[i] else []
        rhs = zero
        for j, var in slots:
            c = row[j]
            if not c:
                continue
            if var is None:
                rhs = -c
            else:
                terms.append((var, c))
        rows.append(SystemRow(label, tuple(terms), Relation.EQ, rhs))
    rows.extend(skeleton.monotone)

    for row in rows:
        if _slack_at_ones(row):
            raise InternalInconsistencyError(
                f"every row must be active at the all-ones assignment; {row.label} is not"
            )
    return TightnessSystem(
        dimension=d,
        b=scale,
        variables=skeleton.variables,
        rows=tuple(rows),
    )


def _slack_at_ones(row: SystemRow) -> Rational:
    """rhs minus the row's lhs at x = 1, that is minus its coefficient sum.

    Exact, summed in integers over one running denominator: it runs on every
    row of every system, where a Fraction sum would reduce at each term.
    """
    num, den = row.rhs.numerator, row.rhs.denominator
    for _, c in row.terms:
        n, d = c.numerator, c.denominator
        if d == den:
            num -= n
        else:
            num, den = num * d - n * den, den * d
    return Fraction(num, den)


# --------------------------------------------------------------------------
# verification
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    """One failed check: its label and the values that broke it."""

    label: str
    detail: str


@dataclass(frozen=True)
class VerificationReport:
    is_all_ones: bool
    failed: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return not self.failed

    def failures(self) -> tuple[CheckResult, ...]:
        return self.failed


def verify_assignment(
    system: TightnessSystem, assignment: Mapping[VarIndex, Rational]
) -> VerificationReport:
    """Exact check of every anchor, row and range; reports each one that fails.

    The assignment must cover every canonical variable of the system's
    dimension (constants included).  Failures come in check order: anchors,
    then rows, then ranges; a check that passes leaves no record.
    """
    everything = canonical_variables(system.dimension)
    for var in everything:
        if var not in assignment:
            raise MissingVariableError(var.key())
    value = {var: as_rational(assignment[var]) for var in everything}

    failed: list[CheckResult] = []
    for var in everything:
        if var.is_constant and value[var] != 1:
            failed.append(
                CheckResult(f"anchor[{var.key()}=1]", f"{var.key()} = {format_rational(value[var])}")
            )
    for row in system.rows:
        lhs = row_value(row.terms, value)
        if not row.relation.holds(lhs, row.rhs):
            detail = f"lhs = {format_rational(lhs)}, rhs = {format_rational(row.rhs)}"
            failed.append(CheckResult(row.label, detail))
    for var in system.variables:
        if not 0 <= value[var] <= 1:
            failed.append(
                CheckResult(f"range[{var.key()}]", f"{var.key()} = {format_rational(value[var])}")
            )
    is_all_ones = all(v == 1 for v in value.values())
    return VerificationReport(is_all_ones, tuple(failed))


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

    Before any LP row is built, ``_unforced_count`` closes the system under
    sign forcing.  When every unknown is forced the system is tight and no
    LP runs: every dense M-matrix system at b = 1 tried closes this way,
    ``random_m_matrix(Random(1), 8)`` among them.  Otherwise one LP runs on
    the whole system.  ``build_system`` refuses d above
    DEFAULT_DIMENSION_CAP; above ``LP_DIMENSION_CAP`` a DimensionCapError
    names how many unknowns the closure leaves.

    The LP runs on the substitution y = 1 - x with y >= 0 and one row
    y_k <= 1 per unknown, maximising sum(y) over the rows of the bounded
    system (``_box_program``).  ``build_system`` has checked that every row
    is active at x = 1, so in y every row is homogeneous and gets rhs 0
    without a second pass over its terms.  The monotonicity rows, from two
    thirds of the system at d = 4 to four fifths at d = 7, are lazy rows of
    the LP: they enter only when the optimum breaks them, and the optimum
    is that of the whole system.  y = 0 is feasible, but the solver still enters each balance
    equality with an artificial variable and pivots it out before it
    optimises (80 of 141 pivots on p_not_m_rows(Random(17), 5) at b = 1).
    Over the 96 d = 4 inputs of the benchmark's certify-lp pool, the 16
    M-matrices at b = 1 close; in the other 80 LPs the 1,548 phase-2
    pivots take 55% of the pivot time, the 2,560 pivot-outs 23% and the
    289 dual pivots after lazy rows 22%.  Pivots take about 58% of the
    time of those 96 calls; the rest builds and closes the system, builds
    the balance rows and the tableau, checks the LP's point and verifies
    the witnesses.  From d = 5 on, an LP
    that runs grows about 10x per dimension, hence ``LP_DIMENSION_CAP``.
    Each balance row becomes one sparse LP row over the columns of its own
    unknowns.  The bounds y_k <= 1, the monotonicity rows and the objective
    depend only on d: ``_lp_frame`` builds them once per dimension, and only
    once an LP is due, so a system that closes or is refused allocates
    none.  The witness is re-verified exactly on the whole system, with
    every anchor, row and range check.
    """
    system = build_system(reflection, b)
    nfree = len(system.variables)
    left = _unforced_count(system)
    if not left:
        return TightnessVerdict(True, nfree, Fraction(nfree), None)
    if system.dimension > LP_DIMENSION_CAP:
        raise DimensionCapError(
            f"dimension {system.dimension} exceeds the tightness-LP cap {LP_DIMENSION_CAP}, "
            f"and sign forcing leaves {left} of its {nfree} unknowns"
        )
    outcome = lp_solve(_box_program(system))
    if outcome.status is not LpStatus.OPTIMAL:
        raise InternalInconsistencyError(
            f"the box LP is feasible at y = 0 and bounded; the solver reported {outcome.status.value}"
        )

    optimum = nfree + outcome.optimum
    if optimum == nfree:
        return TightnessVerdict(True, nfree, optimum, None)
    one = Fraction(1)
    witness = {v: one for v in canonical_variables(system.dimension) if v.is_constant}
    for var, y in zip(system.variables, outcome.solution):
        witness[var] = one - y
    report = verify_assignment(system, witness)
    if not report.ok or report.is_all_ones:
        raise InternalInconsistencyError("extracted witness failed verification")
    return TightnessVerdict(False, nfree, optimum, witness)


@dataclass(frozen=True)
class _LpFrame:
    """The part of every d x d box LP that does not depend on R or b.

    ``column`` maps each free unknown to its LP column.  The first
    ``balance_count`` system rows are the balance rows; the monotonicity rows
    after them are ``lazy``, in y-columns and in the same order.  ``box``
    has the rows y_k <= 1, and ``objective`` minimises -sum(y).
    """

    column: Mapping[VarIndex, int]
    balance_count: int
    objective: tuple[Rational, ...]
    box: tuple[Constraint, ...]
    lazy: tuple[Constraint, ...]


@lru_cache(maxsize=1)
def _lp_frame(d: int) -> _LpFrame:
    """The LP frame of dimension d; one dimension is kept, as in ``_skeleton``."""
    skeleton = _skeleton(d)
    column = {var: k for k, var in enumerate(skeleton.variables)}
    lazy = tuple(_y_row(row, column) for row in skeleton.monotone)
    one = Fraction(1)
    box = tuple(Constraint(((k, one),), Relation.LE, one) for k in range(len(column)))
    return _LpFrame(column, len(skeleton.balance), (Fraction(-1),) * len(column), box, lazy)


def _y_row(row: SystemRow, column: Mapping[VarIndex, int]) -> Constraint:
    """``row`` in y = 1 - x over LP columns: its coefficients negate, and its
    rhs is 0 because ``build_system`` checked that it is active at x = 1."""
    return Constraint(tuple((column[var], -c) for var, c in row.terms), row.relation, Fraction(0))


def _box_program(system: TightnessSystem) -> LinearProgram:
    """The LP of ``check_tight_system``: maximise sum(y) over the rows in
    y = 1 - x, with y >= 0 and one row y_k <= 1 per unknown.

    Only the balance rows are built here; the box rows, the lazy
    monotonicity rows and the objective come from the cached frame."""
    frame = _lp_frame(system.dimension)
    balance = tuple(_y_row(row, frame.column) for row in system.rows[: frame.balance_count])
    return LinearProgram(frame.objective, balance + frame.box, frame.lazy)


def _unforced_count(system: TightnessSystem) -> int:
    """How many unknowns sign forcing leaves free; 0 proves the system tight.

    In y = 1 - x each row reads sum(-c_k y_k) <relation> 0 over y >= 0.  An
    equality whose live terms share one sign, or a GE row whose live terms
    are all negative, holds only with every live y_k = 0 (Andersen and
    Andersen, "Presolving in linear programming", Math. Programming 71,
    1995).  Forcing an unknown can make another row single-signed, so the
    rows holding it are checked again, until nothing changes.
    """
    rows = system.rows
    rows_of: dict[VarIndex, list[int]] = {var: [] for var in system.variables}
    for r, row in enumerate(rows):
        for var, _ in row.terms:
            rows_of[var].append(r)
    forced: set[VarIndex] = set()
    pending = list(range(len(rows)))
    while pending:
        row = rows[pending.pop()]
        live = [(var, c.numerator) for var, c in row.terms if var not in forced]
        if not live:
            continue
        # signs of the x coefficients c_k, whose y coefficients are -c_k; the
        # system has only EQ and GE rows
        positive = all(c > 0 for _, c in live)
        if positive or (row.relation is Relation.EQ and all(c < 0 for _, c in live)):
            for var, _ in live:
                forced.add(var)
                pending.extend(rows_of[var])
    return len(system.variables) - len(forced)


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

    The certificates read the class memberships of ``classify_matrix``
    without its definiteness test, which no certificate needs.  Raises
    NotCompletelySError when the matrix fails the completely-S precondition,
    because the tight-matrix question presumes it.  A negative
    ``sample_count`` raises ReflectoError before any LP runs.
    """
    d = reflection.rows
    sampled = _sampled_b(d, sample_count, seed)
    classes = _memberships(reflection)
    if not classes["is_completely_s"]:
        raise NotCompletelySError(classes["failing_subset"])

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

    if classes["has_staircase_pattern"]:
        return TightMatrixDecision(DecisionStatus.TIGHT_PROVEN, ProofMethod.STAIRCASE)

    if classes["is_m"]:
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
