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
from functools import cached_property, lru_cache
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
    """Every canonical variable, constants included: 2^d + d*2^(d-1) names,
    in ``VarIndex.sort_key`` order, which is the order of ``_canonical_ids``.

    The names for the most recent d are kept, so the systems, witnesses and
    ``_frame`` of one dimension share them; at d = 12 they take about
    20 MiB, which is why only one dimension is kept.
    """
    return tuple(
        VarIndex(frozenset(i + 1 for i in range(d) if k >> i & 1), k >> d or None)
        for k in _canonical_ids(d)
    )


# Every unknown also has an integer id.  With n = 2^d and bit i - 1 standing
# for index i, the interior x_D is the bitmask of D, and the boundary x_S^(j),
# with j outside S, is j * n + S; the constants are the ids 0 and j * n.
def _canonical_ids(d: int) -> list[int]:
    """Every id, constants included, in the order of ``canonical_variables``:
    each family in the lexicographic order of its subsets' indices."""
    n = 1 << d
    order = sorted(range(n), key=lambda S: [i for i in range(d) if S >> i & 1])
    return order + [j * n + S for j in range(1, d + 1) for S in order if not S >> j - 1 & 1]


def _balance_sets(d: int):
    """``(members, D, slots)`` per nonempty D, in balance-row order (by size,
    then as ``combinations`` lists them): D's 0-based indices, the id of
    x_D, and the ids of x_D^(j+1) by j, None for the anchor of D = {j+1}."""
    n = 1 << d
    for size in range(1, d + 1):
        for members in combinations(range(d), size):
            D = sum(1 << i for i in members)
            slots = tuple(
                None if D == 1 << j else (j + 1) * n + (D & ~(1 << j)) for j in range(d)
            )
            yield members, D, slots


def _cover_pairs(d: int):
    """``(lower, upper)`` ids of each monotonicity row x_D >= x_{D+m}, in
    row order: by family, then D in balance-row order, then m.  D is not
    empty: a cover from an anchor is part of the box."""
    n = 1 << d
    nonempty = [D for _, D, _ in _balance_sets(d)]
    for j in range(d + 1):
        base, own = j * n, (1 << j - 1 if j else 0)
        for D in nonempty:
            if D & own:
                continue
            for m in range(d):
                bit = 1 << m
                if not (D & bit or bit == own):
                    yield base + D, base + (D | bit)


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
class _Frame:
    """The part of every d x d system, and of its box LP, that does not
    depend on R or b.

    ``variables`` names the free unknowns by LP column, in canonical order,
    and ``column`` maps each one's id to its column.  ``balance`` has one
    ``(i, x_D, slots)`` per balance row, in row order: i is 0-based, x_D is
    a column, and ``slots`` lists ``(j, x_D^(j+1))`` for j = 0..d-1, with
    ``None`` for the anchor of a singleton D = {j+1}.  The interior x_D
    sorts before every boundary unknown, and these by j, so a row's terms
    come out in canonical order.  Each consumer's fixed rows are built on
    first use, so a frame that serves only ``build_system`` holds no LP
    row, and one that serves only ``_box_program`` no label or
    ``SystemRow``.
    """

    dimension: int
    variables: tuple[VarIndex, ...]
    column: Mapping[int, int]
    balance: tuple[tuple[int, int, tuple[tuple[int, Optional[int]], ...]], ...]

    def covers(self):
        """The ``(lower, upper)`` columns of each monotonicity row, in row
        order; walked, not kept: as pairs they take about 9 MiB at d = 12."""
        column = self.column
        return ((column[lower], column[upper]) for lower, upper in _cover_pairs(self.dimension))

    @cached_property
    def labels(self) -> tuple[str, ...]:
        # the key of x_D is "x{...}", so its tail is D's name
        names = self.variables
        return tuple(f"balance[D={names[D].key()[1:]},i={i + 1}]" for i, D, _ in self.balance)

    @cached_property
    def monotone(self) -> tuple[SystemRow, ...]:
        one, minus_one, zero = Fraction(1), Fraction(-1), Fraction(0)
        names = self.variables
        pairs = ((names[lower], names[upper]) for lower, upper in self.covers())
        return tuple(
            SystemRow(f"mono[{lo.key()}>={up.key()}]", ((lo, one), (up, minus_one)), Relation.GE, zero)
            for lo, up in pairs
        )

    @cached_property
    def objective(self) -> tuple[Rational, ...]:
        return (Fraction(-1),) * len(self.variables)

    @cached_property
    def box(self) -> tuple[Constraint, ...]:
        one = Fraction(1)
        return tuple(Constraint(((k, one),), Relation.LE, one) for k in range(len(self.variables)))

    @cached_property
    def lazy(self) -> tuple[Constraint, ...]:
        # x_D >= x_{D+m} in y = 1 - x is -y_D + y_{D+m} >= 0
        one, minus_one, zero = Fraction(1), Fraction(-1), Fraction(0)
        return tuple(
            Constraint(((lo, minus_one), (up, one)), Relation.GE, zero) for lo, up in self.covers()
        )


@lru_cache(maxsize=1)
def _frame(d: int) -> _Frame:
    """The frame of dimension d; one dimension is kept, as in
    ``canonical_variables``, whose order gives the free unknowns their LP
    columns, so the LP's point lines up with the system's variables."""
    full = (1 << d) - 1
    variables = tuple(v for v in canonical_variables(d) if not v.is_constant)
    column = {k: c for c, k in enumerate(k for k in _canonical_ids(d) if k & full)}
    balance = []
    for members, D, slots in _balance_sets(d):
        pairs = tuple((j, None if s is None else column[s]) for j, s in enumerate(slots))
        balance.extend((i, column[D], pairs) for i in members)
    return _Frame(d, variables, column, tuple(balance))


def build_system(reflection: RatMatrix, b: Sequence[RationalLike]) -> TightnessSystem:
    """Assemble the balance and monotonicity rows over canonical variables.

    Row (D, i) of the balance family has the term R_ij b_j on x_D^(j) for
    every j, or on the rhs for the anchor, and minus their sum on x_D; the
    d^2 products and d sums are formed once per call, and everything else
    comes from the cached frame of the dimension.  Every row is active at
    the all-ones assignment by construction (after y = 1 - x it is
    homogeneous): each row's coefficient sum is checked to equal its rhs
    before returning.  Raises DimensionCapError above DEFAULT_DIMENSION_CAP
    before any subset is enumerated.
    """
    scale = _check_inputs(reflection, b)
    d = reflection.rows
    frame = _frame(d)
    variables = frame.variables
    coefficients, interior = _products(reflection, scale)

    rows: list[SystemRow] = []
    zero = Fraction(0)
    for label, (i, plain, slots) in zip(frame.labels, frame.balance):
        row = coefficients[i]
        terms = [(variables[plain], interior[i])] if interior[i] else []
        rhs = zero
        for j, k in slots:
            c = row[j]
            if not c:
                continue
            if k is None:
                rhs = -c
            else:
                terms.append((variables[k], c))
        rows.append(SystemRow(label, tuple(terms), Relation.EQ, rhs))
    rows.extend(frame.monotone)

    for row in rows:
        num, den = _row_sum(row.terms)  # the lhs at x = 1
        if num * row.rhs.denominator != row.rhs.numerator * den:
            raise InternalInconsistencyError(
                f"every row must be active at the all-ones assignment; {row.label} is not"
            )
    return TightnessSystem(
        dimension=d,
        b=scale,
        variables=variables,
        rows=tuple(rows),
    )


def _products(
    reflection: RatMatrix, scale: Sequence[Rational]
) -> tuple[list[list[Rational]], list[Rational]]:
    """The x coefficients of balance row (D, i): R_ij b_j on x_D^(j), as
    ``coefficients[i][j]``, and minus their sum on x_D, as ``interior[i]``."""
    d = reflection.rows
    coefficients = [[reflection.at(i, j) * scale[j] for j in range(d)] for i in range(d)]
    return coefficients, [-sum(row, Fraction(0)) for row in coefficients]


def _row_sum(
    terms: Sequence[tuple[VarIndex, Rational]], weight: Optional[Mapping[VarIndex, Rational]] = None
) -> tuple[int, int]:
    """sum(c * weight[var]) over a row's terms, weight 1 when None, as
    (num, den) with den > 0.

    Summed in integers over one running denominator, which grows only when
    a term's denominator differs from it: a Fraction sum would reduce at
    each term, and this runs on every row of every system built.
    """
    num, den = 0, 1
    for var, c in terms:
        n, d = c.numerator, c.denominator
        if weight is not None:
            w = weight[var]
            n, d = n * w.numerator, d * w.denominator
        if d == den:
            num += n
        else:
            num, den = num * d + n * den, den * d
    return num, den


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

    Each row's lhs is summed in integers by ``_row_sum``, over the
    denominators of that row's own terms; a failed row's lhs is evaluated
    again by ``row_value``, in Fractions, for its detail.
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
        num, den = _row_sum(row.terms, value)
        # lhs = num / den against the rhs, both denominators positive
        rhs = row.rhs
        if not row.relation.holds(num * rhs.denominator, rhs.numerator * den):
            lhs = row_value(row.terms, value)
            detail = f"lhs = {format_rational(lhs)}, rhs = {format_rational(rhs)}"
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

    First ``_unforced_count`` closes the system under sign forcing, from
    the signs of R_ij b_j and (R b)_i alone; no system, variable name or LP
    row is built for it.  When every unknown is forced the system is tight
    and no LP runs: every dense M-matrix system at b = 1 tried closes this
    way, ``random_m_matrix(Random(1), 12)`` among them, in 5 ms.  Otherwise
    one LP runs on the whole system.  ``_check_inputs`` refuses d above
    DEFAULT_DIMENSION_CAP before any subset is enumerated; above
    ``LP_DIMENSION_CAP`` a DimensionCapError names how many unknowns the
    closure leaves.

    The LP runs on the substitution y = 1 - x with y >= 0 and one row
    y_k <= 1 per unknown, maximising sum(y) over the rows of the bounded
    system (``_box_program``).  Every row is active at x = 1, so in y every
    row is homogeneous, with rhs 0.  The monotonicity rows, from two
    thirds of the system at d = 4 to four fifths at d = 7, are lazy rows of
    the LP: they enter only when the optimum breaks them, and the optimum
    is that of the whole system.  y = 0 is feasible, so the solver's
    feasibility phase makes no pivot, but it still pivots each balance
    equality in on its least column before it optimises (80 of 141 pivots
    on p_not_m_rows(Random(17), 5) at b = 1).  Over the 96 d = 4 inputs of
    the benchmark's certify-lp pool, the 16 M-matrices at b = 1 close; in
    the other 80 LPs the 1,548 phase-2 pivots take 55% of the pivot time,
    the 2,560 pivot-ins 23% and the 289 dual pivots after lazy rows 22%.
    These shares hold at d = 4 only: on p_not_m_rows(Random(17), d) at
    b = 1 the pivot-ins took about a fifth of the LP at d = 5 and a sixth
    at d = 6 (192 of 389 pivots).  Of the time of those 96 calls, pivots
    take about 68% and the rest of the solver 24% (its tableau, ratio tests
    and point checks); the balance rows take 2%, the products R_ij b_j 1%,
    the closure 0.7%, and building and verifying the system for the 32
    witnesses 3% (each function timed by a wrapper).
    From d = 5 on, an LP that runs grows about 10x per dimension, hence
    ``LP_DIMENSION_CAP``.  Each balance row becomes one sparse LP row over
    the columns of its own unknowns.  The bounds y_k <= 1, the monotonicity
    rows and the objective depend only on d: the cached ``_frame`` of the
    dimension builds them once, and only once an LP is due, so a system
    that closes or is refused allocates none.  The system itself is built
    only for a witness, which is re-verified exactly on it, with every
    anchor, row and range check.
    """
    scale = _check_inputs(reflection, b)
    d = reflection.rows
    coefficients, interior = _products(reflection, scale)
    nfree = _free_count(d)
    left = _unforced_count(coefficients, interior)
    if not left:
        return TightnessVerdict(True, nfree, Fraction(nfree), None)
    if d > LP_DIMENSION_CAP:
        raise DimensionCapError(
            f"dimension {d} exceeds the tightness-LP cap {LP_DIMENSION_CAP}, "
            f"and sign forcing leaves {left} of its {nfree} unknowns"
        )
    outcome = lp_solve(_box_program(coefficients, interior))
    if outcome.status is not LpStatus.OPTIMAL:
        raise InternalInconsistencyError(
            f"the box LP is feasible at y = 0 and bounded; the solver reported {outcome.status.value}"
        )

    optimum = nfree + outcome.optimum
    if optimum == nfree:
        return TightnessVerdict(True, nfree, optimum, None)
    system = build_system(reflection, scale)
    one = Fraction(1)
    witness = {v: one for v in canonical_variables(d) if v.is_constant}
    for var, y in zip(system.variables, outcome.solution):
        witness[var] = one - y
    report = verify_assignment(system, witness)
    if not report.ok or report.is_all_ones:
        raise InternalInconsistencyError("extracted witness failed verification")
    return TightnessVerdict(False, nfree, optimum, witness)


def _box_program(coefficients: list[list[Rational]], interior: list[Rational]) -> LinearProgram:
    """The LP of ``check_tight_system``: maximise sum(y) over the rows in
    y = 1 - x, with y >= 0 and one row y_k <= 1 per unknown.

    Only the balance rows are built here, from ``_products``: in y each x
    coefficient negates, and the anchor's term and the rhs cancel, so each
    row is homogeneous.  The box rows, the lazy monotonicity rows and the
    objective come from the cached frame."""
    frame = _frame(len(coefficients))
    negated = [([-a for a in row], -c) for row, c in zip(coefficients, interior)]
    zero = Fraction(0)
    balance = []
    for i, column, slots in frame.balance:
        row, c = negated[i]
        terms = [(column, c)] if c else []
        terms.extend((k, row[j]) for j, k in slots if k is not None and row[j])
        balance.append(Constraint(tuple(terms), Relation.EQ, zero))
    return LinearProgram(frame.objective, tuple(balance) + frame.box, frame.lazy)


def _unforced_count(coefficients: list[list[Rational]], interior: list[Rational]) -> int:
    """How many unknowns sign forcing leaves free; 0 proves the system tight.

    It reads the rows of ``build_system`` from the signs of ``_products``
    alone.  In y = 1 - x each row reads sum(-c_k y_k) <relation> 0 over
    y >= 0.  An equality whose live terms share one sign, or a GE row whose
    live terms are all negative, holds only with every live y_k = 0
    (Andersen and Andersen, "Presolving in linear programming", Math.
    Programming 71, 1995).  Forcing can make another row single-signed, so
    this repeats until nothing changes; a row that can force still can once
    more unknowns are forced, so the order does not matter.

    Each family, interior or boundary j, is one integer with bit S set when
    its unknown of subset S is forced; the constant at S = {} counts as
    forced.  A monotonicity row x_D >= x_{D+m} forces x_D once x_{D+m} is
    forced, so each family is closed downward, one shift per index.  The
    balance rows (D, i) of one i are decided for every D at once, on bit
    sets over D, where x_D^(j) is the unknown of subset D - {j}.
    """
    d = len(coefficients)
    n = 1 << d
    # has[m]: the subsets S that hold m, as bit S
    has = []
    for m in range(d):
        width = 1 << m
        pattern = ((1 << width) - 1) << width
        while 2 * width < n:
            width *= 2
            pattern |= pattern << width
        has.append(pattern)
    # the nonzero terms of row i: (family, whether its x coefficient is positive)
    terms = []
    for row, c in zip(coefficients, interior):
        signs = [(0, c > 0)] if c else []
        signs.extend((j + 1, a > 0) for j, a in enumerate(row) if a)
        terms.append(signs)
    forced = [1] * (d + 1)
    while True:
        before = list(forced)
        # bit D of dead[f]: row D's unknown of family f is forced
        dead = [forced[0]] + [F | F << (1 << j) for j, F in enumerate(forced[1:])]
        for i, row in enumerate(terms):
            positive = negative = 0
            for f, is_positive in row:
                if is_positive:
                    positive |= ~dead[f]
                else:
                    negative |= ~dead[f]
            rows = (positive ^ negative) & has[i]
            if not rows:
                continue
            for f, _ in row:
                if f:
                    own = has[f - 1]
                    forced[f] |= rows & ~own | (rows & own) >> (1 << f - 1)
                else:
                    forced[0] |= rows
        for f, F in enumerate(forced):
            for m in range(d):
                F |= (F & has[m]) >> (1 << m)
            forced[f] = F
        if forced == before:
            break
    return _free_count(d) - sum(F.bit_count() - 1 for F in forced)


def _free_count(d: int) -> int:
    """The unknowns of the d x d system that are not constants: 2^d - 1
    interior and d (2^(d-1) - 1) boundary ones."""
    return (1 << d) - 1 + d * ((1 << d - 1) - 1)


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
