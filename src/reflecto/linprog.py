"""Exact linear programming with a primal and a dual simplex over the rationals.

A solve starts from the slack basis: every inequality gets a slack with
coefficient 1, a GE row negated, and that slack is basic whatever the sign
of the row's rhs.  Each equality, from the last row up, is then pivoted in
on its least column with a nonzero entry; one that reads 0 = rhs by then is
redundant when rhs = 0 and makes the program infeasible otherwise.  Any
visiting order reaches the same basis (``pivot_in_equalities``).  A basis
whose reduced costs all read 0 is dual feasible, so the dual simplex below,
unpriced, restores x >= 0 or proves the program infeasible, with no
artificial column.  The primal simplex then optimises from that feasible
basis.

The tableau is kept as sparse rows of integers, each row over its own positive
denominator.  A pivot rewrites only the stored rows with a nonzero entry in the
pivot column, each in its own dict: it is cross-multiplied with the pivot row
in integers and then divided by the gcd of its entries and its denominator,
which keeps every row in lowest terms.  Rows with a zero there are not touched.

A row whose basic variable is still its own slack is not stored at all.  It
is its original row with the basic unknowns substituted (the revised-simplex
view of a row; Chvatal, *Linear Programming*, 1983, ch. 7), so the ratio test
derives its entry in the entering column, and its rhs, from the stored rows
of the basic unknowns it names.  A box row x_k <= u or a monotonicity row
x_a >= x_b names one or two.  A row that names one, as every box row does,
is read inline, straight from the stored row of its unknown.  When such a
row is picked to leave the basis it is derived in full and stored from then
on.

Pricing is Dantzig's rule: the most negative reduced cost, least column
index on ties.  The ratio test breaks ties lexicographically (Dantzig, Orden
& Wolfe, 1955; Chvatal, ch. 3).  The basic variables when a phase starts,
and again after every pivot that moves the objective, become the reference
basis.  A tie goes to the row that is lexicographically least in its
entries on the reference columns, each over its entry in the entering
column.  That rule cannot cycle.  The rows of (rhs, B^-1 B_ref) start as a
nonnegative column beside a permuted identity, and the rule keeps every row
lexicographically positive, so no basis repeats until the objective moves;
the objective only falls, so no basis repeats at all.  It replaced Bland's
least-index pricing, which took many small steps on long degenerate runs.

The reference columns are compared from the highest column index down.
While the tied rows' basic variables are still reference columns, the tie
then goes to the least basic-variable index, so rows whose slack is basic,
which are unstored, keep their slack.  Compared in row order, the rule
picked such rows, which then had to be stored and rewritten by every later
pivot; that made the tightness LP of a d = 7 M-matrix several times slower.

Every pivot choice reads the rational tableau, never its integer scaling:
pricing compares entries inside the cost row, which has one positive
denominator; the ratio test and its tie-breaks compare entries within each
row, where the row's denominator, or a derived row's scale, cancels; and a
pivot moves the objective when its row's rhs is not 0.  So the pivot
sequence depends only on the program, not on how rows are stored or reduced.

Lazy rows are delayed constraint generation (Dantzig, Fulkerson & Johnson,
1954).  The simplex solves the active rows alone.  Each lazy row that its
optimum breaks is appended as an unstored row with a new slack, basic and
negative, and a dual simplex (Chvatal, ch. 10) re-optimises from that basis;
then the lazy rows are checked again.  A point that satisfies every row and
is optimal for a relaxation is optimal.  Active rows that are infeasible
make the program infeasible; active rows that are unbounded are solved once
more with every row active.

The dual phase keeps every reduced cost d_j >= 0.  It takes the row r with
the most negative basic value, least index on ties, and enters the column
with the least d_j / |a_rj| over the entries a_rj < 0; a row without one is
infeasible.  Ties are broken lexicographically on the nonbasic columns when
the phase starts, and again after each pivot with d_j > 0: the primal rule
on the dual, with the cost of the k-th reference column raised by e^k.
Column j's perturbed reduced cost is then (d_j, P_1j, P_2j, ...), where P_kj
is 1 if j is the k-th reference column, 0 if that column is nonbasic and not
j, and -a_ij if it is basic in row i.  Each starts lexicographically
positive.  The columns of P are independent (B^-1 times the reference
basis's columns is nonsingular), so no tie survives every k, the least-ratio
pivot keeps each nonbasic vector lexicographically positive, and the
perturbed objective strictly rises.  So no basis repeats until the objective
moves, and the objective never falls.  Unpriced, every d_j reads 0: every
entry a_rj < 0 ties, the lexicographic rule alone picks the column, and the
reference is never retaken, so no basis of that phase repeats.

Programs are in standard form: every variable is nonnegative, and any other
bound, such as x_k <= 1, is an ordinary constraint row.  A row stores only its
nonzero (column, coefficient) terms.

Each ``Constraint`` checks its columns and scales itself to integer terms
over the lcm of its denominators (``_scaled``) once, on first use, and keeps
both: a row that many programs share, such as the fixed rows of the
tightness LP, pays for them once, not once per solve.

The solver checks its own point in integers.  The tableau keeps its active
rows in their integer form, and the lazy rows are checked in theirs.  The
basic solution is read as integers z over one denominator L, the lcm of the
denominators of the rows that hold a basic unknown, and a row
a.x <relation> r holds at z / L exactly when a.z <relation> r L.  That test
picks the lazy rows to append; at the optimum it re-checks every active and
lazy row and x >= 0, and the objective value is checked against the
optimum.  ``row_value`` is the exact evaluator of a row at a rational
point, which the tightness witness check uses for a failed row's detail.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import chain
from math import gcd, lcm, prod
from typing import Iterable, Mapping, Optional, Sequence

from .errors import InternalInconsistencyError, MatrixShapeError, ReflectoError
from .rational import Rational, RationalLike, as_rational

_MAX_PIVOTS = 1_000_000


class Relation(Enum):
    LE = "<="
    EQ = "="
    GE = ">="

    def holds(self, lhs: Rational, rhs: Rational) -> bool:
        """Whether ``lhs <relation> rhs`` is true."""
        if self is Relation.EQ:
            return lhs == rhs
        return lhs <= rhs if self is Relation.LE else lhs >= rhs


# A constraint row in integers, as ``_scaled`` makes it: (terms, relation, rhs).
_IntRow = tuple[tuple[tuple[int, int], ...], Relation, int]


@dataclass(frozen=True)
class Constraint:
    """sum(a * x[j] for j, a in terms) <relation> rhs.

    ``terms`` are (column, coefficient) pairs, each column at most once; a
    column that is not named has coefficient 0.
    """

    terms: tuple[tuple[int, Rational], ...]
    relation: Relation
    rhs: Rational

    @cached_property
    def _last_column(self) -> Optional[int]:
        """The greatest column named, -1 for none; None when a column
        repeats or is negative."""
        columns = {j for j, _ in self.terms}
        if len(columns) != len(self.terms) or (columns and min(columns) < 0):
            return None
        return max(columns, default=-1)

    @cached_property
    def _int_row(self) -> _IntRow:
        return _scaled(self)


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x subject to constraints, lazy and x >= 0.

    ``lazy`` rows enter the solve only when its point breaks them.  Every
    row must name distinct columns of the objective; this is checked here,
    so the solver does not check it again.
    """

    objective: tuple[Rational, ...]
    constraints: tuple[Constraint, ...]
    lazy: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        n = len(self.objective)
        for row in self.constraints + self.lazy:
            last = row._last_column
            if last is None or last >= n:
                raise MatrixShapeError(
                    f"constraint terms must name distinct columns 0..{n - 1}, got {row.terms}"
                )


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LpOutcome:
    """Solver result.

    For OPTIMAL, ``solution`` is the optimal point and ``optimum`` its value.
    INFEASIBLE and UNBOUNDED carry neither: the status is the whole answer.
    """

    status: LpStatus
    optimum: Optional[Rational] = None
    solution: Optional[tuple[Rational, ...]] = None


def constraint(
    coeffs: Iterable[RationalLike], relation: Relation | str, rhs: RationalLike
) -> Constraint:
    """The row with dense coefficients ``coeffs``; its zeros are dropped.

    ``relation`` is a ``Relation`` or its value, ``"<="``, ``"="`` or ``">="``.
    """
    if isinstance(relation, Relation):
        rel = relation
    else:
        try:
            rel = Relation(relation)
        except ValueError:
            raise ReflectoError(
                f"relation must be '<=', '=' or '>=', got {relation!r}"
            ) from None
    dense = (as_rational(c) for c in coeffs)
    return Constraint(tuple((j, a) for j, a in enumerate(dense) if a), rel, as_rational(rhs))


def linear_program(
    objective: Iterable[RationalLike], constraints: Iterable[Constraint]
) -> LinearProgram:
    return LinearProgram(tuple(as_rational(c) for c in objective), tuple(constraints))


# --------------------------------------------------------------------------
# integer tableau
# --------------------------------------------------------------------------

class _Tableau:
    """Simplex tableau of sparse integer rows, each over its own denominator.

    Built from every ``Constraint`` row, with its zero terms dropped here,
    and the nonzero cost terms by column.  Every inequality gets a slack
    with coefficient 1, a GE row negated, and starts with that slack basic,
    whatever the sign of its rhs.  An equality row is stored as it is and
    has no basic variable until ``pivot_in_equalities`` gives it one; until
    then, and for good when the row is redundant, its basic is the
    placeholder ``~i`` (negative, so it names no column).  An all-zero row
    keeps only its slack, or nothing for an equality, so the feasibility
    phases decide ``0 <relation> rhs``.

    Row i stores the nonzero entries of the rational tableau row times
    ``den[i] > 0`` as ``{column: int}``.  A pivot rewrites only the rows with
    an entry in the pivot column and divides each rewritten row by its gcd.

    A row that starts with its own slack basic is unstored: ``T[i]`` is an
    empty placeholder, so a pivot passes it by, and ``unstored[i]`` keeps its
    integer terms and rhs (its slack has coefficient 1).  ``where`` maps each
    basic variable to its row.  An unstored row's basic variable is always
    its own slack, so every other basic unknown it names sits in a stored
    row; ``_derived_row`` substitutes them.
    """

    def __init__(self, nz: int, rows: Sequence[Constraint], cost: dict[int, Fraction]):
        self.nz = nz
        # Each constraint row in integers without its zero terms, kept as is
        # for the point check.
        self.rows: list[_IntRow] = [con._int_row for con in rows]
        self.rhs_col = nz + sum(relation is not Relation.EQ for _, relation, _ in self.rows)
        self.T: list[dict[int, int]] = []
        self.den: list[int] = []
        self.m = self.cost_row = 0
        self.basis: list[int] = []
        self.where: dict[int, int] = {}
        self.unstored: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
        self.pivots = 0

        # Slack columns follow the unknowns in row order; a lazy row's slack
        # comes after the rhs column.
        self.next_col = nz
        for row in self.rows:
            terms, relation, r = row
            if relation is Relation.EQ:
                stored = dict(terms)
                if r:
                    stored[self.rhs_col] = r
                self._insert(stored, ~self.m)
            else:
                self.append(row)
        self.next_col = self.rhs_col + 1

        # Objective scaled to integers; scale is reported back to the caller.
        cost_denoms = [v.denominator for v in cost.values()]
        self.obj_scale = lcm(*cost_denoms) if cost_denoms else 1
        self.cost = tuple((col, int(v * self.obj_scale)) for col, v in cost.items())
        self.T.append(dict(self.cost))
        self.den.append(1)

    def _insert(self, row: dict[int, int], var: int) -> None:
        """Add ``row`` as row m, before the cost row once there is one, with
        ``var`` basic in it."""
        i = self.m
        self.T.insert(i, row)
        self.den.insert(i, 1)
        self.basis.append(var)
        self.where[var] = i
        self.m = self.cost_row = i + 1

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c), rewriting each touched row's own dict in place;
        every stored row is the tableau's own (``_derived_row`` and the
        constructor build new dicts), so no other structure sees it."""
        self.pivots += 1
        if self.pivots > _MAX_PIVOTS:
            raise InternalInconsistencyError("pivot limit exceeded")
        T = self.T
        den = self.den
        pivot_row = T[r]
        g = gcd(*pivot_row.values())
        if pivot_row[c] < 0:
            g = -g
        if g != 1:
            for j in pivot_row:
                pivot_row[j] //= g
        pivot = den[r] = pivot_row[c]
        for i, row in enumerate(T):
            factor = row.get(c)
            if factor is None or i == r:
                continue
            # row/den[i] - (factor/den[i]) * pivot_row/pivot, with the common
            # factor of pivot and factor cancelled before multiplying.
            g = gcd(pivot, factor)
            p, f = pivot // g, factor // g
            if p != 1:
                for j in row:
                    row[j] *= p
            for j, w in pivot_row.items():
                v = row.get(j, 0) - f * w
                if v:
                    row[j] = v
                else:
                    del row[j]
            d = den[i] * p
            g = gcd(d, *row.values())
            if g > 1:
                for j in row:
                    row[j] //= g
                d //= g
            den[i] = d
        del self.where[self.basis[r]]
        self.where[c] = r
        self.basis[r] = c

    def _derived_row(self, i: int) -> tuple[dict[int, int], int]:
        """Unstored row i in full, as ``(row, den)`` in lowest terms.

        Its original row times ``L``, the lcm of the basic unknowns' row
        denominators, minus ``a_t * (L / den_t) * T[r_t]`` for each term
        ``a_t`` on a basic unknown held in row ``r_t``; that cancels the term.
        """
        terms, rhs = self.unstored[i]
        T, den, where = self.T, self.den, self.where
        basic = [(a, where[j]) for j, a in terms if j in where]
        L = lcm(*(den[r] for _, r in basic)) if basic else 1
        row = {j: a * L for j, a in terms}
        row[self.basis[i]] = L
        if rhs:
            row[self.rhs_col] = rhs * L
        for a, r in basic:
            f = a * (L // den[r])
            for j, w in T[r].items():
                v = row.get(j, 0) - f * w
                if v:
                    row[j] = v
                else:
                    del row[j]
        g = gcd(*row.values())
        if g > 1:
            row = {j: v // g for j, v in row.items()}
            L //= g
        return row, L

    def _entry(self, i: int, c: int) -> int:
        """Entry of row i in column c, over the row's denominator or derived scale."""
        if i in self.unstored:
            return _unstored_entry(self.unstored[i][0], 0, c, self.T, self.den, self.where)
        return self.T[i].get(c, 0)

    def _entering(self, cost_row: dict[int, int]) -> Optional[int]:
        candidates = [(v, j) for j, v in cost_row.items() if v < 0 and j != self.rhs_col]
        return min(candidates)[1] if candidates else None

    def _positive_entries(self, c: int) -> list[tuple[int, int, int]]:
        """``(row, entry, rhs)`` for each row whose entry in column c is > 0,
        over the row's denominator or derived scale, as ``_entry`` reads it.

        Stored rows come first, unstored ones after.  A one-term unstored
        row t * x_j + s = rhs, such as a box row, is read inline with the
        integers of ``_unstored_entry``: t in column j while x_j is
        nonbasic; once x_j is basic in row r, -t times row r over den[r].
        """
        rc = self.rhs_col
        T, den, where = self.T, self.den, self.where
        out = [
            (i, a, row.get(rc, 0)) for i, row in enumerate(T[: self.m]) if (a := row.get(c, 0)) > 0
        ]
        for i, (terms, num) in self.unstored.items():
            if len(terms) == 1:
                ((j, t),) = terms
                r = where.get(j)
                if r is None:
                    if j == c and t > 0:
                        out.append((i, t, num))
                    continue
                row = T[r]
                a = -t * row.get(c, 0)
                if a > 0:
                    out.append((i, a, num * den[r] - t * row.get(rc, 0)))
            else:
                a = _unstored_entry(terms, 0, c, T, den, where)
                if a > 0:
                    out.append((i, a, _unstored_entry(terms, num, rc, T, den, where)))
        return out

    def _leaving(self, c: int, reference: list[int]) -> Optional[int]:
        """The row with the least ratio rhs / entry over the entries > 0 in column c.

        Ties go to ``_lex_least`` on the ``reference`` basis, so the row
        picked does not depend on the order the rows are read in.
        """
        best_row = None
        best_num = 0
        best_den = 1
        ties = None  # {row: entry in column c} at the least ratio
        for i, a, num in self._positive_entries(c):
            if best_row is None or num * best_den < best_num * a:
                best_row = i
                best_num = num
                best_den = a
                ties = None
            elif num * best_den == best_num * a:
                if ties is None:
                    ties = {best_row: best_den}
                ties[i] = a
        return best_row if ties is None else self._lex_least(ties, reference)

    def _lex_least(self, tied: dict[int, int], reference: list[int]) -> int:
        """Break a ratio tie between rows, given as ``{row: entry in the entering column}``.

        For each reference column in turn, keep the tied rows whose entry
        there over their entry in the entering column is least, until one
        row is left.  These entries are the rows of B^-1 B_ref, which is
        nonsingular, so no two rows stay tied through every column.
        """
        for col in reference:
            r = self.where.get(col)
            if r is not None:
                # A basic column is a unit column: its one nonzero entry is 1,
                # in row r, so every other tied row's ratio there is 0.
                tied.pop(r, None)
            else:
                ratios = {i: (self._entry(i, col), a) for i, a in tied.items()}
                low_num, low_den = min(ratios.values(), key=lambda ratio: Fraction(*ratio))
                tied = {
                    i: a for i, (num, a) in ratios.items() if num * low_den == low_num * a
                }
            if len(tied) == 1:
                return next(iter(tied))
        raise InternalInconsistencyError("lexicographic ratio test left a tie")

    def run_phase(self) -> bool:
        """Primal simplex from a feasible basis: pivot until optimal; False
        when a column can improve without limit.

        The basic variables, from the highest column index down, are the
        reference basis of the lexicographic ratio test; a redundant row's
        placeholder comes last and decides nothing.  They are taken when the
        phase starts and again after every pivot that moves the objective.
        Under Dantzig pricing the entering column's reduced cost is negative,
        so a pivot moves the objective exactly when its row's rhs is
        positive.
        """
        reference = sorted(self.basis, reverse=True)
        while True:
            col = self._entering(self.T[self.cost_row])
            if col is None:
                return True
            row = self._leaving(col, reference)
            if row is None:
                return False
            if row in self.unstored:
                self.T[row], self.den[row] = self._derived_row(row)
                del self.unstored[row]
            moves = self.rhs_col in self.T[row]
            self._pivot(row, col)
            if moves:
                reference = sorted(self.basis, reverse=True)

    def append(self, row: _IntRow) -> None:
        """Add ``row``, from ``_scaled``, before the cost row as an unstored
        row a.x + s = r with a new slack s basic; an equality adds the row
        and its negation."""
        terms, relation, r = row
        signs = {Relation.LE: (1,), Relation.GE: (-1,), Relation.EQ: (1, -1)}[relation]
        for sign in signs:
            self.unstored[self.m] = (
                terms if sign == 1 else tuple((j, -v) for j, v in terms),
                sign * r,
            )
            self._insert({}, self.next_col)
            self.next_col += 1

    def run_dual_phase(self, priced: bool = True) -> bool:
        """Dual simplex from dual-feasible rows (module docstring); False
        when a row proves the program infeasible.

        Unpriced, it reads every reduced cost as 0, so any basis is dual
        feasible: it then only restores x >= 0, and every ratio test is
        decided by the lexicographic rule on one reference, which makes
        every basis of the phase distinct.
        """
        rc = self.rhs_col
        reference = self._nonbasic()
        while True:
            r = self._dual_leaving()
            if r is None:
                return True
            if r in self.unstored:
                self.T[r], self.den[r] = self._derived_row(r)
                del self.unstored[r]
            cost = self.T[self.cost_row] if priced else {}
            best, best_num, best_den, ties = None, 0, 1, None
            for j, a in self.T[r].items():
                if a >= 0 or j == rc:
                    continue
                num = cost.get(j, 0)
                if best is None or num * best_den < best_num * -a:
                    best, best_num, best_den, ties = j, num, -a, None
                elif num * best_den == best_num * -a:
                    ties = ties or {best: best_den}
                    ties[j] = -a
            if best is None:
                return False
            col = best if ties is None else self._dual_lex_least(ties, reference)
            self._pivot(r, col)
            if best_num:
                reference = self._nonbasic()

    def _nonbasic(self) -> list[int]:
        rc, where = self.rhs_col, self.where
        return [j for j in range(self.next_col) if j != rc and j not in where]

    def _dual_leaving(self) -> Optional[int]:
        """The row with the most negative basic value, least index on ties;
        a one-term unstored row is read inline, as in ``_leaving``."""
        best, low_num, low_den = None, 0, 1
        rc, T, den, where, unstored = self.rhs_col, self.T, self.den, self.where, self.unstored
        for i in range(self.m):
            if i in unstored:
                terms, num = unstored[i]
                if len(terms) == 1:
                    ((j, t),) = terms
                    r = where.get(j)
                    if r is None:
                        scale = 1
                    else:
                        scale = den[r]
                        num = num * scale - t * T[r].get(rc, 0)
                else:
                    num = _unstored_entry(terms, num, rc, T, den, where)
                    scale = prod(den[where[j]] for j, _ in terms if j in where)
            else:
                num, scale = T[i].get(rc, 0), den[i]
            if num * low_den < low_num * scale:
                best, low_num, low_den = i, num, scale
        return best

    def _dual_lex_least(self, tied: dict[int, int], reference: list[int]) -> int:
        """Break a dual ratio tie between columns, given as ``{column: -a_rj}``.

        For each reference column k in turn, keep the tied columns j whose
        P_kj / -a_rj (module docstring) is least, until one is left.
        """
        for col in reference:
            i = self.where.get(col)
            if i is None:
                tied.pop(col, None)
            else:
                ratios = {j: (-self._entry(i, j), a) for j, a in tied.items()}
                low_num, low_den = min(ratios.values(), key=lambda ratio: Fraction(*ratio))
                tied = {
                    j: a for j, (num, a) in ratios.items() if num * low_den == low_num * a
                }
            if len(tied) == 1:
                return next(iter(tied))
        raise InternalInconsistencyError("lexicographic dual ratio test left a tie")

    def pivot_in_equalities(self) -> bool:
        """Pivot each equality row, in reverse row order, on its least column
        with a nonzero entry; False when a row reads 0 = rhs with rhs != 0.

        A column picked has a nonzero entry in a row that is 0 on every lower
        column, so it is independent of the columns below it; the picks are
        distinct and as many as the rank, so they are the least independent
        columns, in any visiting order, and so is the tableau over them.
        The order sets only which row holds which column and which row is
        left empty, which only ``_dual_leaving``'s least-index tie reads.
        In reverse order the tightness LP's largest subsets come first, and
        its pivot-ins cost over ten times less at d = 7.

        A row left at 0 = 0 is redundant.  It stays where it is, empty, with
        its placeholder basic: every pivot and ratio test passes an empty row
        by, and ``int_point`` reads only basic unknowns.
        """
        for r in range(self.m - 1, -1, -1):
            if self.basis[r] >= 0:
                continue
            row = self.T[r]
            col = min((j for j in row if j != self.rhs_col), default=None)
            if col is None:
                if row:
                    return False
            else:
                self._pivot(r, col)
        return True

    # -- extraction ----------------------------------------------------------

    def int_point(self) -> tuple[list[int], int]:
        """The basic solution as ``(z, L)``: x = z / L in integers, where L is
        the lcm of the denominators of the rows whose basic variable is an
        unknown (such a row is always stored)."""
        T, den, rc = self.T, self.den, self.rhs_col
        basic = [(var, i) for i, var in enumerate(self.basis) if 0 <= var < self.nz]
        scale = lcm(*(den[i] for _, i in basic))
        z = [0] * self.nz
        for var, i in basic:
            z[var] = T[i].get(rc, 0) * (scale // den[i])
        return z, scale

    def objective_value(self) -> Fraction:
        return Fraction(
            -self.T[self.cost_row].get(self.rhs_col, 0),
            self.den[self.cost_row] * self.obj_scale,
        )


def _scaled(con: Constraint) -> _IntRow:
    """``con`` times the lcm of its denominators, without its zero terms."""
    mult = lcm(con.rhs.denominator, *(v.denominator for _, v in con.terms))
    terms = tuple((col, v.numerator * (mult // v.denominator)) for col, v in con.terms if v)
    return terms, con.relation, con.rhs.numerator * (mult // con.rhs.denominator)


def _holds(row: _IntRow, z: Sequence[int], scale: int) -> bool:
    """Whether the integer ``row`` holds at the point z / scale, scale > 0."""
    terms, relation, rhs = row
    return relation.holds(sum(a * z[j] for j, a in terms), rhs * scale)


def _unstored_entry(
    terms: tuple[tuple[int, int], ...],
    value: int,
    c: int,
    T: list[dict[int, int]],
    den: list[int],
    where: dict[int, int],
) -> int:
    """Entry in nonbasic column c of the unstored row with original ``terms``.

    Each basic unknown the row names is substituted from its stored row.
    ``value`` is the row's own entry in column c outside its terms: 0, or
    its rhs when c is the rhs column.  The result is the entry times the
    product of the denominators of the substituted rows.  That scale does
    not depend on c, so two entries of one row compare as rationals.  It
    takes the tableau's lists as arguments, not ``self``: the ratio tests
    call it for every unstored row of two or more terms, where attribute
    lookups cost time.
    """
    scale = 1
    for j, t in terms:
        r = where.get(j)
        if r is None:
            if j == c:
                value += t * scale
        else:
            value = value * den[r] - t * scale * T[r].get(c, 0)
            scale *= den[r]
    return value


# --------------------------------------------------------------------------
# public solve
# --------------------------------------------------------------------------


def lp_solve(program: LinearProgram) -> LpOutcome:
    """Minimise objective . x over the rows and x >= 0, exactly.

    Every active row enters the tableau, an all-zero one too: the pivot-ins
    and the unpriced dual phase report it infeasible exactly when
    ``0 <relation> rhs`` is false.  A lazy row enters when the optimum
    breaks it (module docstring).  Statuses Infeasible/Unbounded are
    outcomes, not errors, and carry no point.
    """
    tab = _Tableau(
        len(program.objective),
        program.constraints,
        {j: c for j, c in enumerate(program.objective) if c},
    )

    if not (tab.pivot_in_equalities() and tab.run_dual_phase(priced=False)):
        return LpOutcome(LpStatus.INFEASIBLE)
    if not tab.run_phase():
        if program.lazy:
            return lp_solve(
                LinearProgram(program.objective, program.constraints + program.lazy)
            )
        return LpOutcome(LpStatus.UNBOUNDED)

    lazy = [row._int_row for row in program.lazy]
    pending = lazy
    while pending:
        z, scale = tab.int_point()
        held = []
        for row in pending:
            if _holds(row, z, scale):
                held.append(row)
            else:
                tab.append(row)
        if len(held) == len(pending):
            break
        if not tab.run_dual_phase():
            return LpOutcome(LpStatus.INFEASIBLE)
        pending = held

    z, scale = tab.int_point()
    _check_point(chain(tab.rows, lazy), z, scale)
    optimum = tab.objective_value()
    if Fraction(sum(c * z[j] for j, c in tab.cost), tab.obj_scale * scale) != optimum:
        raise InternalInconsistencyError("objective value mismatch at reported optimum")
    zero = Fraction(0)
    solution = tuple(Fraction(v, scale) if v else zero for v in z)
    return LpOutcome(LpStatus.OPTIMAL, optimum=optimum, solution=solution)


def row_value(
    terms: Iterable[tuple[object, Rational]], point: Sequence[Rational] | Mapping[object, Rational]
) -> Rational:
    """sum(a * point[j] for j, a in terms), exactly.

    ``point`` is a sequence indexed by column or a mapping keyed by the
    terms' names; a zero coordinate adds nothing and is skipped.
    """
    return sum((a * v for j, a in terms if (v := point[j])), Fraction(0))


def _check_point(rows: Iterable[_IntRow], z: Sequence[int], scale: int) -> None:
    """Exact feasibility check of the point z / scale against integer rows
    from ``_scaled`` and x >= 0; a failure means the solver itself is broken."""
    for row in rows:
        if not _holds(row, z, scale):
            terms, relation, rhs = row
            raise InternalInconsistencyError(
                f"reported point violates constraint {terms} {relation.value} {rhs}"
            )
    if any(v < 0 for v in z):
        raise InternalInconsistencyError("reported point has a negative coordinate")
