"""Exact linear programming with a two-phase primal simplex over the rationals.

The tableau is kept as sparse rows of integers, each row over its own positive
denominator.  A pivot rewrites only the stored rows with a nonzero entry in the
pivot column: each is cross-multiplied with the pivot row in integers and then
divided by the gcd of its entries and its denominator, which keeps every row
in lowest terms.  Rows with a zero there are not touched.

A row whose basic variable is still its own slack is not stored at all.  It
is its original row with the basic unknowns substituted (the revised-simplex
view of a row; Chvatal, *Linear Programming*, 1983, ch. 7), so the ratio test
derives its entry in the entering column, and its rhs, from the stored rows
of the basic unknowns it names.  A box row x_k <= u or a monotonicity row
x_a >= x_b names one or two.  When such a row is picked to leave the basis
it is derived in full and stored from then on.  Pricing is Dantzig
with least-index tie-breaks, switching to Bland's least-index rule after a
fixed run of degenerate pivots; the leaving row breaks ratio ties by least
basic-variable index.  This makes the solver deterministic (identical runs
agree bit for bit) and immune to cycling.

Every pivot choice reads the rational tableau, never its integer scaling:
pricing compares entries inside the cost row, which has one positive
denominator; the ratio test compares rhs / entry within each row, where the
row's denominator, or a derived row's scale, cancels; and the degeneracy test compares exact rationals.
So the pivot sequence depends only on the program, not on how rows are
stored or reduced.

Programs are in standard form: every variable is nonnegative, and any other
bound, such as x_k <= 1, is an ordinary constraint row.  Each returned point
is re-checked exactly against every row and against x >= 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Optional, Sequence

from .errors import InternalInconsistencyError, MatrixShapeError
from .rational import Rational, RationalLike, as_rational

_DEGENERATE_FALLBACK = 12
_MAX_PIVOTS = 1_000_000


class Relation(Enum):
    LE = "<="
    EQ = "="
    GE = ">="


@dataclass(frozen=True)
class Constraint:
    coeffs: tuple[Rational, ...]
    relation: Relation
    rhs: Rational


@dataclass(frozen=True)
class LinearProgram:
    """minimize objective . x subject to constraints and x >= 0."""

    objective: tuple[Rational, ...]
    constraints: tuple[Constraint, ...]


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
    rel = relation if isinstance(relation, Relation) else Relation(relation)
    return Constraint(tuple(as_rational(c) for c in coeffs), rel, as_rational(rhs))


def linear_program(
    objective: Iterable[RationalLike], constraints: Iterable[Constraint]
) -> LinearProgram:
    obj = tuple(as_rational(c) for c in objective)
    rows = tuple(constraints)
    for c in rows:
        if len(c.coeffs) != len(obj):
            raise MatrixShapeError(
                f"constraint has {len(c.coeffs)} coefficients for {len(obj)} variables"
            )
    return LinearProgram(obj, rows)


# --------------------------------------------------------------------------
# integer tableau
# --------------------------------------------------------------------------


class _Tableau:
    """Simplex tableau of sparse integer rows, each over its own denominator.

    Row i stores the nonzero entries of the rational tableau row times
    ``den[i] > 0`` as ``{column: int}``.  A pivot rewrites only the rows with
    an entry in the pivot column and divides each rewritten row by its gcd.

    A row that starts with its own slack basic is unstored: ``T[i]`` is an
    empty placeholder, so a pivot passes it by, and ``unstored[i]`` keeps its
    original integer terms and rhs (its slack has coefficient 1).  ``where``
    maps each basic variable to its row.  An unstored row's basic variable is
    always its own slack, so every other basic unknown it names sits in a
    stored row; ``_derived_row`` substitutes them.
    """

    def __init__(
        self,
        nz: int,
        rows: list[dict[int, Fraction]],
        relations: list[Relation],
        rhs: list[Fraction],
        cost: dict[int, Fraction],
    ):
        self.nz = nz
        m = len(rows)

        # Slack columns: +1 on an LE row, -1 on a GE row.
        slack_col: list[Optional[int]] = [None] * m
        ncols = nz
        for i, rel in enumerate(relations):
            if rel is not Relation.EQ:
                slack_col[i] = ncols
                ncols += 1
        self.art_start = ncols

        # Integer-scale each constraint row, then negate it when its rhs is
        # negative, or when it is a homogeneous GE row: its slack then has
        # coefficient 1 and starts in the basis instead of an artificial.
        int_rows: list[tuple[dict[int, int], int]] = []
        for coeffs, rel, b, sc in zip(rows, relations, rhs, slack_col):
            denoms = [v.denominator for v in coeffs.values()] + [b.denominator]
            mult = lcm(*denoms)
            row = {col: int(v * mult) for col, v in coeffs.items()}
            if sc is not None:
                row[sc] = -1 if rel is Relation.GE else 1
            r = int(b * mult)
            if r < 0 or (r == 0 and rel is Relation.GE):
                row = {col: -v for col, v in row.items()}
                r = -r
            int_rows.append((row, r))

        # Artificial columns where the slack cannot serve as the basic variable;
        # a row whose slack can is kept as its original terms, not stored.
        basis: list[int] = []
        art_rows: list[int] = []
        self.unstored: dict[int, tuple[tuple[tuple[int, int], ...], int]] = {}
        for i, (row, r) in enumerate(int_rows):
            sc = slack_col[i]
            if sc is not None and row[sc] == 1:
                basis.append(sc)
                self.unstored[i] = (tuple((j, v) for j, v in row.items() if j != sc), r)
            else:
                art_rows.append(i)
                basis.append(ncols)
                row[ncols] = 1
                ncols += 1

        self.m = m
        self.rhs_col = ncols
        self.basis = basis
        self.where = {var: i for i, var in enumerate(basis)}
        self.T: list[dict[int, int]] = []
        for i, (row, r) in enumerate(int_rows):
            if i in self.unstored:
                row = {}
            elif r:
                row[ncols] = r
            self.T.append(row)

        # Objective scaled to integers; scale is reported back to the caller.
        cost_denoms = [v.denominator for v in cost.values()]
        self.obj_scale = lcm(*cost_denoms) if cost_denoms else 1
        self.T.append({col: int(v * self.obj_scale) for col, v in cost.items()})
        self.cost_row = m

        self.phase1_row: Optional[int] = None
        if art_rows:
            w: dict[int, int] = {}
            for i in art_rows:
                for j, v in self.T[i].items():
                    if j != basis[i]:
                        w[j] = w.get(j, 0) - v
            self.T.append({j: v for j, v in w.items() if v})
            self.phase1_row = m + 1
        self.den = [1] * len(self.T)

    # -- pivoting ----------------------------------------------------------

    def _pivot(self, r: int, c: int) -> None:
        T = self.T
        den = self.den
        pivot_row = T[r]
        pivot = pivot_row[c]
        if pivot < 0:
            pivot_row = {j: -v for j, v in pivot_row.items()}
            pivot = -pivot
        g = gcd(*pivot_row.values())
        if g > 1:
            pivot_row = {j: v // g for j, v in pivot_row.items()}
            pivot //= g
        T[r] = pivot_row
        den[r] = pivot
        for i, row in enumerate(T):
            factor = row.get(c)
            if factor is None or i == r:
                continue
            # row/den[i] - (factor/den[i]) * pivot_row/pivot, with the common
            # factor of pivot and factor cancelled before multiplying.
            g = gcd(pivot, factor)
            p, f = pivot // g, factor // g
            new = {j: v * p for j, v in row.items()} if p != 1 else dict(row)
            for j, w in pivot_row.items():
                v = new.get(j, 0) - f * w
                if v:
                    new[j] = v
                else:
                    del new[j]
            d = den[i] * p
            g = gcd(d, *new.values())
            if g > 1:
                new = {j: v // g for j, v in new.items()}
                d //= g
            T[i] = new
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

    def _entering(self, cost_row: dict[int, int], bland: bool) -> Optional[int]:
        candidates = [
            (v, j) for j, v in cost_row.items() if v < 0 and j < self.art_start
        ]
        if not candidates:
            return None
        if bland:
            return min(j for _, j in candidates)
        return min(candidates)[1]

    def _leaving(self, c: int) -> Optional[int]:
        best_row = None
        best_num = 0
        best_den = 1
        rc = self.rhs_col
        T, den, where, unstored = self.T, self.den, self.where, self.unstored
        for i in range(self.m):
            if i in unstored:
                # The entry in column c and the rhs of the unstored row, each
                # over the product of its basic unknowns' row denominators.
                terms, num = unstored[i]
                a, scale = 0, 1
                for j, t in terms:
                    r = where.get(j)
                    if r is None:
                        if j == c:
                            a += t * scale
                    else:
                        a = a * den[r] - t * scale * T[r].get(c, 0)
                        scale *= den[r]
                if a <= 0:
                    continue
                scale = 1
                for j, t in terms:
                    r = where.get(j)
                    if r is not None:
                        num = num * den[r] - t * scale * T[r].get(rc, 0)
                        scale *= den[r]
            else:
                row = T[i]
                a = row.get(c, 0)
                if a <= 0:
                    continue
                num = row.get(rc, 0)
            if best_row is None or num * best_den < best_num * a or (
                num * best_den == best_num * a and self.basis[i] < self.basis[best_row]
            ):
                best_row = i
                best_num = num
                best_den = a
        return best_row

    def run_phase(self, cost_index: int, stop_at_zero: bool) -> bool:
        """Pivot until optimal; False when a column can improve without limit."""
        degenerate_streak = 0
        pivots = 0
        while True:
            value = self.T[cost_index].get(self.rhs_col, 0)
            if stop_at_zero and value == 0:
                return True
            bland = degenerate_streak >= _DEGENERATE_FALLBACK
            col = self._entering(self.T[cost_index], bland)
            if col is None:
                return True
            row = self._leaving(col)
            if row is None:
                return False
            if row in self.unstored:
                self.T[row], self.den[row] = self._derived_row(row)
                del self.unstored[row]
            before = (value, self.den[cost_index])
            self._pivot(row, col)
            after = (self.T[cost_index].get(self.rhs_col, 0), self.den[cost_index])
            if before[0] * after[1] == after[0] * before[1]:
                degenerate_streak += 1
            else:
                degenerate_streak = 0
            pivots += 1
            if pivots > _MAX_PIVOTS:
                raise InternalInconsistencyError("pivot limit exceeded")

    def drop_artificials(self) -> None:
        """Pivot artificials out of the basis, then delete their columns.

        Rows whose artificial cannot be pivoted out are identically zero on
        the real columns (redundant constraints) and are removed.
        """
        dead_rows: set[int] = set()
        for r in range(self.m):
            if self.basis[r] < self.art_start:
                continue
            row = self.T[r]
            col = min((j for j in row if j < self.art_start), default=None)
            if col is None:
                if self.rhs_col in row:
                    raise InternalInconsistencyError(
                        "redundant row with nonzero residual after phase one"
                    )
                dead_rows.add(r)
            else:
                self._pivot(r, col)

        keep = [i for i in range(self.m) if i not in dead_rows] + [self.cost_row]
        self.T = [
            {j: v for j, v in self.T[i].items() if j < self.art_start or j == self.rhs_col}
            for i in keep
        ]
        self.den = [self.den[i] for i in keep]
        self.basis = [self.basis[i] for i in keep[:-1]]
        self.where = {var: i for i, var in enumerate(self.basis)}
        self.unstored = {
            new: self.unstored[old] for new, old in enumerate(keep) if old in self.unstored
        }
        self.m = len(self.basis)
        self.cost_row = self.m
        self.phase1_row = None

    # -- extraction ----------------------------------------------------------

    def z_solution(self) -> list[Fraction]:
        z = [Fraction(0)] * self.nz
        for i in range(self.m):
            var = self.basis[i]
            if var < self.nz:
                z[var] = Fraction(self.T[i].get(self.rhs_col, 0), self.den[i])
        return z

    def objective_value(self) -> Fraction:
        return Fraction(
            -self.T[self.cost_row].get(self.rhs_col, 0),
            self.den[self.cost_row] * self.obj_scale,
        )


# --------------------------------------------------------------------------
# public solve
# --------------------------------------------------------------------------


def lp_solve(program: LinearProgram) -> LpOutcome:
    """Minimise objective . x over the rows and x >= 0, exactly.

    Statuses Infeasible/Unbounded are outcomes, not errors, and carry no point.
    """
    n = len(program.objective)
    for row in program.constraints:
        if len(row.coeffs) != n:
            raise MatrixShapeError("constraint width must match variable count")

    rows: list[dict[int, Fraction]] = []
    relations: list[Relation] = []
    rhs: list[Fraction] = []
    for row in program.constraints:
        cols = {j: a for j, a in enumerate(row.coeffs) if a}
        r = row.rhs
        if not cols:
            violated = (
                (row.relation is Relation.LE and not 0 <= r)
                or (row.relation is Relation.EQ and r != 0)
                or (row.relation is Relation.GE and not 0 >= r)
            )
            if violated:
                return LpOutcome(LpStatus.INFEASIBLE)
            continue
        rows.append(cols)
        relations.append(row.relation)
        rhs.append(r)

    obj_cols = {j: c for j, c in enumerate(program.objective) if c}
    tab = _Tableau(n, rows, relations, rhs, obj_cols)

    if tab.phase1_row is not None:
        if not tab.run_phase(tab.phase1_row, stop_at_zero=True):
            raise InternalInconsistencyError("phase one cannot be unbounded")
        if tab.T[tab.phase1_row].get(tab.rhs_col, 0) != 0:
            return LpOutcome(LpStatus.INFEASIBLE)
        tab.drop_artificials()

    if not tab.run_phase(tab.cost_row, stop_at_zero=False):
        return LpOutcome(LpStatus.UNBOUNDED)

    solution = tuple(tab.z_solution())
    optimum = tab.objective_value()
    _check_point(program, solution)
    if _dot(program.objective, solution) != optimum:
        raise InternalInconsistencyError("objective value mismatch at reported optimum")
    return LpOutcome(LpStatus.OPTIMAL, optimum=optimum, solution=solution)


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum((x * y for x, y in zip(a, b) if x and y), Fraction(0))


def _check_point(program: LinearProgram, point: Sequence[Fraction]) -> None:
    """Exact feasibility check; a failure means the solver itself is broken."""
    for row in program.constraints:
        lhs = _dot(row.coeffs, point)
        ok = (
            lhs <= row.rhs
            if row.relation is Relation.LE
            else lhs == row.rhs if row.relation is Relation.EQ else lhs >= row.rhs
        )
        if not ok:
            raise InternalInconsistencyError(
                f"reported point violates constraint {row.coeffs} {row.relation.value} {row.rhs}"
            )
    if any(x < 0 for x in point):
        raise InternalInconsistencyError("reported point has a negative coordinate")
