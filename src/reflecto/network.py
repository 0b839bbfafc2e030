"""Multiclass priority queueing networks and their derived matrices.

A network has K customer classes served at d single-server stations under a
static buffer priority discipline: each class holds a fixed priority (lower
priority number = served first, preemptive resume), customers route between
classes by a substochastic matrix P, and each class has a mean service time.

From these data the module derives, all in exact arithmetic:

* W = (I - P')^{-1}, the expected-visits matrix (entry (k, k') counts visits
  to class k by a customer currently in class k');
* B, the 0/1 matrix stepping each class to the next class above it in its
  station's priority order, and F = (I - B)^{-1}, whose row k is the
  indicator of the classes at station s(k) serving at or above k's priority;
* A = (I - P') M^{-1} (I - B) and its closed-form inverse F M W;
* Q, the station workload matrix: Q[i][j] is the expected work for station i
  generated by one customer starting in station j's lowest-priority class;
* the reflection matrix R = Q^{-1}, cross-checked against the block
  (Schur-complement) elimination of the high-priority classes.

Stations are relabeled so the lowest-priority classes appear in increasing
class order; the permutation is surfaced so user-facing station indices can
be mapped back.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from enum import Enum
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    InternalInconsistencyError,
    QSingularError,
    SingularMatrixError,
    SpecValidationError,
)
from .matrix import RatMatrix
from .rational import (
    Rational,
    RationalLike,
    as_rational,
    as_rational_vector,
    format_rational,
    format_rational_vector,
    parse_rational,
)


@dataclass(frozen=True)
class NetworkSpec:
    """Immutable description of one network.

    Classes and stations are numbered from 1.  ``station_of_class[k-1]`` is
    the station serving class k; ``priority[k-1]`` is the priority level of
    class k (a bijection on 1..K; only within-station comparisons matter).
    """

    class_count: int
    station_count: int
    station_of_class: tuple[int, ...]
    routing: RatMatrix
    service_means: tuple[Rational, ...]
    arrival_rates: tuple[Rational, ...]
    priority: tuple[int, ...]

    def classes_at(self, station: int) -> tuple[int, ...]:
        return tuple(
            k + 1 for k, s in enumerate(self.station_of_class) if s == station
        )


@dataclass(frozen=True)
class ValidationReport:
    issues: tuple[tuple[str, str], ...]

    @property
    def valid(self) -> bool:
        return not self.issues


def validate_spec(spec: NetworkSpec) -> ValidationReport:
    """Check every structural invariant; reports all violations found."""
    issues: list[tuple[str, str]] = []
    K, d = spec.class_count, spec.station_count
    if K < 1:
        issues.append(("classes", "need at least one class"))
    if not 1 <= d <= max(K, 1):
        issues.append(("stations", f"need 1 <= stations <= classes, got {d} and {K}"))
    if len(spec.station_of_class) != K:
        issues.append(("station_of_class", f"expected {K} entries"))
    elif any(not 1 <= s <= d for s in spec.station_of_class):
        issues.append(("station_of_class", f"station indices must lie in 1..{d}"))
    else:
        for i in range(1, d + 1):
            if not spec.classes_at(i):
                issues.append(("station_of_class", f"station {i} serves no class"))
    if len(spec.service_means) != K:
        issues.append(("service_means", f"expected {K} entries"))
    elif any(m <= 0 for m in spec.service_means):
        issues.append(("service_means", "mean service times must be positive"))
    if len(spec.arrival_rates) != K:
        issues.append(("arrival_rates", f"expected {K} entries"))
    elif any(rate < 0 for rate in spec.arrival_rates):
        issues.append(("arrival_rates", "arrival rates must be nonnegative"))
    if len(spec.priority) != K or sorted(spec.priority) != list(range(1, K + 1)):
        issues.append(("priority", f"priorities must be a bijection on 1..{K}"))
    P = spec.routing
    if P.rows != K or P.cols != K:
        issues.append(("routing", f"routing matrix must be {K}x{K}"))
    else:
        for i in range(K):
            if any(P.at(i, j) < 0 for j in range(K)):
                issues.append(("routing", f"row {i + 1} has a negative entry"))
                break
        for i in range(K):
            if sum(P.row(i)) > 1:
                issues.append(("routing", f"row {i + 1} sums above one"))
                break
        if not issues:
            # transience: (I - P') must be invertible with a nonnegative
            # inverse, certifying W = sum of (P')^n
            try:
                W = build_W(spec)
            except SingularMatrixError:
                issues.append(("routing", "I - P is singular (customers never leave)"))
            else:
                if any(
                    W.at(i, j) < 0 for i in range(K) for j in range(K)
                ):
                    issues.append(
                        ("routing", "(I - P')^{-1} has negative entries (not transient)")
                    )
    return ValidationReport(tuple(issues))


def require_valid(spec: NetworkSpec) -> None:
    report = validate_spec(spec)
    if not report.valid:
        raise SpecValidationError(report.issues)


# --------------------------------------------------------------------------
# priorities
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PrioritySets:
    """Priority structure at each station.

    ``at_or_above[k]`` is the set of classes at s(k) with priority at least
    class k's; ``next_higher[k]`` is the closest class strictly above k in
    priority (None for the top class of a station); ``lowest[i]`` is station
    i's lowest-priority class.
    """

    at_or_above: dict
    next_higher: dict
    lowest: dict
    low_classes: tuple[int, ...]
    high_classes: frozenset


def priority_sets(spec: NetworkSpec) -> PrioritySets:
    at_or_above = {}
    next_higher = {}
    lowest = {}
    p = spec.priority
    for station in range(1, spec.station_count + 1):
        members = spec.classes_at(station)
        lowest[station] = max(members, key=lambda k: p[k - 1])
        for k in members:
            horizon = frozenset(k2 for k2 in members if p[k2 - 1] <= p[k - 1])
            at_or_above[k] = horizon
            strictly = horizon - {k}
            next_higher[k] = (
                max(strictly, key=lambda k2: p[k2 - 1]) if strictly else None
            )
    low = tuple(lowest[i] for i in range(1, spec.station_count + 1))
    high = frozenset(range(1, spec.class_count + 1)) - frozenset(low)
    return PrioritySets(at_or_above, next_higher, lowest, low, high)


def relabel_stations(spec: NetworkSpec) -> tuple[NetworkSpec, tuple[int, ...]]:
    """Renumber stations so lowest-priority classes increase with the station.

    Returns the relabeled spec and a permutation, where entry i-1 is the
    original index of the station now called i.
    """
    sets = priority_sets(spec)
    order = sorted(range(1, spec.station_count + 1), key=lambda i: sets.lowest[i])
    new_of_old = {old: new + 1 for new, old in enumerate(order)}
    if all(new_of_old[i] == i for i in new_of_old):
        return spec, tuple(order)
    relabeled = replace(
        spec,
        station_of_class=tuple(new_of_old[s] for s in spec.station_of_class),
    )
    return relabeled, tuple(order)


# --------------------------------------------------------------------------
# matrices
# --------------------------------------------------------------------------


def build_W(spec: NetworkSpec) -> RatMatrix:
    """W = (I - P')^{-1}; nonnegative with a positive diagonal for valid specs."""
    return (RatMatrix.identity(spec.class_count) - spec.routing.transpose()).inverse()


def build_B(spec: NetworkSpec) -> RatMatrix:
    """0/1 step matrix: row k has a single 1 at the next class above k."""
    K = spec.class_count
    sets = priority_sets(spec)
    rows = [[Fraction(0)] * K for _ in range(K)]
    for k in range(1, K + 1):
        target = sets.next_higher[k]
        if target is not None:
            rows[k - 1][target - 1] = Fraction(1)
    return RatMatrix(rows)


def build_F(spec: NetworkSpec) -> RatMatrix:
    """F[k][k'] = 1 iff k' serves at or above k's priority at the same station."""
    K = spec.class_count
    sets = priority_sets(spec)
    rows = [
        [
            Fraction(1) if (k2 + 1) in sets.at_or_above[k + 1] else Fraction(0)
            for k2 in range(K)
        ]
        for k in range(K)
    ]
    return RatMatrix(rows)


def build_A(spec: NetworkSpec, *, B: Optional[RatMatrix] = None) -> RatMatrix:
    """A = (I - P') M^{-1} (I - B); pass ``B=build_B(spec)`` to reuse it."""
    identity = RatMatrix.identity(spec.class_count)
    inverse_means = RatMatrix.diagonal([Fraction(1) / m for m in spec.service_means])
    B = build_B(spec) if B is None else B
    return (identity - spec.routing.transpose()) @ inverse_means @ (identity - B)


def build_A_inverse(spec: NetworkSpec, *, W: Optional[RatMatrix] = None) -> RatMatrix:
    """Closed form A^{-1} = F M W, assembled entrywise without inverting A;
    pass ``W=build_W(spec)`` to reuse it."""
    K = spec.class_count
    W = build_W(spec) if W is None else W
    sets = priority_sets(spec)
    means = spec.service_means
    rows = []
    for k1 in range(1, K + 1):
        horizon = sets.at_or_above[k1]
        rows.append(
            [
                sum(
                    (means[k - 1] * W.at(k - 1, k2 - 1) for k in horizon),
                    Fraction(0),
                )
                for k2 in range(1, K + 1)
            ]
        )
    return RatMatrix(rows)


def build_Q(spec: NetworkSpec, *, W: Optional[RatMatrix] = None) -> RatMatrix:
    """Station workload matrix Q[i][j] = sum over classes k at station i of
    m_k * W[k][lowest(j)], using the spec's own station numbering; pass
    ``W=build_W(spec)`` to reuse it."""
    W = build_W(spec) if W is None else W
    sets = priority_sets(spec)
    d = spec.station_count
    means = spec.service_means
    rows = []
    for i in range(1, d + 1):
        members = spec.classes_at(i)
        rows.append(
            [
                sum(
                    (means[k - 1] * W.at(k - 1, sets.lowest[j] - 1) for k in members),
                    Fraction(0),
                )
                for j in range(1, d + 1)
            ]
        )
    return RatMatrix(rows)


def reflection_matrix(
    spec: NetworkSpec, *, Q: Optional[RatMatrix] = None, A: Optional[RatMatrix] = None
) -> RatMatrix:
    """R = Q^{-1}, cross-checked against the block-elimination route; pass
    ``Q=build_Q(spec)`` and ``A=build_A(spec)`` to reuse them.

    Raises QSingularError when Q (equivalently the high-priority block of A)
    is singular, in which case no reflection matrix exists.
    """
    Q = build_Q(spec) if Q is None else Q
    A = build_A(spec) if A is None else A
    sets = priority_sets(spec)
    low = sorted(sets.low_classes)
    high = sorted(sets.high_classes)
    A_H = A.principal_submatrix(high) if high else None

    # Q is singular exactly when A_H is; with no high-priority classes, Q is
    # A^{-1} up to a permutation and never singular.
    q_singular = Q.det() == 0
    if q_singular != (A_H is not None and A_H.det() == 0):
        raise InternalInconsistencyError(
            "workload matrix and high-priority block of A disagree on singularity"
        )
    if q_singular:
        raise QSingularError(
            "the station workload matrix is singular; no reflection matrix exists"
        )

    R = Q.inverse()

    # Independent route: eliminate the high-priority block of A and compare.
    if A_H is not None:
        A_L = A.principal_submatrix(low)
        A_LH = RatMatrix([[A.at(i - 1, j - 1) for j in high] for i in low])
        A_HL = RatMatrix([[A.at(i - 1, j - 1) for j in low] for i in high])
        schur = A_L - A_LH @ A_H.inverse() @ A_HL
    else:
        schur = A
    position = {cls: idx for idx, cls in enumerate(low)}
    d = spec.station_count
    mapped = RatMatrix(
        [
            [
                schur.at(position[sets.lowest[i]], position[sets.lowest[j]])
                for j in range(1, d + 1)
            ]
            for i in range(1, d + 1)
        ]
    )
    if mapped != R:
        raise InternalInconsistencyError(
            "block-elimination reflection matrix disagrees with the workload inverse"
        )
    return R


@dataclass(frozen=True)
class TrafficReport:
    alpha: tuple[Rational, ...]
    rho: tuple[Rational, ...]
    heavy_traffic: bool


def traffic(spec: NetworkSpec, *, W: Optional[RatMatrix] = None) -> TrafficReport:
    """Effective arrival rates alpha = W lambda and station utilizations;
    pass ``W=build_W(spec)`` to reuse it."""
    W = build_W(spec) if W is None else W
    alpha = W.apply(spec.arrival_rates)
    rho = []
    for i in range(1, spec.station_count + 1):
        members = spec.classes_at(i)
        rho.append(
            sum(
                (alpha[k - 1] * spec.service_means[k - 1] for k in members),
                Fraction(0),
            )
        )
    return TrafficReport(
        alpha=tuple(alpha),
        rho=tuple(rho),
        heavy_traffic=all(r == 1 for r in rho),
    )


@dataclass(frozen=True)
class DerivedMatrices:
    """Everything derivable from one valid spec, on relabeled stations."""

    spec: NetworkSpec
    relabel: tuple[int, ...]
    W: RatMatrix
    B: RatMatrix
    F: RatMatrix
    A: RatMatrix
    A_inverse: RatMatrix
    Q: RatMatrix
    reflection: Optional[RatMatrix]
    traffic: TrafficReport


def derive_matrices(spec: NetworkSpec) -> DerivedMatrices:
    """Validate, relabel, and derive every matrix, with internal cross-checks."""
    require_valid(spec)
    relabeled, permutation = relabel_stations(spec)
    W = build_W(relabeled)
    B = build_B(relabeled)
    A = build_A(relabeled, B=B)
    A_inverse = build_A_inverse(relabeled, W=W)
    if A @ A_inverse != RatMatrix.identity(spec.class_count):
        raise InternalInconsistencyError("closed-form inverse of A failed its check")
    Q = build_Q(relabeled, W=W)
    try:
        reflection = reflection_matrix(relabeled, Q=Q, A=A)
    except QSingularError:
        reflection = None
    return DerivedMatrices(
        spec=relabeled,
        relabel=permutation,
        W=W,
        B=B,
        F=build_F(relabeled),
        A=A,
        A_inverse=A_inverse,
        Q=Q,
        reflection=reflection,
        traffic=traffic(relabeled, W=W),
    )


# --------------------------------------------------------------------------
# reentrant lines
# --------------------------------------------------------------------------


class Discipline(Enum):
    FBFS = "fbfs"  # first buffer first served: earlier visit = higher priority
    LBFS = "lbfs"  # last buffer first served: later visit = higher priority


def reentrant_spec(
    route: Sequence[int],
    means: Sequence[RationalLike],
    arrival_rate: RationalLike,
    discipline: Discipline | str,
) -> NetworkSpec:
    """Build the network where every customer follows one fixed route.

    ``route[k-1]`` is the station visited at step k; class k is the k-th
    visit.  Routing sends class k to class k+1 with probability one, and only
    class 1 receives outside arrivals.
    """
    disc = discipline if isinstance(discipline, Discipline) else Discipline(discipline.lower())
    K = len(route)
    if K == 0:
        raise SpecValidationError((("route", "route must be nonempty"),))
    if len(means) != K:
        raise SpecValidationError(
            (("service_means", f"expected {K} entries matching the route"),)
        )
    out_of_range = sorted({s for s in route if s < 1})
    if out_of_range:
        raise SpecValidationError(
            (("route", f"station indices must be at least 1, got {out_of_range}"),)
        )
    d = max(route)
    missing = [i for i in range(1, d + 1) if i not in route]
    if missing:
        raise SpecValidationError(
            (("route", f"stations must cover 1..{d} with no gaps, missing {missing}"),)
        )
    rate = as_rational(arrival_rate)
    if rate < 0:
        raise SpecValidationError((("arrival_rate", "arrival rate must be nonnegative"),))

    rows = [[Fraction(0)] * K for _ in range(K)]
    for k in range(K - 1):
        rows[k][k + 1] = Fraction(1)
    if disc is Discipline.FBFS:
        priority = tuple(range(1, K + 1))
    else:
        priority = tuple(K + 1 - k for k in range(1, K + 1))
    spec = NetworkSpec(
        class_count=K,
        station_count=d,
        station_of_class=tuple(route),
        routing=RatMatrix(rows),
        service_means=as_rational_vector(means),
        arrival_rates=(rate,) + (Fraction(0),) * (K - 1),
        priority=priority,
    )
    require_valid(spec)
    return spec


# --------------------------------------------------------------------------
# JSON wire format
# --------------------------------------------------------------------------

_SPEC_FIELDS = {
    "classes",
    "stations",
    "station_of_class",
    "priority",
    "service_means",
    "arrival_rates",
    "routing",
}


def spec_to_json_dict(spec: NetworkSpec) -> dict:
    return {
        "classes": spec.class_count,
        "stations": spec.station_count,
        "station_of_class": list(spec.station_of_class),
        "priority": list(spec.priority),
        "service_means": format_rational_vector(spec.service_means),
        "arrival_rates": format_rational_vector(spec.arrival_rates),
        "routing": [[format_rational(v) for v in row] for row in spec.routing.row_lists()],
    }


def _json_int(field: str, value) -> int:
    # bool is an int subclass, and int() would truncate 1.9 or read "2".
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecValidationError(((field, f"expected an integer, got {value!r}"),))
    return value


def _json_list(field: str, value) -> list:
    # A string would be iterated character by character.
    if not isinstance(value, list):
        raise SpecValidationError(((field, f"expected a list, got {value!r}"),))
    return value


def _json_ints(field: str, value) -> tuple[int, ...]:
    return tuple(_json_int(field, v) for v in _json_list(field, value))


def _json_rationals(field: str, value) -> tuple[Rational, ...]:
    return tuple(parse_rational(str(v)) for v in _json_list(field, value))


def spec_from_json_dict(data: dict) -> NetworkSpec:
    """Parse the documented JSON document; unknown fields are rejected."""
    if not isinstance(data, dict):
        raise SpecValidationError((("document", "expected a JSON object"),))
    unknown = set(data) - _SPEC_FIELDS
    if unknown:
        raise SpecValidationError(
            (("document", f"unknown fields: {sorted(unknown)}"),)
        )
    missing = _SPEC_FIELDS - set(data)
    if missing:
        raise SpecValidationError(
            (("document", f"missing fields: {sorted(missing)}"),)
        )
    try:
        spec = NetworkSpec(
            class_count=_json_int("classes", data["classes"]),
            station_count=_json_int("stations", data["stations"]),
            station_of_class=_json_ints("station_of_class", data["station_of_class"]),
            routing=RatMatrix(
                [_json_rationals("routing", row) for row in _json_list("routing", data["routing"])]
            ),
            service_means=_json_rationals("service_means", data["service_means"]),
            arrival_rates=_json_rationals("arrival_rates", data["arrival_rates"]),
            priority=_json_ints("priority", data["priority"]),
        )
    except SpecValidationError:
        raise
    except (TypeError, ValueError) as exc:
        raise SpecValidationError((("document", str(exc)),)) from exc
    require_valid(spec)
    return spec


def load_spec(path: str) -> NetworkSpec:
    with open(path, "r", encoding="utf-8") as handle:
        return spec_from_json_dict(json.load(handle))


def dump_spec(spec: NetworkSpec, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(spec_to_json_dict(spec), handle, indent=2)
        handle.write("\n")
