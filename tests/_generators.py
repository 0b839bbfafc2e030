"""Seeded random generators and reference programs shared by the tests."""

from __future__ import annotations

import random
from fractions import Fraction

import reflecto.tightness as tightness
from reflecto import LinearProgram, NetworkSpec, RatMatrix, Relation, reentrant_spec


def random_rational(rng: random.Random, max_num: int = 8, max_den: int = 8) -> Fraction:
    return Fraction(rng.randint(1, max_num), rng.randint(1, max_den))


def random_signed_rational(rng: random.Random, max_num: int = 8, max_den: int = 8) -> Fraction:
    value = random_rational(rng, max_num, max_den)
    return value if rng.random() < 0.5 else -value


def random_matrix(rng: random.Random, n: int, zero_chance: float = 0.2) -> RatMatrix:
    rows = [
        [
            Fraction(0) if rng.random() < zero_chance else random_signed_rational(rng)
            for _ in range(n)
        ]
        for _ in range(n)
    ]
    return RatMatrix(rows)


def random_m_matrix(rng: random.Random, d: int) -> RatMatrix:
    """Strictly diagonally dominant with negative off-diagonal entries.

    Dominance makes every principal submatrix nonsingular, so the result is a
    nonsingular M-matrix by construction.
    """
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        for j in range(d):
            if i != j:
                rows[i][j] = -random_rational(rng)
    for i in range(d):
        rows[i][i] = sum(-rows[i][j] for j in range(d) if j != i) + random_rational(rng)
    return RatMatrix(rows)


def random_p_not_m_matrix(rng: random.Random, d: int) -> RatMatrix:
    """Strictly diagonally dominant with mixed-sign off-diagonal entries.

    Dominance makes it a P-matrix; for d >= 2 entry (1, 2) is positive, so it
    is not an M-matrix.
    """
    rows = [
        [Fraction(0) if i == j else random_signed_rational(rng) for j in range(d)]
        for i in range(d)
    ]
    if d >= 2:
        rows[0][1] = abs(rows[0][1])
    for i in range(d):
        rows[i][i] = sum(abs(v) for v in rows[i]) + random_rational(rng)
    return RatMatrix(rows)


def random_staircase_matrix(rng: random.Random, d: int) -> RatMatrix:
    """Diagonally dominant staircase: negative first subdiagonal, zeros below it."""
    rows = [[Fraction(0)] * d for _ in range(d)]
    for i in range(d):
        if i >= 1:
            rows[i][i - 1] = -random_rational(rng)
        for j in range(i + 1, d):
            rows[i][j] = random_signed_rational(rng)
        rows[i][i] = sum(abs(v) for v in rows[i]) + random_rational(rng)
    return RatMatrix(rows)


def random_station_assignment(rng: random.Random, d: int, K: int) -> list[int]:
    assignment = list(range(1, d + 1)) + [rng.randint(1, d) for _ in range(K - d)]
    rng.shuffle(assignment)
    for station in range(1, d + 1):
        if station not in assignment:
            assignment[rng.randrange(K)] = station
    if any(s not in assignment for s in range(1, d + 1)):
        return random_station_assignment(rng, d, K)
    return assignment


def random_spec(rng: random.Random, d_max: int = 4, K_max: int = 10) -> NetworkSpec:
    """A valid network with strictly substochastic routing (hence transient)."""
    d = rng.randint(1, d_max)
    K = rng.randint(d, K_max)
    station_of_class = random_station_assignment(rng, d, K)
    priority = list(range(1, K + 1))
    rng.shuffle(priority)
    rows = [[Fraction(0)] * K for _ in range(K)]
    for i in range(K):
        targets = rng.sample(range(K), k=rng.randint(0, min(3, K)))
        weights = [Fraction(rng.randint(1, 8)) for _ in targets]
        total = sum(weights)
        if targets and total > 0:
            cap = Fraction(rng.randint(1, 15), 16)
            for t, w in zip(targets, weights):
                rows[i][t] = w / total * cap
    means = [Fraction(rng.randint(1, 12), rng.randint(1, 6)) for _ in range(K)]
    arrivals = [Fraction(rng.randint(0, 3), rng.randint(1, 4)) for _ in range(K)]
    return NetworkSpec(
        class_count=K,
        station_count=d,
        station_of_class=tuple(station_of_class),
        routing=RatMatrix(rows),
        service_means=tuple(means),
        arrival_rates=tuple(arrivals),
        priority=tuple(priority),
    )


def random_reentrant_line(
    rng: random.Random, discipline: str, d_max: int = 4, K_max: int = 8
) -> NetworkSpec:
    """A reentrant line visiting every station, mean times in [1/4, 4]."""
    d = rng.randint(1, d_max)
    K = rng.randint(d, K_max)
    route = random_station_assignment(rng, d, K)
    means = []
    for _ in range(K):
        den = rng.randint(1, 4)
        num = rng.randint(max(1, (den + 3) // 4), 4 * den)
        means.append(Fraction(num, den))
    return reentrant_spec(route, means, Fraction(1, 10), discipline)


def all_active_box_program(system: tightness.TightnessSystem) -> LinearProgram:
    """The box LP of ``check_tight_system`` with its lazy monotonicity rows
    made active, between the balance rows and the box rows; the pinned
    pivot tests measure the solver on this program."""
    program = tightness._box_program(system)
    balance = tuple(row for row in program.constraints if row.relation is Relation.EQ)
    box = program.constraints[len(balance):]
    return LinearProgram(program.objective, balance + program.lazy + box)
