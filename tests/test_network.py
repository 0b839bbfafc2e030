"""Network derivations: the seven-class fixture, identities, and edge cases."""

import random
from fractions import Fraction

import pytest

from reflecto import network
from reflecto import (
    NetworkSpec,
    QSingularError,
    RatMatrix,
    SpecValidationError,
    build_A,
    build_A_inverse,
    build_B,
    build_F,
    build_Q,
    build_W,
    decide_tight_matrix,
    derive_matrices,
    has_staircase_sign_pattern,
    is_m_matrix,
    priority_sets,
    reentrant_spec,
    reflection_matrix,
    relabel_stations,
    spec_from_json_dict,
    spec_to_json_dict,
    traffic,
    validate_spec,
)

from _generators import random_reentrant_line, random_spec

ROUTE = [1, 1, 2, 3, 2, 3, 3]
MEANS = [2, 1, 2, 1, 1, 1, 1]
ARRIVAL = Fraction(1, 3)


@pytest.fixture
def fbfs_spec():
    return reentrant_spec(ROUTE, MEANS, ARRIVAL, "fbfs")


@pytest.fixture
def lbfs_spec():
    return reentrant_spec(ROUTE, MEANS, ARRIVAL, "lbfs")


# --------------------------------------------------------------------------
# the seven-class three-station fixture
# --------------------------------------------------------------------------


def test_fbfs_priority_structure(fbfs_spec):
    sets = priority_sets(fbfs_spec)
    assert [sets.lowest[i] for i in (1, 2, 3)] == [2, 5, 7]
    assert sets.at_or_above[7] == {4, 6, 7}
    assert sets.next_higher[7] == 6
    assert sets.next_higher[6] == 4
    assert sets.next_higher[4] is None
    assert sets.low_classes == (2, 5, 7)
    assert sets.high_classes == {1, 3, 4, 6}


def test_fbfs_relabel_is_identity(fbfs_spec):
    relabeled, order = relabel_stations(fbfs_spec)
    assert order == (1, 2, 3)
    assert relabeled == fbfs_spec


def test_reentrant_visits_matrix_is_lower_triangular_of_ones(fbfs_spec):
    W = build_W(fbfs_spec)
    for k in range(7):
        for cls in range(7):
            assert W.at(k, cls) == (1 if k >= cls else 0)


def test_fbfs_step_matrix_rows(fbfs_spec):
    B = build_B(fbfs_spec)
    expected = {(2, 1), (5, 3), (6, 4), (7, 6)}  # (class, next higher)
    ones = {
        (i + 1, j + 1)
        for i in range(7)
        for j in range(7)
        if B.at(i, j) == 1
    }
    assert ones == expected


def test_fbfs_horizon_matrix_rows(fbfs_spec):
    F = build_F(fbfs_spec)
    # row of a lowest-priority class is the indicator of its whole station
    assert [F.at(6, j) for j in range(7)] == [0, 0, 0, 1, 0, 1, 1]
    assert [F.at(1, j) for j in range(7)] == [1, 1, 0, 0, 0, 0, 0]


def test_fbfs_workload_and_reflection(fbfs_spec):
    derived = derive_matrices(fbfs_spec)
    assert derived.Q == RatMatrix([[1, 0, 0], [3, 1, 0], [3, 2, 1]])
    assert derived.reflection == RatMatrix([[1, 0, 0], [-3, 1, 0], [3, -2, 1]])


def test_fbfs_traffic(fbfs_spec):
    report = traffic(fbfs_spec)
    assert report.alpha == (Fraction(1, 3),) * 7
    assert report.rho == (Fraction(1), Fraction(1), Fraction(1))
    assert report.heavy_traffic


def test_traffic_scales_with_arrivals(fbfs_spec):
    halved = reentrant_spec(ROUTE, MEANS, ARRIVAL / 2, "fbfs")
    report = traffic(halved)
    assert report.rho == (Fraction(1, 2),) * 3
    assert not report.heavy_traffic
    idle = reentrant_spec(ROUTE, MEANS, 0, "fbfs")
    assert traffic(idle).rho == (Fraction(0),) * 3


def test_lbfs_variant(lbfs_spec):
    sets = priority_sets(lbfs_spec)
    assert [sets.lowest[i] for i in (1, 2, 3)] == [1, 3, 4]
    derived = derive_matrices(lbfs_spec)
    assert derived.Q == RatMatrix([[3, 0, 0], [3, 3, 1], [3, 3, 3]])
    assert derived.reflection == RatMatrix(
        [
            [Fraction(1, 3), 0, 0],
            [Fraction(-1, 3), Fraction(1, 2), Fraction(-1, 6)],
            [0, Fraction(-1, 2), Fraction(1, 2)],
        ]
    )
    assert has_staircase_sign_pattern(derived.reflection)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------


def test_validation_accepts_fixture(fbfs_spec):
    assert validate_spec(fbfs_spec).valid


def _base_spec():
    return NetworkSpec(
        class_count=2,
        station_count=1,
        station_of_class=(1, 1),
        routing=RatMatrix([[0, Fraction(1, 2)], [0, 0]]),
        service_means=(Fraction(1), Fraction(2)),
        arrival_rates=(Fraction(1, 4), Fraction(0)),
        priority=(1, 2),
    )


def test_validation_rejects_superstochastic_row():
    from dataclasses import replace

    spec = replace(_base_spec(), routing=RatMatrix([[2, 0], [0, 0]]))
    report = validate_spec(spec)
    assert not report.valid
    assert any("sums above one" in msg for _, msg in report.issues)


def test_validation_rejects_identity_routing():
    from dataclasses import replace

    spec = replace(_base_spec(), routing=RatMatrix.identity(2))
    report = validate_spec(spec)
    assert not report.valid
    assert any("singular" in msg for _, msg in report.issues)


def test_validation_rejects_empty_station():
    from dataclasses import replace

    spec = replace(_base_spec(), station_count=2)
    report = validate_spec(spec)
    assert not report.valid
    assert any("serves no class" in msg for _, msg in report.issues)


def test_validation_rejects_bad_priorities():
    from dataclasses import replace

    spec = replace(_base_spec(), priority=(1, 1))
    assert not validate_spec(spec).valid


def test_validation_rejects_nonpositive_means():
    from dataclasses import replace

    spec = replace(_base_spec(), service_means=(Fraction(0), Fraction(1)))
    assert not validate_spec(spec).valid


def test_two_class_feedback_visits():
    spec = _base_spec()
    assert build_W(spec) == RatMatrix([[1, 0], [Fraction(1, 2), 1]])


def test_relabel_swapped_stations():
    # stations named against the priority order: lowest classes are 2 and 1
    spec = NetworkSpec(
        class_count=2,
        station_count=2,
        station_of_class=(1, 2),
        routing=RatMatrix.zeros(2, 2),
        service_means=(Fraction(1), Fraction(1)),
        arrival_rates=(Fraction(1), Fraction(1)),
        priority=(1, 2),
    )
    # station 1 serves class 1 only, station 2 serves class 2 only: identity
    relabeled, order = relabel_stations(spec)
    assert order == (1, 2)

    swapped = NetworkSpec(
        class_count=2,
        station_count=2,
        station_of_class=(2, 1),
        routing=RatMatrix.zeros(2, 2),
        service_means=(Fraction(1), Fraction(1)),
        arrival_rates=(Fraction(1), Fraction(1)),
        priority=(1, 2),
    )
    relabeled, order = relabel_stations(swapped)
    assert order == (2, 1)
    assert relabeled.station_of_class == (1, 2)


def test_single_station_relabel_trivial():
    spec = _base_spec()
    _, order = relabel_stations(spec)
    assert order == (1,)


# --------------------------------------------------------------------------
# structural identities on random specs
# --------------------------------------------------------------------------


def test_one_class_per_station_has_trivial_step_matrix():
    spec = NetworkSpec(
        class_count=3,
        station_count=3,
        station_of_class=(1, 2, 3),
        routing=RatMatrix.zeros(3, 3),
        service_means=(Fraction(2), Fraction(1), Fraction(1)),
        arrival_rates=(Fraction(1), Fraction(0), Fraction(0)),
        priority=(2, 1, 3),
    )
    assert build_B(spec) == RatMatrix.zeros(3, 3)
    assert build_F(spec) == RatMatrix.identity(3)


def test_single_class_single_station():
    spec = NetworkSpec(
        class_count=1,
        station_count=1,
        station_of_class=(1,),
        routing=RatMatrix.zeros(1, 1),
        service_means=(Fraction(2),),
        arrival_rates=(Fraction(1, 4),),
        priority=(1,),
    )
    assert build_A(spec) == RatMatrix([[Fraction(1, 2)]])
    assert build_A_inverse(spec) == RatMatrix([[2]])
    assert reflection_matrix(spec) == RatMatrix([[Fraction(1, 2)]])


def test_identities_on_random_specs():
    rng = random.Random(61)
    for _ in range(30):
        spec = random_spec(rng)
        assert validate_spec(spec).valid
        derived = derive_matrices(spec)  # runs the block-elimination cross-check
        K = spec.class_count
        identity = RatMatrix.identity(K)
        assert derived.F @ (identity - derived.B) == identity
        assert derived.A_inverse @ derived.A == identity
        assert derived.A_inverse == derived.A.inverse()
        sets = priority_sets(derived.spec)
        d = spec.station_count
        for i in range(1, d + 1):
            for j in range(1, d + 1):
                assert derived.A_inverse.at(
                    sets.lowest[i] - 1, sets.lowest[j] - 1
                ) == derived.Q.at(i - 1, j - 1)
        # derive_matrices hands each builder its inputs; the builders alone
        # derive them again and must agree field by field
        relabeled = derived.spec
        assert derived.W == build_W(relabeled)
        assert derived.B == build_B(relabeled)
        assert derived.F == build_F(relabeled)
        assert derived.A == build_A(relabeled)
        assert derived.A_inverse == build_A_inverse(relabeled)
        assert derived.Q == build_Q(relabeled)
        assert derived.traffic == traffic(relabeled)
        if derived.reflection is None:
            with pytest.raises(QSingularError):
                reflection_matrix(relabeled)
        else:
            assert derived.reflection == reflection_matrix(relabeled)


def test_derive_builds_each_matrix_once(monkeypatch):
    K = 24
    spec = reentrant_spec(
        [1 + k % 4 for k in range(K)],
        [Fraction(1 + k % 3, 7) for k in range(K)],
        Fraction(1, 5),
        "fbfs",
    )
    calls = {"build_A": 0, "build_B": 0, "inverse": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(network, "build_A", counted("build_A", network.build_A))
    monkeypatch.setattr(network, "build_B", counted("build_B", network.build_B))
    inverse = RatMatrix.inverse

    def counted_inverse(self):
        if self.rows == K:
            calls["inverse"] += 1
        return inverse(self)

    monkeypatch.setattr(RatMatrix, "inverse", counted_inverse)
    derived = derive_matrices(spec)
    assert derived.reflection is not None
    assert calls["build_A"] == 1
    assert calls["build_B"] == 1
    # one K x K inverse validates the routing, the other is W
    assert calls["inverse"] <= 2


def test_reentrant_workload_matches_partial_sums():
    rng = random.Random(62)
    for _ in range(15):
        for discipline in ("fbfs", "lbfs"):
            spec = random_reentrant_line(rng, discipline)
            relabeled, _ = relabel_stations(spec)
            sets = priority_sets(relabeled)
            Q = build_Q(relabeled)
            for i in range(1, relabeled.station_count + 1):
                for j in range(1, relabeled.station_count + 1):
                    expected = sum(
                        (
                            relabeled.service_means[k - 1]
                            for k in relabeled.classes_at(i)
                            if k >= sets.lowest[j]
                        ),
                        Fraction(0),
                    )
                    assert Q.at(i - 1, j - 1) == expected


def test_singular_workload_matrix_raises_and_matches_block_test():
    # two stations, cross-routing tuned so the two workload columns coincide
    spec = NetworkSpec(
        class_count=4,
        station_count=2,
        station_of_class=(1, 1, 2, 2),
        routing=RatMatrix(
            [[0, 0, 0, 1], [0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 0, 0]]
        ),
        service_means=(Fraction(1), Fraction(2), Fraction(1), Fraction(1)),
        arrival_rates=(Fraction(1, 10), Fraction(0), Fraction(0), Fraction(0)),
        priority=(4, 1, 3, 2),
    )
    assert validate_spec(spec).valid
    assert build_Q(spec).det() == 0
    with pytest.raises(QSingularError):
        reflection_matrix(spec)
    # the high-priority block of A must be singular exactly when Q is
    sets = priority_sets(spec)
    A = build_A(spec)
    assert A.principal_submatrix(sorted(sets.high_classes)).det() == 0
    derived = derive_matrices(spec)
    assert derived.reflection is None


def test_two_station_positive_determinant_gives_m_matrix():
    rng = random.Random(63)
    checked = 0
    while checked < 20:
        spec = random_spec(rng, d_max=2, K_max=8)
        if spec.station_count != 2:
            continue
        derived = derive_matrices(spec)
        if derived.Q.det() <= 0:
            continue
        checked += 1
        assert derived.reflection is not None
        assert is_m_matrix(derived.reflection)
        from reflecto import DecisionStatus

        decision = decide_tight_matrix(derived.reflection)
        assert decision.status is DecisionStatus.TIGHT_PROVEN


def test_lbfs_lines_have_staircase_reflection():
    rng = random.Random(64)
    for _ in range(20):
        spec = random_reentrant_line(rng, "lbfs")
        derived = derive_matrices(spec)
        assert derived.reflection is not None
        assert has_staircase_sign_pattern(derived.reflection)


# --------------------------------------------------------------------------
# the reentrant builder and the JSON format
# --------------------------------------------------------------------------


def test_reentrant_route_must_cover_stations():
    with pytest.raises(SpecValidationError):
        reentrant_spec([1, 3], [1, 1], Fraction(1), "fbfs")
    for route, bad in (([1, 0, 2], "[0]"), ([-1, 1], "[-1]")):
        with pytest.raises(SpecValidationError) as caught:
            reentrant_spec(route, [1] * len(route), Fraction(1), "fbfs")
        assert f"at least 1, got {bad}" in str(caught.value)
    with pytest.raises(SpecValidationError):
        reentrant_spec([], [], Fraction(1), "fbfs")
    with pytest.raises(SpecValidationError):
        reentrant_spec([1, 2], [1], Fraction(1), "fbfs")


def test_single_class_route():
    spec = reentrant_spec([1], [Fraction(1, 2)], Fraction(1), "lbfs")
    assert spec.routing == RatMatrix.zeros(1, 1)
    assert spec.priority == (1,)


def test_spec_json_round_trip(fbfs_spec):
    document = spec_to_json_dict(fbfs_spec)
    assert document["classes"] == 7
    assert document["service_means"][0] == "2"
    round_tripped = spec_from_json_dict(document)
    assert round_tripped == fbfs_spec


def test_spec_json_rejects_unknown_and_missing_fields(fbfs_spec):
    document = spec_to_json_dict(fbfs_spec)
    document["color"] = "blue"
    with pytest.raises(SpecValidationError):
        spec_from_json_dict(document)
    document = spec_to_json_dict(fbfs_spec)
    del document["routing"]
    with pytest.raises(SpecValidationError):
        spec_from_json_dict(document)


def test_spec_json_rejects_float_entries(fbfs_spec):
    document = spec_to_json_dict(fbfs_spec)
    document["service_means"] = ["2.0"] + document["service_means"][1:]
    with pytest.raises(SpecValidationError):
        spec_from_json_dict(document)

    # Integer fields must be JSON integers and rows must be lists; read with
    # int() or iterated as strings, each document would parse to the fixture.
    base = spec_to_json_dict(fbfs_spec)
    for field, value in (
        ("station_of_class", [1.9] + base["station_of_class"][1:]),
        ("classes", 7.7),
        ("priority", [1, 2.5] + base["priority"][2:]),
        ("priority", [True] + base["priority"][1:]),
        ("stations", "3"),
        ("routing", ["".join(row) for row in base["routing"]]),
    ):
        with pytest.raises(SpecValidationError):
            spec_from_json_dict(dict(base, **{field: value}))
