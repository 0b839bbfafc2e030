"""Command-line interface: exit codes, JSON determinism, round trips."""

import json
from fractions import Fraction

import pytest

from reflecto.cli import main

REFLECTION_ROWS = [["1", "0", "0"], ["-3", "1", "0"], ["3", "-2", "1"]]

WITNESS_TABLE = {
    "x{}": "1",
    "x{1}": "1",
    "x{2}": "1",
    "x{3}": "3/4",
    "x{1,2}": "1",
    "x{1,3}": "1/2",
    "x{2,3}": "1/2",
    "x{1,2,3}": "1/2",
    "x{}^(1)": "1",
    "x{2}^(1)": "1",
    "x{3}^(1)": "1/2",
    "x{2,3}^(1)": "1/2",
    "x{}^(2)": "1",
    "x{1}^(2)": "1",
    "x{3}^(2)": "1/2",
    "x{1,3}^(2)": "1/2",
    "x{}^(3)": "1",
    "x{1}^(3)": "1/2",
    "x{2}^(3)": "1/2",
    "x{1,2}^(3)": "1/2",
}


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(json.dumps({"matrix": REFLECTION_ROWS}))
    return str(path)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "line.json"
    code = main(
        [
            "reentrant",
            "--route",
            "1,1,2,3,2,3,3",
            "--means",
            "2,1,2,1,1,1,1",
            "--arrival",
            "1/3",
            "--discipline",
            "fbfs",
            "-o",
            str(path),
        ]
    )
    assert code == 0
    return str(path)


def test_reentrant_emits_expected_spec(spec_file):
    document = json.loads(open(spec_file).read())
    assert document["classes"] == 7
    assert document["stations"] == 3
    assert document["priority"] == [1, 2, 3, 4, 5, 6, 7]
    assert document["arrival_rates"][0] == "1/3"


def test_analyze_reproduces_reflection_matrix(spec_file, capsys):
    code = main(["analyze", spec_file, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["matrices"]["Q"] == [["1", "0", "0"], ["3", "1", "0"], ["3", "2", "1"]]
    assert report["matrices"]["R"] == REFLECTION_ROWS
    assert report["traffic"]["alpha"] == ["1/3"] * 7
    assert report["traffic"]["heavy_traffic"] is True
    assert report["tightness"]["status"] == "not_tight"
    assert report["tightness"]["b_witness"] == ["1", "1", "1"]


def test_analyze_lbfs_proves_tightness(tmp_path, capsys):
    path = tmp_path / "lbfs.json"
    assert (
        main(
            [
                "reentrant",
                "--route",
                "1,1,2,3,2,3,3",
                "--means",
                "2,1,2,1,1,1,1",
                "--arrival",
                "1/3",
                "--discipline",
                "lbfs",
                "-o",
                str(path),
            ]
        )
        == 0
    )
    code = main(["analyze", str(path), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["tightness"]["status"] == "tight_proven"
    assert report["tightness"]["method"] == "staircase_pattern"


def test_analyze_json_is_byte_deterministic(spec_file, capsys):
    assert main(["analyze", spec_file, "--json", "--seed", "7"]) == 0
    first = capsys.readouterr().out
    assert main(["analyze", spec_file, "--json", "--seed", "7"]) == 0
    second = capsys.readouterr().out
    assert first == second


def test_analyze_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["analyze", str(path)]) == 1


@pytest.mark.parametrize("command", ["classify", "tight", "witness"])
@pytest.mark.parametrize(
    "document", [{"matrix": 5}, {"matrix": [["1"]], "b": 3}, {"matrix": ["1"]}]
)
def test_matrix_commands_reject_malformed_matrix_file(tmp_path, capsys, command, document):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(json.dumps({"x{}": "1", "x{1}": "1/2"}))
    argv = [command, str(path)] + ([str(witness_path)] if command == "witness" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_analyze_rejects_invalid_spec(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "classes": 2,
                "stations": 1,
                "station_of_class": [1, 1],
                "priority": [1, 1],
                "service_means": ["1", "1"],
                "arrival_rates": ["0", "0"],
                "routing": [["0", "0"], ["0", "0"]],
            }
        )
    )
    assert main(["analyze", str(path)]) == 1


def test_analyze_reports_undefined_reflection(tmp_path, capsys):
    path = tmp_path / "singular.json"
    path.write_text(
        json.dumps(
            {
                "classes": 4,
                "stations": 2,
                "station_of_class": [1, 1, 2, 2],
                "priority": [4, 1, 3, 2],
                "service_means": ["1", "2", "1", "1"],
                "arrival_rates": ["1/10", "0", "0", "0"],
                "routing": [
                    ["0", "0", "0", "1"],
                    ["0", "0", "0", "1"],
                    ["0", "1", "0", "0"],
                    ["0", "0", "0", "0"],
                ],
            }
        )
    )
    code = main(["analyze", str(path), "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["reflection_defined"] is False
    assert report["matrices"]["R"] is None
    assert report["tightness"] is None


def test_classify_reflection_matrix(matrix_file, capsys):
    code = main(["classify", matrix_file, "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    cls = report["classification"]
    assert cls["completely_s"] is True
    assert cls["p_matrix"] is True
    assert cls["m_matrix"] is False
    assert cls["staircase_pattern"] is False


def test_classify_two_by_two_case(tmp_path, capsys):
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"matrix": [["1", "-1"], ["-1", "1"]]}))
    assert main(["classify", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    cls = report["classification"]
    assert cls["completely_s"] is False
    assert cls["failing_subset"] == [1, 2]
    assert cls["two_by_two_case"] == "not_completely_s"


def test_classify_identity_two_by_two(tmp_path, capsys):
    path = tmp_path / "id2.json"
    path.write_text(json.dumps({"matrix": [["1", "0"], ["0", "1"]]}))
    assert main(["classify", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    cls = report["classification"]
    assert cls["m_matrix"] is True
    assert cls["two_by_two_case"] == "tight_nonpositive"


def test_classify_rejects_non_square(tmp_path):
    path = tmp_path / "rect.json"
    path.write_text(json.dumps({"matrix": [["1", "0", "0"], ["0", "1", "0"]]}))
    assert main(["classify", str(path)]) == 1


def test_tight_single_b_reports_witness(matrix_file, capsys):
    code = main(["tight", matrix_file, "--b", "1,1,1", "--json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    result = report["result"]
    assert result["tight"] is False
    assert result["optimum"] == "11/2"
    assert result["witness"]["x{}"] == "1"


def test_tight_rejects_nonpositive_b(matrix_file):
    assert main(["tight", matrix_file, "--b", "1,0,1"]) == 1


def test_tight_decision_identity(tmp_path, capsys):
    path = tmp_path / "identity.json"
    path.write_text(json.dumps({"matrix": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
    assert main(["tight", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["status"] == "tight_proven"
    assert report["result"]["method"] == "m_matrix"


def test_tight_decision_nonnegative_case(tmp_path, capsys):
    path = tmp_path / "ones.json"
    path.write_text(json.dumps({"matrix": [["1", "1"], ["1", "1"]]}))
    assert main(["tight", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    result = report["result"]
    assert result["status"] == "not_tight"
    assert result["b_witness"] == ["1", "1"]
    assert result["witness"]["x{1}"] == "3/4"


@pytest.mark.parametrize("command", ["tight", "analyze"])
def test_negative_samples_rejected(matrix_file, spec_file, capsys, command):
    path = matrix_file if command == "tight" else spec_file
    assert main([command, path, "--samples", "-3"]) == 1
    assert "--samples" in capsys.readouterr().err


def test_tight_not_completely_s(tmp_path, capsys):
    path = tmp_path / "notcs.json"
    path.write_text(json.dumps({"matrix": [["1", "-1"], ["-1", "1"]]}))
    assert main(["tight", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["result"]["status"] == "not_completely_s"
    assert report["result"]["failing_subset"] == [1, 2]


def test_witness_command_accepts_hand_witness(matrix_file, tmp_path, capsys):
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(json.dumps(WITNESS_TABLE))
    code = main(["witness", matrix_file, str(witness_path), "--b", "1,1,1"])
    assert code == 0
    out = capsys.readouterr().out
    assert "verifies" in out


def test_witness_command_rejects_all_ones(matrix_file, tmp_path):
    table = {key: "1" for key in WITNESS_TABLE}
    witness_path = tmp_path / "ones.json"
    witness_path.write_text(json.dumps(table))
    assert main(["witness", matrix_file, str(witness_path)]) == 1


def test_witness_command_rejects_perturbed_value(matrix_file, tmp_path, capsys):
    table = dict(WITNESS_TABLE)
    table["x{3}"] = "1"
    witness_path = tmp_path / "bad.json"
    witness_path.write_text(json.dumps(table))
    assert main(["witness", matrix_file, str(witness_path)]) == 1
    assert "balance[D={3},i=3]" in capsys.readouterr().out


def test_witness_command_reports_missing_key(matrix_file, tmp_path, capsys):
    table = dict(WITNESS_TABLE)
    del table["x{1,3}"]
    witness_path = tmp_path / "missing.json"
    witness_path.write_text(json.dumps(table))
    assert main(["witness", matrix_file, str(witness_path)]) == 1
    assert "x{1,3}" in capsys.readouterr().err


def test_not_tight_report_witness_round_trips(matrix_file, tmp_path, capsys):
    # every not-tight report embeds a witness the witness command accepts
    assert main(["tight", matrix_file, "--b", "1,1,1", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    witness_path = tmp_path / "from-report.json"
    witness_path.write_text(json.dumps(report["result"]["witness"]))
    assert main(["witness", matrix_file, str(witness_path), "--b", "1,1,1"]) == 0


def test_dimension_cap_environment_override(matrix_file, monkeypatch):
    monkeypatch.setenv("REFLECTO_DIM_CAP", "2")
    assert main(["classify", matrix_file]) == 1
    monkeypatch.setenv("REFLECTO_DIM_CAP", "12")
    assert main(["classify", matrix_file]) == 0


def test_tight_refuses_lp_above_dimension_cap(tmp_path, capsys):
    rows = [["1" if i == j else "0" for j in range(8)] for i in range(8)]
    path = tmp_path / "identity8.json"
    path.write_text(json.dumps({"matrix": rows}))
    assert main(["tight", str(path), "--b", ",".join(["1"] * 8)]) == 1
    assert "tightness-LP cap 7" in capsys.readouterr().err


def test_reentrant_validation_failure(tmp_path, capsys):
    # a station gap, a non-integer station and a fractional one
    for route in ("1,3", "1,x", "1,,2.5"):
        assert (
            main(
                [
                    "reentrant",
                    "--route",
                    route,
                    "--means",
                    "1,1",
                    "--arrival",
                    "1",
                    "--discipline",
                    "fbfs",
                    "-o",
                    str(tmp_path / "x.json"),
                ]
            )
            == 1
        )
        assert "route" in capsys.readouterr().err


def test_human_readable_analyze(spec_file, capsys):
    assert main(["analyze", spec_file]) == 0
    out = capsys.readouterr().out
    assert "R =" in out
    assert "heavy traffic: True" in out
    # the tightness section uses the same renderer as `tight`
    assert "tightness:\nstatus: not_tight\nfailing b: ['1', '1', '1']\nwitness:\n" in out
