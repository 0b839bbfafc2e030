"""Command-line interface: exit codes, JSON determinism, round trips."""

import hashlib
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import reflecto
from reflecto import dump_spec, reentrant_spec
from reflecto.cli import MAX_SAMPLES, main

REFLECTION_ROWS = [["1", "0", "0"], ["-3", "1", "0"], ["3", "-2", "1"]]

# the reentrant line of the README's command-line block
LINE_ARGS = ["--route", "1,1,2,3,2,3,3", "--means", "2,1,2,1,1,1,1", "--arrival", "1/3"]

SINGULAR_SPEC = {
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
    assert main(["reentrant", *LINE_ARGS, "--discipline", "fbfs", "-o", str(path)]) == 0
    return str(path)


@pytest.fixture
def singular_spec_file(tmp_path):
    path = tmp_path / "singular.json"
    path.write_text(json.dumps(SINGULAR_SPEC))
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
    assert main(["reentrant", *LINE_ARGS, "--discipline", "lbfs", "-o", str(path)]) == 0
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


def test_analyze_missing_file_exits_one(tmp_path, capsys):
    assert main(["analyze", str(tmp_path / "absent.json")]) == 1
    assert capsys.readouterr().err.startswith("error: ")


class _ClosedPipe:
    """A stdout whose reader has gone away."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_closed_stdout_is_not_an_input_error(spec_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    assert main(["analyze", spec_file, "--json"]) == 0
    assert capsys.readouterr().err == ""


def test_reader_closing_the_pipe_leaves_stderr_empty(tmp_path):
    # K = 40 prints about 130 kB, twice a 64 KiB pipe buffer, so the write
    # cannot finish before the reader closes its end
    K = 40
    path = tmp_path / "line.json"
    spec = reentrant_spec(
        [1 + k % 4 for k in range(K)],
        [Fraction(1 + k % 3, 7) for k in range(K)],
        Fraction(1, 5),
        "fbfs",
    )
    dump_spec(spec, str(path))
    src = str(Path(reflecto.__file__).resolve().parents[1])
    path_entries = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path_entries)))
    process = subprocess.Popen(
        [sys.executable, "-m", "reflecto.cli", "analyze", str(path), "--json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    process.stdout.close()
    stderr = process.stderr.read()
    process.stderr.close()
    assert process.wait(timeout=60) == 0
    assert stderr == b""


@pytest.mark.parametrize("command", ["classify", "tight", "witness"])
@pytest.mark.parametrize(
    "document",
    [{"matrix": 5}, {"matrix": [["1"]], "b": 3}, {"matrix": ["1"]}, {"matrix": [["1" * 5000]]}],
)
def test_matrix_commands_reject_malformed_matrix_file(tmp_path, capsys, command, document):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(document))
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(json.dumps({"x{}": "1", "x{1}": "1/2"}))
    argv = [command, str(path)] + ([str(witness_path)] if command == "witness" else [])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")


# an integer literal over the int conversion limit (4,300 digits): json.load
# raises a plain ValueError for it, not JSONDecodeError
LONG_LITERAL = "1" * 5000


@pytest.mark.parametrize(
    "command, text",
    [
        ("classify", '{"matrix": [[%s]]}' % LONG_LITERAL),
        ("analyze", '{"classes": %s}' % LONG_LITERAL),
        ("witness", '{"x{}": %s}' % LONG_LITERAL),
        ("classify", '{"matrix": [["\xff"]]}'),
    ],
    ids=["matrix-file", "network-file", "witness-table", "not-utf8"],
)
def test_unreadable_json_is_an_input_error(matrix_file, tmp_path, capsys, command, text):
    path = tmp_path / "input.json"
    path.write_bytes(text.encode("latin-1"))
    argv = [command, matrix_file, str(path)] if command == "witness" else [command, str(path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and "Traceback" not in err


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


def test_analyze_reports_undefined_reflection(singular_spec_file, capsys):
    code = main(["analyze", singular_spec_file, "--json"])
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "SPEC", "--b", "1,1"], "b has 2 entries for a 3x3 matrix"),
        (["tight", "MATRIX", "--b", "1,1,1,1"], "b has 4 entries for a 3x3 matrix"),
        (["witness", "MATRIX", "WITNESS", "--b", "1,1"], "b has 2 entries for a 3x3 matrix"),
        (["analyze", "SPEC", "--b", "1,-1,1"], "b must be strictly positive"),
        (["tight", "MATRIX", "--b", "1,0,1"], "b must be strictly positive"),
        (["witness", "MATRIX", "WITNESS", "--b", "0,1,1"], "b must be strictly positive"),
        (["classify", "RECT"], "the matrix must be square, got 3x2"),
        (["tight", "RECT"], "the matrix must be square, got 3x2"),
        (["tight", "RECT", "--b", "1,1,1"], "the matrix must be square, got 3x2"),
        (["witness", "RECT", "WITNESS"], "the matrix must be square, got 3x2"),
        (["classify", "SHORT_B"], "b must have one entry per matrix row"),
        (["analyze", "SINGULAR", "--b", "abc"], "not a rational literal: 'abc'"),
    ],
    ids=[
        "analyze-b-length",
        "tight-b-length",
        "witness-b-length",
        "analyze-b-sign",
        "tight-b-sign",
        "witness-b-sign",
        "classify-non-square",
        "tight-non-square",
        "tight-b-non-square",
        "witness-non-square",
        "classify-file-b-length",
        "analyze-singular-b-malformed",
    ],
)
def test_bad_b_and_shape_exit_one(
    argv, message, spec_file, singular_spec_file, matrix_file, tmp_path, capsys
):
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(WITNESS_TABLE))
    rect = tmp_path / "rect.json"
    rect.write_text(json.dumps({"matrix": [row[:2] for row in REFLECTION_ROWS]}))
    short_b = tmp_path / "short-b.json"
    short_b.write_text(json.dumps({"matrix": REFLECTION_ROWS, "b": ["1", "1"]}))
    paths = {
        "SPEC": spec_file,
        "SINGULAR": singular_spec_file,
        "MATRIX": matrix_file,
        "WITNESS": str(witness),
        "RECT": str(rect),
        "SHORT_B": str(short_b),
    }
    capsys.readouterr()
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("shape", [(3, 2), (2, 3)], ids=["3x2", "2x3"])
def test_tight_non_square_gives_one_message_with_and_without_b(tmp_path, capsys, shape):
    rows, cols = shape
    path = tmp_path / "rect.json"
    path.write_text(json.dumps({"matrix": [["1"] * cols for _ in range(rows)]}))
    errors = []
    for extra in ([], ["--b", ",".join(["1"] * rows)]):
        capsys.readouterr()
        assert main(["tight", str(path), *extra]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: the matrix must be square, got {rows}x{cols}\n"


def test_analyze_refuses_b_before_classifying(spec_file, monkeypatch, capsys):
    # The 3-station line's R is 3x3: a 2-entry --b is refused by the
    # tightness check, and R is never classified.
    calls = []

    def spy(matrix):
        calls.append(matrix)
        raise AssertionError("classify_matrix ran")

    monkeypatch.setattr(reflecto.cli, "classify_matrix", spy)
    monkeypatch.setattr(reflecto.tightness, "classify_matrix", spy)
    capsys.readouterr()
    assert main(["analyze", spec_file, "--b", "1,1"]) == 1
    assert capsys.readouterr().err == "error: b has 2 entries for a 3x3 matrix\n"
    assert calls == []


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


@pytest.mark.parametrize(
    "command, input_file, samples",
    [
        ("analyze", "spec_file", "-3"),
        ("tight", "matrix_file", "-3"),
        ("analyze", "spec_file", str(MAX_SAMPLES + 1)),
        ("tight", "matrix_file", str(MAX_SAMPLES + 1)),
        # R is undefined here, so only a parse-time check can refuse the value
        ("analyze", "singular_spec_file", str(MAX_SAMPLES + 1)),
    ],
    ids=["analyze", "tight", "analyze-above-max", "tight-above-max", "analyze-singular-above-max"],
)
def test_negative_samples_rejected(request, capsys, command, input_file, samples):
    path = request.getfixturevalue(input_file)
    assert main([command, path, "--samples", samples]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--samples" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["tight", "MATRIX", "--samples", "abc"],
        ["tight", "MATRIX", "--bogus"],
        ["frobnicate"],
        ["witness", "MATRIX", "WITNESS", "--unbounded-aux"],
    ],
    ids=["bad-int", "unknown-option", "unknown-command", "removed-unbounded-aux"],
)
def test_usage_errors_exit_one(matrix_file, tmp_path, capsys, argv):
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(json.dumps(WITNESS_TABLE))
    paths = {"MATRIX": matrix_file, "WITNESS": str(witness_path)}
    assert main([paths.get(arg, arg) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: reflecto")


REENTRANT_TAIL = ["--arrival", "1/3", "--discipline", "fbfs"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tight", "MATRIX", "--seed", "1_0"], "argument --seed"),
        # ARABIC-INDIC DIGIT ONE and TWO, which int() reads as 1 and 2
        (["tight", "MATRIX", "--samples", "\u0661"], "argument --samples"),
        (["reentrant", "--route", "1,\u0662,2", "--means", "1,1,1", *REENTRANT_TAIL], "route must"),
        # int() reads "1_0" as station 10
        (["reentrant", "--route", "1,1_0", "--means", "1,1", *REENTRANT_TAIL], "route must"),
    ],
    ids=["seed-underscore", "samples-unicode-digit", "route-unicode-digit", "route-underscore"],
)
def test_command_line_integers_take_ascii_digits_only(matrix_file, capsys, argv, message):
    assert main([matrix_file if arg == "MATRIX" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert message in captured.err


@pytest.mark.parametrize("argv", [["--help"], ["tight", "--help"]])
def test_help_exits_zero(capsys, argv):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 0
    assert "usage: reflecto" in capsys.readouterr().out


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
    assert capsys.readouterr().out == (
        "command: witness\nok: true\nis_all_ones: false\nvalid_nontrivial: true\nfailures:\n"
    )


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


def test_witness_failure_report_is_pinned(matrix_file, tmp_path, capsys):
    # one failing anchor, balance row, monotonicity row and range check, in
    # check order, each with its detail
    table = dict(WITNESS_TABLE, **{"x{}": "1/2", "x{3}": "1", "x{1,2}": "2"})
    witness_path = tmp_path / "failing.json"
    witness_path.write_text(json.dumps(table))
    assert main(["witness", matrix_file, str(witness_path), "--json"]) == 1
    out = capsys.readouterr().out
    labels = [f["constraint"] for f in json.loads(out)["failures"]]
    assert [label.split("[")[0] for label in labels] == (
        ["anchor"] + ["balance"] * 3 + ["mono"] * 2 + ["range"]
    )
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == "9e1a876d12acbcbb39150fff941f57edd4a3924cfa3282c728fb23ae02cc36e1"


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


def test_classify_refuses_matrix_above_dimension_cap(tmp_path, capsys):
    rows = [["1" if i == j else "0" for j in range(13)] for i in range(13)]
    path = tmp_path / "identity13.json"
    path.write_text(json.dumps({"matrix": rows}))
    assert main(["classify", str(path)]) == 1
    assert "subset-enumeration cap 12" in capsys.readouterr().err


def test_witness_refuses_matrix_above_dimension_cap(tmp_path, capsys):
    # refused before the system is built: building it for d = 13 takes
    # tens of seconds and over a gigabyte
    rows = [["2" if i == j else "-1/13" for j in range(13)] for i in range(13)]
    path = tmp_path / "m13.json"
    path.write_text(json.dumps({"matrix": rows}))
    witness_path = tmp_path / "empty.json"
    witness_path.write_text("{}")
    started = time.perf_counter()
    assert main(["witness", str(path), str(witness_path)]) == 1
    assert time.perf_counter() - started < 1
    assert "subset-enumeration cap 12" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["tight", "MATRIX2", "--b", "1,,2"], "'1,,2'"),
        (["tight", "MATRIX2", "--b", "1,2,"], "'1,2,'"),
        (["reentrant", "--route", "1,,2", "--means", "1,1", *REENTRANT_TAIL], "'1,,2'"),
        (["reentrant", "--route", "1,2", "--means", "1,,1", *REENTRANT_TAIL], "'1,,1'"),
    ],
    ids=["b-inner", "b-trailing", "route-inner", "means-inner"],
)
def test_comma_lists_reject_empty_entries(tmp_path, capsys, argv, message):
    path = tmp_path / "m2.json"
    path.write_text(json.dumps({"matrix": [["2", "-1"], ["-1", "2"]]}))
    assert main([str(path) if arg == "MATRIX2" else arg for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert message in captured.err


def test_tight_refuses_lp_above_dimension_cap(tmp_path, capsys):
    rows = [["1" if i == j else "0" for j in range(8)] for i in range(8)]
    path = tmp_path / "identity8.json"
    path.write_text(json.dumps({"matrix": rows}))
    assert main(["tight", str(path), "--b", ",".join(["1"] * 8)]) == 1
    assert "tightness-LP cap 7" in capsys.readouterr().err


def test_reentrant_validation_failure(tmp_path, capsys):
    # a station gap, which the network validation reports under the document
    # field it breaks, a non-integer station and a fractional one
    for route, message in (
        ("1,3", "stations: need 1 <= stations <= classes, got 3 and 2"),
        ("1,x", "route must list integer stations"),
        ("1,,2.5", "route must list integer stations"),
    ):
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
        assert message in capsys.readouterr().err


def test_human_readable_analyze(spec_file, capsys):
    assert main(["analyze", spec_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("command: analyze\ninput:\n  classes: 7\n  stations: 3\n")
    assert "  R:\n    [  1   0  0 ]\n    [ -3   1  0 ]\n    [  3  -2  1 ]\n" in out
    assert "  heavy_traffic: true\n" in out
    assert (
        "tightness:\n  mode: decide\n  status: not_tight\n  method: null\n"
        "  b_witness: 1, 1, 1\n  witness:\n    x{}: 1\n"
    ) in out
    assert out.endswith("  tested_b: null\n")


# sha256 of each command's `--json` stdout on the README's command-line block
README_JSON_SHA256 = {
    "analyze-fbfs": "3e1350e2c24c483c87bb640d19be1695b0ba9131aae83cf15ff2dcafb8558ee0",
    "analyze-lbfs": "a1f4206f70d8613a7766f0633d527408a0e2faf079d71a03fdbd56eb7b9c4499",
    "classify": "a72a0c5d55eccd9e217d40d596dcfd35516a4ab6d2f1b421f0f92f001e53ef9e",
    "tight-b": "759c7597a3f42e31885ed2c95cd704ccdf91251d9771ebc78c56481ce4fa3caa",
    "tight-sampled": "863821214c910ea08dcfdb46c4ffe67b3dd483293b538ec0fdfe55823c64ca81",
    "witness": "5ec6447ae838b9ead457873f7f87a372e8162f68955db82d307e046665316227",
    "tight-not-completely-s": "8bc38c5a3fbea9ae987e490d97e04ce7e817ed0aa8efd2fe228c650063408dde",
}


@pytest.fixture
def readme_commands(tmp_path, spec_file, capsys):
    """Argument lists, without --json, of the README's command-line block."""
    lbfs = tmp_path / "lbfs.json"
    assert main(["reentrant", *LINE_ARGS, "--discipline", "lbfs", "-o", str(lbfs)]) == 0
    assert main(["analyze", spec_file, "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    matrix = tmp_path / "matrix.json"
    matrix.write_text(json.dumps({"matrix": report["matrices"]["R"]}))
    witness = tmp_path / "witness.json"
    witness.write_text(json.dumps(report["tightness"]["witness"]))
    not_completely_s = tmp_path / "notcs.json"
    not_completely_s.write_text(json.dumps({"matrix": [["1", "-1"], ["-1", "1"]]}))
    return {
        "analyze-fbfs": ["analyze", spec_file],
        "analyze-lbfs": ["analyze", str(lbfs)],
        "classify": ["classify", str(matrix)],
        "tight-b": ["tight", str(matrix), "--b", "1,1,1"],
        "tight-sampled": ["tight", str(matrix), "--samples", "20", "--seed", "0"],
        "witness": ["witness", str(matrix), str(witness), "--b", "1,1,1"],
        "tight-not-completely-s": ["tight", str(not_completely_s)],
    }


def test_json_output_bytes_are_pinned(readme_commands, capsys):
    for name, argv in readme_commands.items():
        assert main(argv + ["--json"]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == README_JSON_SHA256[name], name


def _scalar_leaves(value, key=None):
    """(key, text) per scalar of a JSON document; key is None inside lists."""
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _scalar_leaves(v, k)
    elif isinstance(value, list):
        for item in value:
            yield from _scalar_leaves(item)
    else:
        yield key, value if isinstance(value, str) else json.dumps(value)


def test_text_output_shows_every_json_field(readme_commands, singular_spec_file, tmp_path, capsys):
    perturbed = dict(WITNESS_TABLE, **{"x{3}": "1"})
    perturbed_path = tmp_path / "perturbed.json"
    perturbed_path.write_text(json.dumps(perturbed))
    sampled_only = tmp_path / "sampled.json"
    sampled_only.write_text(json.dumps({"matrix": [["1", "0", "0"], ["-3", "2", "0"], ["3", "-4", "1"]]}))
    matrix = readme_commands["classify"][1]
    cases = dict(
        readme_commands,
        singular=["analyze", singular_spec_file],
        failing_witness=["witness", matrix, str(perturbed_path)],
        unknown_sampled=["tight", str(sampled_only), "--samples", "0"],
    )
    for name, argv in cases.items():
        json_code = main(argv + ["--json"])
        document = json.loads(capsys.readouterr().out)
        assert main(argv) == json_code, name
        text = capsys.readouterr().out
        for key, leaf in _scalar_leaves(document):
            expected = leaf if key is None else f"{key}: {leaf}"
            assert expected in text, (name, expected)
