"""Fuzzing the input boundary: spec documents, matrix and witness files and
option strings either parse or are refused with a ReflectoError and exit
code 1; never a traceback, never exit code 2.

The examples are derandomized and bounded so the module runs in a few
seconds; it guards the boundary rather than searching it exhaustively.
"""

import contextlib
import io
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from reflecto import NetworkSpec, ReflectoError, canonical_variables, spec_from_json_dict
from reflecto.cli import main


def _fuzz(examples):
    return settings(max_examples=examples, deadline=None, derandomize=True, database=None)


# Integers small enough to index a class or a station, and some far too large.
integers = st.one_of(st.integers(-2, 5), st.integers(-(10**12), 10**12))
# Rational literals, malformed ones among them, and one with more digits
# than int() converts.
literals = st.one_of(
    st.sampled_from(["0", "1", "1/2", "1/3", "2", "-1", "1/0", "1.5", "1e3", "", " 1 ", "x"]),
    integers.map(str),
    st.builds("{}/{}".format, integers, integers),
    st.text(max_size=5),
    st.just("9" * 5000),
)
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), integers, st.floats(), literals),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=10,
)


@st.composite
def mostly(draw, good, bad):
    """Three draws in four from ``good``, so most examples get past parsing."""
    return draw(bad if draw(st.integers(0, 3)) == 3 else good)


@st.composite
def corrupted(draw, document, extra=st.just("extra")):
    """Usually the document itself; else with up to two fields dropped or
    replaced by any JSON value, or one ``extra`` field added."""
    document = dict(document)
    if draw(st.integers(0, 2)) < 2:
        return document
    fields = st.sampled_from(sorted(document) + [draw(extra)])
    for field in draw(st.sets(fields, min_size=1, max_size=2)):
        if field in document and draw(st.booleans()):
            del document[field]
        else:
            document[field] = draw(json_values)
    return document


def _vector(n, entries):
    return st.lists(entries, min_size=n, max_size=n)


def _rows(n, entries):
    return _vector(n, _vector(n, entries))


@st.composite
def spec_documents(draw):
    """Mostly well-formed networks with K <= 4 classes and d <= 3 stations."""
    K = draw(st.integers(1, 4))
    d = draw(st.integers(1, min(K, 3)))
    # without "1" most rows stay substochastic
    entries = ["0", "0", "0", "1/4", "1/3", "1/2"] + draw(st.sampled_from([[], ["1"]]))
    document = {
        "classes": K,
        "stations": d,
        "station_of_class": draw(_vector(K, st.integers(1, d))),
        "priority": draw(st.permutations(range(1, K + 1))),
        "service_means": draw(_vector(K, st.sampled_from(["1", "2", "1/2", "3/2"]))),
        "arrival_rates": draw(_vector(K, st.sampled_from(["0", "1/4", "1"]))),
        "routing": draw(_rows(K, st.sampled_from(entries))),
    }
    return draw(corrupted(document))


@st.composite
def matrix_documents(draw, d):
    entries = st.sampled_from(["0", "1", "2", "3", "-1", "1/2", "-1/3"])
    rows = draw(_rows(d, entries))
    if draw(st.integers(0, 3)) == 3:
        rows[draw(st.integers(0, d - 1))][draw(st.integers(0, d - 1))] = draw(literals)
    document = {"matrix": rows}
    if draw(st.booleans()):
        document["b"] = draw(_vector(d, st.sampled_from(["1", "1/2", "2", "0"])))
    return draw(corrupted(document))


keys = st.one_of(
    st.builds(
        "x{{{}}}{}".format,
        st.lists(st.integers(0, 4), max_size=3).map(lambda s: ",".join(map(str, s))),
        st.sampled_from(["", "^(1)", "^(2)", "^(3)", "^(0)", "^(" + "9" * 5000 + ")"]),
    ),
    st.text(max_size=6),
)


@st.composite
def witness_tables(draw, d):
    """A value for every variable of the d-dimensional system, or a stray table."""
    values = st.sampled_from(["1", "1", "1/2", "0", "2"])
    table = {var.key(): draw(values) for var in canonical_variables(d)}
    stray = st.dictionaries(keys, st.one_of(literals, json_values), max_size=8)
    return draw(st.one_of(corrupted(table, extra=keys), stray, json_values))


file_texts = st.one_of(st.text(max_size=20), st.just("{not json"))
option_texts = st.one_of(
    st.sampled_from(["1,1,1", "1,2", "1/2,1,3", "0,1,1", "1,x", ",", ""]),
    st.lists(literals, max_size=4).map(",".join),
)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1), argv


@_fuzz(150)
@given(st.one_of(spec_documents(), json_values))
def test_spec_documents_parse_or_raise_reflecto_error(document):
    try:
        assert isinstance(spec_from_json_dict(document), NetworkSpec)
    except ReflectoError:
        pass


analyze_options = st.lists(
    mostly(
        st.sampled_from(
            [["--json"], ["--b", "1,1"], ["--b", "1,1,1"], ["--seed", "3"], ["--samples", "2"]]
        ),
        st.lists(st.sampled_from(["--b", "--seed", "--samples", "x", "1,1", "-1"]), max_size=2),
    ),
    max_size=2,
)


@_fuzz(60)
@given(mostly(spec_documents().map(json.dumps), file_texts), analyze_options)
def test_analyze_exits_zero_or_one(tmp_path_factory, text, options):
    path = tmp_path_factory.mktemp("analyze") / "spec.json"
    path.write_text(text)
    _run(["analyze", str(path), "--samples", "1", *sum(options, [])])


# d <= 3 keeps each tightness LP small
matrix_and_witness = st.integers(1, 3).flatmap(
    lambda d: st.tuples(
        mostly(matrix_documents(d).map(json.dumps), file_texts),
        witness_tables(d).map(json.dumps),
    )
)


@_fuzz(120)
@given(
    st.sampled_from(["classify", "tight", "witness"]),
    matrix_and_witness,
    st.lists(st.sampled_from(["--json", "--b", "--seed"]), max_size=2),
    mostly(st.sampled_from(["1,1,1", "1,2", "1", "2,1/2,1", "5"]), option_texts),
)
def test_matrix_commands_exit_zero_or_one(tmp_path_factory, command, files, flags, value):
    matrix_text, witness_text = files
    folder = tmp_path_factory.mktemp("matrix")
    (folder / "matrix.json").write_text(matrix_text)
    (folder / "witness.json").write_text(witness_text)
    argv = [command, str(folder / "matrix.json")]
    if command == "witness":
        argv.append(str(folder / "witness.json"))
    if command == "tight":
        argv += ["--samples", "2"]
    for flag in flags:
        argv += [flag] if flag == "--json" else [flag, value]
    _run(argv)


@st.composite
def reentrant_options(draw):
    """A route with one mean per visit, or any option strings."""
    route = draw(st.lists(mostly(st.integers(1, 3), integers), min_size=1, max_size=5))
    means = [draw(st.sampled_from(["1", "2", "1/2"])) for _ in route]
    arrival = draw(mostly(st.sampled_from(["1/3", "0", "1"]), literals))
    plausible = (",".join(map(str, route)), ",".join(means), arrival)
    return draw(mostly(st.just(plausible), st.tuples(option_texts, option_texts, literals)))


disciplines = mostly(st.sampled_from(["fbfs", "lbfs"]), st.sampled_from(["FBFS", ""]))


@_fuzz(100)
@given(reentrant_options(), disciplines)
def test_reentrant_options_exit_zero_or_one(options, discipline):
    route, means, arrival = options
    _run(["reentrant", "--route", route, "--means", means, "--arrival", arrival,
          "--discipline", discipline])
