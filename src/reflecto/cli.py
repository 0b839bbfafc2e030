"""Command-line front end.

Commands: ``analyze`` (full derivation pipeline on a network file),
``classify`` (matrix class membership), ``tight`` (tightness of a matrix,
for one b or over sampled b), ``reentrant`` (emit a reentrant-line network
file) and ``witness`` (verify a witness table against a matrix).

Exit codes: 0 = analysis completed (even when the matrix is not tight or the
reflection matrix is undefined), 1 = invalid input or usage, 2 = internal
inconsistency.  ``witness`` exits 0 only for a valid non-trivial witness.
A stdout closed by its reader does not change the exit code.
Each command builds one JSON document.  Under ``--json`` it is printed as
is, byte-deterministic for fixed inputs and seed; otherwise ``_render`` lays
the same document out as indented text for reading, which is not a stable
format.  ``reentrant`` always prints its network file as JSON.

Classification, witness verification and ``tight`` refuse d above
``DEFAULT_DIMENSION_CAP`` (12).  Above ``LP_DIMENSION_CAP`` (7) ``tight``
answers only when sign forcing proves the system tight without an LP, and
otherwise refuses it; every refusal exits with code 1.
``--samples`` outside 0..``MAX_SAMPLES`` (1000) is a usage error, exit code 1.
``--seed``, ``--samples`` and ``--route`` take ASCII digits only, or exit 1.
A comma list (``--b``, ``--route``, ``--means``) with an empty entry exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .classify import classify_matrix, classify_two_by_two
from .errors import (
    InternalInconsistencyError,
    NotCompletelySError,
    ReflectoError,
)
from .matrix import RatMatrix
from .network import (
    derive_matrices,
    dump_spec,
    load_spec,
    read_json,
    reentrant_spec,
    spec_to_json_dict,
)
from .rational import (
    format_rational,
    format_rational_vector,
    parse_rational,
    parse_rational_csv,
)
from .tightness import (
    TightMatrixDecision,
    TightnessVerdict,
    assignment_from_table,
    assignment_to_table,
    build_system,
    check_tight_system,
    decide_tight_matrix,
    verify_assignment,
)

# Largest --samples value: each sampled b may cost one tightness LP.
MAX_SAMPLES = 1000


def _ascii_int(text: str, pattern: str = "-?[0-9]+") -> int:
    """int() of ASCII digits only; int() alone also reads "1_0" and any Unicode digit."""
    if not re.fullmatch(pattern, text.strip()):
        raise ValueError(text)
    return int(text)


def _seed(text: str) -> int:
    """argparse type of ``--seed``: an integer in ASCII digits."""
    try:
        return _ascii_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None


def _sample_count(text: str) -> int:
    """argparse type of ``--samples``: an integer in 0..MAX_SAMPLES."""
    try:
        count = _ascii_int(text, "[0-9]+")
    except ValueError:
        count = -1
    if not 0 <= count <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"must be an integer in 0..{MAX_SAMPLES}, got {text!r}")
    return count


def _load_matrix_file(path: str) -> tuple[RatMatrix, Optional[tuple]]:
    data = read_json(path)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ReflectoError("matrix file must be an object with a 'matrix' field")
    unknown = set(data) - {"matrix", "b"}
    if unknown:
        raise ReflectoError(f"unknown fields in matrix file: {sorted(unknown)}")
    rows = data["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ReflectoError("'matrix' must be a list of rows, each a list of entries")
    matrix = RatMatrix([[parse_rational(str(v)) for v in row] for row in rows])
    b = None
    if "b" in data and data["b"] is not None:
        if not isinstance(data["b"], list):
            raise ReflectoError("'b' must be a list of entries")
        b = tuple(parse_rational(str(v)) for v in data["b"])
        if len(b) != matrix.rows:
            raise ReflectoError("b must have one entry per matrix row")
        if any(v <= 0 for v in b):
            raise ReflectoError("b entries must be positive")
    return matrix, b


def _matrix_json(matrix: Optional[RatMatrix]):
    return None if matrix is None else matrix.to_strings()


def _format_matrix_block(rows: list[list[str]], indent: str) -> str:
    widths = [max(map(len, column)) for column in zip(*rows)]
    lines = [
        indent + "[ " + "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)) + " ]"
        for row in rows
    ]
    return "\n".join(lines)


def _scalar(value) -> str:
    return value if isinstance(value, str) else json.dumps(value)


def _render(document: dict, indent: str = "") -> list[str]:
    """Lay a command's JSON document out as text lines, every field shown.

    Objects become indented sections, lists of lists (matrices, sampled b)
    aligned blocks, lists of objects one ``-`` item each, other lists a
    comma-joined line; strings print bare and other scalars as in JSON.
    """
    lines = []
    for key, value in document.items():
        head = f"{indent}{key}:"
        if isinstance(value, dict):
            lines += [head] + _render(value, indent + "  ")
        elif isinstance(value, list) and value and all(isinstance(v, list) for v in value):
            lines += [head, _format_matrix_block(value, indent + "  ")]
        elif isinstance(value, list) and value and all(isinstance(v, dict) for v in value):
            lines.append(head)
            for item in value:
                first, *rest = _render(item, indent + "    ")
                lines += [indent + "  - " + first.lstrip()] + rest
        elif isinstance(value, list):
            lines.append(f"{head} {', '.join(map(_scalar, value))}".rstrip())
        else:
            lines.append(f"{head} {_scalar(value)}")
    return lines


def _verdict_json(verdict: TightnessVerdict, b: Sequence[Fraction]) -> dict:
    return {
        "mode": "single_b",
        "b": format_rational_vector(b),
        "tight": verdict.tight,
        "variable_count": verdict.variable_count,
        "optimum": format_rational(verdict.optimum),
        "witness": None if verdict.witness is None else assignment_to_table(verdict.witness),
    }


def _decision_json(decision: TightMatrixDecision) -> dict:
    return {
        "mode": "decide",
        "status": decision.status.value,
        "method": None if decision.method is None else decision.method.value,
        "b_witness": None
        if decision.b_witness is None
        else format_rational_vector(decision.b_witness),
        "witness": None
        if decision.witness is None
        else assignment_to_table(decision.witness),
        "tested_b": None
        if decision.tested_b is None
        else [format_rational_vector(b) for b in decision.tested_b],
    }


def _classification_json(matrix: RatMatrix) -> dict:
    report = classify_matrix(matrix)
    two_by_two = None
    if matrix.rows == 2:
        two_by_two = classify_two_by_two(matrix).value
    return {
        "completely_s": report.is_completely_s,
        "p_matrix": report.is_p,
        "m_matrix": report.is_m,
        "positive_definite": report.is_positive_definite,
        "failing_subset": None
        if report.failing_subset is None
        else list(report.failing_subset),
        "two_by_two_case": two_by_two,
        "staircase_pattern": report.has_staircase_pattern,
    }


def _tightness_json(matrix: RatMatrix, b: Optional[tuple], samples: int, seed: int) -> dict:
    """The verdict at one b when b is given, else the layered decision."""
    if b is not None:
        return _verdict_json(check_tight_system(matrix, b), b)
    try:
        return _decision_json(decide_tight_matrix(matrix, samples, seed))
    except NotCompletelySError as exc:
        return {
            "mode": "decide",
            "status": "not_completely_s",
            "failing_subset": list(exc.failing_subset),
        }


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> tuple[dict, int]:
    b = None if args.b is None else parse_rational_csv(args.b)
    spec = load_spec(args.spec)
    derived = derive_matrices(spec)

    report: dict = {
        "command": "analyze",
        "input": spec_to_json_dict(spec),
        "relabel": {
            "station_order": list(derived.relabel),
            "changed": list(derived.relabel) != sorted(derived.relabel),
        },
        "matrices": {
            "W": _matrix_json(derived.W),
            "B": _matrix_json(derived.B),
            "F": _matrix_json(derived.F),
            "A": _matrix_json(derived.A),
            "A_inverse": _matrix_json(derived.A_inverse),
            "Q": _matrix_json(derived.Q),
            "R": _matrix_json(derived.reflection),
        },
        "reflection_defined": derived.reflection is not None,
        "traffic": {
            "alpha": format_rational_vector(derived.traffic.alpha),
            "rho": format_rational_vector(derived.traffic.rho),
            "heavy_traffic": derived.traffic.heavy_traffic,
        },
    }

    if derived.reflection is None:
        report["classification"] = None
        report["tightness"] = None
    else:
        R = derived.reflection
        # The tightness block runs first, so the library refuses a --b of the
        # wrong length or sign before R is classified; the document keeps its
        # key order.
        tightness = _tightness_json(R, b, args.samples, args.seed)
        report["classification"] = _classification_json(R)
        report["tightness"] = tightness
    return report, 0


def _cmd_classify(args: argparse.Namespace) -> tuple[dict, int]:
    matrix, _ = _load_matrix_file(args.matrix)
    document = {
        "command": "classify",
        "matrix": matrix.to_strings(),
        "classification": _classification_json(matrix),
    }
    return document, 0


def _cmd_tight(args: argparse.Namespace) -> tuple[dict, int]:
    matrix, file_b = _load_matrix_file(args.matrix)
    b = file_b if args.b is None else parse_rational_csv(args.b)
    document = {
        "command": "tight",
        "matrix": matrix.to_strings(),
        "result": _tightness_json(matrix, b, args.samples, args.seed),
    }
    return document, 0


def _cmd_reentrant(args: argparse.Namespace) -> tuple[Optional[dict], int]:
    try:
        route = [_ascii_int(v) for v in args.route.split(",")]
    except ValueError:
        raise ReflectoError(f"route must list integer stations, got {args.route!r}") from None
    means = parse_rational_csv(args.means)
    arrival = parse_rational(args.arrival)
    spec = reentrant_spec(route, means, arrival, args.discipline)
    if args.output:
        dump_spec(spec, args.output)
        return None, 0
    return spec_to_json_dict(spec), 0


def _cmd_witness(args: argparse.Namespace) -> tuple[dict, int]:
    matrix, file_b = _load_matrix_file(args.matrix)
    if args.b is not None:
        b = parse_rational_csv(args.b)
    elif file_b is not None:
        b = file_b
    else:
        b = tuple(Fraction(1) for _ in range(matrix.rows))
    system = build_system(matrix, b)  # checks the matrix and b before the table is read
    table = read_json(args.witness)
    if not isinstance(table, dict):
        raise ReflectoError("witness file must be a JSON object of key/value strings")
    report = verify_assignment(system, assignment_from_table(table, matrix.rows))
    document = {
        "command": "witness",
        "ok": report.ok,
        "is_all_ones": report.is_all_ones,
        "valid_nontrivial": report.ok and not report.is_all_ones,
        "failures": [
            {"constraint": c.label, "detail": c.detail} for c in report.failures()
        ],
    }
    return document, 0 if document["valid_nontrivial"] else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Reports usage errors as ReflectoError (exit code 1), not SystemExit(2)."""

    def error(self, message):
        raise ReflectoError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="reflecto",
        description="Exact reflection-matrix derivation, classification and tightness certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline on a network JSON file")
    analyze.add_argument("spec")
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument("--b", default=None, help="comma-separated positive rationals")
    analyze.add_argument("--samples", type=_sample_count, default=20)
    analyze.add_argument("--seed", type=_seed, default=0)
    analyze.set_defaults(func=_cmd_analyze)

    classify = sub.add_parser("classify", help="matrix class membership")
    classify.add_argument("matrix")
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    tight = sub.add_parser("tight", help="tightness of a matrix")
    tight.add_argument("matrix")
    tight.add_argument("--b", default=None)
    tight.add_argument("--samples", type=_sample_count, default=20)
    tight.add_argument("--seed", type=_seed, default=0)
    tight.add_argument("--json", action="store_true")
    tight.set_defaults(func=_cmd_tight)

    reentrant = sub.add_parser("reentrant", help="emit a reentrant-line network file")
    reentrant.add_argument("--route", required=True)
    reentrant.add_argument("--means", required=True)
    reentrant.add_argument("--arrival", required=True)
    reentrant.add_argument("--discipline", required=True, choices=["fbfs", "lbfs"])
    reentrant.add_argument("-o", "--output", default=None)
    # reentrant prints its network file, when not written to -o, as JSON
    reentrant.set_defaults(func=_cmd_reentrant, json=True)

    witness = sub.add_parser("witness", help="verify a witness table")
    witness.add_argument("matrix")
    witness.add_argument("witness")
    witness.add_argument("--b", default=None)
    witness.add_argument("--json", action="store_true")
    witness.set_defaults(func=_cmd_witness)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        document, code = args.func(args)
        if document is not None:
            try:
                print(json.dumps(document, indent=2) if args.json else "\n".join(_render(document)))
            except BrokenPipeError:
                pass  # the reader closed stdout early; that is not an input error
        return code
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (ReflectoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # Send what is still buffered to os.devnull, so that interpreter
        # shutdown does not report the closed pipe a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
