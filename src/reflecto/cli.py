"""Command-line front end.

Commands: ``analyze`` (full derivation pipeline on a network file),
``classify`` (matrix class membership), ``tight`` (tightness of a matrix,
for one b or over sampled b), ``reentrant`` (emit a reentrant-line network
file) and ``witness`` (verify a witness table against a matrix).

Exit codes: 0 = analysis completed (even when the matrix is not tight or the
reflection matrix is undefined), 1 = invalid input, 2 = internal
inconsistency.  ``witness`` exits 0 only for a valid non-trivial witness.
All machine output under ``--json`` is a single JSON document on stdout; the
output is byte-deterministic for fixed inputs and seed.

The environment variable REFLECTO_DIM_CAP overrides the cap on 2^d subset
enumerations (default 12).  The tightness LP refuses d above
``LP_DIMENSION_CAP`` (7) with exit code 1; that cap has no override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .classify import DEFAULT_DIMENSION_CAP, classify_matrix, classify_two_by_two
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
    DecisionStatus,
    TightMatrixDecision,
    TightnessVerdict,
    assignment_from_table,
    assignment_to_table,
    build_system,
    check_tight_system,
    decide_tight_matrix,
    verify_assignment,
)


def _dimension_cap() -> int:
    raw = os.environ.get("REFLECTO_DIM_CAP")
    if raw is None:
        return DEFAULT_DIMENSION_CAP
    try:
        return int(raw)
    except ValueError:
        raise ReflectoError(f"REFLECTO_DIM_CAP must be an integer, got {raw!r}")


def _load_matrix_file(path: str) -> tuple[RatMatrix, Optional[tuple]]:
    with open(path, "r", encoding="utf-8") as handle:
        data = json.load(handle)
    if not isinstance(data, dict) or "matrix" not in data:
        raise ReflectoError("matrix file must be an object with a 'matrix' field")
    unknown = set(data) - {"matrix", "b"}
    if unknown:
        raise ReflectoError(f"unknown fields in matrix file: {sorted(unknown)}")
    rows = data["matrix"]
    if not isinstance(rows, list) or not all(isinstance(row, list) for row in rows):
        raise ReflectoError("'matrix' must be a list of rows, each a list of entries")
    matrix = RatMatrix([[parse_rational(str(v)) for v in row] for row in rows])
    if not matrix.is_square:
        raise ReflectoError("matrix must be square")
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


def _parse_b(text: str, dimension: int) -> tuple:
    values = parse_rational_csv(text)
    if len(values) != dimension:
        raise ReflectoError(f"--b needs {dimension} entries, got {len(values)}")
    if any(v <= 0 for v in values):
        raise ReflectoError("--b entries must be positive")
    return values


def _matrix_json(matrix: Optional[RatMatrix]):
    return None if matrix is None else matrix.to_strings()


def _format_matrix_block(matrix: RatMatrix, indent: str = "  ") -> str:
    cells = matrix.to_strings()
    widths = [max(len(row[j]) for row in cells) for j in range(matrix.cols)]
    lines = [
        indent + "[ " + "  ".join(cell.rjust(widths[j]) for j, cell in enumerate(row)) + " ]"
        for row in cells
    ]
    return "\n".join(lines)


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


def _classification_json(matrix: RatMatrix, cap: int) -> dict:
    report = classify_matrix(matrix, cap)
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


def _tightness_json(matrix: RatMatrix, b: Optional[tuple], args: argparse.Namespace, cap: int) -> dict:
    """The verdict at one b when b is given, else the layered decision."""
    if args.samples < 0:
        raise ReflectoError(f"--samples must be nonnegative, got {args.samples}")
    if b is not None:
        return _verdict_json(check_tight_system(matrix, b), b)
    try:
        return _decision_json(decide_tight_matrix(matrix, args.samples, args.seed, cap))
    except NotCompletelySError as exc:
        return {
            "mode": "decide",
            "status": "not_completely_s",
            "failing_subset": list(exc.failing_subset),
        }


def _print_tightness(result: dict) -> None:
    if result["mode"] == "single_b":
        state = "tight" if result["tight"] else "not tight"
        print(f"b = {result['b']}: {state} (optimum {result['optimum']} of {result['variable_count']})")
    else:
        print(f"status: {result['status']}")
        if result.get("method"):
            print(f"method: {result['method']}")
        if result.get("b_witness"):
            print(f"failing b: {result['b_witness']}")
        if result.get("failing_subset"):
            print(f"failing subset: {set(result['failing_subset'])}")
    if result.get("witness"):
        print("witness:")
        for key, value in result["witness"].items():
            print(f"  {key} = {value}")


def _print_json(document: dict) -> None:
    print(json.dumps(document, indent=2))


# --------------------------------------------------------------------------
# commands
# --------------------------------------------------------------------------


def _cmd_analyze(args: argparse.Namespace) -> int:
    cap = _dimension_cap()
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
        report["classification"] = _classification_json(R, cap)
        b = None if args.b is None else _parse_b(args.b, R.rows)
        report["tightness"] = _tightness_json(R, b, args, cap)

    if args.json:
        _print_json(report)
        return 0

    print(f"network: {spec.class_count} classes, {spec.station_count} stations")
    print(f"station order (new -> original): {list(derived.relabel)}")
    for name in ("W", "B", "F", "A", "Q"):
        print(f"{name} =")
        print(_format_matrix_block(getattr(derived, name)))
    t = report["traffic"]
    print(f"alpha = {t['alpha']}")
    print(f"rho = {t['rho']} (heavy traffic: {t['heavy_traffic']})")
    if derived.reflection is None:
        print("R = undefined: Q singular")
        return 0
    print("R =")
    print(_format_matrix_block(derived.reflection))
    cls = report["classification"]
    print(
        "classes: completely-S={completely_s} P={p_matrix} M={m_matrix} "
        "positive-definite={positive_definite}".format(**cls)
    )
    print("tightness:")
    _print_tightness(report["tightness"])
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    cap = _dimension_cap()
    matrix, _ = _load_matrix_file(args.matrix)
    document = {
        "command": "classify",
        "matrix": matrix.to_strings(),
        "classification": _classification_json(matrix, cap),
    }
    if args.json:
        _print_json(document)
        return 0
    cls = document["classification"]
    print(f"matrix ({matrix.rows}x{matrix.cols}):")
    print(_format_matrix_block(matrix))
    print(f"completely-S:      {cls['completely_s']}")
    print(f"P-matrix:          {cls['p_matrix']}")
    print(f"M-matrix:          {cls['m_matrix']}")
    print(f"positive definite: {cls['positive_definite']}")
    if cls["failing_subset"] is not None:
        print(f"failing subset:    {set(cls['failing_subset'])}")
    if cls["two_by_two_case"] is not None:
        print(f"two-by-two case:   {cls['two_by_two_case']}")
    print(f"staircase pattern: {cls['staircase_pattern']}")
    return 0


def _cmd_tight(args: argparse.Namespace) -> int:
    cap = _dimension_cap()
    matrix, file_b = _load_matrix_file(args.matrix)
    b = file_b if args.b is None else _parse_b(args.b, matrix.rows)
    document = {
        "command": "tight",
        "matrix": matrix.to_strings(),
        "result": _tightness_json(matrix, b, args, cap),
    }
    if args.json:
        _print_json(document)
    else:
        _print_tightness(document["result"])
    return 0


def _cmd_reentrant(args: argparse.Namespace) -> int:
    try:
        route = [int(v) for v in args.route.split(",") if v.strip() != ""]
    except ValueError:
        raise ReflectoError(f"route must list integer stations, got {args.route!r}") from None
    means = parse_rational_csv(args.means)
    arrival = parse_rational(args.arrival)
    spec = reentrant_spec(route, means, arrival, args.discipline)
    if args.output:
        dump_spec(spec, args.output)
    else:
        _print_json(spec_to_json_dict(spec))
    return 0


def _cmd_witness(args: argparse.Namespace) -> int:
    matrix, file_b = _load_matrix_file(args.matrix)
    if args.b is not None:
        b = _parse_b(args.b, matrix.rows)
    elif file_b is not None:
        b = file_b
    else:
        b = tuple(Fraction(1) for _ in range(matrix.rows))
    with open(args.witness, "r", encoding="utf-8") as handle:
        table = json.load(handle)
    if not isinstance(table, dict):
        raise ReflectoError("witness file must be a JSON object of key/value strings")
    assignment = assignment_from_table(table, matrix.rows)
    system = build_system(matrix, b, aux_bounded=not args.unbounded_aux)
    report = verify_assignment(system, assignment)
    document = {
        "command": "witness",
        "ok": report.ok,
        "is_all_ones": report.is_all_ones,
        "valid_nontrivial": report.ok and not report.is_all_ones,
        "failures": [
            {"constraint": c.label, "detail": c.detail} for c in report.failures()
        ],
    }
    if args.json:
        _print_json(document)
    else:
        for check in report.checks:
            marker = "ok " if check.passed else "FAIL"
            print(f"[{marker}] {check.label}: {check.detail}")
        print(
            f"witness {'verifies' if report.ok else 'fails'};"
            f" all-ones: {report.is_all_ones}"
        )
    return 0 if (report.ok and not report.is_all_ones) else 1


# --------------------------------------------------------------------------
# argument parsing
# --------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reflecto",
        description="Exact reflection-matrix derivation, classification and tightness certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="full pipeline on a network JSON file")
    analyze.add_argument("spec")
    analyze.add_argument("--json", action="store_true")
    analyze.add_argument("--b", default=None, help="comma-separated positive rationals")
    analyze.add_argument("--samples", type=int, default=20)
    analyze.add_argument("--seed", type=int, default=0)
    analyze.set_defaults(func=_cmd_analyze)

    classify = sub.add_parser("classify", help="matrix class membership")
    classify.add_argument("matrix")
    classify.add_argument("--json", action="store_true")
    classify.set_defaults(func=_cmd_classify)

    tight = sub.add_parser("tight", help="tightness of a matrix")
    tight.add_argument("matrix")
    tight.add_argument("--b", default=None)
    tight.add_argument("--samples", type=int, default=20)
    tight.add_argument("--seed", type=int, default=0)
    tight.add_argument("--json", action="store_true")
    tight.set_defaults(func=_cmd_tight)

    reentrant = sub.add_parser("reentrant", help="emit a reentrant-line network file")
    reentrant.add_argument("--route", required=True)
    reentrant.add_argument("--means", required=True)
    reentrant.add_argument("--arrival", required=True)
    reentrant.add_argument("--discipline", required=True, choices=["fbfs", "lbfs"])
    reentrant.add_argument("-o", "--output", default=None)
    reentrant.set_defaults(func=_cmd_reentrant)

    witness = sub.add_parser("witness", help="verify a witness table")
    witness.add_argument("matrix")
    witness.add_argument("witness")
    witness.add_argument("--b", default=None)
    witness.add_argument("--unbounded-aux", action="store_true")
    witness.add_argument("--json", action="store_true")
    witness.set_defaults(func=_cmd_witness)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInconsistencyError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return 2
    except (ReflectoError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
