"""Spans around reflecto's public functions, recorded from outside the package.

The modules import each other's functions by name (``tightness`` and
``classify`` both bind ``lp_solve``; ``cli`` binds ``derive_matrices``), so a
wrapper is installed under every name, in every ``reflecto`` module, that is
bound to the original function.  ``RatMatrix`` methods are wrapped on the
class.  Spans stay in memory as ``[name, start, end, parent, instance]`` and
are written out once the run is over.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# (module, attribute) of every function that gets a span; the span is named
# "<module>.<attribute>".
SPANNED = (
    ("linprog", "lp_solve"),
    ("classify", "classify_matrix"),
    ("classify", "classify_two_by_two"),
    ("classify", "has_staircase_sign_pattern"),
    ("classify", "is_completely_s"),
    ("classify", "is_m_matrix"),
    ("classify", "is_p_matrix"),
    ("classify", "is_positive_definite"),
    ("classify", "is_s_matrix"),
    ("network", "derive_matrices"),
    ("tightness", "build_system"),
    ("tightness", "check_tight_system"),
    ("tightness", "decide_tight_matrix"),
    ("tightness", "verify_assignment"),
    ("cli", "main"),
)
SPANNED_METHODS = ("det", "inverse", "__matmul__")
# Scalar helpers run per entry; they are counted but get no span, so their
# time stays with the caller (for ``cli.main`` that is loading and rendering).
COUNTED = (("rational", "parse_rational"), ("rational", "format_rational"))


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.instance = None
        self.counts: Counter = Counter()
        self.lp_rows_max = 0
        self.lp_cols_max = 0
        self.lp_bits_max = 0
        self._stack: list[int] = []

    def _spanned(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else None, self.instance]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _lp_sizes(self, args, outcome) -> None:
        program = args[0]
        self.lp_rows_max = max(self.lp_rows_max, len(program.constraints))
        self.lp_cols_max = max(self.lp_cols_max, len(program.objective))
        if outcome.solution:
            bits = max(v.denominator.bit_length() for v in outcome.solution)
            self.lp_bits_max = max(self.lp_bits_max, bits)

    @contextmanager
    def installed(self):
        """Patch every binding of the traced functions; restore them on exit."""
        modules = [m for n, m in sys.modules.items() if n == "reflecto" or n.startswith("reflecto.")]
        undo = []
        targets = [(module, attr, True) for module, attr in SPANNED]
        targets += [(module, attr, False) for module, attr in COUNTED]
        for module, attr, spanned in targets:
            original = getattr(sys.modules[f"reflecto.{module}"], attr)
            name = f"{module}.{attr}"
            if spanned:
                after = self._lp_sizes if name == "linprog.lp_solve" else None
                wrapper = self._spanned(name, original, after)
            else:
                wrapper = self._counted(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        matrix_class = sys.modules["reflecto.matrix"].RatMatrix
        for method in SPANNED_METHODS:
            original = matrix_class.__dict__[method]
            label = method.strip("_")
            setattr(matrix_class, method, self._spanned(f"matrix.{label}", original))
            undo.append((matrix_class, method, original))
        try:
            yield self
        finally:
            for owner, key, original in reversed(undo):
                setattr(owner, key, original)

    def write(self, path: Path, header: dict) -> None:
        """Spans as gzip'd JSON lines: a header, then [id, name, start, end, parent, instance]."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            handle.write(json.dumps({**header, "fields": ["id", "name", "start", "end", "parent", "instance"]}) + "\n")
            for index, (name, start, end, parent, instance) in enumerate(self.spans):
                handle.write(json.dumps([index, name, start, end, parent, instance]) + "\n")

    def layer_metrics(self, traced_busy: float, overhead: float, instances: int, output_bytes: int) -> dict:
        """Per-layer metrics from the spans; self time is duration minus direct children.

        Shares are of ``traced_busy``, the summed wall time of the traced instances.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        calls: Counter = Counter()
        total: defaultdict = defaultdict(float)
        self_time: defaultdict = defaultdict(float)
        classify_busy = 0.0
        in_decide = [False] * len(spans)
        lp_in_decide = 0
        for index, (name, start, end, parent, _) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            total[name] += duration
            self_time[name] += duration - child_time[index]
            parent_name = None if parent is None else spans[parent][0]
            if name.startswith("classify.") and not (parent_name or "").startswith("classify."):
                classify_busy += duration
            in_decide[index] = name == "tightness.decide_tight_matrix" or (
                parent is not None and in_decide[parent]
            )
            if name == "linprog.lp_solve" and in_decide[index]:
                lp_in_decide += 1

        per = max(instances, 1)
        decides = calls["tightness.decide_tight_matrix"]
        metrics = {
            "linprog.calls": (calls["linprog.lp_solve"], "count"),
            "linprog.busy_s": (total["linprog.lp_solve"], "s"),
            "linprog.share": (total["linprog.lp_solve"] / traced_busy, "ratio"),
            "linprog.rows_max": (self.lp_rows_max, "count"),
            "linprog.cols_max": (self.lp_cols_max, "count"),
            "linprog.solution_bits_max": (self.lp_bits_max, "bits"),
            "classify.classify_s": (classify_busy, "s"),
            "classify.completely_s_calls": (calls["classify.is_completely_s"], "count"),
            "classify.s_lp_calls": (calls["classify.is_s_matrix"], "count"),
            "classify.s_lp_s": (total["classify.is_s_matrix"], "s"),
            "classify.s_lp_share": (total["classify.is_s_matrix"] / traced_busy, "ratio"),
            "classify.p_matrix_calls": (calls["classify.is_p_matrix"], "count"),
            "matrix.det_calls": (calls["matrix.det"], "count"),
            "matrix.det_s": (total["matrix.det"], "s"),
            "matrix.det_share": (total["matrix.det"] / traced_busy, "ratio"),
            "matrix.inverse_calls": (calls["matrix.inverse"], "count"),
            "matrix.inverse_s": (total["matrix.inverse"], "s"),
            "matrix.matmul_calls": (calls["matrix.matmul"], "count"),
            "matrix.matmul_s": (total["matrix.matmul"], "s"),
            "network.derive_calls": (calls["network.derive_matrices"], "count"),
            "network.derive_s": (total["network.derive_matrices"], "s"),
            "network.derive_self_s": (self_time["network.derive_matrices"], "s"),
            "network.derive_share": (total["network.derive_matrices"] / traced_busy, "ratio"),
            "tightness.check_calls": (calls["tightness.check_tight_system"], "count"),
            "tightness.check_self_s": (self_time["tightness.check_tight_system"], "s"),
            "tightness.build_system_s": (total["tightness.build_system"], "s"),
            "tightness.verify_calls": (calls["tightness.verify_assignment"], "count"),
            "tightness.verify_s": (total["tightness.verify_assignment"], "s"),
            "tightness.decide_calls": (decides, "count"),
            "tightness.decide_self_s": (self_time["tightness.decide_tight_matrix"], "s"),
            "tightness.lp_per_decide": (lp_in_decide / decides if decides else 0.0, "count"),
            "cli.main_s": (total["cli.main"], "s"),
            "cli.self_s": (self_time["cli.main"], "s"),
            "cli.output_bytes": (output_bytes, "bytes"),
            "rational.parse_calls": (self.counts["rational.parse_rational"], "count"),
            "rational.format_calls": (self.counts["rational.format_rational"], "count"),
            "trace.spans": (len(spans), "count"),
            "trace.batch_s": (traced_busy, "s"),
            "trace.overhead_ratio": (overhead, "ratio"),
        }
        for name in (
            "classify.classify_s",
            "classify.completely_s_calls",
            "classify.s_lp_calls",
            "classify.s_lp_s",
            "classify.p_matrix_calls",
        ):
            value, unit = metrics[name]
            metrics[f"{name}_per_matrix"] = (value / per, unit)
        return metrics
