"""Benchmark of reflecto: seeded closed-loop workloads, end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload certify-lp --seed 1 --seconds 20 --trace 0

``--trace 0`` times the batch with nothing patched and reports the end-to-end
metrics.  ``--trace 1`` spends half of ``--seconds`` on an untraced batch,
then runs the same instances again with spans around the package's public
functions and reports the per-layer metrics.  Every output is checked against
``golden.json`` and every witness is re-verified exactly, outside the timed
region.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

``--smoke`` runs one round per workload instead of a timed batch, with a
small probe budget.  ``--refresh-golden`` recomputes the pool and its expected
outputs for the chosen workload and rewrites ``golden.json``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import random
import resource
import signal
import statistics
import sys
import traceback
from collections import Counter
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS, family_of, input_sha, m_matrix_rows

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCE = ROOT / "src"
GOLDEN = HERE / "golden.json"
OUT = HERE / "out"

SETUP_REPS = 9
PROBE_BUDGET_S = 8.0
SMOKE_PROBE_BUDGET_S = 0.5
PROBE_MAX_D = 12
TAIL_BEYOND = 10

# On a shared 2-vCPU Intel Xeon VM at 2.1 GHz, other tenants changed the
# interpreter's speed by up to 1.7x over tens of seconds, which no amount of
# work per run averages out.  So every instance and every set-up is preceded
# by a fixed pure-Python rational loop that never touches reflecto.  Its time,
# as a centred rolling median, gauges the machine's current speed, and the
# gated times are rescaled to REFERENCE_CALIBRATION_S, the loop's time on an
# idle core of that machine under Python 3.11.  Raw wall times are reported
# next to them.
CALIBRATION_TERMS = 1000
CALIBRATION_WINDOW = 9
REFERENCE_CALIBRATION_S = 0.0022
WALL_CAP = 2.0


def calibrate() -> float:
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, CALIBRATION_TERMS):
        total += Fraction(1, i % 97 + 1)
    return perf_counter() - start


def speed_factors(calibrations: list[float]) -> list[float]:
    """Reference over measured calibration time, one factor per sample."""
    half = CALIBRATION_WINDOW // 2
    return [
        REFERENCE_CALIBRATION_S / statistics.median(calibrations[max(0, i - half) : i + half + 1])
        for i in range(len(calibrations))
    ]


# --------------------------------------------------------------------------
# set-up: import plus input generation, repeated and reported as a median
# --------------------------------------------------------------------------


def import_reflecto():
    """Import the package from this checkout's ``src``, dropping any earlier import."""
    for name in [n for n in sys.modules if n == "reflecto" or n.startswith("reflecto.")]:
        del sys.modules[name]
    api = importlib.import_module("reflecto")
    importlib.import_module("reflecto.cli")
    if not Path(api.__file__).resolve().is_relative_to(SOURCE):
        raise ImportError(f"reflecto was imported from {api.__file__}, not from {SOURCE}")
    return api


def set_up(workload, pool: list[dict]):
    """One set-up: fresh import, then every pool input generated and handed over."""
    api = import_reflecto()
    inputs = {}
    for entry in pool:
        raw = workload.generate(entry["family"], entry["index"])
        inputs[entry["id"]] = (input_sha(raw), workload.prepare(api, raw, OUT))
    return api, inputs


class Plan:
    """Rounds of one pool entry per stratum; the seed picks entries and order."""

    def __init__(self, workload, pool: list[dict], seed: int):
        self.seed = seed
        self.strata = list(workload.strata)
        self.by_stratum = {}
        for stratum in self.strata:
            members = [e for e in pool if e["stratum"] == stratum]
            if not members:
                raise ValueError(f"golden pool has no entries for stratum {stratum}")
            self.by_stratum[stratum] = random.Random(f"{seed}:{stratum}").sample(members, len(members))

    def round(self, r: int) -> list[dict]:
        order = list(self.strata)
        random.Random(f"{self.seed}:round:{r}").shuffle(order)
        return [self.by_stratum[s][r % len(self.by_stratum[s])] for s in order]


# --------------------------------------------------------------------------
# batches
# --------------------------------------------------------------------------


def run_instances(workload, api, inputs, entries, results, tracer=None) -> None:
    """Closed loop: each instance starts when the previous one has returned."""
    for entry in entries:
        inp = inputs[entry["id"]][1]
        if tracer is not None:
            tracer.instance = entry["id"]
        calibration = calibrate()
        error = None
        start = perf_counter()
        try:
            out = workload.run(api, inp)
        except Exception:  # a raising instance is a counted failure, not a crash
            out = None
            error = traceback.format_exc(limit=3)
        latency = perf_counter() - start
        results.append((entry, latency, out, error, calibration))


def timed_batch(workload, api, inputs, plan: Plan, seconds: float, smoke: bool):
    """Whole rounds until ``seconds`` reference seconds have passed (one round in smoke mode).

    Counting reference rather than wall seconds keeps the number of rounds, and
    so the instance mix, independent of how busy the host is.  On a host more
    than WALL_CAP times slower than the reference, wall time ends the batch.
    """
    results = []
    start = perf_counter()
    r = 0
    while r == 0 or (
        not smoke and scaled_busy(results) < seconds and perf_counter() - start < WALL_CAP * seconds
    ):
        run_instances(workload, api, inputs, plan.round(r), results)
        r += 1
    return results, perf_counter() - start


def check(workload, api, inputs, results) -> list[str]:
    """Compare with the golden outputs and re-verify witnesses; returns problems."""
    problems = []
    for entry, _, out, error, _ in results:
        if error is not None:
            problems.append(f"{entry['id']}: raised\n{error}")
            continue
        sha, inp = inputs[entry["id"]]
        if sha != entry["input_sha"]:
            problems.append(f"{entry['id']}: generated input differs from the golden pool")
            continue
        got = workload.expected(out)
        if got != entry["expected"]:
            problems.append(f"{entry['id']}: expected {entry['expected']}, got {got}")
            continue
        try:
            issue = workload.recheck(api, inp, out)
        except Exception:
            issue = "witness check raised\n" + traceback.format_exc(limit=3)
        if issue is not None:
            problems.append(f"{entry['id']}: {issue}")
    return problems


# --------------------------------------------------------------------------
# the dimension probe (certify-lp)
# --------------------------------------------------------------------------


class _ProbeTimeout(BaseException):
    """Raised by the interval timer; not an Exception, so no handler in the package catches it."""


def _on_alarm(signum, frame):
    raise _ProbeTimeout


def probe(api, seed: int, budget: float):
    """check_tight_system(R, 1) on one seeded M-matrix per d = 2, 3, ... until one exceeds the budget."""
    records = []
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        for d in range(2, PROBE_MAX_D + 1):
            matrix = api.RatMatrix(m_matrix_rows(random.Random(f"probe:{seed}:{d}"), d))
            ones = (Fraction(1),) * d
            start = perf_counter()
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                verdict = api.check_tight_system(matrix, ones)
            except _ProbeTimeout:
                records.append({"d": d, "seconds": None, "ok": True})
                break
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = perf_counter() - start
            # dense M-matrices are irreducible, so every one must be certified tight
            ok = verdict.tight and verdict.optimum == verdict.variable_count
            records.append({"d": d, "seconds": elapsed, "ok": ok})
    finally:
        signal.signal(signal.SIGALRM, previous)
    certified = [r["d"] for r in records if r["seconds"] is not None]
    return (max(certified) if certified else 0), records


# --------------------------------------------------------------------------
# metrics and reporting
# --------------------------------------------------------------------------


def latency_stats(latencies: list[float]) -> dict:
    ordered = sorted(latencies)
    n = len(ordered)
    # With fewer than 2 * TAIL_BEYOND + 1 instances the percentile with
    # TAIL_BEYOND beyond it would sit below the median; report the maximum.
    tail_index = n - 1 - TAIL_BEYOND if n > 2 * TAIL_BEYOND else n - 1
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "tail": ordered[tail_index],
        "tail_percentile": 100.0 * (tail_index + 1) / n,
        "tail_beyond": n - 1 - tail_index,
    }


def scaled_busy(results) -> float:
    """Summed instance time in reference seconds."""
    factors = speed_factors([r[4] for r in results])
    return sum(r[1] * f for r, f in zip(results, factors))


def peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as handle:
        for line in handle:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return "unknown"


def load_pool(workload) -> list[dict]:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)[workload.name]["pool"]


def emit(report_lines: list[str], meta: dict, result: dict) -> None:
    for line in report_lines:
        print(line)
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))


def metric_lines(metrics: dict, notes: dict) -> list[str]:
    lines = []
    for name, (value, unit) in metrics.items():
        note = notes.get(name, "")
        lines.append(f"  {name:<34} {value:>14.6g} {unit:<6} {note}".rstrip())
    return lines


def bench(args) -> int:
    workload = WORKLOADS[args.workload]
    pool = load_pool(workload)
    OUT.mkdir(parents=True, exist_ok=True)

    setup_times, setup_scaled = [], []
    for _ in range(SETUP_REPS):
        speed = REFERENCE_CALIBRATION_S / statistics.median(calibrate() for _ in range(5))
        start = perf_counter()
        api, inputs = set_up(workload, pool)
        plan = Plan(workload, pool, args.seed)
        setup_times.append(perf_counter() - start)
        setup_scaled.append(setup_times[-1] * speed)

    meta = {
        "workload": workload.name,
        "seed": args.seed,
        "python": platform.python_version(),
        "cpu_model": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)),
        "smoke": args.smoke,
        "trace": args.trace,
        "pool_size": len(pool),
        "strata": len(plan.strata),
        "setup_reps": SETUP_REPS,
    }

    if not args.trace:
        results, wall = timed_batch(workload, api, inputs, plan, args.seconds, args.smoke)
        rss = peak_rss_mib()
        problems = check(workload, api, inputs, results)
        attempted, failed = len(results), len(problems)
        factors = speed_factors([r[4] for r in results])
        scaled = [r[1] * f for r, f in zip(results, factors)]
        lat = latency_stats(scaled)
        raw = latency_stats([r[1] for r in results])
        max_d = None
        if workload.name == "certify-lp":
            budget = SMOKE_PROBE_BUDGET_S if args.smoke else PROBE_BUDGET_S
            max_d, records = probe(api, args.seed, budget)
            attempted += len(records)
            bad = [r for r in records if not r["ok"]]
            failed += len(bad)
            problems += [f"probe d={r['d']}: not certified tight" for r in bad]
            meta.update(probe_budget_s=budget, probe=records, max_certified_d=max_d)
        metrics = {
            "latency_p50_s": (lat["p50"], "s"),
            "latency_tail_s": (lat["tail"], "s"),
            "throughput_per_s": (len(results) / sum(scaled), "1/s"),
            "peak_rss_mib": (rss, "MiB"),
            "setup_s": (statistics.median(setup_scaled), "s"),
        }
        extra = {"failed_ratio": (failed / attempted, "ratio")}
        if max_d is not None:
            extra["max_certified_d"] = (max_d, "d")
        notes = {
            "latency_p50_s": f"median of {lat['n']} instances; wall {raw['p50']:.4g} s",
            "latency_tail_s": f"p{lat['tail_percentile']:.1f}, {lat['tail_beyond']} instances beyond; wall {raw['tail']:.4g} s",
            "throughput_per_s": f"{len(results)} instances; wall {len(results) / wall:.4g}/s over {wall:.3f} s",
            "failed_ratio": f"{failed} of {attempted}",
            "setup_s": f"median of {SETUP_REPS} set-ups; wall {statistics.median(setup_times):.4g} s",
            "max_certified_d": f"probe budget {meta.get('probe_budget_s')} s per instance",
        }
        meta.update(
            instances=lat["n"],
            rounds=lat["n"] // len(plan.strata),
            batch_s=wall,
            tail_percentile=lat["tail_percentile"],
            tail_beyond=lat["tail_beyond"],
            setup_times_s=setup_times,
            wall_latency_p50_s=raw["p50"],
            wall_latency_tail_s=raw["tail"],
            wall_throughput_per_s=len(results) / wall,
            wall_setup_s=statistics.median(setup_times),
            speed_factor=statistics.median(factors),
            mix=dict(sorted(Counter(workload.label(r[2]) for r in results if r[2] is not None).items())),
            stratum_p50_s={
                s: statistics.median(v for r, v in zip(results, scaled) if r[0]["stratum"] == s)
                for s in plan.strata
            },
            failed_ratio=failed / attempted,
        )
        lines = [f"{workload.name} seed={args.seed} end-to-end (tracing off)"]
        lines += metric_lines({**metrics, **extra}, notes)
    else:
        untraced, _ = timed_batch(workload, api, inputs, plan, args.seconds / 2, args.smoke)
        tracer = Tracer()
        traced = []
        with tracer.installed():
            run_instances(workload, api, inputs, [r[0] for r in untraced], traced, tracer)
        problems = check(workload, api, inputs, untraced) + check(workload, api, inputs, traced)
        attempted, failed = len(untraced) + len(traced), len(problems)
        output_bytes = sum(r[2]["bytes"] for r in traced if isinstance(r[2], dict))
        overhead = scaled_busy(traced) / scaled_busy(untraced)
        traced_busy = sum(r[1] for r in traced)
        metrics = tracer.layer_metrics(traced_busy, overhead, len(traced), output_bytes)
        trace_path = OUT / f"trace-{workload.name}.jsonl.gz"
        tracer.write(trace_path, {"workload": workload.name, "seed": args.seed})
        meta.update(instances=len(traced), trace_file=str(trace_path.relative_to(ROOT)))
        lines = [f"{workload.name} seed={args.seed} per-layer (traced run)"]
        lines += metric_lines(metrics, {})

    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    emit(lines, meta, result)
    return 0


# --------------------------------------------------------------------------
# golden outputs
# --------------------------------------------------------------------------


def refresh_golden(args) -> int:
    """Fill every stratum of the workload's pool and record the expected outputs."""
    workload = WORKLOADS[args.workload]
    api = import_reflecto()
    OUT.mkdir(parents=True, exist_ok=True)
    want = {s: workload.pool_per_stratum for s in workload.strata}
    families = sorted({family_of(s) for s in workload.strata})
    pool = []
    index = 0
    while any(want.values()):
        if index > 400 * workload.pool_per_stratum:
            raise RuntimeError(f"strata still short after {index} candidates: {want}")
        for family in families:
            if not any(n for s, n in want.items() if family_of(s) == family):
                continue
            raw = workload.generate(family, index)
            inp = workload.prepare(api, raw, OUT)
            out = workload.run(api, inp)
            stratum = f"{family}:{workload.label(out)}"
            if want.get(stratum, 0) == 0:
                continue
            issue = workload.recheck(api, inp, out)
            if issue is not None:
                raise RuntimeError(f"{family}/{index}: {issue}")
            want[stratum] -= 1
            pool.append(
                {
                    "id": f"{family}/{index}",
                    "family": family,
                    "index": index,
                    "stratum": stratum,
                    "input_sha": input_sha(raw),
                    "expected": workload.expected(out),
                }
            )
        index += 1
    golden = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}
    golden[workload.name] = {"pool": pool}
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{workload.name}: {len(pool)} pool entries written to {GOLDEN.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one round per batch, small probe budget")
    parser.add_argument("--refresh-golden", action="store_true", help="rewrite this workload's golden pool")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SOURCE))
    try:
        import_reflecto()
    except ImportError as exc:
        print(f"error: cannot import reflecto from {SOURCE}: {exc}", file=sys.stderr)
        return 2
    if args.refresh_golden:
        return refresh_golden(args)
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
