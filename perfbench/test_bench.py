"""Smoke test of the benchmark itself.

Runs every workload for one round (``--smoke``), untraced and traced, and
checks that each metric named in ``BENCHMARK.json`` is emitted with its unit,
that all outputs match the golden file, and that a second seed yields the
same mix of verdicts and proof methods.  Run from the repository root:

    python -m pytest -q perfbench
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@functools.lru_cache(maxsize=None)
def smoke(workload: str, seed: int, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def parsed(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    meta = json.loads(lines[-2].removeprefix("meta "))
    return json.loads(lines[-1]), meta


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(workload, trace, section):
    result, _ = parsed(smoke(workload, 0, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_gives_the_same_instance_mix(workload):
    _, first = parsed(smoke(workload, 0, 0))
    _, second = parsed(smoke(workload, 1, 0))
    assert first["mix"] == second["mix"]
    assert sum(first["mix"].values()) == first["instances"]


def test_probe_reports_the_largest_certified_dimension():
    _, meta = parsed(smoke("certify-lp", 0, 0))
    assert meta["max_certified_d"] >= 2
    assert meta["probe"][-1]["seconds"] is None


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = smoke(WORKLOADS[0], 0, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
