"""Tests of the benchmark itself.  Run from the repository root with

  python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import compare  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from nfbeam import cli  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_run_prints_only_declared_metrics(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in line["metrics"].items()} == declared


def test_perturbed_excitation_raises_failed_fraction(monkeypatch):
    clean = run.run_workload("field_lattice", seed=5, seconds=0, trace=False, smoke=True)
    assert clean["failed"] == 0

    original = cli.to_excitation

    def perturbed(pd):
        exc = original(pd)
        currents = exc.currents.copy()
        currents[0] *= np.exp(0.1j)
        return replace(exc, currents=currents)

    monkeypatch.setattr(cli, "to_excitation", perturbed)
    result = run.run_workload("field_lattice", seed=5, seconds=0, trace=False, smoke=True)
    assert result["failed"] / result["attempted"] > 0
    assert any("field check failed" in note for note in result["unexpected_failures"])


def test_self_time_is_duration_minus_child_coverage():
    spans = [tracing.Span(n, "s", p) for n, p in (("a", None), ("b", 0), ("c", 0), ("d", 1))]
    for span, (start, end) in zip(spans, ((0, 10), (1, 4), (3, 6), (2, 3))):
        span.start, span.end = start, end
    # b and c overlap on [3, 4]; a's children cover [1, 6] once
    assert tracing.self_times(spans) == [5, 2, 3, 1]


def test_tracer_restores_entry_points():
    before = cli.main
    with tracing.Tracer().installed():
        assert cli.main is not before
    assert cli.main is before


def test_compare_refuses_mixed_backends():
    base = run.WORK / "test-compare"
    shutil.rmtree(base, ignore_errors=True)
    for name, backend in (("a", "numpy"), ("b", "numba")):
        (base / name).mkdir(parents=True)
        for seed in (1, 2):
            record = {
                "provenance": {"workload": "cli_run", "backend": backend, "numba_present": True},
                "metrics": {m["name"]: {"value": 1.0 + seed} for m in SPEC["end_to_end"]},
            }
            (base / name / f"cli_run-seed{seed}-trace0.json").write_text(json.dumps(record))
    try:
        assert compare.main([str(base / "a")]) == 0
        assert compare.main([str(base / "a"), str(base / "b")]) == 2
    finally:
        shutil.rmtree(base)
