#!/usr/bin/env python3
"""nfbeam pipeline benchmark: one workload, one seed, one run.

Run from the repository root:

  python3 perfbench/run.py --workload cli_run --seed 1 --seconds 32 --trace 0

With ``--trace 0`` it repeats passes over the workload's scenarios for about
``--seconds`` seconds and reports the end-to-end metrics: ``wall_s`` (median
pass), ``setup_s`` (median of three fresh interpreters importing nfbeam and
building the inputs) and ``peak_rss_mb``.  Both times are scaled to the
reference host's speed (see :class:`HostSpeed`).  With ``--trace 1`` it alternates
untraced and traced passes and reports the per-layer metrics of the traced
ones, the output-check errors and the tracing overhead.  Both modes check
every scenario's outputs.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
metric names and units are those of ``BENCHMARK.json``.  The full result,
with provenance and per-pass times, goes to ``.bench_work/results/`` and
traced runs write their spans next to it.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_REPS = 3
# Seconds that speed_probe() takes on the reference host: a 2-vCPU x86-64 VM
# (Intel Xeon), Python 3.11, numpy 2.4, at its usual speed.
PROBE_REFERENCE_S = 0.08
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMBA_NUM_THREADS")

SETUP_CODE = (
    "import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
    "workloads.build(sys.argv[3], int(sys.argv[4]), sys.argv[5], smoke=sys.argv[6] == '1'); "
    "workloads.warm_up()"
)


def cap_threads() -> dict[str, int]:
    """Cap BLAS, OpenMP and numba threads at the CPUs this process may use."""
    nproc = len(os.sched_getaffinity(0))
    caps = {}
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, nproc))
        except ValueError:
            wanted = nproc
        caps[var] = max(1, min(wanted, nproc))
        os.environ[var] = str(caps[var])
    return caps


def provenance(workload: str, seed: int, trace: bool, smoke: bool, caps: dict[str, int]) -> dict:
    import numpy
    from nfbeam import kernels

    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "smoke": smoke,
        "backend": kernels.resolve_backend(),
        "numba_present": kernels.HAVE_NUMBA,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_caps": caps,
    }


def _probe_step(x: float, i: int) -> float:
    return x - (x * x - i) / (2.0 * x + 1.0) * 1e-3 + math.sqrt(i) * 1e-9


def speed_probe() -> list[float]:
    """Seconds for a fixed load that does not touch nfbeam: the host's speed now.

    Returns the times of its two halves: interpreted float arithmetic with
    function calls, like the per-element solver, and numpy sqrt/cos/sin over
    16384-element arrays, like the field kernel.
    """
    import numpy as np

    start = time.perf_counter()
    x = 0.5
    for i in range(1, 200_000):
        x = _probe_step(x, i)
    middle = time.perf_counter()
    a = np.linspace(0.1, 1.0, 16384)
    acc = np.zeros(a.shape, complex)
    for i in range(60):
        r = np.sqrt(a * a + i)
        acc += (np.cos(r) - 1j * np.sin(r)) / r
    return [middle - start, time.perf_counter() - middle]


class HostSpeed:
    """Scales each timed call to the reference host with probes on both sides.

    The host's speed drifts by tens of percent over minutes, so a probe runs
    before the first call and after every call, and a call's time is
    multiplied by ``PROBE_REFERENCE_S`` over the mean of its two probes.
    """

    def __init__(self) -> None:
        self.probes = [speed_probe()]

    def scale(self, seconds: float) -> float:
        self.probes.append(speed_probe())
        around = (sum(self.probes[-2]) + sum(self.probes[-1])) / 2.0
        return seconds * PROBE_REFERENCE_S / around


def measure_setup(workload: str, seed: int, smoke: bool) -> dict:
    """Wall times of fresh interpreters that import nfbeam and build the inputs.

    ``scaled_s`` is the median of those times scaled to the reference host.
    """
    argv = [
        sys.executable, "-c", SETUP_CODE, str(SRC), str(BENCH_DIR),
        workload, str(seed), str(WORK / "setup" / workload), "1" if smoke else "0",
    ]
    speed = HostSpeed()
    times, scaled = [], []
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        subprocess.run(argv, check=True, cwd=ROOT)
        times.append(time.perf_counter() - start)
        scaled.append(speed.scale(times[-1]))
    shutil.rmtree(WORK / "setup", ignore_errors=True)
    return {"raw_s": times, "probes_s": speed.probes, "scaled_s": statistics.median(scaled)}


def run_pass(label: str, scenarios, pass_dir: Path, tracer, speed: HostSpeed) -> dict:
    """Run every scenario once, in order, timing the program calls only."""
    runs, times, scaled = [], [], []
    with tracer.installed() if tracer else contextlib.nullcontext():
        for sc in scenarios:
            if tracer:
                tracer.scenario = f"{label}/{sc.name}"
            out = pass_dir / sc.name
            error = None
            start = time.perf_counter()
            try:
                sc.run(out)
            except Exception:  # a failing scenario is counted, not fatal
                error = traceback.format_exc()
            times.append(time.perf_counter() - start)
            scaled.append(speed.scale(times[-1]))
            if error:
                print(f"scenario {label}/{sc.name} raised:\n{error}", file=sys.stderr)
            runs.append((sc, out, error))
    return {
        "label": label,
        "traced": tracer is not None,
        "wall_s": sum(times),
        "scaled_s": sum(scaled),
        "scenario_s": times,
        "runs": runs,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    """Passes for about ``seconds``, then the output checks; returns the raw result.

    The number of passes is the one whose expected end lies closest to
    ``seconds``: at least one, and in a traced run at least one untraced and
    one traced pass.
    """
    import tracing
    import workloads

    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    scenarios = workloads.build(name, seed, work / "inputs", smoke=smoke)
    workloads.warm_up()
    tracer = tracing.Tracer() if trace else None

    passes = []
    start = time.perf_counter()
    speed = HostSpeed()
    while True:
        traced = trace and len(passes) % 2 == 1
        label = f"pass{len(passes)}"
        passes.append(run_pass(label, scenarios, work / label, tracer if traced else None, speed))
        elapsed = time.perf_counter() - start
        mean = elapsed / len(passes)
        if len(passes) >= (2 if trace else 1) and elapsed + mean / 2 > seconds:
            break
    # read before the checks, whose oracle grids would dominate the peak
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    verdicts: dict[str, workloads.Verdict] = {}
    attempted = failed = 0
    unexpected, known = [], set()
    worst: dict[str, float] = {}
    for p in passes:
        for sc, out, error in p["runs"]:
            attempted += 1
            where = f"{p['label']}/{sc.name}"
            if error:
                failed += 1
                unexpected.append(f"{where}: raised")
                continue
            digest = workloads.output_digest(out)
            if digest not in verdicts:
                try:
                    verdicts[digest] = sc.check(out)
                except Exception:  # unreadable or missing outputs fail the scenario
                    print(f"checking {where} raised:\n{traceback.format_exc()}", file=sys.stderr)
                    verdicts[digest] = workloads.Verdict(failures=["outputs"])
            verdict = verdicts[digest]
            for check, err in verdict.errors.items():
                worst[check] = max(worst.get(check, 0.0), err)
            failed += bool(verdict.failures)
            for check in verdict.failures:
                note = workloads.KNOWN_DEFECTS.get((check, sc.beam))
                if note:
                    known.add(f"{check} check fails on {sc.beam} beams ({note})")
                else:
                    unexpected.append(f"{where}: {check} check failed")
    shutil.rmtree(work, ignore_errors=True)

    result = {
        "passes": [{k: p[k] for k in ("label", "traced", "wall_s", "scaled_s", "scenario_s")} for p in passes],
        "probes_s": speed.probes,
        "attempted": attempted,
        "failed": failed,
        "unexpected_failures": unexpected,
        "known_defects": sorted(known),
        "check_errors": worst,
        "peak_rss_mb": peak_rss_mb,
    }
    if trace:
        selves = tracing.self_times(tracer.spans)
        per_pass = [
            tracing.layer_metrics(tracer.spans, selves, f"{p['label']}/")
            for p in passes
            if p["traced"]
        ]
        result["layers"] = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
        result["spans"] = tracer.spans
    return result


def metrics_for(result: dict, setup: dict | None, units: dict[str, str]) -> dict:
    """The metrics the result line reports, named and united as in BENCHMARK.json.

    Times are scaled to the reference host (see :func:`speed_probe`).
    """
    untraced = [p["scaled_s"] for p in result["passes"] if not p["traced"]]
    if "layers" not in result:
        values = {
            "wall_s": statistics.median(untraced),
            "setup_s": setup["scaled_s"],
            "peak_rss_mb": result["peak_rss_mb"],
        }
    else:
        traced = [p["scaled_s"] for p in result["passes"] if p["traced"]]
        errors = result["check_errors"]
        values = dict(result["layers"])
        values["check.direction_err_deg_max"] = errors.get("direction", 0.0)
        values["check.field_rel_err_max"] = errors.get("field", 0.0)
        values["check.distance_err_max"] = errors.get("distance", 0.0)
        values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


def load_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("cli_run", "field_lattice", "synth_codebook"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny arrays and grids, for tests")
    args = parser.parse_args(argv)
    trace = bool(args.trace)

    caps = cap_threads()
    if not (SRC / "nfbeam" / "__init__.py").is_file():
        print(f"error: nfbeam sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    units = load_units(trace)
    prov = provenance(args.workload, args.seed, trace, args.smoke, caps)
    print("provenance: " + json.dumps(prov), flush=True)

    setup = None if trace else measure_setup(args.workload, args.seed, args.smoke)
    result = run_workload(args.workload, args.seed, args.seconds, trace, smoke=args.smoke)
    metrics = metrics_for(result, setup, units)

    out_dir = WORK / ("smoke" if args.smoke else "results")
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = result.pop("spans", None)
    record = dict(result, provenance=prov, setup=setup, metrics=metrics)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if spans is not None:
        with (out_dir / f"{stem}-spans.jsonl").open("w") as fh:
            fh.write("# name, scenario, parent index, start s, end s, counts\n")
            for span in spans:
                fh.write(json.dumps(span.as_list()) + "\n")

    n_untraced = sum(not p["traced"] for p in result["passes"])
    print(f"workload {args.workload}, seed {args.seed}: {len(result['passes'])} passes "
          f"({n_untraced} untraced), one client, scenarios run back to back")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    raw = statistics.median(p["wall_s"] for p in result["passes"] if not p["traced"])
    probe = statistics.median(sum(p) for p in result["probes_s"])
    print(f"  unscaled median pass {raw:.6g} s; speed probe {probe:.4g} s "
          f"(reference {PROBE_REFERENCE_S} s)")
    print(f"  failed_frac {result['failed'] / result['attempted']:.4f} "
          f"({result['failed']} of {result['attempted']} scenario runs)")
    for name, err in sorted(result["check_errors"].items()):
        print(f"  check.{name} worst error {err:.3e}")
    for note in result["known_defects"]:
        print(f"  known defect: {note}")
    for note in result["unexpected_failures"]:
        print(f"  FAILED: {note}")
    print(json.dumps({
        "correct": not result["unexpected_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
