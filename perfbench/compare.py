#!/usr/bin/env python3
"""Summarise or compare sets of benchmark results written by run.py.

  python3 perfbench/compare.py DIR             spread of each end-to-end metric
  python3 perfbench/compare.py BASE NEW        NEW's medians against BASE's

DIR, BASE and NEW are directories of untraced result files, such as
``.bench_work/results``.  Spread is the distance between the first and third
quartiles (``statistics.quantiles(values, n=4)``) as a share of the median.
A metric regresses when NEW's median is worse than BASE's by more than the
bound in BENCHMARK.json; it is unresolved when either set spreads wider than
the bound and not every NEW run beats every BASE run.  Results from
different kernel backends are never mixed: the script refuses and exits 2.
Exit code 1 means a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str | Path) -> dict[str, list[dict]]:
    """Untraced results by workload."""
    out: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        record = json.loads(path.read_text())
        out.setdefault(record["provenance"]["workload"], []).append(record)
    return out


def backends(*sets: dict[str, list[dict]]) -> set[tuple[str, bool]]:
    return {
        (r["provenance"]["backend"], r["provenance"]["numba_present"])
        for s in sets
        for records in s.values()
        for r in records
    }


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance over median)."""
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, (q3 - q1) / median


def values_of(records: list[dict], metric: str) -> list[float]:
    return [r["metrics"][metric]["value"] for r in records]


def main(argv: list[str]) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in argv]
    if not any(sets):
        print("no result files found", file=sys.stderr)
        return 2
    found = backends(*sets)
    if len(found) > 1:
        print(f"refusing to compare results from different backends: {sorted(found)}", file=sys.stderr)
        return 2

    regressed = False
    print(f"backend {found.pop()}")
    for workload in sorted(set().union(*sets)):
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            runs = [values_of(s.get(workload, []), name) for s in sets]
            if any(len(v) < 2 for v in runs):
                print(f"{workload:15s} {name:12s} fewer than two runs in a set")
                continue
            stats = [spread(v) for v in runs]
            line = f"{workload:15s} {name:12s} bound {bound:4.2f}  " + "  |  ".join(
                f"n={len(v):2d} median {median:10.4f} spread {sp:6.3f}"
                for v, (median, sp) in zip(runs, stats)
            )
            if len(sets) == 2:
                (base_med, base_sp), (new_med, new_sp) = stats
                sign = 1.0 if metric["better"] == "lower" else -1.0
                worse = sign * (new_med - base_med) / base_med
                beats_all = all(sign * (n - b) < 0 for n in runs[1] for b in runs[0])
                if worse > bound:
                    verdict = "REGRESSED"
                    regressed = True
                elif max(base_sp, new_sp) > bound and not beats_all:
                    verdict = "unresolved"
                else:
                    verdict = "ok"
                line += f"  worse by {worse:+.3f}: {verdict}"
            print(line)
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
