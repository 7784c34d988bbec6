#!/usr/bin/env python3
"""Summarise one set of benchmark runs, or compare two, per workload.

    python3 bench/compare.py RUNS_DIR            # one set: medians and quartiles
    python3 bench/compare.py BASE_DIR NEW_DIR    # two sets: and flags

Each directory holds run records as run.py writes them to .bench_out/
(<workload>-seed<n>-trace0.json); copy that directory after each set.
Rows cover the end-to-end metrics of BENCHMARK.json, then the metrics
the run records add, which have no bound: raw wall times (cmd_s.p50,
round_s, setup_wall_s, ...), p90s, and the per-command metrics
(keygen_cli_s.p50, keys_per_s, shor_compare_16_s, ..., raw and
normalised as norm_...). Flags:

  worse       the new median is worse than the base median by more than the bound
  unresolved  either set's quartile spread exceeds the bound, and the new
              runs do not all read better than every base run
"""

from __future__ import annotations

import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(directory: str) -> dict:
    """workload -> metric -> list of values."""
    runs: dict = {}
    for path in sorted(glob.glob(os.path.join(directory, "*-trace0.json"))):
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        values = {name: metric["value"] for name, metric in record["metrics"].items()}
        values.update(record["unbounded"])
        values.update(record["operations"]["named"])
        values.update({f"norm_{name}": value for name, value in record["normalised"]["named"].items()})
        for name, value in values.items():
            runs.setdefault(record["workload"], {}).setdefault(name, []).append(value)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else 0.0


def cell(values: list[float]) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:.5g} [{q1:.5g}, {q3:.5g}] n={len(values)}"


def flag(metric: dict, base: list[float], new: list[float]) -> tuple[float, str]:
    sign = 1 if metric["better"] == "lower" else -1
    bm, nm = quartiles(base)[1], quartiles(new)[1]
    change = (nm - bm) / abs(bm) if bm else 0.0
    if "bound" not in metric:
        return change, ""
    if max(spread(base), spread(new)) > metric["bound"] and not all(sign * x < sign * y for x in new for y in base):
        return change, "unresolved"
    return change, "worse" if sign * change > metric["bound"] else ""


def main() -> None:
    if len(sys.argv) not in (2, 3):
        raise SystemExit(__doc__)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    sets = [load(d) for d in sys.argv[1:]]
    for workload in sorted(set().union(*sets)):
        names = [m["name"] for m in metrics]
        names += sorted(set().union(*(s.get(workload, {}) for s in sets)) - set(names))
        for name in names:
            metric = next((m for m in metrics if m["name"] == name),
                          {"unit": "1/s" if name.endswith("per_s") else "s",
                           "better": "higher" if name.endswith("per_s") else "lower"})
            columns = [s.get(workload, {}).get(name) for s in sets]
            if not all(columns):
                continue
            line = f"{workload:8} {name:22} {metric['unit']:6} " + "  ".join(f"{cell(c):44}" for c in columns)
            if len(columns) == 2:
                change, mark = flag(metric, *columns)
                line += f" {change:+8.1%}  {mark}"
            print(line.rstrip())


if __name__ == "__main__":
    main()
