#!/usr/bin/env python3
"""Record refs.json: reference outputs that later commits must reproduce.

    python3 bench/record_refs.py

Records, from the checkout's src/, the SHA-256 of the first key files the
keys workload writes on seed 0, and the shor-compare CSV rows and census
JSON for every input the shor and census workloads can draw. Run it only on a commit
whose outputs are trusted; the benchmark compares against what it wrote.
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor

import checks
import inputs
from run import BENCH, ROOT, run_process

SEED = 0
KEY_COUNT = 30


def cli(argv: list[str]) -> None:
    proc = run_process([sys.executable, "-m", "proxrsa", *argv], 600)
    if proc["rc"] != 0:
        raise SystemExit(f"proxrsa {' '.join(argv)} failed: {proc['err']}")


def rows(path: str) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def main() -> None:
    work = os.path.join(ROOT, ".bench_work", f"refs-{os.getpid()}")
    os.makedirs(work)
    jobs = {}
    for i in range(KEY_COUNT):
        jobs[("key", i)] = inputs.keygen_argv(i, inputs.op_seed(SEED, i), os.path.join(work, f"key-{i}.json"))
    for j in range(inputs.SHOR_12_GRID):
        jobs[("shor12", j)] = inputs.shor12_argv(j, os.path.join(work, f"shor12-{j}.csv"))
    jobs[("shor16", 0)] = inputs.round_steps("shor", SEED, 0, work)[1]["argv"]
    for j in range(inputs.CENSUS_GRID):
        lo = inputs.census_plain_lo(j)
        jobs[("plain", lo)] = inputs.census_plain_argv(lo, os.path.join(work, f"plain-{lo}.json"))
        lo = inputs.census_prog_lo(j)
        jobs[("progression", lo)] = inputs.census_prog_argv(lo, os.path.join(work, f"prog-{lo}.json"))
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            list(pool.map(cli, jobs.values()))
        refs = {"seed": SEED, "keys": [], "shor12": [], "shor16": None, "census": {"plain": {}, "progression": {}}}
        for (kind, key), argv in jobs.items():
            out = argv[-1]
            if kind == "key":
                refs["keys"].append(checks.sha256_file(out))
            elif kind == "shor12":
                refs["shor12"].append(rows(out))
            elif kind == "shor16":
                refs["shor16"] = rows(out)
            else:
                with open(out, encoding="utf-8") as fh:
                    refs["census"][kind][str(key)] = json.load(fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    with open(os.path.join(BENCH, "refs.json"), "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
