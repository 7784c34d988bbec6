"""The benchmark's tracer and worker find every program function they use.

bench/tracing.py wraps functions by module and attribute name, and
bench/worker.py calls program functions by name, so renaming one of them
would crash a traced benchmark run or fail its operations.  This loads
both by path; the tracer builds its wrappers without putting them in.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from proxrsa import keygen

BENCH = Path(__file__).resolve().parent.parent / "bench"
SRC = BENCH.parent / "src"

# Imports what the worker imports (by importing it), then switches the
# tracer on before the first CLI call, as a traced run does.
_TRACED_RUN = """
import json, sys
import tracing, worker
recorder = tracing.Recorder()
swaps = tracing.wrappers(recorder)
tracing.switch(swaps, True)
rc, _ = worker.run_cli(json.loads(sys.argv[1]))
tracing.switch(swaps, False)
print(json.dumps({"rc": rc, "calls": {name: stat[0] for name, stat in recorder.stats.items()}}))
"""


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target():
    tracing = _load("proxrsa_bench_tracing", BENCH / "tracing.py")
    recorder = tracing.Recorder()
    swaps = tracing.wrappers(recorder)
    assert set(recorder.stats) == {
        f"{module}.{attr}" for module, attr, _ in tracing.TARGETS + tracing.LEAVES
    }
    assert set(recorder.counts) == {f"{module}.{attr}" for module, attr in tracing.COUNTED}
    # keygen calls the entropy predicates through names the tracer swaps too
    aliases = {attr for holder, attr, _, _ in swaps if holder is keygen}
    assert {"check_entropy_constraint", "proximity_holds_exact"} <= aliases


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "standard", "k": 64},
        {"kind": "multi", "m": 3, "k": 96},
        {"kind": "compat", "shift": 20, "k": 256},
    ],
    ids=lambda spec: spec["kind"],
)
def test_worker_lifecycle_runs_on_todays_names(spec, monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))  # worker.py imports tracing as a top-level module
    worker = _load("proxrsa_bench_worker", BENCH / "worker.py")
    reply = worker.lifecycle(spec, "00" * 32)
    assert reply["failures"] == []


def test_tracer_counts_calls_of_modules_loaded_after_it():
    """shor_sim loads only when shor-compare runs, after the tracer has
    built its wrappers, so it must call the traced functions through
    their home modules for the calls to be counted."""
    argv = ["shor-compare", "--bits", "8", "--pairs", "1", "--gamma", "0.35", "--bases", "2"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(BENCH)]))
    result = subprocess.run(
        [sys.executable, "-c", _TRACED_RUN, json.dumps(argv)],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert result.returncode == 0, result.stderr
    report = json.loads(result.stdout)
    assert report["rc"] == 0
    assert report["calls"]["numerics.stream_uint"] > 0
    assert report["calls"]["entropy.proximity_holds_exact"] > 0
