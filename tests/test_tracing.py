"""The benchmark's tracer finds every program function it wraps.

bench/tracing.py wraps functions by module and attribute name, so renaming
one of them would crash a traced benchmark run.  This loads the tracer by
path and builds its wrappers without putting them in.
"""

import importlib.util
from pathlib import Path

from proxrsa import keygen

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("proxrsa_bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_target():
    tracing = _load_tracing()
    recorder = tracing.Recorder()
    swaps = tracing.wrappers(recorder)
    assert set(recorder.stats) == {
        f"{module}.{attr}" for module, attr, _ in tracing.TARGETS + tracing.LEAVES
    }
    assert set(recorder.counts) == {f"{module}.{attr}" for module, attr in tracing.COUNTED}
    # keygen calls the entropy predicates through names the tracer swaps too
    aliases = {attr for holder, attr, _, _ in swaps if holder is keygen}
    assert {"check_entropy_constraint", "proximity_holds_exact"} <= aliases
