"""Span recorder for the traced run, applied from outside the program.

wrappers() makes a wrapper for each function in TARGETS, to stand in its
home module and under every name another proxrsa module imported it as
(for example analysis.is_probable_prime); switch() puts the wrappers in
or takes them out again. Each wrapped call is a span: name, start, end,
parent span and the CLI operation it belongs to. Self time is a span's
duration minus the time of its child spans. Counts and times are
aggregated exactly; the span list itself is capped and written out when
the run ends.

Functions in LEAVES and COUNTED run up to millions of times per
operation, so they get lighter wrappers that distort their callers' self
time less. A leaf is timed (calls, self time, hits) but makes no span;
it must call no other wrapped function. A counted function only gets a
call counter. Both wrappers take three positional arguments, as a call
with *args costs about twice as much.
"""

from __future__ import annotations

import importlib
import json
import sys
import time

# (module, attribute, hit counter applied to the return value)
TARGETS = [
    ("numerics", "mod_pow", None),
    ("numerics", "is_probable_prime", bool),
    ("numerics", "next_prime_in_progression", None),
    ("numerics", "stream_uint", None),
    ("numerics", "SeedStream.block", None),
    ("numerics", "sieve_range", len),
    ("keygen", "generate_keypair", lambda r: 1),
    ("keygen", "generate_multiprime", lambda r: 1),
    ("keygen", "generate_compatible", lambda r: 1),
    ("keygen", "_attempt_pair", None),
    ("keygen", "_attempt_cluster", None),
    ("entropy", "check_entropy_constraint", None),
    ("entropy", "proximity_holds_exact", None),
    ("validate", "validate_key", None),
    ("analysis", "angular_separation", None),
    ("analysis", "complexity_report", None),
    ("analysis", "classical_report", None),
    ("keyfile", "read_key_file", None),
    ("keyfile", "atomic_write_bytes", None),
    ("shor_sim", "multiplicative_order", None),
    ("shor_sim", "shor_success_probability", None),
    ("shor_sim", "draw_bases", None),
    ("census", "census_pairs", lambda r: r.pair_count),
    ("census", "census_progression", lambda r: r.pair_count),
]
LEAVES = [("shor_sim", "recover_period", lambda r: r is not None)]
COUNTED = [("census", "_proximate")]

MAX_SPANS = 50_000


class Recorder:
    def __init__(self) -> None:
        self.stack: list[list] = []  # [start, child time, span id]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s, hits]
        self.counts: dict[str, int] = {}  # name -> calls, for COUNTED
        self.spans: list[tuple] = []
        self.dropped = 0
        self.next_id = 0
        self.op = 0

    def wrap(self, name, fn, hit):
        stack, spans, clock = self.stack, self.spans, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        def traced(*args, **kwargs):
            span_id = self.next_id
            self.next_id += 1
            parent = stack[-1][2] if stack else -1
            frame = [clock(), 0.0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                if len(spans) < MAX_SPANS:
                    spans.append((span_id, parent, self.op, name, frame[0], end))
                else:
                    self.dropped += 1
            if hit is not None:
                stat[3] += hit(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_leaf(self, name, fn, hit):
        stack, clock = self.stack, time.perf_counter
        stat = self.stats.setdefault(name, [0, 0.0, 0.0, 0])

        def leaf(a, b, c):
            start = clock()
            result = fn(a, b, c)
            duration = clock() - start
            if stack:
                stack[-1][1] += duration
            stat[0] += 1
            stat[1] += duration
            stat[2] += duration
            stat[3] += hit(result)
            return result

        leaf.__wrapped__ = fn
        return leaf

    def count(self, name, fn):
        counts = self.counts
        counts[name] = 0

        def counted(a, b, c):
            counts[name] += 1
            return fn(a, b, c)

        counted.__wrapped__ = fn
        return counted

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": start, "end": end}) + "\n")


def wrappers(recorder: Recorder) -> list[tuple]:
    """(holder, attribute, original, wrapper) for every name to swap."""
    swaps: list[tuple] = []
    for module_name, attr, hit in TARGETS:
        swaps += _swaps(module_name, attr, lambda name, fn: recorder.wrap(name, fn, hit))
    for module_name, attr, hit in LEAVES:
        swaps += _swaps(module_name, attr, lambda name, fn: recorder.wrap_leaf(name, fn, hit))
    for module_name, attr in COUNTED:
        swaps += _swaps(module_name, attr, recorder.count)
    return swaps


def switch(swaps: list[tuple], on: bool) -> None:
    for holder, attr, original, wrapper in swaps:
        setattr(holder, attr, wrapper if on else original)


def _swaps(module_name: str, attr: str, make) -> list[tuple]:
    module = importlib.import_module(f"proxrsa.{module_name}")
    owner, _, fn_name = attr.rpartition(".")
    holder = getattr(module, owner) if owner else module
    original = getattr(holder, fn_name)
    wrapper = make(f"{module_name}.{attr}", original)
    swaps = [(holder, fn_name, original, wrapper)]
    if owner:
        return swaps
    for name, mod in list(sys.modules.items()):
        if name.startswith("proxrsa") and mod is not None:
            swaps += [(mod, alias, original, wrapper) for alias, value in vars(mod).items()
                      if value is original and (mod, alias) != (holder, fn_name)]
    return swaps


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(stats: dict, counts: dict, cli_times: dict, overhead: float) -> dict:
    """Per-layer metric values by the names BENCHMARK.json lists."""

    def get(name, field):
        return stats.get(name, [0, 0.0, 0.0, 0])[field]

    generators = ("keygen.generate_keypair", "keygen.generate_multiprime", "keygen.generate_compatible")
    attempts = get("keygen._attempt_pair", 0) + get("keygen._attempt_cluster", 0)
    pairs = get("census.census_pairs", 3) + get("census.census_progression", 3)
    values = dict(cli_times)
    for name in stats:
        values[f"{name}.calls"] = get(name, 0)
        values[f"{name}.self_s"] = get(name, 2)
    values.update({
        "keygen.attempts": attempts,
        "keygen.accept_ratio": _ratio(sum(get(g, 3) for g in generators), attempts),
        "numerics.is_probable_prime.prime_ratio": _ratio(get("numerics.is_probable_prime", 3),
                                                         get("numerics.is_probable_prime", 0)),
        "numerics.sieve_range.primes": get("numerics.sieve_range", 3),
        "shor_sim.recover_period.hit_ratio": _ratio(get("shor_sim.recover_period", 3),
                                                    get("shor_sim.recover_period", 0)),
        "census.pair_checks": counts["census._proximate"],
        "census.pairs_per_check": _ratio(pairs, counts["census._proximate"]),
        "trace.overhead": overhead,
    })
    return values
