"""Worker interpreter for the benchmark's in-process operations.

Started by run.py with PYTHONPATH pointing at the checkout's src/. It
imports proxrsa, reports ready, then answers one JSON request per stdin
line with one JSON line on stdout. Requests:

  lifecycle      generate a key, validate it, compute both analysis reports
  validate_file  validate_key() on a key file
  trace          run CLI argv lists through proxrsa.cli.main, once untraced
                 and then under the span recorder
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import time
from fractions import Fraction

import mpmath
import numpy

import proxrsa
from proxrsa import analysis, cli, keyfile, validate
from proxrsa.keygen import KeyGenParams, generate_compatible, generate_keypair, generate_multiprime

import tracing


def lifecycle(spec: dict, seed_hex: str) -> dict:
    t0 = time.perf_counter()
    params = KeyGenParams(k=spec["k"], seed=bytes.fromhex(seed_hex), gamma=Fraction(1, 4))
    if spec["kind"] == "standard":
        kp = generate_keypair(params)
    elif spec["kind"] == "multi":
        kp = generate_multiprime(params, spec["m"])
    else:
        kp = generate_compatible(params, spec["shift"])
    failures = validate.validate_key(kp)
    if kp.inner_primes:
        pair = kp.inner_primes
    elif len(kp.primes) == 2:
        pair = kp.primes
    else:
        pair = cli._closest_pair(kp.primes)
    analysis.complexity_report(pair[0], pair[1], params.gamma, k=params.k)
    analysis.classical_report(kp, 1_000_000)
    wall = time.perf_counter() - t0
    doc = keyfile.document_to_bytes(keyfile.keypair_to_document(kp)).decode("utf-8")
    return {"wall": wall, "failures": failures, "doc": doc}


def run_cli(argv: list[str]) -> tuple[int, float]:
    sink = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        rc = cli.main(argv)
    return rc, time.perf_counter() - t0


def trace(rounds: list[list[list[str]]], probe: list[list[str]], spans_path: str) -> dict:
    """The probe untraced, to pay one-time costs; then each round untraced
    and at once again traced, so that the host's speed changes fall on
    both alike; then the probe traced."""
    recorder = tracing.Recorder()
    swaps = tracing.wrappers(recorder)

    def run_traced(argvs):
        tracing.switch(swaps, True)
        results = []
        for argv in argvs:
            recorder.op += 1
            results.append(run_cli(argv))
        tracing.switch(swaps, False)
        return results

    warmup = [run_cli(argv) for argv in probe]
    untraced, traced = [], []
    for argvs in rounds:
        untraced += [run_cli(argv) for argv in argvs]
        traced += run_traced(argvs)
    traced += run_traced(probe)
    recorder.write_spans(spans_path)
    return {
        "untraced_s": sum(w for _, w in untraced),
        "traced_s": sum(w for _, w in traced[: len(untraced)]),
        "untraced_rcs": [rc for rc, _ in warmup + untraced],
        "rcs": [rc for rc, _ in traced],
        "stats": recorder.stats,
        "counts": recorder.counts,
        "spans_kept": len(recorder.spans),
        "spans_dropped": recorder.dropped,
    }


def main() -> None:
    out = sys.stdout
    out.write(json.dumps({
        "ready": True,
        "proxrsa": proxrsa.__file__,
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
    }) + "\n")
    out.flush()
    for line in sys.stdin:
        req = json.loads(line)
        op = req["op"]
        if op == "exit":
            break
        try:
            if op == "lifecycle":
                reply = lifecycle(req["spec"], req["seed"])
            elif op == "validate_file":
                reply = {"failures": validate.validate_key(keyfile.read_key_file(req["path"]))}
            elif op == "trace":
                reply = trace(req["rounds"], req["probe"], req["spans"])
            else:
                reply = {"error": f"unknown op {op!r}"}
        except Exception as exc:  # reported to run.py as a failed operation
            reply = {"error": f"{type(exc).__name__}: {exc}"}
        out.write(json.dumps(reply) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
