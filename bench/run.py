#!/usr/bin/env python3
"""proxrsa benchmark.

    python3 bench/run.py --workload {keys,shor,census} --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is taken from its src/.
The load is a closed loop: one client, one operation in flight. CLI
operations are fresh `python -m proxrsa` processes, so interpreter start
and import are included as users pay them; in-process operations run in
one worker interpreter (worker.py).

The host's speed swings by up to 1.8x for seconds to minutes at a time,
so a timed run also times two fixed reference operations (References),
in turn, before the first set-up and after each set-up and operation: a
fresh interpreter importing numpy, and a pure-Python loop. The timing
metrics are normalised: every wall time of the run is scaled by REF_S
over the geometric mean of the two references' medians over the run.
Single operations are not normalised one by one, since a single
reference time is itself noisy. Raw wall times and the scale are kept in
the run record.

--trace 0 prints the end-to-end metrics listed in BENCHMARK.json; --trace 1
runs a fixed number of the same rounds (TRACE_ROUNDS, whatever --seconds
says) through proxrsa.cli.main in the worker, under the span recorder of
tracing.py, and prints the per-layer metrics. The last
line of stdout is the result; the line before it is the run record
(versions, machine, per-operation timings), also written under
.bench_out/. Outputs are checked (checks.py) and every problem counts as a
failed operation. Exit status is 0 when a result was printed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata

import checks
import inputs

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 9
# Rounds a timed run makes at least, so that each command is called ten
# times or more (a keys round calls each command three times).
MIN_ROUNDS = {"keys": 4, "shor": 10, "census": 10}
START_REPEATS = 5
LAST_START_S = 135  # no operation starts later than this into the run
HARD_LIMIT_S = 150  # no operation runs past this; checks and exit follow
OP_TIMEOUT_S = {"keys": 30, "shor": 60, "census": 60}
# Rounds of a traced run: fixed, so that its counts and self times are
# the same amount of work on every commit and host.
TRACE_ROUNDS = {"keys": 20, "shor": 4, "census": 10}
KEY_CLASSES = {name for name, _, _ in inputs.KEY_VARIANTS}
# The workloads' operations are interpreter starts that import numpy
# (about 0.25 s of each CLI call) followed by pure-Python work, and the
# host slows the two apart: over one hour the import grew 22-40% slower
# while the loop held within 10%. So the reference has one part of each.
REF_KINDS = ("import", "loop")
# Starts and times the numpy imports. They are its children, not this
# process's, so their memory stays out of peak_rss_mb, which is read
# before the helper ends.
REF_HELPER = """
import subprocess, sys, time
for _ in sys.stdin:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=30)
    print(time.perf_counter() - t0, flush=True)
"""
REF_LOOPS = 200_000  # iterations of the reference loop
REF_S = 0.1  # nominal reference time; about what it takes on a quiet 2-vCPU Xeon VM


class BenchError(Exception):
    pass


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


class Clock:
    def __init__(self) -> None:
        self.start = time.perf_counter()

    def elapsed(self) -> float:
        return time.perf_counter() - self.start

    def timeout(self, limit: float) -> float:
        return max(1.0, min(limit, HARD_LIMIT_S - self.elapsed()))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    return env


def run_process(argv: list[str], timeout: float) -> dict:
    """Run argv to completion; on timeout kill its process group."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"rc": None, "wall": time.perf_counter() - t0, "out": "", "err": f"timed out after {timeout:.0f} s"}
    return {"rc": proc.returncode, "wall": time.perf_counter() - t0, "out": out, "err": err}


class Worker:
    """worker.py in its own interpreter, one JSON request per line."""

    def __init__(self, clock: Clock) -> None:
        self.proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "worker.py")], cwd=ROOT,
                                     env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)
        self.info = self._read(clock.timeout(60))
        expected = os.path.join(SRC, "proxrsa", "__init__.py")
        if os.path.realpath(self.info.get("proxrsa", "")) != os.path.realpath(expected):
            self.close()
            raise BenchError(f"worker imported proxrsa from {self.info.get('proxrsa')}, not {expected}")

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close(kill=True)
            raise BenchError(f"worker exited or gave no reply within {timeout:.0f} s")
        return json.loads(line)

    def call(self, request: dict, timeout: float) -> dict:
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        return self._read(timeout)

    def close(self, kill: bool = False) -> None:
        if kill and self.proc.poll() is None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
                self.proc.stdin.close()
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                pipe.close()


class References:
    """Times the reference operations, taking REF_KINDS in turn: the
    host's speed at the moment, untouched by the program under test."""

    def __init__(self) -> None:
        self.times: dict[str, list[float]] = {kind: [] for kind in REF_KINDS}
        self.kinds = itertools.cycle(REF_KINDS)
        self.proc = subprocess.Popen([sys.executable, "-c", REF_HELPER], cwd=ROOT, stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True, start_new_session=True)

    def sample(self) -> None:
        kind = next(self.kinds)
        self.times[kind].append(self.measure(kind))

    def measure(self, kind: str) -> float:
        if kind == "import":
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            ready, _, _ = select.select([self.proc.stdout], [], [], 60)
            line = self.proc.stdout.readline() if ready else ""
            if not line:
                raise BenchError("the reference helper exited or gave no reply within 60 s")
            return float(line)
        t0 = time.perf_counter()
        table: dict[int, int] = {}
        acc = 0
        for i in range(REF_LOOPS):
            acc = (acc * 31 + i) % 1_000_003
            table[i & 1023] = acc
            if acc & 1:
                acc += len(table)
        return time.perf_counter() - t0

    def close(self) -> None:
        try:
            self.proc.stdin.close()
            self.proc.wait(timeout=40)
        except (OSError, subprocess.TimeoutExpired):
            os.killpg(self.proc.pid, signal.SIGKILL)
            self.proc.wait()
        self.proc.stdout.close()


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


# --- running steps ------------------------------------------------------------

def run_step(step: dict, workload: str, worker: Worker, clock: Clock) -> dict:
    result = {"cls": step["cls"], "kind": step["kind"], "problems": []}
    if step["kind"] == "lifecycle":
        reply = worker.call({"op": "lifecycle", "spec": step["spec"], "seed": step["seed"]},
                            clock.timeout(OP_TIMEOUT_S[workload]))
        if "error" in reply:
            result.update(wall=None, problems=[reply["error"]])
        else:
            result.update(wall=reply["wall"], doc=reply["doc"],
                          problems=[f"validate_key: {f}" for f in reply["failures"]])
        return result
    proc = run_process([sys.executable, "-m", "proxrsa", *step["argv"]], clock.timeout(OP_TIMEOUT_S[workload]))
    result.update(wall=proc["wall"], out=proc["out"])
    if proc["rc"] != 0:
        result["problems"].append(f"exit {proc['rc']}: {proc['err'].strip()[-300:]}")
    return result


def check_step(step: dict, result: dict, checker: checks.Checker, worker: Worker, clock: Clock,
               docs: dict) -> None:
    """Untimed output checks; appends to result['problems']."""
    if result["problems"] or step["kind"] != "cli":
        return
    c = step["check"]
    try:
        if "key" in c:
            reply = worker.call({"op": "validate_file", "path": c["key"]}, clock.timeout(30))
            result["problems"] += [f"validate_key: {f}" for f in reply.get("failures", [reply.get("error")])]
            if "index" in c:
                with open(c["key"], encoding="utf-8") as fh:
                    if c["index"] in docs and fh.read() != docs[c["index"]]:
                        result["problems"].append("CLI key file differs from the in-process key")
                want = checker.key_ref(c["index"])
                if want is not None and checks.sha256_file(c["key"]) != want:
                    result["problems"].append("key file SHA-256 differs from the recorded reference")
        elif step["cls"] == "verify":
            if result["out"] is not None and not result["out"].startswith("ok:"):
                result["problems"].append("verify did not report ok")
        elif "report" in c:
            with open(c["report"], encoding="utf-8") as fh:
                doc = json.load(fh)
            if set(doc) != {"keyfile", "variant", "quantum", "classical"}:
                result["problems"].append("analyze report has unexpected fields")
        elif "csv" in c:
            result["problems"] += checker.shor(c["csv"], c["bits"], c["pairs"], c["gamma"], c.get("ref"))
        elif "census" in c:
            result["problems"] += checker.census(c["census"], c["lo"], c["hi"], c["gamma"], c.get("classes"))
    except (OSError, ValueError, KeyError, BenchError) as exc:
        result["problems"].append(f"check failed: {type(exc).__name__}: {exc}")


# --- the two kinds of run -------------------------------------------------------

def timed_run(args, workdir: str, clock: Clock) -> tuple[dict, dict]:
    refs = References()
    try:
        return measure_run(args, workdir, clock, refs)
    finally:
        refs.close()


def measure_run(args, workdir: str, clock: Clock, refs: References) -> tuple[dict, dict]:
    setups = []
    worker = None
    for kind in REF_KINDS:
        refs.measure(kind)  # warm-up, discarded
        refs.sample()
    for _ in range(SETUP_REPEATS):
        if worker is not None:
            worker.close()
        t0 = time.perf_counter()
        worker = Worker(clock)
        inputs.round_steps(args.workload, args.seed, 0, workdir)
        setups.append(time.perf_counter() - t0)
        refs.sample()
    checker = checks.Checker(args.seed)
    try:
        # round_lengths include the reference operations; round_walls do not
        done, round_lengths, round_walls = [], [], []
        loop_start = time.perf_counter()
        for r in itertools.count():
            elapsed = time.perf_counter() - loop_start
            if len(round_lengths) >= MIN_ROUNDS[args.workload] and elapsed + statistics.fmean(round_lengths) > args.seconds:
                break
            if clock.elapsed() > LAST_START_S:
                break
            t0 = time.perf_counter()
            wall = 0.0
            for step in inputs.round_steps(args.workload, args.seed, r, workdir):
                try:
                    result = run_step(step, args.workload, worker, clock)
                except BenchError as exc:  # the worker was killed; carry on with a new one
                    result = {"cls": step["cls"], "kind": step["kind"], "wall": None, "problems": [str(exc)]}
                    worker = Worker(clock)
                refs.sample()
                if result["wall"] is not None:
                    wall += result["wall"]
                done.append((step, result))
            round_lengths.append(time.perf_counter() - t0)
            round_walls.append(wall)
        docs = {step["index"]: res["doc"] for step, res in done if "doc" in res}
        for step, res in done:
            check_step(step, res, checker, worker, clock, docs)
    finally:
        worker.close()
    # The worker has been waited for and the reference helper not yet.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    results = [res for _, res in done]
    failed = sum(1 for res in results if res["problems"])
    scale = REF_S / statistics.geometric_mean(statistics.median(times) for times in refs.times.values())
    for res in results:
        if res["wall"] is not None:
            res["norm"] = res["wall"] * scale
    norm_p50, norm_p90 = command_times(results, "norm")
    wall_p50, wall_p90 = command_times(results, "wall")
    values = {
        "norm_cmd_s.p50": norm_p50,
        "norm_round_s": statistics.median(round_walls) * scale,
        "setup_s": statistics.median(setups) * scale,
        "peak_rss_mb": peak_rss_mb,
        "ok_rate": (len(results) - failed) / len(results),
    }
    record = {
        "rounds": len(round_walls),
        "round_walls_s": round_walls,
        "setup_walls_s": setups,
        "reference_s": refs.times,
        "scale": scale,
        # Not in BENCHMARK.json: raw wall times, and p90, which has fewer
        # than ten calls beyond it.
        "unbounded": {
            "cmd_s.p50": wall_p50,
            "cmd_s.p90": wall_p90,
            "norm_cmd_s.p90": norm_p90,
            "round_s": statistics.median(round_walls),
            "setup_wall_s": statistics.median(setups),
        },
        "operations": per_operation(results, "wall"),
        "normalised": per_operation(results, "norm"),
        "failures": [{"op": res["cls"], "problems": res["problems"]} for res in results if res["problems"]],
        "worker": worker.info,
    }
    return {"attempted": len(results), "failed": failed, "values": values}, record


def command_times(results: list[dict], key: str) -> tuple[float, float]:
    """p50 and p90 of one CLI call: per command (keygen variants pooled),
    then the geometric mean over commands, so each command weighs the same."""
    commands: dict[str, list[float]] = {}
    for res in results:
        if res["kind"] == "cli" and res.get(key) is not None:
            commands.setdefault(command(res["cls"]), []).append(res[key])
    return (statistics.geometric_mean(statistics.median(w) for w in commands.values()),
            statistics.geometric_mean(percentile(w, 90) for w in commands.values()))


def command(cls: str) -> str:
    """The command an operation class belongs to; keygen variants are one."""
    return "keygen" if cls in KEY_CLASSES else cls


def per_operation(results: list[dict], key: str) -> dict:
    """Timings per operation class, and the per-command metrics they give;
    key is "wall" for raw wall times or "norm" for normalised ones."""
    groups: dict[str, list[float]] = {}
    for res in results:
        if res.get(key) is not None:
            groups.setdefault(res["cls"], []).append(res[key])
    classes = {name: {"calls": len(walls), "p50_s": statistics.median(walls), "p90_s": percentile(walls, 90),
                      "total_s": sum(walls)} for name, walls in sorted(groups.items())}
    named = {}
    keygen = [w for name in KEY_CLASSES for w in groups.get(name, [])]
    for name, walls in (("keygen_cli_s", keygen), ("verify_cli_s", groups.get("verify")),
                        ("analyze_cli_s", groups.get("analyze"))):
        if walls:
            named.update({f"{name}.p50": statistics.median(walls), f"{name}.p90": percentile(walls, 90)})
    if "lifecycle" in classes:
        named["keys_per_s"] = classes["lifecycle"]["calls"] / classes["lifecycle"]["total_s"]
    for cls in ("shor_compare_12", "shor_compare_16", "census_plain", "census_progression"):
        if cls in classes:
            named[f"{cls}_s"] = classes[cls]["p50_s"]
    return {"classes": classes, "named": named}


def traced_run(args, workdir: str, clock: Clock) -> tuple[dict, dict]:
    import tracing

    starts = [run_process([sys.executable, "-c", "pass"], 30)["wall"] for _ in range(START_REPEATS)]
    imports = [run_process([sys.executable, "-c", "import proxrsa.cli"], 30) for _ in range(START_REPEATS)]
    if any(p["rc"] != 0 for p in imports):
        raise BenchError(f"import proxrsa.cli failed: {imports[0]['err'].strip()[-300:]}")
    interp = statistics.median(starts)
    cli_times = {"cli.interp_start_s": interp,
                 "cli.import_s": statistics.median(p["wall"] for p in imports) - interp}

    rounds = [[s for s in inputs.round_steps(args.workload, args.seed, r, workdir) if s["kind"] == "cli"]
              for r in range(TRACE_ROUNDS[args.workload])]
    probe = inputs.probe_steps(workdir)
    spans_path = os.path.join(ROOT, ".bench_out", f"spans-{args.workload}-seed{args.seed}.jsonl")
    worker = Worker(clock)
    checker = checks.Checker(args.seed)
    try:
        reply = worker.call({"op": "trace", "rounds": [[s["argv"] for s in steps] for steps in rounds],
                             "probe": [s["argv"] for s in probe], "spans": spans_path},
                            clock.timeout(HARD_LIMIT_S))
        if "error" in reply:
            raise BenchError(f"traced run failed: {reply['error']}")
        steps = [s for steps in rounds for s in steps] + probe
        results = []
        for step, rc in zip(steps, reply["rcs"]):
            res = {"cls": step["cls"], "kind": "cli", "wall": None, "out": None,
                   "problems": [] if rc == 0 else [f"exit {rc}"]}
            check_step(step, res, checker, worker, clock, {})
            results.append(res)
    finally:
        worker.close()
    overhead = reply["traced_s"] / reply["untraced_s"] - 1
    values = tracing.layer_metrics(reply["stats"], reply["counts"], cli_times, overhead)
    untraced_failed = sum(1 for rc in reply["untraced_rcs"] if rc)
    failed = sum(1 for res in results if res["problems"]) + untraced_failed
    record = {
        "rounds": len(rounds),
        "untraced_s": reply["untraced_s"],
        "traced_s": reply["traced_s"],
        "spans_file": os.path.relpath(spans_path, ROOT),
        "spans_kept": reply["spans_kept"],
        "spans_dropped": reply["spans_dropped"],
        "stats": reply["stats"],
        "counts": reply["counts"],
        "failures": [{"op": res["cls"], "problems": res["problems"]} for res in results if res["problems"]],
        "worker": worker.info,
    }
    return {"attempted": len(results) + len(reply["untraced_rcs"]), "failed": failed, "values": values}, record


# --- result ---------------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "mpmath": metadata.version("mpmath"),
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "git_sha": sha,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(SRC, "proxrsa", "__init__.py")):
        fail(f"no proxrsa sources under {SRC}; run from a checkout of the repository")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    clock = Clock()
    workdir = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    try:
        run = traced_run if args.trace else timed_run
        outcome, record = run(args, workdir, clock)
    except BenchError as exc:
        fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in outcome["values"]]
    if missing:
        fail(f"metrics not measured: {missing}")
    metrics = {m["name"]: {"value": outcome["values"][m["name"]], "unit": m["unit"]} for m in listed}
    record.update(workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                  machine=machine(), left_out=inputs.LEFT_OUT, wall_s=clock.elapsed(), metrics=metrics)
    record_path = os.path.join(ROOT, ".bench_out", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    print(json.dumps({"correct": outcome["failed"] == 0, "attempted": outcome["attempted"],
                      "failed": outcome["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
