"""Benchmark for quadft: one workload per run, checked, in reference seconds.

    python3 bench/run.py --workload absorbing|trees|cli --seed N --seconds S --trace 0|1

Run from anywhere; quadft is imported from the `src` directory next to this
one and nowhere else.  A run builds its inputs from the seed, measures set-up
(fresh interpreters importing quadft), runs one warm-up operation, then runs
whole cycles of the workload's operations in a closed loop with one client
until S seconds have passed, checking every output.  The last line of
standard output is a JSON object: `correct`, `attempted`, `failed` and the
metrics, end to end with --trace 0 and per layer with --trace 1.
See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

import clock
import workloads
from tracing import Tracer, parse_importtime, per_layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
SETUP_STARTS = 7
IMPORTTIME_STARTS = 3
CHILD_TIMEOUT_S = 60.0


def load_quadft():
    """Import quadft from SRC, refusing a copy installed anywhere else."""
    sys.path.insert(0, SRC)
    import quadft

    if os.path.dirname(os.path.abspath(quadft.__file__)) != os.path.join(SRC, "quadft"):
        raise ImportError(f"quadft was imported from {quadft.__file__}, not from {SRC}")
    return quadft


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def fresh_import(module: str, env: dict, flags=()) -> tuple[float, str]:
    """Seconds a fresh interpreter takes to import `module`, and its stderr."""
    code = (f"import time; t0 = time.perf_counter(); import {module}; "
            "t = time.perf_counter() - t0; import quadft; print(t); print(quadft.__file__)")
    proc = subprocess.run([sys.executable, *flags, "-c", code], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"fresh import of {module} failed: {proc.stderr.strip()}")
    seconds, path = proc.stdout.split()
    if os.path.dirname(path) != os.path.join(SRC, "quadft"):
        raise RuntimeError(f"fresh interpreter imported quadft from {path}")
    return float(seconds), proc.stderr


def fresh_starts(module: str, env: dict, count: int, flags=()) -> list:
    """(wall s, reference factor, stderr) of `count` fresh imports of
    `module`, after one uncounted start that fills the bytecode and file
    caches; timed against the process job."""
    normalizer = clock.Normalizer(process=True)
    fresh_import(module, env, flags)
    normalizer.factor()
    starts = []
    for _ in range(count):
        wall, stderr = fresh_import(module, env, flags)
        starts.append((wall, normalizer.factor(), stderr))
    return starts


def run_cycles(workload, seconds, run_op, normalizer, after_op=None):
    """Closed loop over whole cycles for about `seconds` of wall time: a new
    cycle starts only while at least half of one (at the mean cycle time so
    far) still fits before the deadline.

    Returns one (op name, wall s, reference s, error or None, problems) per
    operation."""
    done = []
    start = time.perf_counter()
    cycles = 0
    while True:
        elapsed = time.perf_counter() - start
        if cycles >= getattr(workload, "min_cycles", 1) and \
                elapsed + 0.5 * elapsed / max(cycles, 1) >= seconds:
            break
        for op in workload.cycle:
            t0 = time.perf_counter()
            try:
                out, error = run_op(op), None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, exc
            wall = time.perf_counter() - t0
            factor = normalizer.factor()
            if after_op is not None:
                after_op(factor)
            problems = [] if error else [f"{op.name}: {p}" for p in op.check(out)]
            done.append((op.name, wall, wall * factor, error, problems))
        cycles += 1
    return done


def warm_up(workload):
    """Uncounted operations before timing; the same operations run again in
    the timed cycles, where a failure or a wrong output is counted."""
    for op in workload.warmup:
        try:
            op.check(op.run())
        except Exception:  # noqa: BLE001 - counted when the cycle runs it
            pass


def report_failures(done):
    seen = set()
    for name, _, _, error, _ in done:
        if error is not None and name not in seen:
            seen.add(name)
            sys.stderr.write(f"failed operation {name}: {type(error).__name__}: {error}\n")


def _metric(value, unit):
    return {"value": value, "unit": unit}


def timed_run(workload, args, env):
    starts = fresh_starts(workload.setup_import, env, SETUP_STARTS)
    setup_norm = [wall * factor for wall, factor, _ in starts]
    setup_raw = [wall for wall, _, _ in starts]
    warm_up(workload)
    normalizer = clock.Normalizer(process=args.workload == "cli")
    done = run_cycles(workload, args.seconds, lambda op: op.run(), normalizer)
    ok = [d for d in done if d[3] is None]
    correct = [d for d in ok if not d[4]]
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0

    def figures(i, setup):
        total = sum(d[i] for d in done)
        return (len(correct) / total,
                statistics.median(d[i] for d in ok) if ok else 0.0,
                statistics.median(setup))

    ops_per_s, op_s_p50, setup_s = figures(2, setup_norm)
    raw = figures(1, setup_raw)
    print(f"{args.workload}: {len(done)} operations in {len(done) // len(workload.cycle)} cycles, "
          f"{len(done) - len(ok)} failed")
    print(f"raw wall-clock (not gated): ops_per_s {raw[0]!r} 1/s, op_s_p50 {raw[1]!r} s, "
          f"setup_s {raw[2]!r} s; reference job median "
          f"{statistics.median(normalizer.samples)!r} s (nominal {normalizer.nominal!r} s)")
    metrics = {
        "ops_per_s": _metric(ops_per_s, "1/s"),
        "op_s_p50": _metric(op_s_p50, "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    return done, metrics


def traced_run(workload, args, env):
    runs = [{k: v * factor for k, v in parse_importtime(stderr).items()}
            for _, factor, stderr in fresh_starts(workload.setup_import, env,
                                                  IMPORTTIME_STARTS, ("-X", "importtime"))]
    imports = {k: statistics.median(r[k] for r in runs) for k in runs[0]}
    warm_up(workload)
    tracer = Tracer()
    tracer.install()
    self_s = {}
    last = tracer.snapshot()

    def after_op(factor):
        nonlocal last
        now = tracer.snapshot()
        for key, value in now.items():
            self_s[key] = self_s.get(key, 0.0) + (value - last.get(key, 0.0)) * factor
        last = now

    if args.workload == "cli":
        run_op = lambda op: op.run_in_process(tracer)  # noqa: E731
    else:
        run_op = lambda op: op.run()  # noqa: E731
    try:
        done = run_cycles(workload, args.seconds, run_op, clock.Normalizer(), after_op)
    finally:
        tracer.uninstall()
    op_times = [d[2] for d in done if d[3] is None]
    values, bases = per_layer_metrics(tracer, len(done), self_s, op_times, imports)
    for name, count, what in bases:
        print(f"base of {name}: {count} {what}")
    if tracer.absent:
        print("absent (reported as 0): " + ", ".join(tracer.absent))
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"metrics": values, "bases": bases, "absent": tracer.absent,
                   "calls": dict(tracer.calls)}, fh, indent=1, sort_keys=True)
    return done, {k: _metric(v, u) for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("absorbing", "trees", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        qf = load_quadft()
    except ImportError as exc:
        sys.stderr.write(f"error: cannot import quadft from {SRC}: {exc}\n")
        return 2
    env = child_env()
    os.makedirs(OUT, exist_ok=True)
    rundir = os.path.join(OUT, f"run-{args.workload}-{os.getpid()}")
    os.makedirs(rundir)
    try:
        if args.workload == "cli":
            workload = workloads.Cli(qf, args.seed, rundir, env)
        else:
            workload = workloads.WORKLOADS[args.workload](qf, args.seed, rundir)
        run = traced_run if args.trace else timed_run
        done, metrics = run(workload, args, env)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)
    report_failures(done)
    problems = [p for d in done for p in d[4]]
    for p in problems[:20]:
        sys.stderr.write(f"incorrect: {p}\n")
    failed = sum(1 for d in done if d[3] is not None)
    print(json.dumps({"correct": not problems, "attempted": len(done), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
