"""Benchmark of the statres command line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; NAME is ``mc_wide``, ``sweep_narrow``,
``exact_grid`` or ``all``. The workload's query list (see
``workloads.py``) runs through ``statres.cli.main`` in one worker process
per measurement, so peak memory and CPU time are the workload's own.

``--trace 0`` times the list in passes for ``--seconds`` seconds (at
least one pass) and reports the end-to-end metrics: ``wall_s`` and
``cpu_s``, the sums over the list of each query's median latency and CPU
time; ``peak_rss_mb`` of the worker; and ``setup_s``, the median time from
starting a fresh interpreter to a built ``statres`` parser. It also prints
the per-query latency median and tail. ``--trace 1`` runs the list once
untraced and once under the layer trace (``layertrace.py``) in two
processes, requires both to print the same bytes for every query, and
reports the per-layer metrics plus ``trace.overhead_s``.

Every query's output is checked (``checks.py``); the last stdout line is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. The lines before it print each metric with its unit and
sample count, the tail percentile where at least ten samples lie beyond
it, the failure fraction and the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

import harness

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("mc_wide", "sweep_narrow", "exact_grid")

SETUP_SAMPLES = 3
TIME_LIMIT = 170.0
PROBE = ("import sys; sys.path.insert(0, 'src'); import statres.cli; "
         "statres.cli.build_parser(); print('ready', flush=True)")


class BenchError(Exception):
    """The benchmark itself could not produce a result."""


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        left = self.end - time.monotonic()
        if left <= 0.0:
            raise BenchError("time limit reached")
        return left


def run_worker(deadline: Deadline, workload: str, seed: int, seconds: float,
               trace: bool = False, passes: int | None = None) -> dict:
    cmd = [sys.executable, WORKER, "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds)]
    if passes is not None:
        cmd += ["--passes", str(passes)]
    if trace:
        cmd.append("--trace")
    # one BLAS thread: idle OpenBLAS threads spin, and on a shared machine
    # that turns other tenants' load into noise in every timing
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              env=env, timeout=deadline.left(), check=False)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker for {workload} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker for {workload} exited {proc.returncode}")
    return json.loads(lines[-1])


def setup_seconds(deadline: Deadline) -> float:
    """Fresh interpreter to a built parser, as the parent sees it."""
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE],
                          stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=deadline.left())
        except (subprocess.TimeoutExpired, BenchError) as exc:
            proc.kill()
            proc.wait()
            raise BenchError("setup probe timed out") from exc
    if line.strip() != "ready" or proc.returncode != 0:
        raise BenchError(f"setup probe exited {proc.returncode}")
    return elapsed


def git_sha():
    try:
        top = subprocess.run(["git", "-C", harness.ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or \
            os.path.realpath(lines[0]) != os.path.realpath(harness.ROOT):
        return None
    return lines[1]


def tail(values: list[float]) -> tuple[str, float] | None:
    """Highest of p99.9, p99, p90 with at least ten samples beyond it."""
    ordered = sorted(values)
    for label, q in (("p999", 0.999), ("p99", 0.99), ("p90", 0.9)):
        if len(ordered) * (1.0 - q) >= 10:
            return label, ordered[math.ceil(q * len(ordered)) - 1]
    return None


def median_sum(passes: list, key: str) -> float:
    """Sum over the list of each query's median over the passes.

    A slow spell of the machine during one pass moves this less than it
    moves that pass's total.
    """
    return sum(statistics.median(q) for q in zip(*(p[key] for p in passes)))


def end_to_end(deadline: Deadline, args, workload: str, lines: list) -> tuple:
    result = run_worker(deadline, workload, args.seed, args.seconds)
    setup = [setup_seconds(deadline) for _ in range(SETUP_SAMPLES)]
    passes = result["passes"]
    latencies = [s for p in passes for s in p["latencies"]]
    metrics = {
        "wall_s": (median_sum(passes, "latencies"), "s"),
        "cpu_s": (median_sum(passes, "cpu"), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MiB"),
        "setup_s": (statistics.median(setup), "s"),
    }
    samples = {"wall_s": f"sum of per-query medians over {len(passes)} "
                         f"passes",
               "cpu_s": f"user+system, sum of per-query medians over "
                        f"{len(passes)} passes",
               "peak_rss_mb": "ru_maxrss of the workload process",
               "setup_s": f"median of {len(setup)} fresh interpreters"}
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<16} {value:14.6f} {unit:<5} "
                     f"({samples[name]})")
    # printed, not in the result: per-query latency follows the bisection
    # step count of single solves, which varies too much between seeds for
    # a regression bound on the Monte Carlo workloads
    high = tail(latencies)
    for label, value in [("p50", statistics.median(latencies))] + \
            ([high] if high else []):
        lines.append(f"  query_s_{label:<8} {value:14.6f} s     "
                     f"(n={len(latencies)} query runs)")
    changed, total = result["reference"]
    against = (f"; stdout of {changed} of {total} queries differs from the "
               f"reference commit's" if total else "")
    lines.append(f"  stdout_sha256    {digest(result['digests'])} "
                 f"(all queries{against})")
    return result, metrics, set()


def traced(deadline: Deadline, args, workload: str, lines: list) -> tuple:
    plain = run_worker(deadline, workload, args.seed, args.seconds, passes=1)
    result = run_worker(deadline, workload, args.seed, args.seconds,
                        trace=True, passes=1)
    differ = {text for text, a, b in zip(plain["queries"], plain["digests"],
                                         result["digests"]) if a != b}
    metrics = {k: tuple(v) for k, v in result["layers"].items()}
    metrics["cli.output_bytes"] = (float(result["output_bytes"]), "bytes")
    metrics["trace.overhead_s"] = (result["passes"][0]["wall_s"]
                                   - plain["passes"][0]["wall_s"], "s")
    for name, (value, unit) in metrics.items():
        lines.append(f"  {name:<28} {value:18.6f} {unit}")
    lines.append(f"  traced stdout identical to untraced for "
                 f"{len(plain['digests']) - len(differ)} of "
                 f"{len(plain['digests'])} queries")
    result["failures"] = plain["failures"] + result["failures"]
    result["known"] = plain["known"]
    result["known_defects"] = plain["known_defects"]
    return result, metrics, differ


def digest(digests: list[str]) -> str:
    return hashlib.sha256("".join(digests).encode()).hexdigest()


def run_one(deadline: Deadline, args, workload: str) -> dict:
    lines = [f"statres-bench workload={workload} seed={args.seed} "
             f"trace={args.trace} seconds={args.seconds}"]
    measure = traced if args.trace else end_to_end
    result, metrics, bad = measure(deadline, args, workload, lines)
    # a query counts once however many checks it fails
    bad |= {f["query"] for f in result["failures"]}
    attempted = result["attempted"]
    lines.append(f"  ops_failed_frac  {len(bad) / attempted:14.6f}       "
                 f"({len(bad)} failed of {attempted} attempted; "
                 f"{result['known_defects']} known defect)")
    for f in result["failures"]:
        lines.append(f"  FAILED {f['query']}: {f['message']}")
    for f in result["known"]:
        lines.append(f"  known defect (counted apart from failures): "
                     f"{f['query']}: {f['message']}")
    env = dict(result["env"], git_sha=git_sha(), workload=workload,
               seed=args.seed)
    lines.append("  env " + json.dumps(env, sort_keys=True))
    print("\n".join(lines), flush=True)
    return {"correct": not bad, "attempted": attempted, "failed": len(bad),
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="statres benchmark (run from a checkout's root)")
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not harness.sources_present():
        print(f"error: no statres sources under {harness.SRC}; run from "
              f"the root of a checkout", file=sys.stderr)
        return 2
    # on SIGTERM, unwind so that subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    deadline = Deadline(TIME_LIMIT * len(names))
    try:
        results = {name: run_one(deadline, args, name) for name in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        summary = results[names[0]]
    else:
        summary = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{k}": v for name, r in results.items()
                        for k, v in r["metrics"].items()}}
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
