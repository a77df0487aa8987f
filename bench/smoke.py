"""Smoke test of the benchmark itself, at toy size.

    python3 bench/smoke.py

Run from the root of a checkout; exits nonzero at the first broken
expectation. It checks that

1. every workload runs at toy size, untraced and traced, passes the
   correctness gate, and prints the same bytes traced and untraced;
2. a deliberately wrong reference value trips the gate;
3. the trace saw every draw: on mc_wide the draws of each Monte Carlo
   resolve equal 1 + expansions + iterations from its CSV meta, and
   ``models.sample_calls`` adds the two draws of ``check --clt``;
4. the runner exits nonzero, printing no result, in a directory that
   holds only the benchmark's own files.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys

import checks
import harness
import layertrace
import worker
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"smoke: FAILED {message}")
    print(f"smoke: ok {message}")


def run_worker(workload: str, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), "--workload",
         workload, "--seed", "7", "--seconds", "0", "--toy", *extra],
        stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def toy_runs() -> None:
    for workload in workloads.WORKLOADS:
        plain = run_worker(workload)
        traced = run_worker(workload, "--trace")
        expect(plain["failed"] == 0 and traced["failed"] == 0,
               f"{workload} toy run passes the gate "
               f"{plain['failures'] + traced['failures']}")
        expect(plain["digests"] == traced["digests"],
               f"{workload} stdout identical traced and untraced")


def wrong_reference(cli) -> None:
    checker = checks.Checker()
    entries = workloads.load_reference()["entries"]
    for rule in ("ref", "exact", "text"):
        entry = next(e for e in entries if e["check"] == rule)
        query = workloads.Query(tuple(entry["argv"]), rule, entry["expect"])
        outcome = harness.run_cli(cli, query.argv)
        expect(checker.check(query, outcome)[0] == "ok",
               f"{rule} query passes against its reference")
        bad = copy.deepcopy(query.expect)
        if rule == "text":
            bad["text"] = bad["text"].replace("0", "1", 1)
        else:
            record = bad["records"][0]
            key = next(k for k, v in record.items()
                       if isinstance(v, float) and v != 0.0 and k != "d")
            record[key] *= 1.0 + 1e-5
        wrong = workloads.Query(query.argv, query.check, bad)
        expect(checker.check(wrong, outcome)[0] == "failed",
               f"a wrong {rule} reference trips the gate")
    sweep = workloads.sweep_narrow(7, toy=True)[0]
    outcome = harness.run_cli(cli, sweep.argv)
    saved = checks.SLOPE_TARGETS["fwhm"]["hg"]
    checks.SLOPE_TARGETS["fwhm"]["hg"] = saved + 0.5
    try:
        expect(checker.check(sweep, outcome)[0] == "failed",
               "a wrong exponent target trips the gate")
    finally:
        checks.SLOPE_TARGETS["fwhm"]["hg"] = saved


def trace_counts(cli) -> None:
    queries = workloads.mc_wide(7, toy=True)
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        _, first, _ = worker.run_passes(cli, queries, 0.0, 1, tracer)
    finally:
        tracer.uninstall()
    expect(not worker.cross_check(tracer, queries, first),
           "trace saw 1 + expansions + iterations draws per mc resolve")
    want = 0
    for query, outcome in zip(queries, first):
        if query.check == "mc_resolve":
            meta, _ = harness.parse_output(outcome.stdout)
            want += 1 + int(meta["expansions"]) + int(meta["iterations"])
    calls = tracer.layer_metrics()["models.sample_calls"][0]
    expect(calls == want + 2,
           f"models.sample_calls {calls} = resolve draws {want} + 2 clt")


def empty_directory() -> None:
    root = os.path.join(harness.ROOT, ".bench_build", "smoke-empty")
    shutil.rmtree(root, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(root, os.path.basename(HERE)),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(harness.ROOT, "BENCHMARK.json"), root)
    proc = subprocess.run(
        [sys.executable, os.path.join(os.path.basename(HERE), "run.py"),
         "--workload", "exact_grid", "--seed", "1", "--seconds", "1",
         "--trace", "0"], cwd=root, capture_output=True, text=True,
        timeout=180, check=False)
    shutil.rmtree(root, ignore_errors=True)
    expect(proc.returncode != 0 and proc.stdout == "",
           f"without sources the runner exits {proc.returncode} "
           f"and prints no result")


def main() -> int:
    cli = harness.import_cli()
    toy_runs()
    wrong_reference(cli)
    trace_counts(cli)
    empty_directory()
    print("smoke: all passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
