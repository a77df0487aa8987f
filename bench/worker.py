"""Run one workload's query list in a fresh interpreter and report on it.

    python3 bench/worker.py --workload NAME --seed N --seconds S
                            [--passes K] [--trace] [--toy]

Runs the list in passes for ``--seconds`` seconds (at least one pass, at
most ``--passes``; no pass starts that would end past the window, by the
last pass's time), then checks the outputs outside the timed
region and prints one JSON object as its last stdout line. With
``--trace`` the layer trace is installed before the first query and the
object carries per-layer metrics; the caller checks that run by comparing
its outputs with an untraced run's.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import sys
import time

import checks
import harness
import layertrace
import workloads

SPAN_DIR = os.path.join(harness.ROOT, ".bench_build", "statres-bench")


def blas_threads():
    """OpenBLAS thread count of the loaded numpy, or None if unknown."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            func = getattr(lib, symbol, None)
            if func is not None:
                func.restype = ctypes.c_int
                return func()
    return None


def environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads(),
            "nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "source_sha256": harness.source_digest()}


def run_passes(cli, queries, seconds: float, max_passes: int, tracer=None):
    """Timed passes over the list.

    Returns the per-pass timings, the first pass's outcomes and the ids of
    queries whose output changed between passes.
    """
    passes, first, unstable = [], None, set()
    start = time.perf_counter()
    while True:
        wall0 = time.perf_counter()
        outcomes = []
        for qid, query in enumerate(queries):
            if tracer is not None:
                tracer.query = qid
            outcomes.append(harness.run_cli(cli, query.argv))
        passes.append({"wall_s": time.perf_counter() - wall0,
                       "latencies": [o.seconds for o in outcomes],
                       "cpu": [o.cpu_seconds for o in outcomes]})
        if first is None:
            first = outcomes
        else:
            unstable.update(i for i, o in enumerate(outcomes)
                            if o.stdout != first[i].stdout)
        # start another pass only if it should end inside the window
        elapsed = time.perf_counter() - start
        if len(passes) >= max_passes or \
                elapsed + passes[-1]["wall_s"] > seconds:
            return passes, first, unstable


def threads_check(cli, queries, first) -> dict:
    """A simulate sweep must print the same records at --threads 2.

    Only the ``# threads = ...`` meta line, which echoes the option, may
    differ.
    """
    if len(os.sched_getaffinity(0)) < 2:
        return {}
    qid = next(i for i, q in enumerate(queries)
               if "--sweep" in q.argv and "n" in q.argv)
    argv = list(queries[qid].argv)
    argv[argv.index("--threads") + 1] = "2"
    outcome = harness.run_cli(cli, argv)

    def strip(text):
        return [line for line in text.splitlines()
                if not line.startswith("# threads = ")]

    if outcome.code != 0 or strip(outcome.stdout) != strip(first[qid].stdout):
        return {qid: "stdout differs between --threads 1 and --threads 2"}
    return {}


def cross_check(tracer, queries, first) -> dict:
    """The wrappers must see every draw of a Monte Carlo resolve.

    With the analytic threshold each bracket expansion and bisection step
    draws once, after one initial draw.
    """
    calls = tracer.sample_calls_by_query()
    failures = {}
    for qid, query in enumerate(queries):
        if query.check != "mc_resolve":
            continue
        try:
            meta, _ = harness.parse_output(first[qid].stdout)
            want = 1 + int(meta["expansions"]) + int(meta["iterations"])
        except (KeyError, ValueError) as exc:
            failures[qid] = f"no draw count in the meta: {exc!r}"
            continue
        if calls.get(qid, 0) != want:
            failures[qid] = (f"trace saw {calls.get(qid, 0)} draws, "
                             f"meta implies {want}")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--passes", type=int, default=1000)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--toy", action="store_true")
    args = parser.parse_args(argv)

    # the seed of every query is on its command line
    os.environ.pop("STATRES_SEED", None)
    cli = harness.import_cli()
    queries = workloads.build(args.workload, args.seed, args.toy)
    tracer = None
    if args.trace:
        tracer = layertrace.Tracer()
        tracer.install()
    passes, first, unstable = run_passes(cli, queries, args.seconds,
                                         args.passes, tracer)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures = {qid: "stdout differs between passes" for qid in unstable}
    known = {}
    result = {"workload": args.workload, "seed": args.seed,
              "toy": args.toy, "queries": [q.text for q in queries],
              "passes": passes,
              "peak_rss_mb": peak_rss_mb,
              "digests": [o.digest for o in first],
              "output_bytes": sum(len(o.stdout.encode()) for o in first)}
    if tracer is not None:
        tracer.uninstall()
        failures.update(cross_check(tracer, queries, first))
        result["layers"] = tracer.layer_metrics()
        tracer.write(os.path.join(SPAN_DIR, f"spans-{args.workload}.csv.gz"))
    else:
        checker = checks.Checker()
        for qid, (query, outcome) in enumerate(zip(queries, first)):
            status, message = checker.check(query, outcome)
            if status == "failed":
                failures.setdefault(qid, message)
            elif status == "known_defect":
                known[qid] = message
        if args.workload == "sweep_narrow":
            failures.update(threads_check(cli, queries, first))
        referenced = [(q, o) for q, o in zip(queries, first) if q.expect]
        result["reference"] = [
            sum(q.expect["stdout_sha256"] != o.digest for q, o in referenced),
            len(referenced)]
    result.update({
        "attempted": len(queries), "failed": len(failures),
        "known_defects": len(known),
        "failures": [{"query": queries[i].text, "message": m}
                     for i, m in sorted(failures.items())],
        "known": [{"query": queries[i].text, "message": m}
                  for i, m in sorted(known.items())],
        "env": environment(),
    })
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
