"""Query lists of the three benchmark workloads, made from the workload seed.

Each workload is a fixed list of ``statres`` command lines. The workload
seed picks the Monte Carlo seeds of ``mc_wide`` and ``sweep_narrow`` and
the sample of deterministic queries that ``exact_grid`` draws from the
committed pool in ``reference.json``. The same seed always gives the same
list; the program receives only the command lines.

* ``mc_wide``       a few huge draws: Monte Carlo ``resolve`` at
                    n = t = 1000, reps = 1e4, plus one ``check --clt``.
* ``sweep_narrow``  the three default ``simulate`` sweeps at n = t = 20,
                    each with two seeds: hundreds of small draws.
* ``exact_grid``    over a hundred deterministic closed-form, exact and
                    quadrature queries with no sampling.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE_PATH = os.path.join(HERE, "reference.json")

WORKLOADS = ("mc_wide", "sweep_narrow", "exact_grid")

# Monte Carlo seeds per model in one mc_wide list, and per sweep in one
# sweep_narrow list. The bisection step count of a single solve varies by
# about 10 percent between seeds, so each list averages several solves.
MC_WIDE_SEEDS = 4
SWEEP_SEEDS = 2

# exact_grid: how many queries one list draws from each pool class
EXACT_GRID_COUNTS = {
    "resolve-asymptotic-gaussian-hg": 9,
    "resolve-asymptotic-gaussian-vsg": 9,
    "resolve-asymptotic-airy-hg": 2,
    "resolve-asymptotic-airy-vsg": 2,
    "resolve-finite-n-gaussian-hg": 9,
    "resolve-finite-n-gaussian-vsg": 9,
    "resolve-finite-n-airy-hg": 2,
    "resolve-finite-n-airy-vsg": 2,
    "resolve-exact-gaussian-hg": 9,
    "resolve-exact-gaussian-vsg": 9,
    "resolve-exact-airy-hg": 2,
    "resolve-exact-airy-vsg": 2,
    "power-exact-gaussian": 10,
    "power-exact-airy": 2,
    "power-clt-gaussian": 10,
    "scan-lambda": 4,
    "scan-weight": 4,
    "tables": 4,
    "check-riemann-gaussian": 5,
    # fixed queries, one candidate each
    "check-riemann-airy": 1,
    "power-narrow-kernel": 1,
}

# classes left out of the toy lists: the airy Riemann query alone takes
# seconds (adaptive quadrature refines finite-difference noise in h'')
TOY_SKIP = ("check-riemann-airy",)


@dataclass(frozen=True)
class Query:
    """One command line and how to check its output.

    ``check`` names the rule in ``checks.py``; ``expect`` holds the
    reference data a deterministic query is compared against.
    """

    argv: tuple
    check: str
    expect: object = None

    @property
    def text(self) -> str:
        return " ".join(self.argv)


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _seed_arg(rng: random.Random) -> tuple:
    return ("--seed", str(rng.randrange(2 ** 31)))


def mc_wide(seed: int, toy: bool = False) -> list[Query]:
    rng = random.Random(f"mc_wide/{seed}")
    reps = "1000" if toy else "10000"
    queries = []
    for _ in range(1 if toy else MC_WIDE_SEEDS):
        for model in ("poisson", "vsg", "hg"):
            queries.append(Query(
                ("resolve", "--method", "mc", "--model", model,
                 "--n", "1000", "--t", "1000", "--reps", reps)
                + _seed_arg(rng), "mc_resolve"))
    # the KS bound of 0.03 needs 1e4 samples even at toy size
    queries.append(Query(
        ("check", "--clt", "--t", "100", "--n", "1000", "--reps", "10000")
        + _seed_arg(rng), "clt"))
    return queries


def sweep_narrow(seed: int, toy: bool = False) -> list[Query]:
    rng = random.Random(f"sweep_narrow/{seed}")
    reps = "1000" if toy else "10000"
    return [Query(("simulate", "--sweep", sweep, "--n", "20", "--t", "20",
                   "--reps", reps, "--threads", "1") + _seed_arg(rng),
                  "sweep")
            for _ in range(1 if toy else SWEEP_SEEDS)
            for sweep in ("fwhm", "t", "n")]


def exact_grid(seed: int, toy: bool = False,
               reference: dict | None = None) -> list[Query]:
    if reference is None:
        reference = load_reference()
    rng = random.Random(f"exact_grid/{seed}")
    by_class: dict[str, list] = {}
    for entry in reference["entries"]:
        by_class.setdefault(entry["class"], []).append(entry)
    queries = []
    for cls, count in EXACT_GRID_COUNTS.items():
        if toy and cls in TOY_SKIP:
            continue
        picked = rng.sample(by_class[cls], 1 if toy else count)
        queries.extend(Query(tuple(e["argv"]), e["check"], e["expect"])
                       for e in picked)
    rng.shuffle(queries)
    return queries


def build(workload: str, seed: int, toy: bool = False) -> list[Query]:
    if workload == "mc_wide":
        return mc_wide(seed, toy)
    if workload == "sweep_narrow":
        return sweep_narrow(seed, toy)
    if workload == "exact_grid":
        return exact_grid(seed, toy)
    raise ValueError(f"unknown workload {workload!r}")
