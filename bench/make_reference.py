"""Write ``reference.json``: the pool of exact_grid queries and their outputs.

Run from the root of a checkout, at the commit whose outputs are the
reference (the benchmark compares later commits against them):

    python3 bench/make_reference.py

Candidates come from a fixed generator seed, so the pool is the same every
time. A candidate whose answer is "no resolution inside the unit window"
(exit 3, or the exact solver's geometry error) is replaced by a fresh draw;
any other failure stops the script, except for the one documented
known-defect query.
"""

from __future__ import annotations

import json
import math
import random
import sys

import harness
import workloads

GENERATOR_SEED = 20050745
POOL_FACTOR = 4          # candidates per query a workload list draws
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# cells that depend on noise-level numerics rather than on the answer:
# the Riemann gap is a difference of two nearly equal numbers, and its
# "passed" flag compares consecutive gaps
VOLATILE_COLUMNS = ("gap", "passed")
RESULT_META = ("lambda_star", "limit", "substitution", "note")

KNOWN_DEFECT = ("power", "--psf", "gaussian:0.01", "--d", "0.02")
AIRY_RIEMANN = ("check", "--riemann", "--psf", "airy:0.2", "--gamma", "0.2",
                "--n-grid", "20")


def _num(value: float) -> str:
    return repr(round(value, 4))


class Draw:
    """Parameter draws for one candidate."""

    def __init__(self, rng: random.Random):
        self.rng = rng

    def choice(self, values):
        return self.rng.choice(values)

    def gaussian(self) -> str:
        fwhm = self.rng.uniform(0.1, 0.3)
        return f"gaussian:{fwhm / GAUSSIAN_FWHM_FACTOR:.5f}"

    def airy(self) -> str:
        return f"airy:{self.rng.uniform(0.15, 0.25):.3f}"

    def centered(self, lo: float, hi: float) -> str:
        # the centered case has closed forms; off-center goes to quadrature
        if self.rng.random() < 0.6:
            return "0.5"
        return _num(self.rng.uniform(lo, hi))

    def common(self) -> list[str]:
        return ["--x0", self.centered(0.42, 0.58),
                "--q-weight", self.centered(0.35, 0.65),
                "--alpha", str(self.choice((0.05, 0.1, 0.2))),
                "--eta", str(self.choice((1.0, 1.0, 1.0, 0.8, 0.5))),
                "--format", self.choice(("csv", "csv", "csv", "csv", "json"))]


def resolve_candidate(draw: Draw, method: str, kernel: str,
                      model: str) -> list[str]:
    if kernel == "gaussian":
        psf = draw.gaussian()
        gamma = draw.choice((0.0, 0.0, 0.1, 0.3, 1.0))
        n = draw.choice((20, 30, 50, 80, 120, 200, 300, 500, 800, 1000))
        t = draw.choice((100, 200, 500, 1000) if model == "hg"
                        else (20, 30, 50, 100, 200, 500, 1000))
    else:
        psf = draw.airy()
        # the airy information integral needs a background
        gamma = draw.choice((0.0, 0.1, 0.2) if model == "hg"
                            else (0.1, 0.2, 0.5))
        n = draw.choice((20, 30, 50, 80, 120, 200))
        t = draw.choice((200, 500, 1000))
    return ["resolve", "--method", method, "--model", model, "--psf", psf,
            "--gamma", str(gamma), "--n", str(n), "--t", str(t),
            "--beta", str(draw.choice((0.05, 0.1, 0.2)))] + draw.common()


def power_candidate(draw: Draw, method: str, kernel: str) -> list[str]:
    model = "poisson" if method == "clt" else draw.choice(("hg", "vsg"))
    psf = draw.gaussian() if kernel == "gaussian" else draw.airy()
    return ["power", "--method", method, "--model", model, "--psf", psf,
            "--d", _num(draw.rng.uniform(0.05, 0.25)),
            "--gamma", str(draw.choice((0.0, 0.1, 0.5))),
            "--n", str(draw.choice((20, 50, 100, 200, 500, 1000))),
            "--t", str(draw.choice((20, 50, 100, 500)))] + draw.common()


def scan_candidate(draw: Draw, kind: str) -> list[str]:
    argv = ["scan", "--kind", kind, "--model",
            draw.choice(("poisson", "vsg", "hg")), "--psf", draw.gaussian(),
            "--n", str(draw.choice((20, 50, 100, 200))),
            "--t", str(draw.choice((20, 50, 100))),
            "--gamma", str(draw.choice((0.0, 0.1, 0.5)))]
    if kind == "lambda":
        argv += ["--d", _num(draw.rng.uniform(0.08, 0.2))]
    else:
        argv += ["--grid", draw.choice(("0.1:0.9:0.1", "0.2:0.8:0.05",
                                        "0.3,0.4,0.5,0.6,0.7"))]
    return argv + ["--format", draw.choice(("csv", "json"))]


def tables_candidate(draw: Draw) -> list[str]:
    alphas = sorted(draw.rng.sample((0.005, 0.01, 0.02, 0.05, 0.1, 0.2), 3))
    times = sorted(draw.rng.sample(range(5, 101, 5), 5))
    return ["tables", "--which", draw.choice(("1", "2", "both")),
            "--alphas", ",".join(str(a) for a in alphas),
            "--times", ",".join(str(t) for t in times),
            "--format", draw.choice(("table", "csv", "json"))]


def riemann_candidate(draw: Draw) -> list[str]:
    return ["check", "--riemann", "--psf", draw.gaussian(),
            "--gamma", str(draw.choice((0.0, 0.1, 0.5))),
            "--n-grid", draw.choice(("20,200", "20,200,2000", "10,40,160"))]


def candidate(cls: str, draw: Draw) -> list[str]:
    kind, _, rest = cls.partition("-")
    if kind == "resolve":
        method, kernel, model = rest.rsplit("-", 2)
        return resolve_candidate(draw, method, kernel, model)
    if kind == "power":
        method, kernel = rest.split("-")
        return power_candidate(draw, method, kernel)
    if kind == "scan":
        return scan_candidate(draw, rest)
    if kind == "tables":
        return tables_candidate(draw)
    return riemann_candidate(draw)


def check_rule(argv) -> str:
    if tuple(argv) == KNOWN_DEFECT:
        return "defect"
    if argv[0] == "resolve" and argv[2] == "exact":
        return "exact"
    if argv[-2:] == ["--format", "table"]:
        return "text"
    return "ref"


def expectation(argv, stdout: str) -> dict:
    expect = {"stdout_sha256": harness.sha256(stdout)}
    if check_rule(argv) == "text":
        expect["text"] = stdout
        return expect
    meta, records = harness.parse_output(stdout)
    expect["records"] = [{k: v for k, v in r.items()
                          if k not in VOLATILE_COLUMNS} for r in records]
    expect["meta"] = {k: meta[k] for k in RESULT_META if k in meta}
    return expect


def no_resolution(outcome) -> bool:
    return outcome.code == 3 or (
        outcome.code == 2 and "no admissible separation" in outcome.stderr)


def main() -> int:
    cli = harness.import_cli()
    rng = random.Random(GENERATOR_SEED)
    draw = Draw(rng)
    entries = []
    replaced = 0
    for cls, count in workloads.EXACT_GRID_COUNTS.items():
        fixed = {"check-riemann-airy": AIRY_RIEMANN,
                 "power-narrow-kernel": KNOWN_DEFECT}.get(cls)
        size = 1 if fixed else POOL_FACTOR * count
        seen = set()
        kept = 0
        while kept < size:
            argv = list(fixed) if fixed else candidate(cls, draw)
            if tuple(argv) in seen:
                continue
            seen.add(tuple(argv))
            outcome = harness.run_cli(cli, argv)
            rule = check_rule(argv)
            if outcome.code != 0 and rule != "defect":
                if no_resolution(outcome):
                    replaced += 1
                    continue
                raise SystemExit(f"candidate failed ({outcome.code}): "
                                 f"{' '.join(argv)}\n{outcome.stderr}")
            entries.append({"class": cls, "argv": argv, "check": rule,
                            "expect": expectation(argv, outcome.stdout)})
            kept += 1
        print(f"{cls}: {size}", file=sys.stderr)
    print(f"replaced {replaced} candidates with no resolution",
          file=sys.stderr)
    with open(workloads.REFERENCE_PATH, "w", encoding="utf-8") as handle:
        # one entry per line keeps the file small and its diffs readable
        handle.write('{"source_sha256": %s, "generator_seed": %d, '
                     '"entries": [\n' % (json.dumps(harness.source_digest()),
                                         GENERATOR_SEED))
        handle.write(",\n".join(json.dumps(e) for e in entries))
        handle.write("\n]}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
