"""Correctness gate of the benchmark.

Every rule is computed from the package's public functions or from the
committed reference outputs, after the timed passes. A rule returns
("ok" | "failed" | "known_defect", message).

* ``mc_resolve``  a Monte Carlo ``d`` lies within [0.9, 1.1] of the
                  asymptotic ``d`` and the bisection reports convergence.
* ``clt``         the Poisson CLT Kolmogorov-Smirnov statistic is at most
                  0.03 under both hypotheses.
* ``sweep``       each fitted exponent lies within 0.1 of its target.
* ``ref``         every output cell matches the reference commit's to a
                  relative 1e-6.
* ``exact``       as ``ref`` except ``d``; at the reported ``d`` the exact
                  power equals 1 - beta to 1e-6.
* ``text``        the text table equals the reference commit's.
* ``defect``      the narrow-kernel ``power`` query that exits 4 on
                  zero-probability bins (a known defect); once fixed, its
                  output must agree with the library.
"""

from __future__ import annotations

import math
import warnings

import harness

REL_TOL = 1e-6
ABS_TOL = 1e-12
EXACT_POWER_TOL = 1e-6
MC_RATIO_BAND = (0.9, 1.1)
KS_BOUND = 0.03
SLOPE_TOL = 0.1
# fwhm and t targets are acceptance criterion 4's; the n law is flat for
# poisson/vsg and n^(1/4) for hg
SLOPE_TARGETS = {
    "fwhm": {"poisson": 0.979, "vsg": 0.975, "hg": 1.26},
    "t": {"poisson": -0.352, "vsg": -0.336, "hg": -0.665},
    "n": {"poisson": 0.0, "vsg": 0.0, "hg": 0.25},
}


def options(argv) -> dict:
    """``--key value`` pairs of a command line; bare flags map to True."""
    opts = {}
    i = 1
    while i < len(argv):
        key = argv[i][2:]
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[key] = argv[i + 1]
            i += 2
        else:
            opts[key] = True
            i += 1
    return opts


def close(got, want) -> bool:
    if isinstance(want, float) and isinstance(got, float):
        return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL)
    return got == want


def compare(expect: dict, meta: dict, records: list, skip=()) -> str:
    """Empty string when the output matches the reference, else why not."""
    want_records = expect["records"]
    if len(records) != len(want_records):
        return f"{len(records)} records, reference has {len(want_records)}"
    for i, (got, want) in enumerate(zip(records, want_records)):
        for key, value in want.items():
            if key not in skip and not close(got.get(key), value):
                return f"record {i} {key} = {got.get(key)!r}, " \
                       f"reference {value!r}"
    for key, value in expect["meta"].items():
        if not close(meta.get(key), value):
            return f"meta {key} = {meta.get(key)!r}, reference {value!r}"
    return ""


class Checker:
    """Applies the rules with the package ``harness.import_cli`` loaded."""

    def __init__(self):
        import statres
        self.lib = statres

    def psf(self, opts: dict):
        kind, _, width = opts["psf"].partition(":")
        gamma = float(opts.get("gamma", 0.0))
        if kind == "gaussian":
            return self.lib.PsfModel.gaussian(float(width), background=gamma)
        return self.lib.PsfModel.airy(float(width), background=gamma)

    def check(self, query, outcome) -> tuple[str, str]:
        # output a rule cannot read fails the query instead of the run
        try:
            return self._check(query, outcome)
        except Exception as exc:
            return "failed", f"unreadable output: {exc!r}"

    def _check(self, query, outcome) -> tuple[str, str]:
        if query.check == "defect":
            return self.defect(query, outcome)
        if outcome.code != 0:
            last = outcome.stderr.strip().splitlines()[-1:] or [""]
            return "failed", f"exit {outcome.code}: {last[0]}"
        meta, records = ({}, []) if query.check == "text" else \
            harness.parse_output(outcome.stdout)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            message = getattr(self, query.check)(query, meta, records,
                                                 outcome)
        return ("failed", message) if message else ("ok", "")

    def mc_resolve(self, query, meta, records, outcome) -> str:
        lib = self.lib
        opts = options(query.argv)
        q = lib.ResolutionQuery(model=lib.NoiseModel(opts["model"]),
                                psf=lib.PsfModel.gaussian_from_fwhm(0.2),
                                n=int(opts["n"]), t=float(opts["t"]))
        asym = lib.asymptotic_resolution(q).d
        ratio = records[0]["d"] / asym
        if meta.get("converged") is not True:
            return "Monte Carlo bisection did not converge"
        lo, hi = MC_RATIO_BAND
        if not lo <= ratio <= hi:
            return f"mc/asymptotic ratio {ratio:.4f} outside [{lo}, {hi}]"
        return ""

    def clt(self, query, meta, records, outcome) -> str:
        sides = {r["side"]: r["ks_statistic"] for r in records}
        if set(sides) != {"null", "alternative"}:
            return f"sides {sorted(sides)}"
        worst = max(sides.values())
        return f"KS statistic {worst:.4f} > {KS_BOUND}" \
            if worst > KS_BOUND else ""

    def sweep(self, query, meta, records, outcome) -> str:
        targets = SLOPE_TARGETS[options(query.argv)["sweep"]]
        for model, target in targets.items():
            slope = meta.get(f"fit_{model}_slope")
            if not isinstance(slope, float) or \
                    abs(slope - target) > SLOPE_TOL:
                return f"{model} exponent {slope} not within {SLOPE_TOL} " \
                       f"of {target}"
        return ""

    def ref(self, query, meta, records, outcome) -> str:
        return compare(query.expect, meta, records)

    def exact(self, query, meta, records, outcome) -> str:
        message = compare(query.expect, meta, records, skip=("d",))
        if message:
            return message
        lib = self.lib
        opts = options(query.argv)
        src = lib.SourceConfig(x0=float(opts["x0"]), d=records[0]["d"],
                               weight_q=float(opts["q-weight"]))
        probs = lib.bin_probabilities(self.psf(opts), src, int(opts["n"]))
        model = lib.NoiseModel(opts["model"], thinning=float(opts["eta"]))
        power = lib.exact_error_rates(model, probs, float(opts["t"]),
                                      float(opts["alpha"])).power
        target = 1.0 - float(opts["beta"])
        if abs(power - target) > EXACT_POWER_TOL:
            return f"exact power at d is {power!r}, want {target}"
        return ""

    def text(self, query, meta, records, outcome) -> str:
        return "" if outcome.stdout == query.expect["text"] else \
            "text table differs from the reference"

    def defect(self, query, outcome) -> tuple[str, str]:
        lines = outcome.stderr.strip().splitlines()
        if outcome.code == 4 and len(lines) == 1 and \
                lines[0].startswith("error: "):
            return "known_defect", lines[0]
        if outcome.code != 0:
            return "failed", f"exit {outcome.code}: {lines[-1:]}"
        # fixed: the reported power must be the library's
        lib = self.lib
        opts = options(query.argv)
        _, records = harness.parse_output(outcome.stdout)
        src = lib.SourceConfig(x0=0.5, d=float(opts["d"]))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            probs = lib.bin_probabilities(self.psf(opts), src, 20)
            power = lib.poisson_clt_report(probs, 20.0, 0.1).power
        if not close(records[0]["power"], power):
            return "failed", f"power {records[0]['power']!r}, " \
                             f"library {power!r}"
        return "ok", ""
