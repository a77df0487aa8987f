"""Command-line interface.

Subcommands: resolve (critical separation for one query), power (error
rates of one test), simulate (resolution-curve sweeps with power-law
fits), tables (built-in reference tables), scan (nuisance-parameter
scans), check (distributional and convergence diagnostics).

Wire formats: CSV (meta as leading ``# key = value`` comment lines, then
a header row) and JSON (object with "meta" and "records"); the tables
subcommand also has a human-readable text view, the only place where
probabilities appear as percentages. stdout carries data, stderr carries
messages. Option precedence is flags over config file over defaults; the
config file is line-oriented ``key = value`` text keyed by flag names.

Exit codes: 0 success, 2 parameter error, 3 no resolution in range,
4 model-assumption violation.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import __version__
from .analysis import (SweepSpec, criterion_alpha, hardest_alternative_scan,
                       riemann_convergence_check, simulation_sweep, table1,
                       weight_scan)
from .binning import SourceConfig, bin_probabilities
from .exceptions import (ModelAssumptionError, NoResolutionError,
                         ParameterError, StatresError,
                         UnsupportedMethodError)
from .models import (MODEL_KINDS, THRESHOLD_MODES, NoiseModel, RngState,
                     analytic_report, exact_error_rates, mc_error_rates,
                     normality_check)
from .psf import (GAUSSIAN_FWHM_FACTOR, PsfModel, eval_psf, fisher_integral,
                  psf_fwhm, psf_second_derivative)
from .resolution import ResolutionQuery, resolve_query

DEFAULT_SIGMA = 0.2 / GAUSSIAN_FWHM_FACTOR
DEFAULT_PSF = f"gaussian:{DEFAULT_SIGMA!r}"

DEFAULT_GRIDS = {
    "fwhm": "0.15:0.25:0.01",
    "t": "7,9,12,15,20,26,34,44,57,63",
    "n": "8,11,15,20,27,36,48,64",
}
MAX_GRID_POINTS = 100_000


def parse_list(text: str, conv: Callable[[str], object] = float) -> list:
    """Comma list whose entries conv reads, as for a one-value option."""
    try:
        return [conv(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad number list {text!r}") from exc


def parse_grid(text: str) -> list[float]:
    """Grid syntax: 'lo:hi:step' (inclusive) or 'v1,v2,...'.

    A range is stepped in decimal arithmetic, so 0.15:0.25:0.01 holds
    0.18 itself, the double nearest to lo + k step.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ParameterError(f"bad grid {text!r}; want lo:hi:step")
        try:
            lo, hi, step = (Decimal(p) for p in parts)
            finite = all(math.isfinite(float(v)) for v in (lo, hi, step))
            count = (int((hi - lo) // step) + 1
                     if finite and step > 0 and hi >= lo else 0)
        except (ArithmeticError, ValueError) as exc:
            raise ParameterError(f"bad grid {text!r}") from exc
        if count < 1:
            raise ParameterError(f"bad grid {text!r}")
        if count > MAX_GRID_POINTS:
            raise ParameterError(
                f"grid {text!r} has {count} points; at most "
                f"{MAX_GRID_POINTS} allowed")
        return [float(lo + k * step) for k in range(count)]
    return parse_list(text)


def parse_bool(text: str) -> bool:
    """A boolean option's config value, true or false."""
    return {"true": True, "false": False}[text.strip().lower()]


def parse_psf(spec: str, background: float = 0.0) -> PsfModel:
    """Parse 'gaussian:SIGMA' or 'airy:FWHM' into a PsfModel."""
    kind, sep, value = spec.partition(":")
    if not sep:
        raise ParameterError(
            f"bad psf {spec!r}; want gaussian:SIGMA or airy:FWHM")
    try:
        width = float(value)
    except ValueError as exc:
        raise ParameterError(f"bad psf width {value!r}") from exc
    if kind == "gaussian":
        return PsfModel.gaussian(width, background=background)
    if kind == "airy":
        return PsfModel.airy(width, background=background)
    raise ParameterError(f"unknown psf kind {kind!r}")


@dataclass(frozen=True)
class Opt:
    """One option: flag name, converter, default, help, choices.

    An option converted by ``parse_bool`` is a bare command-line flag.
    """

    name: str
    conv: Callable[[str], object]
    default: object
    help: str
    choices: tuple | None = None

    @property
    def attr(self) -> str:
        return self.name.replace("-", "_")


COMMON_OUTPUT = [
    Opt("format", str, "csv", "output format", ("csv", "json", "table")),
    Opt("output", str, None, "write to this file instead of stdout"),
    Opt("config", str, None, "key = value config file (flags win)"),
]

QUERY_OPTS = [
    Opt("psf", str, DEFAULT_PSF, "kernel, gaussian:SIGMA or airy:FWHM"),
    Opt("t", float, 20.0, "illumination time (mean photons per source)"),
    Opt("n", int, 20, "detector bin count"),
    Opt("alpha", float, 0.1, "test level"),
    Opt("gamma", float, 0.0, "constant background pedestal"),
    Opt("eta", float, 1.0, "detector thinning in (0, 1]"),
    Opt("q-weight", float, 0.5, "intensity fraction of the left source"),
    Opt("x0", float, 0.5, "null source position"),
    Opt("seed", int, None, "rng seed (default: STATRES_SEED or 0)"),
]

MODEL_OPT = Opt("model", str, "poisson", "observation model", MODEL_KINDS)
MC_OPTS = [
    Opt("reps", int, 10000, "Monte Carlo replications"),
    Opt("threshold", str, THRESHOLD_MODES[0], "mc threshold mode",
        THRESHOLD_MODES),
]


def add_options(parser: argparse.ArgumentParser, opts: list[Opt]) -> None:
    for opt in opts:
        # every default is None, so an unset flag defers to the config file
        kwargs = {"help": opt.help, "default": None, "dest": opt.attr}
        if opt.conv is parse_bool:
            kwargs["action"] = "store_true"
        else:
            kwargs["type"] = opt.conv
        if opt.choices is not None:
            kwargs["choices"] = list(opt.choices)
        parser.add_argument(f"--{opt.name}", **kwargs)


def load_config(path: str | None) -> dict[str, str]:
    if path is None:
        return {}
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line_no, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                key, sep, value = line.partition("=")
                if not sep:
                    raise ParameterError(
                        f"{path}:{line_no}: expected key = value")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ParameterError(f"cannot read config {path}: {exc}") from exc
    return values


def merge_options(args: argparse.Namespace, opts: list[Opt]) -> dict:
    """Apply precedence: command-line flag, config file, default."""
    config = load_config(getattr(args, "config", None))
    # one file may serve several subcommands, so only keys that no
    # subcommand knows are errors
    unknown = sorted(set(config) - CONFIG_KEYS)
    if unknown:
        raise ParameterError(
            f"unknown config key {unknown[0].replace('_', '-')!r}")
    merged = {}
    for opt in opts:
        value = getattr(args, opt.attr, None)
        if value is None and opt.attr in config:
            raw = config[opt.attr]
            try:
                value = opt.conv(raw)
            except (KeyError, ValueError):
                raise ParameterError(
                    f"bad config value {opt.name} = {raw!r}") from None
            if opt.choices is not None and value not in opt.choices:
                raise ParameterError(
                    f"config value {opt.name} = {raw!r} not in "
                    f"{list(opt.choices)}")
        if value is None:
            value = opt.default
        merged[opt.attr] = value
    if "seed" in merged and merged["seed"] is None:
        raw = os.environ.get("STATRES_SEED", "0")
        try:
            merged["seed"] = int(raw)
        except ValueError:
            raise ParameterError(
                f"bad STATRES_SEED {raw!r}; want an integer") from None
    return merged


def sanitize(value):
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, float) and math.isnan(value):
        return None
    return value


def format_cell(value) -> str:
    value = sanitize(value)
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def write_csv(stream, meta: dict, columns: list[str],
              records: list[dict]) -> None:
    for key, value in meta.items():
        stream.write(f"# {key} = {format_cell(value)}\n")
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([format_cell(record.get(c)) for c in columns])


def write_json(stream, meta: dict, records: list[dict]) -> None:
    clean = [{k: sanitize(v) for k, v in r.items()} for r in records]
    meta = {k: sanitize(v) for k, v in meta.items()}
    json.dump({"meta": meta, "records": clean}, stream, indent=2)
    stream.write("\n")


def emit(opts: dict, meta: dict, columns: list[str], records: list[dict],
         table_text: str | None = None) -> None:
    stream = sys.stdout
    handle = None
    if opts.get("output"):
        try:
            handle = open(opts["output"], "w", encoding="utf-8")
        except OSError as exc:
            raise ParameterError(
                f"cannot write {opts['output']}: {exc.strerror}") from None
        stream = handle
    try:
        fmt = opts.get("format", "csv")
        if fmt == "json":
            write_json(stream, meta, records)
        elif fmt == "table" and table_text is not None:
            stream.write(table_text)
        else:
            write_csv(stream, meta, columns, records)
    finally:
        if handle is not None:
            handle.close()


def base_meta(command: str, opts: dict) -> dict:
    meta = {"version": __version__, "command": command}
    for key, value in opts.items():
        if key in ("format", "output", "config"):
            continue
        meta[key] = value
    return meta


# ----------------------------------------------------------------- resolve

RESOLVE_OPTS = ([MODEL_OPT]
                + QUERY_OPTS
                + [Opt("beta", float, 0.1, "target type-II error rate"),
                   Opt("method", str, "asymptotic", "solver",
                       ("asymptotic", "finite-n", "exact", "mc"))]
                + MC_OPTS
                + COMMON_OUTPUT)

def cmd_resolve(args: argparse.Namespace) -> int:
    opts = merge_options(args, RESOLVE_OPTS)
    psf = parse_psf(opts["psf"], background=opts["gamma"])
    model = NoiseModel(opts["model"], thinning=opts["eta"])
    query = ResolutionQuery(model=model, psf=psf, x0=opts["x0"],
                            weight_q=opts["q_weight"], n=opts["n"],
                            t=opts["t"], alpha=opts["alpha"],
                            beta=opts["beta"])
    result = resolve_query(query, method=opts["method"], reps=opts["reps"],
                           rng=RngState(seed=opts["seed"]),
                           threshold_mode=opts["threshold"])
    diag = result.diagnostics
    substitution = diag.get("substitution", "")
    record = {
        "model": model.kind,
        "method": result.method,
        "d": result.d,
        "power": (1.0 - diag["beta_hat"] if "beta_hat" in diag
                  else 1.0 - opts["beta"]),
        "level": opts["alpha"],
        "mc_se": diag.get("mc_se", 0.0),
        "reps": diag.get("reps", 0),
        "seed": opts["seed"],
        "substitution": substitution,
    }
    meta = base_meta("resolve", opts)
    meta["substitution"] = substitution
    for key in ("note", "converged", "iterations", "expansions", "start"):
        if key in diag:
            meta[key] = diag[key]
    emit(opts, meta, list(record), [record])
    return 0


# ------------------------------------------------------------------- power

POWER_OPTS = ([MODEL_OPT,
               Opt("d", float, None, "source separation (required)")]
              + QUERY_OPTS
              + [Opt("offset-lambda", float, 0.0,
                     "shift of the pair's intensity center"),
                 Opt("method", str, None, "exact, clt or mc "
                     "(default: exact for hg/vsg, clt for poisson)",
                     ("exact", "clt", "mc"))]
              + MC_OPTS
              + COMMON_OUTPUT)

def cmd_power(args: argparse.Namespace) -> int:
    opts = merge_options(args, POWER_OPTS)
    if opts["d"] is None:
        raise ParameterError("power requires --d")
    psf = parse_psf(opts["psf"], background=opts["gamma"])
    model = NoiseModel(opts["model"], thinning=opts["eta"])
    method = opts["method"]
    if method is None:
        method = "clt" if model.kind == "poisson" else "exact"
    src = SourceConfig(x0=opts["x0"], d=opts["d"],
                       weight_q=opts["q_weight"],
                       offset_lambda=opts["offset_lambda"])
    probs = bin_probabilities(psf, src, opts["n"])
    if method == "exact":
        report = exact_error_rates(model, probs, opts["t"], opts["alpha"])
    elif method == "clt":
        if model.kind != "poisson":
            raise UnsupportedMethodError(
                "the clt method applies to the poisson model only")
        report = analytic_report(model, probs, opts["t"], opts["alpha"])
    else:
        report = mc_error_rates(model, probs, opts["t"], opts["alpha"],
                                reps=opts["reps"],
                                rng=RngState(seed=opts["seed"]),
                                threshold_mode=opts["threshold"])
    record = {"model": model.kind, "method": method,
              "threshold": report.threshold, "level": report.level,
              "power": report.power, "mc_se": report.mc_se,
              "reps": report.reps, "seed": opts["seed"]}
    emit(opts, base_meta("power", opts), list(record), [record])
    return 0


# ---------------------------------------------------------------- simulate

SIMULATE_OPTS = ([Opt("sweep", str, "fwhm", "swept variable",
                      ("fwhm", "t", "n")),
                  Opt("grid", str, None,
                      "grid, lo:hi:step or comma list (default per sweep)"),
                  Opt("models", str, "poisson,vsg,hg",
                      "comma list of models"),
                  Opt("fwhm", float, 0.2, "kernel fwhm when not swept"),
                  Opt("t", float, 20.0, "illumination time when not swept"),
                  Opt("n", int, 20, "bin count when not swept"),
                  Opt("alpha", float, 0.1, "test level (= target beta)"),
                  Opt("method", str, "mc", "per-point solver",
                      ("mc", "formula"))]
                 + MC_OPTS
                 + [Opt("threads", int, 1, "worker threads"),
                    Opt("seed", int, None,
                        "rng seed (default: STATRES_SEED or 0)")]
                 + COMMON_OUTPUT)

SIMULATE_COLUMNS = ["model", "swept_var", "swept_value", "d", "method",
                    "power", "level", "mc_se", "reps", "seed"]


def cmd_simulate(args: argparse.Namespace) -> int:
    opts = merge_options(args, SIMULATE_OPTS)
    grid_text = opts["grid"] or DEFAULT_GRIDS[opts["sweep"]]
    grid = parse_grid(grid_text)
    models = tuple(m.strip() for m in opts["models"].split(",") if m.strip())
    spec = SweepSpec(swept=opts["sweep"], grid=tuple(grid),
                     fwhm=opts["fwhm"], t=opts["t"], n=opts["n"],
                     alpha=opts["alpha"], models=models,
                     reps=opts["reps"], seed=opts["seed"],
                     method=opts["method"],
                     threshold_mode=opts["threshold"],
                     threads=opts["threads"])
    records, fits = simulation_sweep(spec)
    meta = base_meta("simulate", opts)
    meta["grid"] = grid_text
    for kind, fit in fits.items():
        meta[f"fit_{kind}_slope"] = fit.slope
        meta[f"fit_{kind}_intercept"] = fit.intercept
        meta[f"fit_{kind}_residual_rms"] = fit.residual_rms
    emit(opts, meta, SIMULATE_COLUMNS, records)
    return 0


# ------------------------------------------------------------------ tables

TABLES_OPTS = [Opt("which", str, "both", "which table", ("1", "2", "both")),
               Opt("alphas", str, "0.01,0.05,0.1",
                   "levels for the coefficient table"),
               Opt("times", str, "10,20,30,40,50",
                   "illumination times for the criterion table"),
               Opt("format", str, "table", "output format",
                   ("csv", "json", "table")),
               Opt("output", str, None, "write to this file"),
               Opt("config", str, None, "key = value config file")]

TABLES_COLUMNS = ["table", "alpha", "hg", "poisson_vsg", "t", "abbe",
                  "rayleigh"]


def tables_records(opts: dict) -> tuple[list[dict], list[dict]]:
    alphas = parse_list(opts["alphas"])
    times = parse_list(opts["times"])
    rows1 = [{"table": 1, **row} for row in table1(alphas)]
    rows2 = [{"table": 2, "t": t,
              "abbe": criterion_alpha("abbe", t),
              "rayleigh": criterion_alpha("rayleigh", t)} for t in times]
    return rows1, rows2


def tables_text(rows1: list[dict], rows2: list[dict], which: str) -> str:
    lines = []
    if which in ("1", "both"):
        lines.append("Resolution-law coefficients (alpha = beta)")
        lines.append(f"{'alpha':>8}  {'hg':>8}  {'poisson/vsg':>12}")
        for row in rows1:
            lines.append(f"{row['alpha']:>8g}  {row['hg']:>8.2f}  "
                         f"{row['poisson_vsg']:>12.2f}")
    if which == "both":
        lines.append("")
    if which in ("2", "both"):
        lines.append("Error level at which a classical criterion distance "
                     "is resolved (percent)")
        lines.append(f"{'t':>8}  {'abbe':>10}  {'rayleigh':>10}")
        for row in rows2:
            abbe = f"{100.0 * row['abbe']:.3g}"
            rayleigh = f"{100.0 * row['rayleigh']:.3g}"
            lines.append(f"{row['t']:>8g}  {abbe:>10}  {rayleigh:>10}")
    return "\n".join(lines) + "\n"


def cmd_tables(args: argparse.Namespace) -> int:
    opts = merge_options(args, TABLES_OPTS)
    rows1, rows2 = tables_records(opts)
    which = opts["which"]
    records = []
    if which in ("1", "both"):
        records.extend(rows1)
    if which in ("2", "both"):
        records.extend(rows2)
    columns = [c for c in TABLES_COLUMNS
               if any(c in r for r in records)]
    meta = base_meta("tables", opts)
    emit(opts, meta, columns, records,
         table_text=tables_text(rows1, rows2, which))
    return 0


# -------------------------------------------------------------------- scan

SCAN_OPTS = ([Opt("kind", str, "lambda", "scan variable",
                  ("lambda", "weight")),
              MODEL_OPT,
              Opt("d", float, 0.1, "source separation (lambda scan)"),
              Opt("grid", str, None, "scan grid (default per kind)"),
              Opt("beta", float, 0.1, "target type-II rate (weight scan)")]
             + QUERY_OPTS
             + COMMON_OUTPUT)


def cmd_scan(args: argparse.Namespace) -> int:
    opts = merge_options(args, SCAN_OPTS)
    psf = parse_psf(opts["psf"], background=opts["gamma"])
    model = NoiseModel(opts["model"], thinning=opts["eta"])
    meta = base_meta("scan", opts)
    if opts["kind"] == "lambda":
        grid = parse_grid(opts["grid"] or "-0.05:0.05:0.01")
        records, lambda_star = hardest_alternative_scan(
            model, psf, d=opts["d"], t=opts["t"], n=opts["n"],
            alpha=opts["alpha"], lambdas=grid, x0=opts["x0"])
        meta["lambda_star"] = lambda_star
        emit(opts, meta, ["offset_lambda", "power", "feasible"], records)
    else:
        grid = parse_grid(opts["grid"] or "0.1:0.9:0.1")
        query = ResolutionQuery(model=model, psf=psf, x0=opts["x0"],
                                n=opts["n"], t=opts["t"],
                                alpha=opts["alpha"], beta=opts["beta"])
        records = weight_scan(query, grid)
        emit(opts, meta, ["weight_q", "d"], records)
    return 0


# ------------------------------------------------------------------- check

CHECK_OPTS = ([Opt("clt", parse_bool, False, "poisson CLT normality check"),
               Opt("hg-normality", parse_bool, False,
                   "hg statistic normality check"),
               Opt("riemann", parse_bool, False,
                   "Riemann-sum convergence check"),
               Opt("d", float, None, "separation (default fwhm/2)"),
               Opt("reps", int, 10000, "samples for the KS checks"),
               Opt("n-grid", str, "20,200,2000",
                   "bin counts for the convergence check")]
              + QUERY_OPTS
              + COMMON_OUTPUT)


def cmd_check(args: argparse.Namespace) -> int:
    opts = merge_options(args, CHECK_OPTS)
    psf = parse_psf(opts["psf"], background=opts["gamma"])
    meta = base_meta("check", opts)
    if opts["clt"] or opts["hg_normality"]:
        model = NoiseModel("poisson" if opts["clt"] else "hg",
                           thinning=opts["eta"])
        d = opts["d"] if opts["d"] is not None else 0.5 * psf_fwhm(psf)
        src = SourceConfig(x0=opts["x0"], d=d, weight_q=opts["q_weight"])
        probs = bin_probabilities(psf, src, opts["n"])
        checks = normality_check(model, probs, opts["t"], opts["reps"],
                                 RngState(seed=opts["seed"]))
        records = [{**r, "seed": opts["seed"]} for r in checks]
        emit(opts, meta, list(records[0]), records)
        return 0
    if opts["riemann"]:
        n_grid = parse_list(opts["n_grid"], int)
        limit = fisher_integral(psf, x0=opts["x0"])
        records = riemann_convergence_check(
            lambda x: psf_second_derivative(psf, x - opts["x0"]),
            lambda x: eval_psf(psf, x - opts["x0"]),
            n_grid, limit=limit)
        rows = [{"check": "riemann-sum", **r} for r in records]
        gaps = [r["gap"] for r in records]
        for i, row in enumerate(rows):
            row["passed"] = i == 0 or gaps[i] < gaps[i - 1]
        meta["limit"] = limit
        emit(opts, meta, ["check", "n", "riemann_sum", "gap", "passed"],
             rows)
        return 0
    raise ParameterError("check requires one of --clt, --hg-normality, "
                         "--riemann")


# -------------------------------------------------------------------- main

COMMANDS = {
    "resolve": (cmd_resolve, RESOLVE_OPTS,
                "critical separation for one query"),
    "power": (cmd_power, POWER_OPTS, "error rates of one test"),
    "simulate": (cmd_simulate, SIMULATE_OPTS,
                 "resolution-curve sweeps with power-law fits"),
    "tables": (cmd_tables, TABLES_OPTS, "built-in reference tables"),
    "scan": (cmd_scan, SCAN_OPTS, "nuisance-parameter scans"),
    "check": (cmd_check, CHECK_OPTS,
              "distributional and convergence diagnostics"),
}


CONFIG_KEYS = frozenset(opt.attr for _, opts, _ in COMMANDS.values()
                        for opt in opts)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="statres",
        description="statistical resolution of binned photon-count "
                    "microscopy models")
    parser.add_argument("--version", action="version",
                        version=f"statres {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (func, opts, help_text) in COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text)
        add_options(sub, opts)
        sub.set_defaults(func=func)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NoResolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ModelAssumptionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ParameterError, StatresError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
