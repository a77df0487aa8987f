"""Command-line interface.

Subcommands: resolve (critical separation for one query), power (error
rates of one test), simulate (resolution-curve sweeps with power-law
fits), tables (built-in reference tables), scan (nuisance-parameter
scans), check (distributional and convergence diagnostics).

Wire formats: CSV (meta as leading ``# key = value`` comment lines, then
a header row of the record keys) and JSON (object with "meta" and
"records"); the tables subcommand also has a human-readable text view,
the only place where probabilities appear as percentages. stdout carries data, stderr carries
messages, each warning as one ``warning: <Category>: <message>`` line.
Option precedence is flags over config file over defaults; the
config file is line-oriented ``key = value`` text keyed by flag names.

Exit codes: 0 success, 1 the reader closed stdout, 2 parameter error,
3 no resolution in range, 4 model-assumption violation.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import os
import sys
import threading
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from . import __version__
from .analysis import (SweepSpec, criterion_alpha, hardest_alternative_scan,
                       riemann_convergence_check, simulation_sweep, table1,
                       weight_scan)
from .binning import SourceConfig, bin_probabilities
from .exceptions import (ParameterError, StatresError,
                         UnsupportedMethodError)
from .models import (MODEL_KINDS, THRESHOLD_MODES, NoiseModel, RngState,
                     analytic_report, mc_error_rates, normality_check)
from .psf import GAUSSIAN_FWHM_FACTOR, PsfModel, psf_fwhm
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
    """Comma list of at least one entry, each read by conv as for a
    one-value option."""
    try:
        values = [conv(v) for v in text.split(",") if v.strip()]
    except ValueError as exc:
        raise ParameterError(f"bad number list {text!r}") from exc
    if not values:
        raise ParameterError(f"bad number list {text!r}")
    return values


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


def parse_query_model(opts: dict) -> tuple[PsfModel, NoiseModel]:
    """The kernel, with its background, and the observation model."""
    return (parse_psf(opts["psf"], background=opts["gamma"]),
            NoiseModel(opts["model"], thinning=opts["eta"]))


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
    Opt("format", str, "csv", "output format", ("csv", "json")),
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


def write_csv(stream, meta: dict, records: list[dict]) -> None:
    """Meta comment lines, then a header of the record keys in first-seen
    order, then one row per record."""
    for key, value in meta.items():
        stream.write(f"# {key} = {format_cell(value)}\n")
    columns = list(dict.fromkeys(key for record in records for key in record))
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(columns)
    for record in records:
        writer.writerow([format_cell(record.get(c)) for c in columns])


def write_json(stream, meta: dict, records: list[dict]) -> None:
    clean = [{k: sanitize(v) for k, v in r.items()} for r in records]
    meta = {k: sanitize(v) for k, v in meta.items()}
    json.dump({"meta": meta, "records": clean}, stream, indent=2)
    stream.write("\n")


def emit(opts: dict, meta: dict, records: list[dict],
         table_text: str | None = None) -> None:
    path = opts["output"]
    try:
        target = (open(path, "w", encoding="utf-8") if path
                  else contextlib.nullcontext(sys.stdout))
    except OSError as exc:
        raise ParameterError(
            f"cannot write {path}: {exc.strerror}") from None
    with target as stream:
        if opts["format"] == "json":
            write_json(stream, meta, records)
        elif opts["format"] == "table":
            stream.write(table_text)
        else:
            write_csv(stream, meta, records)


# ----------------------------------------------------------------- resolve

RESOLVE_OPTS = ([MODEL_OPT]
                + QUERY_OPTS
                + [Opt("beta", float, 0.1, "target type-II error rate"),
                   Opt("method", str, "asymptotic", "solver",
                       ("asymptotic", "finite-n", "exact", "mc"))]
                + MC_OPTS
                + COMMON_OUTPUT)

def cmd_resolve(opts: dict) -> tuple[list[dict], dict]:
    psf, model = parse_query_model(opts)
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
    meta = {"substitution": substitution}
    for key in ("note", "converged", "iterations", "expansions", "start",
                "d_se"):
        if key in diag:
            meta[key] = diag[key]
    return [record], meta


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

def cmd_power(opts: dict) -> tuple[list[dict], dict]:
    if opts["d"] is None:
        raise ParameterError("power requires --d")
    psf, model = parse_query_model(opts)
    # the closed-form report is exact for hg/vsg and the CLT for poisson
    closed = "clt" if model.kind == "poisson" else "exact"
    method = opts["method"] or closed
    if method not in (closed, "mc"):
        raise UnsupportedMethodError(
            "the clt method applies to the poisson model only"
            if method == "clt" else
            "the exact method does not apply to the poisson model; "
            "use --method clt or mc")
    src = SourceConfig(x0=opts["x0"], d=opts["d"],
                       weight_q=opts["q_weight"],
                       offset_lambda=opts["offset_lambda"])
    probs = bin_probabilities(psf, src, opts["n"])
    if method == closed:
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
    return [record], {}


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


def cmd_simulate(opts: dict) -> tuple[list[dict], dict]:
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
    meta = {"grid": grid_text}
    for kind, fit in fits.items():
        meta[f"fit_{kind}_slope"] = fit.slope
        meta[f"fit_{kind}_intercept"] = fit.intercept
        meta[f"fit_{kind}_residual_rms"] = fit.residual_rms
    return records, meta


# ------------------------------------------------------------------ tables

TABLES_OPTS = [Opt("which", str, "both", "which table", ("1", "2", "both")),
               Opt("alphas", str, "0.01,0.05,0.1",
                   "levels for the coefficient table"),
               Opt("times", str, "10,20,30,40,50",
                   "illumination times for the criterion table"),
               Opt("format", str, "table", "output format",
                   ("csv", "json", "table"))] + COMMON_OUTPUT[1:]


def cmd_tables(opts: dict) -> tuple[list[dict], dict, str]:
    """The selected tables as records and as the text view, the one place
    where probabilities appear as percentages."""
    which = opts["which"]
    alphas = parse_list(opts["alphas"])
    times = parse_list(opts["times"])
    records, lines = [], []
    if which in ("1", "both"):
        lines.append("Resolution-law coefficients (alpha = beta)")
        lines.append(f"{'alpha':>8}  {'hg':>8}  {'poisson/vsg':>12}")
        for row in table1(alphas):
            records.append({"table": 1, **row})
            lines.append(f"{row['alpha']:>8g}  {row['hg']:>8.2f}  "
                         f"{row['poisson_vsg']:>12.2f}")
    if which == "both":
        lines.append("")
    if which in ("2", "both"):
        lines.append("Error level at which a classical criterion distance "
                     "is resolved (percent)")
        lines.append(f"{'t':>8}  {'abbe':>10}  {'rayleigh':>10}")
        for t in times:
            row = {"table": 2, "t": t,
                   "abbe": criterion_alpha("abbe", t),
                   "rayleigh": criterion_alpha("rayleigh", t)}
            records.append(row)
            abbe = f"{100.0 * row['abbe']:.3g}"
            rayleigh = f"{100.0 * row['rayleigh']:.3g}"
            lines.append(f"{t:>8g}  {abbe:>10}  {rayleigh:>10}")
    return records, {}, "\n".join(lines) + "\n"


# -------------------------------------------------------------------- scan

SCAN_OPTS = ([Opt("kind", str, "lambda", "scan variable",
                  ("lambda", "weight")),
              MODEL_OPT,
              Opt("d", float, 0.1, "source separation (lambda scan)"),
              Opt("grid", str, None, "scan grid (default per kind)"),
              Opt("beta", float, 0.1, "target type-II rate (weight scan)")]
             + QUERY_OPTS
             + COMMON_OUTPUT)


def cmd_scan(opts: dict) -> tuple[list[dict], dict]:
    psf, model = parse_query_model(opts)
    if opts["kind"] == "lambda":
        grid = parse_grid(opts["grid"] or "-0.05:0.05:0.01")
        records, lambda_star = hardest_alternative_scan(
            model, psf, d=opts["d"], t=opts["t"], n=opts["n"],
            alpha=opts["alpha"], lambdas=grid, x0=opts["x0"])
        return records, {"lambda_star": lambda_star}
    grid = parse_grid(opts["grid"] or "0.1:0.9:0.1")
    query = ResolutionQuery(model=model, psf=psf, x0=opts["x0"],
                            n=opts["n"], t=opts["t"],
                            alpha=opts["alpha"], beta=opts["beta"])
    return weight_scan(query, grid), {}


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


def cmd_check(opts: dict) -> tuple[list[dict], dict]:
    modes = [f"--{name}" for name in ("clt", "hg-normality", "riemann")
             if opts[name.replace("-", "_")]]
    if len(modes) != 1:
        raise ParameterError(
            "check requires one of --clt, --hg-normality, --riemann"
            + (f"; got {', '.join(modes)}" if modes else ""))
    psf = parse_psf(opts["psf"], background=opts["gamma"])
    if opts["riemann"]:
        records, limit = riemann_convergence_check(
            psf, parse_list(opts["n_grid"], int), x0=opts["x0"])
        return ([{"check": "riemann-sum", **r} for r in records],
                {"limit": limit})
    model = NoiseModel("poisson" if opts["clt"] else "hg",
                       thinning=opts["eta"])
    d = opts["d"] if opts["d"] is not None else 0.5 * psf_fwhm(psf)
    src = SourceConfig(x0=opts["x0"], d=d, weight_q=opts["q_weight"])
    probs = bin_probabilities(psf, src, opts["n"])
    checks = normality_check(model, probs, opts["t"], opts["reps"],
                             RngState(seed=opts["seed"]))
    return [{**r, "seed": opts["seed"]} for r in checks], {}


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
# options that choose where and how to write, not what to compute
OUTPUT_KEYS = frozenset(opt.attr for opt in COMMON_OUTPUT)


class ArgumentParser(argparse.ArgumentParser):
    """A bad flag or value is a ParameterError: one line, exit 2.

    The subcommand parsers are built from this class too.
    """

    def error(self, message: str):
        raise ParameterError(message)


@functools.cache
def build_parser() -> ArgumentParser:
    """The parser, built on the first call and shared by every later one;
    ``parse_args`` returns a fresh namespace each time."""
    parser = ArgumentParser(
        prog="statres",
        description="statistical resolution of binned photon-count "
                    "microscopy models")
    parser.add_argument("--version", action="version",
                        version=f"statres {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, opts, help_text) in COMMANDS.items():
        add_options(subparsers.add_parser(name, help=help_text), opts)
    return parser


def run_command(args: argparse.Namespace) -> None:
    """Merge the command's options, run it and write its output.

    A command maps the merged options to its records and the meta keys
    it adds after the version, the command and the options; tables
    returns its text view as well.
    """
    command, opt_list, _ = COMMANDS[args.command]
    opts = merge_options(args, opt_list)
    records, added, *table_text = command(opts)
    meta = {"version": __version__, "command": args.command}
    meta.update((k, v) for k, v in opts.items() if k not in OUTPUT_KEYS)
    meta.update(added)
    emit(opts, meta, records, *table_text)


def main(argv: list[str] | None = None) -> int:
    shown, lock = set(), threading.Lock()

    def format_warning(message, category, *_):
        # once per command by text: the registry shows a warning once per
        # line, and different lines raise the same message; simulate's
        # threads warn too, hence the lock
        text = f"warning: {category.__name__}: {message}\n"
        with lock:
            if text in shown:
                return ""
            shown.add(text)
        return text

    previous, warnings.formatwarning = warnings.formatwarning, format_warning
    try:
        run_command(build_parser().parse_args(argv))
        # a closed pipe surfaces here, not at interpreter exit
        sys.stdout.flush()
        return 0
    except StatresError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except MemoryError as exc:
        # a size no allocation can hold, such as --reps 1e14: a parameter
        # error, reported before anything reaches stdout
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull so that
        # the flush at exit cannot fail again (the Python docs' note on
        # SIGPIPE); SIGPIPE keeps its handler for in-process callers
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1
    finally:
        warnings.formatwarning = previous


if __name__ == "__main__":
    sys.exit(main())
