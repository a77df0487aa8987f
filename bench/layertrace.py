"""Outside-in layer trace: spans around the public functions of each module.

``Tracer.install`` replaces each traced function at every place it is
bound. ``from .x import y`` copies the function object into the importing
module, so ``bin_probabilities`` is patched in ``binning``, ``resolution``,
``analysis``, ``cli`` and the package namespace alike; closures that look a
name up at call time (the kernel lambdas of ``binning`` and ``psf``) then
reach the wrapper through the patched module global.

A span records layer, function, start, end, parent span and query id, plus
one count: points passed to ``kernel_value``, integrand points evaluated by
``integrate_bins``, variates drawn by ``sample_observations``, records of
``simulation_sweep``. Spans stay in memory and are written out at the end.
A layer's self time is its spans' durations minus their child spans.
"""

from __future__ import annotations

import csv
import functools
import gzip
import itertools
import os
import sys
import threading
import time

import numpy as np

LAYERS = {
    "psf": ("kernel_value", "eval_psf", "psf_first_derivative",
            "psf_second_derivative", "mass_fraction", "curvature_integral",
            "fisher_integral"),
    "quadrature": ("integrate_bins",),
    "binning": ("bin_probabilities", "bin_curvature_integrals"),
    "models": ("sample_observations", "lrt_statistic", "analytic_report",
               "separation_measure", "exact_error_rates",
               "poisson_clt_report", "hg_mu", "vsg_nu", "mc_error_rates"),
    "resolution": ("resolve_query", "asymptotic_resolution",
                   "finite_n_resolution", "exact_resolution",
                   "mc_resolution", "detection_boundary", "acuna_power"),
    "analysis": ("simulation_sweep", "hardest_alternative_scan",
                 "weight_scan", "riemann_convergence_check", "table1",
                 "criterion_alpha"),
    "cli": ("main",),
}

SOLVERS = ("asymptotic_resolution", "finite_n_resolution",
           "exact_resolution", "mc_resolution")
ANALYTIC = ("analytic_report", "separation_measure", "exact_error_rates",
            "poisson_clt_report", "hg_mu", "vsg_nu")
INTEGRALS = ("curvature_integral", "fisher_integral")


class Span:
    """One call of a traced function.

    ``count`` is the call's work count (see the module docstring);
    ``extra`` holds what one metric needs besides: the bin count of
    ``integrate_bins``, the bytes drawn by ``sample_observations``, the
    convergence flag of ``mc_resolution``.
    """

    __slots__ = ("id", "layer", "name", "parent", "query", "start", "end",
                 "child", "count", "extra")

    def __init__(self, ident, layer, name, parent, query):
        self.id = ident
        self.layer = layer
        self.name = name
        self.parent = parent
        self.query = query
        self.child = 0.0
        self.count = 0
        self.extra = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def ancestor(self, names):
        span = self.parent
        while span is not None and span.name not in names:
            span = span.parent
        return span


class Tracer:
    """Collects spans of the traced functions; ``query`` tags new spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.query = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, layer: str, name: str, func):
        measure = _MEASURES.get(name)

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), layer, name,
                        stack[-1] if stack else None, self.query)
            self.spans.append(span)
            if name == "integrate_bins":
                args = _count_integrand(span, args)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
            if measure is not None:
                measure(span, args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a statres module binds it."""
        wrappers = {}
        for layer, names in LAYERS.items():
            module = sys.modules[f"statres.{layer}"]
            for name in names:
                func = getattr(module, name)
                wrappers[id(func)] = (func, self._wrap(layer, name, func))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "statres" and not mod_name.startswith("statres."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in self._patched:
            setattr(module, attr, value)
        self._patched.clear()

    def write(self, path: str) -> None:
        """Spans as gzipped CSV, times in microseconds from the first."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        origin = min((s.start for s in self.spans), default=0.0)
        with gzip.open(path, "wt", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["id", "name", "start_us", "end_us", "parent",
                             "query", "count"])
            for s in self.spans:
                writer.writerow([s.id, s.name,
                                 f"{1e6 * (s.start - origin):.1f}",
                                 f"{1e6 * (s.end - origin):.1f}",
                                 "" if s.parent is None else s.parent.id,
                                 s.query, s.count])

    def sample_calls_by_query(self) -> dict:
        calls: dict[int, int] = {}
        for s in self.spans:
            if s.name == "sample_observations":
                calls[s.query] = calls.get(s.query, 0) + 1
        return calls

    def layer_metrics(self) -> dict:
        """Per-layer counts and times, as (value, unit) pairs."""
        m = {f"{layer}.self_s": 0.0 for layer in LAYERS}
        m.update({k: 0.0 for k in (
            "psf.kernel_evals", "psf.kernel_s", "psf.mass_fraction_calls",
            "psf.mass_fraction_s", "psf.integral_s", "quadrature.calls",
            "quadrature.bins", "quadrature.points", "binning.calls",
            "models.sample_calls", "models.samples", "models.sample_s",
            "models.max_draw_mb", "models.statistic_s", "models.analytic_s",
            "resolution.solves", "resolution.steps", "resolution.mc_solves",
            "resolution.mc_converged", "analysis.sweep_points")})
        for s in self.spans:
            seconds = s.seconds
            m[f"{s.layer}.self_s"] += seconds - s.child
            name = s.name
            if name == "kernel_value":
                m["psf.kernel_evals"] += s.count
                m["psf.kernel_s"] += seconds
            elif name == "mass_fraction":
                m["psf.mass_fraction_calls"] += 1
                m["psf.mass_fraction_s"] += seconds
            elif name in INTEGRALS:
                if s.ancestor(INTEGRALS) is None:
                    m["psf.integral_s"] += seconds
            elif name == "integrate_bins":
                m["quadrature.calls"] += 1
                m["quadrature.bins"] += s.extra
                m["quadrature.points"] += s.count
            elif name in LAYERS["binning"]:
                m["binning.calls"] += 1
                if name == "bin_probabilities" and \
                        s.ancestor(SOLVERS) is not None:
                    m["resolution.steps"] += 1
            elif name == "sample_observations":
                m["models.sample_calls"] += 1
                m["models.samples"] += s.count
                m["models.sample_s"] += seconds
                m["models.max_draw_mb"] = max(m["models.max_draw_mb"],
                                              s.extra / 1e6)
            elif name == "lrt_statistic":
                m["models.statistic_s"] += seconds
            elif name in ANALYTIC:
                if s.ancestor(ANALYTIC) is None:
                    m["models.analytic_s"] += seconds
            elif name in SOLVERS:
                m["resolution.solves"] += 1
                if name == "mc_resolution":
                    m["resolution.mc_solves"] += 1
                    m["resolution.mc_converged"] += bool(s.extra)
            elif name == "simulation_sweep":
                m["analysis.sweep_points"] += s.count
        points = m.pop("quadrature.points")
        mc_solves = m.pop("resolution.mc_solves")
        mc_converged = m.pop("resolution.mc_converged")
        m["quadrature.evals_per_bin"] = _ratio(points, m["quadrature.bins"])
        m["models.samples_per_s"] = _ratio(m["models.samples"],
                                           m["models.sample_s"])
        m["resolution.steps_per_solve"] = _ratio(m["resolution.steps"],
                                                 m["resolution.solves"])
        m["resolution.mc_converged_frac"] = _ratio(mc_converged, mc_solves)
        m["trace.spans"] = float(len(self.spans))
        return {k: (v, unit_of(k)) for k, v in m.items()}


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB-computed"
    if name.endswith(("_frac", "_per_bin", "_per_solve")):
        return "ratio"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _count_integrand(span: Span, args: tuple) -> tuple:
    func, edges = args[0], args[1]
    span.extra = len(edges) - 1

    def counted(x):
        span.count += np.size(x)
        return func(x)

    return (counted,) + tuple(args[1:])


def _kernel_points(span, args, result):
    span.count = int(np.size(args[1]))


def _draw(span, args, result):
    span.count = int(result.size)
    span.extra = int(result.nbytes)


def _converged(span, args, result):
    span.extra = bool(result.diagnostics.get("converged"))


def _sweep_points(span, args, result):
    span.count = len(result[0])


_MEASURES = {
    "kernel_value": _kernel_points,
    "sample_observations": _draw,
    "mc_resolution": _converged,
    "simulation_sweep": _sweep_points,
}
