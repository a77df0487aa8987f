"""Critical separation solvers: the smallest d a level-alpha test resolves.

The statistical resolution of a query is the separation d at which the
optimal level-alpha likelihood-ratio test of "one source" against "two
sources d apart" reaches power 1 - beta. Four routes compute it:

* ``asymptotic_resolution``  closed-form rate with exact kernel integrals,
* ``finite_n_resolution``    closed-form rate with per-bin integrals,
* ``exact_resolution``       a root search on the exact Gaussian-model
                             power,
* ``mc_resolution``          a search on a Monte Carlo power estimate that
                             starts at the analytic critical separation
                             and walks outward, then bisects, only when
                             the simulation disagrees with it.

The closed-form routes share one small-d law, written out in ``_law``;
each supplies only the kernel information it enters. The homogeneous
model resolves more slowly in eta t than the variance-stabilized model
and Poisson, paying for its signal-independent noise floor.
"""

from __future__ import annotations

import functools
import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
from scipy.special import ndtr, ndtri

from .binning import (bin_curvature_integrals, bin_information_sum,
                      pair_profiles)
from .exceptions import (ConvergenceWarning, GeometryError,
                         NoResolutionError, ParameterError,
                         UnsupportedMethodError)
from .models import (NoiseModel, RngState, analytic_report, draw_route,
                     draw_statistic, mc_threshold)
from .psf import (GAUSSIAN_FWHM_FACTOR, PsfModel, curvature_integral,
                  fisher_integral, psf_fwhm)

ROOT_GRID = 2.0 ** -40
MC_MAX_ITERATIONS = 60
MC_EXPANSION_FACTOR = 1.5
MC_WALK_FACTOR = 1.05
MC_WINDOW_MARGIN = 0.05
MC_FWHM_CAP = 4.0


@dataclass(frozen=True)
class ResolutionQuery:
    """Everything a resolution computation needs.

    The background pedestal lives in ``psf.background`` and the detector
    thinning in ``model.thinning``; they are not duplicated here.
    """

    model: NoiseModel
    psf: PsfModel
    x0: float = 0.5
    weight_q: float = 0.5
    n: int = 20
    t: float = 20.0
    alpha: float = 0.1
    beta: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.alpha < 0.5:
            raise ParameterError("alpha must lie in (0, 1/2)")
        if not 0.0 < self.beta < 0.5:
            raise ParameterError("beta must lie in (0, 1/2)")
        if not 1.0 <= self.t < math.inf:
            raise ParameterError(
                "illumination time t must be finite and >= 1")
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ParameterError("bin count n must be an integer >= 1")
        if not 0.0 < self.x0 < 1.0:
            raise GeometryError("x0 must lie in (0, 1)")
        if not 0.0 < self.weight_q < 1.0:
            raise ParameterError("weight_q must lie in (0, 1)")


@dataclass(frozen=True)
class ResolutionResult:
    """A critical separation, the method that produced it, diagnostics."""

    d: float
    method: str
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _law(query: ResolutionQuery, information: float) -> float:
    """The small-d law: the critical separation of a query whose kernel
    carries the information I,

        d = sqrt(2 / (q (1 - q))) sqrt(z_(1-alpha) + z_(1-beta))
            I^(-1/4) tau^(-k),    tau = eta t,

    with k = 1/2 for hg and k = 1/4 for poisson and vsg, so thinning
    enters only through eta t. For poisson and vsg, I is the Fisher-type
    information sum_i (int_i h'')^2 / int_i (h + background), whose
    large-n limit is the integral of h''^2 / (h + background); for hg it
    is sum_i (int_i h'')^2, whose limit is the integral of h''^2 over n.
    No information (a kernel too narrow for the bins) gives d = inf.
    """
    if not information > 0.0:
        return math.inf
    q = query.weight_q
    gap = float(ndtri(1.0 - query.alpha) + ndtri(1.0 - query.beta))
    d = (math.sqrt(2.0) / math.sqrt(q * (1.0 - q)) * math.sqrt(gap)
         * information ** -0.25)
    tau = query.model.thinning * query.t
    return d / math.sqrt(tau) if query.model.kind == "hg" else d * tau ** -0.25


def _checked_result(d: float, method: str, diag: dict) -> ResolutionResult:
    if not 0.0 < d < 1.0:
        raise NoResolutionError(
            f"critical separation {d} does not fit the unit window")
    return ResolutionResult(d=float(d), method=method, diagnostics=diag)


def asymptotic_resolution(query: ResolutionQuery) -> ResolutionResult:
    """Large-t resolution: ``_law`` with the exact limit integrals.

    The hg value is guaranteed only while n grows slower than (eta t)^2
    (flagged otherwise).
    """
    diag: dict[str, Any] = {}
    if query.model.kind == "hg":
        integral = curvature_integral(query.psf, x0=query.x0)
        d = _law(query, integral / query.n)
        tau = query.model.thinning * query.t
        if query.n >= tau * tau:
            diag["note"] = ("n >= (eta t)^2: outside the hg guarantee "
                            "regime, value extrapolated")
    else:
        integral = fisher_integral(query.psf, x0=query.x0)
        d = _law(query, integral)
    diag["integral"] = integral
    return _checked_result(d, "asymptotic", diag)


def finite_n_resolution(query: ResolutionQuery) -> ResolutionResult:
    """Resolution from the small-d expansion with per-bin integrals.

    Refines the asymptotic law by replacing the limit integrals with
    their n-bin Riemann forms; converges to the asymptotic value as the
    bins refine. Not defined for poisson (the vsg value is its large-t
    reference).
    """
    if query.model.kind == "poisson":
        raise UnsupportedMethodError(
            "finite-n resolution is not defined for the poisson model; "
            "the vsg value is its large-t reference")
    if query.model.kind == "hg":
        curvature_bins = bin_curvature_integrals(query.psf, query.x0, query.n)
        bin_sum = float(np.einsum("i,i->", curvature_bins, curvature_bins))
    else:
        bin_sum = bin_information_sum(query.psf, query.x0, query.n)
    return _checked_result(_law(query, bin_sum), "finite_n",
                           {"bin_sum": bin_sum})


def _geometry_limit(x0: float, weight_q: float, margin: float = 0.0) -> float:
    """Largest d keeping both sources inside (margin, 1 - margin)."""
    return min((x0 - margin) / (1.0 - weight_q),
               (1.0 - margin - x0) / weight_q)


def _power_gap(query: ResolutionQuery, profiles) -> Callable[[float], float]:
    """Closed-form power at separation d minus the target 1 - beta, for one
    query: exact for hg/vsg, CLT for poisson.

    ``profiles`` is the query's ``pair_profiles``, which integrated the
    null bins once. The gap of every separation evaluated is cached.
    """

    @functools.cache
    def gap(d: float) -> float:
        return (analytic_report(query.model, profiles(d), query.t,
                                query.alpha).power - (1.0 - query.beta))

    return gap


def _power_root(gap, fwhm: float, cap: float) -> float | None:
    """First point of the grid k * ROOT_GRID, at most ``cap``, whose gap is
    >= 0, or None when the gap at the cap is < 0.

    The bracket grows from min(FWHM, cap) by MC_EXPANSION_FACTOR up to the
    first end past the root. Illinois steps on k (Dowell & Jarratt, BIT
    1971) close it: each probe is the grid point nearest the secant root,
    strictly inside the bracket, and an end kept twice in a row has its
    gap halved. The search ends at adjacent grid points, read by sign only,
    so queries whose gaps differ only in the last bits (hg with and
    without a background pedestal) give the same root.
    """
    top = math.floor(cap / ROOT_GRID)
    a, b = 0, min(max(1, math.ceil(fwhm / ROOT_GRID)), top)
    while gap(b * ROOT_GRID) < 0.0:
        if b == top:
            return None
        a, b = b, min(math.ceil(MC_EXPANSION_FACTOR * b), top)
    ga, gb = gap(a * ROOT_GRID), gap(b * ROOT_GRID)
    kept = 0  # +1: b was kept by the last step, -1: a was
    while b - a > 1:
        k = min(max(round(b - gb * (b - a) / (gb - ga)), a + 1), b - 1)
        gk = gap(k * ROOT_GRID)
        if gk < 0.0:
            if kept > 0:
                gb *= 0.5
            a, ga, kept = k, gk, 1
        else:
            if kept < 0:
                ga *= 0.5
            b, gb, kept = k, gk, -1
    return b * ROOT_GRID


def exact_resolution(query: ResolutionQuery) -> ResolutionResult:
    """Root search on the exact power of the Gaussian-model tests.

    Finds the d at which the level-alpha test has power exactly 1 - beta,
    the root of m(d) = (z_(1-alpha) + z_(1-beta))^2 / 2 with m the
    model's separation measure, on the grid of ``_power_root``. Not
    defined for poisson. Raises NoResolutionError when even the widest
    pair the window admits falls short of that power.
    """
    if query.model.kind == "poisson":
        raise UnsupportedMethodError(
            "exact resolution is not defined for the poisson model; "
            "the vsg value is its large-t reference")
    hi = min(0.5, _geometry_limit(query.x0, query.weight_q)) * (1.0 - 1e-9)
    profiles = pair_profiles(query.psf, query.x0, query.weight_q, query.n)
    gap = _power_gap(query, profiles)
    d = _power_root(gap, psf_fwhm(query.psf), hi)
    if d is None:
        raise NoResolutionError(
            "no admissible separation reaches the requested power; "
            "the root lies outside the unit window")
    diag = {"iterations": gap.cache_info().currsize, "residual": gap(d)}
    return _checked_result(d, "exact", diag)


def mc_resolution(query: ResolutionQuery, reps: int = 10000,
                  rng: RngState | None = None,
                  threshold_mode: str = "analytic") -> ResolutionResult:
    """Search for the separation whose simulated type-II rate is beta.

    The first draw is at the analytic critical separation d_a, where the
    closed-form power (exact for hg/vsg, CLT for poisson) reaches
    1 - beta; it is the answer whenever the estimated type-II rate
    beta_hat lands in the acceptance band [0.95 beta, 1.05 beta). Otherwise
    the search walks outward from d_a in geometric steps x1.05, x1.05^2,
    x1.05^4, ..., up while beta_hat stays above the band (capped by
    4 FWHM and by keeping both sources inside (0.05, 0.95)) or down while
    it stays below, until a probe lands in the band or the band is
    bracketed; bisection of the bracket then stops in the band or after
    60 iterations, with a ConvergenceWarning in the latter case.

    Each estimate draws reps observations from a fresh substream indexed
    by (phase, iteration, side): phase 0 holds the start and the outward
    steps, phase 1 the bisection. The result is deterministic given the
    RngState and independent of threading. Diagnostics record the start
    d_a, the trajectory of (d, beta_hat) per probe, whose length is
    1 + expansions + iterations, and as "draw" the route of the draws
    (``models.draw_route``): "photons", "records", or "photons+records"
    when the probes' profiles fall on both sides of the crossover. The
    null bins are integrated once, for the analytic start and every draw
    alike.
    """
    rng = rng or RngState()
    band_lo = 0.95 * query.beta
    band_hi = 1.05 * query.beta
    trajectory: list[tuple[float, float]] = []
    routes: set[str] = set()
    model, t = query.model, query.t

    def draw(probs, side: int, key: tuple) -> np.ndarray:
        routes.add(draw_route(model, probs.p1 if side else probs.p0, t))
        return draw_statistic(model, probs, t, side, reps, rng, key)

    def type2(d: float, phase: int, iteration: int) -> float:
        probs = profiles(d)
        threshold = mc_threshold(
            model, probs, t, query.alpha, threshold_mode,
            lambda: draw(probs, 0, (phase, iteration)))
        t1 = draw(probs, 1, (phase, iteration))
        beta_hat = float(np.mean(t1 <= threshold))
        trajectory.append((d, beta_hat))
        return beta_hat

    fwhm = psf_fwhm(query.psf)
    cap = min(MC_FWHM_CAP * fwhm,
              _geometry_limit(query.x0, query.weight_q, MC_WINDOW_MARGIN))
    if cap <= 0.0:
        raise GeometryError(
            "x0 leaves no room for two sources inside (0.05, 0.95)")

    profiles = pair_profiles(query.psf, query.x0, query.weight_q, query.n)
    start = _power_root(_power_gap(query, profiles), fwhm, cap) or cap
    d = start
    beta_hat = type2(d, 0, 0)
    # walk outward until a probe lands in the band or the band is
    # bracketed: beta_hat(lo) >= band_hi and beta_hat(hi) < band_lo
    above = beta_hat >= band_hi
    expansions, factor = 0, MC_WALK_FACTOR
    while beta_hat >= band_hi if above else beta_hat < band_lo:
        if above and d >= cap * (1.0 - 1e-12):
            raise NoResolutionError(
                f"type-II rate {beta_hat} stays above the band even "
                f"at the separation cap {cap}")
        last, d = d, min(factor * d, cap) if above else d / factor
        lo, hi = sorted((last, d))
        factor *= factor
        expansions += 1
        beta_hat = type2(d, 0, expansions)

    converged = band_lo <= beta_hat < band_hi
    iterations = 0
    while not converged and iterations < MC_MAX_ITERATIONS:
        iterations += 1
        d = 0.5 * (lo + hi)
        beta_hat = type2(d, 1, iterations)
        if band_lo <= beta_hat < band_hi:
            converged = True
        elif beta_hat >= band_hi:
            lo = d
        else:
            hi = d
    if not converged:
        warnings.warn(
            f"Monte Carlo search did not reach the type-II band "
            f"[{band_lo:g}, {band_hi:g}) in {MC_MAX_ITERATIONS} bisection "
            f"steps; reporting d = {d} with beta_hat = {beta_hat}",
            ConvergenceWarning, stacklevel=2)

    diag = {"iterations": iterations, "expansions": expansions,
            "beta_hat": beta_hat, "band": (band_lo, band_hi),
            "mc_se": math.sqrt(beta_hat * (1.0 - beta_hat) / reps),
            "converged": converged, "threshold_mode": threshold_mode,
            "reps": reps, "start": start, "trajectory": trajectory,
            "draw": "+".join(sorted(routes))}
    return _checked_result(d, "monte_carlo", diag)


def acuna_power(psf: PsfModel, x0: float, gamma: float, n: int, t: float,
                d: float, alpha: float) -> float:
    """Closed-form power of the equal-weight variance-stabilized test.

    Phi(z_alpha + sqrt(sum_i (int_i h'')^2 / int_i (h + gamma))
    * d^2 sqrt(t) / 8). The pedestal is the explicit gamma argument; any
    background already on the psf is replaced by it. Inverts exactly to
    finite_n_resolution for the vsg model at weight 1/2.
    """
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")
    if d < 0.0:
        raise ParameterError("separation d must be >= 0")
    if not t >= 1.0:
        raise ParameterError("illumination time t must be >= 1")
    bin_sum = bin_information_sum(replace(psf, background=gamma), x0, n)
    shift = math.sqrt(bin_sum) * d * d * math.sqrt(t) / 8.0
    return float(ndtr(float(ndtri(alpha)) + shift))


def detection_boundary(model: NoiseModel, fwhm: float, t: float, n: int,
                       alpha: float, beta: float,
                       weight_q: float = 0.5) -> float:
    """Leading-order critical separation for a Gaussian kernel.

    ``_law`` with the small-width limits of the kernel integrals, which
    make d a pure power law in the width: hg grows as fwhm^(5/4) and
    poisson/vsg are exactly linear in fwhm.
    """
    if not fwhm > 0.0:
        raise ParameterError("fwhm must be > 0")
    query = ResolutionQuery(model=model,
                            psf=PsfModel.gaussian_from_fwhm(fwhm),
                            weight_q=weight_q, n=n, t=t,
                            alpha=alpha, beta=beta)
    sigma = fwhm / GAUSSIAN_FWHM_FACTOR
    if model.kind == "hg":
        curvature = 3.0 / (8.0 * math.sqrt(math.pi)) * sigma ** -5.0
        return _law(query, curvature / n)
    return _law(query, 2.0 * sigma ** -4.0)


def resolve_query(query: ResolutionQuery, method: str = "asymptotic",
                  reps: int = 10000, rng: RngState | None = None,
                  threshold_mode: str = "analytic") -> ResolutionResult:
    """Dispatch a query to the named method.

    finite-n and exact answer a poisson query with the vsg value, its
    large-t reference, and set ``diagnostics["substitution"]``.
    """
    if query.model.kind == "poisson" and method in ("finite-n", "exact"):
        vsg = replace(query, model=replace(query.model, kind="vsg"))
        result = resolve_query(vsg, method)
        result.diagnostics["substitution"] = "vsg-solver"
        return result
    if method == "asymptotic":
        return asymptotic_resolution(query)
    if method == "finite-n":
        return finite_n_resolution(query)
    if method == "exact":
        return exact_resolution(query)
    if method == "mc":
        return mc_resolution(query, reps=reps, rng=rng,
                             threshold_mode=threshold_mode)
    raise ParameterError(f"unknown method {method!r}")
