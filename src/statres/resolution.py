"""Critical separation solvers: the smallest d a level-alpha test resolves.

The statistical resolution of a query is the separation d at which the
optimal level-alpha likelihood-ratio test of "one source" against "two
sources d apart" reaches power 1 - beta. Four routes compute it:

* ``asymptotic_resolution``  closed-form rate with exact kernel integrals,
* ``finite_n_resolution``    closed-form rate with per-bin integrals,
* ``exact_resolution``       a root search on the exact Gaussian-model
                             power,
* ``mc_resolution``          a search on a Monte Carlo power estimate
                             (``models.mc_error_rates``) that starts at
                             the analytic critical separation and, only
                             when the simulation disagrees with it, takes
                             Newton steps on the closed-form power slope
                             inside a bracket it bisects as a fallback.

The two searches share one window, (0, w] with w the widest pair that
keeps both sources inside (0, 1), decided in ``_search``: no resolution
means that no pair inside it reaches power 1 - beta. ``_search`` also
decides the Monte Carlo start: the exact root for hg and vsg, and for
poisson the root of T's two-term Edgeworth power while T's Lyapunov
ratio rho is at most EDGEWORTH_RHO_BOUND, else the CLT root.

The closed-form routes share one small-d law, written out in ``_law``;
each supplies only the kernel information it enters. The homogeneous
model resolves more slowly in eta t than the variance-stabilized model
and Poisson, paying for its signal-independent noise floor.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np

from . import normal
from .binning import PairProfiles, bin_information_sum, finite_n_information
from .exceptions import (ConvergenceWarning, GeometryError,
                         NoResolutionError, ParameterError,
                         UnsupportedMethodError)
from .models import NoiseModel, RngState, mc_error_rates, statistic_law
from .psf import (GAUSSIAN_FWHM_FACTOR, PsfModel, curvature_integral,
                  fisher_integral, psf_fwhm)

ROOT_GRID = 2.0 ** -40
MC_MAX_ITERATIONS = 60
MC_EXPANSION_FACTOR = 1.5
# largest Lyapunov ratio rho of the Poisson T at the CLT start for which
# the Monte Carlo search starts at the Edgeworth root. Nearer a lattice the
# expansion misleads: unbounded, random-scan queries at rho 0.78 and above
# went from 3 probes to 53-64; bounds of 0.5-0.75 kept every scan's worst
# query at the CLT start's (BENCH_poisson_start.json, "bound_choice")
EDGEWORTH_RHO_BOUND = 0.6


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
    gap = (normal.quantile(1.0 - query.alpha)
           + normal.quantile(1.0 - query.beta))
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
    bin_sum = finite_n_information(query.psf, query.x0, query.n,
                                   query.model.kind)
    return _checked_result(_law(query, bin_sum), "finite_n",
                           {"bin_sum": bin_sum})


def _search(query: ResolutionQuery, threshold_mode: str = "analytic"):
    """The search window of the exact and Monte Carlo solves, the root of
    the closed-form power inside it, and the Monte Carlo search's start.

    The window is (0, w] with w = min(x0 / (1 - q), (1 - x0) / q)
    (1 - 1e-9): the widest pair that keeps both sources inside (0, 1),
    less the factor that keeps x1 > 0 at w itself. Warns of mass
    truncation once, up front, when the null source is truncated, so
    that the warning precedes any NoResolutionError. Returns the query's
    ``PairProfiles``, which integrated the null bins once; the gap, its
    closed-form power at d (exact for hg/vsg, CLT for poisson) minus the
    target 1 - beta, which caches every separation it evaluates; w;
    ``_power_root`` of the gap on (0, w]; and the Monte Carlo search's
    start as diagnostics: "start", the law it came from, "start_law",
    and for poisson "rho". Every gap reads T's law at d, one cached
    ``models.statistic_law`` per separation.

    The root's bracket grows from the finite-n law's d for hg and vsg,
    and from the kernel's FWHM for poisson or where that law has no
    information or lies below the grid step ROOT_GRID. A poisson gap
    raises ModelAssumptionError where the pair fills bins that the null
    leaves empty, and for a kernel narrower than a bin the vsg law's d
    lies far past the root, among such pairs.

    For hg and vsg the start is that root and its law "normal": T is
    normal, so the closed form is exact. For poisson the CLT root misses
    T's skewness, so the start is ``_power_root`` of T's two-term
    Edgeworth power (``StatisticLaw.cdf``), bracketed from the CLT root,
    at the threshold of ``threshold_mode``: the CLT threshold the draws
    use in "analytic" mode, the Cornish-Fisher (1 - alpha) null quantile
    in "h0-calibrated" mode. It applies ("edgeworth") only while
    T's Lyapunov ratio rho at the CLT start, the CLT root or else w, is
    at most EDGEWORTH_RHO_BOUND; otherwise, or when the Edgeworth power
    has no root in the window or is not finite there, the start stays at
    the CLT root ("clt"). Without any root the start is w.
    """
    q = query.weight_q
    window = min(query.x0 / (1.0 - q), (1.0 - query.x0) / q) * (1.0 - 1e-9)
    profiles = PairProfiles(query.psf, query.x0, q, query.n)
    profiles.warn_truncation()
    model, t = query.model, query.t

    @functools.cache
    def law(d: float):
        return statistic_law(model, profiles(d), t)

    @functools.cache
    def gap(d: float) -> float:
        return law(d).report(query.alpha).power - (1.0 - query.beta)

    first = math.inf if model.kind == "poisson" else _law(
        query, finite_n_information(query.psf, query.x0, query.n,
                                    model.kind, profiles.null_bins))
    if not ROOT_GRID <= first < math.inf:
        first = psf_fwhm(query.psf)
    root = _power_root(gap, first, window)
    start = {"start": root or window, "start_law": "normal"}
    if model.kind != "poisson":
        return profiles, gap, window, root, start

    def edgeworth_gap(d: float) -> float:
        null = alt = law(d)
        if threshold_mode == "analytic":
            null = alt.normal()
        return query.beta - alt.cdf(1, null.quantile(0, 1.0 - query.alpha))

    start.update(start_law="clt", rho=law(start["start"]).rho)
    if start["rho"] <= EDGEWORTH_RHO_BOUND:
        d = _power_root(edgeworth_gap, start["start"], window)
        if d is not None and math.isfinite(edgeworth_gap(d)):
            start.update(start=d, start_law="edgeworth")
    return profiles, gap, window, root, start


def _power_slope(gap, d: float, window: float) -> float:
    """The slope of the closed-form power at d: the central difference of
    the gap over d (1 +- 1e-3). It costs two gap evaluations and no draw.
    Within 0.1 % of the window's end w it is taken at w / 1.001, so that
    both points stay inside the window.
    """
    d = min(d, window / 1.001)
    return (gap(d * 1.001) - gap(d * 0.999)) / (0.002 * d)


def _power_root(gap, first: float, cap: float) -> float | None:
    """First point of the grid k * ROOT_GRID, at most ``cap``, whose gap is
    >= 0, or None when the gap at the cap is < 0.

    The bracket grows from min(first, cap), the finite-n law's d, the
    kernel's FWHM or a nearby root, by MC_EXPANSION_FACTOR up to the
    first end past the root.
    Illinois steps on k (Dowell & Jarratt, BIT 1971) close it: each probe
    is the grid point nearest the secant root, strictly inside the
    bracket, and an end kept twice in a row has its gap halved. The search
    ends at adjacent grid points, read by sign only, so queries whose gaps
    differ only in the last bits (hg with and without a background
    pedestal) give the same root, and the root does not depend on where
    the bracket started.
    """
    top = math.floor(cap / ROOT_GRID)
    a, b = 0, min(max(1, math.ceil(first / ROOT_GRID)), top)
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
    model's separation measure, on the grid of ``_power_root`` inside the
    search window (0, w] of ``_search``. Not defined for poisson. Raises
    NoResolutionError when even the widest pair the window admits falls
    short of that power. Warns of mass truncation for the root's pair or
    the null alone, not for the wider pairs the bracket probes.
    """
    if query.model.kind == "poisson":
        raise UnsupportedMethodError(
            "exact resolution is not defined for the poisson model; "
            "the vsg value is its large-t reference")
    profiles, gap, _, d, _ = _search(query)
    if d is None:
        raise NoResolutionError(
            "no admissible separation reaches the requested power; "
            "the root lies outside the unit window")
    profiles.warn_truncation((d, 0.0))
    diag = {"iterations": gap.cache_info().currsize, "residual": gap(d)}
    return _checked_result(d, "exact", diag)


def mc_resolution(query: ResolutionQuery, reps: int = 10000,
                  rng: RngState | None = None,
                  threshold_mode: str = "analytic") -> ResolutionResult:
    """Search for the separation whose simulated type-II rate is beta.

    The first draw is at the analytic start d_a of ``_search`` ("normal",
    "edgeworth" or "clt"). It is the answer whenever the estimated type-II
    rate beta_hat lands in the acceptance band [0.95 beta, 1.05 beta).
    Otherwise each missed probe becomes the low end of a bracket if
    beta_hat lies above the band, or its high end if below, and the next
    probe is the Newton step d + (beta_hat - beta) / g'(d), with g' the
    slope of the closed-form power (``_power_slope``): exact for hg/vsg,
    the CLT slope for poisson, and no draw. The step is clamped to
    [d / 1.5, min(1.5 d, w)], with (0, w] the search window of
    ``_search``, which the exact solve shares; a step that leaves the
    bracket is replaced by its midpoint. Without an analytic root in the
    window the search starts at w, and a probe above the band at w raises
    NoResolutionError. The search stops in the band, or after 60 probes
    inside a closed bracket with a ConvergenceWarning.

    Each beta_hat is the type2 of one ``mc_error_rates`` call without the
    level, drawing reps observations per side from a fresh substream
    (phase, probe, side): phase 0 holds the start and the probes made
    before both bracket ends exist (``expansions``), phase 1 those made
    after (``iterations``). The result is deterministic given the
    RngState and independent of threading. Diagnostics record the start
    d_a, its law as "start_law" and for poisson "rho", the trajectory of
    (d, beta_hat) per probe, whose length is
    1 + expansions + iterations, the standard error ``mc_se`` of beta_hat
    and ``d_se`` = mc_se / |g'(d)|, its error carried to the reported d,
    and as "draw" the routes the draws took (``draw_route``):
    "photons", "records", or "photons+records" when the probes' profiles
    fall on both sides of the crossover. The null bins are integrated
    once, for the analytic start, the slopes and every draw alike. A
    MassTruncationWarning is raised for the reported pair or the null
    alone, not for the probes before it. A band that holds no multiple
    of 1/reps raises ParameterError before any draw.
    """
    rng = rng or RngState()
    band_lo = 0.95 * query.beta
    band_hi = 1.05 * query.beta
    # beta_hat is some k / reps; test the multiples next to the band's low
    # end as the band test reads them
    k = math.ceil(band_lo * reps)
    if reps > 0 and not any(band_lo <= j / reps < band_hi
                            for j in (k - 1, k, k + 1)):
        raise ParameterError(
            f"no multiple of 1/reps lies in the type-II band "
            f"[{band_lo:g}, {band_hi:g}) at reps = {reps}, so the search "
            f"cannot converge")
    trajectory: list[tuple[float, float]] = []
    routes: set[str] = set()

    def type2(d: float, key: tuple) -> float:
        report = mc_error_rates(query.model, profiles(d), query.t,
                                query.alpha, reps, rng, threshold_mode, key,
                                routes, level=False)
        trajectory.append((d, report.type2))
        return report.type2

    profiles, gap, window, _, start = _search(query, threshold_mode)
    d = start["start"]
    beta_hat = type2(d, (0, 0))
    # the band is bracketed by lo, whose beta_hat >= band_hi, and hi,
    # whose beta_hat < band_lo; every probe lies strictly inside (lo, hi)
    lo, hi = 0.0, math.inf
    expansions = iterations = 0
    converged = band_lo <= beta_hat < band_hi
    while not converged:
        if beta_hat >= band_hi:
            if d >= window * (1.0 - 1e-12):
                raise NoResolutionError(
                    f"type-II rate {beta_hat} stays above the band even "
                    f"at the widest separation in the window, {window}")
            lo = d
        else:
            hi = d
        bracketed = 0.0 < lo and hi < math.inf
        if bracketed and iterations == MC_MAX_ITERATIONS:
            break
        slope = _power_slope(gap, d, window)
        step = ((beta_hat - query.beta) / slope if slope > 0.0
                else math.copysign(math.inf, beta_hat - query.beta))
        d = min(max(d + step, d / MC_EXPANSION_FACTOR),
                MC_EXPANSION_FACTOR * d, window)
        if not lo < d < hi:
            d = 0.5 * (lo + hi)
        if bracketed:
            iterations += 1
            beta_hat = type2(d, (1, iterations))
        else:
            expansions += 1
            beta_hat = type2(d, (0, expansions))
        converged = band_lo <= beta_hat < band_hi
    if not converged:
        warnings.warn(
            f"Monte Carlo search did not reach the type-II band "
            f"[{band_lo:g}, {band_hi:g}) in {MC_MAX_ITERATIONS} bracketed "
            f"steps; reporting d = {d} with beta_hat = {beta_hat}",
            ConvergenceWarning, stacklevel=2)

    mc_se = math.sqrt(beta_hat * (1.0 - beta_hat) / reps)
    # a closed-form power flat at d (saturated at 1) places d nowhere
    slope = abs(_power_slope(gap, d, window))
    diag = {"iterations": iterations, "expansions": expansions,
            "beta_hat": beta_hat, "band": (band_lo, band_hi), "mc_se": mc_se,
            "d_se": mc_se / slope if slope > 0.0 else math.inf,
            "converged": converged, "threshold_mode": threshold_mode,
            "reps": reps, **start, "trajectory": trajectory,
            "draw": "+".join(sorted(routes))}
    profiles.warn_truncation((d, 0.0))
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
    return normal.cdf(normal.quantile(alpha) + shift)


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
