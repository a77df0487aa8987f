"""Critical separation solvers: the smallest d a level-alpha test resolves.

The statistical resolution of a query is the separation d at which the
optimal level-alpha likelihood-ratio test of "one source" against "two
sources d apart" reaches power 1 - beta. Four routes compute it:

* ``asymptotic_resolution``  closed-form rate with exact kernel integrals,
* ``finite_n_resolution``    closed-form rate with per-bin integrals,
* ``exact_resolution``       Brent's method on the exact Gaussian-model
                             power,
* ``mc_resolution``          a search on a Monte Carlo power estimate that
                             starts at the analytic critical separation
                             and walks outward, then bisects, only when
                             the simulation disagrees with it.

The two Gaussian models scale differently: the variance-stabilized model
(and Poisson, which shares its asymptotics) resolves at order t^(-1/4)
independent of the bin count, while the homogeneous model resolves at
order t^(-1/2) n^(1/4), paying for its signal-independent noise floor.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from typing import Any

import numpy as np
from scipy.special import ndtr, ndtri

from .binning import (BinProbabilities, bin_curvature_integrals,
                      bin_information_sum, pair_profiles)
from .exceptions import (ConvergenceWarning, GeometryError,
                         NoResolutionError, ParameterError,
                         UnsupportedMethodError)
from .models import (NoiseModel, RngState, analytic_report, draw_statistic,
                     mc_threshold)
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


def _quantile_gap(alpha: float, beta: float) -> float:
    """z_(1-alpha) + z_(1-beta), the quantile span the test must cover."""
    gap = float(ndtri(1.0 - alpha) + ndtri(1.0 - beta))
    if gap <= 0.0:
        raise ParameterError("alpha and beta leave no quantile gap")
    return gap


def _prefactor(query: ResolutionQuery) -> float:
    q = query.weight_q
    return (math.sqrt(2.0) / math.sqrt(q * (1.0 - q))
            * math.sqrt(_quantile_gap(query.alpha, query.beta)))


def _checked_result(d: float, method: str, diag: dict) -> ResolutionResult:
    if not 0.0 < d < 1.0:
        raise NoResolutionError(
            f"critical separation {d} does not fit the unit window")
    return ResolutionResult(d=float(d), method=method, diagnostics=diag)


def asymptotic_resolution(query: ResolutionQuery) -> ResolutionResult:
    """Large-t resolution with exact kernel integrals.

    Poisson and vsg share the t^(-1/4) law through the Fisher-type
    integral of h''^2 / (h + background); hg follows the slower
    t^(-1/2) n^(1/4) law through the squared-curvature integral and is
    guaranteed only while n grows slower than t^2 (flagged otherwise).
    """
    eta = query.model.thinning
    t = query.t
    diag: dict[str, Any] = {}
    if query.model.kind == "hg":
        integral = curvature_integral(query.psf, x0=query.x0)
        d = (_prefactor(query) * (eta ** 2 * integral) ** -0.25
             / math.sqrt(t) * query.n ** 0.25)
        if query.n >= t * t:
            diag["note"] = ("n >= t^2: outside the hg guarantee regime, "
                            "value extrapolated")
    else:
        integral = fisher_integral(query.psf, x0=query.x0)
        d = _prefactor(query) * (eta * integral) ** -0.25 * t ** -0.25
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
    tau = query.model.thinning * query.t
    if query.model.kind == "hg":
        curvature_bins = bin_curvature_integrals(query.psf, query.x0, query.n)
        bin_sum = float(curvature_bins @ curvature_bins)
    else:
        bin_sum = bin_information_sum(query.psf, query.x0, query.n)
    # a kernel too narrow for the bins leaves no information: d is infinite
    d = _prefactor(query) * (bin_sum ** -0.25 if bin_sum > 0.0 else math.inf)
    d = d / math.sqrt(tau) if query.model.kind == "hg" else d * tau ** -0.25
    return _checked_result(d, "finite_n", {"bin_sum": bin_sum})


def _geometry_limit(x0: float, weight_q: float, margin: float = 0.0) -> float:
    """Largest d keeping both sources inside (margin, 1 - margin)."""
    return min((x0 - margin) / (1.0 - weight_q),
               (1.0 - margin - x0) / weight_q)


class _PowerGap:
    """Closed-form power at separation d minus the target 1 - beta, for one
    query: exact for hg/vsg, CLT for poisson.

    The null bins are integrated once per query, and ``known`` keeps the
    gap of every separation evaluated. ``crossing`` keeps the smallest
    point of the root grid evaluated whose gap is >= 0, with its bin
    probabilities: once ``_power_root`` ends, the root it reports.
    """

    def __init__(self, query: ResolutionQuery):
        self.query = query
        self.profiles = pair_profiles(query.psf, query.x0, query.weight_q,
                                      query.n)
        self.known: dict[float, float] = {}
        self.crossing: tuple[float, BinProbabilities] | None = None

    def __call__(self, d: float) -> float:
        if d not in self.known:
            self.known[d] = self._evaluate(d)
        return self.known[d]

    def _evaluate(self, d: float) -> float:
        query = self.query
        if d == 0.0:
            # the pair coincides with the single source: power is the level
            return query.alpha - (1.0 - query.beta)
        probs = self.profiles(d)
        gap = (analytic_report(query.model, probs, query.t,
                               query.alpha).power - (1.0 - query.beta))
        if (gap >= 0.0 and (d / ROOT_GRID).is_integer()
                and (self.crossing is None or d < self.crossing[0])):
            self.crossing = (d, probs)
        return gap


def _power_root(gap: _PowerGap, lo: float,
                hi: float) -> tuple[float, float, int]:
    """Root of the power gap in the bracket [lo, hi] by Brent's method.

    The root reported is the first point of the grid k * ROOT_GRID whose
    gap is >= 0. Brent's method finds it within a step or two; the last
    steps read only the sign of the gap, so queries whose gaps agree in
    exact arithmetic but not in the last bits (hg with and without a
    background pedestal) give the same root.

    Returns the root, its gap and the number of gap evaluations, those
    made before the call (the bracket ends among them) included.
    """
    from scipy.optimize import brentq

    k = math.floor(brentq(gap, lo, hi, xtol=ROOT_GRID) / ROOT_GRID)
    while gap(k * ROOT_GRID) >= 0.0:
        k -= 1
    while gap((k + 1) * ROOT_GRID) < 0.0:
        k += 1
    root = (k + 1) * ROOT_GRID
    return root, gap(root), len(gap.known)


def exact_resolution(query: ResolutionQuery) -> ResolutionResult:
    """Brent's method on the exact power of the Gaussian-model tests.

    Finds the d at which the level-alpha test has power exactly 1 - beta,
    the root of m(d) = (z_(1-alpha) + z_(1-beta))^2 / 2 with m the
    model's separation measure. Not defined for poisson. Raises
    NoResolutionError when even the widest pair the window admits falls
    short of that power.
    """
    if query.model.kind == "poisson":
        raise UnsupportedMethodError(
            "exact resolution is not defined for the poisson model; "
            "the vsg value is its large-t reference")
    hi = min(0.5, _geometry_limit(query.x0, query.weight_q)) * (1.0 - 1e-9)
    gap = _PowerGap(query)
    if gap(hi) < 0.0:
        raise NoResolutionError(
            "no admissible separation reaches the requested power; "
            "the root lies outside the unit window")
    d, residual, evaluations = _power_root(gap, 0.0, hi)
    diag = {"iterations": evaluations, "residual": residual}
    return _checked_result(d, "exact", diag)


def _analytic_start(gap: _PowerGap, fwhm: float, cap: float) -> float:
    """Separation where the closed-form power reaches 1 - beta, or the cap.

    The bracket grows from min(FWHM, cap) by the Monte Carlo expansion
    factor and stops at the first end past the root, so no wider
    separation is ever evaluated.
    """
    lo, hi = 0.0, min(fwhm, cap)
    while gap(hi) < 0.0:
        if hi >= cap * (1.0 - 1e-12):
            return cap
        lo, hi = hi, min(MC_EXPANSION_FACTOR * hi, cap)
    return _power_root(gap, lo, hi)[0]


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
    d_a and the trajectory of (d, beta_hat) per probe, whose length is
    1 + expansions + iterations.
    """
    rng = rng or RngState()
    band_lo = 0.95 * query.beta
    band_hi = 1.05 * query.beta
    trajectory: list[tuple[float, float]] = []
    model, t = query.model, query.t

    def type2(d: float, phase: int, iteration: int) -> float:
        # the first draw is at d_a, which the analytic start has integrated
        if gap.crossing is not None and gap.crossing[0] == d:
            probs = gap.crossing[1]
        else:
            probs = gap.profiles(d)
        threshold = mc_threshold(
            model, probs, t, query.alpha, threshold_mode,
            lambda: draw_statistic(model, probs, t, 0, reps,
                                   rng.generator(phase, iteration, 0)))
        t1 = draw_statistic(model, probs, t, 1, reps,
                            rng.generator(phase, iteration, 1))
        beta_hat = float(np.mean(t1 <= threshold))
        trajectory.append((d, beta_hat))
        return beta_hat

    fwhm = psf_fwhm(query.psf)
    cap = min(MC_FWHM_CAP * fwhm,
              _geometry_limit(query.x0, query.weight_q, MC_WINDOW_MARGIN))
    if cap <= 0.0:
        raise GeometryError(
            "x0 leaves no room for two sources inside (0.05, 0.95)")

    gap = _PowerGap(query)
    start = _analytic_start(gap, fwhm, cap)
    d = start
    beta_hat = type2(d, 0, 0)
    # walk outward until a probe lands in the band or the band is
    # bracketed: beta_hat(lo) >= band_hi and beta_hat(hi) < band_lo
    expansions = 0
    factor = MC_WALK_FACTOR
    if beta_hat >= band_hi:
        while beta_hat >= band_hi:
            if d >= cap * (1.0 - 1e-12):
                raise NoResolutionError(
                    f"type-II rate {beta_hat} stays above the band even "
                    f"at the separation cap {cap}")
            lo, d = d, min(factor * d, cap)
            factor *= factor
            expansions += 1
            beta_hat = type2(d, 0, expansions)
        hi = d
    elif beta_hat < band_lo:
        while beta_hat < band_lo:
            hi, d = d, d / factor
            factor *= factor
            expansions += 1
            beta_hat = type2(d, 0, expansions)
        lo = d

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
            "reps": reps, "start": start, "trajectory": trajectory}
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

    Small-width limits of the kernel integrals give pure power laws:
    hg resolves at C sqrt(z) t^(-1/2) n^(1/4) fwhm^(5/4) and
    poisson/vsg at C' sqrt(z) t^(-1/4) fwhm, exactly linear in fwhm.
    Thinning enters through eta * t as everywhere else.
    """
    if not fwhm > 0.0:
        raise ParameterError("fwhm must be > 0")
    query = ResolutionQuery(model=model,
                            psf=PsfModel.gaussian_from_fwhm(fwhm),
                            weight_q=weight_q, n=n, t=t,
                            alpha=alpha, beta=beta)
    tau = model.thinning * t
    sigma = fwhm / GAUSSIAN_FWHM_FACTOR
    if model.kind == "hg":
        integral = 3.0 / (8.0 * math.sqrt(math.pi)) * sigma ** -5.0
        return (_prefactor(query) * integral ** -0.25
                / math.sqrt(tau) * n ** 0.25)
    integral = 2.0 * sigma ** -4.0
    return _prefactor(query) * integral ** -0.25 * tau ** -0.25


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
