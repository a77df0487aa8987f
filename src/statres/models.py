"""Observation models and likelihood-ratio tests for one source versus two.

Given bin intensities lambda_i = eta * t * p_i, three models of the photon
record Y = (Y_1, ..., Y_n) are supported:

* ``poisson``  Y_i ~ Poi(lambda_i), the physical counting model.
* ``vsg``      Y_i ~ N(2 sqrt(lambda_i), 1), the variance-stabilized
               Gaussian limit of root counts.
* ``hg``       Y_i ~ N(lambda_i, 1), homogeneous Gaussian readings with
               unit noise independent of the signal.

The detection efficiency ``thinning`` (eta) enters every formula only
through the product eta * t.

For the two Gaussian models the log-likelihood-ratio statistic T of the
null bin profile p0 against the alternative p1 is exactly normal,

    T ~ N(-m, 2m) under the null,    T ~ N(+m, 2m) under the alternative,

with m the model's separation measure (``hg_mu`` or ``vsg_nu``), so level
and power have closed forms. The Poisson statistic sum(Y_i log(p1_i/p0_i))
is treated by a central-limit report or by Monte Carlo.

A Monte Carlo draw (``draw_statistic``) reduces each chunk of at most
SAMPLE_CHUNK_VALUES variates to T before it draws the next, so it holds
one chunk of records plus reps values of T, whatever reps is.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr, ndtri

from .binning import BinProbabilities
from .exceptions import (ModelAssumptionError, ParameterError,
                         UnsupportedMethodError)

MODEL_KINDS = ("poisson", "vsg", "hg")
# variates per chunk of a Monte Carlo draw: bounds the records a draw of
# T holds, and the integer temporary of a Poisson draw, to 8 MB each
# whatever reps is
SAMPLE_CHUNK_VALUES = 1 << 20


@dataclass(frozen=True)
class NoiseModel:
    """Observation model kind plus detector thinning eta in (0, 1]."""

    kind: str
    thinning: float = 1.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ParameterError(f"unknown model kind {self.kind!r}")
        if not 0.0 < self.thinning <= 1.0:
            raise ParameterError("thinning eta must lie in (0, 1]")


@dataclass(frozen=True)
class RngState:
    """Reproducible random state: a root seed plus a stream index.

    Generators derive from numpy's SeedSequence with the stream (and any
    further subkeys) as the spawn key, so draws are independent of worker
    count and execution order.
    """

    seed: int = 0
    stream: int = 0

    def __post_init__(self):
        if self.seed < 0 or self.stream < 0:
            raise ParameterError("seed and stream must be >= 0")

    def generator(self, *subkeys: int) -> np.random.Generator:
        ss = np.random.SeedSequence(self.seed,
                                    spawn_key=(self.stream, *subkeys))
        return np.random.default_rng(ss)


@dataclass(frozen=True)
class TestReport:
    """Level, power and threshold of one test; mc_se = 0 for closed forms."""

    threshold: float
    level: float
    power: float
    mc_se: float = 0.0
    reps: int = 0


def normal_cdf(x) -> np.ndarray:
    """Standard normal distribution function."""
    return ndtr(np.asarray(x, dtype=float))


def normal_quantile(p) -> np.ndarray:
    """Standard normal quantile function; requires p strictly in (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ParameterError("quantile argument must lie in (0, 1)")
    return ndtri(p)


def _check_t(t: float) -> None:
    if not 1.0 <= t < math.inf:
        raise ParameterError("illumination time t must be finite and >= 1")


def _resolve_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngState):
        return rng.generator()
    raise ParameterError("rng must be an RngState or numpy Generator")


def _chunk_rows(n: int) -> int:
    """Rows of n values in one chunk of about SAMPLE_CHUNK_VALUES."""
    return max(1, SAMPLE_CHUNK_VALUES // max(1, n))


def sample_observations(model: NoiseModel, p, t: float, rng,
                        reps: int | None = None,
                        reduce: Callable | None = None) -> np.ndarray:
    """Draw one observation vector (or a reps-by-n matrix) for bin
    probabilities p under the given model.

    Deterministic given the RngState: repeated calls with the same state
    return the same draws. Rows are drawn in chunks of about
    SAMPLE_CHUNK_VALUES variates, so a Poisson draw needs one chunk of
    integer counts as its only temporary. The generator fills the rows in
    order, so the result equals a single full-size draw.

    With ``reduce``, each chunk of rows is drawn into one reused buffer
    and handed to ``reduce``, which maps it to one value per row; the
    result is the vector of those values (length reps), and the draw never
    holds more than one chunk of records.
    """
    _check_t(t)
    p = np.asarray(p, dtype=float)
    lam = model.thinning * t * p.ravel()
    gen = _resolve_generator(rng)
    if model.kind == "poisson":
        if np.any(lam <= 0.0):
            raise ModelAssumptionError(
                "poisson model requires strictly positive bin means")
    elif np.any(lam < 0.0):
        raise ModelAssumptionError("bin intensities must be >= 0")
    shift = 2.0 * np.sqrt(lam) if model.kind == "vsg" else lam
    rows = 1 if reps is None else reps
    step = _chunk_rows(lam.size)
    if reduce is None:
        out = buffer = np.empty((rows, lam.size))
    else:
        out, buffer = np.empty(rows), np.empty((min(step, rows), lam.size))
    for first in range(0, rows, step):
        size = min(step, rows - first)
        start = first if reduce is None else 0
        block = buffer[start:start + size]
        if model.kind == "poisson":
            block[...] = gen.poisson(lam, size=block.shape)
        else:
            gen.standard_normal(out=block)
            block += shift
        if reduce is not None:
            out[first:first + size] = reduce(block)
    return out.reshape(p.shape) if reps is None and reduce is None else out


def _poisson_bins(probs: BinProbabilities) -> BinProbabilities:
    """The bins the Poisson LRT uses: a bin without mass under both
    hypotheses drops out, one without mass under one of them raises."""
    keep = (probs.p0 != 0.0) | (probs.p1 != 0.0)
    p0, p1 = probs.p0[keep], probs.p1[keep]
    if np.any(p0 <= 0.0) or np.any(p1 <= 0.0):
        raise ModelAssumptionError(
            "poisson likelihood ratio requires p0 and p1 to be both "
            "positive or both zero in every bin")
    return BinProbabilities(n=p0.size, p0=p0, p1=p1)


def _statistic_terms(model: NoiseModel, probs: BinProbabilities, t: float):
    """Constant and per-bin coefficient of the LRT statistic T = c + Y @ a
    (0 in a Poisson bin without mass under both hypotheses)."""
    tau = model.thinning * t
    p0, p1 = probs.p0, probs.p1
    if model.kind == "hg":
        coeff = tau * (p1 - p0)
        const = 0.5 * tau ** 2 * (p0 @ p0 - p1 @ p1)
        return const, coeff
    if model.kind == "vsg":
        if np.any(p0 < 0.0) or np.any(p1 < 0.0):
            raise ModelAssumptionError("vsg model requires p >= 0")
        coeff = 2.0 * math.sqrt(tau) * (np.sqrt(p1) - np.sqrt(p0))
        const = 2.0 * tau * (np.sum(p0) - np.sum(p1))
        return const, coeff
    kept = _poisson_bins(probs)
    coeff = np.zeros(p0.shape)
    coeff[(p0 != 0.0) | (p1 != 0.0)] = np.log(kept.p1 / kept.p0)
    return 0.0, coeff


def lrt_statistic(model: NoiseModel, probs: BinProbabilities, t: float, y):
    """Log-likelihood-ratio statistic of p1 against p0 for observations y.

    Accepts a single observation vector of length n (returns a float) or a
    matrix with one observation per row (returns a vector). A matrix is
    reduced in the row chunks of a draw (``_chunk_rows``): BLAS may round
    a row's sum differently with the number of rows in one product, and
    this way T of a kept record matrix equals, bit for bit, the T that
    ``draw_statistic`` reduces chunk by chunk from the same draw.
    """
    _check_t(t)
    const, coeff = _statistic_terms(model, probs, t)
    y = np.asarray(y, dtype=float)
    if y.ndim == 1:
        return float(const + y @ coeff)
    step = _chunk_rows(coeff.size)
    stat = np.empty(y.shape[0])
    for first in range(0, y.shape[0], step):
        stat[first:first + step] = const + y[first:first + step] @ coeff
    return stat


def hg_mu(probs: BinProbabilities, t: float, eta: float = 1.0) -> float:
    """Separation measure of the homogeneous Gaussian test."""
    tau = eta * t
    diff = probs.p1 - probs.p0
    return 0.5 * tau ** 2 * float(diff @ diff)


def vsg_nu(probs: BinProbabilities, t: float, eta: float = 1.0) -> float:
    """Separation measure of the variance-stabilized Gaussian test."""
    tau = eta * t
    diff = np.sqrt(probs.p1) - np.sqrt(probs.p0)
    return 2.0 * tau * float(diff @ diff)


def separation_measure(model: NoiseModel, probs: BinProbabilities,
                       t: float) -> float:
    """The model's m with thinning applied; Poisson has no closed form."""
    if model.kind == "hg":
        return hg_mu(probs, t, eta=model.thinning)
    if model.kind == "vsg":
        return vsg_nu(probs, t, eta=model.thinning)
    raise UnsupportedMethodError(
        "no closed-form separation measure for the poisson model; "
        "use poisson_clt_report or mc_error_rates")


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")


def statistic_moments(model: NoiseModel, probs: BinProbabilities,
                      t: float) -> tuple[float, float, float, float]:
    """Mean and variance (e0, v0, e1, v1) of T under the null and the
    alternative: (-m, 2m, m, 2m) for hg and vsg with m the separation
    measure, the exact moments of T = sum(Y_i a_i) for poisson."""
    _check_t(t)
    if model.kind != "poisson":
        m = separation_measure(model, probs, t)
        return -m, 2.0 * m, m, 2.0 * m
    probs = _poisson_bins(probs)
    _, a = _statistic_terms(model, probs, t)
    lam0 = model.thinning * t * probs.p0
    lam1 = model.thinning * t * probs.p1
    return (float(a @ lam0), float((a * a) @ lam0),
            float(a @ lam1), float((a * a) @ lam1))


def exact_error_rates(model: NoiseModel, probs: BinProbabilities, t: float,
                      alpha: float) -> TestReport:
    """Exact level and power of the level-alpha LRT for hg and vsg.

    With m the separation measure, the statistic is N(-m, 2m) under the
    null and N(+m, 2m) under the alternative, so the threshold is
    sqrt(2m) z_(1-alpha) - m and the power is Phi(sqrt(2m) - z_(1-alpha)).
    """
    if model.kind == "poisson":
        raise UnsupportedMethodError(
            "no exact error rates for the poisson model; "
            "use poisson_clt_report or mc_error_rates")
    return analytic_report(model, probs, t, alpha)


def poisson_clt_report(probs: BinProbabilities, t: float, alpha: float,
                       eta: float = 1.0) -> TestReport:
    """Normal-approximation level and power of the Poisson LRT, from the
    exact moments of T. A degenerate alternative (p1 identical to p0)
    reports power = alpha by convention."""
    return analytic_report(NoiseModel("poisson", thinning=eta), probs, t,
                           alpha)


def analytic_report(model: NoiseModel, probs: BinProbabilities, t: float,
                    alpha: float) -> TestReport:
    """Closed-form report: exact for hg/vsg, CLT for poisson."""
    _check_alpha(alpha)
    e0, v0, e1, v1 = statistic_moments(model, probs, t)
    z = float(ndtri(1.0 - alpha))
    threshold = z * math.sqrt(v0) + e0
    if model.kind != "poisson":
        power = float(ndtr(math.sqrt(v0) - z))
    elif v0 == 0.0:
        power = alpha
    else:
        power = 1.0 - float(ndtr((threshold - e1) / math.sqrt(v1)))
    return TestReport(threshold=threshold, level=alpha, power=power)


THRESHOLD_MODES = ("analytic", "h0-calibrated")
# largest Kolmogorov-Smirnov distance a normality check accepts
KS_BOUND = 0.03


def draw_statistic(model: NoiseModel, probs: BinProbabilities, t: float,
                   side: int, reps: int,
                   generator: np.random.Generator) -> np.ndarray:
    """T for reps records drawn under the null (side 0) or the alternative
    (side 1).

    One ``sample_observations`` call draws the records chunk by chunk and
    reduces each chunk to T with ``lrt_statistic`` before the next is
    drawn, so the draw holds one chunk of at most SAMPLE_CHUNK_VALUES
    variates plus the reps values of T, whatever reps is. The values equal
    ``lrt_statistic`` of the full reps-by-n draw bit for bit.
    """
    if reps < 100:
        raise ParameterError("reps must be >= 100")
    if model.kind == "poisson":
        probs = _poisson_bins(probs)
    return sample_observations(
        model, probs.p1 if side else probs.p0, t, generator, reps=reps,
        reduce=lambda block: lrt_statistic(model, probs, t, block))


def mc_threshold(model: NoiseModel, probs: BinProbabilities, t: float,
                 alpha: float, mode: str,
                 null: Callable[[], np.ndarray]) -> float:
    """Rejection threshold of the level-alpha LRT: closed-form (CLT for
    poisson) in "analytic" mode, else the empirical (1 - alpha) quantile
    of the null statistics ``null()`` draws."""
    _check_alpha(alpha)
    if mode == THRESHOLD_MODES[0]:
        return analytic_report(model, probs, t, alpha).threshold
    if mode not in THRESHOLD_MODES:
        raise ParameterError(f"unknown threshold mode {mode!r}")
    t0 = null()
    return float(np.sort(t0)[int(math.ceil((1.0 - alpha) * t0.size)) - 1])


def mc_error_rates(model: NoiseModel, probs: BinProbabilities, t: float,
                   alpha: float, reps: int = 10000,
                   rng: RngState | None = None,
                   threshold_mode: str = "analytic") -> TestReport:
    """Monte Carlo level and power of the level-alpha LRT.

    The threshold is closed-form or calibrated on the null batch
    (``mc_threshold``), which makes the level alpha up to quantile
    granularity. Null and alternative batches use substreams 0 and 1 of
    the RngState.
    """
    rng = rng or RngState()
    t0 = draw_statistic(model, probs, t, 0, reps, rng.generator(0))
    threshold = mc_threshold(model, probs, t, alpha, threshold_mode,
                             lambda: t0)
    level = float(np.mean(t0 > threshold))
    t1 = draw_statistic(model, probs, t, 1, reps, rng.generator(1))
    power = float(np.mean(t1 > threshold))
    mc_se = math.sqrt(power * (1.0 - power) / reps)
    return TestReport(threshold=threshold, level=level, power=power,
                      mc_se=mc_se, reps=reps)


def ks_normal_distance(z: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the sample z from N(0, 1):
    the larger of max(i/n - F(z_(i))) and max(F(z_(i)) - (i-1)/n)."""
    cdf = ndtr(np.sort(z))
    n = cdf.size
    above = np.arange(1.0, n + 1) / n - cdf
    below = cdf - np.arange(0.0, n) / n
    return float(max(above.max(), below.max()))


def normality_check(model: NoiseModel, probs: BinProbabilities, t: float,
                    reps: int, rng: RngState) -> list[dict]:
    """Kolmogorov-Smirnov distance from N(0, 1) of T drawn under the null
    (substream 0 of rng) and the alternative (1), each standardized by its
    exact moments; a side passes at a distance of at most KS_BOUND. The
    distance is computed here (``ks_normal_distance``), not by scipy.stats."""
    e0, v0, e1, v1 = statistic_moments(model, probs, t)
    records = []
    for side, mean, var in ((0, e0, v0), (1, e1, v1)):
        stats = draw_statistic(model, probs, t, side, reps,
                               rng.generator(side))
        ks = ks_normal_distance((stats - mean) / math.sqrt(var))
        records.append({"check": f"{model.kind}-normality",
                        "side": ("null", "alternative")[side],
                        "ks_statistic": ks, "bound": KS_BOUND,
                        "passed": ks <= KS_BOUND, "reps": reps})
    return records
