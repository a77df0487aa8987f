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
is treated by a central-limit report or by Monte Carlo. It sums over a
support of bins: a bin enters where p0 > 0 and p1 > 0; a bin without mass
under either hypothesis drops out while its photon mean eta t max(p0, p1)
is below 2^-53, where the chance of any photon in it rounds away against
1; any other such bin raises ModelAssumptionError.

T = sum_i a_i (Y_i - c_i) is written once per model (``_statistic_terms``),
and its moments and m = a.a / 2 come from the same a. Every sum over bins
is a row-by-row einsum (``_bin_sum``), never BLAS, so seeded results do
not depend on the BLAS thread count.

A Monte Carlo draw (``draw_statistic``) goes one of two routes, chosen
by ``draw_route`` from the query alone:

* ``records``  each chunk of at most SAMPLE_CHUNK_VALUES variates (one per
               bin and record) is reduced to T before the next is drawn.
               Every hg and vsg draw goes this way, and so does a Poisson
               draw that expects more than PHOTONS_PER_BIN photons per bin.
* ``photons``  a Poisson draw expecting at most PHOTONS_PER_BIN photons per
               bin draws each record's photon total N ~ Poi(eta t sum p)
               and gives every photon a bin from p / sum p through Walker's
               alias table. By Poisson splitting the bin counts, and so T,
               have the same law as on the records route, and the cost
               follows the photons, not the bin count.

Either way a draw holds one chunk plus reps values of T, whatever reps is.
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
# variates (records route) or photons (photons route) per chunk of a Monte
# Carlo draw, whatever reps is: photons ran as fast at 2^14 to 2^16 and
# slower at 2^13 or 2^17 and above (BENCH_photon_draw.json)
SAMPLE_CHUNK_VALUES = 1 << 16
# a Poisson draw of T goes by photons while it expects at most this many
# photons per bin, eta t sum(p) <= PHOTONS_PER_BIN * n; above it one
# variate per bin is cheaper (the crossover in BENCH_photon_draw.json)
PHOTONS_PER_BIN = 3.0
# largest mean numpy's Poisson sampler accepts: int64 max less ten of its
# square roots
POISSON_MAX_MEAN = (np.iinfo(np.int64).max
                    - 10.0 * math.sqrt(np.iinfo(np.int64).max))


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


def _check_t(t: float) -> None:
    if not 1.0 <= t < math.inf:
        raise ParameterError("illumination time t must be finite and >= 1")


def _resolve_generator(rng) -> np.random.Generator:
    if isinstance(rng, np.random.Generator):
        return rng
    if isinstance(rng, RngState):
        return rng.generator()
    raise ParameterError("rng must be an RngState or numpy Generator")


def draw_route(model: NoiseModel, p, t: float) -> str:
    """How a draw of T under bin probabilities p goes: "photons" for a
    Poisson draw whose expected photons per record, eta t sum(p), are at
    most PHOTONS_PER_BIN times the number of bins with p > 0, "records"
    otherwise. It reads the query alone, so a seeded draw is reproducible
    whatever the machine."""
    lam = model.thinning * t * np.asarray(p, dtype=float).ravel()
    if model.kind == "poisson" and \
            lam.sum() <= PHOTONS_PER_BIN * np.count_nonzero(lam):
        return "photons"
    return "records"


def sample_observations(model: NoiseModel, p, t: float, rng,
                        reps: int | None = None,
                        a: np.ndarray | None = None) -> np.ndarray:
    """Draw one observation vector (or a reps-by-n matrix) for bin
    probabilities p under the given model, or with coefficients ``a`` the
    sums sum_i a_i Y_i of reps such records.

    Deterministic given the RngState: repeated calls with the same state
    return the same draws. Records are drawn in row chunks of about
    SAMPLE_CHUNK_VALUES variates into one reused buffer, so a Poisson draw
    needs one chunk of integer counts as its only temporary. The generator
    fills the rows in order, so the result equals a single full-size draw.

    Without ``a``, each chunk is copied into the records. With ``a``, the
    result has length reps and ``draw_route`` picks how it is drawn: on the
    records route each chunk is summed row by row (``_bin_sum``) before
    the next is drawn; on the photons route (``_photon_sums``) the records
    are never formed and T sums a over each record's photons.
    """
    _check_t(t)
    p = np.asarray(p, dtype=float)
    lam = model.thinning * t * p.ravel()
    gen = _resolve_generator(rng)
    if model.kind == "poisson":
        if np.any(lam <= 0.0):
            raise ModelAssumptionError(
                "poisson model requires strictly positive bin means")
        if np.any(lam > POISSON_MAX_MEAN):
            raise ModelAssumptionError(
                f"poisson bin mean {lam.max():.3g} is above "
                f"{POISSON_MAX_MEAN:.3g}, the largest that can be sampled")
    elif np.any(lam < 0.0):
        raise ModelAssumptionError("bin intensities must be >= 0")
    rows = 1 if reps is None else reps
    if a is not None and draw_route(model, p, t) == "photons":
        return _photon_sums(gen, lam, rows, a)
    shift = 2.0 * np.sqrt(lam) if model.kind == "vsg" else lam
    step = max(1, SAMPLE_CHUNK_VALUES // max(1, lam.size))
    out = np.empty((rows, lam.size) if a is None else rows)
    buffer = np.empty((min(step, rows), lam.size))
    for first in range(0, rows, step):
        block = buffer[:min(step, rows - first)]
        if model.kind == "poisson":
            block[...] = gen.poisson(lam, size=block.shape)
        else:
            gen.standard_normal(out=block)
            block += shift
        out[first:first + len(block)] = (block if a is None
                                         else _bin_sum(block, a))
    return out.reshape(p.shape) if reps is None and a is None else out


def _alias_table(lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Walker's alias table for bin k with probability lam_k / sum(lam):
    a uniform cell k of n keeps its own bin with probability prob[k] and
    goes to bin alias[k] otherwise.

    Vose's pairing, a whole round at a time: every bin short of the mean
    takes its shortfall from the bin above the mean whose cumulative
    surplus covers the start of that shortfall. A donor pushed below the
    mean is short in the next round, so each round settles every short bin
    and the loop ends.
    """
    n = lam.size
    q = lam * (n / lam.sum())
    prob = np.ones(n)
    alias = np.arange(n)
    short = np.flatnonzero(q < 1.0)
    tall = np.flatnonzero(q >= 1.0)
    while short.size and tall.size:
        need = 1.0 - q[short]
        donor = np.searchsorted(np.cumsum(q[tall] - 1.0),
                                np.cumsum(need) - need, "right")
        donor = np.minimum(donor, tall.size - 1)
        prob[short] = q[short]
        alias[short] = tall[donor]
        q[tall] -= np.bincount(donor, need, minlength=tall.size)
        below = q[tall] < 1.0
        short, tall = tall[below], tall[~below]
    return prob, alias


def _photon_sums(gen: np.random.Generator, lam: np.ndarray, reps: int,
                 a: np.ndarray) -> np.ndarray:
    """sum_i a_i Y_i for reps records of independent counts
    Y_i ~ Poi(lam_i), drawn photon by photon.

    Each record's photon total N ~ Poi(sum lam) is drawn first, for all
    records; then each photon gets a bin k with probability
    lam_k / sum(lam) from one uniform u, cell k = floor(n u) of the alias
    table kept when the fraction n u - k is below prob[k]. The photons are
    drawn in chunks of at most SAMPLE_CHUNK_VALUES (a record of more
    photons is a chunk of its own) that never split a record, and each
    record's sum is one segment of ``np.add.reduceat``, so the values do
    not depend on the chunk size. A record without photons has sum 0.
    """
    n = lam.size
    prob, alias = _alias_table(lam)
    # one gather reads a photon's coefficient:
    # coeff[2k] = a[alias[k]], coeff[2k + 1] = a[k]
    coeff = np.column_stack((a[alias], a)).ravel()
    mean = lam.sum()
    counts = gen.poisson(mean, size=reps)
    # a record's sum overwrites its count once its photons are summed
    out = counts.view(np.float64)
    # one set of chunk buffers, reused: the loop allocates no photon array
    size = max(SAMPLE_CHUNK_VALUES, int(counts.max()))
    uniform, value = np.empty(size), np.empty(size)
    cell, kept = np.empty(size, dtype=np.intp), np.empty(size, dtype=bool)
    width = max(1, int(SAMPLE_CHUNK_VALUES / max(1.0, mean)))
    first = 0
    while first < reps:
        ends = np.cumsum(counts[first:first + width])
        rows = max(1, int(np.searchsorted(ends, SAMPLE_CHUNK_VALUES,
                                          "right")))
        ends = ends[:rows]
        held = counts[first:first + rows]
        filled = held > 0
        starts = (ends - held)[filled]
        photons = int(ends[-1])
        u = gen.random(out=uniform[:photons])
        u *= n  # n times a uniform on [0, 1), so floor(u) < n
        k = cell[:photons]
        np.copyto(k, u, casting="unsafe")
        np.take(prob, k, out=value[:photons])
        u -= k
        np.less(u, value[:photons], out=kept[:photons])
        k <<= 1
        k += kept[:photons]
        np.take(coeff, k, out=value[:photons])
        sums = out[first:first + rows]
        sums[...] = 0.0
        sums[filled] = np.add.reduceat(value[:photons], starts)
        first += rows
    return out


def _bin_sum(y, a) -> np.ndarray:
    """sum_i y[..., i] a_i, row by row in numpy's einsum loop, not BLAS: a
    row's bits do not depend on the rows beside it or on the thread count.
    They do depend on the bin count and on the memory layout, so y is
    summed C-contiguous."""
    return np.einsum("...i,i->...", np.ascontiguousarray(y), a)


def _statistic_terms(model: NoiseModel, probs: BinProbabilities, t: float):
    """Per-bin coefficients a and centre c of the LRT statistic
    T = sum_i a_i (Y_i - c_i), and its support, the index of the bins that
    a and c cover: every bin for hg and vsg, where a is the difference of
    the two hypotheses' record means and c their midpoint; for poisson
    (c = 0) the support rule of the module docstring, written only here."""
    tau = model.thinning * t
    p0, p1 = probs.p0, probs.p1
    if model.kind == "hg":
        return tau * (p1 - p0), 0.5 * tau * (p0 + p1), slice(None)
    if model.kind == "vsg":
        if (np.minimum(p0, p1) < 0.0).any():
            raise ModelAssumptionError("vsg model requires p >= 0")
        root0, root1 = np.sqrt(p0), np.sqrt(p1)
        return (2.0 * math.sqrt(tau) * (root1 - root0),
                math.sqrt(tau) * (root0 + root1), slice(None))
    support = (p0 > 0.0) & (p1 > 0.0)
    drop = ((np.minimum(p0, p1) == 0.0)
            & (tau * np.maximum(p0, p1) < np.finfo(float).eps / 2))
    if not (support | drop).all():
        raise ModelAssumptionError(
            "poisson likelihood ratio requires p0 and p1 to be both "
            "positive in every bin of photon mean 2^-53 or more")
    a = np.log(p1[support] / p0[support])
    return a, np.zeros(a.size), support


def lrt_statistic(model: NoiseModel, probs: BinProbabilities, t: float, y):
    """Log-likelihood-ratio statistic of p1 against p0 for observations y.

    Accepts a single observation vector of length n (returns a float) or a
    matrix with one observation per row (returns a vector). Each row is
    summed on its own (``_bin_sum``), so T of a record is the same bits
    whether it is reduced alone, in a draw's chunk or in a whole record
    matrix of either memory order. A Poisson bin outside T's support
    (``_statistic_terms``) is dropped from y before the sum.
    """
    _check_t(t)
    coeff, centre, support = _statistic_terms(model, probs, t)
    y = np.asarray(y, dtype=float)[..., support]
    stat = _bin_sum(y, coeff) - _bin_sum(centre, coeff)
    return float(stat) if stat.ndim == 0 else stat


def hg_mu(probs: BinProbabilities, t: float, eta: float = 1.0) -> float:
    """Separation measure of the homogeneous Gaussian test."""
    return separation_measure(NoiseModel("hg", thinning=eta), probs, t)


def vsg_nu(probs: BinProbabilities, t: float, eta: float = 1.0) -> float:
    """Separation measure of the variance-stabilized Gaussian test."""
    return separation_measure(NoiseModel("vsg", thinning=eta), probs, t)


def separation_measure(model: NoiseModel, probs: BinProbabilities,
                       t: float) -> float:
    """The model's m = a.a / 2 with a the coefficients of its statistic T:
    mu = tau^2 |p1 - p0|^2 / 2 for hg, nu = 2 tau |sqrt(p1) - sqrt(p0)|^2
    for vsg, tau = eta t. Poisson has no closed form."""
    if model.kind == "poisson":
        raise UnsupportedMethodError(
            "no closed-form separation measure for the poisson model; "
            "use poisson_clt_report or mc_error_rates")
    a, _, _ = _statistic_terms(model, probs, t)
    return 0.5 * float(_bin_sum(a, a))


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
    a, _, support = _statistic_terms(model, probs, t)
    return tuple(float(_bin_sum(w, model.thinning * t * p[support]))
                 for p in (probs.p0, probs.p1) for w in (a, a * a))


def exact_error_rates(model: NoiseModel, probs: BinProbabilities, t: float,
                      alpha: float) -> TestReport:
    """Exact level and power of the level-alpha LRT for hg and vsg.

    With m the separation measure, the statistic is N(-m, 2m) under the
    null and N(+m, 2m) under the alternative, so the threshold is
    sqrt(2m) z_(1-alpha) - m and the power is Phi(sqrt(2m) - z_(1-alpha)),
    which is ``analytic_report``'s one formula for these moments. A
    degenerate pair (m = 0) reports power = alpha.
    """
    if model.kind == "poisson":
        raise UnsupportedMethodError(
            "no exact error rates for the poisson model; "
            "use poisson_clt_report or mc_error_rates")
    return analytic_report(model, probs, t, alpha)


def poisson_clt_report(probs: BinProbabilities, t: float, alpha: float,
                       eta: float = 1.0) -> TestReport:
    """Normal-approximation level and power of the Poisson LRT, from the
    exact moments of T through ``analytic_report``'s one formula. A
    degenerate alternative (p1 identical to p0) reports power = alpha, as
    it does for every model."""
    return analytic_report(NoiseModel("poisson", thinning=eta), probs, t,
                           alpha)


def analytic_report(model: NoiseModel, probs: BinProbabilities, t: float,
                    alpha: float) -> TestReport:
    """Closed-form report from the moments (e0, v0, e1, v1) of T, one
    formula for every model: threshold e0 + z_(1-alpha) sqrt(v0) and power
    Phi((e1 - threshold) / sqrt(v1)). T is normal for hg and vsg, so the
    report is exact there (the power is Phi(sqrt(2m) - z_(1-alpha))); for
    poisson it is the CLT approximation. A degenerate pair (v0 = 0) reports
    power = alpha for every model."""
    _check_alpha(alpha)
    e0, v0, e1, v1 = statistic_moments(model, probs, t)
    z = float(ndtri(1.0 - alpha))
    threshold = z * math.sqrt(v0) + e0
    power = (alpha if v0 == 0.0
             else float(ndtr((e1 - threshold) / math.sqrt(v1))))
    return TestReport(threshold=threshold, level=alpha, power=power)


THRESHOLD_MODES = ("analytic", "h0-calibrated")
# largest Kolmogorov-Smirnov distance a normality check accepts
KS_BOUND = 0.03


def draw_statistic(model: NoiseModel, probs: BinProbabilities, t: float,
                   side: int, reps: int, rng: RngState, key: tuple = (),
                   routes: set | None = None) -> np.ndarray:
    """T for reps records drawn under the null (side 0) or the alternative
    (side 1) from the substream ``rng.generator(*key, side)``, adding its
    route (``draw_route`` of the side's bins on T's support) to ``routes``.

    One ``sample_observations`` call draws sum_i a_i Y_i for the
    coefficients a of T (``_statistic_terms``), and T subtracts
    sum_i a_i c_i from it, so the draw holds one chunk of at most
    SAMPLE_CHUNK_VALUES variates or photons plus the reps values of T,
    whatever reps is. On the records route the values equal
    ``lrt_statistic`` of the full reps-by-n draw bit for bit, at any BLAS
    thread count; on the photons route (Poisson only, see ``draw_route``)
    no record is formed, and the values do not depend on the chunk size.
    """
    if reps < 100:
        raise ParameterError("reps must be >= 100")
    a, centre, support = _statistic_terms(model, probs, t)
    p = (probs.p1 if side else probs.p0)[support]
    if routes is not None:
        routes.add(draw_route(model, p, t))
    stats = sample_observations(model, p, t, rng.generator(*key, side),
                                reps=reps, a=a)
    stats -= _bin_sum(centre, a)
    return stats


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
    t0 = draw_statistic(model, probs, t, 0, reps, rng)
    threshold = mc_threshold(model, probs, t, alpha, threshold_mode,
                             lambda: t0)
    level = float(np.mean(t0 > threshold))
    t1 = draw_statistic(model, probs, t, 1, reps, rng)
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
    distance is computed here (``ks_normal_distance``), not by scipy.stats.
    T of zero variance raises ModelAssumptionError before any draw."""
    e0, v0, e1, v1 = statistic_moments(model, probs, t)
    if v0 == 0.0 or v1 == 0.0:
        raise ModelAssumptionError("T has zero variance: the pair's bins "
                                   "equal the single source's")
    records = []
    for side, mean, var in ((0, e0, v0), (1, e1, v1)):
        stats = draw_statistic(model, probs, t, side, reps, rng)
        ks = ks_normal_distance((stats - mean) / math.sqrt(var))
        records.append({"check": f"{model.kind}-normality",
                        "side": ("null", "alternative")[side],
                        "ks_statistic": ks, "bound": KS_BOUND,
                        "passed": ks <= KS_BOUND, "reps": reps})
    return records
