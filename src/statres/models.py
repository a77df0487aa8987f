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

with m = a.a / 2 the model's separation measure (``separation_measure``),
so level and power have closed forms. The Poisson statistic
sum(Y_i log(p1_i/p0_i)) is treated by a central-limit report or by Monte
Carlo. It sums over a support of bins: a bin enters where p0 > 0 and
p1 > 0; a bin without mass under either hypothesis drops out while its
photon mean eta t max(p0, p1) is below 2^-53, where the chance of any
photon in it rounds away against 1; any other such bin raises
ModelAssumptionError.

T = sum_i a_i (Y_i - c_i) is written once per model (``_statistic_terms``),
and its law and m come from the same a; those terms alone judge the inputs
of every statistic, law and draw. Every sum over bins is a
row-by-row einsum (``_bin_sum``), never BLAS, so seeded results do not
depend on the BLAS thread count.

T's law is one object, ``statistic_law``: T's cumulants K_1..K_4 under
each hypothesis (K_3 = K_4 = 0 for hg and vsg) and its Lyapunov ratio.
Its CDF and quantile are Edgeworth and Cornish-Fisher forms, the normal
law's where K_3 = K_4 = 0, and every closed-form level, power, threshold
and standardization reads it.

A Monte Carlo draw of T (``sample_observations``) goes one of two routes,
chosen by ``draw_route`` from the query alone:

* ``records``  each chunk of at most SAMPLE_CHUNK_VALUES variates (one per
               bin and record) is reduced to T before the next is drawn.
               Every hg and vsg draw goes this way, and so does a Poisson
               draw that expects more than PHOTONS_PER_BIN photons per bin.
* ``photons``  a Poisson draw expecting at most PHOTONS_PER_BIN photons per
               bin draws each record's photon total N ~ Poi(eta t sum p)
               and gives every photon a bin from p / sum p through Walker's
               alias table, read as a table of cells (``_cell_table``) in
               one multiply and one gather per photon. By Poisson
               splitting the bin counts, and so T, have the same law as on
               the records route, and the cost follows the photons, not
               the bin count.

Either way a draw holds one chunk plus reps values of T, whatever reps is,
and its chunk buffers are the calling thread's own, kept and reused from
draw to draw (``_scratch``), so that a draw maps no fresh pages.
Every Monte Carlo rate, of ``power`` and of the Monte Carlo search alike,
is one ``mc_error_rates`` call: it sets the threshold, draws each side it
needs once and counts.
"""

from __future__ import annotations

import math
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from . import normal
from .binning import BinProbabilities
from .exceptions import (LevelWarning, ModelAssumptionError,
                         ParameterError, UnsupportedMethodError)

MODEL_KINDS = ("poisson", "vsg", "hg")
# variates (records route) or photons (photons route) per chunk of a Monte
# Carlo draw, whatever reps is: photons ran as fast at 2^14 to 2^16 and
# slower at 2^13 or 2^17 and above (BENCH_photon_draw.json)
SAMPLE_CHUNK_VALUES = 1 << 16
# a Poisson draw of T goes by photons while it expects at most this many
# photons per bin, eta t sum(p) <= PHOTONS_PER_BIN * n; above it one
# variate per bin is cheaper (the crossover in BENCH_photon_draw.json)
PHOTONS_PER_BIN = 3.0
# a photon draw's cell table (``_cell_table``) has at most one cell per this
# many of the draw's photons: the default sweeps' photon draws ran fastest
# from 8 to 32, where building the table costs little beside reading it
# (BENCH_draw_workspace.json, "photons_per_cell")
PHOTONS_PER_CELL = 16
# largest mean numpy's Poisson sampler accepts: int64 max less ten of its
# square roots
POISSON_MAX_MEAN = (np.iinfo(np.int64).max
                    - 10.0 * math.sqrt(np.iinfo(np.int64).max))
# each thread's draw buffers, reused from draw to draw (``_scratch``)
_SCRATCH = threading.local()


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
    """Level, power and threshold of one test; mc_se = 0 for closed forms.
    type2 is a Monte Carlo report's count of t1 <= threshold over reps."""

    threshold: float
    level: float
    power: float
    mc_se: float = 0.0
    reps: int = 0
    type2: float = math.nan


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


def sample_observations(model: NoiseModel, probs: BinProbabilities,
                        t: float, side: int, reps: int, rng: RngState,
                        key: tuple = (), routes: set | None = None
                        ) -> np.ndarray:
    """T for reps records drawn under the null (side 0) or the alternative
    (side 1) from the substream ``rng.generator(*key, side)``, adding its
    route (``draw_route`` of the side's bins on T's support) to ``routes``.

    T = sum_i a_i (Y_i - c_i) with a, c and the support from
    ``_statistic_terms``, so the draw holds one chunk of at most
    SAMPLE_CHUNK_VALUES variates or photons plus the reps values of T,
    whatever reps is. On the records route the records are drawn in row
    chunks into the thread's kept buffer (``_scratch``), and each chunk is
    summed row by row (``_bin_sum``) before the next is drawn; the
    generator fills the rows in order, so the values equal
    ``lrt_statistic`` of one full reps-by-n draw bit for bit, at any BLAS
    thread count. On the photons route
    (``_photon_sums``) no record is formed, and the values do not depend
    on the chunk size. Deterministic given the RngState. Past T's terms
    it checks only reps >= 100 and numpy's Poisson bound POISSON_MAX_MEAN.
    """
    if reps < 100:
        raise ParameterError("reps must be >= 100")
    a, centre, support = _statistic_terms(model, probs, t)
    p = (probs.p1 if side else probs.p0)[support]
    lam = model.thinning * t * p
    if model.kind == "poisson" and np.any(lam > POISSON_MAX_MEAN):
        raise ModelAssumptionError(
            f"poisson bin mean {lam.max():.3g} is above "
            f"{POISSON_MAX_MEAN:.3g}, the largest that can be sampled")
    route = draw_route(model, p, t)
    if routes is not None:
        routes.add(route)
    gen = rng.generator(*key, side)
    if route == "photons":
        stats = _photon_sums(gen, lam, reps, a)
    else:
        shift = 2.0 * np.sqrt(lam) if model.kind == "vsg" else lam
        step = max(1, SAMPLE_CHUNK_VALUES // max(1, lam.size))
        stats = np.empty(reps)
        rows = min(step, reps)
        buffer = _scratch("values", rows * lam.size).reshape(rows, lam.size)
        for first in range(0, reps, step):
            block = buffer[:min(step, reps - first)]
            if model.kind == "poisson":
                block[...] = gen.poisson(lam, size=block.shape)
            else:
                gen.standard_normal(out=block)
                block += shift
            stats[first:first + len(block)] = _bin_sum(block, a)
    stats -= _bin_sum(centre, a)
    return stats


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


def _scratch(name: str, size: int, dtype=np.float64) -> np.ndarray:
    """A buffer of ``size`` items for one draw's chunk work: a slice of
    this thread's kept buffer ``name`` while size is at most
    SAMPLE_CHUNK_VALUES, so that the thread's draws reuse pages already
    mapped; a larger request gets an array of its own, which is not kept.
    Threads never share a buffer, and a draw returns none of them."""
    if size > SAMPLE_CHUNK_VALUES:
        return np.empty(size, dtype)
    buffer = getattr(_SCRATCH, name, None)
    if buffer is None or buffer.size < size:
        buffer = np.empty(SAMPLE_CHUNK_VALUES, dtype)
        setattr(_SCRATCH, name, buffer)
    return buffer[:size]


def _cell_table(prob: np.ndarray, alias: np.ndarray, a: np.ndarray,
                photons: int) -> tuple[np.ndarray, int]:
    """The alias table read as n M cells, M = 2^shift: cell j = k M + r
    holds the coefficient of every photon whose n u lies in
    [k + r / M, k + (r + 1) / M), a[k] where that span lies below prob[k],
    a[alias[k]] where it lies above, and nan where it holds prob[k]. M is
    the largest power of two with n M at most SAMPLE_CHUNK_VALUES and at
    most photons / PHOTONS_PER_CELL, and at least 1, so that building the
    table costs a fraction of reading it; at most one cell in M of a bin
    is nan. Returns the table and shift."""
    n = prob.size
    cells = min(SAMPLE_CHUNK_VALUES, photons // PHOTONS_PER_CELL)
    shift = max(0, (cells // n).bit_length() - 1)
    split = 1 << shift
    table = _scratch("table", n << shift).reshape(n, split)
    table[...] = a[alias][:, None]
    # prob M is exact: the cells r < floor(prob M) lie wholly below prob
    edge = prob * split
    whole = np.floor(edge)
    below = _scratch("mask", n << shift, bool).reshape(n, split)
    np.less(np.arange(split), whole[:, None], out=below)
    np.copyto(table, a[:, None], where=below)
    straddle = np.flatnonzero(whole < edge)
    table[straddle, whole[straddle].astype(np.intp)] = np.nan
    return table.ravel(), shift


def _photon_sums(gen: np.random.Generator, lam: np.ndarray, reps: int,
                 a: np.ndarray) -> np.ndarray:
    """sum_i a_i Y_i for reps records of independent counts
    Y_i ~ Poi(lam_i), drawn photon by photon.

    Each record's photon total N ~ Poi(sum lam) is drawn first, for all
    records; then each photon gets a bin k with probability
    lam_k / sum(lam) from one uniform u by Walker's alias table: bin
    k = floor(n u), kept when the fraction n u - k is below prob[k], else
    alias[k]. The photon reads its coefficient from ``_cell_table`` at
    cell floor(u n M), one multiply and one gather: fl(u n M) = M fl(u n)
    for M a power of two, so the cell lies in the bin's span that holds
    fl(u n), and only a photon in a nan cell, one that holds prob[k],
    takes the alias test itself. Every photon so gets the bin the test
    gives it, and the sums do not depend on M. The photons are drawn in
    chunks of at most SAMPLE_CHUNK_VALUES (a record of more photons is a
    chunk of its own) that never split a record, into this thread's kept
    buffers (``_scratch``), and each record's sum is one segment of
    ``np.add.reduceat``, so the values do not depend on the chunk size.
    A record without photons has sum 0.
    """
    mean = lam.sum()
    counts = gen.poisson(mean, size=reps)
    # a record's sum overwrites its count once its photons are summed
    out = counts.view(np.float64)
    if not counts.any():
        # every sum is 0 (as where eta t p rounds to 0): no alias table
        return out
    prob, alias = _alias_table(lam)
    table, shift = _cell_table(prob, alias, a, int(counts.sum()))
    size = max(SAMPLE_CHUNK_VALUES, int(counts.max()))
    uniform, value = _scratch("uniform", size), _scratch("values", size)
    cell, nan = _scratch("cell", size, np.intp), _scratch("mask", size, bool)
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
        u *= table.size  # n M times a uniform on [0, 1): the cell index
        j = cell[:photons]
        np.copyto(j, u, casting="unsafe")
        v = np.take(table, j, out=value[:photons])
        hit = np.flatnonzero(np.isnan(v, out=nan[:photons]))
        if hit.size:
            x = u[hit] * (1.0 / (1 << shift))  # fl(u n), exactly
            k = j[hit] >> shift
            v[hit] = np.where(x - k < prob[k], a[k], a[alias[k]])
        sums = out[first:first + rows]
        sums[...] = 0.0
        sums[filled] = np.add.reduceat(v, starts)
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
    (c = 0) the support rule of the module docstring, written only here.
    It alone judges a statistic's inputs: t finite and >= 1, and for hg
    and vsg p >= 0."""
    if not 1.0 <= t < math.inf:
        raise ParameterError("illumination time t must be finite and >= 1")
    tau = model.thinning * t
    p0, p1 = probs.p0, probs.p1
    if model.kind != "poisson" and (np.minimum(p0, p1) < 0.0).any():
        raise ModelAssumptionError(f"{model.kind} model requires p >= 0")
    if model.kind == "hg":
        return tau * (p1 - p0), 0.5 * tau * (p0 + p1), slice(None)
    if model.kind == "vsg":
        root0, root1 = np.sqrt(p0), np.sqrt(p1)
        return (2.0 * math.sqrt(tau) * (root1 - root0),
                math.sqrt(tau) * (root0 + root1), slice(None))
    support = (p0 > 0.0) & (p1 > 0.0)
    if support.all():
        a = _log_ratio(p1, p0)
        return a, np.zeros(a.size), slice(None)
    drop = ((np.minimum(p0, p1) == 0.0)
            & (tau * np.maximum(p0, p1) < np.finfo(float).eps / 2))
    if not (support | drop).all():
        raise ModelAssumptionError(
            "poisson likelihood ratio requires p0 and p1 to be both "
            "positive in every bin of photon mean 2^-53 or more")
    a = _log_ratio(p1[support], p0[support])
    return a, np.zeros(a.size), support


def _log_ratio(p1: np.ndarray, p0: np.ndarray) -> np.ndarray:
    """log(p1 / p0) of positive bins, and log p1 - log p0 where that
    ratio overflows or underflows to 0 (a bin subnormal under one
    hypothesis only), so that every other bin keeps the ratio's bits."""
    with np.errstate(over="ignore", divide="ignore"):
        a = np.log(p1 / p0)
    odd = ~np.isfinite(a)
    if odd.any():
        a[odd] = np.log(p1[odd]) - np.log(p0[odd])
    return a


def lrt_statistic(model: NoiseModel, probs: BinProbabilities, t: float, y):
    """Log-likelihood-ratio statistic of p1 against p0 for observations y.

    Accepts a single observation vector of length n (returns a float) or a
    matrix with one observation per row (returns a vector). Each row is
    summed on its own (``_bin_sum``), so T of a record is the same bits
    whether it is reduced alone, in a draw's chunk or in a whole record
    matrix of either memory order. A Poisson bin outside T's support
    (``_statistic_terms``) is dropped from y before the sum.
    """
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
    return statistic_law(model, probs, t).cumulants[1][0]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ParameterError("alpha must lie in (0, 1)")


@dataclass(frozen=True)
class StatisticLaw:
    """The law of T under the null (side 0) and the alternative (side 1):
    its first four cumulants K_1..K_4 per side and its Lyapunov ratio rho.

    ``cdf`` is T's two-term Edgeworth expansion (Hall, The Bootstrap and
    Edgeworth Expansion, 1992, ch. 2), ``sf`` its complement and
    ``quantile`` the Cornish-Fisher expansion that inverts it (Cornish &
    Fisher, 1938):

        P(T <= x) = Phi(z) - phi(z) [g1 He2(z) / 6 + g2 He3(z) / 24
                                     + g1^2 He5(z) / 72],
        quantile  = K_1 + sqrt(K_2) [w + g1 He2(w) / 6 + g2 He3(w) / 24
                                     - g1^2 (2 w^3 - 5 w) / 36],

    with z = (x - K_1) / sqrt(K_2), w = z_prob, g1 = K_3 / K_2^(3/2),
    g2 = K_4 / K_2^2 and the Hermite polynomials He2, He3, He5 = z^2 - 1,
    z^3 - 3z, z^5 - 10 z^3 + 15 z. A side with K_3 = K_4 = 0 skips the
    correction, so it is the normal law bit for bit; ``normal`` is that
    view of any law. T of zero variance is the point K_1.
    """

    cumulants: tuple[tuple[float, float, float, float],
                     tuple[float, float, float, float]]
    rho: float = 0.0

    def normal(self) -> StatisticLaw:
        """T's normal law: the same K_1 and K_2, with K_3 = K_4 = 0."""
        (e0, v0, k3, k4), (e1, v1, l3, l4) = self.cumulants
        if not (k3 or k4 or l3 or l4):
            return self
        return StatisticLaw(((e0, v0, 0.0, 0.0), (e1, v1, 0.0, 0.0)), self.rho)

    def _edgeworth(self, side: int, x: float) -> tuple[float, float]:
        """z at x and phi(z) times the Edgeworth terms (0 for a normal
        side); z is +-inf for T of zero variance."""
        k1, k2, k3, k4 = self.cumulants[side]
        if k2 == 0.0:
            return (math.inf if x >= k1 else -math.inf), 0.0
        s = math.sqrt(k2)
        z = (x - k1) / s
        if not (k3 or k4):
            return z, 0.0
        g1, g2, z2 = k3 / (k2 * s), k4 / (k2 * k2), z * z
        terms = (g1 * (z2 - 1.0) / 6.0 + g2 * z * (z2 - 3.0) / 24.0
                 + g1 * g1 * z * (z2 * z2 - 10.0 * z2 + 15.0) / 72.0)
        return z, math.exp(-0.5 * z2) / math.sqrt(2.0 * math.pi) * terms

    def cdf(self, side: int, x: float) -> float:
        """P(T <= x) on one side."""
        z, correction = self._edgeworth(side, x)
        return normal.cdf(z) - correction

    def sf(self, side: int, x: float) -> float:
        """P(T > x) on one side."""
        z, correction = self._edgeworth(side, x)
        return normal.cdf(-z) + correction

    def quantile(self, side: int, prob: float) -> float:
        """The prob quantile of T on one side."""
        k1, k2, k3, k4 = self.cumulants[side]
        s, w = math.sqrt(k2), normal.quantile(prob)
        if k3 or k4:
            g1, g2, z2 = k3 / (k2 * s), k4 / (k2 * k2), w * w
            w = (w + g1 * (z2 - 1.0) / 6.0 + g2 * w * (z2 - 3.0) / 24.0
                 - g1 * g1 * w * (2.0 * z2 - 5.0) / 36.0)
        return k1 + s * w

    def report(self, alpha: float) -> TestReport:
        """The level-alpha report of the normal view: its null 1 - alpha
        quantile as threshold, the alternative's sf there as power, or
        alpha for a degenerate pair (K_2 = 0 under the null)."""
        law = self.normal()
        threshold = law.quantile(0, 1.0 - alpha)
        power = law.sf(1, threshold) if law.cumulants[0][1] else alpha
        return TestReport(threshold=threshold, level=alpha, power=power)


def statistic_law(model: NoiseModel, probs: BinProbabilities,
                  t: float) -> StatisticLaw:
    """The law of T: N(-m, 2m) and N(+m, 2m) with m = a.a / 2 and rho = 0
    for hg and vsg. The Poisson T = sum_i a_i Y_i, Y_i ~ Poi(lambda_i) on
    T's support, lambda_i = eta t p_i, has K_j = sum_i lambda_i a_i^j and
    rho = sum_i lambda_i |a_i|^3 / K_2^(3/2), the larger side's (inf for T
    of zero variance), the Berry-Esseen measure of T's distance from
    normal; one row-wise ``_bin_sum`` per side sums the stacked powers of
    a. Cumulants that overflow raise ModelAssumptionError."""
    a, _, support = _statistic_terms(model, probs, t)
    if model.kind == "poisson":
        a2, a3 = a * a, a * a * a
        powers = np.array((a, a2, a3, a2 * a2, np.abs(a3)))
        tau = model.thinning * t
        sums = [_bin_sum(powers, tau * p[support]).tolist()
                for p in (probs.p0, probs.p1)]
        law = StatisticLaw(tuple(tuple(s[:4]) for s in sums),
                           max(_lyapunov_ratio(s[1], s[4]) for s in sums))
    else:
        m = 0.5 * float(_bin_sum(a, a))
        law = StatisticLaw(((-m, 2.0 * m, 0.0, 0.0), (m, 2.0 * m, 0.0, 0.0)))
    if not all(map(math.isfinite, law.cumulants[0] + law.cumulants[1])):
        raise ModelAssumptionError(
            f"the statistic T overflows at eta t = {model.thinning * t:g}: "
            f"its cumulants are not finite")
    return law


def _lyapunov_ratio(k2: float, abs3: float) -> float:
    """abs3 / k2^(3/2): inf at k2 = 0, abs3 / k2 / sqrt(k2) past the range
    of k2^(3/2), above it or below it."""
    try:
        return abs3 / k2 ** 1.5 if k2 else math.inf
    except (OverflowError, ZeroDivisionError):
        return abs3 / k2 / math.sqrt(k2)


def exact_error_rates(model: NoiseModel, probs: BinProbabilities, t: float,
                      alpha: float) -> TestReport:
    """Exact level and power of the level-alpha LRT for hg and vsg, whose
    T is N(-m, 2m) under the null and N(+m, 2m) under the alternative:
    threshold sqrt(2m) z_(1-alpha) - m, power Phi(sqrt(2m) - z_(1-alpha)),
    or alpha for m = 0 (``analytic_report``)."""
    if model.kind == "poisson":
        raise UnsupportedMethodError(
            "no exact error rates for the poisson model; "
            "use poisson_clt_report or mc_error_rates")
    return analytic_report(model, probs, t, alpha)


def poisson_clt_report(probs: BinProbabilities, t: float, alpha: float,
                       eta: float = 1.0) -> TestReport:
    """Normal-approximation level and power of the Poisson LRT from the
    exact mean and variance of T (``analytic_report``)."""
    return analytic_report(NoiseModel("poisson", thinning=eta), probs, t,
                           alpha)


def analytic_report(model: NoiseModel, probs: BinProbabilities, t: float,
                    alpha: float) -> TestReport:
    """Closed-form report of the level-alpha LRT for every model, T's
    ``StatisticLaw.report``: exact for hg and vsg, the CLT for poisson."""
    _check_alpha(alpha)
    return statistic_law(model, probs, t).report(alpha)


THRESHOLD_MODES = ("analytic", "h0-calibrated")
# largest Kolmogorov-Smirnov distance a normality check accepts
KS_BOUND = 0.03


def mc_error_rates(model: NoiseModel, probs: BinProbabilities, t: float,
                   alpha: float, reps: int = 10000,
                   rng: RngState | None = None,
                   threshold_mode: str = "analytic", key: tuple = (),
                   routes: set | None = None,
                   level: bool = True) -> TestReport:
    """Monte Carlo level and power of the level-alpha LRT: the one
    estimator of a Monte Carlo rate, for ``power`` and ``mc_resolution``.

    The threshold is the null quantile of T's normal law (CLT for poisson)
    in "analytic" mode, else the empirical (1 - alpha) quantile of the
    null draw. Each side is drawn once from substream (*key, side) of rng
    (``sample_observations``, which adds its route to ``routes``); without
    ``level`` the analytic mode draws no null and the level is nan. Power
    and type2 count t1 > threshold and t1 <= threshold over reps. A level
    whose 3-sigma Wilson score interval excludes alpha,
    |level - alpha| > 3 sqrt(alpha (1 - alpha) / reps) (Brown, Cai &
    DasGupta, Statist. Sci. 16, 2001), raises LevelWarning under either
    threshold. Without ties in T the calibrated level is
    floor(alpha reps) / reps, inside that band for every alpha <= 0.88,
    so it warns only where T has an atom at the threshold.
    """
    rng = rng or RngState()
    calibrated = threshold_mode == THRESHOLD_MODES[1]
    if level or calibrated:
        t0 = sample_observations(model, probs, t, 0, reps, rng, key, routes)
    _check_alpha(alpha)
    if calibrated:
        threshold = float(np.sort(t0)[math.ceil((1.0 - alpha) * reps) - 1])
    elif threshold_mode == THRESHOLD_MODES[0]:
        law = statistic_law(model, probs, t).normal()
        threshold = law.quantile(0, 1.0 - alpha)
    else:
        raise ParameterError(f"unknown threshold mode {threshold_mode!r}")
    t1 = sample_observations(model, probs, t, 1, reps, rng, key, routes)
    power = float(np.mean(t1 > threshold))
    level_hat = float(np.mean(t0 > threshold)) if level else math.nan
    band = 3.0 * math.sqrt(alpha * (1.0 - alpha) / reps)
    if level and abs(level_hat - alpha) > band:
        warnings.warn(
            f"simulated level {level_hat!r} lies more than 3 standard errors "
            f"from alpha = {alpha!r} at reps = {reps}: the {threshold_mode} "
            f"threshold misses the nominal level", LevelWarning, stacklevel=2)
    return TestReport(threshold=threshold, level=level_hat, power=power,
                      mc_se=math.sqrt(power * (1.0 - power) / reps),
                      reps=reps,
                      type2=float(np.mean(t1 <= threshold)))


def ks_normal_distance(z: np.ndarray) -> float:
    """Two-sided Kolmogorov-Smirnov distance of the sample z from N(0, 1):
    the larger of max(i/n - F(z_(i))) and max(F(z_(i)) - (i-1)/n), with
    F(z) the normal tail P(Z > |z|) left of 0 and 1 less it right of 0."""
    z = np.sort(z)
    cdf = normal.tail(z)
    right = np.searchsorted(z, 0.0, "right")
    cdf[right:] = 1.0 - cdf[right:]
    n = cdf.size
    above = np.arange(1.0, n + 1) / n - cdf
    below = cdf - np.arange(0.0, n) / n
    return float(max(above.max(), below.max()))


def normality_check(model: NoiseModel, probs: BinProbabilities, t: float,
                    reps: int, rng: RngState) -> list[dict]:
    """Kolmogorov-Smirnov distance from N(0, 1) of T drawn under the null
    (substream 0 of rng) and the alternative (1), each standardized by K_1
    and K_2 of T's law; a side passes at a distance of at most KS_BOUND.
    The distance and its normal CDF are computed here
    (``ks_normal_distance`` on ``normal.tail``), without scipy. T of zero
    variance raises ModelAssumptionError first."""
    law = statistic_law(model, probs, t)
    if any(k[1] == 0.0 for k in law.cumulants):
        raise ModelAssumptionError("T has zero variance: the pair's bins "
                                   "equal the single source's")
    records = []
    for side, (mean, var, _, _) in enumerate(law.cumulants):
        stats = sample_observations(model, probs, t, side, reps, rng)
        ks = ks_normal_distance((stats - mean) / math.sqrt(var))
        records.append({"check": f"{model.kind}-normality",
                        "side": ("null", "alternative")[side],
                        "ks_statistic": ks, "bound": KS_BOUND,
                        "passed": ks <= KS_BOUND, "reps": reps})
    return records
