"""Observation models, likelihood-ratio statistics and error rates."""

import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

import statres.models as models
from statres.binning import (BinProbabilities, SourceConfig,
                             bin_curvature_integrals, bin_probabilities)
from statres.exceptions import (ModelAssumptionError, ParameterError,
                                UnsupportedMethodError)
from statres.models import (MODEL_KINDS, NoiseModel, RngState,
                            analytic_report, draw_statistic,
                            exact_error_rates, hg_mu, ks_normal_distance,
                            lrt_statistic, mc_error_rates, poisson_clt_report,
                            sample_observations, separation_measure,
                            statistic_moments, vsg_nu)
from statres.psf import PsfModel

# high-precision quantile references (30-digit evaluation, rounded)
QUANTILE_REFERENCE = {
    0.9: 1.2815515655446005,
    0.95: 1.6448536269514727,
    0.975: 1.9599639845400542,
    0.99: 2.3263478740408411,
}


def make_probs(d=0.1, n=20, sigma=0.0849, gamma=0.0, q=0.5):
    psf = PsfModel.gaussian(sigma, background=gamma)
    return bin_probabilities(psf, SourceConfig(x0=0.5, d=d, weight_q=q), n)


def test_noise_model_validation():
    with pytest.raises(ParameterError):
        NoiseModel("gauss")
    with pytest.raises(ParameterError):
        NoiseModel("hg", thinning=0.0)
    with pytest.raises(ParameterError):
        NoiseModel("hg", thinning=1.5)


def test_rng_state_validation():
    with pytest.raises(ParameterError):
        RngState(seed=-1)
    with pytest.raises(ParameterError):
        RngState(stream=-2)


def test_rng_subkeys_give_distinct_streams():
    state = RngState(seed=7, stream=3)
    a = state.generator(0).standard_normal(4)
    b = state.generator(1).standard_normal(4)
    again = state.generator(0).standard_normal(4)
    assert np.array_equal(a, again)
    assert not np.array_equal(a, b)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_sampling_is_deterministic(kind):
    probs = make_probs(gamma=0.5)
    model = NoiseModel(kind)
    first = sample_observations(model, probs.p0, 20.0, RngState(seed=5),
                                reps=50)
    second = sample_observations(model, probs.p0, 20.0, RngState(seed=5),
                                 reps=50)
    assert np.array_equal(first, second)
    assert first.shape == (50, probs.n)


def test_poisson_sample_moments():
    probs = make_probs(gamma=0.5)
    lam = 1000.0 * probs.p0
    reps = 100000
    y = sample_observations(NoiseModel("poisson"), probs.p0, 1000.0,
                            RngState(seed=11), reps=reps)
    se_mean = np.sqrt(lam / reps)
    assert np.all(np.abs(y.mean(axis=0) - lam) < 4.0 * se_mean)
    # Poisson variance equals the mean; its sampling error is about
    # sqrt(2 lam^2 + lam) / sqrt(reps)
    se_var = np.sqrt((2.0 * lam ** 2 + lam) / reps)
    assert np.all(np.abs(y.var(axis=0) - lam) < 4.0 * se_var)


def test_gaussian_sample_moments():
    probs = make_probs()
    reps = 100000
    y = sample_observations(NoiseModel("vsg"), probs.p0, 50.0,
                            RngState(seed=13), reps=reps)
    assert_allclose(y.mean(axis=0), 2.0 * np.sqrt(50.0 * probs.p0),
                    atol=4.0 / math.sqrt(reps))
    assert_allclose(y.var(axis=0), 1.0, atol=0.02)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_chunked_draw_equals_one_shot_draw(kind, monkeypatch):
    # row chunks of 3 rows (64 // 20) with a ragged last chunk
    monkeypatch.setattr(models, "SAMPLE_CHUNK_VALUES", 64)
    probs = make_probs(gamma=0.5)
    lam = 30.0 * probs.p0
    got = sample_observations(NoiseModel(kind), probs.p0, 30.0,
                              RngState(seed=4), reps=50)
    gen = RngState(seed=4).generator()
    if kind == "poisson":
        want = gen.poisson(lam, size=(50, probs.n)).astype(float)
    elif kind == "vsg":
        want = 2.0 * np.sqrt(lam) + gen.standard_normal((50, probs.n))
    else:
        want = lam + gen.standard_normal((50, probs.n))
    assert np.array_equal(got, want)
    single = sample_observations(NoiseModel(kind), probs.p0, 30.0,
                                 RngState(seed=4))
    assert single.shape == (probs.n,)
    assert np.array_equal(single, want[0])


@pytest.mark.parametrize("kind", MODEL_KINDS)
@pytest.mark.parametrize("chunk, n, reps", [
    (64, 20, 101),              # 3 rows a chunk, a last chunk of 2 rows
    (models.SAMPLE_CHUNK_VALUES, 1000, 2500),  # 38 chunks of 65, one of 30
    (1 << 20, 1000, 2500),      # 1048, 1048 and 404 rows
])
def test_chunked_draw_statistic_equals_full_draw(kind, chunk, n, reps,
                                                 monkeypatch):
    # T reduced chunk by chunk is T of the whole record matrix, bit for
    # bit, in either memory order; only the records route forms records,
    # so the poisson query expects 10 photons per bin, above the crossover
    monkeypatch.setattr(models, "SAMPLE_CHUNK_VALUES", chunk)
    probs = make_probs(n=n, gamma=0.5)
    model = NoiseModel(kind, thinning=0.9)
    t = 10.0 * n if kind == "poisson" else 30.0
    for side in (0, 1):
        p = probs.p1 if side else probs.p0
        assert models.draw_route(model, p, t) == "records"
        got = draw_statistic(model, probs, t, side, reps, RngState(seed=6))
        records = sample_observations(model, p, t,
                                      RngState(seed=6).generator(side),
                                      reps=reps)
        assert got.shape == (reps,)
        for order in ("C", "F"):
            want = lrt_statistic(model, probs, t,
                                 np.asarray(records, order=order))
            assert np.array_equal(got, want)


@pytest.mark.parametrize("lam", [
    np.array([5.0]),
    np.array([1.0, 1.0, 1.0]),
    np.array([1e-300, 2.0, 1e-9, 0.5]),
    np.random.default_rng(3).pareto(1.0, 5000) + 1e-12,
    1.0 + 1e-9 * np.random.default_rng(4).standard_normal(4000),
])
def test_alias_table_gives_each_bin_its_probability(lam):
    # a uniform cell keeps its own bin with probability prob and otherwise
    # goes to its alias: the masses add up to lam / sum(lam)
    prob, alias = models._alias_table(lam)
    assert np.all((prob >= 0.0) & (prob <= 1.0))
    assert np.all((alias >= 0) & (alias < lam.size))
    n = lam.size
    masses = (prob + np.bincount(alias, 1.0 - prob, minlength=n)) / n
    want = lam / lam.sum()
    assert_allclose(masses, want, rtol=1e-10, atol=1e-13 * want.max())


def _photon_oracle(lam, a, reps, gen):
    # one shot: every count, then every photon's uniform, read through the
    # alias table without the interleaved coefficients
    prob, alias = models._alias_table(lam)
    counts = gen.poisson(lam.sum(), size=reps)
    x = gen.random(int(counts.sum())) * lam.size
    cell = np.floor(x).astype(np.intp)
    bins = np.where(x - cell < prob[cell], cell, alias[cell])
    ends = np.cumsum(counts)
    filled = counts > 0
    sums = np.zeros(reps)
    sums[filled] = np.add.reduceat(a[bins], (ends - counts)[filled])
    return sums, counts


@pytest.mark.parametrize("t", [1.0, 30.0])
def test_photon_draw_equals_a_one_shot_draw(t, monkeypatch):
    # bit for bit at a chunk of 64 photons and at the default: the chunks
    # never split a record, and a record without photons (common at t = 1)
    # has T = 0 exactly
    probs = make_probs(gamma=0.5)
    model = NoiseModel("poisson")
    reps = 500
    a = np.log(probs.p1 / probs.p0)
    for side in (0, 1):
        p = probs.p1 if side else probs.p0
        assert models.draw_route(model, p, t) == "photons"
        want, counts = _photon_oracle(t * p, a, reps,
                                      RngState(seed=8).generator(side))
        got = draw_statistic(model, probs, t, side, reps, RngState(seed=8))
        monkeypatch.setattr(models, "SAMPLE_CHUNK_VALUES", 64)
        small = draw_statistic(model, probs, t, side, reps, RngState(seed=8))
        monkeypatch.undo()
        assert np.array_equal(got, want)
        assert np.array_equal(small, want)
        if t == 1.0:
            assert 50 < np.count_nonzero(counts == 0) < reps
            assert np.all(got[counts == 0] == 0.0)
            assert np.all(got[counts > 0] != 0.0)


@pytest.mark.parametrize("n, t, reps", [
    (20, 20.0, 40000), (1000, 100.0, 20000), (10000, 1000.0, 4000)])
def test_photon_draw_moments_match_statistic_moments(n, t, reps):
    probs = make_probs(n=n, d=0.15, gamma=0.2)
    model = NoiseModel("poisson", thinning=0.8)
    moments = statistic_moments(model, probs, t)
    for side in (0, 1):
        mean, var = moments[2 * side], moments[2 * side + 1]
        assert models.draw_route(model, probs.p1 if side else probs.p0,
                                 t) == "photons"
        stats = draw_statistic(model, probs, t, side, reps, RngState(seed=7))
        centered = stats - stats.mean()
        var_se = math.sqrt(np.mean(centered ** 4) - var ** 2) / math.sqrt(reps)
        assert abs(stats.mean() - mean) < 4.0 * math.sqrt(var / reps)
        assert abs(stats.var() - var) < 4.0 * var_se


def test_draw_route_reads_the_expected_photons_and_the_bins():
    # photons while eta t sum(p) <= PHOTONS_PER_BIN * n over the bins with
    # p > 0; the same product and bin count give the same route
    c = models.PHOTONS_PER_BIN
    poisson = NoiseModel("poisson")
    flat, ramp = np.full(10, 0.1), np.linspace(0.01, 0.19, 10)
    thin = NoiseModel("poisson", thinning=0.25)
    for p in (flat, ramp, np.append(ramp, [0.0, 0.0])):
        for scale, route in ((0.99, "photons"), (1.01, "records")):
            t = scale * c * 10.0
            assert models.draw_route(poisson, p, t) == route
            assert models.draw_route(thin, p, 4.0 * t) == route
            assert models.draw_route(poisson, 2.0 * p, 0.5 * t) == route
    for kind in ("hg", "vsg"):
        assert models.draw_route(NoiseModel(kind), flat, 1.0) == "records"


def _draw_peak_bytes(model, probs, reps):
    tracemalloc.start()
    try:
        draw_statistic(model, probs, 30.0, 1, reps, RngState(seed=2))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_chunked_draw_memory_does_not_grow_with_reps(kind, monkeypatch):
    # tracemalloc sees numpy's buffers: ten times the reps may add the
    # 8-byte values of T and nothing in proportion to reps x n
    monkeypatch.setattr(models, "SAMPLE_CHUNK_VALUES", 1 << 14)
    probs = make_probs(n=100, gamma=0.5)
    model = NoiseModel(kind)
    small = _draw_peak_bytes(model, probs, 1000)
    large = _draw_peak_bytes(model, probs, 10000)
    assert large - small <= 8 * 9000 + 64 * 1024


def test_chunked_draw_statistic_samples_once(monkeypatch):
    # one sample_observations call per draw, however many chunks it spans:
    # bench/worker.py cross-checks this count against the 1 + expansions
    # + iterations probes of every traced Monte Carlo solve
    monkeypatch.setattr(models, "SAMPLE_CHUNK_VALUES", 64)
    calls = []
    original = models.sample_observations
    monkeypatch.setattr(models, "sample_observations",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    stats = draw_statistic(NoiseModel("poisson"), make_probs(gamma=0.5),
                           30.0, 0, 500, RngState(seed=1))
    assert stats.shape == (500,)
    assert len(calls) == 1


def test_poisson_requires_positive_means():
    probs = make_probs()  # no background, far bins are ~0 but positive
    with pytest.raises(ModelAssumptionError):
        sample_observations(NoiseModel("poisson"), np.array([0.0, 0.5]),
                            10.0, RngState())


def test_poisson_means_stop_at_the_sampler_bound():
    # numpy's sampler draws a mean of 9.2e18 and rejects 1e19
    model, p = NoiseModel("poisson"), np.array([0.5, 0.5])
    assert sample_observations(model, p, 1.84e19, RngState()).shape == (2,)
    with pytest.raises(ModelAssumptionError):
        sample_observations(model, p, 2e19, RngState())


def test_thinned_sampling_matches_scaled_time():
    probs = make_probs(gamma=0.2)
    thin = sample_observations(NoiseModel("poisson", thinning=0.5),
                               probs.p0, 20.0, RngState(seed=3), reps=100)
    full = sample_observations(NoiseModel("poisson"), probs.p0, 10.0,
                               RngState(seed=3), reps=100)
    assert np.array_equal(thin, full)


def test_thinned_photon_draw_matches_scaled_time():
    # the photons route sees eta and t only through eta t, as the records
    # route does, so acceptance 8's thinning law holds bit for bit
    probs = make_probs(gamma=0.2)
    thin, full = NoiseModel("poisson", thinning=0.25), NoiseModel("poisson")
    for side in (0, 1):
        assert models.draw_route(thin, probs.p0, 80.0) == "photons"
        assert np.array_equal(
            draw_statistic(thin, probs, 80.0, side, 300, RngState(seed=3)),
            draw_statistic(full, probs, 20.0, side, 300, RngState(seed=3)))


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_statistic_is_zero_when_hypotheses_coincide(kind):
    probs = make_probs(d=0.0, gamma=0.3)
    y = sample_observations(NoiseModel(kind), probs.p0, 20.0,
                            RngState(seed=1), reps=10)
    stats = lrt_statistic(NoiseModel(kind), probs, 20.0, y)
    assert_allclose(stats, 0.0, atol=1e-12)


def test_statistic_at_the_hypothesis_means():
    # evaluated at the alternative mean vector the statistic equals +m,
    # at the null mean vector it equals -m
    probs = make_probs(d=0.12, gamma=0.4)
    t = 20.0
    mu = hg_mu(probs, t)
    assert_allclose(lrt_statistic(NoiseModel("hg"), probs, t, t * probs.p1),
                    mu, rtol=1e-12)
    assert_allclose(lrt_statistic(NoiseModel("hg"), probs, t, t * probs.p0),
                    -mu, rtol=1e-12)
    nu = vsg_nu(probs, t)
    assert_allclose(lrt_statistic(NoiseModel("vsg"), probs, t,
                                  2.0 * np.sqrt(t * probs.p1)),
                    nu, rtol=1e-12)
    assert_allclose(lrt_statistic(NoiseModel("vsg"), probs, t,
                                  2.0 * np.sqrt(t * probs.p0)),
                    -nu, rtol=1e-12)


def test_statistic_shapes():
    probs = make_probs(gamma=0.1)
    y1 = np.ones(probs.n)
    assert isinstance(lrt_statistic(NoiseModel("hg"), probs, 20.0, y1),
                      float)
    ym = np.ones((7, probs.n))
    out = lrt_statistic(NoiseModel("hg"), probs, 20.0, ym)
    assert out.shape == (7,)


def test_poisson_statistic_needs_positive_probabilities():
    probs = BinProbabilities(n=2, p0=np.array([0.5, 0.5]),
                             p1=np.array([0.6, 0.0]))
    with pytest.raises(ModelAssumptionError):
        lrt_statistic(NoiseModel("poisson"), probs, 10.0, np.ones(2))


def pad_with_empty_bins(probs, left=3, right=2):
    """The same profile with bins of zero mass under both hypotheses."""
    def pad(p):
        return np.concatenate([np.zeros(left), p, np.zeros(right)])
    return BinProbabilities(n=probs.n + left + right, p0=pad(probs.p0),
                            p1=pad(probs.p1))


def pad_with_one_sided_bins(probs, mass, left=3, right=2):
    """The same profile with bins of the given mass under one hypothesis
    and none under the other: the null's on the left, the alternative's
    on the right."""
    def pad(p, null):
        ends = (np.full(left, mass) if null else np.zeros(left),
                np.zeros(right) if null else np.full(right, mass))
        return np.concatenate([ends[0], p, ends[1]])
    return BinProbabilities(n=probs.n + left + right, p0=pad(probs.p0, True),
                            p1=pad(probs.p1, False))


def assert_padding_changes_nothing(probs, padded, left=3, right=2):
    # the closed-form report, the Monte Carlo draw in both threshold modes
    # and the statistic of zero-padded records equal the unpadded ones
    model = NoiseModel("poisson")
    assert poisson_clt_report(padded, 20.0, 0.1) == \
        poisson_clt_report(probs, 20.0, 0.1)
    for mode in ("analytic", "h0-calibrated"):
        assert mc_error_rates(model, padded, 20.0, 0.1, reps=500,
                              rng=RngState(seed=3),
                              threshold_mode=mode) == \
            mc_error_rates(model, probs, 20.0, 0.1, reps=500,
                           rng=RngState(seed=3), threshold_mode=mode)
    y = sample_observations(model, probs.p1, 20.0, RngState(seed=5), reps=4)
    assert np.array_equal(
        lrt_statistic(model, padded, 20.0,
                      np.pad(y, ((0, 0), (left, right)))),
        lrt_statistic(model, probs, 20.0, y))


def test_poisson_drops_bins_without_mass():
    # a bin with p0 = p1 = 0 never records a photon: the report, the
    # Monte Carlo draw and the statistic ignore it
    probs = make_probs(d=0.12, gamma=0.2)
    assert_padding_changes_nothing(probs, pad_with_empty_bins(probs))


def test_poisson_drops_underflowed_one_sided_bins():
    # a bin of photon mean 20 * 1e-301 under one hypothesis and 0 under
    # the other records a photon with a chance that rounds away against 1,
    # so it leaves T as if it had no mass at all
    probs = make_probs(d=0.12, gamma=0.2)
    assert_padding_changes_nothing(probs,
                                   pad_with_one_sided_bins(probs, 1e-301))


def test_poisson_one_sided_bin_drops_out_below_photon_mean_two_to_minus_53():
    # eta t = 16 scales the mass exactly; at photon mean 2^-53 the bin can
    # still record a photon and makes T infinite, one ulp below it cannot
    probs = make_probs(d=0.12, gamma=0.2)
    model = NoiseModel("poisson", thinning=0.5)
    edge = 2.0 ** -53
    y = np.pad(sample_observations(model, probs.p1, 32.0, RngState(seed=5)),
               (3, 2))
    for mean in (edge, 2.0 * edge, 1.0):
        padded = pad_with_one_sided_bins(probs, mean / 16.0)
        with pytest.raises(ModelAssumptionError):
            statistic_moments(model, padded, 32.0)
        with pytest.raises(ModelAssumptionError):
            draw_statistic(model, padded, 32.0, 0, 100, RngState())
        with pytest.raises(ModelAssumptionError):
            lrt_statistic(model, padded, 32.0, y)
    padded = pad_with_one_sided_bins(probs, np.nextafter(edge, 0.0) / 16.0)
    assert statistic_moments(model, padded, 32.0) == \
        statistic_moments(model, probs, 32.0)
    assert lrt_statistic(model, padded, 32.0, y) == \
        lrt_statistic(model, probs, 32.0, y[3:-2])


def test_poisson_bin_without_mass_under_one_hypothesis_raises():
    probs = BinProbabilities(n=3, p0=np.array([0.5, 0.5, 0.0]),
                             p1=np.array([0.4, 0.5, 0.1]))
    with pytest.raises(ModelAssumptionError):
        poisson_clt_report(probs, 20.0, 0.1)
    with pytest.raises(ModelAssumptionError):
        mc_error_rates(NoiseModel("poisson"), probs, 20.0, 0.1, reps=100)


def test_poisson_bin_of_negative_mass_raises():
    # a negative mass is not an underflow, however small its photon mean
    probs = make_probs(d=0.12, gamma=0.2)
    for p0, p1 in ((0.0, -1e-301), (-1e-301, -1e-301), (np.nan, 0.0)):
        bad = BinProbabilities(n=probs.n + 1, p0=np.append(probs.p0, p0),
                               p1=np.append(probs.p1, p1))
        with pytest.raises(ModelAssumptionError):
            poisson_clt_report(bad, 20.0, 0.1)


@pytest.mark.parametrize("kind", ["hg", "vsg"])
def test_statistic_moments_of_the_gaussian_models(kind):
    probs = make_probs(d=0.13, gamma=0.4)
    model = NoiseModel(kind, thinning=0.7)
    m = separation_measure(model, probs, 30.0)
    assert_allclose(statistic_moments(model, probs, 30.0),
                    (-m, 2.0 * m, m, 2.0 * m), rtol=1e-12)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_statistic_moments_match_simulation(kind):
    probs = make_probs(d=0.15, gamma=0.2)
    model = NoiseModel(kind, thinning=0.8)
    t, reps = 25.0, 40000
    moments = statistic_moments(model, probs, t)
    for side in (0, 1):
        mean, var = moments[2 * side], moments[2 * side + 1]
        stats = draw_statistic(model, probs, t, side, reps,
                               RngState(seed=11))
        centered = stats - stats.mean()
        var_se = math.sqrt(np.mean(centered ** 4) - var ** 2) / math.sqrt(reps)
        assert abs(stats.mean() - mean) < 4.0 * math.sqrt(var / reps)
        assert abs(stats.var() - var) < 4.0 * var_se


def test_separation_measures_vanish_at_zero_separation():
    probs = make_probs(d=0.0, gamma=0.2)
    assert hg_mu(probs, 20.0) == 0.0
    assert vsg_nu(probs, 20.0) == 0.0


def test_separation_measure_dispatch():
    probs = make_probs(gamma=0.2)
    assert separation_measure(NoiseModel("hg"), probs, 20.0) == hg_mu(
        probs, 20.0)
    assert separation_measure(NoiseModel("vsg"), probs, 20.0) == vsg_nu(
        probs, 20.0)
    with pytest.raises(UnsupportedMethodError):
        separation_measure(NoiseModel("poisson"), probs, 20.0)


def test_separation_measures_small_separation_quartic():
    # mu -> tau^2 q^2 (1-q)^2 d^4 S / 8 with S the summed squared bin
    # integrals of h''; nu has tau^1 and 1/p0 weights
    psf = PsfModel.gaussian(0.0849, background=0.3)
    n, t, q = 20, 20.0, 0.5
    curv = bin_curvature_integrals(psf, 0.5, n)
    p0 = bin_probabilities(psf, SourceConfig(x0=0.5, d=0.0), n).p0
    s_hg = float(curv @ curv)
    s_vsg = float((curv * curv) @ (1.0 / p0))
    rel_mu, rel_nu = [], []
    for d in (0.02, 0.01, 0.005):
        probs = bin_probabilities(psf, SourceConfig(x0=0.5, d=d,
                                                    weight_q=q), n)
        lead = (q * (1.0 - q)) ** 2 * d ** 4 / 8.0
        rel_mu.append(abs(hg_mu(probs, t) / (t ** 2 * lead * s_hg) - 1.0))
        rel_nu.append(abs(vsg_nu(probs, t) / (t * lead * s_vsg) - 1.0))
    assert rel_mu[0] > rel_mu[1] > rel_mu[2]
    assert rel_nu[0] > rel_nu[1] > rel_nu[2]
    assert rel_mu[2] < 1e-3 and rel_nu[2] < 1e-3


def test_exact_error_rates_hit_target_power():
    # pick t so the separation measure equals (z_0.9 + z_0.9)^2 / 2, the
    # value at which a level-0.1 test has power exactly 0.9
    z = QUANTILE_REFERENCE[0.9]
    target = (2.0 * z) ** 2 / 2.0
    probs = BinProbabilities(n=1, p0=np.array([0.5]), p1=np.array([0.51]))
    t = math.sqrt(2.0 * target) / 0.01
    assert_allclose(hg_mu(probs, t), target, rtol=1e-12)
    report = exact_error_rates(NoiseModel("hg"), probs, t, 0.1)
    assert_allclose(report.power, 0.9, atol=1e-12)
    assert report.level == 0.1


def test_exact_error_rates_degenerate():
    # a pair with p1 == p0 has power alpha exactly, as poisson's CLT
    # report has (test_poisson_clt_degenerate_reports_level)
    probs = make_probs(d=0.0)
    for kind in ("hg", "vsg"):
        report = exact_error_rates(NoiseModel(kind), probs, 20.0, 0.1)
        assert report.power == 0.1
        assert_allclose(report.threshold, 0.0, atol=1e-14)


@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_power_increases_with_separation(kind):
    model = NoiseModel(kind)
    z = float(ndtri(0.9))
    powers = []
    for d in (0.05, 0.1, 0.15, 0.2):
        probs = make_probs(d=d, gamma=0.2)
        powers.append(analytic_report(model, probs, 20.0, 0.1).power)
        if kind != "poisson":
            # T is normal, so the one formula is the exact power
            # Phi(sqrt(2m) - z_(1-alpha))
            m = separation_measure(model, probs, 20.0)
            assert_allclose(powers[-1], ndtr(math.sqrt(2.0 * m) - z),
                            rtol=4e-15)
    assert all(a < b for a, b in zip(powers, powers[1:]))
    assert powers[0] > 0.1


def test_exact_thinning_equivalence():
    for kind in ("hg", "vsg"):
        probs = make_probs(gamma=0.2)
        thinned = exact_error_rates(NoiseModel(kind, thinning=0.3), probs,
                                    20.0, 0.1)
        scaled = exact_error_rates(NoiseModel(kind), probs, 6.0, 0.1)
        assert thinned.power == scaled.power
        assert thinned.threshold == scaled.threshold


def test_poisson_clt_degenerate_reports_level():
    probs = make_probs(d=0.0, gamma=0.2)
    report = poisson_clt_report(probs, 20.0, 0.1)
    assert report.power == 0.1


def test_poisson_clt_thinning_equivalence():
    probs = make_probs(gamma=0.2)
    thinned = poisson_clt_report(probs, 20.0, 0.1, eta=0.3)
    scaled = poisson_clt_report(probs, 6.0, 0.1)
    assert thinned.power == scaled.power


def test_poisson_clt_matches_monte_carlo():
    probs = make_probs(d=0.12, gamma=0.2)
    t = 100.0
    clt = poisson_clt_report(probs, t, 0.1)
    mc = mc_error_rates(NoiseModel("poisson"), probs, t, 0.1, reps=100000,
                        rng=RngState(seed=2))
    se = math.sqrt(clt.power * (1.0 - clt.power) / mc.reps)
    level_se = math.sqrt(0.1 * 0.9 / mc.reps)
    assert abs(mc.power - clt.power) < 3.0 * se + 0.005
    assert abs(mc.level - 0.1) < 3.0 * level_se + 0.005


@pytest.mark.parametrize("kind", ["hg", "vsg"])
def test_mc_error_rates_match_closed_forms(kind):
    probs = make_probs(d=0.15, gamma=0.1)
    t = 20.0
    exact = exact_error_rates(NoiseModel(kind), probs, t, 0.1)
    mc = mc_error_rates(NoiseModel(kind), probs, t, 0.1, reps=100000,
                        rng=RngState(seed=4))
    power_se = math.sqrt(exact.power * (1.0 - exact.power) / mc.reps)
    level_se = math.sqrt(0.1 * 0.9 / mc.reps)
    assert abs(mc.power - exact.power) < 3.0 * power_se
    assert abs(mc.level - 0.1) < 3.0 * level_se
    assert mc.threshold == exact.threshold
    assert mc.reps == 100000
    assert 0.0 < mc.mc_se < 0.01


def test_h0_calibrated_threshold_holds_level_out_of_sample():
    probs = make_probs(d=0.15)
    t = 20.0
    model = NoiseModel("hg")
    reps = 50000
    mc = mc_error_rates(model, probs, t, 0.1, reps=reps,
                        rng=RngState(seed=6),
                        threshold_mode="h0-calibrated")
    # in-sample level is alpha by construction, up to order-statistic
    # granularity
    assert abs(mc.level - 0.1) <= 1.0 / reps + 1e-12
    fresh = sample_observations(model, probs.p0, t,
                                RngState(seed=777).generator(), reps=reps)
    held_out = float(np.mean(
        lrt_statistic(model, probs, t, fresh) > mc.threshold))
    assert abs(held_out - 0.1) < 4.0 * math.sqrt(0.1 * 0.9 / reps)


def test_statistic_normality_under_both_hypotheses():
    # the hg statistic is exactly N(-m, 2m) / N(+m, 2m); a KS test on
    # standardized draws must not reject
    probs = make_probs(d=0.15)
    t = 20.0
    model = NoiseModel("hg")
    m = hg_mu(probs, t)
    reps = 10000
    y0 = sample_observations(model, probs.p0, t, RngState(seed=8),
                             reps=reps)
    z0 = (lrt_statistic(model, probs, t, y0) + m) / math.sqrt(2.0 * m)
    assert kstest(z0, "norm").statistic < 0.02
    y1 = sample_observations(model, probs.p1, t, RngState(seed=9),
                             reps=reps)
    z1 = (lrt_statistic(model, probs, t, y1) - m) / math.sqrt(2.0 * m)
    assert kstest(z1, "norm").statistic < 0.02


@pytest.mark.parametrize("n", [7, 100, 10000])
def test_ks_distance_equals_scipy_kstest(n):
    # bit for bit, on samples near N(0, 1) and clearly off it
    for seed in range(5):
        z = np.random.default_rng(seed).standard_normal(n)
        for sample in (z, 1.1 * z + 0.05, np.exp(z)):
            assert ks_normal_distance(sample) == \
                kstest(sample, "norm").statistic


def test_mc_validation():
    probs = make_probs()
    with pytest.raises(ParameterError):
        mc_error_rates(NoiseModel("hg"), probs, 20.0, 0.1, reps=50)
    with pytest.raises(ParameterError):
        mc_error_rates(NoiseModel("hg"), probs, 20.0, 0.1,
                       threshold_mode="bootstrap")
    with pytest.raises(ParameterError):
        exact_error_rates(NoiseModel("hg"), probs, 0.5, 0.1)
    with pytest.raises(ParameterError):
        exact_error_rates(NoiseModel("hg"), probs, 20.0, 0.0)
