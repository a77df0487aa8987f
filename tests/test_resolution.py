"""Critical-separation solvers and their scaling laws."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtri

import statres.binning as binning
import statres.models as models
import statres.resolution as resolution
from statres.exceptions import (ConvergenceWarning, GeometryError,
                                NoResolutionError, ParameterError,
                                UnsupportedMethodError)
from statres.models import NoiseModel, RngState, exact_error_rates
from statres.binning import SourceConfig, bin_probabilities
from statres.psf import GAUSSIAN_FWHM_FACTOR, PsfModel, psf_fwhm
from statres.resolution import (ResolutionQuery, ResolutionResult,
                                acuna_power, asymptotic_resolution,
                                detection_boundary, exact_resolution,
                                finite_n_resolution, mc_resolution,
                                resolve_query)

SRC = str(Path(__file__).resolve().parents[1] / "src")
SIGMA_02 = 0.2 / GAUSSIAN_FWHM_FACTOR

# value pinned by an independent run of the closed-form rate
POISSON_ASYMPTOTIC_REFERENCE = 0.15292749661450025


def make_query(kind="poisson", sigma=SIGMA_02, gamma=0.0, **kwargs):
    return ResolutionQuery(model=NoiseModel(kind),
                           psf=PsfModel.gaussian(sigma, background=gamma),
                           **kwargs)


def test_query_validation():
    with pytest.raises(ParameterError):
        make_query(alpha=0.7)
    with pytest.raises(ParameterError):
        make_query(beta=0.5)
    with pytest.raises(ParameterError):
        make_query(t=0.5)
    with pytest.raises(ParameterError):
        make_query(n=0)
    with pytest.raises(ParameterError):
        make_query(n=2.5)
    with pytest.raises(GeometryError):
        make_query(x0=1.2)
    with pytest.raises(ParameterError):
        make_query(weight_q=1.0)


def test_poisson_asymptotic_reference_value():
    result = asymptotic_resolution(make_query("poisson", t=20.0, n=20))
    assert_allclose(result.d, POISSON_ASYMPTOTIC_REFERENCE, rtol=1e-12)
    assert result.method == "asymptotic"
    assert result.diagnostics["integral"] > 0.0


def test_poisson_and_vsg_share_the_asymptotic_rate():
    d_p = asymptotic_resolution(make_query("poisson", t=20.0)).d
    d_v = asymptotic_resolution(make_query("vsg", t=20.0)).d
    assert d_p == d_v


def test_asymptotic_scaling_in_time():
    # d scales exactly as t^(-1/4) for poisson/vsg and t^(-1/2) for hg
    for kind, ratio in (("poisson", 16.0 ** 0.25), ("vsg", 16.0 ** 0.25),
                        ("hg", 4.0)):
        d1 = asymptotic_resolution(make_query(kind, t=50.0)).d
        d2 = asymptotic_resolution(make_query(kind, t=800.0)).d
        assert_allclose(d1 / d2, ratio, rtol=1e-12)


def test_hg_asymptotic_scaling_in_bins():
    d1 = asymptotic_resolution(make_query("hg", t=100.0, n=10)).d
    d2 = asymptotic_resolution(make_query("hg", t=100.0, n=160)).d
    assert_allclose(d2 / d1, 2.0, rtol=1e-12)


def test_hg_resolution_ignores_background():
    for gamma in (0.0, 5.0):
        q = make_query("hg", gamma=gamma, t=20.0, n=20)
        if gamma == 0.0:
            baseline = (asymptotic_resolution(q).d,
                        finite_n_resolution(q).d, exact_resolution(q).d)
        else:
            assert asymptotic_resolution(q).d == baseline[0]
            assert finite_n_resolution(q).d == baseline[1]
            assert exact_resolution(q).d == baseline[2]


@pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")
@pytest.mark.parametrize("sigma", [0.07, 0.1, 0.12])
def test_hg_exact_resolution_ignores_background_bitwise(sigma):
    # the pedestal shifts p0 and p1 alike, so the hg power is the same in
    # exact arithmetic; the root must not follow last-bit rounding
    clean = exact_resolution(make_query("hg", sigma=sigma, t=20.0, n=20))
    noisy = exact_resolution(make_query("hg", sigma=sigma, gamma=5.0,
                                        t=20.0, n=20))
    assert clean.d == noisy.d


def test_background_degrades_vsg_resolution():
    clean = asymptotic_resolution(make_query("vsg", t=20.0)).d
    noisy = asymptotic_resolution(make_query("vsg", gamma=2.0, t=20.0)).d
    assert noisy > clean


def test_finite_n_vsg_converges_to_the_asymptotic_value():
    asym = asymptotic_resolution(make_query("vsg", t=1000.0)).d
    ds = [finite_n_resolution(make_query("vsg", t=1000.0, n=n)).d
          for n in (10, 50, 200, 1000)]
    assert ds[0] > ds[1] > ds[2] > ds[3]
    assert np.all(np.asarray(ds) > asym)
    assert_allclose(ds[-1], asym, rtol=5e-3)


def test_finite_n_hg_approaches_its_asymptotic_curve():
    gaps = []
    for n in (10, 100, 1000):
        q = make_query("hg", t=10000.0, n=n)
        gaps.append(abs(finite_n_resolution(q).d
                        / asymptotic_resolution(q).d - 1.0))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-4


def test_finite_n_rejects_poisson():
    with pytest.raises(UnsupportedMethodError):
        finite_n_resolution(make_query("poisson"))
    with pytest.raises(UnsupportedMethodError):
        exact_resolution(make_query("poisson"))


@pytest.mark.parametrize("method", ["finite-n", "exact"])
def test_resolve_query_substitutes_vsg_for_poisson(method):
    poisson = resolve_query(make_query("poisson", gamma=0.3), method)
    vsg = resolve_query(make_query("vsg", gamma=0.3), method)
    assert poisson.d == vsg.d
    assert poisson.diagnostics["substitution"] == "vsg-solver"
    assert "substitution" not in vsg.diagnostics


def test_exact_resolution_reaches_the_requested_power():
    for kind in ("vsg", "hg"):
        for alpha, beta in ((0.1, 0.1), (0.05, 0.2)):
            query = make_query(kind, t=20.0, n=20, alpha=alpha, beta=beta)
            result = exact_resolution(query)
            src = SourceConfig(x0=0.5, d=result.d)
            probs = bin_probabilities(query.psf, src, 20)
            report = exact_error_rates(query.model, probs, 20.0, alpha)
            assert_allclose(report.power, 1.0 - beta, atol=1e-9)


def test_exact_resolution_counts_gap_evaluations():
    # plain bisection took 37 evaluations
    result = exact_resolution(make_query("vsg", t=20.0, n=20))
    assert 3 <= result.diagnostics["iterations"] <= 20
    assert abs(result.diagnostics["residual"]) < 1e-9


def test_exact_resolution_shrinks_as_beta_grows():
    ds = [exact_resolution(make_query("vsg", t=20.0, beta=b)).d
          for b in (0.05, 0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(ds, ds[1:]))


def test_exact_resolution_off_center_geometry_failure():
    # near the window edge no admissible separation reaches the power
    with pytest.warns(Warning):
        with pytest.raises(NoResolutionError):
            exact_resolution(make_query("vsg", t=20.0, x0=0.05))


def test_flat_kernel_resolves_nothing(monkeypatch):
    flat = ResolutionQuery(model=NoiseModel("vsg"),
                           psf=PsfModel.gaussian(10.0), t=20.0, n=20)
    with pytest.raises(NoResolutionError):
        asymptotic_resolution(flat)
    with pytest.warns(Warning):
        with pytest.raises(NoResolutionError):
            exact_resolution(flat)
    # no analytic crossing inside the window: the Monte Carlo search
    # starts at the window's end and gives up after its first draw
    draws = []
    original = models.sample_observations
    monkeypatch.setattr(models, "sample_observations",
                        lambda *a, **k: draws.append(1) or original(*a, **k))
    with pytest.warns(Warning):
        with pytest.raises(NoResolutionError):
            mc_resolution(flat, reps=200, rng=RngState())
    assert len(draws) == 1


@pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")
@pytest.mark.parametrize("sigma,t", [(SIGMA_02, 20.0), (0.3, 100.0)],
                         ids=["fwhm-0.2", "sigma-0.3"])
def test_mc_resolution_starts_at_the_analytic_separation(sigma, t):
    # at sigma = 0.3 the root lies past d = 0.5, inside the shared window
    query = make_query("vsg", sigma=sigma, t=t, n=20)
    result = mc_resolution(query, reps=2000, rng=RngState(seed=0))
    diag = result.diagnostics
    # for vsg the analytic start is the exact solver's root
    assert_allclose(diag["start"], exact_resolution(query).d, rtol=1e-9)
    trajectory = diag["trajectory"]
    assert trajectory[0][0] == diag["start"]
    assert trajectory[-1] == (result.d, diag["beta_hat"])
    assert len(trajectory) == 1 + diag["expansions"] + diag["iterations"]


@pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")
def test_both_solvers_give_up_past_the_window():
    # at x0 = 0.03 no pair wider than 0.06 fits inside (0, 1)
    query = make_query("vsg", t=20.0, x0=0.03)
    with pytest.raises(NoResolutionError):
        exact_resolution(query)
    with pytest.raises(NoResolutionError, match="0.05999999994"):
        mc_resolution(query, reps=200, rng=RngState())


@pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")
def test_power_slope_stays_inside_the_window():
    _, gap, window, _ = resolution._search(make_query("vsg", x0=0.03))
    # at the window's end the slope is read at window / 1.001
    slope = resolution._power_slope(gap, window, window)
    assert slope == resolution._power_slope(gap, window / 1.001, window)
    assert slope > 0.0


def record_kernel_centers(monkeypatch):
    centers = []
    original = binning._kernel_bins
    monkeypatch.setattr(binning, "_kernel_bins",
                        lambda psf, center, edges: centers.append(center)
                        or original(psf, center, edges))
    return centers


def test_exact_resolution_integrates_the_null_once(monkeypatch):
    centers = record_kernel_centers(monkeypatch)
    result = exact_resolution(make_query("vsg", t=20.0, n=20, x0=0.45))
    assert centers.count(0.45) == 1
    # the two alternative sources of every d > 0 evaluated, no more
    assert len(centers) == 1 + 2 * (result.diagnostics["iterations"] - 1)


def test_mc_resolution_integrates_the_null_once(monkeypatch):
    centers = record_kernel_centers(monkeypatch)
    query = make_query("vsg", t=20.0, n=20)
    result = mc_resolution(query, reps=2000, rng=RngState(seed=0))
    start = SourceConfig(x0=query.x0, d=result.diagnostics["start"])
    assert centers.count(query.x0) == 1
    # the start's alternative is integrated by the gap at the root and
    # again by the first draw
    assert centers.count(start.x2) == 2


def test_library_solve_shows_a_warning_once():
    # in a fresh interpreter, so no earlier call has filled the registry
    # that shows a warning once
    script = (
        "from statres.models import NoiseModel\n"
        "from statres.psf import PsfModel\n"
        "from statres.resolution import ResolutionQuery, exact_resolution\n"
        "exact_resolution(ResolutionQuery(model=NoiseModel('hg'), "
        "psf=PsfModel.gaussian(0.3), t=100.0))\n")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="default")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stderr.splitlines()
    assert sum("MassTruncationWarning" in line for line in lines) == 1


def test_library_mc_and_exact_solves_show_a_warning_once():
    # the gap and the draws call the same pair_profiles function, which
    # warns at its own line, so the registry shows the warning once
    script = (
        "from statres.models import NoiseModel, RngState\n"
        "from statres.psf import PsfModel\n"
        "from statres.resolution import (ResolutionQuery, exact_resolution,\n"
        "                                mc_resolution)\n"
        "query = ResolutionQuery(model=NoiseModel('vsg'),\n"
        "                        psf=PsfModel.gaussian(0.3), t=100.0)\n"
        "mc_resolution(query, reps=1000, rng=RngState(seed=0))\n"
        "exact_resolution(ResolutionQuery(model=NoiseModel('hg'),\n"
        "                                 psf=query.psf, t=100.0))\n")
    env = dict(os.environ, PYTHONPATH=SRC, PYTHONWARNINGS="default")
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stderr.splitlines()
    assert sum("MassTruncationWarning" in line for line in lines) == 1


@pytest.mark.parametrize("mode", ["analytic", "h0-calibrated"])
def test_mc_search_steps_toward_the_band_inside_its_bracket(mode):
    # at reps = 200 the band half-width 0.005 is a quarter of a standard
    # error, so the first probe usually misses and the search steps
    directions = set()
    for kind in ("poisson", "vsg"):
        query = make_query(kind, t=20.0, n=20)
        for seed in range(6):
            result = mc_resolution(query, reps=200, rng=RngState(seed=seed),
                                   threshold_mode=mode)
            diag = result.diagnostics
            trajectory = diag["trajectory"]
            assert len(trajectory) == (1 + diag["expansions"]
                                       + diag["iterations"])
            assert trajectory[-1] == (result.d, diag["beta_hat"])
            assert diag["converged"]
            band_lo, band_hi = diag["band"]
            assert band_lo <= diag["beta_hat"] < band_hi
            # after a miss the next probe moves the way beta_hat - beta
            # says and stays inside the bracket of the probes so far
            lo, hi = 0.0, math.inf
            for (d, beta_hat), (d_next, _) in zip(trajectory, trajectory[1:]):
                assert not band_lo <= beta_hat < band_hi
                if beta_hat >= band_hi:
                    lo = d
                else:
                    hi = d
                assert (d_next > d) == (beta_hat > query.beta)
                assert lo < d_next < hi
                directions.add(d_next > d)
    assert directions == {True, False}


@pytest.mark.parametrize("mode, per_probe", [("analytic", 1),
                                             ("h0-calibrated", 2)])
def test_mc_search_draws_once_per_probe_and_side(monkeypatch, mode,
                                                 per_probe):
    # the Newton slope comes from the closed form, so a probe draws the
    # alternative, plus the null only to calibrate its threshold
    calls = []
    original = resolution.draw_statistic
    monkeypatch.setattr(resolution, "draw_statistic",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    longest = 0
    for seed in range(4):
        calls.clear()
        result = mc_resolution(make_query("vsg", t=20.0, n=20), reps=200,
                               rng=RngState(seed=seed), threshold_mode=mode)
        diag = result.diagnostics
        probes = len(diag["trajectory"])
        assert probes == 1 + diag["expansions"] + diag["iterations"]
        assert len(calls) == per_probe * probes
        longest = max(longest, probes)
    assert longest > 1


def test_mc_d_se_bounds_the_spread_of_d():
    # d_se is mc_se carried to d by the closed-form slope. The reported d
    # spreads less, by about half over 100 seeds, because about half the
    # solves stop at the exact analytic start their first probe confirms
    query = make_query("vsg", t=20.0, n=20)
    results = [mc_resolution(query, reps=1000, rng=RngState(seed=seed))
               for seed in range(20)]
    spread = float(np.std([r.d for r in results], ddof=1))
    d_se = float(np.mean([r.diagnostics["d_se"] for r in results]))
    assert spread < d_se < 3.0 * spread


def test_mc_search_warns_when_bisection_runs_out(monkeypatch):
    monkeypatch.setattr(resolution, "MC_MAX_ITERATIONS", 0)
    query = make_query("vsg", t=20.0, n=20)
    with pytest.warns(ConvergenceWarning):
        results = [mc_resolution(query, reps=200, rng=RngState(seed=s))
                   for s in range(6)]
    assert not all(r.diagnostics["converged"] for r in results)


def test_mc_resolution_agrees_with_exact():
    query = make_query("vsg", t=500.0, n=100)
    exact = exact_resolution(query).d
    mc = mc_resolution(query, reps=10000, rng=RngState(seed=0))
    assert mc.method == "monte_carlo"
    assert mc.diagnostics["converged"]
    assert abs(mc.d / exact - 1.0) < 0.05


def test_mc_resolution_is_reproducible():
    query = make_query("poisson", t=20.0, n=20)
    first = mc_resolution(query, reps=2000, rng=RngState(seed=3))
    second = mc_resolution(query, reps=2000, rng=RngState(seed=3))
    assert first.d == second.d
    assert first.diagnostics["beta_hat"] == second.diagnostics["beta_hat"]


@pytest.mark.parametrize("kind, t, mode, route", [
    ("poisson", 20.0, "analytic", "photons"),
    ("poisson", 20.0, "h0-calibrated", "photons"),
    ("poisson", 2000.0, "analytic", "records"),
    ("vsg", 20.0, "analytic", "records"),
])
def test_mc_resolution_records_the_draw_route(kind, t, mode, route):
    # 20 photons over 20 bins go by photons, 100 per bin by records
    result = mc_resolution(make_query(kind, t=t, n=20), reps=500,
                           rng=RngState(seed=1), threshold_mode=mode)
    assert result.diagnostics["draw"] == route


@pytest.mark.parametrize("t, route", [(20.0, "photons"), (70.0, "records")])
def test_mc_resolution_drops_underflowed_one_sided_bins(t, route,
                                                        monkeypatch):
    # five bins of mass 1e-300 under the alternative alone leave the search
    # as it was, bit for bit, and "draw" names the route drawn; at t = 70
    # the alternative's five extra nonzero bins would tip a route read from
    # the whole profile to photons
    query = make_query("poisson", t=t, n=20)
    plain = mc_resolution(query, reps=500, rng=RngState(seed=1))
    unpadded = resolution.pair_profiles
    padded_p1 = []

    def padded_profiles(*args):
        profiles = unpadded(*args)

        def padded(d):
            probs = profiles(d)
            padded_p1.append(np.append(probs.p1, np.full(5, 1e-300)))
            return binning.BinProbabilities(
                n=probs.n + 5, p0=np.append(probs.p0, np.zeros(5)),
                p1=padded_p1[-1])
        return padded

    photon_draws = []
    photon_sums = models._photon_sums

    def counted(*args):
        photon_draws.append(args)
        return photon_sums(*args)

    monkeypatch.setattr(resolution, "pair_profiles", padded_profiles)
    monkeypatch.setattr(models, "_photon_sums", counted)
    result = mc_resolution(query, reps=500, rng=RngState(seed=1))
    assert result == plain
    assert result.diagnostics["draw"] == route
    assert bool(photon_draws) == (route == "photons")
    assert all(models.draw_route(query.model, p1, t) == "photons"
               for p1 in padded_p1)


def test_mc_resolution_rejects_a_band_without_a_reachable_rate(monkeypatch):
    # at reps 200, beta_hat moves in steps of 0.005, and the band
    # [0.040565, 0.044835) of beta 0.0427 holds none of them: no draw
    draws = []
    monkeypatch.setattr(resolution, "draw_statistic",
                        lambda *args: draws.append(args))
    with pytest.raises(ParameterError, match="no multiple of 1/reps"):
        mc_resolution(make_query("vsg", beta=0.0427), reps=200,
                      rng=RngState(seed=0))
    assert draws == []


class Reached(Exception):
    pass


def test_mc_resolution_band_check_reads_the_band_as_the_band_test():
    # the check passes a band exactly when some beta_hat = mean of a bool
    # vector of reps entries lies in it, read by the band test itself; the
    # betas include those whose band ends fall on a multiple of 1/reps
    def refuse(*args):
        raise Reached

    for reps in (100, 137, 200, 1000):
        rates = [float(np.mean(np.arange(reps) < k)) for k in range(reps + 1)]
        edges = [r / f for r in rates for f in (0.95, 1.05)]
        for beta in [*np.linspace(0.001, 0.499, 200),
                     *(b for b in edges if 0.0 < b < 0.5)]:
            band_lo, band_hi = 0.95 * beta, 1.05 * beta
            reachable = any(band_lo <= r < band_hi for r in rates)
            query = make_query("vsg", beta=float(beta))
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(resolution, "pair_profiles", refuse)
                with pytest.raises(Reached if reachable else ParameterError):
                    mc_resolution(query, reps=reps)


def test_mc_resolution_validation():
    query = make_query("poisson")
    with pytest.raises(ParameterError):
        mc_resolution(query, reps=50)
    with pytest.raises(ParameterError):
        mc_resolution(query, threshold_mode="plugin")


def test_mc_calibrated_threshold_route():
    query = make_query("vsg", t=20.0, n=20)
    result = mc_resolution(query, reps=2000, rng=RngState(seed=5),
                           threshold_mode="h0-calibrated")
    assert result.diagnostics["threshold_mode"] == "h0-calibrated"
    reference = exact_resolution(query).d
    assert abs(result.d / reference - 1.0) < 0.15


def test_thinning_enters_only_through_the_product():
    # every route sees eta and t only as eta t, so thinning eta at time t
    # gives the bits of no thinning at time eta t
    for psf, x0 in ((PsfModel.gaussian(SIGMA_02), 0.5),
                    (PsfModel.gaussian(0.08, background=0.1), 0.4)):
        fwhm = psf_fwhm(psf)
        for eta, t in ((0.25, 80.0), (0.3, 20.0), (0.7, 20.0)):
            for kind in ("vsg", "hg", "poisson"):
                thin = ResolutionQuery(model=NoiseModel(kind, thinning=eta),
                                       psf=psf, x0=x0, t=t)
                full = ResolutionQuery(model=NoiseModel(kind), psf=psf,
                                       x0=x0, t=eta * t)
                routes = [asymptotic_resolution]
                if kind != "poisson":
                    routes += [finite_n_resolution, exact_resolution]
                for route in routes:
                    assert route(thin).d == route(full).d, (route, kind, eta)
                assert (detection_boundary(thin.model, fwhm, t, 20, 0.1, 0.1)
                        == detection_boundary(full.model, fwhm, eta * t, 20,
                                              0.1, 0.1))
    thin = ResolutionQuery(model=NoiseModel("poisson", thinning=0.25),
                           psf=PsfModel.gaussian(SIGMA_02), t=80.0)
    full = make_query("poisson", t=20.0)
    a = mc_resolution(thin, reps=2000, rng=RngState(seed=1))
    b = mc_resolution(full, reps=2000, rng=RngState(seed=1))
    assert a.d == b.d


def test_weight_ratio_law():
    # d(q) / d(1/2) = 1 / (2 sqrt(q (1 - q))) for the closed-form routes
    for kind in ("poisson", "hg"):
        solver = (asymptotic_resolution if kind == "poisson"
                  else finite_n_resolution)
        base = solver(make_query(kind, t=20.0)).d
        for q in (0.2, 0.35, 0.5, 0.65):
            expected = 1.0 / (2.0 * math.sqrt(q * (1.0 - q)))
            d_q = solver(make_query(kind, t=20.0, weight_q=q)).d
            assert_allclose(d_q / base, expected, rtol=1e-12)


def test_hg_regime_flag():
    flagged = asymptotic_resolution(make_query("hg", t=10.0, n=400))
    assert "note" in flagged.diagnostics
    clean = asymptotic_resolution(make_query("hg", t=20.0, n=20))
    assert "note" not in clean.diagnostics
    # the regime reads the photon count eta t, so a thinned query at
    # n = 100 >= (0.3 * 20)^2 is flagged just as its unthinned twin is
    thinned = asymptotic_resolution(ResolutionQuery(
        model=NoiseModel("hg", thinning=0.3), psf=PsfModel.gaussian(SIGMA_02),
        n=100, t=20.0))
    twin = asymptotic_resolution(make_query("hg", t=6.0, n=100))
    assert thinned.d == twin.d
    assert thinned.diagnostics == twin.diagnostics
    assert "note" in thinned.diagnostics


def test_acuna_power_properties():
    psf = PsfModel.gaussian(SIGMA_02, background=0.5)
    assert_allclose(acuna_power(psf, 0.5, 0.5, 20, 20.0, 0.0, 0.1), 0.1,
                    atol=1e-12)
    powers = [acuna_power(psf, 0.5, 0.5, 20, 20.0, d, 0.1)
              for d in (0.05, 0.1, 0.15, 0.2)]
    assert all(a < b for a, b in zip(powers, powers[1:]))
    with pytest.raises(ParameterError):
        acuna_power(psf, 0.5, 0.5, 20, 20.0, -0.1, 0.1)


def test_acuna_power_inverts_the_finite_n_solver():
    # at the finite-n vsg critical separation the closed-form power is
    # exactly the requested 1 - beta
    psf = PsfModel.gaussian(SIGMA_02, background=0.5)
    query = ResolutionQuery(model=NoiseModel("vsg"), psf=psf, t=20.0, n=20)
    d = finite_n_resolution(query).d
    assert_allclose(acuna_power(psf, 0.5, 0.5, 20, 20.0, d, 0.1), 0.9,
                    atol=1e-6)


def test_detection_boundary_linear_in_width():
    for kind in ("poisson", "vsg", "hg"):
        model = NoiseModel(kind)
        d1 = detection_boundary(model, 0.1, 20.0, 20, 0.1, 0.1)
        d2 = detection_boundary(model, 0.2, 20.0, 20, 0.1, 0.1)
        expected = 2.0 if kind != "hg" else 2.0 ** 1.25
        assert_allclose(d2 / d1, expected, rtol=1e-13)


def test_detection_boundary_coefficients():
    # at unit width, a single bin and t = 1, the boundary reduces to
    # C sqrt(z) with model-specific constants
    log2 = math.log(2.0)
    c_p = 2.0 ** 0.25 / math.sqrt(log2)
    c_hg = (2.0 ** 0.875 * math.pi ** 0.125
            / (3.0 ** 0.25 * log2 ** 0.625))
    for alpha in (0.01, 0.05, 0.1):
        z = float(ndtri(1.0 - alpha))
        got_p = detection_boundary(NoiseModel("poisson"), 1.0, 1.0, 1,
                                   alpha, alpha)
        assert_allclose(got_p, c_p * math.sqrt(z), rtol=1e-13)
        got_hg = detection_boundary(NoiseModel("hg"), 1.0, 1.0, 1,
                                    alpha, alpha)
        assert_allclose(got_hg, c_hg * math.sqrt(z), rtol=1e-13)


def test_detection_boundary_tracks_the_asymptotic_solver():
    # for a narrow kernel the leading-order law and the full integral
    # agree closely
    for kind in ("poisson", "hg"):
        query = make_query(kind, sigma=0.02 / GAUSSIAN_FWHM_FACTOR,
                           t=50.0, n=20)
        full = asymptotic_resolution(query).d
        leading = detection_boundary(NoiseModel(kind), 0.02, 50.0, 20,
                                     0.1, 0.1)
        assert_allclose(leading, full, rtol=1e-6)


def test_detection_boundary_validation():
    with pytest.raises(ParameterError):
        detection_boundary(NoiseModel("poisson"), 0.0, 20.0, 20, 0.1, 0.1)


def test_resolve_query_dispatch():
    query = make_query("vsg", t=20.0, n=20)
    assert resolve_query(query, "asymptotic").method == "asymptotic"
    assert resolve_query(query, "finite-n").method == "finite_n"
    assert resolve_query(query, "exact").method == "exact"
    mc = resolve_query(query, "mc", reps=500, rng=RngState(seed=2))
    assert mc.method == "monte_carlo"
    with pytest.raises(ParameterError):
        resolve_query(query, "bootstrap")


def test_result_type():
    result = asymptotic_resolution(make_query("poisson", t=20.0))
    assert isinstance(result, ResolutionResult)
    assert 0.0 < result.d < 1.0
