"""Properties of the closed-form error rates, checked on generated inputs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statres.binning import SourceConfig, bin_probabilities
from statres.models import (MODEL_KINDS, NoiseModel, analytic_report,
                            exact_error_rates)
from statres.psf import PsfModel
from statres.resolution import ROOT_GRID, ResolutionQuery, exact_resolution

pytestmark = pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")

# few examples, fixed draws: each example costs a few bin quadratures
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

fwhms = st.floats(0.05, 0.3)
positions = st.floats(0.35, 0.65)
weights = st.floats(0.3, 0.7)
separations = st.floats(0.005, 0.2)
photons = st.floats(20.0, 1000.0)
alphas = st.sampled_from([0.05, 0.1, 0.2])
exact_models = st.sampled_from(["hg", "vsg"])


def probs_at(fwhm, x0, q, d, n=20):
    psf = PsfModel.gaussian_from_fwhm(fwhm)
    return bin_probabilities(psf, SourceConfig(x0=x0, d=d, weight_q=q), n)


def exact_power(kind, probs, t, alpha):
    return exact_error_rates(NoiseModel(kind), probs, t, alpha).power


@PROPERTY
@given(kind=st.sampled_from(MODEL_KINDS), eta=st.floats(0.05, 1.0),
       t=photons, fwhm=fwhms, d=separations, alpha=alphas)
def test_thinning_enters_only_through_eta_t(kind, eta, t, fwhm, d, alpha):
    probs = probs_at(fwhm, 0.5, 0.5, d)
    thinned = analytic_report(NoiseModel(kind, thinning=eta), probs, t,
                              alpha)
    merged = analytic_report(NoiseModel(kind), probs, eta * t, alpha)
    assert thinned.threshold == pytest.approx(merged.threshold, rel=1e-12,
                                              abs=1e-300)
    assert thinned.power == pytest.approx(merged.power, rel=1e-12)


@PROPERTY
@given(kind=exact_models, fwhm=fwhms, x0=positions, q=weights,
       d=separations, t=photons, alpha=alphas)
def test_exact_power_is_mirror_symmetric(kind, fwhm, x0, q, d, t, alpha):
    # x -> 1 - x maps the pair at (x0, q) onto the pair at (1 - x0, 1 - q)
    # and reverses the bins, which leaves the power unchanged
    power = exact_power(kind, probs_at(fwhm, x0, q, d), t, alpha)
    mirrored = exact_power(kind, probs_at(fwhm, 1.0 - x0, 1.0 - q, d), t,
                           alpha)
    assert mirrored == pytest.approx(power, rel=1e-9)


@PROPERTY
@given(kind=exact_models, fwhm=fwhms, x0=positions, q=weights,
       d=separations, step=st.floats(0.001, 0.1), t=photons, alpha=alphas)
def test_exact_power_grows_with_d(kind, fwhm, x0, q, d, step, t, alpha):
    near = exact_power(kind, probs_at(fwhm, x0, q, d), t, alpha)
    far = exact_power(kind, probs_at(fwhm, x0, q, d + step), t, alpha)
    assert far >= near - 1e-12


@PROPERTY
@given(kind=exact_models, fwhm=fwhms, x0=positions, q=weights,
       d=separations, t=photons, factor=st.floats(1.0, 10.0), alpha=alphas)
def test_exact_power_grows_with_t(kind, fwhm, x0, q, d, t, factor, alpha):
    probs = probs_at(fwhm, x0, q, d)
    assert exact_power(kind, probs, factor * t, alpha) >= \
        exact_power(kind, probs, t, alpha) - 1e-12


@PROPERTY
@given(kind=exact_models, fwhm=st.floats(0.05, 0.25),
       x0=st.floats(0.4, 0.6), t=st.floats(50.0, 1000.0))
def test_exact_resolution_inverts_the_exact_power(kind, fwhm, x0, t):
    query = ResolutionQuery(model=NoiseModel(kind),
                            psf=PsfModel.gaussian_from_fwhm(fwhm), x0=x0,
                            t=t)
    result = exact_resolution(query)
    target = 1.0 - query.beta
    power = exact_power(kind, probs_at(fwhm, x0, 0.5, result.d), t,
                        query.alpha)
    assert 0.0 <= power - target <= result.diagnostics["residual"]
    below = exact_power(kind, probs_at(fwhm, x0, 0.5, result.d - ROOT_GRID),
                        t, query.alpha)
    assert below < target
