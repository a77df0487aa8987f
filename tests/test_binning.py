"""Bin probabilities, geometry validation and per-bin integrals."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erf

from statres.binning import (BinProbabilities, SourceConfig, bin_edges,
                             bin_curvature_integrals, bin_probabilities,
                             pair_profiles)
from statres.exceptions import (GeometryError, MassTruncationWarning,
                                ParameterError)
from statres.psf import (PsfModel, kernel_value, mass_fraction,
                         psf_first_derivative, psf_second_derivative,
                         total_mass)
from statres.quadrature import integrate_bins


def test_source_positions():
    src = SourceConfig(x0=0.5, d=0.1, weight_q=0.3, offset_lambda=0.02)
    assert_allclose(src.x1, 0.5 - 0.02 - 0.7 * 0.1, rtol=1e-15)
    assert_allclose(src.x2, 0.5 - 0.02 + 0.3 * 0.1, rtol=1e-15)


def test_intensity_center_is_preserved_without_offset():
    src = SourceConfig(x0=0.4, d=0.2, weight_q=0.3)
    center = src.weight_q * src.x1 + (1.0 - src.weight_q) * src.x2
    assert_allclose(center, 0.4, rtol=1e-14)


def test_geometry_validation():
    with pytest.raises(GeometryError):
        SourceConfig(x0=1.2, d=0.1)
    with pytest.raises(GeometryError):
        SourceConfig(x0=0.05, d=0.2)  # x1 < 0
    with pytest.raises(GeometryError):
        SourceConfig(x0=0.95, d=0.2)  # x2 > 1
    with pytest.raises(ParameterError):
        SourceConfig(x0=0.5, d=-0.1)
    with pytest.raises(ParameterError):
        SourceConfig(x0=0.5, d=0.1, weight_q=1.0)


def test_bin_count_validation():
    psf = PsfModel.gaussian(0.1)
    with pytest.raises(ParameterError):
        bin_probabilities(psf, SourceConfig(x0=0.5, d=0.0), 0)
    with pytest.raises(ParameterError):
        bin_probabilities(psf, SourceConfig(x0=0.5, d=0.0), 2.5)


def test_zero_separation_gives_identical_profiles():
    psf = PsfModel.gaussian(0.0849)
    for q in (0.5, 0.3, 0.123):
        probs = bin_probabilities(psf, SourceConfig(x0=0.5, d=0.0,
                                                    weight_q=q), 20)
        assert np.array_equal(probs.p0, probs.p1)


def test_two_bins_split_evenly_for_centered_kernel():
    probs = bin_probabilities(PsfModel.gaussian(0.05),
                              SourceConfig(x0=0.5, d=0.0), 2)
    assert_allclose(probs.p0, [0.5, 0.5], atol=1e-10)


def test_total_mass_matches_closed_form():
    # sum of bin integrals must equal the kernel mass inside [0, 1]
    sigma = 0.05
    probs = bin_probabilities(PsfModel.gaussian(sigma),
                              SourceConfig(x0=0.5, d=0.0), 20)
    expected = float(erf(0.5 / (math.sqrt(2.0) * sigma)))
    assert_allclose(np.sum(probs.p0), expected, rtol=1e-12)


def test_background_pedestal_is_exact():
    gamma = 0.7
    src = SourceConfig(x0=0.5, d=0.1)
    bare = bin_probabilities(PsfModel.gaussian(0.0849), src, 20)
    with_bg = bin_probabilities(PsfModel.gaussian(0.0849, background=gamma),
                                src, 20)
    assert_allclose(with_bg.p0, bare.p0 + gamma / 20.0, rtol=1e-14)
    assert_allclose(with_bg.p1, bare.p1 + gamma / 20.0, rtol=1e-14)


def test_mass_is_conserved_between_hypotheses():
    # the airy kernel is narrower than a bin, so its bins take break points
    for psf in (PsfModel.gaussian(0.05), PsfModel.airy(0.002)):
        rng = np.random.default_rng(3)
        for _ in range(20):
            x0 = rng.uniform(0.35, 0.65)
            d = rng.uniform(0.0, 0.1)
            q = rng.uniform(0.2, 0.8)
            src = SourceConfig(x0=x0, d=d, weight_q=q)
            # all sources at least 5 sigma from the window boundary
            assert min(src.x1, src.x2, x0) > 0.25
            probs = bin_probabilities(psf, src, 25)
            assert abs(np.sum(probs.p1) - np.sum(probs.p0)) <= 1e-9


def test_refining_bins_is_consistent():
    # the airy kernel is narrower than the coarse bins, not the fine ones
    src = SourceConfig(x0=0.5, d=0.12, weight_q=0.4)
    for psf in (PsfModel.gaussian(0.0849, background=0.3),
                PsfModel.airy(0.2, background=0.3)):
        coarse = bin_probabilities(psf, src, 10)
        fine = bin_probabilities(psf, src, 20)
        merged0 = fine.p0.reshape(10, 2).sum(axis=1)
        merged1 = fine.p1.reshape(10, 2).sum(axis=1)
        assert_allclose(merged0, coarse.p0, atol=1e-12)
        assert_allclose(merged1, coarse.p1, atol=1e-12)


def test_symmetric_configuration_gives_palindromic_profiles():
    for psf in (PsfModel.gaussian(0.08), PsfModel.airy(0.08)):
        probs = bin_probabilities(psf, SourceConfig(x0=0.5, d=0.15), 21)
        assert_allclose(probs.p0, probs.p0[::-1], atol=1e-12)
        assert_allclose(probs.p1, probs.p1[::-1], atol=1e-12)


def test_probabilities_have_a_positive_floor():
    # a gaussian kernel is monotone away from its peak, so the lowest bin
    # cannot fall below the far window edge value
    n = 16
    psf = PsfModel.gaussian(0.2)
    with pytest.warns(MassTruncationWarning):
        probs = bin_probabilities(psf, SourceConfig(x0=0.5, d=0.0), n)
    from statres.psf import eval_psf
    floor = float(min(eval_psf(psf, 0.5), eval_psf(psf, -0.5))) / n
    assert np.all(probs.p0 >= floor * (1.0 - 1e-9))

    # an airy kernel touches zero inside the window, but bin integrals stay
    # strictly positive and never below the background pedestal
    airy = PsfModel.airy(0.4, background=0.1)
    with pytest.warns(MassTruncationWarning):
        probs = bin_probabilities(airy, SourceConfig(x0=0.5, d=0.0), n)
    assert np.all(probs.p0 > 0.1 / n)


def test_truncation_warning_near_boundary():
    psf = PsfModel.gaussian(0.1)
    with pytest.warns(MassTruncationWarning):
        bin_probabilities(psf, SourceConfig(x0=0.12, d=0.01), 10)


@pytest.mark.parametrize("psf", [PsfModel.gaussian(0.1),
                                 PsfModel.airy(0.05),
                                 PsfModel.airy(0.2)])
@pytest.mark.parametrize("x0", [0.5, 0.3, 0.12])
def test_kernel_bin_sum_is_the_mass_fraction(psf, x0, recwarn):
    # the truncation check reads the mass inside [0, 1] off the bin sum
    probs = bin_probabilities(psf, SourceConfig(x0=x0, d=0.0), 40)
    inside = np.sum(probs.p0) / total_mass(psf)
    assert_allclose(inside, mass_fraction(psf, x0), rtol=1e-10)
    warned = any(isinstance(w.message, MassTruncationWarning)
                 for w in recwarn.list)
    assert warned == (mass_fraction(psf, x0) < 0.99)


def test_truncation_warning_for_either_alternative_source():
    # the null source is contained, the left alternative source is not
    psf = PsfModel.gaussian(0.05)
    src = SourceConfig(x0=0.2, d=0.2)
    assert mass_fraction(psf, src.x0) > 0.99 > mass_fraction(psf, src.x1)
    with pytest.warns(MassTruncationWarning):
        bin_probabilities(psf, src, 20)


def test_no_truncation_warning_when_contained(recwarn):
    bin_probabilities(PsfModel.gaussian(0.05), SourceConfig(x0=0.5, d=0.1),
                      10)
    assert not any(isinstance(w.message, MassTruncationWarning)
                   for w in recwarn.list)


@pytest.mark.parametrize("sigma, x0", [(1e-5, 0.5), (1e-4, 0.3123)])
def test_narrow_gaussian_keeps_its_mass(sigma, x0, recwarn):
    # the peak lies inside one bin, far below the bin width
    probs = bin_probabilities(PsfModel.gaussian(sigma),
                              SourceConfig(x0=x0, d=0.0), 20)
    assert abs(np.sum(probs.p0) - 1.0) <= 1e-12
    assert not recwarn.list


@pytest.mark.parametrize("fwhm", [1e-6, 1e-8])
def test_narrow_airy_keeps_its_mass(fwhm, recwarn):
    psf = PsfModel.airy(fwhm)
    probs = bin_probabilities(psf, SourceConfig(x0=0.3123, d=0.0), 20)
    assert_allclose(np.sum(probs.p0), total_mass(psf), rtol=1e-4)
    assert not recwarn.list


@pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")
@pytest.mark.parametrize("sigma", [1e-3, 0.01, 0.1, 0.3])
@pytest.mark.parametrize("n", [20, 1000])
@pytest.mark.parametrize("x0", [0.5, 0.3123])
def test_gaussian_bins_match_quadrature(sigma, n, x0):
    # the closed form agrees with plain quadrature where that sees the peak
    psf = PsfModel.gaussian(sigma)
    probs = bin_probabilities(psf, SourceConfig(x0=x0, d=0.0), n)
    by_quad = integrate_bins(lambda x: kernel_value(psf, x - x0),
                             bin_edges(n))
    assert_allclose(probs.p0, by_quad, rtol=0.0, atol=1e-13)


def test_bin_curvature_integrals_match_quadrature():
    psf = PsfModel.gaussian(0.0849)
    by_slope = bin_curvature_integrals(psf, 0.5, 20)
    by_quad = integrate_bins(lambda x: psf_second_derivative(psf, x - 0.5),
                             bin_edges(20))
    assert_allclose(by_slope, by_quad, atol=1e-11)
    # edges telescope: the total integral is h'(1 - x0) - h'(-x0)
    total = (psf_first_derivative(psf, 0.5)
             - psf_first_derivative(psf, -0.5))
    assert_allclose(np.sum(by_slope), total, atol=1e-12)


def test_bin_probabilities_type():
    probs = bin_probabilities(PsfModel.gaussian(0.1),
                              SourceConfig(x0=0.5, d=0.05), 8)
    assert isinstance(probs, BinProbabilities)
    assert probs.n == 8
    assert probs.p0.shape == (8,)
    assert probs.p1.shape == (8,)


@pytest.mark.parametrize("psf", [PsfModel.gaussian(0.08),
                                 PsfModel.gaussian(0.05, background=2.0),
                                 PsfModel.airy(0.2)])
@pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")
def test_pair_profiles_equal_bin_probabilities_bitwise(psf):
    profiles = pair_profiles(psf, 0.4, 0.3, 37)
    for d in (0.0, 0.01, 0.1, 0.3):
        got = profiles(d)
        want = bin_probabilities(psf, SourceConfig(0.4, d, 0.3), 37)
        assert got.n == want.n
        assert np.array_equal(got.p0, want.p0)
        assert np.array_equal(got.p1, want.p1)


def test_pair_profiles_check_the_null_mass_on_every_call():
    # at d = 0 only the null source is integrated, and it is truncated
    profiles = pair_profiles(PsfModel.gaussian(0.3), 0.5, 0.5, 20)
    for d in (0.0, 0.0, 0.1):
        with pytest.warns(MassTruncationWarning):
            profiles(d)
