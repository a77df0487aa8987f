"""Kernel evaluation, derivatives, widths and closed-form integrals."""

import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import j1, y1

from statres.exceptions import ModelAssumptionError, ParameterError
from statres.psf import (AIRY_FWHM_U, AIRY_TOTAL_MASS_U, GAUSSIAN_FWHM_FACTOR,
                         PsfModel, _kernel_bins, curvature_integral, eval_psf,
                         fisher_integral, kernel_value, mass_fraction,
                         psf_first_derivative, psf_fwhm,
                         psf_second_derivative, sted_narrow, total_mass)

# frozen high-precision references (30-digit arithmetic, 17 printed)
AIRY_FWHM_U_REFERENCE = 3.2326798966214064
J1_REFERENCE = {0.5: 0.24226845767487389, 1.0: 0.44005058574493352,
                2.0: 0.57672480775687339}
CURVATURE_SIGMA_01 = 21157.10935593173
FISHER_SIGMA_01 = 19996.123063198816
CURVATURE_SIGMA_005 = 677027.50025730754
FISHER_SIGMA_005 = 320000.0


def numeric_fwhm(psf):
    """FWHM found by root solving h(u) = h(0)/2, the oracle of psf_fwhm."""
    target = 0.5 * float(kernel_value(psf, 0.0))
    hi = psf_fwhm(psf)
    while float(kernel_value(psf, hi)) > target:
        hi *= 2.0
    root = brentq(lambda u: float(kernel_value(psf, u)) - target,
                  0.0, hi, xtol=1e-14, rtol=1e-15)
    return 2.0 * root


def test_gaussian_peak_value():
    psf = PsfModel.gaussian(1.0)
    assert_allclose(eval_psf(psf, 0.0), 1.0 / math.sqrt(2.0 * math.pi),
                    rtol=1e-15)


def test_airy_peak_is_one():
    psf = PsfModel.airy(0.2)
    assert_allclose(eval_psf(psf, 0.0), 1.0, rtol=1e-15)


def test_background_adds_constant_pedestal():
    psf = PsfModel.gaussian(0.1, background=2.5)
    bare = PsfModel.gaussian(0.1)
    u = np.linspace(-0.5, 0.5, 11)
    assert_allclose(eval_psf(psf, u), eval_psf(bare, u) + 2.5, rtol=1e-15)


@pytest.mark.parametrize("psf", [PsfModel.gaussian(0.1), PsfModel.airy(0.2)])
def test_kernel_is_even(psf):
    u = np.linspace(1e-6, 0.8, 4001)
    assert_allclose(kernel_value(psf, u), kernel_value(psf, -u), rtol=1e-12)


def test_gaussian_second_derivative_values():
    psf = PsfModel.gaussian(0.1)
    # at the peak h'' = -h(0) / sigma^2; at u = sigma it vanishes
    expected_peak = -kernel_value(psf, 0.0) / 0.01
    assert_allclose(psf_second_derivative(psf, 0.0), expected_peak,
                    rtol=1e-14)
    assert_allclose(psf_second_derivative(psf, 0.1), 0.0, atol=1e-10)


def test_first_derivative_matches_analytic_gaussian():
    psf = PsfModel.gaussian(0.1)
    u = np.linspace(-0.3, 0.3, 61)
    expected = -u / 0.01 * kernel_value(psf, u)
    assert_allclose(psf_first_derivative(psf, u), expected, rtol=1e-12)


def test_airy_derivatives_integrate_back():
    # integral of h'' over [a, b] must equal h'(b) - h'(a), and that of h'
    # must equal h(b) - h(a)
    psf = PsfModel.airy(0.2)
    a, b = -0.07, 0.11
    value, _ = quad(lambda x: float(psf_second_derivative(psf, x)), a, b,
                    limit=200, epsabs=0.0, epsrel=1e-13)
    expected = psf_first_derivative(psf, b) - psf_first_derivative(psf, a)
    assert_allclose(value, expected, rtol=1e-12)
    value, _ = quad(lambda x: float(psf_first_derivative(psf, x)), a, b,
                    limit=200, epsabs=0.0, epsrel=1e-13)
    expected = kernel_value(psf, b) - kernel_value(psf, a)
    assert_allclose(value, expected, rtol=1e-12)


def test_airy_derivatives_are_symmetric():
    psf = PsfModel.airy(0.2)
    u = np.linspace(1e-6, 0.8, 4001)
    assert_allclose(psf_first_derivative(psf, -u),
                    -psf_first_derivative(psf, u), rtol=1e-13)
    assert_allclose(psf_second_derivative(psf, -u),
                    psf_second_derivative(psf, u), rtol=1e-13)


def test_airy_derivatives_near_the_peak():
    # h = g(s u)^2 with g = 1 - v^2/8 + v^4/192 - ..., so near the peak
    # h' = -s^2 u/2 + 5 s^4 u^3/48 and h'' = -s^2/2 + 5 s^4 u^2/16; the
    # series error is below 1e-12 relative for s u <= 1e-3
    psf = PsfModel.airy(0.2)
    s = AIRY_FWHM_U / 0.2
    u = np.logspace(-14, -3, 45) / s
    assert_allclose(psf_first_derivative(psf, u),
                    -s ** 2 * u / 2 + 5 * s ** 4 * u ** 3 / 48, rtol=1e-12)
    assert_allclose(psf_second_derivative(psf, u),
                    -s ** 2 / 2 + 5 * s ** 4 * u ** 2 / 16, rtol=1e-12)
    assert psf_first_derivative(psf, 0.0) == 0.0
    assert_allclose(psf_second_derivative(psf, 1e-12),
                    psf_second_derivative(psf, 0.0), rtol=1e-12)


def test_gaussian_fwhm_closed_form():
    assert_allclose(psf_fwhm(PsfModel.gaussian(0.1)),
                    0.1 * GAUSSIAN_FWHM_FACTOR, rtol=1e-15)
    assert_allclose(GAUSSIAN_FWHM_FACTOR, 2.3548200450309493, rtol=1e-15)


def test_airy_fwhm_is_the_given_width():
    assert psf_fwhm(PsfModel.airy(0.2)) == 0.2
    # the oracle: twice the root of (2 J1(u)/u)^2 = 1/2
    root = brentq(lambda u: (2.0 * j1(u) / u) ** 2 - 0.5, 1.0, 2.5,
                  xtol=1e-14, rtol=1e-15)
    assert_allclose(2.0 * root, AIRY_FWHM_U_REFERENCE, rtol=1e-14)
    assert_allclose(AIRY_FWHM_U, 2.0 * root, rtol=1e-15)


@pytest.mark.parametrize("psf", [PsfModel.gaussian(0.05),
                                 PsfModel.airy(0.17)])
def test_numeric_fwhm_matches_closed_form(psf):
    assert_allclose(numeric_fwhm(psf), psf_fwhm(psf), rtol=1e-9)


@pytest.mark.parametrize("psf", [PsfModel.gaussian(0.73),
                                 PsfModel.airy(0.31)])
def test_kernel_halves_at_half_width(psf):
    half = 0.5 * psf_fwhm(psf)
    assert_allclose(kernel_value(psf, half),
                    0.5 * kernel_value(psf, 0.0), rtol=1e-9)


def test_airy_matches_bessel_reference():
    # kernel in dimensionless units is (2 J1(u)/u)^2
    psf = PsfModel.airy(AIRY_FWHM_U)  # unit scale: x equals u
    for x, j1x in J1_REFERENCE.items():
        assert_allclose(float(kernel_value(psf, x)), (2.0 * j1x / x) ** 2,
                        rtol=1e-12)


def test_sted_narrowing():
    assert sted_narrow(0.2, 0.0) == 0.2
    assert_allclose(sted_narrow(0.2, 35.0), 0.2 / 6.0, rtol=1e-15)
    assert_allclose(sted_narrow(0.2, 3.0), 0.1, rtol=1e-15)


def test_sted_narrowing_composes():
    rng = np.random.default_rng(42)
    for _ in range(100):
        xi1, xi2 = rng.uniform(0.0, 50.0, 2)
        # two depletion stages compose like one with (1+xi1)(1+xi2) - 1
        combined = (1.0 + xi1) * (1.0 + xi2) - 1.0
        assert_allclose(sted_narrow(sted_narrow(0.2, xi1), xi2),
                        sted_narrow(0.2, combined), rtol=1e-12)


def test_sted_rejects_negative_saturation():
    with pytest.raises(ParameterError):
        sted_narrow(0.2, -0.5)
    with pytest.raises(ParameterError):
        sted_narrow(-0.2, 1.0)


def test_curvature_integral_frozen_values():
    assert_allclose(curvature_integral(PsfModel.gaussian(0.1)),
                    CURVATURE_SIGMA_01, rtol=1e-12)
    assert_allclose(curvature_integral(PsfModel.gaussian(0.05)),
                    CURVATURE_SIGMA_005, rtol=1e-12)


def test_fisher_integral_frozen_values():
    assert_allclose(fisher_integral(PsfModel.gaussian(0.1)),
                    FISHER_SIGMA_01, rtol=1e-12)
    assert_allclose(fisher_integral(PsfModel.gaussian(0.05)),
                    FISHER_SIGMA_005, rtol=1e-12)


def test_curvature_integral_leading_order():
    # small-width limit (3/8) pi^-1/2 sigma^-5
    sigma = 0.1
    leading = 3.0 / (8.0 * math.sqrt(math.pi)) * sigma ** -5
    assert_allclose(curvature_integral(PsfModel.gaussian(sigma)), leading,
                    rtol=1e-6)


def test_fisher_integral_leading_order():
    sigma = 0.1
    assert_allclose(fisher_integral(PsfModel.gaussian(sigma)),
                    2.0 * sigma ** -4, rtol=2e-4)


@pytest.mark.parametrize("sigma", [0.02, 0.05, 0.1, 0.2, 0.3])
def test_closed_forms_match_adaptive_quadrature(sigma):
    psf = PsfModel.gaussian(sigma)
    pts = [max(0.5 - 5 * sigma, 1e-9), 0.5, min(0.5 + 5 * sigma, 1 - 1e-9)]
    curv, _ = quad(lambda x: float(psf_second_derivative(psf, x - 0.5)) ** 2,
                   0.0, 1.0, points=pts, limit=200, epsabs=0.0, epsrel=1e-10)
    fish, _ = quad(lambda x: float(psf_second_derivative(psf, x - 0.5)) ** 2
                   / float(kernel_value(psf, x - 0.5)),
                   0.0, 1.0, points=pts, limit=200, epsabs=0.0, epsrel=1e-10)
    assert_allclose(curvature_integral(psf), curv, rtol=1e-8)
    assert_allclose(fisher_integral(psf), fish, rtol=1e-8)


def test_quadrature_path_matches_closed_form():
    # an off-center x0 forces quadrature; x0 = 0.5 uses the closed form,
    # and a symmetric kernel cannot tell 0.5 from 0.5 + 0
    for sigma in (0.05, 0.1):
        psf = PsfModel.gaussian(sigma)
        assert_allclose(curvature_integral(psf, x0=0.5 + 1e-12),
                        curvature_integral(psf), rtol=1e-8)
        assert_allclose(fisher_integral(psf, x0=0.5 + 1e-12),
                        fisher_integral(psf), rtol=1e-8)


@pytest.mark.parametrize("sigma", [0.01, 0.005, 0.002, 0.001, 0.0005, 1e-5])
def test_off_center_narrow_gaussian_fisher_integral(sigma):
    # far from x0 = 0.3 the kernel and its h'' underflow to 0; the
    # integrand reads 0 there, not 0/0, and the window holds the whole peak
    psf = PsfModel.gaussian(sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        off_center = fisher_integral(psf, x0=0.3)
        off_center_curvature = curvature_integral(psf, x0=0.3)
    assert_allclose(off_center, fisher_integral(psf), rtol=1e-12)
    assert_allclose(off_center_curvature, curvature_integral(psf), rtol=1e-12)


def test_narrow_airy_curvature_integral_follows_the_width_cube_law():
    # the window holds the whole peak, so the integral scales as fwhm^-3
    scaled = [curvature_integral(PsfModel.airy(f), x0=0.4)
              * (f / AIRY_FWHM_U) ** 3 for f in (1e-3, 1e-5, 1e-7)]
    assert_allclose(scaled, scaled[0], rtol=1e-10)


def test_fisher_integral_decreases_with_background():
    values = [fisher_integral(PsfModel.gaussian(0.1, background=g))
              for g in (0.0, 1.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.1 * values[0]


def test_dispatch_integrals_cover_airy():
    psf = PsfModel.airy(0.2)
    curv, _ = quad(lambda x: float(psf_second_derivative(psf, x - 0.5)) ** 2,
                   0.0, 1.0, points=[0.4, 0.5, 0.6], limit=200)
    assert_allclose(curvature_integral(psf), curv, rtol=1e-6)


def test_airy_information_integral_needs_background():
    # the kernel vanishes on its rings, so h''^2 / h is not integrable
    with pytest.raises(ModelAssumptionError):
        fisher_integral(PsfModel.airy(0.2))
    with_background = fisher_integral(PsfModel.airy(0.2, background=0.5))
    assert with_background > 0.0


def test_total_mass_values():
    assert total_mass(PsfModel.gaussian(0.1)) == 1.0
    expected = AIRY_TOTAL_MASS_U * 0.2 / AIRY_FWHM_U
    assert_allclose(total_mass(PsfModel.airy(0.2)), expected, rtol=1e-15)
    assert_allclose(AIRY_TOTAL_MASS_U, 32.0 / (3.0 * math.pi), rtol=1e-15)


def test_mass_fraction_gaussian():
    psf = PsfModel.gaussian(0.1)
    assert mass_fraction(psf, 0.5) > 0.999999
    # centered at the boundary, half the mass is lost
    assert_allclose(mass_fraction(psf, 0.0), 0.5, rtol=1e-12)


def test_mass_fraction_airy_near_one_when_contained():
    psf = PsfModel.airy(0.05)
    assert mass_fraction(psf, 0.5) > 0.99


@pytest.mark.parametrize("x0", [0.5, 0.37])
def test_mass_fraction_narrow_airy_is_one(x0):
    # the oscillating tail outside the window holds under 1e-10 of the mass
    assert abs(mass_fraction(PsfModel.airy(1e-5), x0) - 1.0) < 1e-6


# the oracle of the Airy bin masses: scipy's quad of G^2 = (2 J1(v)/v)^2
# in the Airy unit v. Up to ORACLE_NEAR it integrates G^2 itself, on
# pieces of length 4; beyond, G^2 = (2 / v^2)(|H|^2 + Re H^2) with
# H = J1 + i Y1, where |H|^2 and H^2 e^(-2iv) are smooth, so the smooth
# term is integrated on pieces 4 times longer each and the cos 2v and
# sin 2v terms by QUADPACK's Fourier weights, whatever their number of
# oscillations. Against 40-digit mpmath its own error stays below 5e-13
# on random bins and 1.7e-12 on a short bin centred on a zero of G, as
# scipy rounds the Bessel phase to an ulp of v. QUADPACK may flag
# roundoff on a sin term held to 1e-14 of its piece's smooth term, which
# is the oracle's limit, not the package's.
ORACLE_NEAR = 64.0
ORACLE_CUTS = np.concatenate([np.arange(4.0, ORACLE_NEAR, 4.0),
                              ORACLE_NEAR * 4.0 ** np.arange(40)])


def _g2(v):
    return (2.0 * j1(v) / v) ** 2 if v != 0.0 else 1.0


def _g2_far(v, part):
    h = complex(j1(v), y1(v))
    if part == 0:
        return 2.0 * abs(h) ** 2 / v ** 2
    smooth = h * h * cmath.exp(-2j * v) * 2.0 / v ** 2
    return smooth.real if part == 1 else -smooth.imag


def _quad_g2_side(lo, hi):
    """The integral of G^2 over [lo, hi], 0 <= lo < hi."""
    points = [lo] + [c for c in ORACLE_CUTS if lo < c < hi] + [hi]
    total = 0.0
    for a, b in zip(points, points[1:]):
        if b <= ORACLE_NEAR:
            total += quad(_g2, a, b, epsabs=0.0, epsrel=1e-13)[0]
            continue
        smooth = quad(_g2_far, a, b, args=(0,), epsabs=0.0, epsrel=1e-13)[0]
        total += smooth
        for part, weight in ((1, "cos"), (2, "sin")):
            total += quad(_g2_far, a, b, args=(part,), weight=weight,
                          wvar=2.0, epsabs=1e-14 * smooth, epsrel=1e-13,
                          limit=500)[0]
    return total


def quad_g2(a, b):
    """The integral of G^2 over [a, b]: G^2 is even."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        if b <= 0.0:
            return _quad_g2_side(-b, -a)
        if a >= 0.0:
            return _quad_g2_side(a, b)
        return _quad_g2_side(0.0, -a) + _quad_g2_side(0.0, b)


# the bound of the property below. Against 40-digit mpmath the
# package's bins lie within 4e-14 on random bins; a short bin centred on
# a zero of G, where the table's G and the tail's differences hold
# absolute, not relative, accuracy, reaches 1.3e-12 (width 0.035 at
# v = 70), as does the oracle; the examples below hold no such bin
AIRY_BIN_RTOL = 1e-12


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(log_fwhm=st.floats(-12.0, 0.0), x0=st.floats(0.0, 1.0),
       n=st.integers(1, 2000),
       picks=st.lists(st.integers(0, 1999), min_size=1, max_size=5))
def test_airy_bins_match_quad(log_fwhm, x0, n, picks):
    # the bins of a source at x0, the first, the last, the one that holds
    # x0 and a few more, each to AIRY_BIN_RTOL of its own mass, which for
    # a narrow kernel is about its FWHM or far less: an absolute error of
    # 1e-12 would miss them by up to 30 %
    psf = PsfModel.airy(10.0 ** log_fwhm)
    edges = np.linspace(0.0, 1.0, n + 1)
    bins = _kernel_bins(psf, (x0,), edges)[0]
    # the oracle integrates between the same edges in v
    v = (edges - x0) * (AIRY_FWHM_U / psf.fwhm)
    centre = min(int(np.searchsorted(edges, x0, side="right")) - 1, n - 1)
    for i in {0, n - 1, centre, *(pick % n for pick in picks)}:
        want = quad_g2(v[i], v[i + 1]) * (psf.fwhm / AIRY_FWHM_U)
        assert bins[i] == pytest.approx(want, rel=AIRY_BIN_RTOL, abs=0.0)


def test_narrow_airy_mass_fraction_is_one_minus_the_tail_loss():
    # the tail loss, quad's integral of G^2 outside [0, 1] over the total,
    # is 1.4e-7 at FWHM 1e-3 and falls as the width squared, below an ulp
    # of 1 from 1e-7 on, where any absolute error of the bin shows. The
    # bound is two units in the last place of 1
    tail_end = float(ORACLE_CUTS[-1])
    for fwhm in (1e-3, 1e-5, 1e-7, 1e-9):
        for x0 in (0.5, 0.37):
            v = np.array([x0, 1.0 - x0]) * (AIRY_FWHM_U / fwhm)
            loss = sum(quad_g2(side, tail_end) for side in v)
            loss /= AIRY_TOTAL_MASS_U
            inside = mass_fraction(PsfModel.airy(fwhm), x0)
            assert abs(1.0 - inside - loss) <= 4.5e-16


def test_psf_validation():
    with pytest.raises(ParameterError):
        PsfModel.gaussian(0.0)
    with pytest.raises(ParameterError):
        PsfModel.airy(-0.1)
    with pytest.raises(ParameterError):
        PsfModel.gaussian(0.1, background=-1.0)
    with pytest.raises(ParameterError):
        PsfModel(kind="box", sigma=0.1)
    with pytest.raises(ParameterError):
        PsfModel.gaussian(-0.1)
