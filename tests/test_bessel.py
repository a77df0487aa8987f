"""The Airy pattern's Bessel functions without scipy, with scipy as the
oracle."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.integrate import quad
from scipy.special import j1, jn_zeros, jv

from statres import bessel
from statres.psf import AIRY_FWHM_U, PsfModel, _airy_amplitude

END = bessel.TABLE_END


def signed(x, seed):
    # the same magnitudes with random signs: G and H are even
    signs = np.random.default_rng(seed).choice([-1.0, 1.0], x.size)
    return signs * x


def oracle(x):
    return 2.0 * j1(x) / x, jv(2, x) / x ** 2


# (lo, hi, bound on |G - 2 j1(v)/v|, bound on |H - jv(2, v)/v^2|): a few
# units in the last place of the values, which are near 1 and 1/8 up to
# |v| = 1 and fall as |v|^-1.5 and |v|^-2.5 beyond
RANGES = [(1e-8, 1.0, 1e-15, 1e-15),
          (1.0, END, 1e-15, 2e-16),
          (END, 1e6, 5e-17, 5e-20)]


@pytest.mark.parametrize("lo, hi, g_bound, h_bound", RANGES)
def test_functions_match_scipy(lo, hi, g_bound, h_bound):
    rng = np.random.default_rng(int(lo))
    x = signed(np.concatenate([
        rng.uniform(lo, hi, 20000),
        np.exp(rng.uniform(np.log(lo), np.log(hi), 20000)), [lo, hi]]), 1)
    g, h = bessel.airy_gh(x)
    want_g, want_h = oracle(x)
    assert np.abs(g - want_g).max() <= g_bound
    assert np.abs(h - want_h).max() <= h_bound
    assert np.array_equal(bessel.airy_g(x), g)


def test_functions_near_zero():
    # below |v| = 1e-8 G = 1 - v^2/8 and H = 1/8 - v^2/96 are 1 and 1/8
    # to within an ulp; scipy's jv(2, v) / v^2 loses digits there
    x = signed(np.concatenate([np.geomspace(1e-300, 1e-8, 2001), [0.0]]), 2)
    g, h = bessel.airy_gh(x)
    nonzero = x != 0.0
    want_g = 2.0 * j1(x[nonzero]) / x[nonzero]
    assert np.abs(g[nonzero] - want_g).max() <= 2.3e-16
    assert np.abs(h - 0.125).max() <= 2.8e-17
    assert bessel.airy_g(0.0) == 1.0
    assert bessel.airy_gh(0.0) == (1.0, 0.125)


def test_functions_at_the_bessel_zeros():
    # where J1 or J2 vanishes the absolute error stays at the level of
    # its neighbours: the table and the Hankel branch hold no relative
    # error that grows at a zero
    for zeros in (jn_zeros(1, 300), jn_zeros(2, 300)):
        x = np.concatenate([zeros, -zeros])
        g, h = bessel.airy_gh(x)
        want_g, want_h = oracle(x)
        assert np.abs(g - want_g).max() <= 1e-16
        assert np.abs(h - want_h).max() <= 2e-17


def test_table_meets_the_hankel_branch():
    # both sides of the table's last node, alone and in one call: a value
    # takes the same branch whatever else the call holds
    step = 1.0 / bessel.TABLE_STEP
    x = np.array([np.nextafter(END, 0.0), float(END), END + 0.25 * step,
                  END + 0.5 * step, END + 0.75 * step, END + step, 1e3])
    together = bessel.airy_gh(x)
    for k, value in enumerate(x):
        alone = bessel.airy_gh(value)
        assert (together[0][k], together[1][k]) == alone
    want_g, want_h = oracle(x)
    assert np.abs(together[0] - want_g).max() <= 5e-17
    assert np.abs(together[1] - want_h).max() <= 5e-20


def test_scale_shapes_and_special_values():
    u = np.linspace(-3.0, 3.0, 48).reshape(3, 16)
    g, h = bessel.airy_gh(u, 2.5)
    assert g.shape == h.shape == (3, 16)
    assert_allclose(g, bessel.airy_g(2.5 * u), rtol=0.0, atol=5e-16)
    assert np.array_equal(bessel.airy_g(u, -2.5), bessel.airy_g(u, 2.5))
    # even functions: the sign of v never reaches the table
    assert np.array_equal(bessel.airy_g(u), bessel.airy_g(-u))
    assert bessel.airy_g(np.array([])).shape == (0,)
    wide = np.array([[0.5, 1e3], [-1e300, np.inf]])
    g, h = bessel.airy_gh(wide)
    assert g.shape == (2, 2)
    assert g[1, 1] == 0.0 and h[1, 1] == 0.0
    # a call with no value inside the table keeps its shape too
    far = np.array([[100.0, 1e3, 1e5], [2e3, 3e4, 7e2]])
    g, h = bessel.airy_gh(far)
    assert g.shape == h.shape == (2, 3)
    assert (g[1, 2], h[1, 2]) == bessel.airy_gh(7e2)
    assert np.isnan(bessel.airy_gh(np.array([np.nan, 1.0]))[0][0])


def test_amplitude_is_smooth_across_the_old_small_v_switch():
    # the scipy-based amplitude switched to its series below |v| = 1e-8;
    # the table reads g = 1 - v^2/8, g' = -v/4 + v^3/48 and
    # g'' = -1/4 + v^2/16 on both sides of that point, to an ulp of the
    # terms of g'' = 6 H - G
    v = np.concatenate([np.geomspace(1e-11, 1e-5, 601),
                        -np.geomspace(1e-11, 1e-5, 601)])
    scale, g, dg, d2g = _airy_amplitude(PsfModel.airy(AIRY_FWHM_U), v)
    assert scale == 1.0
    assert_allclose(g, 1.0 - v ** 2 / 8.0, rtol=0.0, atol=2.3e-16)
    assert_allclose(dg, -v / 4.0 + v ** 3 / 48.0, rtol=5e-16, atol=0.0)
    assert_allclose(d2g, -0.25 + v ** 2 / 16.0, rtol=0.0, atol=2.3e-16)


def g2(v):
    return (2.0 * j1(v) / v) ** 2 if v != 0.0 else 1.0


def test_g2_bins_across_the_table_end():
    # bins on both sides of |v| = TABLE_END, across it and inside one
    # table step, each to 1e-13 of scipy's quad of G^2
    v = np.array([-200.0, -64.3, -64.0, -63.99, -40.0, -0.5, -0.001, 0.0,
                  0.002, 0.25, 63.9, 63.99, END, 64.01, 64.3, 70.0, 200.0])
    bins = bessel.g2_bins(v)
    for a, b, got in zip(v, v[1:], bins):
        want = quad(g2, a, b, epsabs=0.0, epsrel=1e-13, limit=500)[0]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)


def test_g2_bins_mirror_rows_and_total():
    # G^2 is even: the mirror image of the edges gives the same bins in
    # the same bits; each row of a 2-d call is its own 1-d call; bins
    # that tile [-V, V] sum to 32 / (3 pi) less the two tails, 2 / (pi V^2)
    # to leading order
    rng = np.random.default_rng(3)
    v = np.sort(rng.uniform(-300.0, 300.0, 41))
    bins = bessel.g2_bins(v)
    assert np.array_equal(bessel.g2_bins(-v[::-1]), bins[::-1])
    rows = np.array([v, 2.0 * v, v + 70.0])
    together = bessel.g2_bins(rows)
    assert together.shape == (3, 40)
    for row, got in zip(rows, together):
        assert np.array_equal(bessel.g2_bins(row), got)
    wide = np.linspace(-1e8, 1e8, 2001)
    total = 32.0 / (3.0 * math.pi) - 4.0 / (math.pi * 1e16)
    assert bessel.g2_bins(wide).sum() == pytest.approx(total, rel=1e-15)
