"""The standard normal law without scipy, with scipy as the oracle."""

import math

import numpy as np
import pytest
from scipy.special import erf, ndtr, ndtri

from statres import normal
from statres.psf import PsfModel, _kernel_bins


def tail_grid():
    # both signs, the far tail out to |z| = 38.5, and values near 0
    return np.concatenate([np.linspace(-38.5, 38.5, 20001),
                           np.geomspace(1e-12, 38.5, 5001), [0.0]])


def branches(z):
    # the per-value branch and the table branch on the same values
    short = np.concatenate([normal.tail(part) for part in np.array_split(
        z, math.ceil(z.size / (normal.TAIL_VECTOR_SIZE - 1)))])
    assert z.size >= normal.TAIL_VECTOR_SIZE
    return short, normal.tail(z)


def test_tail_branches_match_scipy_and_each_other():
    z = tail_grid()
    want = ndtr(-np.abs(z))
    kept = want > 1e-300
    short, table = branches(z)
    for got in (short, table):
        assert np.all(np.abs(got - want)[kept] <= 5e-13 * want[kept])
    assert np.all(np.abs(short - table)[kept] <= 5e-13 * want[kept])
    # far out both read 0, as scipy's does
    assert np.all(short[~kept] < 1e-299) and np.all(table[~kept] < 1e-299)


def test_tail_ends():
    for z in (np.array([0.0, np.inf, -np.inf, 50.0]),
              np.tile([0.0, np.inf, -np.inf, 50.0],
                      normal.TAIL_VECTOR_SIZE)):
        got = normal.tail(z)
        assert got.tolist()[:4] == [0.5, 0.0, 0.0, 0.0]


def parent_bins(sigma, center, edges):
    # the scipy formula: upper CDF differences right of the center, lower
    # ones left of it
    z = (edges - center) / sigma
    lower, upper = ndtr(z), ndtr(-z)
    return np.where(z[:-1] >= 0.0, upper[:-1] - upper[1:],
                    lower[1:] - lower[:-1])


@pytest.mark.parametrize("n,sigma", [
    (20, 0.005), (20, 0.0849), (20, 0.3), (80, 0.0849), (200, 0.02),
    (200, 0.3),
    (1000, 0.005), (1000, 0.0849)])
def test_gaussian_bins_match_the_scipy_formula(n, sigma):
    # a center inside a bin, one on an edge (0.5), and a pair in one call;
    # a bin far narrower than a wide kernel is a difference of nearly
    # equal tails, which the bound leaves out (n = 1000, sigma = 0.3)
    edges = np.linspace(0.0, 1.0, n + 1)
    centers = (0.4123, 0.5, 0.9731)
    rows = _kernel_bins(PsfModel.gaussian(sigma), centers, edges)
    for center, got in zip(centers, rows):
        want = parent_bins(sigma, center, edges)
        kept = want > 1e-290
        assert np.all(np.abs(got - want)[kept] <= 1e-13 * want[kept])
        assert np.all(got[~kept] <= 1e-290)
        # a row does not depend on the rows beside it: the tail's method
        # goes by the row length
        alone = _kernel_bins(PsfModel.gaussian(sigma), (center,), edges)[0]
        assert np.array_equal(alone, got)


def test_quantile_matches_ndtri():
    p = np.concatenate([np.geomspace(1e-300, 0.5, 4001),
                        1.0 - np.geomspace(2.0 ** -53, 0.5, 4001),
                        np.linspace(0.001, 0.999, 999)])
    p = p[(p > 1e-300) & (p <= 1.0 - 2.0 ** -53)]
    got = np.array([normal.quantile(v) for v in p])
    want = ndtri(p)
    assert np.all(np.abs(got - want) <= 2e-15 * np.abs(want))


def test_quantile_ends_are_those_of_ndtri():
    # scipy's ndtri gives -inf and inf at 0 and 1 and nan outside [0, 1]
    for p in (0.0, 1.0, -0.5, 1.5, math.nan):
        want = float(ndtri(p))
        got = normal.quantile(p)
        assert got == want or (math.isnan(got) and math.isnan(want))


def test_cdf_matches_ndtr():
    z = np.linspace(-38.0, 38.0, 20001)
    got = np.array([normal.cdf(v) for v in z])
    want = ndtr(z)
    kept = want > 1e-300
    assert np.all(np.abs(got - want)[kept] <= 5e-13 * want[kept])
    assert normal.cdf(-math.inf) == 0.0 and normal.cdf(math.inf) == 1.0


def test_math_erf_matches_scipy():
    # the closed-form curvature and information integrals read math.erf
    x = np.concatenate([np.linspace(-6.0, 6.0, 20001),
                        np.geomspace(1e-12, 6.0, 2001)])
    got = np.array([math.erf(v) for v in x])
    assert np.all(np.abs(got - erf(x)) <= 1e-15 * np.abs(erf(x)))
