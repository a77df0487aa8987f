"""Fixed-order Gauss-Legendre quadrature over bins of the unit interval.

Bin integrals feed likelihood computations, so they must be deterministic:
nodes and weights are computed once, summation order inside a bin is fixed,
and sums across bins use numpy's pairwise summation. Each bin is refined by
recursive bisection until the two-half estimate agrees with the whole-bin
estimate to an absolute tolerance. A peak much narrower than a bin can fall
between the nodes of both estimates, which then agree on zero, so the
caller puts break points around it. The one caller is the Airy kernel in
``binning``; Gaussian bins have a closed form.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

GL_ORDER = 16
DEFAULT_TOL = 1e-12
MAX_DEPTH = 12


@lru_cache(maxsize=None)
def gauss_legendre_rule(order: int = GL_ORDER) -> tuple[np.ndarray, np.ndarray]:
    """Return (nodes, weights) of the Gauss-Legendre rule on [-1, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _panel_estimates(func, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """GL estimate of the integral of func over each [lo_i, hi_i]."""
    nodes, weights = gauss_legendre_rule()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # points shape (panels, order); one vectorized kernel call per level
    points = mid[:, None] + half[:, None] * nodes[None, :]
    values = func(points)
    return half * (values @ weights)


def integrate_bins(func, edges: np.ndarray) -> np.ndarray:
    """Integrate a vectorized callable over consecutive bins.

    Parameters
    ----------
    func : callable
        Vectorized function of one array argument.
    edges : ndarray
        Increasing array of bin edges, length n+1 for n bins.

    Returns
    -------
    ndarray of the n bin integrals, each refined until its one-panel
    estimate and the sum of its two half-panel estimates agree to
    DEFAULT_TOL (halved per level), at most MAX_DEPTH levels deep.
    """
    edges = np.asarray(edges, dtype=float)
    lo, hi = edges[:-1], edges[1:]
    return _refine(func, lo, hi, DEFAULT_TOL, MAX_DEPTH)


def _refine(func, lo, hi, tol, depth):
    whole = _panel_estimates(func, lo, hi)
    mid = 0.5 * (lo + hi)
    left = _panel_estimates(func, lo, mid)
    right = _panel_estimates(func, mid, hi)
    halves = left + right
    if depth <= 0:
        return halves
    bad = np.abs(halves - whole) > tol
    if not bad.any():
        return halves
    result = halves.copy()
    refined_left = _refine(func, lo[bad], mid[bad], 0.5 * tol, depth - 1)
    refined_right = _refine(func, mid[bad], hi[bad], 0.5 * tol, depth - 1)
    result[bad] = refined_left + refined_right
    return result
