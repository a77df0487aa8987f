"""Fixed-order Gauss-Legendre quadrature, the package's one quadrature.

It integrates the window integrals of ``statres.psf``, the curvature and
information integrals over [0, 1] (the Riemann check compares them with
their bin sums); no bin mass goes through it. The information integral
with a background has no closed form. Results feed likelihood
computations, so they must be deterministic: nodes and weights are
computed once, summation order inside a panel is fixed, and sums across
bins use numpy's pairwise summation. Each panel is refined by recursive
bisection until its two-half estimate agrees with its whole-panel
estimate. A peak much narrower than a bin could fall between the nodes of
both estimates, which would then agree on zero, so break points split the
bins around it. The panels lie in the kernel's own coordinate
u = x - center, where those next to the peak stay much wider than the
spacing of doubles.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

GL_ORDER = 16
DEFAULT_TOL = 1e-12
MAX_DEPTH = 12


@cache
def gauss_legendre_rule() -> tuple[np.ndarray, np.ndarray]:
    """(nodes, weights) of the GL_ORDER-point Gauss-Legendre rule."""
    return np.polynomial.legendre.leggauss(GL_ORDER)


def _panel_estimates(func, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """GL estimate of the integral of func over each [lo_i, hi_i]."""
    nodes, weights = gauss_legendre_rule()
    mid = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    # points shape (panels, order); one vectorized kernel call per level
    points = mid[:, None] + half[:, None] * nodes[None, :]
    values = func(points)
    return half * (values @ weights)


def integrate_bins(func, edges, center: float, width: float) -> np.ndarray:
    """Integrate func(x - center) over consecutive bins of x.

    ``func`` is vectorized in u = x - center; ``edges`` are the n+1
    increasing bin edges in x; ``width`` is the length scale of the peak
    at u = 0, which gets break points at u = +-width 4^k while these are
    shorter than the widest bin. Returns the n bin integrals. Each panel
    is refined until its whole and two-half estimates agree to DEFAULT_TOL
    times max(1, |first-pass total|), halved per level, at most MAX_DEPTH
    levels deep.
    """
    u = np.asarray(edges, dtype=float) - center
    steps = width * 4.0 ** np.arange(
        math.ceil(math.log(np.diff(u).max() / width, 4)))
    breaks = np.concatenate([-steps, steps])
    panels = np.union1d(u, breaks[(breaks > u[0]) & (breaks < u[-1])])
    lo, hi = panels[:-1], panels[1:]
    whole = _panel_estimates(func, lo, hi)
    tol = DEFAULT_TOL * max(1.0, abs(whole.sum()))
    parts = _refine(func, lo, hi, whole, tol, MAX_DEPTH)
    return np.add.reduceat(parts, np.searchsorted(panels, u[:-1]))


def _refine(func, lo, hi, whole, tol, depth):
    """Halve each panel until its halves sum to its whole estimate."""
    mid = 0.5 * (lo + hi)
    left = _panel_estimates(func, lo, mid)
    right = _panel_estimates(func, mid, hi)
    halves = left + right
    bad = np.abs(halves - whole) > tol
    if depth <= 0 or not bad.any():
        return halves
    result = halves.copy()
    result[bad] = (
        _refine(func, lo[bad], mid[bad], left[bad], 0.5 * tol, depth - 1)
        + _refine(func, mid[bad], hi[bad], right[bad], 0.5 * tol, depth - 1))
    return result
