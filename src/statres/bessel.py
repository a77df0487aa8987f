"""The Bessel functions of the Airy pattern, from numpy alone.

The Airy kernel is g(v)^2 with g(v) = 2 J1(v)/v, and its derivatives need
one more function (DLMF 10.6): with

    G(v) = 2 J1(v) / v,    H(v) = J2(v) / v^2,

g = G, g' = -2 v H and g'' = 6 H - G. Both are even and entire, so neither
needs a divide by v or a separate branch at v = 0. Each call evaluates at
v = scale * u:

* ``airy_g``   G alone, for the kernel value.
* ``airy_gh``  G and H from one table lookup, for the derivatives.

Up to |v| = TABLE_END both come from one Taylor step off the nearest node
of a table, which the first call builds (``_taylor_table``); beyond it
from Hankel's expansion (DLMF 10.17.3), whose first HANKEL_TERMS terms of
P and of Q suffice in doubles there. Both agree with scipy.special's j1
and jv(2, .) to a few units in the last place (``tests/test_bessel.py``
states the bounds).
"""

from __future__ import annotations

import functools
import math

import numpy as np

# the table of ``_taylor_table``: nodes k / TABLE_STEP on [0, TABLE_END]
# and TABLE_ORDER Taylor terms per node and function
TABLE_STEP = 64
TABLE_END = 64
TABLE_ORDER = 6
# top order of Miller's recurrence, enough for J_n(v), v <= TABLE_END, to
# 1e-20 (its error falls as (e v / 2 top)^(2 top))
MILLER_TOP = 128
# terms of Hankel's P and of Q: the next ones are below 1e-16 of the
# value from |v| = TABLE_END on
HANKEL_TERMS = 5


def airy_g(u, scale: float = 1.0) -> np.ndarray:
    """G(v) = 2 J1(v)/v at v = scale * u. Vectorized in u."""
    return _amplitudes(u, scale, 1)[0]


def airy_gh(u, scale: float = 1.0) -> tuple:
    """(G(v), H(v)) = (2 J1(v)/v, J2(v)/v^2) at v = scale * u."""
    g, h = _amplitudes(u, scale, 2)
    return g, h


def _amplitudes(u, scale: float, count: int) -> np.ndarray:
    """The first ``count`` of G, H at v = scale * u, one row each, by
    table where it reaches and by Hankel's expansion beyond."""
    # w is |v| in table steps, and j = rint(w) its nearest node; a node
    # past the table, nan included, reads as the first one past it,
    # which the lookup rejects
    w = np.abs(u, dtype=float)
    w *= abs(scale) * TABLE_STEP
    j = np.fmin(np.rint(w), TABLE_END * TABLE_STEP + 1)
    try:
        coeffs = _lookup(j, count)
    except IndexError:
        w, j = np.asarray(w), np.asarray(j)
        near = j <= TABLE_END * TABLE_STEP
        if not near.any():
            far = _hankel(w.reshape(-1) / TABLE_STEP, count)
            return far.reshape((count,) + w.shape)
        out = np.empty((count,) + w.shape)
        out[:, near] = _horner(_lookup(j[near], count), w[near] - j[near])
        out[:, ~near] = _hankel(w[~near] / TABLE_STEP, count)
        return out
    return _horner(coeffs, w - j)


def _lookup(j: np.ndarray, count: int) -> np.ndarray:
    """The Taylor coefficients of the first ``count`` of G, H at the
    nodes j: shape (count, TABLE_ORDER) + j.shape."""
    return _taylor_table()[:count].take(j.astype(np.intp), axis=2)


def _horner(coeffs: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """Horner's rule in the step delta, on G and H at once."""
    out = coeffs[:, 0] * delta
    for k in range(1, TABLE_ORDER - 1):
        out += coeffs[:, k]
        out *= delta
    out += coeffs[:, -1]
    return out


def _scaled_orders(m: np.ndarray, count: int) -> np.ndarray:
    """F_n(m) = J_n(m) / m^n for n < count at each m >= 0.

    Miller's backward recurrence J_(n-1) = (2n / m) J_n - J_(n+1) reads
    F_(n-1) = 2n F_n - m^2 F_(n+1) in F, with no divide by m, so m = 0
    needs no branch. Started at MILLER_TOP from F = 0 above a tiny F, it
    keeps the orders asked for and sums J_2 + J_4 + ... = sum m^2k F_2k
    by Horner's rule in m^2 on the way down, to normalize by
    J_0 + 2 sum J_2k = 1.
    """
    m2 = m * m
    above, f = np.zeros_like(m), np.full_like(m, 1e-250)
    kept = np.empty((count, m.size))
    evens = np.zeros_like(m)
    for n in range(MILLER_TOP, 0, -1):
        if n < count:
            kept[n] = f
        if n % 2 == 0:
            evens *= m2
            evens += f
        above, f = f, 2.0 * n * f - m2 * above
    kept[0] = f
    return kept / (f + 2.0 * m2 * evens)


@functools.cache
def _taylor_table() -> np.ndarray:
    """Taylor coefficients of G and H about the nodes m = k / TABLE_STEP.

    Lommel's multiplication theorem (DLMF 10.23.1) gives about each node
    F_n(v) = sum_k F_(n+k)(m) e^k / k! with e = (m^2 - v^2) / 2, so for
    v = m + d, e = -d (m + d / 2), and G = 2 F_1 and H = F_2 expand in d
    with coefficients sum_k F_(n+k)(m) / k! [d^p] e^k. Scaled to the step
    delta = d TABLE_STEP, the table holds G's coefficients and then H's,
    one row per order, highest first as Horner's rule reads them. For
    |d| <= 1 / (2 TABLE_STEP) the terms left out move each function by
    less than 1e-17.
    """
    m = np.arange(TABLE_END * TABLE_STEP + 1) / TABLE_STEP
    f = _scaled_orders(m, TABLE_ORDER + 2)
    rows = []
    for n, weight in ((1, 2.0), (2, 1.0)):
        coeffs = np.zeros((TABLE_ORDER, m.size))
        for p in range(TABLE_ORDER):
            # [d^p] e^k = (-1)^k C(k, p - k) m^(2k - p) / 2^(p - k)
            for k in range((p + 1) // 2, p + 1):
                coeffs[p] += (f[n + k] / math.factorial(k)
                              * (-1) ** k * math.comb(k, p - k)
                              * 0.5 ** (p - k) * m ** (2 * k - p))
            coeffs[p] *= weight / TABLE_STEP ** p
        rows.append(coeffs[::-1])
    table = np.array(rows)
    table.flags.writeable = False
    return table


def _hankel_coeffs(nu: int) -> np.ndarray:
    """Hankel's a_k(nu) with alternating signs, split into P's and Q's
    series in 1/v^2, highest order first: rows P, then Q."""
    a = [1.0]
    for k in range(1, 2 * HANKEL_TERMS):
        a.append(a[-1] * (4 * nu * nu - (2 * k - 1) ** 2) / (8.0 * k))
    signs = [(-1) ** k for k in range(HANKEL_TERMS)]
    return np.array([[s * c for s, c in zip(signs, a[0::2])][::-1],
                     [s * c for s, c in zip(signs, a[1::2])][::-1]])


# P and Q for J1, then for J2; one column per term, highest order first
_HANKEL = np.concatenate([_hankel_coeffs(1), _hankel_coeffs(2)])


def _hankel(v: np.ndarray, count: int) -> np.ndarray:
    """The first ``count`` of G, H at each v > TABLE_END of a 1-d array,
    one row each, by Hankel's expansion.

    J_nu(v) = sqrt(2 / (pi v)) (P cos w - Q sin w) with
    w = v - (2 nu + 1) pi / 4. For nu = 1 and 2 the phases are
    cos(v - 3 pi/4) = (sin v - cos v) / sqrt 2 and
    sin(v - 3 pi/4) = -(sin v + cos v) / sqrt 2, which keeps numpy's
    range reduction of v exact. An infinite v is read as 1e300, where both
    functions are 0.
    """
    v = np.minimum(v, 1e300)
    r = 1.0 / v
    y = r * r
    series = _HANKEL[:2 * count, :1] * y
    for k in range(1, HANKEL_TERMS - 1):
        series += _HANKEL[:2 * count, k:k + 1]
        series *= y
    series += _HANKEL[:2 * count, -1:]
    series[1::2] *= r
    sin, cos = np.sin(v), np.cos(v)
    minus, plus = sin - cos, sin + cos
    # G = 2 J1 / v and H = J2 / v^2, each J carrying sqrt(1 / (pi v))
    amp = np.sqrt(r / math.pi)
    amp *= r
    out = np.empty((count, v.size))
    out[0] = (series[0] * minus + series[1] * plus) * (2.0 * amp)
    if count == 2:
        out[1] = (series[3] * minus - series[2] * plus) * (amp * r)
    return out
