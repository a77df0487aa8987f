"""The Bessel functions of the Airy pattern, from numpy alone.

The Airy kernel is g(v)^2 with g(v) = 2 J1(v)/v, and its derivatives need
one more function (DLMF 10.6): with

    G(v) = 2 J1(v) / v,    H(v) = J2(v) / v^2,

g = G, g' = -2 v H and g'' = 6 H - G. Both are even and entire, so neither
needs a divide by v or a separate branch at v = 0. Each call evaluates at
v = scale * u:

* ``airy_g``   G alone, for the kernel value.
* ``airy_gh``  G and H from one table lookup, for the derivatives.
* ``g2_bins``  the integrals of G^2 between consecutive v, for the bin
               masses of the kernel.

Up to |v| = TABLE_END both come from one Taylor step off the nearest node
of a table, which the first call builds (``_taylor_table``); beyond it
from Hankel's expansion (DLMF 10.17.3), whose first HANKEL_TERMS terms of
P and of Q suffice in doubles there. Both agree with scipy.special's j1
and jv(2, .) to a few units in the last place (``tests/test_bessel.py``
states the bounds).

The bin masses integrate nothing numerically. On [0, TABLE_END] G^2 about
each node is the square of its Taylor polynomial, whose integral is exact,
and the odd antiderivative A(v) = int_0^v G^2 is held at the nodes in
double-double, so a bin is a difference of A that keeps its digits however
far out it lies or however short it is (``_g2_table``). Beyond TABLE_END
the tail C(v) = int_v^inf G^2 = 16 / (3 pi) - A(v) comes from Hankel's
expansion of J1, integrated term by term and by parts (DLMF 2.3), whose
leading term 2 / (pi v^2) enters each bin as one product without
cancellation (``_g2_tail``). The first call of ``g2_bins`` builds both.
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
# terms of each of the three series in 1 / v^2 of the tail of G^2 past
# TABLE_END (``_g2_tail``): the next ones are below 1e-16 of the tail there
TAIL_TERMS = 7


def airy_g(u, scale: float = 1.0) -> np.ndarray:
    """G(v) = 2 J1(v)/v at v = scale * u. Vectorized in u."""
    return _amplitudes(u, scale, 1)[0]


def airy_gh(u, scale: float = 1.0) -> tuple:
    """(G(v), H(v)) = (2 J1(v)/v, J2(v)/v^2) at v = scale * u."""
    g, h = _amplitudes(u, scale, 2)
    return g, h


def g2_bins(v) -> np.ndarray:
    """The integral of G^2 between each pair of consecutive entries of v
    along its last axis, which must ascend.

    A is odd, so every bin is A(b) - A(a): up to |v| = TABLE_END from the
    double-double nodes of ``_g2_table``, whose two differences keep the
    bin's digits, and beyond it from the tail of ``_g2_tail_bins``. Each
    edge costs one table lookup, whatever the bin's width.
    """
    v = np.asarray(v, dtype=float)
    x = np.abs(v)
    right = v > 0.0
    hi, lo = _g2_antiderivative(np.minimum(x, TABLE_END))
    np.negative(hi, out=hi, where=~right)
    np.negative(lo, out=lo, where=~right)
    bins = np.diff(hi)
    bins += np.diff(lo)
    if x.max() > TABLE_END:
        bins += _g2_tail_bins(np.maximum(x, TABLE_END), right)
    return bins


def _g2_antiderivative(x: np.ndarray) -> tuple:
    """A(x) = int_0^x G^2 at each x in [0, TABLE_END], as hi + lo: the
    node's pair with the integral from the node to x added to lo."""
    coeffs, hi, lo = _g2_table()
    w = x * TABLE_STEP
    j = np.rint(w)
    delta = w - j
    j = j.astype(np.intp)
    return hi[j], lo[j] + _integral(coeffs.take(j, axis=1), delta)


def _integral(coeffs: np.ndarray, delta) -> np.ndarray:
    """Horner's rule on a polynomial without constant term, highest
    order first."""
    out = coeffs[0] * delta
    for c in coeffs[1:]:
        out += c
        out *= delta
    return out


@functools.cache
def _g2_table() -> tuple:
    """The integral of G^2 about each node of ``_taylor_table``, and the
    antiderivative A(v) = int_0^v G^2 at the nodes.

    About node m, G = sum_p c_p delta^p in the step delta, so
    int_m^v G^2 = sum_p q_p delta^(p + 1) / ((p + 1) TABLE_STEP), q the
    square of c's polynomial, whose integral is exact. Returns those
    2 TABLE_ORDER - 1 coefficients per node, highest order first, and A at
    the nodes as hi + lo: hi the running sum of the cells between nodes
    and lo the running sum of its rounding errors (Knuth's two-sum), so
    that a difference of two nodes is the sum of the cells between them to
    a unit in its own last place, not in A's.
    """
    g = _taylor_table()[0]
    order = 2 * TABLE_ORDER - 1
    coeffs = np.zeros((order, g.shape[1]))
    for p in range(TABLE_ORDER):
        coeffs[p:p + TABLE_ORDER] += g[p] * g
    # row r holds delta^(order - 1 - r), whose integral divides by
    # order - r
    coeffs /= (np.arange(order, 0, -1) * TABLE_STEP)[:, None]
    # a cell is the right half of one node's step and the left half of
    # the next one's
    cells = _integral(coeffs[:, :-1], 0.5) - _integral(coeffs[:, 1:], -0.5)
    hi = np.concatenate([[0.0], np.add.accumulate(cells)])
    back = hi[1:] - hi[:-1]
    err = (hi[:-1] - (hi[1:] - back)) + (cells - back)
    lo = np.concatenate([[0.0], np.add.accumulate(err)])
    for array in (coeffs, hi, lo):
        array.flags.writeable = False
    return coeffs, hi, lo


def _g2_tail_bins(far: np.ndarray, right: np.ndarray) -> np.ndarray:
    """The part past TABLE_END of each bin's integral of G^2, from the
    edges' |v| clipped below at TABLE_END and whether they lie right of 0.

    C(v) = 2 / (pi v^2) + R(v). A bin on one side of 0, its edges at
    |v| = a < b, takes C(a) - C(b), whose leading term is the product
    2 (b - a)(b + a) / (pi a^2 b^2), free of cancellation; the bin that
    holds 0 takes C(TABLE_END) - C(|v|) from each edge.
    """
    coeffs, rest_end = _g2_tail()
    rest = _tail_rest(far, coeffs)
    np.negative(rest, out=rest, where=right)
    y2 = far ** -2.0
    one_side = np.abs(np.diff(far))
    one_side *= far[..., 1:] + far[..., :-1]
    one_side *= y2[..., 1:] * y2[..., :-1]
    inner = (far - TABLE_END) * (far + TABLE_END) * y2 / TABLE_END ** 2
    centre = right[..., 1:] & ~right[..., :-1]
    lead = np.where(centre, inner[..., 1:] + inner[..., :-1], one_side)
    lead *= 2.0 / math.pi
    lead += np.diff(rest)
    lead[centre] += 2.0 * rest_end
    return lead


def _tail_rest(far, coeffs: np.ndarray) -> np.ndarray:
    """R(v) = C(v) - 2 / (pi v^2) at each v >= TABLE_END, from the rows
    sigma, rho and tau of ``_g2_tail``."""
    y = 1.0 / far
    z = y * y
    terms = coeffs.T.reshape(coeffs.T.shape + (1,) * np.ndim(z))
    series = terms[0] * z
    for term in terms[1:-1]:
        series += term
        series *= z
    series += terms[-1]
    two = 2.0 * far
    out = series[0] - series[1] * np.sin(two)
    out *= z
    out -= y * series[2] * np.cos(two)
    out *= z
    return out


@functools.cache
def _g2_tail() -> tuple:
    """The tail C(v) = int_v^inf G^2 past TABLE_END as three series in
    z = 1 / v^2, and R = C - 2 / (pi v^2) at TABLE_END.

    With Hankel's J1 = sqrt(2 / (pi s)) Re[Z e^(i w)], Z = P + i Q and
    w = s - 3 pi / 4 (DLMF 10.17.3),

        G^2 = (4 / (pi s^3)) (|Z|^2 + Re[Z^2 e^(2 i w)]).

    The smooth part integrates term by term in y = 1 / s. Integrated by
    parts over and over (DLMF 2.3), the oscillating part is Re[K e^(2 i w)]
    with K = sum_k (i / 2)^(k + 1) h^(k), h = 4 Z^2 / (pi s^3), and
    2 w = 2 v - 3 pi / 2 turns it into -Re K sin 2v - Im K cos 2v. So

        C(v) = 2 z / pi + z^2 (sigma(z) - rho(z) sin 2v) - y z tau(z) cos 2v,

    and the rows of the result hold sigma, rho and tau, TAIL_TERMS each,
    highest order first.
    """
    size = 2 * TAIL_TERMS + 5
    a = [1.0]
    for k in range(1, size - 3):
        a.append(a[-1] * (4 - (2 * k - 1) ** 2) / (8.0 * k))
    # Z in y: P = sum_k (-1)^k a_2k y^2k, Q = sum_k (-1)^k a_(2k+1) y^(2k+1)
    pq = np.array([c * (-1) ** (k // 2) * (1j if k % 2 else 1.0)
                   for k, c in enumerate(a)])
    # the series below in units of 4 / pi, one entry per power of y: h,
    # and the smooth part's integral, whose y^m term is |Z|^2's y^(m - 2)
    # term over m, the integral from v of y^(m + 1)
    n = np.arange(size)
    h = np.zeros(size, dtype=complex)
    h[3:] = np.convolve(pq, pq)[:size - 3]
    smooth = np.zeros(size)
    smooth[2:-1] = np.convolve(pq, pq.conj()).real[:size - 3] / n[2:-1]
    # each term of K is i / 2 times the last one's derivative, and
    # d/ds y^n = -n y^(n + 1)
    k_sum = np.zeros(size, dtype=complex)
    term = 0.5j * h
    while term.any():
        k_sum += term
        term[1:] = -0.5j * n[:-1] * term[:-1]
        term[0] = 0.0
    rows = np.array([smooth[4::2], k_sum.real[4::2], k_sum.imag[3::2]])
    coeffs = rows[:, :TAIL_TERMS][:, ::-1] * (4.0 / math.pi)
    coeffs.flags.writeable = False
    return coeffs, float(_tail_rest(float(TABLE_END), coeffs))


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
