"""The standard normal law, from the standard library and numpy alone.

Every level, power, quantile and gaussian bin mass of the package is a
normal CDF, quantile or tail, and they all come from here:

* ``cdf``       Phi(z) = erfc(-z / sqrt 2) / 2 (``math.erfc``), accurate
                in both tails.
* ``quantile``  Phi^-1(p) by Wichura's AS241 (``statistics.NormalDist``),
                with -inf at p = 0 and +inf at p = 1.
* ``tail``      P(Z > |z|) = erfc(|z| / sqrt 2) / 2 on an array. On rows
                (the last axis) shorter than TAIL_VECTOR_SIZE values it
                calls ``math.erfc`` per value; from there on numpy takes
                one Taylor step from a table (``_erfc``), in some twenty
                array operations whatever the length. Either way a row's
                values do not depend on the rows beside it.
"""

from __future__ import annotations

import math
from statistics import NormalDist

import numpy as np

SQRT_HALF = math.sqrt(0.5)
# shortest row whose tail numpy evaluates: below it one math.erfc call
# per value is faster (BENCH_scipy_free.json, "tail_cutoff")
TAIL_VECTOR_SIZE = 224
# the table of ``_erfc``: nodes k / TABLE_STEP on [0, TABLE_END], past
# which erfc is 0 in doubles, and TABLE_ORDER Taylor terms per node
TABLE_STEP = 128
TABLE_END = 27.5
TABLE_ORDER = 7

_STANDARD = NormalDist()


def cdf(z: float) -> float:
    """Phi(z), the standard normal CDF; 0 and 1 at -inf and +inf."""
    return 0.5 * math.erfc(-z * SQRT_HALF)


def quantile(p: float) -> float:
    """Phi^-1(p): -inf at p = 0, +inf at p = 1, nan outside [0, 1]."""
    if 0.0 < p < 1.0:
        return _STANDARD.inv_cdf(p)
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.nan


def tail(z: np.ndarray) -> np.ndarray:
    """P(Z > |z|) for each value of the 1-d or 2-d array z, which holds no
    nan: 0 far out and at +-inf. The method goes by the row length, the
    size of the last axis."""
    x = np.abs(z)
    x *= SQRT_HALF
    if x.shape[-1] < TAIL_VECTOR_SIZE:
        out = np.fromiter(map(math.erfc, x.ravel().tolist()), float,
                          x.size).reshape(x.shape)
    else:
        out = _erfc(x)
    out *= 0.5
    return out


def _taylor_table() -> np.ndarray:
    """Taylor coefficients of erfc about the nodes m = k / TABLE_STEP.

    erfc(x) = exp(-x^2) erfcx(x), and erfcx is smooth, so about each node
    erfc(m + delta) = exp(-delta (2 m + delta)) sum_j g_j(m) delta^j / j!
    with g_j = exp(-m^2) erfcx^(j)(m): g_0 = erfc(m), and from
    erfcx' = 2 x erfcx - 2 / sqrt(pi) the recurrence
    g_(j+1) = 2 m g_j + 2 j g_(j-1). Rows run from the highest order down,
    as Horner's rule reads them; for |delta| <= 1/256 the terms left out
    move the sum by about 1e-16 of it.
    """
    m = np.arange(math.ceil(TABLE_END * TABLE_STEP) + 1) / TABLE_STEP
    g = np.empty((TABLE_ORDER, m.size))
    g[0] = [math.erfc(v) for v in m.tolist()]
    g[1] = 2.0 * m * g[0] - 2.0 / math.sqrt(math.pi) * np.exp(-m * m)
    for j in range(1, TABLE_ORDER - 1):
        g[j + 1] = 2.0 * m * g[j] + 2.0 * j * g[j - 1]
    g /= [[math.factorial(j)] for j in range(TABLE_ORDER)]
    return g[::-1].copy()


_TABLE = _taylor_table()


def _erfc(x: np.ndarray) -> np.ndarray:
    """erfc at x >= 0: the Taylor series of ``_taylor_table`` from the
    node m nearest x. delta = x - m is exact, and exp(-(x^2 - m^2)) is
    exp(-delta (x + m)), so the error of x^2 does not grow with x."""
    x = np.minimum(x, TABLE_END)
    m = np.rint(x * TABLE_STEP)
    coeffs = _TABLE.take(m.astype(np.intp), axis=1)
    m *= 1.0 / TABLE_STEP
    delta = x - m
    m += x
    m *= delta
    np.negative(m, out=m)  # m^2 - x^2
    out = coeffs[0]
    for c in coeffs[1:]:
        out *= delta
        out += c
    out *= np.exp(m)
    return out
