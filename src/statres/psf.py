"""Point-spread-function kernels and the integrals that set resolution.

Two kernel families are supported on the unit observation window:

* Gaussian with standard deviation sigma, unit mass on the real line.
* Airy pattern, the diffraction profile of a circular aperture, with peak
  value one and a prescribed full width at half maximum.

A constant background pedestal ``background`` (detector noise floor, stray
light) can be added to either kernel; it raises every bin probability and
only the Fisher-type integral feels it.

Both kernels have closed-form first and second derivatives. The
squared-curvature integral of h'' and the Fisher-type integral of
h''^2 / (h + background) are the only kernel functionals the resolution
formulas need; a centered Gaussian has both in closed form. Every other
case goes through the Gauss-Legendre quadrature of ``statres.quadrature``
in the kernel's coordinate u.

This module owns every kernel integral. ``_kernel_bins`` is the one path
to the kernel's mass in a set of bins, and it integrates nothing
numerically: differences of normal tails for a Gaussian, differences of
the antiderivative of (2 J1(v)/v)^2 (``statres.bessel.g2_bins``) for an
Airy pattern. Bin probabilities and the mass fraction inside [0, 1] both
come from it.

The Airy pattern's Bessel functions and bin masses come from
``statres.bessel``, whose tables the first Airy call builds; no kernel
needs scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bessel, normal
from .exceptions import ModelAssumptionError, ParameterError
from .quadrature import integrate_bins

# FWHM of a unit-variance Gaussian
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Total mass of the dimensionless Airy profile (2 J1(u)/u)^2 over the line
AIRY_TOTAL_MASS_U = 32.0 / (3.0 * math.pi)


# FWHM of the dimensionless Airy profile (2 J1(u)/u)^2: twice the root of
# J1(u) = u / (2 sqrt(2)), its half-maximum point
AIRY_FWHM_U = 3.2326798966214074

# widths a kernel may take: far outside them the kernel, its derivatives
# and their integrals overflow or underflow
MIN_WIDTH, MAX_WIDTH = 1e-30, 1e30


@dataclass(frozen=True)
class PsfModel:
    """A point-spread function plus a constant background pedestal.

    Parameters
    ----------
    kind : str
        "gaussian" or "airy".
    sigma : float, optional
        Standard deviation of the Gaussian kernel. Gaussian only.
    fwhm : float, optional
        Full width at half maximum of the Airy kernel. Airy only.
    background : float
        Constant pedestal added to the kernel, nonnegative.
    """

    kind: str
    sigma: float | None = None
    fwhm: float | None = None
    background: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "airy"):
            raise ParameterError(f"unknown psf kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.sigma is None or not 0.0 < self.sigma < math.inf:
                raise ParameterError("gaussian psf requires finite sigma > 0")
        else:
            if self.fwhm is None or not 0.0 < self.fwhm < math.inf:
                raise ParameterError("airy psf requires finite fwhm > 0")
        width = self.sigma if self.kind == "gaussian" else self.fwhm
        if not MIN_WIDTH <= width <= MAX_WIDTH:
            raise ParameterError(f"psf width {width:g} lies outside "
                                 f"[{MIN_WIDTH:g}, {MAX_WIDTH:g}]")
        if not 0.0 <= self.background < math.inf:
            raise ParameterError("background must be finite and >= 0")

    @classmethod
    def gaussian(cls, sigma: float, background: float = 0.0) -> "PsfModel":
        return cls(kind="gaussian", sigma=sigma, background=background)

    @classmethod
    def gaussian_from_fwhm(cls, fwhm: float,
                           background: float = 0.0) -> "PsfModel":
        return cls(kind="gaussian", sigma=fwhm / GAUSSIAN_FWHM_FACTOR,
                   background=background)

    @classmethod
    def airy(cls, fwhm: float, background: float = 0.0) -> "PsfModel":
        return cls(kind="airy", fwhm=fwhm, background=background)


def kernel_value(psf: PsfModel, u) -> np.ndarray:
    """Kernel h(u) without the background pedestal. Vectorized in u."""
    u = np.asarray(u, dtype=float)
    if psf.kind == "gaussian":
        s = psf.sigma
        return np.exp(-0.5 * (u / s) ** 2) / (s * math.sqrt(2.0 * math.pi))
    g = bessel.airy_g(u, AIRY_FWHM_U / psf.fwhm)
    g *= g
    return g


def eval_psf(psf: PsfModel, u) -> np.ndarray:
    """Kernel plus background, h(u) + gamma. Vectorized in u."""
    return kernel_value(psf, u) + psf.background


def _airy_amplitude(psf: PsfModel, u) -> tuple:
    """Scale s = dv/du and g(v) = 2 J1(v)/v with its first two v-derivatives.

    The Bessel identities (J1(v)/v)' = -J2(v)/v and J2' = J1 - 2 J2/v
    (DLMF 10.6) give, with G = 2 J1(v)/v and H = J2(v)/v^2 from
    ``statres.bessel``, g = G, g' = -2 v H and g'' = 6 H - G.
    """
    scale = AIRY_FWHM_U / psf.fwhm
    g, h = bessel.airy_gh(u, scale)
    return scale, g, -2.0 * scale * u * h, 6.0 * h - g


def psf_first_derivative(psf: PsfModel, u) -> np.ndarray:
    """First derivative h'(u) of the kernel (background drops out)."""
    u = np.asarray(u, dtype=float)
    if psf.kind == "gaussian":
        return -u / psf.sigma ** 2 * kernel_value(psf, u)
    scale, g, dg, _ = _airy_amplitude(psf, u)
    return 2.0 * scale * g * dg


def psf_second_derivative(psf: PsfModel, u) -> np.ndarray:
    """Second derivative h''(u) of the kernel (background drops out).

    Both kernels use closed forms; the Airy one is h = g(s u)^2 with
    h'' = 2 s^2 (g'^2 + g g''), from the Bessel identities above.
    """
    u = np.asarray(u, dtype=float)
    if psf.kind == "gaussian":
        s = psf.sigma
        return kernel_value(psf, u) * (u ** 2 - s ** 2) / s ** 4
    scale, g, dg, d2g = _airy_amplitude(psf, u)
    return 2.0 * scale ** 2 * (dg ** 2 + g * d2g)


def psf_fwhm(psf: PsfModel) -> float:
    """Full width at half maximum of the kernel (background excluded)."""
    if psf.kind == "gaussian":
        return GAUSSIAN_FWHM_FACTOR * psf.sigma
    return psf.fwhm


def sted_narrow(fwhm: float, xi: float) -> float:
    """FWHM after STED depletion with saturation level xi.

    The depleted spot narrows by 1/sqrt(1 + xi); xi = 0 returns the input.
    """
    if not fwhm > 0.0:
        raise ParameterError("fwhm must be > 0")
    if xi < 0.0:
        raise ParameterError("saturation xi must be >= 0")
    return fwhm / math.sqrt(1.0 + xi)


def curvature_integral(psf: PsfModel, x0: float = 0.5) -> float:
    """Integral of h''(x - x0)^2 over [0, 1] for any supported kernel.

    Closed form for a centered Gaussian, leading order
    (3/8) pi^-1/2 sigma^-5; adaptive quadrature otherwise.
    """
    if psf.kind == "gaussian" and x0 == 0.5:
        sigma = psf.sigma
        num = (6.0 * math.sqrt(math.pi) * sigma ** 3 * math.erf(0.5 / sigma)
               + math.exp(-0.25 / sigma ** 2) * (2.0 * sigma ** 2 - 1.0))
        return num / (16.0 * math.pi * sigma ** 8)
    return _window_integral(
        psf, lambda u: psf_second_derivative(psf, u) ** 2, x0)


def fisher_integral(psf: PsfModel, x0: float = 0.5) -> float:
    """Integral of h''^2 / (h + background) over [0, 1] for any kernel.

    Closed form for a centered Gaussian without background, leading order
    2 sigma^-4; adaptive quadrature otherwise. The airy kernel vanishes at
    its rings, where h''^2 / h is not integrable, so the airy case
    requires a positive background.
    """
    if psf.kind == "gaussian" and psf.background == 0.0 and x0 == 0.5:
        sigma = psf.sigma
        term1 = 2.0 * math.erf(0.5 / (math.sqrt(2.0) * sigma)) / sigma ** 4
        term2 = (math.exp(-0.125 / sigma ** 2) * (4.0 * sigma ** 2 + 1.0)
                 / (4.0 * math.sqrt(2.0 * math.pi) * sigma ** 7))
        return term1 - term2
    if psf.kind == "airy" and psf.background == 0.0:
        raise ModelAssumptionError(
            "the information integral diverges where the airy kernel "
            "vanishes; a positive background makes it finite")

    def integrand(u):
        # far from its peak a background-free gaussian and its h'' both
        # underflow to 0, where the integrand is 0, not 0/0
        num = psf_second_derivative(psf, u) ** 2
        return np.divide(num, eval_psf(psf, u), out=np.zeros_like(num),
                         where=num > 0.0)

    return _window_integral(psf, integrand, x0)


def _width(psf: PsfModel) -> float:
    """Length scale of the kernel's peak: sigma, or the Airy unit 1/s."""
    if psf.kind == "gaussian":
        return psf.sigma
    return psf.fwhm / AIRY_FWHM_U


def _window_integral(psf: PsfModel, func, center: float) -> float:
    """Integral over [0, 1] of func(x - center), func a kernel functional."""
    return float(integrate_bins(func, (0.0, 1.0), center, _width(psf))[0])


def _kernel_bins(psf: PsfModel, centers: tuple,
                 edges: np.ndarray) -> np.ndarray:
    """Kernel mass of a source at each of ``centers`` inside each bin
    between the ascending ``edges``, one row per center."""
    if psf.kind == "gaussian":
        # one normal tail per edge and center, all in one call whose
        # method goes by the row length, so a row's bits do not depend on
        # the other centers: with the tails right of the center negated, a
        # bin is the difference of its edges' values, without
        # cancellation, plus 1 in the bin that holds the center
        z = (edges - np.array(centers, dtype=float)[:, None]) / psf.sigma
        right = z > 0.0
        tail = normal.tail(z)
        np.negative(tail, out=tail, where=right)
        bins = tail[:, 1:] - tail[:, :-1]
        bins += right[:, 1:] ^ right[:, :-1]
        return bins
    # the same in the Airy unit v = s u: one antiderivative of G^2 per
    # edge, from bessel's table
    v = edges - np.array(centers, dtype=float)[:, None]
    v *= AIRY_FWHM_U / psf.fwhm
    return bessel.g2_bins(v) * _width(psf)


def total_mass(psf: PsfModel) -> float:
    """Mass of the kernel over the whole line (background excluded)."""
    if psf.kind == "gaussian":
        return 1.0
    return AIRY_TOTAL_MASS_U * _width(psf)


def mass_fraction(psf: PsfModel, center: float) -> float:
    """Fraction of kernel mass inside [0, 1] for a source at ``center``:
    the one bin [0, 1] of ``_kernel_bins`` over the total mass."""
    inside = _kernel_bins(psf, (center,), np.array([0.0, 1.0]))[0, 0]
    return float(inside) / total_mass(psf)
