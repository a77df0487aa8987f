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
formulas need; a centered Gaussian has both in closed form, and every
other case goes through one adaptive quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf, j1, jv, ndtr

from .exceptions import ModelAssumptionError, ParameterError

# FWHM of a unit-variance Gaussian
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

# Total mass of the dimensionless Airy profile (2 J1(u)/u)^2 over the line
AIRY_TOTAL_MASS_U = 32.0 / (3.0 * math.pi)


@lru_cache(maxsize=None)
def airy_fwhm_u() -> float:
    """FWHM of the dimensionless Airy profile (2 J1(u)/u)^2.

    The half-maximum point solves J1(u) = u / (2 sqrt(2)); twice its root.
    """
    from scipy.optimize import brentq

    root = brentq(lambda u: (2.0 * j1(u) / u) ** 2 - 0.5, 1.0, 2.5,
                  xtol=1e-14, rtol=1e-15)
    return 2.0 * root


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
    scale = airy_fwhm_u() / psf.fwhm
    v = scale * u
    ratio = np.ones_like(v)
    np.divide(2.0 * j1(v), v, out=ratio, where=v != 0.0)
    return ratio ** 2


def eval_psf(psf: PsfModel, u) -> np.ndarray:
    """Kernel plus background, h(u) + gamma. Vectorized in u."""
    return kernel_value(psf, u) + psf.background


def _airy_amplitude(psf: PsfModel, u) -> tuple:
    """Scale s = dv/du and g(v) = 2 J1(v)/v with its first two v-derivatives.

    The Bessel identities (J1(v)/v)' = -J2(v)/v and J2' = J1 - 2 J2/v
    (DLMF 10.6) give g' = -2 J2/v and g'' = 6 J2/v^2 - 2 J1/v. Below
    |v| = 1e-8 the series 1, -v/4, -1/4 are exact in double precision
    (and J2(v) underflows below 1e-151).
    """
    scale = airy_fwhm_u() / psf.fwhm
    v = scale * np.asarray(u, dtype=float)
    small = np.abs(v) < 1e-8
    w = np.where(small, 1.0, v)
    b1, b2 = j1(w), jv(2, w)
    g = np.where(small, 1.0, 2.0 * b1 / w)
    dg = np.where(small, -0.25 * v, -2.0 * b2 / w)
    d2g = np.where(small, -0.25, 6.0 * b2 / w ** 2 - 2.0 * b1 / w)
    return scale, g, dg, d2g


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
        num = (6.0 * math.sqrt(math.pi) * sigma ** 3 * float(erf(0.5 / sigma))
               + math.exp(-0.25 / sigma ** 2) * (2.0 * sigma ** 2 - 1.0))
        return num / (16.0 * math.pi * sigma ** 8)
    return _quad_unit(lambda x: psf_second_derivative(psf, x - x0) ** 2,
                      x0, _width(psf))


def fisher_integral(psf: PsfModel, x0: float = 0.5) -> float:
    """Integral of h''^2 / (h + background) over [0, 1] for any kernel.

    Closed form for a centered Gaussian without background, leading order
    2 sigma^-4; adaptive quadrature otherwise. The airy kernel vanishes at
    its rings, where h''^2 / h is not integrable, so the airy case
    requires a positive background.
    """
    if psf.kind == "gaussian" and psf.background == 0.0 and x0 == 0.5:
        sigma = psf.sigma
        term1 = 2.0 * float(erf(0.5 / (math.sqrt(2.0) * sigma))) / sigma ** 4
        term2 = (math.exp(-0.125 / sigma ** 2) * (4.0 * sigma ** 2 + 1.0)
                 / (4.0 * math.sqrt(2.0 * math.pi) * sigma ** 7))
        return term1 - term2
    if psf.kind == "airy" and psf.background == 0.0:
        raise ModelAssumptionError(
            "the information integral diverges where the airy kernel "
            "vanishes; a positive background makes it finite")
    return _quad_unit(
        lambda x: psf_second_derivative(psf, x - x0) ** 2 / eval_psf(psf, x - x0),
        x0, _width(psf))


def _width(psf: PsfModel) -> float:
    """Length scale of the kernel's peak: sigma, or the Airy unit 1/s."""
    if psf.kind == "gaussian":
        return psf.sigma
    return psf.fwhm / airy_fwhm_u()


def _quad_unit(func, center: float, width: float) -> float:
    """Adaptive quadrature over [0, 1] with break points around a peak."""
    from scipy.integrate import quad

    pts = sorted({min(max(center + k * width, 0.0), 1.0)
                  for k in (-5.0, -2.0, 0.0, 2.0, 5.0)})
    pts = [p for p in pts if 0.0 < p < 1.0]
    scalar = lambda x: float(func(np.asarray(x, dtype=float)))
    value, _ = quad(scalar, 0.0, 1.0, points=pts or None, limit=200,
                    epsabs=0.0, epsrel=1e-11)
    return value


def total_mass(psf: PsfModel) -> float:
    """Mass of the kernel over the whole line (background excluded)."""
    if psf.kind == "gaussian":
        return 1.0
    return AIRY_TOTAL_MASS_U * _width(psf)


def mass_fraction(psf: PsfModel, center: float) -> float:
    """Fraction of kernel mass inside [0, 1] for a source at ``center``."""
    if psf.kind == "gaussian":
        s = psf.sigma
        return float(ndtr((1.0 - center) / s) - ndtr(-center / s))
    inside = _quad_unit(lambda x: kernel_value(psf, x - center),
                        center, _width(psf))
    return inside / total_mass(psf)
