"""Source geometry and binned intensity profiles on the unit interval.

The detector splits [0, 1] into n equal bins. Under the null hypothesis a
single source sits at x0; under the alternative the same total intensity is
split between two sources at

    x1 = x0 - offset_lambda - (1 - q) d,    x2 = x0 - offset_lambda + q d,

so that for offset_lambda = 0 the intensity-weighted center of the pair
stays at x0. Bin probabilities are integrals of the kernel plus background
over each bin; the constant pedestal contributes exactly background / n per
bin and is added analytically.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryError, MassTruncationWarning, ParameterError
from .psf import PsfModel, kernel_value, psf_first_derivative, total_mass
from .quadrature import integrate_bins

MASS_WARN_FRACTION = 0.99


@dataclass(frozen=True)
class SourceConfig:
    """Null position and two-source alternative geometry.

    Parameters
    ----------
    x0 : float
        Null source position, inside (0, 1).
    d : float
        Separation of the two alternative sources, nonnegative.
    weight_q : float
        Intensity fraction q of the left source, inside (0, 1).
    offset_lambda : float
        Shift of the pair's intensity center left of x0.
    """

    x0: float
    d: float
    weight_q: float = 0.5
    offset_lambda: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.x0 < 1.0:
            raise GeometryError(f"x0 = {self.x0} must lie in (0, 1)")
        if self.d < 0.0:
            raise ParameterError("separation d must be >= 0")
        if not 0.0 < self.weight_q < 1.0:
            raise ParameterError("weight_q must lie in (0, 1)")
        for name, pos in (("x1", self.x1), ("x2", self.x2)):
            if not 0.0 < pos < 1.0:
                raise GeometryError(
                    f"source {name} = {pos} falls outside (0, 1)")

    @property
    def x1(self) -> float:
        """Left source position under the alternative."""
        return self.x0 - self.offset_lambda - (1.0 - self.weight_q) * self.d

    @property
    def x2(self) -> float:
        """Right source position under the alternative."""
        return self.x0 - self.offset_lambda + self.weight_q * self.d


@dataclass(frozen=True)
class BinProbabilities:
    """Per-bin intensity integrals under the null (p0) and alternative (p1)."""

    n: int
    p0: np.ndarray
    p1: np.ndarray


def bin_edges(n: int) -> np.ndarray:
    return np.linspace(0.0, 1.0, n + 1)


def _kernel_bins(psf: PsfModel, center: float, edges: np.ndarray) -> np.ndarray:
    return integrate_bins(lambda x: kernel_value(psf, x - center), edges)


def bin_probabilities(psf: PsfModel, src: SourceConfig, n: int) -> BinProbabilities:
    """Integrate the null and alternative profiles over n equal bins.

    Emits a MassTruncationWarning when any involved source keeps less than
    99 percent of its kernel mass inside [0, 1]. Raises ParameterError for
    n < 1, GeometryError if the configuration leaves the window (checked at
    SourceConfig construction).
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError("bin count n must be an integer >= 1")
    edges = bin_edges(n)
    pedestal = psf.background / n
    kernel_bins = [_kernel_bins(psf, src.x0, edges)]
    p0 = kernel_bins[0] + pedestal

    if src.d == 0.0 and src.offset_lambda == 0.0:
        # both alternative sources coincide with the null position
        p1 = p0.copy()
    else:
        q = src.weight_q
        kernel_bins += [_kernel_bins(psf, src.x1, edges),
                        _kernel_bins(psf, src.x2, edges)]
        p1 = q * kernel_bins[1] + (1.0 - q) * kernel_bins[2] + pedestal

    # the bins tile [0, 1], so each kernel-bin sum is the mass inside it
    floor = MASS_WARN_FRACTION * total_mass(psf)
    if any(bins.sum() < floor for bins in kernel_bins):
        warnings.warn(
            "a source keeps less than 99 percent of its kernel mass "
            "inside [0, 1]; bin probabilities are truncated",
            MassTruncationWarning, stacklevel=2)

    return BinProbabilities(n=n, p0=p0, p1=p1)


def delta_profile(psf: PsfModel, src: SourceConfig, x) -> np.ndarray:
    """Pointwise intensity difference alternative minus null.

    The background pedestal cancels. For small d this approaches
    q (1 - q) d^2 / 2 times the kernel's second derivative at x - x0.
    """
    q = src.weight_q
    return (q * kernel_value(psf, np.asarray(x, dtype=float) - src.x1)
            + (1.0 - q) * kernel_value(psf, np.asarray(x, dtype=float) - src.x2)
            - kernel_value(psf, np.asarray(x, dtype=float) - src.x0))


def bin_curvature_integrals(psf: PsfModel, x0: float, n: int) -> np.ndarray:
    """Per-bin integrals of h''(x - x0), via the fundamental theorem.

    Each bin integral equals the difference of the kernel's first
    derivative at the bin edges; both kernels have it in closed form.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError("bin count n must be an integer >= 1")
    slopes = psf_first_derivative(psf, bin_edges(n) - x0)
    return np.diff(slopes)
