"""Source geometry and binned intensity profiles on the unit interval.

The detector splits [0, 1] into n equal bins. Under the null hypothesis a
single source sits at x0; under the alternative the same total intensity is
split between two sources at

    x1 = x0 - offset_lambda - (1 - q) d,    x2 = x0 - offset_lambda + q d,

so that for offset_lambda = 0 the intensity-weighted center of the pair
stays at x0. Bin probabilities are integrals of the kernel plus background
over each bin; the constant pedestal contributes exactly background / n per
bin and is added analytically. The kernel's bin masses come from
``psf._kernel_bins``, the one path to them, so this module holds the
geometry, the profiles, the truncation warning and the curvature and
information sums, and integrates nothing itself.
"""

from __future__ import annotations

import warnings
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .exceptions import GeometryError, MassTruncationWarning, ParameterError
from .psf import PsfModel, _kernel_bins, psf_first_derivative, total_mass

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
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise ParameterError("bin count n must be an integer >= 1")
    return np.linspace(0.0, 1.0, n + 1)


def bin_probabilities(psf: PsfModel, src: SourceConfig, n: int) -> BinProbabilities:
    """Integrate the null and alternative profiles over n equal bins.

    Emits a MassTruncationWarning when any involved source keeps less than
    99 percent of its kernel mass inside [0, 1]. Raises ParameterError for
    n < 1, GeometryError if the configuration leaves the window (checked at
    SourceConfig construction).
    """
    edges = bin_edges(n)
    return _profiles(psf, src, n, edges, _kernel_bins(psf, src.x0, edges), 3)


def pair_profiles(psf: PsfModel, x0: float, weight_q: float,
                  n: int) -> Callable[[float], BinProbabilities]:
    """``bin_probabilities`` of the centered pair as a function of d.

    The null bins do not depend on d, so a search over d integrates them
    once here; each call integrates the two alternative sources only. A
    call warns as ``bin_probabilities`` does, the null mass included, but
    at its own line, so a solve that calls it from two places warns once.
    """
    edges = bin_edges(n)
    null_bins = _kernel_bins(psf, x0, edges)

    def probabilities(d: float) -> BinProbabilities:
        src = SourceConfig(x0=x0, d=d, weight_q=weight_q)
        return _profiles(psf, src, n, edges, null_bins, 2)

    return probabilities


def _profiles(psf: PsfModel, src: SourceConfig, n: int, edges: np.ndarray,
              null_bins: np.ndarray, stacklevel: int) -> BinProbabilities:
    """p0 and p1 given the null source's kernel bins.

    The warning is attributed ``stacklevel`` frames up, counting this one.
    """
    pedestal = psf.background / n
    kernel_bins = [null_bins]
    p0 = null_bins + pedestal

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
            MassTruncationWarning, stacklevel=stacklevel)

    return BinProbabilities(n=n, p0=p0, p1=p1)


def bin_curvature_integrals(psf: PsfModel, x0: float, n: int) -> np.ndarray:
    """Per-bin integrals of h''(x - x0), via the fundamental theorem.

    Each bin integral equals the difference of the kernel's first
    derivative at the bin edges; both kernels have it in closed form.
    """
    slopes = psf_first_derivative(psf, bin_edges(n) - x0)
    return np.diff(slopes)


def bin_information_sum(psf: PsfModel, x0: float, n: int) -> float:
    """sum_i (int_i h'')^2 / p0_i, the n-bin form of the information
    integral of h''^2 / (h + background) over [0, 1].

    p0 is the null profile of a source at x0, pedestal included. A bin
    without null mass (the underflowed tail of a narrow kernel) drops out,
    as it does from the poisson statistic.
    """
    curvature_bins = bin_curvature_integrals(psf, x0, n)
    null = bin_probabilities(psf, SourceConfig(x0=x0, d=0.0), n).p0
    mass = null > 0.0
    return float(np.sum(curvature_bins[mass] ** 2 / null[mass]))
