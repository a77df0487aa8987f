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

    One call of a ``PairProfiles``. Emits a MassTruncationWarning when any
    involved source keeps less than 99 percent of its kernel mass inside
    [0, 1]. Raises ParameterError for n < 1, GeometryError if the
    configuration leaves the window (checked at SourceConfig
    construction).
    """
    profiles = PairProfiles(psf, src.x0, src.weight_q, n)
    probs = profiles(src.d, src.offset_lambda)
    profiles.warn_truncation((src.d, src.offset_lambda), stacklevel=3)
    return probs


class PairProfiles:
    """The one builder of ``BinProbabilities``: p0 of a source at x0 and p1
    of the pairs of weight q around it, over n equal bins.

    The null bins depend on neither d nor the offset, so they are
    integrated once, on construction; each call integrates the two
    alternative sources only. A call never warns: a search probes pairs
    that it does not report, so a pair that loses mass is only recorded,
    and ``warn_truncation`` warns for the pairs a caller reports. An x0
    outside (0, 1) raises GeometryError on construction.
    """

    def __init__(self, psf: PsfModel, x0: float, weight_q: float, n: int):
        if not 0.0 < x0 < 1.0:
            raise GeometryError(f"x0 = {x0} must lie in (0, 1)")
        self.psf, self.x0, self.weight_q, self.n = psf, x0, weight_q, n
        self.edges = bin_edges(n)
        self.null_bins = _kernel_bins(psf, (x0,), self.edges)[0]
        self.null_truncated = _truncated(psf, self.null_bins)
        # (d, offset_lambda) of the pairs that keep less than
        # MASS_WARN_FRACTION inside
        self.truncated: set[tuple] = set()

    def __call__(self, d: float,
                 offset_lambda: float = 0.0) -> BinProbabilities:
        src = SourceConfig(x0=self.x0, d=d, weight_q=self.weight_q,
                           offset_lambda=offset_lambda)
        pedestal = self.psf.background / self.n
        p0 = self.null_bins + pedestal
        if d == 0.0 and offset_lambda == 0.0:
            return BinProbabilities(n=self.n, p0=p0, p1=p0.copy())
        left, right = _kernel_bins(self.psf, (src.x1, src.x2), self.edges)
        if _truncated(self.psf, left, right):
            self.truncated.add((d, offset_lambda))
        q = self.weight_q
        p1 = q * left + (1.0 - q) * right + pedestal
        return BinProbabilities(n=self.n, p0=p0, p1=p1)

    def warn_truncation(self, *pairs: tuple, stacklevel: int = 1) -> None:
        """Warn when the null source, or a pair among ``pairs``, (d,
        offset_lambda) that this object integrated, keeps less than 99
        percent of its kernel mass. ``stacklevel`` counts this line as 1;
        a solve keeps it there, so that the registry shows its warning
        once whichever line of the solve asks."""
        if self.null_truncated or not self.truncated.isdisjoint(pairs):
            _warn_truncation(stacklevel)


def _truncated(psf: PsfModel, *kernel_bins: np.ndarray) -> bool:
    """Whether a source keeps less than MASS_WARN_FRACTION of its kernel
    mass inside [0, 1]: the bins tile [0, 1], so each kernel-bin sum is
    the mass inside it."""
    floor = MASS_WARN_FRACTION * total_mass(psf)
    return any(bins.sum() < floor for bins in kernel_bins)


def _warn_truncation(stacklevel: int) -> None:
    """The truncation warning, attributed ``stacklevel`` frames up,
    counting this one's caller as 1."""
    warnings.warn(
        "a source keeps less than 99 percent of its kernel mass "
        "inside [0, 1]; bin probabilities are truncated",
        MassTruncationWarning, stacklevel=stacklevel + 1)


def bin_curvature_integrals(psf: PsfModel, x0: float, n: int) -> np.ndarray:
    """Per-bin integrals of h''(x - x0), via the fundamental theorem.

    Each bin integral equals the difference of the kernel's first
    derivative at the bin edges; both kernels have it in closed form.
    """
    slopes = psf_first_derivative(psf, bin_edges(n) - x0)
    return np.diff(slopes)


def bin_information_sum(psf: PsfModel, x0: float, n: int) -> float:
    """The vsg ``finite_n_information``, the n-bin form of the information
    integral of h''^2 / (h + background) over [0, 1]."""
    return finite_n_information(psf, x0, n, "vsg")


def finite_n_information(psf: PsfModel, x0: float, n: int, kind: str,
                         null_bins: np.ndarray | None = None) -> float:
    """The kernel information of model ``kind``'s finite-n law:
    sum_i (int_i h'')^2 for hg, which integrates no kernel bin, and
    sum_i (int_i h'')^2 / p0_i for poisson and vsg, with p0 the null
    profile of a source at x0, pedestal included: ``null_bins`` plus the
    pedestal when the caller holds the null's kernel bins, else
    ``bin_probabilities``, which warns of truncation. A bin without null
    mass (the underflowed tail of a narrow kernel) drops out: there
    (int_i h'')^2 / p0_i tends to 0 with p0_i, but reads 0/0 in floats.
    The rule reads p0 alone, unlike the poisson statistic's support,
    which reads both hypotheses (``models``).
    """
    curvature_bins = bin_curvature_integrals(psf, x0, n)
    if kind == "hg":
        return float(np.einsum("i,i->", curvature_bins, curvature_bins))
    null = (bin_probabilities(psf, SourceConfig(x0=x0, d=0.0), n).p0
            if null_bins is None else null_bins + psf.background / n)
    mass = null > 0.0
    return float(np.sum(curvature_bins[mass] ** 2 / null[mass]))
