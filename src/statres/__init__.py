"""Statistical resolution of diffraction-limited and super-resolution
microscopes.

The package answers one question in several ways: at what separation d can
an optimal level-alpha test tell two point sources from one, given a
point-spread function, a photon budget and an observation model? It
provides binned photon-count models, their exact or approximate
likelihood-ratio tests, closed-form and Monte Carlo resolution solvers,
and reference tables linking the answer to the classical Abbe and
Rayleigh criteria.
"""

from .analysis import (FitResult, SweepSpec, criterion_alpha,
                       hardest_alternative_scan, riemann_convergence_check,
                       simulation_sweep, sted_improvement, table1,
                       weight_scan)
from .binning import (BinProbabilities, SourceConfig, bin_curvature_integrals,
                      bin_information_sum, bin_probabilities)
from .exceptions import (ConvergenceWarning, GeometryError,
                         MassTruncationWarning,
                         ModelAssumptionError, NoResolutionError,
                         ParameterError, StatresError,
                         UnsupportedMethodError)
from .models import (NoiseModel, RngState, TestReport, exact_error_rates,
                     hg_mu, lrt_statistic, mc_error_rates, normal_cdf,
                     normal_quantile, poisson_clt_report,
                     sample_observations, vsg_nu)
from .psf import (PsfModel, eval_psf, psf_fwhm, psf_second_derivative,
                  sted_narrow)
from .resolution import (ResolutionQuery, ResolutionResult, acuna_power,
                         asymptotic_resolution, detection_boundary,
                         exact_resolution, finite_n_resolution,
                         mc_resolution, resolve_query)

__version__ = "0.1.0"

__all__ = [
    "BinProbabilities", "ConvergenceWarning", "FitResult", "GeometryError",
    "MassTruncationWarning", "ModelAssumptionError", "NoiseModel",
    "NoResolutionError", "ParameterError", "PsfModel", "ResolutionQuery",
    "ResolutionResult", "RngState", "SourceConfig", "StatresError",
    "SweepSpec", "TestReport", "UnsupportedMethodError", "acuna_power",
    "asymptotic_resolution", "bin_curvature_integrals",
    "bin_information_sum", "bin_probabilities",
    "criterion_alpha", "detection_boundary",
    "eval_psf", "exact_error_rates", "exact_resolution",
    "finite_n_resolution", "hardest_alternative_scan", "hg_mu",
    "lrt_statistic", "mc_error_rates", "mc_resolution", "normal_cdf",
    "normal_quantile", "poisson_clt_report", "psf_fwhm",
    "psf_second_derivative", "resolve_query", "riemann_convergence_check",
    "sample_observations", "simulation_sweep", "sted_improvement",
    "sted_narrow", "table1", "vsg_nu", "weight_scan",
]
