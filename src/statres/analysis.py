"""Reference tables, hardest-case scans and simulation sweeps.

This layer turns the solvers into the package's headline outputs: the
coefficient table of the two resolution laws, the error levels at which
the classical Abbe and Rayleigh distances become resolvable, the STED
improvement factor, scans over the alternative's nuisance parameters,
a convergence diagnostic of the n-bin information sum (the one the
finite-n solver uses) towards its integral, and log-log power-law fits to
simulated resolution curves.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import normal
from .binning import PairProfiles, bin_information_sum
from .exceptions import GeometryError, ParameterError
from .models import MODEL_KINDS, NoiseModel, RngState, analytic_report
from .psf import PsfModel, fisher_integral
from .resolution import (ResolutionQuery, asymptotic_resolution,
                         detection_boundary, mc_resolution)

# classical two-point criteria in FWHM units: Abbe fwhm/(2 * 0.51) and
# Rayleigh 0.61 * fwhm / 0.51, against the boundary C sqrt(z) t^(-1/4) fwhm
CRITERION_RATIOS = {"abbe": 0.5 / 0.51, "rayleigh": 0.61 / 0.51}
BOUNDARY_COEFF = 2.0 ** 0.25 / math.sqrt(math.log(2.0))
# powers closer than this are equal to within the bin integrals' accuracy
POWER_TIE_TOL = 1e-12
# largest bin count of a Riemann convergence check, a limit
MAX_RIEMANN_BINS = 100_000

TABLE1_ALPHAS = (0.01, 0.05, 0.1)


def table1(alphas: Sequence[float] = TABLE1_ALPHAS) -> list[dict]:
    """Coefficients of the two resolution laws at the given levels.

    For alpha = beta the critical separation is coeff * t^(-1/2) n^(1/4)
    * fwhm^(5/4) for hg and coeff * t^(-1/4) * fwhm for poisson/vsg; the
    rows report the two coefficients.
    """
    rows = []
    for alpha in alphas:
        rows.append({
            "alpha": alpha,
            "hg": detection_boundary(NoiseModel("hg"), fwhm=1.0, t=1.0,
                                     n=1, alpha=alpha, beta=alpha),
            "poisson_vsg": detection_boundary(NoiseModel("vsg"), fwhm=1.0,
                                              t=1.0, n=1, alpha=alpha,
                                              beta=alpha),
        })
    return rows


def criterion_alpha(criterion: str, t: float) -> float:
    """Error level at which a classical criterion distance is resolved.

    Inverts the poisson/vsg boundary d = C sqrt(z_(1-alpha)) t^(-1/4) fwhm
    at the Abbe distance fwhm/1.02 or the Rayleigh distance 0.61/0.51 fwhm
    and returns the implied alpha (= beta). Decays with t: longer
    illumination resolves the classical distances at stricter levels.
    """
    if criterion not in CRITERION_RATIOS:
        raise ParameterError(f"unknown criterion {criterion!r}")
    if not t >= 1.0:
        raise ParameterError("illumination time t must be >= 1")
    z = (CRITERION_RATIOS[criterion] / BOUNDARY_COEFF) ** 2 * math.sqrt(t)
    # Phi(-z), not 1 - Phi(z), which reads 0 from z = 8.3 on
    return normal.cdf(-z)


def sted_improvement(ratio: float) -> float:
    """Resolution gain from narrowing the kernel by the given FWHM ratio.

    At a fixed photon budget the critical separation scales as
    fwhm^(5/4), so the gain is ratio^(3/4) rather than the full ratio:
    a 6x narrower depletion spot resolves about 3.8x finer.
    """
    if not ratio >= 1.0:
        raise ParameterError("fwhm ratio must be >= 1")
    return ratio ** 0.75


def hardest_alternative_scan(model: NoiseModel, psf: PsfModel, d: float,
                             t: float, n: int, alpha: float,
                             lambdas: Sequence[float], x0: float = 0.5,
                             weight_q: float = 0.5
                             ) -> tuple[list[dict], float]:
    """Power of the test against each center offset of the source pair
    of weight ``weight_q``.

    The offsets are scanned in increasing order, and the grid need not be
    symmetric about zero. Offsets whose sources leave the window are
    skipped and flagged infeasible. Returns the records and the offset of
    minimal power. The symmetric placement (offset zero) is the hardest
    alternative only for d small against the kernel width; for a wider
    pair an offset that puts one source next to x0 can be harder, so the
    minimum may sit at the grid ends. Powers within 1e-12 of each other
    count as equal and the first offset is kept. At weight_q = 1/2 a
    centred x0's mirror-image offsets have powers that agree up to
    rounding, so the leftmost is reported; at other weights the pair is
    not its own mirror image and their powers differ. A weight_q outside
    (0, 1) raises ParameterError.
    """
    lambdas = sorted(float(v) for v in lambdas)
    profiles = PairProfiles(psf, x0, weight_q, n)
    records = []
    best = (math.inf, math.nan)
    for lam in lambdas:
        try:
            probs = profiles(d, lam)
        except GeometryError:
            records.append({"offset_lambda": lam, "power": math.nan,
                            "feasible": False})
            continue
        power = analytic_report(model, probs, t, alpha).power
        records.append({"offset_lambda": lam, "power": power,
                        "feasible": True})
        if power < best[0] - POWER_TIE_TOL:
            best = (power, lam)
    if not math.isfinite(best[0]):
        raise ParameterError("no feasible offset in the grid")
    profiles.warn_truncation(*((d, r["offset_lambda"]) for r in records
                               if r["feasible"]), stacklevel=2)
    return records, best[1]


def weight_scan(query: ResolutionQuery,
                q_grid: Sequence[float]) -> list[dict]:
    """Asymptotic resolution as the intensity split q varies.

    d(q) / d(1/2) = 1 / (2 sqrt(q (1 - q))): lopsided pairs are harder to
    resolve, with the minimum at the equal split.
    """
    records = []
    for q in q_grid:
        result = asymptotic_resolution(replace(query, weight_q=float(q)))
        records.append({"weight_q": float(q), "d": result.d})
    return records


def riemann_convergence_check(psf: PsfModel, n_grid: Sequence[int],
                              x0: float = 0.5) -> tuple[list[dict], float]:
    """Convergence of the n-bin information sum to its integral.

    Each record holds n, ``bin_information_sum(psf, x0, n)`` (the finite-n
    solver's sum; bins without null mass drop out), its gap to the limit
    ``fisher_integral(psf, x0)`` and whether that gap shrank from the
    previous record's (the first passes). x0 must lie in (0, 1). Returns
    the records and the limit.
    """
    if not all(isinstance(n, (int, np.integer)) and
               1 <= n <= MAX_RIEMANN_BINS for n in n_grid):
        raise ParameterError(
            f"n grid entries must be integers in [1, {MAX_RIEMANN_BINS}]")
    sums = [bin_information_sum(psf, x0, int(n)) for n in n_grid]
    limit = fisher_integral(psf, x0=x0)
    records = []
    for n, value in zip(n_grid, sums):
        gap = abs(value - limit)
        records.append({"n": int(n), "riemann_sum": value, "gap": gap,
                        "passed": not records or gap < records[-1]["gap"]})
    return records, limit


SWEPT_VARS = ("fwhm", "t", "n")


@dataclass(frozen=True)
class SweepSpec:
    """A resolution-curve simulation: one swept variable, the rest fixed."""

    swept: str
    grid: tuple
    fwhm: float = 0.2
    t: float = 20.0
    n: int = 20
    alpha: float = 0.1
    models: tuple = MODEL_KINDS
    reps: int = 10000
    seed: int = 0
    method: str = "mc"
    threshold_mode: str = "analytic"
    threads: int = 1

    def __post_init__(self):
        if self.swept not in SWEPT_VARS:
            raise ParameterError(f"unknown swept variable {self.swept!r}")
        if len(self.grid) < 3:
            raise ParameterError("sweep grid needs at least 3 points")
        values = [float(v) for v in self.grid]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ParameterError("sweep grid must be strictly increasing")
        if values[0] <= 0.0:
            raise ParameterError("sweep grid values must be > 0")
        if self.swept == "n" and not all(v.is_integer() for v in values):
            raise ParameterError("an n sweep takes integer grid values")
        if self.method not in ("mc", "formula"):
            raise ParameterError(f"unknown sweep method {self.method!r}")
        if not self.models or len(set(self.models)) < len(self.models):
            raise ParameterError(
                f"sweep needs distinct models, got {list(self.models)}")
        for kind in self.models:
            if kind not in MODEL_KINDS:
                raise ParameterError(f"unknown model kind {kind!r}")
        if self.threads < 1:
            raise ParameterError("threads must be >= 1")


@dataclass(frozen=True)
class FitResult:
    """Log-log OLS fit of d against the swept variable."""

    slope: float
    intercept: float
    residual_rms: float


def _sweep_point(spec: SweepSpec, kind: str, index: int) -> dict:
    value = spec.grid[index]
    fixed = {"fwhm": spec.fwhm, "t": spec.t, "n": spec.n}
    fixed[spec.swept] = value
    model = NoiseModel(kind)
    if spec.method == "formula":
        d = detection_boundary(model, fwhm=fixed["fwhm"], t=fixed["t"],
                               n=int(fixed["n"]), alpha=spec.alpha,
                               beta=spec.alpha)
        power, mc_se, reps = 1.0 - spec.alpha, 0.0, 0
    else:
        query = ResolutionQuery(
            model=model, psf=PsfModel.gaussian_from_fwhm(fixed["fwhm"]),
            n=int(fixed["n"]), t=float(fixed["t"]), alpha=spec.alpha,
            beta=spec.alpha)
        # streams depend on (kind, grid index) only, so results do not
        # change with worker count or with the set of models requested
        stream = MODEL_KINDS.index(kind) * 100000 + index
        result = mc_resolution(query, reps=spec.reps,
                               rng=RngState(seed=spec.seed, stream=stream),
                               threshold_mode=spec.threshold_mode)
        diag = result.diagnostics
        d, power, mc_se, reps = (result.d, 1.0 - diag["beta_hat"],
                                 diag["mc_se"], spec.reps)
    return {"model": kind, "swept_var": spec.swept,
            "swept_value": float(value), "d": d, "method": spec.method,
            "power": power, "level": spec.alpha, "mc_se": mc_se,
            "reps": reps, "seed": spec.seed}


def simulation_sweep(spec: SweepSpec) -> tuple[list[dict], dict[str, FitResult]]:
    """Run the sweep and fit each model's resolution curve.

    Returns one record per (model, grid point) plus a log-log OLS fit per
    model. Deterministic given the seed, regardless of the thread count.
    """
    tasks = [(kind, i) for kind in spec.models
             for i in range(len(spec.grid))]
    if spec.threads > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=spec.threads) as pool:
            records = list(pool.map(
                lambda ki: _sweep_point(spec, ki[0], ki[1]), tasks))
    else:
        records = [_sweep_point(spec, kind, i) for kind, i in tasks]

    fits = {}
    for kind in spec.models:
        rows = [r for r in records if r["model"] == kind]
        xs = np.log([r["swept_value"] for r in rows])
        ys = np.log([r["d"] for r in rows])
        slope, intercept = np.polyfit(xs, ys, 1)
        resid = ys - (slope * xs + intercept)
        fits[kind] = FitResult(slope=float(slope),
                               intercept=float(intercept),
                               residual_rms=float(np.sqrt(np.mean(resid ** 2))))
    return records, fits
