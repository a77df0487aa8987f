"""Acceptance gate: one test per headline claim, one verdict line each.

Every test prints ``ACCEPTANCE k: PASS/FAIL (detail)`` to the terminal
(bypassing capture) and then asserts, so a plain pytest run shows the
full scorecard. Tolerances are part of the claims and are not adjustable.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.integrate import quad

from statres.analysis import (SweepSpec, criterion_alpha,
                              hardest_alternative_scan,
                              riemann_convergence_check, simulation_sweep,
                              sted_improvement, table1)
from statres.binning import SourceConfig, bin_probabilities
from statres.cli import main
from statres.models import NoiseModel, RngState, exact_error_rates, \
    mc_error_rates
from statres.psf import (GAUSSIAN_FWHM_FACTOR, PsfModel, curvature_integral,
                         fisher_integral, kernel_value,
                         psf_second_derivative)
from statres.resolution import (ResolutionQuery, asymptotic_resolution,
                                exact_resolution, finite_n_resolution,
                                mc_resolution)

pytestmark = pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")

SIGMA_02 = 0.2 / GAUSSIAN_FWHM_FACTOR


def report(capsys, number, passed, detail):
    line = f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line)
    assert passed, line


def test_criterion_1_law_coefficients(capsys):
    expected = {0.01: (3.08, 2.18), 0.05: (2.59, 1.83), 0.1: (2.29, 1.62)}
    rows = table1()
    gaps = []
    for row in rows:
        hg_ref, pv_ref = expected[row["alpha"]]
        gaps.append(abs(row["hg"] - hg_ref))
        gaps.append(abs(row["poisson_vsg"] - pv_ref))
    passed = max(gaps) <= 5e-3
    report(capsys, 1, passed,
           f"6 law coefficients, max deviation {max(gaps):.2e} <= 5e-3")


def test_criterion_2_classical_criterion_levels(capsys):
    expected = {
        ("abbe", 10): 6.81e-2, ("rayleigh", 10): 1.33e-2,
        ("abbe", 20): 1.76e-2, ("rayleigh", 20): 8.57e-4,
        ("abbe", 30): 4.94e-3, ("rayleigh", 30): 6.14e-5,
        ("abbe", 40): 1.44e-3, ("rayleigh", 40): 4.61e-6,
        ("abbe", 50): 4.32e-4, ("rayleigh", 50): 3.56e-7,
    }
    rels = [abs(criterion_alpha(c, t) / ref - 1.0)
            for (c, t), ref in expected.items()]
    passed = max(rels) <= 5e-3
    report(capsys, 2, passed,
           f"10 criterion levels, max relative gap {max(rels):.2e} "
           f"(3 significant figures)")


def test_criterion_3_sted_improvement(capsys):
    got = sted_improvement(6.0)
    gap = abs(got - 6.0 ** 0.75)
    passed = gap <= 1e-12
    report(capsys, 3, passed,
           f"6x narrowing gives {got:.6f}x resolution, gap {gap:.1e}")


def test_criterion_4_simulated_scaling_exponents(capsys):
    fwhm_targets = {"poisson": 0.979, "vsg": 0.975, "hg": 1.26}
    t_targets = {"poisson": -0.352, "vsg": -0.336, "hg": -0.665}
    fwhm_grid = tuple(round(v, 10) for v in np.arange(0.15, 0.2501, 0.01))
    _, fits_fwhm = simulation_sweep(SweepSpec(swept="fwhm", grid=fwhm_grid,
                                              reps=10000, seed=0))
    t_grid = (7.0, 9.0, 12.0, 15.0, 20.0, 26.0, 34.0, 44.0, 57.0, 63.0)
    _, fits_t = simulation_sweep(SweepSpec(swept="t", grid=t_grid,
                                           reps=10000, seed=0))
    gaps = {}
    for kind in ("poisson", "vsg", "hg"):
        gaps[f"fwhm/{kind}"] = abs(fits_fwhm[kind].slope
                                   - fwhm_targets[kind])
        gaps[f"t/{kind}"] = abs(fits_t[kind].slope - t_targets[kind])
    worst = max(gaps.values())
    passed = worst <= 0.1
    slopes = ", ".join(f"{k} {v.slope:+.3f}" for k, v in
                       list(fits_fwhm.items()) + list(fits_t.items()))
    report(capsys, 4, passed,
           f"6 fitted exponents within 0.1 of targets, worst gap "
           f"{worst:.3f}; {slopes}")


def test_criterion_5_monte_carlo_meets_asymptotics(capsys):
    ratios = {}
    for kind in ("poisson", "vsg", "hg"):
        query = ResolutionQuery(model=NoiseModel(kind),
                                psf=PsfModel.gaussian(SIGMA_02),
                                n=1000, t=1000.0)
        asym = asymptotic_resolution(query).d
        mc = mc_resolution(query, reps=10000, rng=RngState(seed=0)).d
        ratios[kind] = mc / asym
    passed = all(0.9 <= r <= 1.1 for r in ratios.values())
    detail = ", ".join(f"{k} {v:.4f}" for k, v in ratios.items())
    report(capsys, 5, passed,
           f"t = n = 1000 mc/asymptotic ratios in [0.9, 1.1]: {detail}")


def test_criterion_6_monte_carlo_calibration(capsys):
    master = np.random.default_rng(2026)
    reps = 100000
    worst = 0.0
    for i in range(5):
        sigma = float(master.uniform(0.05, 0.15))
        n = int(master.integers(10, 51))
        for kind in ("hg", "vsg"):
            psf = PsfModel.gaussian(sigma, background=0.2)
            query = ResolutionQuery(model=NoiseModel(kind), psf=psf,
                                    n=n, t=20.0)
            d = exact_resolution(query).d
            probs = bin_probabilities(psf, SourceConfig(x0=0.5, d=d), n)
            exact = exact_error_rates(NoiseModel(kind), probs, 20.0, 0.1)
            mc = mc_error_rates(NoiseModel(kind), probs, 20.0, 0.1,
                                reps=reps, rng=RngState(seed=100 + i))
            power_se = math.sqrt(exact.power * (1.0 - exact.power) / reps)
            level_se = math.sqrt(0.1 * 0.9 / reps)
            worst = max(worst,
                        abs(mc.power - exact.power) / power_se,
                        abs(mc.level - 0.1) / level_se)
    passed = worst <= 3.0
    report(capsys, 6, passed,
           f"5 random scenarios x 2 models: level and power within 3 "
           f"standard errors of the closed forms, worst z {worst:.2f}")


def test_criterion_7_poisson_statistic_normality(capsys):
    code = main(["check", "--clt", "--t", "100", "--n", "1000",
                 "--reps", "10000", "--format", "csv"])
    out = capsys.readouterr().out
    rows = [line.split(",") for line in out.splitlines()
            if line.startswith("poisson-normality")]
    ks = {cells[1]: float(cells[2]) for cells in rows}
    passed = (code == 0 and set(ks) == {"null", "alternative"}
              and max(ks.values()) <= 0.03)
    report(capsys, 7, passed,
           f"KS distance to normal at t = 100, n = 1000: null "
           f"{ks.get('null', math.nan):.4f}, alternative "
           f"{ks.get('alternative', math.nan):.4f}, bound 0.03")


def test_criterion_8_invariance_suite(capsys):
    checks = {}

    base = ResolutionQuery(model=NoiseModel("hg"),
                           psf=PsfModel.gaussian(SIGMA_02), t=20.0, n=20)
    noisy = replace(base, psf=PsfModel.gaussian(SIGMA_02, background=5.0))
    checks["hg background invariance"] = (
        asymptotic_resolution(base).d == asymptotic_resolution(noisy).d
        and finite_n_resolution(base).d == finite_n_resolution(noisy).d
        and exact_resolution(base).d == exact_resolution(noisy).d)

    thin = ResolutionQuery(model=NoiseModel("vsg", thinning=0.25),
                           psf=PsfModel.gaussian(SIGMA_02), t=80.0, n=20)
    full = replace(thin, model=NoiseModel("vsg"), t=20.0)
    checks["thinning product law"] = (
        abs(asymptotic_resolution(thin).d / asymptotic_resolution(full).d
            - 1.0) < 1e-14
        and exact_resolution(thin).d == exact_resolution(full).d
        and mc_resolution(replace(thin, model=NoiseModel(
            "poisson", thinning=0.25)), reps=2000, rng=RngState(1)).d
        == mc_resolution(replace(full, model=NoiseModel("poisson")),
                         reps=2000, rng=RngState(1)).d)

    grid = np.round(np.arange(-0.05, 0.0501, 0.01), 10)
    _, lam_star = hardest_alternative_scan(
        NoiseModel("vsg"), PsfModel.gaussian(SIGMA_02, background=0.2),
        d=0.15, t=20.0, n=20, alpha=0.1, lambdas=grid)
    checks["hardest alternative is centered"] = lam_star == 0.0

    ratio_ok = True
    d_half = asymptotic_resolution(
        replace(base, model=NoiseModel("poisson"))).d
    for q in (0.2, 0.35, 0.65):
        got = asymptotic_resolution(replace(
            base, model=NoiseModel("poisson"), weight_q=q)).d / d_half
        want = 1.0 / (2.0 * math.sqrt(q * (1.0 - q)))
        ratio_ok = ratio_ok and abs(got / want - 1.0) < 1e-12
    checks["weight ratio law"] = ratio_ok

    psf = PsfModel.gaussian(0.1)
    records, _ = riemann_convergence_check(psf, (20, 200, 2000))
    gaps = [r["gap"] for r in records]
    checks["riemann sums converge"] = gaps[0] > gaps[1] > gaps[2]

    passed = all(checks.values())
    failed = [name for name, ok in checks.items() if not ok]
    report(capsys, 8, passed,
           f"{len(checks)} invariances hold" if passed
           else f"failed: {', '.join(failed)}")


def test_criterion_9_closed_form_integrals(capsys):
    worst = 0.0
    for sigma in (0.02, 0.05, 0.1, 0.2, 0.3):
        psf = PsfModel.gaussian(sigma)
        pts = [max(0.5 - 5 * sigma, 1e-9), 0.5,
               min(0.5 + 5 * sigma, 1 - 1e-9)]
        curv, _ = quad(
            lambda x: float(psf_second_derivative(psf, x - 0.5)) ** 2,
            0.0, 1.0, points=pts, limit=200, epsabs=0.0, epsrel=1e-10)
        fish, _ = quad(
            lambda x: float(psf_second_derivative(psf, x - 0.5)) ** 2
            / float(kernel_value(psf, x - 0.5)),
            0.0, 1.0, points=pts, limit=200, epsabs=0.0, epsrel=1e-10)
        worst = max(worst,
                    abs(curvature_integral(psf) / curv - 1.0),
                    abs(fisher_integral(psf) / fish - 1.0))
    passed = worst <= 1e-8
    report(capsys, 9, passed,
           f"closed-form kernel integrals vs adaptive quadrature over 5 "
           f"widths, worst relative gap {worst:.2e} <= 1e-8")
