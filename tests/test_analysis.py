"""Reference tables, nuisance scans and simulation sweeps."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import ndtr

from statres.analysis import (BOUNDARY_COEFF, CRITERION_RATIOS, FitResult,
                              SweepSpec, criterion_alpha,
                              hardest_alternative_scan,
                              riemann_convergence_check, simulation_sweep,
                              sted_improvement, table1, weight_scan)
from statres.binning import (SourceConfig, bin_information_sum,
                             bin_probabilities)
from statres.exceptions import ParameterError
from statres.models import NoiseModel, analytic_report
from statres.psf import PsfModel, fisher_integral
from statres.resolution import ResolutionQuery, detection_boundary

# law coefficients at levels 1, 5 and 10 percent, pinned to two decimals
TABLE1_REFERENCE = {
    0.01: {"hg": 3.08, "poisson_vsg": 2.18},
    0.05: {"hg": 2.59, "poisson_vsg": 1.83},
    0.1: {"hg": 2.29, "poisson_vsg": 1.62},
}

# error level resolving the Abbe / Rayleigh distances, three significant
# figures, probabilities (not percent)
CRITERION_REFERENCE = {
    ("abbe", 10): 6.81e-2, ("rayleigh", 10): 1.33e-2,
    ("abbe", 20): 1.76e-2, ("rayleigh", 20): 8.57e-4,
    ("abbe", 30): 4.94e-3, ("rayleigh", 30): 6.14e-5,
    ("abbe", 40): 1.44e-3, ("rayleigh", 40): 4.61e-6,
    ("abbe", 50): 4.32e-4, ("rayleigh", 50): 3.56e-7,
}

# fisher-type integral of the unit-window gaussian with sigma = 0.1,
# pinned by the closed form
FISHER_LIMIT_SIGMA_01 = 19996.123063198816


def test_table1_reference_values():
    rows = table1()
    assert [row["alpha"] for row in rows] == [0.01, 0.05, 0.1]
    for row in rows:
        expected = TABLE1_REFERENCE[row["alpha"]]
        assert_allclose(row["hg"], expected["hg"], atol=5e-3)
        assert_allclose(row["poisson_vsg"], expected["poisson_vsg"],
                        atol=5e-3)
        # unit-noise readings always need more separation than counts
        assert row["hg"] > row["poisson_vsg"]


def test_table1_decreases_with_level():
    rows = table1()
    for key in ("hg", "poisson_vsg"):
        values = [row[key] for row in rows]
        assert values[0] > values[1] > values[2]


def test_criterion_alpha_reference_values():
    for (criterion, t), expected in CRITERION_REFERENCE.items():
        assert_allclose(criterion_alpha(criterion, t), expected, rtol=5e-3)


def test_criterion_alpha_decays_with_time():
    for criterion in ("abbe", "rayleigh"):
        values = [criterion_alpha(criterion, t) for t in (10, 20, 30, 40)]
        assert all(a > b for a, b in zip(values, values[1:]))
    # the rayleigh distance is longer, hence easier: smaller alpha
    assert criterion_alpha("rayleigh", 20) < criterion_alpha("abbe", 20)


def test_criterion_alpha_keeps_its_digits_in_the_far_tail():
    # the level is the lower normal tail Phi(-z), z growing as sqrt(t): it
    # stays positive and strictly decreasing until Phi(-z) leaves the
    # doubles near z = 38.5 (t = 6.7e3 for abbe, 3.0e3 for rayleigh), and
    # agrees with scipy's ndtr(-z) up to t = 1e10
    for criterion, ratio in CRITERION_RATIOS.items():
        times = np.geomspace(1e2, 1e10, 161)
        z = (ratio / BOUNDARY_COEFF) ** 2 * np.sqrt(times)
        levels = np.array([criterion_alpha(criterion, t) for t in times])
        assert_allclose(levels, ndtr(-z), rtol=1e-12, atol=0.0)
        normal_range = levels[ndtr(-z) > 1e-300]
        assert normal_range.size > 20
        assert np.all(normal_range > 0.0)
        assert np.all(np.diff(normal_range) < 0.0)
        assert np.all(np.diff(levels) <= 0.0)


def test_criterion_alpha_validation():
    with pytest.raises(ParameterError):
        criterion_alpha("sparrow", 20)
    with pytest.raises(ParameterError):
        criterion_alpha("abbe", 0.5)


def test_sted_improvement():
    assert_allclose(sted_improvement(6.0), 6.0 ** 0.75, rtol=1e-12)
    assert sted_improvement(1.0) == 1.0
    assert_allclose(sted_improvement(16.0), 8.0, rtol=1e-12)
    with pytest.raises(ParameterError):
        sted_improvement(0.5)


def test_hardest_alternative_is_the_centered_pair():
    psf = PsfModel.gaussian(0.0849, background=0.2)
    grid = np.round(np.arange(-0.05, 0.0501, 0.01), 10)
    records, lam_star = hardest_alternative_scan(
        NoiseModel("vsg"), psf, d=0.15, t=20.0, n=20, alpha=0.1,
        lambdas=grid)
    assert lam_star == 0.0
    by_offset = {round(r["offset_lambda"], 6): r["power"] for r in records}
    for lam in (0.01, 0.03, 0.05):
        assert_allclose(by_offset[lam], by_offset[-lam], rtol=1e-10)
        assert by_offset[lam] > by_offset[0.0]
    assert all(r["feasible"] for r in records)


def test_hardest_alternative_ties_keep_the_leftmost_offset():
    # a wide pair under a narrow kernel has its lowest power at both grid
    # ends; the two agree only up to rounding, and the left end is kept
    psf = PsfModel.gaussian(0.05024, background=0.5)
    grid = [k / 100 for k in range(-5, 6)]
    records, lam_star = hardest_alternative_scan(
        NoiseModel("hg"), psf, d=0.1829, t=20.0, n=200, alpha=0.1,
        lambdas=grid)
    assert lam_star == -0.05
    assert_allclose(records[0]["power"], records[-1]["power"], rtol=1e-13)


def test_hardest_alternative_flags_infeasible_offsets():
    psf = PsfModel.gaussian(0.0849)
    with pytest.warns(Warning):
        records, lam_star = hardest_alternative_scan(
            NoiseModel("hg"), psf, d=0.8, t=20.0, n=20, alpha=0.1,
            lambdas=(-0.15, 0.0, 0.15))
    assert lam_star == 0.0
    flags = {r["offset_lambda"]: r["feasible"] for r in records}
    assert flags[0.0] and not flags[0.15] and not flags[-0.15]
    assert math.isnan([r for r in records
                       if r["offset_lambda"] == 0.15][0]["power"])


def test_hardest_alternative_scan_reads_the_pair_weight():
    # each power is the analytic power of the pair of weight q at that
    # offset; off q = 1/2 mirror-image offsets differ, and a weight
    # outside (0, 1) is an error
    psf = PsfModel.gaussian(0.0849, background=0.2)
    model = NoiseModel("vsg")
    grid = (-0.03, 0.0, 0.03)
    records, _ = hardest_alternative_scan(model, psf, d=0.15, t=20.0, n=20,
                                          alpha=0.1, lambdas=grid,
                                          weight_q=0.3)
    for record in records:
        src = SourceConfig(x0=0.5, d=0.15, weight_q=0.3,
                           offset_lambda=record["offset_lambda"])
        want = analytic_report(model, bin_probabilities(psf, src, 20), 20.0,
                               0.1).power
        assert record["power"] == want
    assert abs(records[0]["power"] - records[-1]["power"]) > 1e-3
    for q in (0.0, 1.0, 1.2, math.nan):
        with pytest.raises(ParameterError, match="weight_q"):
            hardest_alternative_scan(model, psf, d=0.15, t=20.0, n=20,
                                     alpha=0.1, lambdas=grid, weight_q=q)


def test_hardest_alternative_rejects_asymmetric_grids():
    psf = PsfModel.gaussian(0.0849)
    with pytest.raises(ParameterError):
        hardest_alternative_scan(NoiseModel("hg"), psf, d=0.1, t=20.0,
                                 n=20, alpha=0.1, lambdas=(-0.01, 0.0, 0.02))


def test_weight_scan_symmetry_and_minimum():
    query = ResolutionQuery(model=NoiseModel("poisson"),
                            psf=PsfModel.gaussian(0.0849), t=20.0, n=20)
    grid = np.round(np.arange(0.1, 0.91, 0.1), 10)
    records = weight_scan(query, grid)
    by_q = {round(r["weight_q"], 6): r["d"] for r in records}
    for q in (0.1, 0.2, 0.3, 0.4):
        assert_allclose(by_q[q], by_q[round(1.0 - q, 6)], rtol=1e-12)
        assert by_q[q] > by_q[0.5]


def test_riemann_check_converges_to_the_fisher_integral():
    records, limit = riemann_convergence_check(PsfModel.gaussian(0.1),
                                               (20, 200, 2000))
    assert_allclose(limit, FISHER_LIMIT_SIGMA_01, rtol=1e-12)
    gaps = [r["gap"] for r in records]
    assert gaps[0] > 50.0 * gaps[1] > 50.0 * 50.0 * gaps[2]
    assert_allclose(records[-1]["riemann_sum"], FISHER_LIMIT_SIGMA_01,
                    rtol=1e-4)
    assert all(r["passed"] for r in records)


def test_riemann_check_converges_for_the_airy_kernel():
    # the closed-form airy h' differences give the bin curvature
    # integrals exactly, so the gaps shrink like those of the gaussian
    psf = PsfModel.airy(0.2, background=0.2)
    records, limit = riemann_convergence_check(psf, (20, 200, 2000))
    assert limit == fisher_integral(psf)
    gaps = [r["gap"] for r in records]
    assert gaps[0] > 50.0 * gaps[1] > 50.0 * 50.0 * gaps[2]
    assert_allclose(records[-1]["riemann_sum"], limit, rtol=1e-4)


def test_riemann_check_reports_the_finite_n_sum():
    psf = PsfModel.gaussian(0.07, background=0.3)
    records, _ = riemann_convergence_check(psf, (9, 90), x0=0.4)
    for record in records:
        assert record["riemann_sum"] == \
            bin_information_sum(psf, 0.4, record["n"])


def test_riemann_check_validation():
    psf = PsfModel.gaussian(0.1)
    with pytest.raises(ParameterError):
        riemann_convergence_check(psf, (2.5,))
    with pytest.raises(ParameterError):
        riemann_convergence_check(psf, (20,), x0=0.0)


def test_sweep_spec_validation():
    with pytest.raises(ParameterError):
        SweepSpec(swept="sigma", grid=(1, 2, 3))
    with pytest.raises(ParameterError):
        SweepSpec(swept="t", grid=(1, 2))
    with pytest.raises(ParameterError):
        SweepSpec(swept="t", grid=(1, 3, 2))
    with pytest.raises(ParameterError):
        SweepSpec(swept="t", grid=(0, 1, 2))
    with pytest.raises(ParameterError):
        SweepSpec(swept="t", grid=(1, 2, 3), method="grid")
    with pytest.raises(ParameterError):
        SweepSpec(swept="t", grid=(1, 2, 3), models=("hg", "gauss"))


@pytest.mark.parametrize("fields", [{"threads": 0}, {"threads": -1},
                                    {"models": ()},
                                    {"models": ("poisson", "poisson")},
                                    {"swept": "n", "grid": (1.5, 2.5, 3.5)}])
def test_sweep_spec_rejects_bad_threads_and_models(fields):
    with pytest.raises(ParameterError):
        SweepSpec(**{"swept": "t", "grid": (1, 2, 3), "method": "formula",
                     **fields})


def test_formula_sweep_recovers_the_exact_exponents():
    spec = SweepSpec(swept="fwhm", grid=(0.1, 0.15, 0.2, 0.3),
                     method="formula")
    records, fits = simulation_sweep(spec)
    assert len(records) == 12
    assert_allclose(fits["poisson"].slope, 1.0, atol=1e-12)
    assert_allclose(fits["vsg"].slope, 1.0, atol=1e-12)
    assert_allclose(fits["hg"].slope, 1.25, atol=1e-12)
    assert fits["hg"].residual_rms < 1e-12

    spec_t = SweepSpec(swept="t", grid=(10.0, 20.0, 40.0, 80.0),
                       method="formula")
    _, fits_t = simulation_sweep(spec_t)
    assert_allclose(fits_t["poisson"].slope, -0.25, atol=1e-12)
    assert_allclose(fits_t["vsg"].slope, -0.25, atol=1e-12)
    assert_allclose(fits_t["hg"].slope, -0.5, atol=1e-12)

    spec_n = SweepSpec(swept="n", grid=(8, 16, 32), method="formula")
    _, fits_n = simulation_sweep(spec_n)
    assert_allclose(fits_n["hg"].slope, 0.25, atol=1e-12)
    assert_allclose(fits_n["poisson"].slope, 0.0, atol=1e-12)


def test_formula_sweep_prefactors_at_the_working_point():
    # with fwhm in units of the window, t = n = 20: the two laws evaluated
    # at fwhm = 1 give the sweep prefactors, and at fwhm = 0.2 the
    # operating separations
    assert_allclose(detection_boundary(NoiseModel("poisson"), 1.0, 20.0,
                                       20, 0.1, 0.1), 0.765, atol=5e-3)
    assert_allclose(detection_boundary(NoiseModel("hg"), 1.0, 20.0, 20,
                                       0.1, 0.1), 1.08, atol=5e-3)
    assert_allclose(detection_boundary(NoiseModel("hg"), 0.2, 1.0, 20,
                                       0.1, 0.1), 0.647, atol=5e-3)
    assert_allclose(detection_boundary(NoiseModel("poisson"), 0.2, 20.0,
                                       20, 0.1, 0.1), 0.153, atol=5e-4)


def test_mc_sweep_is_reproducible():
    spec = SweepSpec(swept="fwhm", grid=(0.16, 0.2, 0.24), models=("hg",),
                     reps=300, seed=9)
    records_a, fits_a = simulation_sweep(spec)
    records_b, fits_b = simulation_sweep(spec)
    assert records_a == records_b
    assert fits_a == fits_b


def test_mc_sweep_is_thread_invariant():
    base = SweepSpec(swept="fwhm", grid=(0.16, 0.2, 0.24),
                     models=("poisson", "hg"), reps=300, seed=9)
    threaded = SweepSpec(swept="fwhm", grid=(0.16, 0.2, 0.24),
                         models=("poisson", "hg"), reps=300, seed=9,
                         threads=4)
    records_serial, fits_serial = simulation_sweep(base)
    records_pool, fits_pool = simulation_sweep(threaded)
    assert records_serial == records_pool
    assert fits_serial == fits_pool


def test_mc_sweep_records_are_well_formed():
    spec = SweepSpec(swept="t", grid=(15.0, 20.0, 26.0), models=("vsg",),
                     reps=400, seed=2)
    records, fits = simulation_sweep(spec)
    assert len(records) == 3
    for record in records:
        assert record["model"] == "vsg"
        assert record["swept_var"] == "t"
        assert record["method"] == "mc"
        assert record["reps"] == 400
        assert 0.0 < record["d"] < 1.0
        assert 0.8 <= record["power"] <= 1.0
    assert isinstance(fits["vsg"], FitResult)
    assert fits["vsg"].slope < 0.0
