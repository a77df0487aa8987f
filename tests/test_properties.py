"""Properties of the closed-form error rates, of the paper's resolution
laws and of the command line's failures, checked on generated inputs."""

import contextlib
import io
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from statres import cli, normal
from statres.binning import SourceConfig, bin_probabilities
from statres.models import (MODEL_KINDS, NoiseModel, analytic_report,
                            exact_error_rates)
from statres.psf import AIRY_FWHM_U, PsfModel, curvature_integral
from statres.resolution import (ROOT_GRID, ROOT_GROWTH, ROOT_SLACK,
                                ResolutionQuery, _power_root,
                                asymptotic_resolution, exact_resolution,
                                finite_n_resolution)

pytestmark = pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")

# few examples, fixed draws: each example costs a few bin quadratures
PROPERTY = settings(max_examples=25, deadline=None, derandomize=True,
                    database=None)

fwhms = st.floats(0.05, 0.3)
positions = st.floats(0.35, 0.65)
weights = st.floats(0.3, 0.7)
separations = st.floats(0.005, 0.2)
photons = st.floats(20.0, 1000.0)
alphas = st.sampled_from([0.05, 0.1, 0.2])
exact_models = st.sampled_from(["hg", "vsg"])


def probs_at(fwhm, x0, q, d, n=20):
    psf = PsfModel.gaussian_from_fwhm(fwhm)
    return bin_probabilities(psf, SourceConfig(x0=x0, d=d, weight_q=q), n)


def exact_power(kind, probs, t, alpha):
    return exact_error_rates(NoiseModel(kind), probs, t, alpha).power


@PROPERTY
@given(kind=st.sampled_from(MODEL_KINDS), eta=st.floats(0.05, 1.0),
       t=photons, fwhm=fwhms, d=separations, alpha=alphas)
def test_thinning_enters_only_through_eta_t(kind, eta, t, fwhm, d, alpha):
    probs = probs_at(fwhm, 0.5, 0.5, d)
    thinned = analytic_report(NoiseModel(kind, thinning=eta), probs, t,
                              alpha)
    merged = analytic_report(NoiseModel(kind), probs, eta * t, alpha)
    assert thinned.threshold == pytest.approx(merged.threshold, rel=1e-12,
                                              abs=1e-300)
    assert thinned.power == pytest.approx(merged.power, rel=1e-12)


@PROPERTY
@given(kind=exact_models, fwhm=fwhms, x0=positions, q=weights,
       d=separations, t=photons, alpha=alphas)
def test_exact_power_is_mirror_symmetric(kind, fwhm, x0, q, d, t, alpha):
    # x -> 1 - x maps the pair at (x0, q) onto the pair at (1 - x0, 1 - q)
    # and reverses the bins, which leaves the power unchanged
    power = exact_power(kind, probs_at(fwhm, x0, q, d), t, alpha)
    mirrored = exact_power(kind, probs_at(fwhm, 1.0 - x0, 1.0 - q, d), t,
                           alpha)
    assert mirrored == pytest.approx(power, rel=1e-9)


@PROPERTY
@given(kind=exact_models, fwhm=fwhms, x0=positions, q=weights,
       d=separations, step=st.floats(0.001, 0.1), t=photons, alpha=alphas)
def test_exact_power_grows_with_d(kind, fwhm, x0, q, d, step, t, alpha):
    near = exact_power(kind, probs_at(fwhm, x0, q, d), t, alpha)
    far = exact_power(kind, probs_at(fwhm, x0, q, d + step), t, alpha)
    assert far >= near - 1e-12


@PROPERTY
@given(kind=exact_models, fwhm=fwhms, x0=positions, q=weights,
       d=separations, t=photons, factor=st.floats(1.0, 10.0), alpha=alphas)
def test_exact_power_grows_with_t(kind, fwhm, x0, q, d, t, factor, alpha):
    probs = probs_at(fwhm, x0, q, d)
    assert exact_power(kind, probs, factor * t, alpha) >= \
        exact_power(kind, probs, t, alpha) - 1e-12


@PROPERTY
@given(kind=exact_models, fwhm=st.floats(0.05, 0.25),
       x0=st.floats(0.4, 0.6), t=st.floats(50.0, 1000.0))
def test_exact_resolution_inverts_the_exact_power(kind, fwhm, x0, t):
    query = ResolutionQuery(model=NoiseModel(kind),
                            psf=PsfModel.gaussian_from_fwhm(fwhm), x0=x0,
                            t=t)
    result = exact_resolution(query)
    target = 1.0 - query.beta
    power = exact_power(kind, probs_at(fwhm, x0, 0.5, result.d), t,
                        query.alpha)
    assert 0.0 <= power - target <= result.diagnostics["residual"]
    below = exact_power(kind, probs_at(fwhm, x0, 0.5, result.d - ROOT_GRID),
                        t, query.alpha)
    assert below < target


# ------------------------------------------------------ the root search

def illinois_root(gap, first, cap):
    """The grid root search as it stood before its steps moved to the d^2
    scale: the bracket grows from gap(first) by 1.5 and Illinois steps on
    the gap's own values close it, from gap(0) at the low end."""
    top = math.floor(cap / ROOT_GRID)
    a, b = 0, min(max(1, math.ceil(first / ROOT_GRID)), top)
    while gap(b * ROOT_GRID) < 0.0:
        if b == top:
            return None
        a, b = b, min(math.ceil(1.5 * b), top)
    ga, gb = gap(a * ROOT_GRID), gap(b * ROOT_GRID)
    kept = 0
    while b - a > 1:
        k = min(max(round(b - gb * (b - a) / (gb - ga)), a + 1), b - 1)
        gk = gap(k * ROOT_GRID)
        if gk < 0.0:
            if kept > 0:
                gb *= 0.5
            a, ga, kept = k, gk, 1
        else:
            if kept < 0:
                ga *= 0.5
            b, gb, kept = k, gk, -1
    return b * ROOT_GRID


@st.composite
def monotone_gaps(draw):
    """A power curve of a level-alpha test less 1 - beta, monotone in d:
    Phi(c (d - flat)^p - z_(1-alpha)), so alpha on a flat stretch up to
    ``flat`` and then rising as a p-th power, with p = 2 the small-d law;
    it may saturate to exactly 1 from ``saturate`` on. The cap puts the
    grid root well inside the window, at the cap itself or past it."""
    alpha = draw(st.sampled_from([0.05, 0.1, 0.2]))
    beta = draw(st.sampled_from([0.05, 0.1, 0.3]))
    root = draw(st.floats(1e-3, 0.4))
    flat = root * draw(st.sampled_from([0.0, 0.0, 0.3, 0.9]))
    p = draw(st.sampled_from([2.0, 2.0, 1.0, 1.5, 3.0, 4.0]))
    saturate = root * draw(st.sampled_from([math.inf, 0.7, 1.2]))
    z_alpha = normal.quantile(1.0 - alpha)
    c = (z_alpha + normal.quantile(1.0 - beta)) / (root - flat) ** p

    def gap(d):
        power = (1.0 if d >= saturate else
                 normal.cdf(c * max(d - flat, 0.0) ** p - z_alpha))
        return power - (1.0 - beta)

    first = root * draw(st.floats(0.2, 5.0))
    cap = draw(st.sampled_from(["wide", "at root", "short"]))
    if cap == "wide":
        cap = 0.5
    else:
        k = round(illinois_root(gap, first, 0.5) / ROOT_GRID)
        cap = (k if cap == "at root" else k - 1) * ROOT_GRID
    return gap, first, cap, alpha, beta


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=monotone_gaps())
def test_power_root_finds_the_illinois_grid_point(case):
    # the same first grid point with gap >= 0, or None, as the old search,
    # whatever the gap's shape; the bracket grows by a factor within
    # ROOT_GROWTH a step, and once it holds the root it closes in at most
    # ceil(log2(b - a)) + ROOT_SLACK probes
    gap, first, cap, alpha, beta = case
    calls = []

    def counted(d):
        assert len(calls) < 1000
        calls.append(round(d / ROOT_GRID))
        return gap(d)

    got = _power_root(counted, first, cap, alpha, beta)
    assert got == illinois_root(gap, first, cap)
    assert len(set(calls)) == len(calls) and 0 not in calls
    top = math.floor(cap / ROOT_GRID)
    grown = next((i for i, k in enumerate(calls)
                  if gap(k * ROOT_GRID) >= 0.0), len(calls) - 1)
    assert all(ROOT_GROWTH[0] * j <= k <= math.ceil(ROOT_GROWTH[1] * j)
               or k == top for j, k in zip(calls, calls[1:grown + 1]))
    if got is None:
        assert calls[-1] == top and grown == len(calls) - 1
        return
    a, b = calls[grown - 1] if grown else 0, calls[grown]
    probes = len(calls) - grown - 1
    assert probes <= (math.ceil(math.log2(b - a)) + ROOT_SLACK
                      if b - a > 1 else 0)


# --------------------------------------------------- the resolution laws

# the width exponent of the asymptotic d: poisson and vsg are linear in
# the kernel width, hg grows as its 5/4 power
WIDTH_EXPONENTS = {"poisson": 1.0, "vsg": 1.0, "hg": 1.25}
# positions whose integrals the quadrature takes, one of them far off the
# bin grid, beside the centred closed form
LAW_POSITIONS = st.sampled_from([0.5, 0.3, 0.1234567])
# the laws are exact in the width; the measured spreads are below 4e-15
LAW_RTOL = 1e-13


def asymptotic_d(kind, sigma, x0):
    query = ResolutionQuery(model=NoiseModel(kind),
                            psf=PsfModel.gaussian(sigma), x0=x0)
    return asymptotic_resolution(query).d


@PROPERTY
@given(kind=st.sampled_from(MODEL_KINDS), x0=LAW_POSITIONS,
       log_sigma=st.floats(-29.0, -2.0))
def test_asymptotic_d_follows_the_width_law(kind, x0, log_sigma):
    # far narrower than the window, the kernel integrals are exact powers
    # of sigma, so d / sigma^p is one constant from 1e-29 to 1e-2
    sigma = 10.0 ** log_sigma
    power = WIDTH_EXPONENTS[kind]
    law = asymptotic_d(kind, 1e-2, 0.5) / 1e-2 ** power
    assert asymptotic_d(kind, sigma, x0) / sigma ** power == \
        pytest.approx(law, rel=LAW_RTOL)


@PROPERTY
@given(log_fwhm=st.floats(-12.0, -3.0))
def test_airy_curvature_integral_follows_the_width_law(log_fwhm):
    # the integral of h''^2 scales as the airy unit f / AIRY_FWHM_U to
    # the power -3
    def scaled(fwhm):
        unit = fwhm / AIRY_FWHM_U
        return curvature_integral(PsfModel.airy(fwhm), 0.5) * unit ** 3

    assert scaled(10.0 ** log_fwhm) == pytest.approx(scaled(1e-3),
                                                     rel=LAW_RTOL)


@PROPERTY
@given(kind=exact_models, x0=st.sampled_from([0.5, 0.3]),
       n=st.integers(20, 999), step=st.integers(1, 980))
def test_finite_n_d_falls_to_the_asymptotic_d(kind, x0, n, step):
    # binning loses information (Cauchy-Schwarz on each bin), so the
    # finite-n d lies above the asymptotic d, and it falls to it as n^-2
    # as the bins refine: (ratio - 1) n^2 reads 5.7-7.3 for n in
    # [20, 1000]
    def ratio(bins):
        query = ResolutionQuery(model=NoiseModel(kind),
                                psf=PsfModel.gaussian_from_fwhm(0.2),
                                x0=x0, n=bins)
        return finite_n_resolution(query).d / asymptotic_resolution(query).d

    finer = min(n + step, 1000)
    coarse, fine = ratio(n), ratio(finer)
    assert 1.0 < fine < coarse
    assert (coarse - 1.0) * n ** 2 < 8.0


# ----------------------------------------------------- command-line failures

def cli_options(wanted):
    return [(name, opt) for name, (_, opts, _) in cli.COMMANDS.items()
            for opt in opts if wanted(opt)]


def converts(conv, text):
    try:
        conv(text)
    except ValueError:
        return False
    return True


NUMERIC_OPTIONS = cli_options(lambda opt: opt.conv in (int, float))
CHOICE_OPTIONS = cli_options(lambda opt: opt.choices is not None)

# values outside the domain of each query option, for both resolve and
# power, which check every one before any kernel is integrated
OUT_OF_RANGE = {
    "alpha": ["0", "-0.1", "1", "1.5", "nan"],
    "t": ["0.5", "0", "-3", "nan", "inf"],
    "n": ["0", "-2"],
    "x0": ["0", "1", "-0.5", "1.5", "nan"],
    "q-weight": ["0", "1", "1.2", "nan"],
    "eta": ["0", "1.5", "-1", "nan"],
    "gamma": ["-1", "nan", "inf"],
}
FAILING_QUERIES = ([["resolve", "--method", method, "--model", "vsg"]
                    for method in ("asymptotic", "finite-n", "exact", "mc")]
                   + [["power", "--d", "0.1", "--model", model]
                      for model in ("poisson", "vsg", "hg")]
                   + [["power", "--d", "0.1", "--method", "mc"], ["scan"]])
BAD_GRIDS = ["1:2", "a,b", ",", "0.3:0.1:0.1", "1:2:-1", "1:2:0", "a:1:0.1",
             "nan:1:0.1", "0:inf:1", "0:1:1e-9", "1:2:3:4"]
GRID_COMMANDS = [["simulate", "--grid"], ["simulate", "--method", "formula",
                                          "--grid"],
                 ["scan", "--grid"], ["scan", "--kind", "weight", "--grid"]]
BAD_BIN_COUNTS = ["2.5,20", "1e30", "20,abc", "0", "-3"]
BAD_KERNELS = ["gaussian", "foo:1", "gaussian:abc", "gaussian:-1", "airy:0",
               "gaussian:inf", "airy:nan", ":", "gaussian:1e-300",
               "gaussian:1e300", "airy:1e-300", "airy:1e300"]
KERNEL_COMMANDS = [["resolve"], ["power", "--d", "0.1"],
                   ["check", "--riemann"], ["scan"]]


@st.composite
def unparsable_numbers(draw):
    name, opt = draw(st.sampled_from(NUMERIC_OPTIONS))
    value = draw(st.text(max_size=6).filter(
        lambda text: not converts(opt.conv, text)))
    return [name, f"--{opt.name}", value]


@st.composite
def unknown_choices(draw):
    name, opt = draw(st.sampled_from(CHOICE_OPTIONS))
    value = draw(st.text(max_size=8).filter(
        lambda text: text not in opt.choices))
    return [name, f"--{opt.name}", value]


@st.composite
def out_of_range_values(draw):
    option = draw(st.sampled_from(sorted(OUT_OF_RANGE)))
    value = draw(st.sampled_from(OUT_OF_RANGE[option]))
    return draw(st.sampled_from(FAILING_QUERIES)) + [f"--{option}", value]


@st.composite
def bad_grids(draw):
    if draw(st.booleans()):
        return ["check", "--riemann", "--n-grid",
                draw(st.sampled_from(BAD_BIN_COUNTS))]
    return (draw(st.sampled_from(GRID_COMMANDS))
            + [draw(st.sampled_from(BAD_GRIDS))])


@st.composite
def bad_kernels(draw):
    return (draw(st.sampled_from(KERNEL_COMMANDS))
            + ["--psf", draw(st.sampled_from(BAD_KERNELS))])


@pytest.mark.parametrize("invalid", [
    unparsable_numbers(), unknown_choices(), out_of_range_values(),
    bad_grids(), bad_kernels()],
    ids=["unparsable", "choice", "range", "grid", "kernel"])
@PROPERTY
@given(data=st.data())
def test_every_cli_failure_exits_2_3_or_4_with_one_line(invalid, data):
    argv = data.draw(invalid)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (2, 3, 4)
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
