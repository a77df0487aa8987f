"""End-to-end command-line checks, run in process."""

import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import statres
import statres.binning as binning
import statres.resolution as resolution
from statres.cli import build_parser, main, parse_grid, parse_psf
from statres.exceptions import (LevelWarning, MassTruncationWarning,
                                ParameterError)

pytestmark = pytest.mark.filterwarnings(
    "ignore::statres.exceptions.MassTruncationWarning")


@pytest.fixture(autouse=True)
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("STATRES_SEED", raising=False)


def parse_csv(text):
    """Split CLI CSV output into (meta dict, header, row dicts)."""
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
            continue
        cells = line.split(",")
        if header is None:
            header = cells
        else:
            rows.append(dict(zip(header, cells)))
    return meta, header, rows


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_grid_forms():
    assert parse_grid("1,2,3") == [1.0, 2.0, 3.0]
    assert parse_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]
    # ranges are stepped exactly: every point is the double nearest to
    # lo + k step, and the end point is kept when step divides the span
    assert parse_grid("0.15:0.25:0.01") == [
        0.15, 0.16, 0.17, 0.18, 0.19, 0.2, 0.21, 0.22, 0.23, 0.24, 0.25]
    assert parse_grid("-0.05:0.05:0.01")[5] == 0.0
    assert parse_grid("0:1:0.3") == [0.0, 0.3, 0.6, 0.9]
    assert parse_grid("0.5:0.5:0.1") == [0.5]
    for bad in ("1:2", "a,b", "0.3:0.1:0.1", "1:2:-1", "1:2:0", "a:1:0.1",
                "nan:1:0.1", "0:inf:1", "-inf:0:1", "0:1e400:1",
                "0:1:nan", "0:1:1e-9"):
        with pytest.raises(ParameterError):
            parse_grid(bad)


def test_parse_psf_forms():
    assert parse_psf("gaussian:0.1").sigma == 0.1
    assert parse_psf("airy:0.4").fwhm == 0.4
    for bad in ("gaussian", "box:0.1", "gaussian:wide"):
        with pytest.raises(ParameterError):
            parse_psf(bad)


def test_resolve_default_asymptotic(capsys):
    code, out, err = run(capsys, ["resolve"])
    assert code == 0 and err == ""
    meta, header, rows = parse_csv(out)
    assert meta["command"] == "resolve"
    assert header[0] == "model"
    assert rows[0]["model"] == "poisson"
    assert rows[0]["method"] == "asymptotic"
    assert rows[0]["substitution"] == ""
    assert float(rows[0]["d"]) == pytest.approx(0.15293, rel=1e-4)


def test_resolve_hg_ignores_background(capsys):
    _, out_clean, _ = run(capsys, ["resolve", "--model", "hg",
                                   "--method", "exact"])
    _, out_noisy, _ = run(capsys, ["resolve", "--model", "hg",
                                   "--method", "exact", "--gamma", "5"])
    d_clean = parse_csv(out_clean)[2][0]["d"]
    d_noisy = parse_csv(out_noisy)[2][0]["d"]
    assert d_clean == d_noisy


def test_resolve_poisson_exact_substitutes_vsg(capsys):
    code, out, _ = run(capsys, ["resolve", "--model", "poisson",
                                "--method", "exact"])
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert rows[0]["substitution"] == "vsg-solver"
    assert meta["substitution"] == "vsg-solver"
    assert rows[0]["model"] == "poisson"


def test_resolve_bad_alpha_exits_2(capsys):
    code, out, err = run(capsys, ["resolve", "--alpha", "0.7"])
    assert code == 2
    assert out == ""
    assert "alpha must lie in (0, 1/2)" in err


def test_resolve_flat_kernel_exits_3(capsys):
    code, _, err = run(capsys, ["resolve", "--model", "vsg",
                                "--psf", "gaussian:10", "--method", "mc",
                                "--reps", "200"])
    assert code == 3
    assert "error:" in err


def test_resolve_mc_is_deterministic(capsys):
    argv = ["resolve", "--model", "poisson", "--method", "mc",
            "--reps", "500"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second
    rows = parse_csv(first)[2]
    assert rows[0]["method"] == "monte_carlo"
    assert int(rows[0]["reps"]) == 500


def test_resolve_mc_reports_its_start(capsys):
    code, out, _ = run(capsys, ["resolve", "--model", "vsg", "--method",
                                "mc", "--reps", "500"])
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert 0.0 < float(meta["start"]) < 1.0
    for key in ("converged", "iterations", "expansions"):
        assert key in meta
    # the draw route stays in the library's diagnostics
    assert "draw" not in meta


@pytest.mark.parametrize("argv, law", [
    (["--model", "vsg"], "normal"),
    (["--model", "poisson"], "edgeworth"),
    (["--model", "poisson", "--psf", "gaussian:0.01"], "clt")])
def test_resolve_mc_prints_its_start_law(capsys, argv, law):
    code, out, _ = run(capsys, ["resolve", "--method", "mc", "--reps",
                                "1000"] + argv)
    assert code == 0
    meta, _, _ = parse_csv(out)
    assert meta["start_law"] == law
    # rho, T's Lyapunov ratio, belongs to the poisson start alone
    assert ("rho" in meta) == (law != "normal")


def test_poisson_sweep_draw_count(capsys, monkeypatch):
    # the Edgeworth start lands in the band at every point of the default
    # fwhm sweep: one draw per solve, where a CLT start takes 22 draws
    draws = []
    draw = statres.models.sample_observations
    monkeypatch.setattr(statres.models, "sample_observations",
                        lambda *args: draws.append(args) or draw(*args))
    code, _, _ = run(capsys, ["simulate", "--sweep", "fwhm", "--models",
                              "poisson", "--seed", "1"])
    assert code == 0
    assert len(draws) <= 11


@pytest.fixture
def draws(monkeypatch):
    """The sides of every sample_observations call: power and resolve
    draw through models.mc_error_rates, check through normality_check."""
    sides = []
    original = statres.models.sample_observations

    def counted(*args):
        sides.append(args[3])
        return original(*args)

    monkeypatch.setattr(statres.models, "sample_observations", counted)
    return sides


@pytest.mark.parametrize("argv", [
    ["power", "--method", "mc", "--d", "0.15"],
    ["power", "--method", "mc", "--d", "0.15", "--threshold",
     "h0-calibrated"],
    ["check", "--clt"],
    ["check", "--hg-normality"]])
def test_power_and_check_draw_each_side_once(capsys, draws, argv):
    # bench/smoke.py counts these two draws of check --clt on top of the
    # resolve draws; the calibrated threshold reuses the null draw
    code, _, _ = run(capsys, argv + ["--reps", "1000", "--seed", "1"])
    assert code == 0
    assert draws == [0, 1]


@pytest.mark.parametrize("mode, per_probe", [("analytic", 1),
                                             ("h0-calibrated", 2)])
@pytest.mark.parametrize("model", ["poisson", "vsg", "hg"])
def test_resolve_mc_draws_once_per_probe_and_side(capsys, draws, model,
                                                  mode, per_probe):
    # bench/worker.py reads 1 + expansions + iterations draws per analytic
    # resolve from the meta lines
    code, out, _ = run(capsys, ["resolve", "--method", "mc", "--model", model,
                                "--threshold", mode, "--reps", "1000",
                                "--seed", "1"])
    assert code == 0
    meta, _, _ = parse_csv(out)
    probes = 1 + int(meta["expansions"]) + int(meta["iterations"])
    assert len(draws) == per_probe * probes
    assert draws.count(1) == probes


def test_default_mc_resolve_stays_inside_the_window(capsys):
    # the analytic start never probes a separation whose sources lose
    # kernel mass off the window
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, _, err = run(capsys, ["resolve", "--method", "mc"])
    assert code == 0 and err == ""


def test_resolve_json_round_trip(capsys):
    _, csv_out, _ = run(capsys, ["resolve"])
    _, json_out, _ = run(capsys, ["resolve", "--format", "json"])
    payload = json.loads(json_out)
    assert payload["meta"]["command"] == "resolve"
    assert payload["meta"]["version"]
    d_csv = float(parse_csv(csv_out)[2][0]["d"])
    assert payload["records"][0]["d"] == d_csv


def test_resolve_output_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, ["resolve", "--output", str(target)])
    assert code == 0
    assert out == ""
    meta, _, rows = parse_csv(target.read_text())
    assert meta["command"] == "resolve"
    assert float(rows[0]["d"]) > 0.0
    missing = tmp_path / "no-such-dir" / "out.csv"
    code, out, err = run(capsys, ["resolve", "--output", str(missing)])
    assert code == 2 and out == ""
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


def test_config_file_precedence(capsys, tmp_path):
    config = tmp_path / "statres.conf"
    # a key of another subcommand (sweep) is allowed and ignored here
    config.write_text("# sweep defaults\nt = 30\nalpha = 0.05\nsweep = t\n")
    _, out, _ = run(capsys, ["resolve", "--config", str(config)])
    meta, _, _ = parse_csv(out)
    assert meta["t"] == "30.0"
    assert meta["alpha"] == "0.05"
    _, out, _ = run(capsys, ["resolve", "--config", str(config),
                             "--t", "20"])
    meta, _, _ = parse_csv(out)
    assert meta["t"] == "20.0"
    assert meta["alpha"] == "0.05"


def test_config_file_errors(capsys, tmp_path):
    missing = tmp_path / "none.conf"
    code, _, err = run(capsys, ["resolve", "--config", str(missing)])
    assert code == 2 and "cannot read config" in err
    bad = tmp_path / "bad.conf"
    bad.write_text("t 30\n")
    code, _, err = run(capsys, ["resolve", "--config", str(bad)])
    assert code == 2 and "expected key = value" in err
    for command, text, needle in (
            ("resolve", "tt = 5\n", "'tt'"),
            ("resolve", "t = abc\n", "t = 'abc'"),
            ("resolve", "n = 2.5\n", "n = '2.5'"),
            ("check", "clt = maybe\n", "clt = 'maybe'")):
        bad.write_text(text)
        code, out, err = run(capsys, [command, "--config", str(bad)])
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert needle in err


def test_config_file_sets_boolean_options(capsys, tmp_path):
    config = tmp_path / "statres.conf"
    config.write_text("riemann = true\nn-grid = 20,200\n")
    code, out, _ = run(capsys, ["check", "--config", str(config)])
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert meta["riemann"] == "true" and meta["clt"] == "false"
    assert [row["n"] for row in rows] == ["20", "200"]
    # a false value leaves the check unselected
    config.write_text("riemann = false\n")
    code, _, err = run(capsys, ["check", "--config", str(config)])
    assert code == 2 and "check requires one of" in err


def test_seed_environment_fallback(capsys, monkeypatch):
    monkeypatch.setenv("STATRES_SEED", "7")
    _, out, _ = run(capsys, ["resolve"])
    assert parse_csv(out)[0]["seed"] == "7"
    _, out, _ = run(capsys, ["resolve", "--seed", "3"])
    assert parse_csv(out)[0]["seed"] == "3"
    monkeypatch.setenv("STATRES_SEED", "x")
    code, out, err = run(capsys, ["resolve"])
    assert code == 2 and out == ""
    assert err == "error: bad STATRES_SEED 'x'; want an integer\n"


def test_power_vsg_at_the_exact_critical_separation(capsys):
    # the exact solver's critical separation must give power 0.9 back
    _, out, _ = run(capsys, ["resolve", "--model", "vsg",
                             "--method", "exact"])
    d = parse_csv(out)[2][0]["d"]
    code, out, _ = run(capsys, ["power", "--model", "vsg", "--d", d])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header == ["model", "method", "threshold", "level", "power",
                      "mc_se", "reps", "seed"]
    assert rows[0]["method"] == "exact"
    assert float(rows[0]["power"]) == pytest.approx(0.9, abs=1e-9)


def test_power_requires_d(capsys):
    code, _, err = run(capsys, ["power", "--model", "vsg"])
    assert code == 2 and "requires --d" in err


def test_power_poisson_defaults_to_clt(capsys):
    code, out, _ = run(capsys, ["power", "--d", "0.15"])
    assert code == 0
    rows = parse_csv(out)[2]
    assert rows[0]["model"] == "poisson"
    assert rows[0]["method"] == "clt"
    assert 0.1 < float(rows[0]["power"]) <= 1.0


def test_power_clt_rejects_gaussian_models(capsys):
    code, _, err = run(capsys, ["power", "--model", "hg", "--d", "0.15",
                                "--method", "clt"])
    assert code == 2 and "poisson model only" in err


def test_power_exact_rejects_poisson(capsys):
    code, _, err = run(capsys, ["power", "--d", "0.15", "--method", "exact"])
    assert code == 2 and "--method clt or mc" in err


def test_power_mc_with_offset(capsys):
    code, out, _ = run(capsys, ["power", "--model", "hg", "--d", "0.15",
                                "--method", "mc", "--reps", "2000",
                                "--offset-lambda", "0.02"])
    assert code == 0
    rows = parse_csv(out)[2]
    assert int(rows[0]["reps"]) == 2000
    assert 0.0 < float(rows[0]["mc_se"]) < 0.02


def test_tables_text_is_stable_and_matches_references(capsys):
    _, first, _ = run(capsys, ["tables"])
    _, second, _ = run(capsys, ["tables"])
    assert first == second
    assert "3.08" in first and "2.29" in first
    assert "2.18" in first and "1.62" in first
    assert "6.81" in first and "1.33" in first
    code, out, _ = run(capsys, ["tables", "--which", "2"])
    assert code == 0
    assert "0.00614" in out and "3.56e-05" in out


def test_tables_csv_columns_follow_the_selection(capsys):
    _, out, _ = run(capsys, ["tables", "--which", "1", "--format", "csv"])
    meta, header, rows = parse_csv(out)
    assert header == ["table", "alpha", "hg", "poisson_vsg"]
    assert float(rows[0]["hg"]) == pytest.approx(3.08, abs=5e-3)
    _, out, _ = run(capsys, ["tables", "--which", "2", "--format", "csv"])
    _, header, rows = parse_csv(out)
    assert header == ["table", "t", "abbe", "rayleigh"]
    assert float(rows[0]["abbe"]) == pytest.approx(0.0681, rel=5e-3)


def test_simulate_formula_sweep(capsys):
    code, out, _ = run(capsys, ["simulate", "--method", "formula",
                                "--grid", "0.1,0.15,0.2,0.3",
                                "--models", "poisson,hg"])
    assert code == 0
    meta, header, rows = parse_csv(out)
    assert header[0] == "model"
    assert len(rows) == 8
    assert float(meta["fit_poisson_slope"]) == pytest.approx(1.0,
                                                             abs=1e-12)
    assert float(meta["fit_hg_slope"]) == pytest.approx(1.25, abs=1e-12)
    assert float(meta["fit_hg_residual_rms"]) < 1e-12


@pytest.mark.filterwarnings(
    "error::statres.exceptions.ConvergenceWarning")
def test_simulate_mc_sweep_small(capsys):
    argv = ["simulate", "--grid", "0.18,0.2,0.22", "--models", "vsg",
            "--reps", "300", "--seed", "1"]
    code, first, _ = run(capsys, argv)
    assert code == 0
    _, second, _ = run(capsys, argv)
    assert first == second
    meta, _, rows = parse_csv(first)
    assert len(rows) == 3
    assert {r["model"] for r in rows} == {"vsg"}
    assert float(meta["fit_vsg_slope"]) > 0.0


def test_scan_lambda_symmetric(capsys):
    code, out, _ = run(capsys, ["scan", "--kind", "lambda", "--model",
                                "vsg", "--d", "0.15",
                                "--grid=-0.04:0.04:0.02"])
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert abs(float(meta["lambda_star"])) < 1e-12
    powers = {round(float(r["offset_lambda"]), 6): float(r["power"])
              for r in rows}
    assert powers[0.02] == pytest.approx(powers[-0.02], rel=1e-9)
    assert all(r["feasible"] == "true" for r in rows)


def test_scan_weight_ratio(capsys):
    code, out, _ = run(capsys, ["scan", "--kind", "weight",
                                "--grid", "0.2,0.5,0.8"])
    assert code == 0
    rows = parse_csv(out)[2]
    d = {float(r["weight_q"]): float(r["d"]) for r in rows}
    assert d[0.2] / d[0.5] == pytest.approx(1.25, rel=1e-9)
    assert d[0.8] == pytest.approx(d[0.2], rel=1e-12)


def test_check_clt_passes(capsys):
    code, out, _ = run(capsys, ["check", "--clt", "--t", "100",
                                "--n", "1000", "--reps", "10000"])
    assert code == 0
    _, _, rows = parse_csv(out)
    assert {r["side"] for r in rows} == {"null", "alternative"}
    for row in rows:
        assert row["passed"] == "true"
        assert float(row["ks_statistic"]) <= 0.03


def test_check_hg_normality_passes(capsys):
    code, out, _ = run(capsys, ["check", "--hg-normality",
                                "--reps", "5000"])
    assert code == 0
    assert all(r["passed"] == "true" for r in parse_csv(out)[2])


def test_check_riemann_gaps_shrink(capsys):
    code, out, _ = run(capsys, ["check", "--riemann",
                                "--psf", "gaussian:0.1"])
    assert code == 0
    meta, _, rows = parse_csv(out)
    assert float(meta["limit"]) == pytest.approx(19996.123063198816,
                                                 rel=1e-12)
    gaps = [float(r["gap"]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(r["passed"] == "true" for r in rows)


@pytest.mark.parametrize("entry", ["2.5", "nan", "inf", "1e30",
                                   "1000000000"])
def test_check_riemann_rejects_bad_bin_counts(capsys, entry):
    code, out, err = run(capsys, ["check", "--riemann",
                                  "--n-grid", f"{entry},20"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["power", "--psf", "gaussian:0.01", "--d", "0.02"],
    ["power", "--psf", "gaussian:0.01", "--d", "0.02", "--method", "mc",
     "--reps", "1000"],
    ["check", "--clt", "--psf", "gaussian:0.01"],
    ["resolve", "--psf", "gaussian:0.01", "--x0", "0.3"],
    ["resolve", "--psf", "gaussian:0.01", "--x0", "0.3", "--model", "vsg"],
    ["resolve", "--psf", "gaussian:0.005", "--x0", "0.3"],
    ["resolve", "--psf", "gaussian:0.002", "--x0", "0.3"],
    ["scan", "--kind", "weight", "--psf", "gaussian:0.01", "--x0", "0.3"],
    ["check", "--riemann", "--psf", "gaussian:0.002", "--x0", "0.3"],
    ["power", "--psf", "gaussian:0.005", "--d", "0.05"],
    ["power", "--psf", "gaussian:0.005", "--d", "0.05", "--method", "mc",
     "--reps", "1000"],
    ["check", "--clt", "--psf", "gaussian:0.005", "--d", "0.05",
     "--reps", "1000"],
])
def test_narrow_kernel_bins_without_mass_drop_out(capsys, argv):
    # the far bins of a narrow kernel underflow to p0 = p1 = 0, and off
    # the centre the information integrand h''^2 / h reads 0/0 there; at
    # sigma 0.005 a tail bin keeps about 1e-320 under one hypothesis and 0
    # under the other, and drops out of the poisson statistic too. At
    # sigma 0.01 the seeded Monte Carlo level is 0, which the command
    # reports as its one warning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert parse_csv(out)[2]
    mc = "mc" in argv and "gaussian:0.01" in argv
    assert [w.category for w in caught] == ([LevelWarning] if mc else [])


def test_check_requires_a_mode(capsys):
    code, _, err = run(capsys, ["check"])
    assert code == 2 and "requires one of" in err


@pytest.mark.parametrize("modes", [["--clt", "--riemann"],
                                   ["--clt", "--hg-normality"],
                                   ["--hg-normality", "--riemann"]])
def test_check_rejects_more_than_one_mode(capsys, modes):
    code, out, err = run(capsys, ["check", *modes])
    assert code == 2 and out == ""
    assert err.strip().endswith("got " + ", ".join(modes))


def test_check_riemann_narrow_kernel_gaps_shrink(capsys):
    # the far bins hold no null mass and drop out of the n-bin sum
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["check", "--riemann",
                                      "--psf", "gaussian:0.005"])
    assert code == 0 and err == ""
    rows = parse_csv(out)[2]
    gaps = [float(r["gap"]) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]
    assert all(r["passed"] == "true" for r in rows)


def test_finite_n_narrow_kernel_meets_the_asymptotic_value(capsys):
    argv = ["resolve", "--model", "vsg", "--psf", "gaussian:0.005",
            "--n", "2000"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, argv + ["--method", "finite-n"])
        assert code == 0 and err == ""
        finite_n = float(parse_csv(out)[2][0]["d"])
        code, out, _ = run(capsys, argv)
        assert code == 0
    assert finite_n == pytest.approx(float(parse_csv(out)[2][0]["d"]),
                                     rel=0.01)


def test_finite_n_narrow_kernel_on_coarse_bins_exits_3(capsys):
    # at n = 20 the kernel fills the two bins beside x0, and h' nearly
    # vanishes at all three of their edges
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = run(capsys, ["resolve", "--method", "finite-n",
                                      "--model", "vsg", "--psf",
                                      "gaussian:0.005", "--n", "20"])
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("model", ["hg", "vsg"])
def test_finite_n_kernel_without_curvature_in_any_bin_exits_3(capsys, model):
    # every bin's h' difference underflows to 0: the bin sum is 0
    code, out, err = run(capsys, ["resolve", "--method", "finite-n",
                                  "--model", model,
                                  "--psf", "gaussian:0.00001"])
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("model,psf", [
    ("poisson", "gaussian:0.005"), ("vsg", "gaussian:0.005"),
    ("hg", "gaussian:0.005"), ("poisson", "gaussian:0.002")])
def test_mc_narrow_kernel_resolves_as_the_exact_solve(capsys, model, psf):
    # the pair the exact solve finds spans many FWHM of a kernel narrower
    # than a bin; the Monte Carlo search reaches it inside the same window
    # (poisson's exact value is the vsg one)
    code, out, err = run(capsys, ["resolve", "--model", model, "--psf", psf,
                                  "--method", "mc", "--reps", "1000"])
    assert code == 0 and err == ""
    d_mc = float(parse_csv(out)[2][0]["d"])
    code, out, _ = run(capsys, ["resolve", "--model", model, "--psf", psf,
                                "--method", "exact"])
    assert code == 0
    assert d_mc == pytest.approx(float(parse_csv(out)[2][0]["d"]), rel=0.05)


def test_mc_pair_without_room_exits_3(capsys):
    # at x0 = 0.03 the window ends at d = 0.06, where the type-II rate is
    # still far above the band: no resolution, as for the exact solve
    code, out, err = run(capsys, ["resolve", "--method", "mc", "--x0",
                                  "0.03", "--reps", "1000"])
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: type-II rate ")


# 1e14 elements of 8 bytes pass the 128 TiB address space, so each
# allocation fails at once, whatever the kernel's overcommit setting
@pytest.mark.parametrize("argv", [
    ["resolve", "--method", "mc", "--reps", "100000000000000"],
    ["power", "--d", "0.1", "--method", "mc", "--reps", "100000000000000"],
    ["check", "--clt", "--reps", "100000000000000"],
    ["power", "--d", "0.1", "--n", "100000000000000"]])
def test_size_beyond_memory_exits_2(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: Unable to allocate ")


def test_mc_band_without_a_reachable_rate_exits_2(capsys):
    code, out, err = run(capsys, ["resolve", "--method", "mc", "--model",
                                  "vsg", "--reps", "200", "--beta", "0.0427",
                                  "--seed", "0"])
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: no multiple of 1/reps")


def test_exact_root_outside_the_window_exits_3(capsys):
    # even the widest pair the window admits stays below the power
    code, out, err = run(capsys, ["resolve", "--method", "exact",
                                  "--model", "hg", "--psf", "gaussian:0.05",
                                  "--n", "1000"])
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_exact_narrow_gaussian_resolves_without_warning(capsys):
    # the peak sits inside one bin: its bin mass must not read as lost
    with warnings.catch_warnings():
        warnings.simplefilter("error", MassTruncationWarning)
        code, out, err = run(capsys, ["resolve", "--method", "exact",
                                      "--model", "vsg", "--psf",
                                      "gaussian:0.0001", "--x0", "0.3123",
                                      "--t", "1000"])
    assert code == 0 and err == ""
    assert 0.0 < float(parse_csv(out)[2][0]["d"]) < 1.0


@pytest.mark.parametrize("argv", [
    ["resolve", "--psf", "gaussian:inf"],
    ["resolve", "--psf", "airy:inf"],
    ["resolve", "--gamma", "inf"],
    ["power", "--d", "0.1", "--gamma", "inf"],
    ["check", "--riemann", "--x0", "0.0"],
    ["simulate", "--method", "formula", "--threads", "0"],
    ["simulate", "--method", "formula", "--threads", "-1"],
    ["simulate", "--method", "formula", "--models", ","],
    ["simulate", "--method", "formula", "--models", "poisson,poisson"],
    ["scan", "--grid", ","],
    ["resolve", "--t", "inf"],
    ["power", "--d", "0.1", "--method", "mc", "--t", "inf"],
    ["power", "--model", "poisson", "--d", "0.1", "--method", "exact"],
    ["resolve", "--bogus"],
    ["resolve", "--model", "gauss"],
    ["frobnicate"],
    [],
    ["tables", "--alphas", ","],
    ["check", "--riemann", "--n-grid", ","],
    ["resolve", "--format", "table"],
    ["simulate", "--method", "formula", "--sweep", "n",
     "--grid", "1.5,2.5,3.5"],
])
def test_invalid_inputs_exit_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_model_assumption_violation_exits_4(capsys):
    code, out, err = run(capsys, ["check", "--riemann", "--psf", "airy:0.2"])
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["check", "--clt", "--d", "0", "--reps", "200"],
    # d = FWHM / 2 keeps both sources in the null source's bin
    ["check", "--hg-normality", "--psf", "gaussian:1e-20", "--x0", "0.912"],
])
def test_degenerate_normality_check_exits_4(capsys, argv):
    # the pair's bins equal the null's, so T has zero variance
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["power", "--d", "0.1", "--method", "mc", "--reps", "100",
     "--t", "1e300"],
    ["check", "--clt", "--reps", "100", "--t", "1e30"],
])
def test_poisson_mean_above_the_sampler_bound_exits_4(capsys, argv):
    # numpy's Poisson sampler takes no mean above about 9.2e18
    code, out, err = run(capsys, argv)
    assert code == 4 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["power", "--d", "0.3", "--t", "1e300"],
    ["scan", "--t", "1e300"],
    ["check", "--clt", "--t", "1e300"],
    ["resolve", "--method", "mc", "--t", "1e300"],
    ["power", "--model", "hg", "--d", "0.3", "--t", "1e160"],
    ["resolve", "--method", "exact", "--model", "hg", "--t", "1e160"],
    ["resolve", "--method", "mc", "--model", "hg", "--t", "1e160"],
])
def test_huge_eta_t_gives_finite_numbers_or_one_error_line(capsys, argv):
    # the Poisson rho's K_2^(3/2) overflows at eta t = 1e300, and the hg
    # separation m at eta t = 1e160: either the command still reports
    # finite numbers or it stops with one line and a documented exit code
    code, out, err = run(capsys, argv + ["--format", "json"])
    if code == 0:
        records = json.loads(out)["records"]
        assert records and err == ""
        for cell in (v for record in records for v in record.values()):
            assert isinstance(cell, (str, bool)) or (
                isinstance(cell, (int, float)) and math.isfinite(cell)), cell
    else:
        assert code in (3, 4) and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["resolve"],
    ["power", "--d", "0.15"],
    ["simulate", "--method", "formula"],
    ["tables"],
    ["scan"],
    ["check", "--riemann"],
])
def test_csv_header_is_the_json_record_keys(capsys, argv):
    _, out, _ = run(capsys, argv + ["--format", "csv"])
    header = parse_csv(out)[1]
    _, out, _ = run(capsys, argv + ["--format", "json"])
    records = json.loads(out)["records"]
    # tables' two tables have different keys: the header is their union
    assert header == list(dict.fromkeys(k for r in records for k in r))


def test_argument_error_prints_one_line(capsys):
    # argparse's usage block is not printed, and main returns the code
    code, out, err = run(capsys, ["resolve", "--n", "abc"])
    assert (code, out) == (2, "")
    assert err == "error: argument --n: invalid int value: 'abc'\n"


def test_help_flag_exits_0(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["resolve", "--help"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("usage: statres resolve ")


def test_cached_parser_carries_no_state(capsys):
    assert build_parser() is build_parser()
    query = ["resolve", "--method", "exact", "--model", "vsg"]
    first = run(capsys, query)
    assert run(capsys, ["resolve", "--n", "abc", "--model", "hg"])[0] == 2
    assert run(capsys, ["check", "--riemann", "--n-grid", "20"])[0] == 0
    again = run(capsys, query)
    assert first == again and first[0] == 0
    assert again[1] == run_fresh("-m", "statres.cli", *query).stdout


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("statres ")


# the directory this statres package is imported from, for fresh processes
PACKAGE_ROOT = os.path.dirname(os.path.dirname(statres.__file__))


def run_fresh(*args):
    """Run ``python *args`` with this statres package in a fresh process."""
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_warning_prints_as_one_line():
    # a wide kernel truncates at the window edge; the user sees the
    # warning once, as one line naming its category, with no source path
    proc = run_fresh("-m", "statres.cli", "resolve", "--method", "exact",
                     "--model", "hg", "--psf", "gaussian:0.3", "--t", "100")
    assert proc.returncode == 0
    assert parse_csv(proc.stdout)[2][0]["method"] == "exact"
    assert proc.stderr.splitlines() == [
        "warning: MassTruncationWarning: a source keeps less than 99 "
        "percent of its kernel mass inside [0, 1]; bin probabilities are "
        "truncated"]
    assert ".py:" not in proc.stderr


@pytest.mark.parametrize("argv, warned", [
    (["--method", "mc", "--eta", "5e-324", "--d", "0.1", "--reps", "100"],
     True),
    (["--method", "mc", "--eta", "1e-300", "--d", "0.1", "--reps", "100"],
     True),
    (["--psf", "gaussian:0.01", "--d", "0.02", "--method", "mc", "--reps",
      "1000", "--seed", "0"], True),
    (["--psf", "gaussian:0.005", "--d", "0.05", "--method", "mc"], False),
    (["--method", "mc", "--threshold", "h0-calibrated", "--eta", "5e-324",
      "--d", "0.1", "--reps", "100"], True),
    (["--method", "mc", "--threshold", "h0-calibrated", "--d", "0.15"],
     False),
])
def test_mc_power_warns_when_its_level_misses_alpha(argv, warned):
    # levels 1.0, 0.0, 0.0 and, at the calibrated threshold on the atom of
    # T at 0, 0.0 lie outside alpha +- 3 sqrt(alpha (1 - alpha) / reps),
    # so alpha lies outside their 3-sigma Wilson score interval; 0.1025
    # at reps 1e4 lies inside, and so does a calibrated level without
    # ties. The warning is one stderr line naming the threshold
    proc = run_fresh("-m", "statres.cli", "power", *argv)
    assert proc.returncode == 0
    meta, _, rows = parse_csv(proc.stdout)
    reps, level = int(meta["reps"]), float(rows[0]["level"])
    assert (abs(level - 0.1) > 3.0 * math.sqrt(0.09 / reps)) == warned
    assert proc.stderr.splitlines() == ([
        f"warning: LevelWarning: simulated level {level!r} lies more than "
        f"3 standard errors from alpha = 0.1 at reps = {reps}: the "
        f"{meta['threshold']} threshold misses the nominal level"]
        if warned else [])


@pytest.mark.parametrize("argv", [
    ["scan", "--x0", "1.5"],
    ["scan", "--x0", "0"],
    ["scan", "--x0", "1.5", "--n", "0"],
    ["scan", "--kind", "weight", "--x0", "1.5"],
    ["power", "--d", "0.1", "--x0", "1.5"],
    ["resolve", "--x0", "1.5"],
])
def test_x0_outside_the_window_is_named(capsys, argv):
    # the offset scan names x0 too, not its offset grid
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: x0") and "must lie in (0, 1)" in err


def test_root_search_warns_only_for_the_reported_pair():
    # the bracket of this exact solve probes a pair wider than 0.5 whose
    # sources lose kernel mass; the reported pair and the null keep theirs
    proc = run_fresh("-m", "statres.cli", "resolve", "--method", "exact",
                     "--model", "vsg", "--psf", "gaussian:0.10208",
                     "--gamma", "1.0", "--n", "20", "--t", "20", "--beta",
                     "0.1", "--x0", "0.5", "--q-weight", "0.5", "--alpha",
                     "0.1", "--eta", "0.5", "--format", "csv")
    assert proc.returncode == 0
    assert float(parse_csv(proc.stdout)[2][0]["d"]) == 0.36682123218361085
    assert proc.stderr == ""


TRUNCATION_LINE = ("warning: MassTruncationWarning: a source keeps less "
                   "than 99 percent of its kernel mass inside [0, 1]; bin "
                   "probabilities are truncated")


def test_offset_scan_warns_once_for_its_truncated_pairs():
    # the null at 0.2 keeps its mass; the pairs shifted left lose some
    proc = run_fresh("-m", "statres.cli", "scan", "--kind", "lambda",
                     "--psf", "gaussian:0.05", "--x0", "0.2", "--d", "0.1")
    assert proc.returncode == 0
    assert proc.stderr.splitlines() == [TRUNCATION_LINE]


@pytest.mark.parametrize("argv, error", [
    (["--method", "exact", "--model", "vsg", "--t", "1"],
     "error: no admissible separation reaches the requested power"),
    (["--method", "mc", "--model", "poisson", "--t", "2", "--reps", "1000"],
     "error: type-II rate 0.861 stays above the band")],
    ids=["exact", "mc"])
def test_failed_solve_warns_of_a_truncated_null_before_its_error(argv,
                                                                 error):
    # no pair in the window reaches the power; the search warns of the
    # null first, once, then the solve fails with exit 3
    proc = run_fresh("-m", "statres.cli", "resolve", "--psf",
                     "gaussian:0.3", *argv)
    assert proc.returncode == 3
    lines = proc.stderr.splitlines()
    assert len(lines) == 2 and lines[0] == TRUNCATION_LINE
    assert lines[1].startswith(error)


def test_offset_scan_integrates_the_null_once(monkeypatch):
    # the default scan, 11 offsets at d = 0.1: the null once, first, then
    # the two sources of each pair
    centers = []
    original = binning._kernel_bins
    monkeypatch.setattr(binning, "_kernel_bins",
                        lambda psf, sources, edges: centers.extend(sources)
                        or original(psf, sources, edges))
    assert main(["scan", "--kind", "lambda"]) == 0
    assert len(centers) == 23
    assert centers[0] == 0.5


def test_closed_stdout_exits_1_without_a_traceback():
    # the reader is gone before the command writes: exit 1, stderr empty
    env = dict(os.environ, PYTHONPATH=PACKAGE_ROOT)
    proc = subprocess.Popen([sys.executable, "-m", "statres.cli", "tables",
                             "--format", "json"], stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env)
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 1
    assert err == b""


def test_cli_import_loads_no_heavy_dependency():
    # the thread pool is imported by the code that uses it, not by building
    # the parser, no scipy module is imported at all, and the Bessel
    # tables wait for the first airy call
    proc = run_fresh("-c", "import sys, statres.cli; "
                     "statres.cli.build_parser(); "
                     "print([m for m in sys.modules if m == "
                     "'concurrent.futures.thread' or m.split('.')[0] == "
                     "'scipy'], *(table.cache_info().currsize for table in "
                     "(statres.bessel._taylor_table, statres.bessel._g2_table,"
                     " statres.bessel._g2_tail)))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] 0 0 0"


SCIPY_MODULES = ("import sys\n"
                 "print(sorted(m for m in sys.modules "
                 "if m.split('.')[0] == 'scipy'))")


AIRY_RUNS = [["resolve", "--psf", "airy:0.2", "--gamma", "0.2"],
             ["check", "--riemann", "--psf", "airy:0.2", "--gamma", "0.2"]]


def test_gaussian_and_poisson_commands_load_no_scipy():
    # the normal law comes from statres.normal and the airy kernel's
    # Bessel functions from statres.bessel, so no command needs scipy
    runs = [["resolve", "--method", method, "--model", model]
            for method in ("exact", "mc") for model in ("poisson", "vsg",
                                                        "hg")]
    runs += [["simulate", "--sweep", "fwhm", "--reps", "1000"],
             ["check", "--clt"], ["power", "--d", "0.15"]] + AIRY_RUNS
    proc = run_fresh("-c", "import contextlib, io, statres.cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    codes = [statres.cli.main(a) for a in {runs!r}]\n"
                     "print(codes)\n" + SCIPY_MODULES)
    assert proc.returncode == 0, proc.stderr
    codes, loaded = proc.stdout.splitlines()
    assert codes == str([0] * len(runs))
    assert loaded == "[]"


def test_airy_kernel_loads_no_scipy():
    # an airy resolve evaluates its Bessel functions from the table of
    # statres.bessel, which it builds, and imports no scipy module
    proc = run_fresh("-c", "import contextlib, io, statres.cli\n"
                     "from statres import bessel\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     f"    code = statres.cli.main({AIRY_RUNS[0]!r})\n"
                     "print(code, bessel._taylor_table.cache_info()"
                     ".currsize)\n" + SCIPY_MODULES)
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.splitlines()
    assert code == "0 1"
    assert loaded == "[]"


@pytest.mark.parametrize("flag", ["--alpha", "--beta"])
def test_error_rate_of_1e_300_exits_3_with_one_line(capsys, flag):
    # 1 - 1e-300 rounds to 1, whose normal quantile is inf, so the
    # small-d law puts d at inf
    code, out, err = run(capsys, ["resolve", flag, "1e-300"])
    assert code == 3 and out == ""
    assert err == ("error: critical separation inf does not fit the unit "
                   "window\n")


def test_subnormal_bin_ratio_does_not_overflow():
    # p0 = 6.5e-310 against p1 = 0.5 in one bin: log p1 - log p0 = 711.2
    # is finite although p1 / p0 overflows; the query then meets a bin
    # that only the alternative fills, which the poisson support rule
    # rejects with exit 4, in one line
    proc = run_fresh("-m", "statres.cli", "scan", "--model", "poisson",
                     "--kind", "lambda", "--psf", "gaussian:0.002313",
                     "--n", "20", "--t", "5.651e+08", "--x0", "0.663",
                     "--q-weight", "0.327", "--alpha", "0.246",
                     "--eta", "0.626")
    assert "RuntimeWarning" not in proc.stderr
    if proc.returncode:
        assert proc.returncode in (2, 3, 4) and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        assert proc.stderr.startswith("error: ")


def test_kernel_integrals_load_no_scipy_integrate():
    # the curvature and information integrals of an airy kernel and of an
    # off-center gaussian go through statres.quadrature, and the exact and
    # Monte Carlo solves find their roots in statres.resolution
    unused = ("scipy.integrate", "scipy.optimize")
    proc = run_fresh("-c", "import contextlib, io, sys, statres.cli\n"
                     "with contextlib.redirect_stdout(io.StringIO()):\n"
                     "    statres.cli.main(['resolve', '--psf', 'airy:0.2',\n"
                     "                      '--gamma', '0.2'])\n"
                     "    statres.cli.main(['check', '--riemann', '--psf',\n"
                     "                      'gaussian:0.002', '--x0', '0.3'])\n"
                     "    statres.cli.main(['resolve', '--method', 'exact',\n"
                     "                      '--model', 'vsg'])\n"
                     "    statres.cli.main(['resolve', '--method', 'mc',\n"
                     "                      '--reps', '1000'])\n"
                     f"print([m for m in {unused!r} if m in sys.modules])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_off_center_narrow_gaussian_resolves_as_centered(capsys):
    # the information integral of a kernel far narrower than the window
    # does not depend on where in the window its source sits
    ds = []
    for x0 in ("0.3", "0.5"):
        code, out, _ = run(capsys, ["resolve", "--psf", "gaussian:1e-5",
                                    "--x0", x0])
        assert code == 0
        ds.append(float(parse_csv(out)[2][0]["d"]))
    assert abs(ds[0] - ds[1]) <= 1e-9 * ds[1]
