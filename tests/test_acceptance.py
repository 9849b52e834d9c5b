"""Release gate: nine end-to-end checks, one pass/fail line each.

Each test prints ``ACCEPTANCE <n> PASS/FAIL: <detail>`` directly to the
real stdout (bypassing capture) so the gate status is visible in any
pytest run. Tolerances and required counts are fixed here and must not
be loosened to make a run pass.
"""

import math
import time

import numpy as np
import pytest
import yaml

from skewsurge.cli import main as cli_main
from skewsurge.body import build_empirical
from skewsurge.data import GmtSeries, standardize_year
from skewsurge.dependence import chi_chibar, kendall_tau
from skewsurge.exi import runs_estimate
from skewsurge.fitting import FitConfig, PooledSpec, fit_pooled, fit_tail
from skewsurge.returns import (
    TideSampleCalendar,
    annual_max_cdf,
    return_curve,
    return_level,
)
from skewsurge.simulate import SimSpec, simulate_series
from skewsurge.tail import (
    RateParams,
    ScaleParams,
    SkewSurgeModel,
    TailParams,
    delta_lambda,
    mean_excess,
    scale_at,
)

from conftest import FROZEN_HARMONICS


@pytest.fixture()
def report(capsys):
    """One criterion line on the real stdout, then the hard assertion."""

    def _report(number, ok, detail):
        line = f"ACCEPTANCE {number} {'PASS' if ok else 'FAIL'}: {detail}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line

    return _report


S0_SCALE = dict(alpha=0.12, beta=0.04, phi=91.25, gamma=0.01)


def test_01_parameter_recovery_coverage_and_speed(report):
    truth = {"lam": 0.05, "delta_rate": 0.2, "alpha_sigma": 0.12,
             "beta_sigma": 0.04, "gamma_sigma": 0.01, "xi": 0.05}
    params = TailParams(
        rate=RateParams(family="R1", lam=0.05, delta=0.2),
        scale=ScaleParams(family="S0", **S0_SCALE),
        xi=0.05,
    )
    spec = SimSpec(params=params, thresholds=0.3, n_cycles=50000)
    cfg = FitConfig(rate_family="R1", scale_family="S0",
                    frozen=dict(FROZEN_HARMONICS))
    hits = {name: 0 for name in truth}
    worst_fit_seconds = 0.0
    all_converged = True
    for seed in range(20):
        series, _ = simulate_series(spec, seed=seed)
        t0 = time.perf_counter()
        fit = fit_tail(series, cfg, thresholds=spec.thresholds)
        worst_fit_seconds = max(worst_fit_seconds,
                                time.perf_counter() - t0)
        all_converged &= fit.converged and fit.hessian_ok
        for name, true in truth.items():
            lo, hi = fit.conf_intervals[name]
            hits[name] += int(lo <= true <= hi)
    ok = (all(h >= 18 for h in hits.values()) and all_converged
          and worst_fit_seconds < 60.0)
    counts = " ".join(f"{k}={v}" for k, v in hits.items())
    report(1, ok, f"95% CI hits over 20 seeds: {counts} (need >=18); "
                   f"all converged={all_converged}; "
                   f"slowest fit {worst_fit_seconds:.1f}s (<60)")


def test_02_information_criteria_pick_the_generating_family(report):
    n = 15000
    years = np.arange(1950, 1973)
    gmt = GmtSeries(years=years,
                    anomalies=np.linspace(-1.0, 1.0, len(years)))
    scale = ScaleParams(family="S0", **S0_SCALE)

    def config(rf):
        return FitConfig(rate_family=rf, scale_family="S0",
                         frozen=dict(FROZEN_HARMONICS))

    aic_wins = 0
    for i in range(20):
        params = TailParams(
            rate=RateParams(family="R3", lam=0.05, delta=0.3),
            scale=scale, xi=0.05,
        )
        spec = SimSpec(params=params, thresholds=0.3, n_cycles=n, gmt=gmt)
        series, _ = simulate_series(spec, seed=100 + i)
        with_trend = fit_tail(series, config("R3"),
                              thresholds=spec.thresholds)
        without = fit_tail(series, config("R0"),
                           thresholds=spec.thresholds)
        aic_wins += int(with_trend.aic < without.aic)

    bic_wins = 0
    for i in range(20):
        params = TailParams(rate=RateParams(family="R0", lam=0.05),
                            scale=scale, xi=0.05)
        spec = SimSpec(params=params, thresholds=0.3, n_cycles=n)
        series, _ = simulate_series(spec, seed=300 + i)
        plain = fit_tail(series, config("R0"), thresholds=spec.thresholds)
        bigger = fit_tail(series, config("R1"), thresholds=spec.thresholds)
        bic_wins += int(plain.bic < bigger.bic)

    ok = aic_wins >= 18 and bic_wins >= 16
    report(2, ok, f"AIC prefers the trend family on trend data "
                   f"{aic_wins}/20 (need >=18); BIC prefers the plain "
                   f"family on plain data {bic_wins}/20 (need >=16)")


def test_03_scale_trend_implies_millimetre_mean_excess_change(report):
    delta = 0.001  # metres of GPD scale per unit of standardized year
    sp = ScaleParams(family="S1", alpha=0.1, beta=0.0, phi=0.0, gamma=0.0,
                     delta=delta)
    k_early = standardize_year(1920)
    k_late = 1.0  # upper end of the year standardization
    xi = 0.0
    change_m = (
        mean_excess(scale_at(sp, 1.0, 0.0, year_std=k_late), xi)
        - mean_excess(scale_at(sp, 1.0, 0.0, year_std=k_early), xi)
    )
    change_mm = 1000.0 * change_m
    closed_form_mm = 1000.0 * delta * (k_late - k_early) / (1.0 - xi)
    ok = (math.isclose(change_mm, closed_form_mm, rel_tol=1e-12)
          and abs(change_mm - 1.906) < 5e-4
          and abs(change_mm - 2.0) <= 0.15)
    report(3, ok, f"mean-excess change {change_mm:.4f} mm "
                   f"(closed form {closed_form_mm:.4f}; within 0.15 of 2)")


def test_04_positive_rate_trend_raises_the_rate_everywhere(report):
    rp = RateParams(family="R1", lam=0.05, beta_day=0.04, phi_day=50.0,
                    alpha_tide=0.3, beta_tide=0.2, phi_tide=120.0,
                    delta=0.25)
    d = np.arange(1, 366, dtype=float)[:, None]
    month = np.minimum((d - 1) // 31 + 1, 12).astype(int)
    x = np.linspace(-3.0, 3.0, 13)[None, :]
    diff = delta_lambda(rp, d, 15.0, month, x, "year_std", -0.91, 1.0)
    all_positive = bool(np.all(diff > 0.0))

    worked = RateParams(family="R1", lam=0.035, delta=0.215)
    got = float(delta_lambda(worked, 1.0, 15.5, 1, 0.0, "year_std",
                             -0.91, 1.0))
    base = math.log(0.035 / 0.965)
    expect = (1.0 / (1.0 + math.exp(-(base + 0.215 * 1.0)))
              - 1.0 / (1.0 + math.exp(-(base + 0.215 * -0.91))))
    ok = (all_positive and math.isclose(got, expect, rel_tol=1e-14)
          and round(got, 4) == 0.0141)
    report(4, ok, f"rate change positive on a 365x13 (day, tide) grid: "
                   f"{all_positive}; worked value {got:.6f} rounds to "
                   f"{round(got, 4)} (want 0.0141)")


def test_05_runs_declustering_hand_counts(report):
    seq = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0])
    grouped = runs_estimate(seq, level=0.5, run_length=2)
    isolated = runs_estimate(np.array([0.0, 1.0, 0.0, 0.0, 1.0, 0.0]),
                             level=0.5, run_length=2)
    ok = grouped == 0.75 and isolated == 1.0
    report(5, ok, f"clusters/exceedances = {grouped} (want 3/4 exactly); "
                   f"isolated peaks give {isolated} (want 1 exactly)")


class _StationaryCdf:
    def __init__(self, value):
        self.value = value

    def conditional(self, d, d_j, j, x, year_std=None, gmt=None):
        return lambda y: np.full(np.shape(y), self.value, dtype=float)


def test_06_annual_maximum_identity_and_round_trip(sim_r0, report):
    n = 705
    reps = n // 12
    month = np.resize(np.repeat(np.arange(1, 13), reps), n)
    month[12 * reps:] = 12
    calendar = TideSampleCalendar(
        years=np.array([2000]),
        month=month,
        day_of_month=np.resize(np.arange(1, 29), n),
        day_of_year=np.linspace(1, 365, n).astype(int),
        tide=np.full(n, 3.0),
        year_index=np.zeros(n, dtype=int),
    )
    got = annual_max_cdf(5.0, _StationaryCdf(0.999), calendar)
    identity_err = abs(got - 0.999 ** 705)

    series, params, thresholds = sim_r0
    model = SkewSurgeModel(body=build_empirical(series, thresholds),
                           params=params, thresholds=thresholds)
    real_cal = TideSampleCalendar.from_series(series)
    p_grid = np.array([1e-1, 1e-2, 1e-3, 1e-4])
    round_trip_err = 0.0
    for p in p_grid:
        z = return_level(p, model, real_cal)
        round_trip_err = max(
            round_trip_err,
            abs(annual_max_cdf(z, model, real_cal) - (1.0 - p)),
        )
    curve = return_curve(p_grid, model, real_cal)
    monotone = bool(np.all(np.diff(curve.z[np.argsort(p_grid)]) <= 0.0))

    ok = identity_err <= 1e-9 and round_trip_err < 1e-6 and monotone
    report(6, ok, f"|cdf - 0.999^705| = {identity_err:.2e} (<=1e-9); "
                   f"worst round-trip error {round_trip_err:.2e} (<1e-6); "
                   f"curve monotone: {monotone}")


def test_07_dependence_measures_calibrate(report):
    a = np.linspace(0.0, 5.0, 4000)
    tau_c = kendall_tau((a, a * 3.0 + 2.0))
    chi_c, chibar_c = chi_chibar((a, a * 3.0 + 2.0), p=0.05)
    comonotone_exact = tau_c == 1.0 and chi_c == 1.0 and chibar_c == 1.0

    rng = np.random.default_rng(3)
    n, p = 10000, 0.05
    u, v = rng.normal(size=n), rng.normal(size=n)
    _, chibar_ind = chi_chibar((u, v), p=p)
    qa, qb = np.quantile(u, 1 - p), np.quantile(v, 1 - p)
    joint_frac = float(np.mean((u > qa) & (v > qb)))
    sigma = math.sqrt(p * p * (1 - p * p) / n)
    z_score = abs(joint_frac - p * p) / sigma
    independent_ok = abs(chibar_ind) < 0.1 and z_score < 3.0

    def enumerate_tau(x, y):
        m = len(x)
        conc = disc = only_x = only_y = 0
        for i in range(m):
            for j in range(i + 1, m):
                sx = int(x[i] > x[j]) - int(x[i] < x[j])
                sy = int(y[i] > y[j]) - int(y[i] < y[j])
                if sx == 0 and sy == 0:
                    continue
                if sx == 0:
                    only_x += 1
                elif sy == 0:
                    only_y += 1
                elif sx == sy:
                    conc += 1
                else:
                    disc += 1
        den = (conc + disc + only_y) * (conc + disc + only_x)
        root = math.isqrt(den)
        if root * root == den:
            return (conc - disc) / root
        return (conc - disc) / math.sqrt(den)

    rng = np.random.default_rng(77)
    exact_matches = 0
    checked = 0
    while checked < 100:
        m = int(rng.integers(3, 31))
        x = rng.integers(0, 8, size=m).astype(float)
        y = rng.integers(0, 8, size=m).astype(float)
        if np.all(x == x[0]) or np.all(y == y[0]):
            continue
        checked += 1
        exact_matches += int(kendall_tau((x, y)) == enumerate_tau(x, y))

    ok = comonotone_exact and independent_ok and exact_matches == 100
    report(7, ok, f"comonotone tau/chi/chibar all exactly 1: "
                   f"{comonotone_exact}; independent pairs chibar "
                   f"{chibar_ind:+.3f} (|.|<0.1), joint fraction z "
                   f"{z_score:.2f} (<3); enumeration oracle matched "
                   f"{exact_matches}/100 exactly")


def test_08_pooling_shares_information_across_sites(report):
    params = TailParams(
        rate=RateParams(family="R1", lam=0.05, delta=0.2),
        scale=ScaleParams(family="S0", **S0_SCALE),
        xi=0.05,
    )
    cfg = FitConfig(rate_family="R1", scale_family="S0",
                    frozen=dict(FROZEN_HARMONICS))
    sites = []
    for sid, seed in (("A", 100), ("B", 200)):
        spec = SimSpec(params=params, thresholds=0.3, n_cycles=15000,
                       site_id=sid)
        series, _ = simulate_series(spec, seed=seed)
        sites.append((series, spec.thresholds))

    singles = [fit_tail(s, cfg, thresholds=t) for s, t in sites]
    pooled = fit_pooled(PooledSpec(datasets=sites, shared=["delta_rate"]),
                        cfg)
    mean_single_se = float(np.mean([f.std_errors["delta_rate"]
                                    for f in singles]))
    ratio = mean_single_se / pooled.shared_std_errors["delta_rate"]
    loglik_gap = abs(pooled.loglik
                     - sum(r.loglik for r in pooled.site_results))
    ok = (1.2 <= ratio <= 1.6 and loglik_gap <= 1e-8
          and pooled.converged and pooled.hessian_ok)
    report(8, ok, f"shared-trend se reduction factor {ratio:.3f} "
                   f"(need [1.2, 1.6], target sqrt(2)={math.sqrt(2):.3f}); "
                   f"|pooled - sum of per-site loglik| = {loglik_gap:.1e} "
                   f"(<=1e-8)")


def test_09_pipeline_artifacts_are_byte_identical(tmp_path, report):
    sim_out = tmp_path / "sim"
    run_out = tmp_path / "run"
    sim_cfg = tmp_path / "sim.yaml"
    run_cfg = tmp_path / "run.yaml"
    with open(sim_cfg, "w") as fh:
        yaml.safe_dump({
            "simulate": {
                "site_id": "SIM", "n_cycles": 6000, "threshold": 0.3,
                "params": {
                    "rate_family": "R0", "scale_family": "S0",
                    "lam": 0.05, "alpha_sigma": 0.12, "beta_sigma": 0.04,
                    "phi_sigma": 91.25, "gamma_sigma": 0.01, "xi": 0.05,
                },
            },
            "seed": 0,
            "out_dir": str(sim_out),
        }, fh)
    with open(run_cfg, "w") as fh:
        yaml.safe_dump({
            "inputs": {"gauge_csv": str(sim_out / "sim_SIM.csv")},
            "rate_family": "R0",
            "scale_family": "S0",
            "fit": {"multi_start": 1,
                    "frozen": {k: float(v)
                               for k, v in FROZEN_HARMONICS.items()}},
            "return_levels": {"p_grid": [0.1, 0.01]},
            "seed": 0,
            "out_dir": str(run_out),
        }, fh)

    def run_pipeline():
        assert cli_main(["simulate", "--config", str(sim_cfg)]) == 0
        assert cli_main(["fit", "--config", str(run_cfg)]) == 0
        assert cli_main(["rl", "--config", str(run_cfg)]) == 0
        return {
            p.relative_to(tmp_path): p.read_bytes()
            for p in sorted(tmp_path.rglob("*"))
            if p.is_file() and p.suffix in (".csv", ".json")
        }

    first = run_pipeline()
    second = run_pipeline()
    same_names = sorted(first) == sorted(second)
    diffs = [str(name) for name in first
             if second.get(name) != first[name]]
    ok = same_names and not diffs and len(first) >= 4
    report(9, ok, f"{len(first)} artifacts from simulate/fit/rl; "
                   f"re-run byte-identical: {not diffs}"
                   + (f"; differing: {diffs}" if diffs else ""))
