"""Synthetic-record generator: determinism and distributional checks."""

import io
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from scipy.stats import genpareto, kstest

import skewsurge
from skewsurge.data import GmtSeries, load_series, write_series_csv
from skewsurge.simulate import SimSpec, simulate_series
from skewsurge.tail import RateParams, ScaleParams, TailParams

from conftest import R0_TRUTH


def _spec(**kw):
    base = dict(params=R0_TRUTH, thresholds=0.3, n_cycles=3000)
    base.update(kw)
    return SimSpec(**base)


def test_fixed_seed_reproduces_identical_series():
    a, pa = simulate_series(_spec(), seed=42)
    b, pb = simulate_series(_spec(), seed=42)
    npt.assert_array_equal(a.skew_surge, b.skew_surge)
    npt.assert_array_equal(a.timestamps, b.timestamps)
    assert pa.to_dict() == pb.to_dict()
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_series_csv(buf_a, a)
    write_series_csv(buf_b, b)
    assert buf_a.getvalue() == buf_b.getvalue()


def test_seed_changes_values_not_structure():
    a, _ = simulate_series(_spec(), seed=0)
    b, _ = simulate_series(_spec(), seed=1)
    assert (a.skew_surge != b.skew_surge).any()
    npt.assert_array_equal(a.timestamps, b.timestamps)
    npt.assert_array_equal(a.month, b.month)
    npt.assert_array_equal(a.peak_tide, b.peak_tide)


def test_exceedance_indicator_partitions_at_threshold():
    series, _ = simulate_series(_spec(n_cycles=20000), seed=7)
    u = np.full(len(series), 0.3)
    above = series.skew_surge > u
    # every record is strictly one side or the other, with tail mass
    # strictly above and body mass at or below the threshold
    assert above.sum() > 0
    assert (series.skew_surge[above] > 0.3).all()
    assert (series.skew_surge[~above] <= 0.3).all()
    npt.assert_allclose(series.max_sea_level,
                        series.peak_tide + series.skew_surge)


def test_exceedance_fraction_binomial():
    series, _ = simulate_series(_spec(n_cycles=100000), seed=5)
    frac = float((series.skew_surge > 0.3).mean())
    assert abs(frac - 0.05) < 3.0 * np.sqrt(0.05 * 0.95 / 100000)


def test_excess_distribution_matches_gpd():
    params = TailParams(
        rate=RateParams(family="R0", lam=0.2),
        scale=ScaleParams(family="S0", alpha=0.1, beta=0.0, phi=0.0,
                          gamma=0.0),
        xi=0.1,
    )
    series, _ = simulate_series(_spec(params=params, n_cycles=20000), seed=9)
    excess = series.skew_surge[series.skew_surge > 0.3] - 0.3
    assert excess.size > 3000
    stat = kstest(excess, genpareto(c=0.1, scale=0.1).cdf)
    assert stat.pvalue > 0.05


def test_tide_follows_spring_neap_cosine():
    spec = _spec(tide_mean=3.0, tide_amp=0.8)
    series, _ = simulate_series(spec, seed=1)
    t_days = (spec.cycle_minutes / 1440.0) * np.arange(spec.n_cycles)
    expect = 3.0 + 0.8 * np.cos(2 * np.pi * t_days / spec.tide_period_days)
    npt.assert_allclose(series.peak_tide, expect)


def test_standardizers_recomputed_from_record():
    series, params = simulate_series(_spec(), seed=2)
    npt.assert_allclose(params.rate.tide_mean, series.peak_tide.mean())
    npt.assert_allclose(params.rate.tide_sd, series.peak_tide.std())
    for j in range(1, 13):
        sel = series.month == j
        if sel.any():
            npt.assert_allclose(params.rate.month_mean_day[j - 1],
                                series.day_of_month[sel].mean())


def test_emitted_csv_round_trips_through_loader(tmp_path):
    series, _ = simulate_series(_spec(n_cycles=500), seed=3)
    path = tmp_path / "sim.csv"
    write_series_csv(path, series)
    back = load_series(path)[series.site_id]
    assert len(back) == 500
    npt.assert_allclose(back.skew_surge, series.skew_surge, atol=5e-7)
    npt.assert_array_equal(back.day_of_year, series.day_of_year)


def test_gmt_family_requires_gmt_series():
    params = TailParams(
        rate=RateParams(family="R3", lam=0.05, delta=0.3),
        scale=R0_TRUTH.scale, xi=0.05,
    )
    with pytest.raises(ValueError, match="GMT"):
        simulate_series(_spec(params=params), seed=0)
    years = np.arange(1950, 1960)
    gmt = GmtSeries(years=years, anomalies=np.linspace(-1, 1, 10))
    series, _ = simulate_series(_spec(params=params, gmt=gmt), seed=0)
    assert series.gmt is not None


def test_nonpositive_scale_rejected():
    params = TailParams(
        rate=RateParams(family="R0", lam=0.05),
        scale=ScaleParams(family="S0", alpha=0.05, beta=0.0, phi=0.0,
                          gamma=-0.1),
        xi=0.0,
    )
    with pytest.raises(ValueError, match="scale model"):
        simulate_series(_spec(params=params), seed=0)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        _spec(n_cycles=0)
    with pytest.raises(ValueError):
        _spec(body_sd=0.0)
    with pytest.raises(ValueError):
        _spec(cycle_minutes=-1.0)
    with pytest.raises(ValueError):
        _spec(tide_period_days=0.0)


def test_scalar_threshold_coerced_to_monthly():
    spec = _spec(thresholds=0.25)
    npt.assert_array_equal(spec.thresholds.values, np.full(12, 0.25))


def test_package_imports_without_scipy_until_simulating():
    # scipy takes about a second to import; only simulate_series needs it.
    code = textwrap.dedent("""
        import sys
        import skewsurge, skewsurge.cli
        loaded = [m for m in sys.modules if m.split(".")[0] == "scipy"]
        assert not loaded, loaded[:3]
        from skewsurge.simulate import SimSpec, simulate_series
        from skewsurge.tail import RateParams, ScaleParams, TailParams
        params = TailParams(rate=RateParams(family="R0", lam=0.05),
                            scale=ScaleParams(family="S0", alpha=0.1), xi=0.0)
        series, _ = simulate_series(SimSpec(params, 0.3, 500), seed=1)
        assert len(series) == 500 and "scipy.special" in sys.modules
    """)
    src = str(Path(skewsurge.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-c", code],
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
