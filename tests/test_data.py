"""Ingest, detrending, calendar derivation and monthly thresholds."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from skewsurge.data import (
    GmtSeries,
    attach_covariates,
    calendar_columns,
    day_of_year_365,
    detrend_msl,
    load_gmt,
    load_series,
    month_of_day,
    monthly_thresholds,
    season_of_day,
    standardize_year,
    standardizers,
    write_series_csv,
)

from conftest import columns_series


def _write(tmp_path, text, name="gauges.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSeries:
    def test_skew_surge_computed_from_levels(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "NEW,1917-01-03T04:12Z,5.0,5.2\n",
        )
        series = load_series(path)["NEW"]
        assert len(series) == 1
        npt.assert_allclose(series.skew_surge[0], 0.2)
        assert series.year[0] == 1917
        assert series.month[0] == 1
        assert series.day_of_year[0] == 3

    def test_explicit_skew_surge_column_wins(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m,skew_surge_m\n"
            "A,2000-01-01T00:00Z,3.0,3.5,0.41\n",
        )
        npt.assert_allclose(load_series(path)["A"].skew_surge[0], 0.41)

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "A,2000-01-02T00:00Z,3.0,3.1\n"
            "A,2000-01-01T00:00Z,3.0,3.2\n",
        )
        series = load_series(path)["A"]
        assert (np.diff(series.timestamps.astype("int64")) > 0).all()
        npt.assert_allclose(series.skew_surge, [0.2, 0.1])

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_series(_write(tmp_path, ""))

    def test_duplicate_timestamp_errors(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "A,2000-01-01T00:00Z,3.0,3.1\n"
            "A,2000-01-01T00:00Z,3.0,3.2\n",
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_series(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "A,2000-01-01T00:00Z,3.0,3.1\n"
            "A,2000-01-02T00:00Z,not_a_number,3.2\n",
        )
        with pytest.raises(ValueError, match="line 3"):
            load_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path / "nope.csv")

    def test_round_trip_through_csv(self, tmp_path, sim_r0):
        series, _, _ = sim_r0
        path = tmp_path / "rt.csv"
        write_series_csv(path, series, comment="round trip")
        back = load_series(path)[series.site_id]
        assert len(back) == len(series)
        npt.assert_allclose(back.peak_tide, series.peak_tide, atol=5e-7)
        npt.assert_allclose(back.skew_surge, series.skew_surge, atol=5e-7)
        npt.assert_array_equal(back.month, series.month)


class TestDetrend:
    def test_newlyn_style_adjustment(self):
        # 1.73 mm/yr over the century 1917 -> 2017 raises the record 0.173 m.
        s = columns_series([1], [2.0], [3.0])
        s.year[:] = 1917
        out = detrend_msl(s, 1.73, 2017)
        npt.assert_allclose(out.max_sea_level[0], 5.0 + 0.173)
        npt.assert_allclose(out.skew_surge[0], 3.0 + 0.173)
        npt.assert_allclose(out.peak_tide[0], 2.0)
        assert out.msl_trend_rate == 1.73
        assert out.reference_year == 2017

    def test_zero_rate_is_identity(self):
        s = columns_series([1, 2], [2.0, 2.1], [0.1, 0.2])
        out = detrend_msl(s, 0.0, 2017)
        npt.assert_array_equal(out.max_sea_level, s.max_sea_level)

    def test_reference_year_record_unchanged(self):
        s = columns_series([1], [2.0], [0.1])
        s.year[:] = 2017
        out = detrend_msl(s, 5.0, 2017)
        npt.assert_allclose(out.skew_surge, s.skew_surge)

    @given(
        r1=st.floats(-5, 5, allow_nan=False),
        r2=st.floats(-5, 5, allow_nan=False),
    )
    def test_two_detrends_compose_additively(self, r1, r2):
        s = columns_series([1, 6, 12], [2.0, 2.5, 3.0], [0.1, -0.2, 0.4])
        s.year[:] = [1950, 1980, 2010]
        twice = detrend_msl(detrend_msl(s, r1, 2017), r2, 2017)
        once = detrend_msl(s, r1 + r2, 2017)
        npt.assert_allclose(twice.max_sea_level, once.max_sea_level,
                            atol=1e-12)
        npt.assert_allclose(twice.skew_surge, once.skew_surge, atol=1e-12)


class TestStandardizeYear:
    def test_midpoint(self):
        assert standardize_year(1968) == 0.0

    def test_1920(self):
        npt.assert_allclose(standardize_year(1920), -48 / 53)
        npt.assert_allclose(standardize_year(1920), -0.9057, atol=5e-5)

    def test_upper_edge(self):
        assert standardize_year(2021) == 1.0

    def test_order_preserved(self):
        years = np.array([1890, 1920, 1968, 2000, 2050])
        out = standardize_year(years)
        assert (np.diff(out) > 0).all()

    def test_bad_half_range(self):
        with pytest.raises(ValueError):
            standardize_year(2000, half_range=0)


class TestCalendar:
    def test_feb29_maps_to_day_59(self):
        assert day_of_year_365(2, 29) == 59
        assert day_of_year_365(2, 28) == 59
        assert day_of_year_365(3, 1) == 60
        assert day_of_year_365(12, 31) == 365

    def test_calendar_columns_match_datetime(self):
        stamps = np.array(
            ["1999-12-31T23:45:00", "2000-02-29T06:00:00",
             "2020-07-04T12:30:00"],
            dtype="datetime64[s]",
        )
        year, month, day, doy = calendar_columns(stamps)
        npt.assert_array_equal(year, [1999, 2000, 2020])
        npt.assert_array_equal(month, [12, 2, 7])
        npt.assert_array_equal(day, [31, 29, 4])
        npt.assert_array_equal(doy, [365, 59, 185])

    def test_december_is_winter(self):
        assert season_of_day(day_of_year_365(12, 15)) == 0
        assert season_of_day(day_of_year_365(9, 15)) == 3

    def test_month_of_day_inverts_day_of_year(self):
        # Every day of every month, the last ones included (Feb 28 is
        # winter, not spring).
        days_in_month = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        month = np.repeat(np.arange(1, 13), days_in_month)
        day = np.concatenate([np.arange(1, n + 1) for n in days_in_month])
        doy = day_of_year_365(month, day)
        npt.assert_array_equal(doy, np.arange(1, 366))
        npt.assert_array_equal(month_of_day(doy), month)
        assert season_of_day(day_of_year_365(2, 28)) == 0


class TestMonthlyThresholds:
    def test_interpolated_quantile(self):
        months = np.repeat(np.arange(1, 13), 100)
        surges = np.tile(np.arange(1.0, 101.0), 12)
        s = columns_series(months, np.full(1200, 3.0), surges)
        thr = monthly_thresholds(s, 0.95)
        npt.assert_allclose(thr.values, 95.05)

    def test_constant_month_gives_constant(self):
        months = np.repeat(np.arange(1, 13), 30)
        s = columns_series(months, np.full(360, 3.0), np.full(360, 0.7))
        npt.assert_allclose(monthly_thresholds(s).values, 0.7)

    def test_months_independent(self):
        months = np.repeat(np.arange(1, 13), 40)
        surges = np.where(months == 2, 5.0, 1.0)
        s = columns_series(months, np.full(480, 3.0), surges)
        thr = monthly_thresholds(s)
        npt.assert_allclose(thr.values[1], 5.0)
        npt.assert_allclose(thr.values[0], 1.0)

    def test_sparse_month_errors(self):
        months = np.repeat(np.arange(1, 13), 40)
        months[months == 7] = 6  # wipe out July
        s = columns_series(months, np.full(480, 3.0), np.zeros(480))
        with pytest.raises(ValueError, match="month 7"):
            monthly_thresholds(s)

    def test_monotone_in_percentile(self, sim_r0):
        series, _, _ = sim_r0
        lo = monthly_thresholds(series, 0.90).values
        hi = monthly_thresholds(series, 0.97).values
        assert (lo <= hi).all()

    def test_exceedance_count_within_one(self, sim_r0):
        series, _, _ = sim_r0
        thr = monthly_thresholds(series, 0.95)
        for j in range(1, 13):
            ss = series.skew_surge[series.month == j]
            n_exc = int((ss > thr.values[j - 1]).sum())
            assert abs(n_exc - 0.05 * ss.size) <= 1.0

    def test_bad_percentile(self, sim_r0):
        with pytest.raises(ValueError):
            monthly_thresholds(sim_r0[0], 1.0)


class TestCovariates:
    def test_gmt_lookup(self):
        s = columns_series([1, 2], [2.0, 2.5], [0.1, 0.2])
        s.year[:] = [1990, 1991]
        gmt = GmtSeries(years=[1990, 1991], anomalies=[0.2, 0.3])
        out = attach_covariates(s, gmt=gmt)
        npt.assert_allclose(out.gmt, [0.2, 0.3])
        npt.assert_allclose(out.year_std, standardize_year(s.year))

    def test_missing_gmt_year_named(self):
        s = columns_series([1, 2], [2.0, 2.5], [0.1, 0.2])
        s.year[:] = [1990, 1991]
        gmt = GmtSeries(years=[1990], anomalies=[0.2])
        with pytest.raises(KeyError, match="1991"):
            attach_covariates(s, gmt=gmt)

    def test_standardizers_describe_series(self):
        s = columns_series([1, 1, 2], [2.0, 4.0, 3.0], [0.1, 0.2, 0.3])
        out = standardizers(s.peak_tide, s.month, s.day_of_month)
        npt.assert_allclose(out.tide_mean, 3.0)
        npt.assert_allclose(out.tide_sd, np.std([2.0, 4.0, 3.0]))
        npt.assert_allclose(out.month_mean_day[0],
                            s.day_of_month[:2].mean())
        assert math.isnan(out.month_mean_day[11])

    def test_constant_tide_errors(self):
        s = columns_series([1, 2], [3.0, 3.0], [0.1, 0.2])
        with pytest.raises(ValueError, match="zero variance"):
            attach_covariates(s)


def test_load_gmt(tmp_path):
    path = tmp_path / "gmt.csv"
    path.write_text("year,anomaly_c\n1990,0.25\n1991,0.31\n")
    gmt = load_gmt(path)
    npt.assert_allclose(gmt.anomaly_for(1991), 0.31)
    with pytest.raises(KeyError):
        gmt.anomaly_for(1800)


def test_load_gmt_bad_header(tmp_path):
    path = tmp_path / "gmt.csv"
    path.write_text("yr,anom\n1990,0.2\n")
    with pytest.raises(ValueError, match="header"):
        load_gmt(path)
