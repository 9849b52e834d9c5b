"""Tide-banded empirical body: construction and CDF evaluation."""

import numpy as np
import numpy.testing as npt
import pytest

from skewsurge.body import build_empirical, eval_body_cdf
from skewsurge.data import monthly_thresholds
from skewsurge.tail import SkewSurgeModel, rate_at

from conftest import columns_series, flat_thresholds


def _nine_per_month(surges_mid=(0.1, 0.2, 0.3)):
    """Twelve months, each with tides (1,1,1,2,2,2,3,3,3).

    The 0.33/0.67 monthly tide quantiles fall strictly between the three
    distinct tide values, so tide 1 -> band 1, tide 2 -> band 2,
    tide 3 -> band 3. The middle band's surges are controllable.
    """
    month, tide, surge = [], [], []
    for j in range(1, 13):
        month += [j] * 9
        tide += [1.0] * 3 + [2.0] * 3 + [3.0] * 3
        surge += [0.05, 0.15, 0.25] + list(surges_mid) + [0.0, 0.1, 0.2]
    return columns_series(month, tide, surge)


class TestBuild:
    def test_three_distinct_tides_split_into_bands(self):
        series = _nine_per_month()
        emp = build_empirical(series, flat_thresholds(0.5))
        assert emp.tide_breaks.shape == (12, 2)
        for j in range(12):
            assert 1.0 < emp.tide_breaks[j, 0] < 2.0
            assert 2.0 < emp.tide_breaks[j, 1] < 3.0
            assert [len(b) for b in emp.samples[j]] == [3, 3, 3]

    def test_samples_sorted_and_below_threshold(self, sim_r0):
        series, _, thresholds = sim_r0
        emp = build_empirical(series, thresholds)
        for j in range(12):
            for b in range(3):
                cell = emp.samples[j][b]
                assert (np.diff(cell) >= 0).all()
                assert cell.max() <= thresholds.values[j]

    def test_band_sizes_sum_to_below_threshold_count(self, sim_r0):
        series, _, thresholds = sim_r0
        emp = build_empirical(series, thresholds)
        for j in range(12):
            sel = series.month == j + 1
            n_below = int(
                (series.skew_surge[sel] <= thresholds.values[j]).sum()
            )
            assert sum(len(b) for b in emp.samples[j]) == n_below

    def test_all_exceeding_month_errors(self):
        series = _nine_per_month()
        high = series.skew_surge.copy()
        high[series.month == 4] = 9.0  # April entirely above threshold
        series.skew_surge = high
        with pytest.raises(ValueError, match="month 4"):
            build_empirical(series, flat_thresholds(0.5))

    def test_all_exceeding_cell_errors(self):
        series = _nine_per_month()
        high = series.skew_surge.copy()
        high[(series.month == 4) & (series.peak_tide == 3.0)] = 9.0
        series.skew_surge = high
        with pytest.raises(ValueError, match="^site T: month 4 tide band 2 "
                                             "has no below-threshold records$"):
            build_empirical(series, flat_thresholds(0.5))

    def test_missing_month_errors(self):
        month = np.repeat(np.arange(1, 12), 9)  # no December
        s = columns_series(month, np.tile([1, 2, 3], 33),
                           np.zeros(99))
        with pytest.raises(ValueError, match="month 12"):
            build_empirical(s, flat_thresholds(0.5))


class TestEval:
    def test_fraction_of_band_samples(self):
        # Middle band holds {0.1, 0.2, 0.3}: two of three samples are <= 0.25.
        emp = build_empirical(_nine_per_month(), flat_thresholds(0.5))
        npt.assert_allclose(eval_body_cdf(emp, 0.25, 5, 2.0), 2 / 3)

    def test_below_band_minimum_is_zero(self):
        emp = build_empirical(_nine_per_month(), flat_thresholds(0.5))
        assert eval_body_cdf(emp, 0.05, 5, 2.0) == 0.0

    def test_at_band_maximum_is_one(self):
        emp = build_empirical(_nine_per_month(), flat_thresholds(0.5))
        assert eval_body_cdf(emp, 0.3, 5, 2.0) == 1.0

    def test_above_threshold_errors(self):
        emp = build_empirical(_nine_per_month(), flat_thresholds(0.5))
        with pytest.raises(ValueError, match="tail"):
            eval_body_cdf(emp, 0.51, 5, 2.0)

    def test_plateau_near_threshold_percentile(self, sim_r0):
        # The body is the plain empirical CDF of the kept surges, 1 at u_j;
        # the conditional CDF scales it by 1 - lambda, so F(u_j) is the
        # tail's 1 - lambda to the bit and near the threshold percentile.
        series, params, _ = sim_r0
        thresholds = monthly_thresholds(series, 0.95)
        emp = build_empirical(series, thresholds)
        u = thresholds.for_month(series.month)
        top = eval_body_cdf(emp, u, series.month, series.peak_tide)
        assert (top == 1.0).all()
        record = (series.day_of_year, series.day_of_month, series.month,
                  series.peak_tide)
        model = SkewSurgeModel(body=emp, params=params, thresholds=thresholds)
        at_u = model.conditional(*record)(u)
        assert at_u.tobytes() == (1.0 - rate_at(params.rate, *record)).tobytes()
        assert 0.90 <= at_u.min() and at_u.max() <= 1.0
        npt.assert_allclose(np.mean(at_u), 0.95, atol=0.01)

    def test_nondecreasing_in_y(self, sim_r0):
        series, _, thresholds = sim_r0
        emp = build_empirical(series, thresholds)
        y = np.linspace(-0.5, thresholds.values[2], 200)
        vals = eval_body_cdf(emp, y, 3, 2.5)
        assert (np.diff(vals) >= 0).all()
        assert vals.min() >= 0.0 and vals.max() <= 1.0

    def test_constant_within_band(self):
        emp = build_empirical(_nine_per_month(), flat_thresholds(0.5))
        lo = emp.tide_breaks[4, 0] + 1e-9
        hi = emp.tide_breaks[4, 1]
        assert eval_body_cdf(emp, 0.25, 5, lo) == eval_body_cdf(
            emp, 0.25, 5, hi
        )

    def test_band_rule_boundaries(self):
        emp = build_empirical(_nine_per_month(), flat_thresholds(0.5))
        q33, q67 = emp.tide_breaks[0]
        # x <= q33 -> band 1, q33 < x <= q67 -> band 2, else band 3
        npt.assert_array_equal(
            emp.band_index(1, [q33, q33 + 1e-12, q67, q67 + 1e-12]),
            [0, 1, 1, 2],
        )
