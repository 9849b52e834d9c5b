"""Rank and tail dependence between sites on daily-maximum surges."""

import math
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from skewsurge import dependence
from skewsurge.body import build_empirical
from skewsurge.data import SiteSeries, calendar_columns
from skewsurge.dependence import (
    _count_inversions,
    chi_chibar,
    daily_max_pairs,
    kendall_tau,
    pairwise_reports,
    pit_transform,
)
from skewsurge.tail import SkewSurgeModel


def _daily_series(values, site_id="A", start="2001-03-01", per_day=1):
    """One site record per (day, slot), surge taken from ``values``."""
    values = np.asarray(values, dtype=float)
    n = len(values)
    day = np.repeat(np.arange((n + per_day - 1) // per_day), per_day)[:n]
    slot = np.arange(n) % per_day
    ts = (np.datetime64(start, "s") + day * np.timedelta64(1, "D")
          + (6 + 8 * slot) * np.timedelta64(1, "h"))
    year, month, dom, doy = calendar_columns(ts)
    return SiteSeries(
        site_id=site_id, timestamps=ts,
        peak_tide=np.full(n, 3.0), max_sea_level=3.0 + values,
        skew_surge=values, year=year, month=month,
        day_of_month=dom, day_of_year=doy,
    )


def _tau_b(a, b):
    """Quadratic-time tie-adjusted Kendall correlation from pair counts."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    n = len(a)
    conc = disc = only_a = only_b = 0
    for i in range(n):
        for j in range(i + 1, n):
            sa = int(a[i] > a[j]) - int(a[i] < a[j])
            sb = int(b[i] > b[j]) - int(b[i] < b[j])
            if sa == 0 and sb == 0:
                continue
            if sa == 0:
                only_a += 1
            elif sb == 0:
                only_b += 1
            elif sa == sb:
                conc += 1
            else:
                disc += 1
    denom_sq = (conc + disc + only_b) * (conc + disc + only_a)
    root = math.isqrt(denom_sq)
    if root * root == denom_sq:
        return (conc - disc) / root
    return (conc - disc) / math.sqrt(denom_sq)


class TestKendallTau:
    def test_comonotone_is_one(self):
        a = np.arange(50.0)
        assert kendall_tau((a, 2.0 * a + 1.0)) == 1.0

    def test_countermonotone_is_minus_one(self):
        a = np.arange(50.0)
        assert kendall_tau((a, -a)) == -1.0

    def test_four_point_hand_count(self):
        # concordant 4, discordant 2 among the 6 pairs: (4-2)/6
        a = [1.0, 2.0, 3.0, 4.0]
        b = [3.0, 1.0, 2.0, 4.0]
        npt.assert_allclose(kendall_tau((a, b)), 1.0 / 3.0, rtol=1e-15)

    def test_matches_quadratic_enumeration_with_ties(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(5, 40))
            a = rng.integers(0, 6, size=n).astype(float)
            b = rng.integers(0, 6, size=n).astype(float)
            if np.all(a == a[0]) or np.all(b == b[0]):
                continue
            assert kendall_tau((a, b)) == _tau_b(a, b)

    def test_agrees_with_scipy_to_rounding(self):
        from scipy.stats import kendalltau as scipy_tau

        rng = np.random.default_rng(12)
        for n in (10, 100, 1000):
            for _ in range(5):
                a = rng.integers(0, 12, size=n).astype(float)
                b = a + rng.normal(size=n)
                npt.assert_allclose(kendall_tau((a, b)),
                                    scipy_tau(a, b).statistic,
                                    rtol=0, atol=1e-14)

    def test_exactly_one_at_non_square_pair_counts(self):
        # n(n-1)/2 = 10 is not a perfect square, and neither is the
        # 4000-point count; the integer-root path keeps tau pinned at 1
        for n in (5, 4000):
            a = np.arange(float(n))
            assert kendall_tau((a, a + 0.5)) == 1.0

    def test_constant_margin_rejected(self):
        with pytest.raises(ValueError, match="constant"):
            kendall_tau((np.ones(5), np.arange(5.0)))

    def test_too_few_pairs_rejected(self):
        with pytest.raises(ValueError, match="2"):
            kendall_tau(([1.0], [2.0]))


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 6), max_size=300)
       | st.lists(st.floats(-1e3, 1e3), max_size=300))
def test_inversion_count_matches_brute_force(values):
    v = np.asarray(values, dtype=float)
    brute = int(np.triu(v[:, None] > v[None, :], k=1).sum())
    assert _count_inversions(v) == brute


class TestChiChibar:
    def test_comonotone_both_one(self):
        a = np.arange(100.0)
        chi, chibar = chi_chibar((a, a), p=0.05)
        assert chi == 1.0 and chibar == 1.0

    def test_hand_counts(self):
        # 20 points, p=0.2: the top-4 A values exceed; two of them also
        # exceed on the B margin.
        a = np.arange(1.0, 21.0)
        b = np.where(np.isin(a, [19, 20]), a, -a)
        chi, chibar = chi_chibar((a, b), p=0.2)
        assert chi == 0.5
        npt.assert_allclose(
            chibar, 2.0 * math.log(4 / 20) / math.log(2 / 20) - 1.0,
            rtol=1e-12,
        )

    def test_no_joint_exceedances(self):
        a = np.arange(1.0, 21.0)
        chi, chibar = chi_chibar((a, -a), p=0.2)
        assert chi == 0.0 and chibar is None

    def test_independent_sample_looks_independent(self):
        rng = np.random.default_rng(3)
        n = 10000
        chi, chibar = chi_chibar((rng.normal(size=n), rng.normal(size=n)),
                                 p=0.05)
        assert chibar is not None and abs(chibar) < 0.15
        assert chi < 0.15

    def test_input_validation(self):
        a = np.arange(10.0)
        with pytest.raises(ValueError, match="empty"):
            chi_chibar(([], []))
        with pytest.raises(ValueError, match="p"):
            chi_chibar((a, a), p=1.5)
        with pytest.raises(ValueError, match="exceedances"):
            chi_chibar((np.zeros(10), a), p=0.1)


class TestDailyMaxPairs:
    def test_takes_the_maximum_within_each_day(self):
        vals = np.array([0.1, 0.7, 0.3, 0.2, 0.5, 0.4])
        s = _daily_series(vals, per_day=3)
        pairs = daily_max_pairs(s, s, lag=0)
        npt.assert_allclose(pairs.a, [0.7, 0.5])
        npt.assert_allclose(pairs.b, pairs.a)
        assert pairs.lag == 0 and len(pairs) == 2

    def test_positive_lag_means_first_site_leads(self):
        rng = np.random.default_rng(5)
        v = rng.normal(size=40)
        a = _daily_series(v, site_id="A", start="2001-03-01")
        # B carries A's value one day later
        b = _daily_series(v, site_id="B", start="2001-03-02")
        aligned = daily_max_pairs(a, b, lag=1)
        assert kendall_tau(aligned) == 1.0
        assert len(aligned) == 40
        misaligned = daily_max_pairs(a, b, lag=0)
        assert kendall_tau(misaligned) < 0.5
        assert len(misaligned) == 39

    def test_no_overlap_is_an_error(self):
        a = _daily_series(np.ones(5), start="2001-03-01")
        b = _daily_series(np.ones(5), start="2011-03-01", site_id="B")
        with pytest.raises(ValueError, match="overlap"):
            daily_max_pairs(a, b, lag=0)
        with pytest.raises(ValueError, match="overlap"):
            daily_max_pairs(a, a, lag=100)

    def test_empty_series_rejected(self):
        a = _daily_series(np.ones(5))
        empty = _daily_series(np.array([]))
        with pytest.raises(ValueError, match="nonempty"):
            daily_max_pairs(a, empty)


@pytest.fixture(scope="module")
def fitted(sim_r0):
    series, params, thresholds = sim_r0
    body = build_empirical(series, thresholds)
    return series, SkewSurgeModel(body=body, params=params,
                                  thresholds=thresholds)


class TestPitTransform:
    def test_tail_probabilities_are_uniform(self, fitted):
        series, model = fitted
        out = pit_transform(series, model)
        u = model.thresholds.for_month(series.month)
        exc = series.skew_surge > u
        assert exc.sum() > 300
        # conditional on exceeding, (1 - F) / lambda is Uniform(0, 1)
        v = (1.0 - out.skew_surge[exc]) / model.params.rate.lam
        assert kstest(v, "uniform").pvalue > 0.05

    def test_values_and_levels_are_consistent(self, fitted):
        series, model = fitted
        out = pit_transform(series, model)
        assert np.all((out.skew_surge >= 0.0) & (out.skew_surge <= 1.0))
        npt.assert_allclose(out.max_sea_level,
                            out.peak_tide + out.skew_surge, rtol=1e-15)
        assert out.site_id == series.site_id
        # the input series is untouched
        assert series.skew_surge.max() > 0.3

    def test_transform_preserves_record_order_ranks(self, fitted):
        series, model = fitted
        out = pit_transform(series, model)
        sel = series.month == 6
        u = model.thresholds.for_month(6)
        same_cell = (series.peak_tide[sel] < np.quantile(
            series.peak_tide[sel], 0.2)) & (series.skew_surge[sel] <= u)
        y = series.skew_surge[sel][same_cell]
        py = out.skew_surge[sel][same_cell]
        order = np.argsort(y)
        assert np.all(np.diff(py[order]) >= 0.0)


class TestPairwiseReports:
    def test_raw_rows_for_each_lag(self):
        rng = np.random.default_rng(9)
        sa = _daily_series(rng.normal(size=400), site_id="AAA")
        sb = _daily_series(rng.normal(size=400), site_id="BBB")
        rows = pairwise_reports({"AAA": sa, "BBB": sb}, lags=(-1, 0, 1),
                                p=0.1)
        assert len(rows) == 3
        assert [r["lag"] for r in rows] == [-1, 0, 1]
        assert all(r["pair"] == "AAA-BBB" and r["margin"] == "raw"
                   for r in rows)
        assert all(set(r) >= {"tau", "chi", "chibar", "p", "n"}
                   for r in rows)

    def test_uniform_rows_need_models_for_both_sites(self, fitted):
        series, model = fitted
        twin = replace(series, site_id="B")
        series_map = {"A": replace(series, site_id="A"), "B": twin}
        part = pairwise_reports(series_map, lags=(0,), models={"A": model})
        assert [r["margin"] for r in part] == ["raw"]
        both = pairwise_reports(series_map, lags=(0,),
                                models={"A": model, "B": model})
        assert [r["margin"] for r in both] == ["raw", "uniform"]
        # identical sites are comonotone on either margin
        for row in both:
            assert row["tau"] == 1.0 and row["chi"] == 1.0

    def test_each_modelled_site_is_transformed_once(self, fitted,
                                                    monkeypatch):
        series, model = fitted
        series_map = {
            site: replace(series, site_id=site,
                          skew_surge=np.roll(series.skew_surge, 7 * k),
                          max_sea_level=series.peak_tide
                          + np.roll(series.skew_surge, 7 * k))
            for k, site in enumerate("DCBA")
        }
        models = {"A": model, "B": model, "C": model}
        uniform = {site: pit_transform(series_map[site], model)
                   for site in models}
        expected = []
        for sa, sb in [("A", "B"), ("A", "C"), ("A", "D"), ("B", "C"),
                       ("B", "D"), ("C", "D")]:
            margins = [("raw", series_map[sa], series_map[sb])]
            if sb in models:
                margins.append(("uniform", uniform[sa], uniform[sb]))
            for margin, ser_a, ser_b in margins:
                for lag in (-1, 0, 1):
                    pairs = daily_max_pairs(ser_a, ser_b, lag)
                    chi, chibar = chi_chibar(pairs, 0.05)
                    expected.append({
                        "pair": f"{sa}-{sb}", "lag": lag, "margin": margin,
                        "tau": kendall_tau(pairs), "chi": chi,
                        "chibar": chibar, "p": 0.05, "n": len(pairs),
                    })
        calls = []

        def counting(site_series, site_model):
            calls.append(site_series.site_id)
            return pit_transform(site_series, site_model)

        monkeypatch.setattr(dependence, "pit_transform", counting)
        rows = pairwise_reports(series_map, models=models)
        assert sorted(calls) == ["A", "B", "C"]
        assert rows == expected
        calls.clear()
        pairwise_reports(series_map, models={"A": model})
        assert calls == []
