"""Rank and tail dependence between sites on daily-maximum surges."""

import math
import os
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import kstest

from skewsurge import dependence
from skewsurge.body import build_empirical, eval_body_cdf
from skewsurge.data import SiteSeries, calendar_columns, standardize_year
from skewsurge.dependence import (
    PairedDailySeries,
    _count_inversions,
    chi_chibar,
    daily_max_pairs,
    kendall_tau,
    pairwise_reports,
    pit_transform,
)
from skewsurge.tail import (
    ScaleParams,
    SkewSurgeModel,
    TailParams,
    rate_at,
    scale_at,
)


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


# The merge count and tau as they were before int32 keys, kept as
# references: int64 keys rebuilt from positions and ranks at every level,
# ranks re-densified before the tau count.
_REF_BASE = 16
_REF_UPPER = np.triu(np.ones((_REF_BASE, _REF_BASE), dtype=bool), k=1)


def _reference_count_inversions(ranks):
    ranks = np.asarray(ranks, dtype=np.int64)
    n = ranks.size
    m = n + 1
    ranks = np.concatenate([ranks, np.full(-n % _REF_BASE, n, dtype=np.int64)])
    size = ranks.size
    blocks = ranks.reshape(-1, _REF_BASE)
    count = int(np.count_nonzero(
        (blocks[:, :, None] > blocks[:, None, :]) & _REF_UPPER))
    ranks = np.sort(blocks, axis=1).ravel()
    pos = np.arange(size, dtype=np.int64)
    width = _REF_BASE
    while width < size:
        shift = width.bit_length()
        block = pos >> shift
        keys = ((block * m + ranks) << 1) | ((pos >> (shift - 1)) & 1)
        keys.sort()
        full, rest = divmod(size, 2 * width)
        count += full * (width * width + width * (width - 1) // 2
                         + width * width * (full - 1))
        if rest > width:
            right = rest - width
            count += right * (width + full * 2 * width) + right * (right - 1) // 2
        count -= int(np.dot(keys & 1, pos))
        ranks = (keys >> 1) - block * m
        width *= 2
    return count


def _reference_runs(sorted_values):
    changed = sorted_values[1:] != sorted_values[:-1]
    starts = np.flatnonzero(changed) + 1
    lengths = np.diff(starts, prepend=0, append=sorted_values.size)
    return changed, int((lengths * (lengths - 1) // 2).sum())


def _reference_margin_ranks(values, keys):
    if keys is None:
        order = np.argsort(values)
        changed, ties = _reference_runs(values[order])
        ranks = np.empty(values.size, dtype=np.int64)
        ranks[order[0]] = 0
        ranks[order[1:]] = np.cumsum(changed)
        return ranks, ties
    counts = np.bincount(keys)
    dense = np.cumsum(counts > 0) - 1
    return dense[keys], int((counts * (counts - 1) // 2).sum())


def _reference_kendall_tau(a, b, keys_a=None, keys_b=None):
    n = len(a)
    rank_a, ties_a = _reference_margin_ranks(a, keys_a)
    rank_b, ties_b = _reference_margin_ranks(b, keys_b)
    total = n * (n - 1) // 2
    nb = int(rank_b.max()) + 1
    keys = np.sort(rank_a * nb + rank_b)
    _, ties_both = _reference_runs(keys)
    discordant = _reference_count_inversions(keys % nb)
    con_minus_dis = total - ties_a - ties_b + ties_both - 2 * discordant
    denom_sq = (total - ties_a) * (total - ties_b)
    root = math.isqrt(denom_sq)
    if root * root == denom_sq:
        tau = con_minus_dis / root
    else:
        tau = con_minus_dis / math.sqrt(denom_sq)
    return float(min(1.0, max(-1.0, tau)))


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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_values_rejected(self, bad):
        # a NaN would otherwise be ranked above every value
        a = np.arange(10.0)
        b = a.copy()
        b[3] = bad
        with pytest.raises(ValueError, match="finite"):
            kendall_tau((a, b))
        with pytest.raises(ValueError, match="finite"):
            kendall_tau((b, a))


@pytest.mark.parametrize("n", [2, 15, 16, 17, 31, 33, 255, 257, 600])
def test_matches_enumeration_across_merge_widths(n):
    # sizes on both sides of the 16-element base block and of several
    # merge widths, with heavy ties, distinct values and a margin that
    # is constant within runs
    rng = np.random.default_rng(n)
    distinct = rng.permutation(n).astype(float)
    cases = [
        (rng.integers(0, 6, size=n).astype(float),
         rng.integers(0, 6, size=n).astype(float)),
        (distinct, distinct + rng.normal(scale=n / 4, size=n)),
        (np.repeat(rng.normal(size=n), 5)[:n],
         rng.integers(0, 6, size=n).astype(float)),
    ]
    for a, b in cases:
        if np.all(a == a[0]) or np.all(b == b[0]):
            with pytest.raises(ValueError, match="constant"):
                kendall_tau((a, b))
        else:
            assert kendall_tau((a, b)) == _tau_b(a, b)


def _brute_inversions(v):
    return int(np.triu(v[:, None] > v[None, :], k=1).sum())


@settings(deadline=None, max_examples=200)
@given(st.lists(st.integers(0, 6), max_size=300)
       | st.lists(st.floats(-1e3, 1e3), max_size=300))
def test_inversion_count_matches_brute_force(values):
    v = np.asarray(values, dtype=float)
    ranks = np.unique(v, return_inverse=True)[1]
    assert _count_inversions(ranks, len(v)) == _brute_inversions(v)


@pytest.mark.parametrize("n", [1000, 4097])
def test_inversion_count_matches_brute_force_at_large_sizes(n):
    rng = np.random.default_rng(n)
    for v in (rng.permutation(n), rng.integers(0, 40, size=n)):
        ranks = np.unique(v, return_inverse=True)[1]
        assert _count_inversions(ranks, len(v)) == _brute_inversions(v)


@settings(deadline=None, max_examples=150)
@given(st.one_of(st.sampled_from([0, 1, 15, 16, 17, 31, 32, 33]),
                 st.integers(0, 5000)),
       st.integers(1, 6000), st.integers(1, 9), st.integers(0, 2**32 - 1))
def test_inversion_count_matches_the_reference(n, levels, spread, seed):
    # tied sequences of every length up to 5,000, the block edges included;
    # the same ranks spread out below a larger bound count the same
    rng = np.random.default_rng(seed)
    ranks = rng.integers(0, min(levels, max(n, 1)), size=n)
    expected = _reference_count_inversions(
        np.unique(ranks, return_inverse=True)[1])
    assert _count_inversions(ranks, levels) == expected
    assert _count_inversions(spread * ranks + 1,
                             spread * levels + 1) == expected


def test_inversion_closed_forms_with_int64_keys():
    n = 200_000
    # the merge keys no longer fit int32 at this size
    assert dependence._index_dtype(2 * (n + 1) * (n // 32 + 1)) is np.int64
    ascending = np.arange(n)
    assert _count_inversions(ascending, n) == 0
    assert _count_inversions(ascending[::-1].copy(), n) == n * (n - 1) // 2
    # 1,000 descending runs of 200 tied ranks: every pair from two runs
    run = 200
    ties = np.repeat(np.arange(n // run)[::-1], run)
    assert _count_inversions(ties, n // run) == (
        n * (n - 1) // 2 - (n // run) * run * (run - 1) // 2)


def test_tau_with_int64_keys_matches_the_reference():
    rng = np.random.default_rng(21)
    # carried site ranks: (max ka + 1) * nb passes 2**31 on 3,000 pairs
    n = 3000
    ka = rng.integers(0, 1_000_000, size=n)
    kb = np.minimum(ka // 200 + rng.integers(0, 40, size=n), 5999)
    kb[-1] = 5999
    assert (ka.max() + 1) * 6000 > 2**31
    assert dependence._kendall_tau(ka, kb) == _reference_kendall_tau(
        ka.astype(float), kb.astype(float), ka, kb)
    # values ranked here: 50,000 distinct values on each margin
    a = rng.normal(size=50_000)
    b = a + rng.normal(size=50_000)
    assert kendall_tau((a, b)) == _reference_kendall_tau(a, b)


class TestPairedDailySeries:
    @pytest.mark.parametrize("n_dates,n_a,n_b", [(2, 3, 3), (3, 2, 3),
                                                 (3, 3, 2)])
    def test_lengths_must_match(self, n_dates, n_a, n_b):
        with pytest.raises(ValueError,
                           match="dates, a and b must have equal lengths"):
            PairedDailySeries(
                dates=np.arange(n_dates).astype("datetime64[D]"),
                a=np.zeros(n_a), b=np.zeros(n_b), lag=0)

    @pytest.mark.parametrize("b", [
        lambda a: a,                         # identical margins: 1.0
        lambda a: -a,                        # reversed: -1.0
        lambda a: np.round(a, 1) + 0.05 * a ** 2,  # ties on both margins
    ], ids=["identical", "reversed", "tied"])
    def test_tau_of_a_hand_built_series_is_the_tau_of_its_values(self, b):
        # the pairs carry no keys: kendall_tau ranks the values it is given
        a = np.round(np.random.default_rng(3).normal(size=60), 1)
        pairs = PairedDailySeries(
            dates=np.arange(60).astype("datetime64[D]"), a=a, b=b(a), lag=0)
        assert kendall_tau(pairs) == kendall_tau((a, b(a))) == _tau_b(a, b(a))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["a", "b"])
    def test_non_finite_values_rejected(self, side, bad):
        # refused as the tuple form is: neither tau nor chi sees them
        values = {"a": np.arange(1.0, 6.0), "b": np.arange(1.0, 6.0)}
        values[side][3] = bad
        with pytest.raises(ValueError, match="^paired values must be finite$"):
            PairedDailySeries(dates=np.arange(5).astype("datetime64[D]"),
                              lag=0, **values)


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

    def test_non_finite_values_rejected(self):
        a = np.arange(10.0)
        b = a.copy()
        b[3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            chi_chibar((a, b), p=0.2)
        with pytest.raises(ValueError, match="finite"):
            chi_chibar((b, a), p=0.2)


def _paired_ranks(a, b, lag):
    """Each site's daily ranks on the paired dates, as a table row reads
    them."""
    daily_a, daily_b = dependence._daily_max(a), dependence._daily_max(b)
    ia, ib = dependence._pair_daily(daily_a, daily_b, lag, "A", "B")
    return daily_a.ranks[ia], daily_b.ranks[ib]


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

    @pytest.mark.parametrize("lag", [-3, 0, 1])
    def test_carried_site_ranks_give_the_tau_of_the_values(self, lag):
        # A ties often (values on a 0.01 grid), B seldom; each site has
        # days the other lacks, so the pairs hold only part of each site's
        # ranks, and B's run past the number of pairs.
        rng = np.random.default_rng(8)
        a = _daily_series(np.round(rng.normal(size=900), 2), per_day=2)
        b = _daily_series(np.round(rng.normal(size=1400), 3), site_id="B",
                          start="2001-03-20", per_day=2)
        pairs = daily_max_pairs(a, b, lag)
        rank_a, rank_b = _paired_ranks(a, b, lag)
        assert rank_a.dtype == rank_b.dtype == np.int32
        assert len(np.unique(rank_a)) < rank_a.max() + 1
        assert rank_b.max() >= len(pairs)
        assert len(np.unique(pairs.a)) < len(pairs)  # tied days
        assert dependence._kendall_tau(rank_a, rank_b) == kendall_tau(pairs)
        assert kendall_tau(pairs) == _tau_b(pairs.a, pairs.b)

    def test_no_overlap_is_an_error(self):
        a = _daily_series(np.ones(5), start="2001-03-01")
        b = _daily_series(np.ones(5), start="2011-03-01", site_id="B")
        with pytest.raises(ValueError, match="overlap"):
            daily_max_pairs(a, b, lag=0)
        with pytest.raises(ValueError, match="overlap"):
            daily_max_pairs(a, a, lag=100)

    def test_unsorted_series_rejected(self):
        # daily maxima are taken over runs of equal dates, so a day split
        # across the record would give two maxima for one date: such a
        # record cannot be built
        a = _daily_series(np.arange(6.0), per_day=2)
        with pytest.raises(ValueError, match=(
                "^site A: out-of-order timestamp 2001-03-01T06:00:00$")):
            a.subset(np.array([3, 4, 5, 0, 1, 2]))

    def test_empty_series_rejected(self):
        a = _daily_series(np.ones(5))
        empty = _daily_series(np.array([]))
        with pytest.raises(ValueError, match="nonempty"):
            daily_max_pairs(a, empty)

    def test_non_finite_values_rejected(self):
        a = _daily_series(np.arange(6.0), per_day=2)
        values = np.arange(6.0)
        values[4] = np.nan
        b = _daily_series(values, site_id="B", per_day=2)
        with pytest.raises(ValueError, match="B: values must be finite"):
            daily_max_pairs(a, b)
        with pytest.raises(ValueError, match="finite"):
            pairwise_reports({"A": a, "B": b}, lags=(0,))

    @pytest.mark.parametrize("lag", [-3, -2, -1, 0, 1, 2, 3])
    def test_pairs_match_an_intersection_of_dates(self, lag):
        # days without any record on either site, one to three records a
        # day, and B starting before A and ending before it
        rng = np.random.default_rng(40 + lag)

        def gappy(n_days, per_day, site_id, start):
            values = np.round(rng.normal(size=n_days * per_day), 2)
            series = _daily_series(values, site_id=site_id, start=start,
                                   per_day=per_day)
            return series.subset(np.sort(rng.choice(
                len(series), size=len(series) * 2 // 3, replace=False)))

        a = gappy(500, 3, "A", "2001-03-10")
        b = gappy(400, 1, "B", "2001-03-01")
        pairs = daily_max_pairs(a, b, lag)
        # the site ranks that the table rows hand to tau
        rank_a, rank_b = _paired_ranks(a, b, lag)

        def reference_daily(series):
            days = series.timestamps.astype("datetime64[D]")
            unique, starts = np.unique(days, return_index=True)
            values = np.maximum.reduceat(series.skew_surge, starts)
            return unique, values, np.unique(values, return_inverse=True)[1]

        da, va, ra = reference_daily(a)
        db, vb, rb = reference_daily(b)
        dates, ia, ib = np.intersect1d(da, db - np.timedelta64(lag, "D"),
                                       return_indices=True)
        assert 0 < len(dates) < min(len(da), len(db))
        npt.assert_array_equal(pairs.dates, dates)
        npt.assert_array_equal(pairs.a, va[ia])
        npt.assert_array_equal(pairs.b, vb[ib])
        npt.assert_array_equal(rank_a, ra[ia])
        npt.assert_array_equal(rank_b, rb[ib])
        assert pairs.lag == lag


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

    @pytest.mark.parametrize("xi", [-0.2, 0.0, 0.1])
    @pytest.mark.parametrize("families,covariate,delta_rate,delta_sigma", [
        (("R2", "S2"), "year_std", [0.4, -0.3, 0.2, 0.6],
         [0.02, -0.01, 0.015, 0.01]),
        (("R3", "S3"), "gmt", 0.5, 0.02),
    ])
    def test_per_record_trend_covariates_match_the_closed_form(
            self, fitted, xi, families, covariate, delta_rate, delta_sigma):
        series, model = fitted
        # one covariate value per record, spread wide enough that the
        # trend terms move lambda and sigma from record to record; the
        # year index follows from each record's year
        spread = np.linspace(-1.0, 1.5, series.skew_surge.size)
        if covariate == "gmt":
            series = replace(series, gmt=spread)
        else:
            series = replace(series,
                             year=np.rint(1968 + 53 * spread).astype(int))
        trend = {"gmt": series.gmt,
                 "year_std": standardize_year(series.year)}[covariate]
        rate, scale = model.params.rate, model.params.scale
        params = TailParams(
            rate=replace(rate, family=families[0], alpha_tide=0.3,
                         delta=delta_rate),
            scale=ScaleParams(family=families[1], alpha=scale.alpha,
                              beta=scale.beta, phi=scale.phi,
                              gamma=scale.gamma, delta=delta_sigma),
            xi=xi)
        trended = replace(model, params=params)
        got = pit_transform(series, trended).skew_surge

        y, records = series.skew_surge, (
            series.day_of_year, series.day_of_month, series.month,
            series.peak_tide)
        covariates = {covariate: trend}
        lam = rate_at(params.rate, *records, **covariates)
        sigma = scale_at(params.scale, series.day_of_year, series.peak_tide,
                         **covariates)
        u = model.thresholds.for_month(series.month)
        above = y > u
        assert 100 < above.sum() < y.size  # the records cross u_j
        assert np.ptp(lam) > 0.02 and np.ptp(sigma) > 0.02
        z = np.maximum((y - u) / sigma, 0.0)
        if xi == 0.0:
            survival = lam * np.exp(-z)
        else:
            survival = lam * np.maximum(1.0 + xi * z, 0.0) ** (-1.0 / xi)
        expected = np.where(above, 1.0 - survival, 0.0)
        expected[~above] = (1.0 - lam[~above]) * eval_body_cdf(
            model.body, y[~above], series.month[~above],
            series.peak_tide[~above])
        npt.assert_allclose(got, expected, rtol=1e-12)


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

    @pytest.fixture(scope="class")
    def four_sites(self, fitted):
        """Four shifted copies of one record, three of them modelled, and
        the table built row by row from the public functions."""
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
        return series_map, models, expected

    def test_each_modelled_site_is_transformed_once(self, four_sites,
                                                    monkeypatch):
        series_map, models, expected = four_sites
        model = models["A"]
        calls = []
        daily_calls = []
        daily_max = dependence._daily_max

        def counting(site_series, site_model):
            calls.append(site_series.site_id)
            return pit_transform(site_series, site_model)

        def counting_daily_max(site_series, index=None):
            daily = daily_max(site_series, index)
            daily_calls.append((site_series.site_id, index is not None))
            if index is not None:
                shared.append(index is raw[site_series.site_id].index)
            else:
                raw[site_series.site_id] = daily
            return daily

        monkeypatch.setattr(dependence, "pit_transform", counting)
        monkeypatch.setattr(dependence, "_daily_max", counting_daily_max)
        raw, shared = {}, []
        rows = pairwise_reports(series_map, models=models)
        assert sorted(calls) == ["A", "B", "C"]
        # daily maxima once per site and margin: 4 raw, each building its
        # site's day index, and 3 uniform over the raw margin's index
        assert sorted(daily_calls) == [
            ("A", False), ("A", True), ("B", False), ("B", True),
            ("C", False), ("C", True), ("D", False)]
        assert shared == [True] * 3
        assert rows == expected
        calls.clear()
        daily_calls.clear()
        pairwise_reports(series_map, models={"A": model})
        assert calls == []
        assert sorted(daily_calls) == [(site, False) for site in "ABCD"]

    @pytest.fixture()
    def pool_sizes(self, monkeypatch):
        """The worker counts of the pools that ``pairwise_reports`` makes."""
        sizes = []

        class Recording(dependence.ThreadPoolExecutor):
            def __init__(self, max_workers):
                sizes.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(dependence, "ThreadPoolExecutor", Recording)
        return sizes

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, None, set(range(8))],
                             ids=["one", "two", "machine", "eight"])
    def test_rows_do_not_depend_on_the_worker_count(self, four_sites,
                                                    pool_sizes, monkeypatch,
                                                    cpus):
        series_map, models, expected = four_sites
        if cpus is None:
            cpus = os.sched_getaffinity(0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # the threads trade the lock often
        try:
            rows = pairwise_reports(series_map, models=models)
        finally:
            sys.setswitchinterval(interval)
        # equal to the bit, -0.0 included, and in the serial order
        assert repr(rows) == repr(expected)
        assert pool_sizes == [min(len(cpus), 27)]

    @pytest.fixture()
    def pit_calls(self, monkeypatch):
        """Each ``pit_transform`` call as (site, thread, PITs running with
        it, numpy error state), the call held long enough that another
        PIT started meanwhile would overlap it."""
        calls, running, lock = [], [], threading.Lock()

        def recording(site_series, site_model):
            with lock:
                running.append(site_series.site_id)
                calls.append((site_series.site_id, threading.get_ident(),
                              len(running), np.geterr()))
            try:
                time.sleep(0.02)
                return pit_transform(site_series, site_model)
            finally:
                with lock:
                    running.remove(site_series.site_id)

        monkeypatch.setattr(dependence, "pit_transform", recording)
        return calls

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}, set(range(8))],
                             ids=["one", "two", "eight"])
    def test_margins_are_one_task_off_the_calling_thread(
            self, four_sites, pit_calls, monkeypatch, cpus):
        series_map, models, expected = four_sites
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        with np.errstate(all="raise"):
            rows = pairwise_reports(series_map, models=models)
        assert repr(rows) == repr(expected)
        # one site at a time, in order, on one pool thread
        assert [site for site, _, _, _ in pit_calls] == ["A", "B", "C"]
        assert all(running == 1 for _, _, running, _ in pit_calls)
        assert len({ident for _, ident, _, _ in pit_calls}) == 1
        assert pit_calls[0][1] != threading.get_ident()
        # the caller's error state reaches the PITs
        assert all(state == dict.fromkeys(
            ("divide", "over", "under", "invalid"), "raise")
            for _, _, _, state in pit_calls)

    def test_first_failing_margin_in_site_order_raises(self, four_sites,
                                                       monkeypatch):
        series_map, models, _ = four_sites
        calls = []

        def failing(site_series, site_model):
            calls.append(site_series.site_id)
            if site_series.site_id in "BC":
                raise ValueError(f"no PIT for {site_series.site_id}")
            return pit_transform(site_series, site_model)

        monkeypatch.setattr(dependence, "pit_transform", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        with pytest.raises(ValueError, match="^no PIT for B$"):
            pairwise_reports(series_map, models=models)
        assert calls == ["A", "B"]

    def test_pool_is_capped_at_the_rows_and_falls_back_to_cpu_count(
            self, pool_sizes, monkeypatch):
        rng = np.random.default_rng(11)
        series_map = {site: _daily_series(rng.normal(size=50), site_id=site)
                      for site in "AB"}
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        assert len(pairwise_reports(series_map, lags=(0, 1))) == 2
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert len(pairwise_reports(series_map, lags=range(-2, 3))) == 5
        assert len(pairwise_reports({"A": series_map["A"]})) == 0
        assert pool_sizes == [2, 3, 1]

    def test_first_failing_row_in_row_order_raises(self, monkeypatch):
        # every row with C fails (no shared dates); the first of them in
        # row order, A-C at lag -1, waits until B-C's rows have failed on
        # the other workers
        rng = np.random.default_rng(12)
        series_map = {
            "A": _daily_series(rng.normal(size=60), site_id="A"),
            "B": _daily_series(rng.normal(size=60), site_id="B"),
            "C": _daily_series(rng.normal(size=60), site_id="C",
                               start="2005-01-01"),
        }
        pair_daily = dependence._pair_daily
        failed, b_c_failed, waited = [], threading.Event(), []

        def held_back(daily_a, daily_b, lag, site_a, site_b):
            if (site_a, site_b, lag) == ("A", "C", -1):
                waited.append(b_c_failed.wait(timeout=30))
            try:
                return pair_daily(daily_a, daily_b, lag, site_a, site_b)
            except ValueError:
                failed.append((site_a, site_b, lag))
                if sum(a == "B" for a, _, _ in failed) == 3:
                    b_c_failed.set()
                raise

        monkeypatch.setattr(dependence, "_pair_daily", held_back)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
        with pytest.raises(ValueError) as info:
            pairwise_reports(series_map)
        assert str(info.value) == (
            "no overlapping dates between A and C at lag -1")
        assert waited == [True]
        assert failed[-1] == ("A", "C", -1)
        assert sorted(failed) == [(a, "C", lag) for a in "AB"
                                  for lag in (-1, 0, 1)]

    def test_callers_error_state_holds_in_every_row(self, monkeypatch):
        rng = np.random.default_rng(13)
        series_map = {site: _daily_series(rng.normal(size=80), site_id=site)
                      for site in "ABC"}
        seen = []

        def recording(pairs, p):
            seen.append((threading.get_ident(), np.geterr()))
            return chi_chibar(pairs, p)

        monkeypatch.setattr(dependence, "chi_chibar", recording)
        with np.errstate(all="raise"):
            pairwise_reports(series_map)
        assert len(seen) == 9
        assert all(ident != threading.get_ident() for ident, _ in seen)
        assert all(state == dict.fromkeys(
            ("divide", "over", "under", "invalid"), "raise")
            for _, state in seen)
        # without an errstate the rows see the caller's state, not "raise"
        seen.clear()
        pairwise_reports(series_map)
        assert all(state == np.geterr() for _, state in seen)
