"""Pairwise inter-site dependence diagnostics on daily-maximum skew surges.

Measures: Kendall's tau (tie-adjusted), the conditional tail dependence
chi at a marginal exceedance probability p, and its companion chibar that
separates asymptotic dependence from asymptotic independence. All three
are rank-based or threshold-count based, so they are invariant to
strictly increasing transforms of each margin.

Lag convention: a positive lag means site A leads, pairing A's day t with
B's day t + lag.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .tail import eval_cdf


@dataclass
class PairedDailySeries:
    """Aligned daily-maximum values for two sites at a fixed day lag."""

    dates: np.ndarray  # datetime64[D], the A-side dates
    a: np.ndarray
    b: np.ndarray
    lag: int
    site_a: str = ""
    site_b: str = ""

    def __post_init__(self):
        if not (len(self.dates) == len(self.a) == len(self.b)):
            raise ValueError("dates, a and b must have equal lengths")

    def __len__(self):
        return len(self.a)


def _daily_max(series):
    days = series.timestamps.astype("datetime64[D]")
    change = np.flatnonzero(days[1:] != days[:-1]) + 1
    starts = np.concatenate([[0], change])
    return days[starts], np.maximum.reduceat(series.skew_surge, starts)


def daily_max_pairs(series_a, series_b, lag=0):
    """Daily maxima of both sites on overlapping dates, B shifted by lag days."""
    if len(series_a) == 0 or len(series_b) == 0:
        raise ValueError("both series must be nonempty")
    da, va = _daily_max(series_a)
    db, vb = _daily_max(series_b)
    shifted = db - np.timedelta64(int(lag), "D")
    common, ia, ib = np.intersect1d(da, shifted, return_indices=True)
    if common.size == 0:
        raise ValueError(
            f"no overlapping dates between {series_a.site_id} and "
            f"{series_b.site_id} at lag {lag}"
        )
    return PairedDailySeries(
        dates=common, a=va[ia], b=vb[ib], lag=int(lag),
        site_a=series_a.site_id, site_b=series_b.site_id,
    )


def _pair_arrays(pairs):
    if isinstance(pairs, PairedDailySeries):
        return pairs.a, pairs.b
    a, b = pairs
    return np.asarray(a, dtype=float), np.asarray(b, dtype=float)


def _count_inversions(values):
    """Strict inversions (i < j with values[i] > values[j]), counted
    exactly by a bottom-up merge sort on integer ranks.

    At width w every block of w ranks is sorted. The left halves of the
    blocks of size 2w, keyed block * n + rank, form one sorted array in
    which block k's left half ends at (k + 1) * w, so one searchsorted
    counts, for each right-half element, the left elements of its block
    that are greater. One sort of the keys then merges each pair of
    halves (equal integer keys are interchangeable, so it need not be
    stable).
    """
    ranks = np.unique(values, return_inverse=True)[1].ravel()
    n = ranks.size
    pos = np.arange(n)
    count = 0
    width = 1
    while width < n:
        block = pos // (2 * width)
        keys = block * n + ranks
        right = pos % (2 * width) >= width
        not_greater = np.searchsorted(keys[~right], keys[right], side="right")
        count += int(((block[right] + 1) * width - not_greater).sum())
        ranks = np.sort(keys) - block * n
        width *= 2
    return count


def _tied_pairs(sorted_values):
    """Number of index pairs sharing a value, given a sorted array."""
    _, counts = np.unique(sorted_values, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def kendall_tau(pairs):
    """Tie-adjusted Kendall rank correlation of the paired values.

    Counts concordant, discordant and tied pairs exactly (integer
    arithmetic throughout), so perfectly concordant input gives 1.0
    exactly at any sample size. Raises when either margin is constant,
    where the coefficient is undefined.
    """
    a, b = _pair_arrays(pairs)
    n = len(a)
    if n < 2:
        raise ValueError("kendall_tau needs at least 2 pairs")
    order = np.lexsort((b, a))
    a_sorted = a[order]
    b_by_a = b[order]
    total = n * (n - 1) // 2
    ties_a = _tied_pairs(a_sorted)
    ties_b = _tied_pairs(np.sort(b))
    if ties_a == total or ties_b == total:
        raise ValueError("kendall_tau is undefined for a constant margin")
    # within equal-a runs b is sorted, so every counted inversion is a
    # strictly discordant pair
    discordant = _count_inversions(b_by_a)
    pair_keys = a_sorted + 1j * b_by_a
    ties_both = _tied_pairs(pair_keys)
    con_minus_dis = total - ties_a - ties_b + ties_both - 2 * discordant
    denom_sq = (total - ties_a) * (total - ties_b)
    root = math.isqrt(denom_sq)
    if root * root == denom_sq:
        tau = con_minus_dis / root
    else:
        tau = con_minus_dis / math.sqrt(denom_sq)
    return float(min(1.0, max(-1.0, tau)))


def chi_chibar(pairs, p=0.05):
    """Tail dependence (chi, chibar) above the empirical (1-p) quantiles.

    chi is the fraction of A-exceedances that are joint exceedances;
    chibar is 2 log P(A exceeds) / log P(joint) - 1. With zero joint
    exceedances chi is 0 and chibar is None (undefined).
    """
    a, b = _pair_arrays(pairs)
    n = len(a)
    if n == 0:
        raise ValueError("empty pairs")
    if not 0.0 < p < 1.0:
        raise ValueError("p must be in (0, 1)")
    q_a = np.quantile(a, 1.0 - p)
    q_b = np.quantile(b, 1.0 - p)
    exc_a = a > q_a
    n_a = int(exc_a.sum())
    if n_a == 0:
        raise ValueError(f"no marginal exceedances above the {1 - p} quantile")
    joint = int((exc_a & (b > q_b)).sum())
    chi = joint / n_a
    if joint == 0:
        return 0.0, None
    chibar = 2.0 * math.log(n_a / n) / math.log(joint / n) - 1.0
    return float(chi), float(chibar)


def pit_transform(series, model):
    """Map each record's surge through its conditional CDF (uniform margins).

    Returns a copy of the series whose ``skew_surge`` column holds the
    probability-integral-transform values (``max_sea_level`` is kept
    consistent as tide plus the transformed value).
    """
    pit = eval_cdf(
        series.skew_surge,
        series.day_of_year,
        series.day_of_month,
        series.month,
        series.peak_tide,
        body=model.body,
        params=model.params,
        thresholds=model.thresholds,
        year_std=series.year_std,
        gmt=series.gmt,
    )
    return replace(
        series,
        skew_surge=pit,
        max_sea_level=series.peak_tide + pit,
    )


def pairwise_reports(series_map, lags=(-1, 0, 1), p=0.05, models=None):
    """Dependence table rows for every site pair, lag and margin type.

    ``models`` maps site id to a fitted SkewSurgeModel; uniform-margin
    rows are emitted only for pairs where both sites have one. Rows are
    dicts keyed pair/lag/margin/tau/chi/chibar/n, ordered by site pair,
    margin, then lag.
    """
    modelled = [site for site in sorted(series_map) if models and site in models]
    uniform = {site: pit_transform(series_map[site], models[site])
               for site in (modelled if len(modelled) > 1 else [])}
    rows = []
    for sa, sb in itertools.combinations(sorted(series_map), 2):
        margins = [("raw", series_map[sa], series_map[sb])]
        if sa in uniform and sb in uniform:
            margins.append(("uniform", uniform[sa], uniform[sb]))
        for margin, ser_a, ser_b in margins:
            for lag in lags:
                pairs = daily_max_pairs(ser_a, ser_b, lag)
                chi, chibar = chi_chibar(pairs, p)
                rows.append({
                    "pair": f"{sa}-{sb}",
                    "lag": int(lag),
                    "margin": margin,
                    "tau": kendall_tau(pairs),
                    "chi": chi,
                    "chibar": chibar,
                    "p": p,
                    "n": len(pairs),
                })
    return rows
