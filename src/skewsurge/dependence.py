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

from .data import _quantile
from .tail import eval_cdf


@dataclass
class PairedDailySeries:
    """Aligned daily-maximum values for two sites at a fixed day lag.

    ``rank_a`` and ``rank_b``, when set, are nonnegative integer keys
    ordered and tied exactly as ``a`` and ``b``: each site's dense ranks
    over all its days, restricted to the paired dates. :func:`kendall_tau`
    then takes them as its keys instead of sorting the values.
    """

    dates: np.ndarray  # datetime64[D], the A-side dates
    a: np.ndarray
    b: np.ndarray
    lag: int
    site_a: str = ""
    site_b: str = ""
    rank_a: np.ndarray | None = None
    rank_b: np.ndarray | None = None

    def __post_init__(self):
        if not (len(self.dates) == len(self.a) == len(self.b)):
            raise ValueError("dates, a and b must have equal lengths")
        for ranks in (self.rank_a, self.rank_b):
            if ranks is not None and len(ranks) != len(self.a):
                raise ValueError("ranks must have the length of the values")

    def __len__(self):
        return len(self.a)


def _daily_max(series):
    """Daily maxima of a time-ordered series (one sort per site and margin).

    Returns the sorted unique dates, each day's maximum, the maxima's dense
    ranks, the first date's day number and the site's slot table: an int32
    array over the span of days from the first date to the last whose entry
    d holds the index of day first + d, or -1 on a day without a record.
    """
    if len(series) == 0:
        raise ValueError("both series must be nonempty")
    if not np.isfinite(series.skew_surge).all():
        raise ValueError(f"series {series.site_id}: values must be finite")
    days = series.timestamps.astype("datetime64[D]")
    if np.any(days[1:] < days[:-1]):
        raise ValueError(f"series {series.site_id} is not sorted by timestamp")
    change = np.flatnonzero(days[1:] != days[:-1]) + 1
    starts = np.concatenate([[0], change])
    values = np.maximum.reduceat(series.skew_surge, starts)
    days = days[starts]
    first = int(days[0].view(np.int64))
    number = days.view(np.int64) - first
    slots = np.full(int(number[-1]) + 1, -1, dtype=np.int32)
    slots[number] = np.arange(days.size, dtype=np.int32)
    return days, values, _dense_ranks(values)[0], first, slots


def _pair_daily(daily_a, daily_b, lag, site_a, site_b):
    """Pair two sites' daily maxima on the dates they share, B shifted by lag.

    A's day d pairs with B's day d + lag. Over the span of days that both
    slot tables cover (see ``_daily_max``), one slice of each table gives
    the pairs: the days where both slots are set, in date order. The pairs
    carry each site's daily ranks on those dates.
    """
    da, va, ka, first_a, slots_a = daily_a
    _, vb, kb, first_b, slots_b = daily_b
    lag = int(lag)
    lo = max(first_a, first_b - lag)
    hi = max(lo, min(first_a + slots_a.size, first_b - lag + slots_b.size))
    sa = slots_a[lo - first_a:hi - first_a]
    sb = slots_b[lo + lag - first_b:hi + lag - first_b]
    both = (sa >= 0) & (sb >= 0)
    # intp indices: numpy converts any other index type on every gather
    ia, ib = sa[both].astype(np.intp), sb[both].astype(np.intp)
    if ia.size == 0:
        raise ValueError(
            f"no overlapping dates between {site_a} and {site_b} at lag {lag}"
        )
    return PairedDailySeries(
        dates=da[ia], a=va[ia], b=vb[ib], lag=lag,
        site_a=site_a, site_b=site_b, rank_a=ka[ia], rank_b=kb[ib],
    )


def daily_max_pairs(series_a, series_b, lag=0):
    """Daily maxima of both sites on overlapping dates, B shifted by lag days."""
    return _pair_daily(_daily_max(series_a), _daily_max(series_b), lag,
                       series_a.site_id, series_b.site_id)


def _pair_arrays(pairs):
    if isinstance(pairs, PairedDailySeries):
        return pairs.a, pairs.b
    a, b = pairs
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired values must be finite")
    return a, b


def _index_dtype(limit):
    """int32 for integers below ``limit`` when it allows, else int64."""
    return np.int32 if limit <= 2**31 else np.int64


_BASE = 16  # block length whose inversions are counted by direct comparison
_UPPER = np.triu(np.ones((_BASE, _BASE), dtype=bool), k=1)


def _count_inversions(ranks, bound=None):
    """Strict inversions (i < j with ranks[i] > ranks[j]) of nonnegative
    integer ranks below ``bound`` (default: their number), counted exactly
    by bottom-up merge levels.

    The ranks are padded to whole blocks of 16 with the rank ``bound``,
    above all others, which adds no inversion. Inside each block the count
    is one broadcast comparison of all pairs against a strict upper
    triangle. At width w (halves of w merged into blocks of 2w = 2**t) one
    sort of the keys ((p >> t) * m + rank) << 1 | side, with p the
    position, m = bound + 1 and side = (p >> (t - 1)) & 1, 1 on the right
    half, merges every pair of halves, equal ranks putting left before
    right. A right-half element at sorted position p, k-th among its
    block's right elements, then has l_b + start_b + k - p greater left
    elements, so the level's count is sum_b r_b * (l_b + start_b)
    + r_b (r_b - 1)/2 minus the sum of the right elements' sorted positions
    (l_b, r_b: the block's left and right sizes, start_b: its first
    position). A sort keeps each block in place, so the block and side of
    a sorted key depend only on its position: the next level's keys are
    the sorted keys with the side bit cleared plus a per-block offset,
    2m * (new block - old block) + new side. The keys are int32 while the
    largest, below 2m * (size / 32 + 1), allows (up to about 185k values
    when the bound is their number), int64 above; the count is a Python
    int.
    """
    n = len(ranks)
    if bound is None:
        bound = n
    m = bound + 1  # key multiplier above every rank, padding included
    size = n + -n % _BASE
    largest = 2 * m * (size // (2 * _BASE) + 1)
    keys = np.full(size, bound, dtype=_index_dtype(largest))
    keys[:n] = ranks
    blocks = keys.reshape(-1, _BASE)
    count = int(np.count_nonzero(
        (blocks[:, :, None] > blocks[:, None, :]) & _UPPER))
    # first merge level: block j >> 1 and side j & 1 of base block j
    row = np.arange(size // _BASE, dtype=keys.dtype)
    keys <<= 1
    blocks += ((row >> 1) * (2 * m) + (row & 1))[:, None]
    pos = np.arange(size, dtype=np.int64)
    side = np.empty(size, dtype=np.int64)
    width = _BASE
    while width < size:
        keys.sort()
        full, rest = divmod(size, 2 * width)
        # full blocks: l_b = r_b = w and start_b = 2wb for b < full
        count += full * (width * width + width * (width - 1) // 2
                         + width * width * (full - 1))
        if rest > width:
            right = rest - width
            count += right * (width + full * 2 * width) + right * (right - 1) // 2
        np.bitwise_and(keys, 1, out=side)
        count -= int(np.dot(side, pos))
        if 2 * width >= size:
            break
        # fold the next level's block and side into the sorted keys
        keys &= -2
        block = np.arange(full + 1, dtype=keys.dtype)
        offset = ((block + 1) >> 1) * (-2 * m) + (block & 1)
        whole = keys[:full * 2 * width].reshape(full, 2 * width)
        whole += offset[:full, None]
        keys[full * 2 * width:] += offset[full]
        width *= 2
    return count


def _runs(sorted_values):
    """Value-changed mask of a sorted array and its number of tied pairs."""
    changed = sorted_values[1:] != sorted_values[:-1]
    starts = np.flatnonzero(changed) + 1
    lengths = np.diff(starts, prepend=0, append=sorted_values.size)
    return changed, int((lengths * (lengths - 1) // 2).sum())


def _dense_ranks(values):
    """Dense integer ranks (0 for the smallest value), their number of
    distinct values and the tied pairs."""
    order = np.argsort(values)
    changed, ties = _runs(values[order])
    ranks = np.empty(values.size, dtype=_index_dtype(values.size))
    ranks[order[0]] = 0
    ranks[order[1:]] = np.cumsum(changed)
    return ranks, int(ranks[order[-1]]) + 1, ties


def _margin_keys(values, keys):
    """Integer keys ordered and tied as one margin's values, a bound above
    them and the margin's tied pairs. Carried keys are used as they are,
    with their tie counts from one bincount; without keys the values are
    sorted into dense ranks."""
    if keys is None:
        return _dense_ranks(values)
    counts = np.bincount(keys)
    return keys, counts.size, int((counts * (counts - 1) // 2).sum())


def kendall_tau(pairs):
    """Tie-adjusted Kendall rank correlation of the paired values.

    Counts concordant, discordant and tied pairs exactly (integer
    arithmetic throughout), so perfectly concordant input gives 1.0
    exactly at any sample size. Each margin is replaced by integer keys
    ordered and tied as its values: the pairs' site ranks when they carry
    them (see PairedDailySeries), dense ranks from one argsort otherwise.
    One sort of ka * nb + kb (nb above every b key; int32 while
    (max ka + 1) * nb allows, int64 above) then gives the a-then-b order,
    the pairs tied on both margins (runs of equal keys) and b's keys in
    that order (key - key // nb * nb), whose inversions are the discordant
    pairs. Raises when either margin is constant, where the coefficient is
    undefined.
    """
    a, b = _pair_arrays(pairs)
    n = len(a)
    if n < 2:
        raise ValueError("kendall_tau needs at least 2 pairs")
    rank_a, bound_a, ties_a = _margin_keys(a, getattr(pairs, "rank_a", None))
    rank_b, nb, ties_b = _margin_keys(b, getattr(pairs, "rank_b", None))
    total = n * (n - 1) // 2
    if ties_a == total or ties_b == total:
        raise ValueError("kendall_tau is undefined for a constant margin")
    keys = rank_a.astype(_index_dtype(bound_a * nb))
    keys *= nb
    keys += rank_b
    keys.sort()
    _, ties_both = _runs(keys)
    # within equal-a runs b is sorted, so every counted inversion is a
    # strictly discordant pair; numpy divides by a scalar several times
    # faster than it takes a remainder
    discordant = _count_inversions(keys - keys // nb * nb, nb)
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
    q_a = _quantile(a, 1.0 - p)
    q_b = _quantile(b, 1.0 - p)
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
    sites = sorted(series_map)
    modelled = [site for site in sites if models and site in models]
    # each site's daily maxima and their ranks, computed once per margin
    uniform = {site: _daily_max(pit_transform(series_map[site], models[site]))
               for site in (modelled if len(modelled) > 1 else [])}
    raw = {site: _daily_max(series_map[site])
           for site in (sites if len(sites) > 1 else [])}
    rows = []
    for sa, sb in itertools.combinations(sites, 2):
        margins = [("raw", raw[sa], raw[sb])]
        if sa in uniform and sb in uniform:
            margins.append(("uniform", uniform[sa], uniform[sb]))
        for margin, daily_a, daily_b in margins:
            for lag in lags:
                pairs = _pair_daily(daily_a, daily_b, lag,
                                    series_map[sa].site_id,
                                    series_map[sb].site_id)
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
