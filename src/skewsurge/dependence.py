"""Pairwise inter-site dependence diagnostics on daily-maximum skew surges.

Measures: Kendall's tau (tie-adjusted), the conditional tail dependence
chi at a marginal exceedance probability p, and its companion chibar that
separates asymptotic dependence from asymptotic independence. All three
are rank-based or threshold-count based, so they are invariant to
strictly increasing transforms of each margin.

Lag convention: a positive lag means site A leads, pairing A's day t with
B's day t + lag.

:func:`pairwise_reports` computes its rows, and one task that builds the
uniform margins, on a thread pool with one worker per CPU the process may
run on, at most one per row; the rows and their order do not depend on
the number of workers.
"""

from __future__ import annotations

import contextvars
import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .data import _quantile, standardize_year
from .tail import eval_cdf


@dataclass
class PairedDailySeries:
    """Aligned daily-maximum values for two sites at a fixed day lag; the
    values must be finite."""

    dates: np.ndarray  # datetime64[D], the A-side dates
    a: np.ndarray
    b: np.ndarray
    lag: int
    site_a: str = ""
    site_b: str = ""

    def __post_init__(self):
        if not (len(self.dates) == len(self.a) == len(self.b)):
            raise ValueError("dates, a and b must have equal lengths")
        self.a, self.b = _finite_pair(self.a, self.b)

    def __len__(self):
        return len(self.a)


class _DayIndex(NamedTuple):
    """A record's days, in time order: each day's first row (int32 while
    the rows allow), the first day's number (days since 1970) and the slot
    table, an int32 array over the span of days from the first to the last
    whose entry d holds the index of day first + d, or -1 on a day without
    a record."""

    starts: np.ndarray
    first: int
    slots: np.ndarray


class _Daily(NamedTuple):
    """One margin of a site's record by day: each day's maximum, the
    maxima's dense ranks (int32 while the days allow) and the record's day
    index."""

    values: np.ndarray
    ranks: np.ndarray
    index: _DayIndex


def _daily_max(series, index=None):
    """Daily maxima of a SiteSeries, in time order by construction (one
    sort per site and margin).

    ``index`` is the day index of the record's stamps, built here when not
    given. Both margins of a site (its surges and their PIT values) share
    one: the raw margin builds it, and the uniform margin reduces its own
    values over the same runs of rows. The values are finite, as every
    record's are (a PIT copy of a record included).
    """
    if index is None:
        if len(series) == 0:
            raise ValueError("both series must be nonempty")
        days = series.timestamps.astype("datetime64[D]").view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], days[1:] != days[:-1])))
        starts = starts.astype(_index_dtype(days.size))
        number = days[starts] - days[0]
        slots = np.full(int(number[-1]) + 1, -1, dtype=np.int32)
        slots[number] = np.arange(starts.size, dtype=np.int32)
        index = _DayIndex(starts, int(days[0]), slots)
    values = np.maximum.reduceat(series.skew_surge, index.starts)
    ranks = np.unique(values, return_inverse=True)[1]
    return _Daily(values, ranks.astype(_index_dtype(ranks.size)), index)


def _pair_daily(daily_a, daily_b, lag, site_a, site_b):
    """Pair two sites' daily maxima on the dates they share, B shifted by lag.

    A's day d pairs with B's day d + lag. Over the span of days that both
    slot tables cover (see :class:`_DayIndex`), one slice of each table
    gives the pairs: the days where both slots are set, in date order.
    Returns each site's indices (intp) of its paired days, through which a
    row reads the paired values and the daily ranks that
    :func:`_kendall_tau` takes in place of ranking the values.
    """
    _, first_a, slots_a = daily_a.index
    _, first_b, slots_b = daily_b.index
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
    return ia, ib


def daily_max_pairs(series_a, series_b, lag=0):
    """Daily maxima of both sites on overlapping dates, B shifted by lag days."""
    daily_a, daily_b = _daily_max(series_a), _daily_max(series_b)
    ia, ib = _pair_daily(daily_a, daily_b, lag, series_a.site_id,
                         series_b.site_id)
    dates = series_a.timestamps[daily_a.index.starts[ia]]
    return PairedDailySeries(dates=dates.astype("datetime64[D]"),
                             a=daily_a.values[ia], b=daily_b.values[ib],
                             lag=int(lag), site_a=series_a.site_id,
                             site_b=series_b.site_id)


def _finite_pair(a, b):
    """Both margins' values as float arrays, refused unless finite."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise ValueError("paired values must be finite")
    return a, b


def _pair_arrays(pairs):
    """The paired values: a PairedDailySeries' own (checked as it is
    made), or the checked (a, b) of a tuple."""
    if isinstance(pairs, PairedDailySeries):
        return pairs.a, pairs.b
    return _finite_pair(*pairs)


def _index_dtype(limit):
    """int32 for integers below ``limit`` when it allows, else int64."""
    return np.int32 if limit <= 2**31 else np.int64


_BASE = 16  # block length whose inversions are counted by direct comparison


def _count_inversions(ranks, bound):
    """Strict inversions (i < j with ranks[i] > ranks[j]) of nonnegative
    integer ranks below ``bound``, counted exactly by bottom-up merge
    levels.

    The ranks are padded to whole blocks of 16 with the rank ``bound``,
    above all others, which adds no inversion. Inside the blocks the count
    is direct: on the blocks' transposed copy (position in block by block),
    one comparison of rows i and i + k for each offset k = 1..15, so every
    comparison runs along the blocks, contiguous. At width w (halves of w
    merged into blocks of 2w = 2**t) one sort of the keys
    ((p >> t) * m + rank) << 1 | side, with p the position, m = bound + 1
    and side = (p >> (t - 1)) & 1, 1 on the right half, merges every pair
    of halves, equal ranks putting left before right. A right-half element at sorted position p, k-th among its
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
    m = bound + 1  # key multiplier above every rank, padding included
    size = n + -n % _BASE
    largest = 2 * m * (size // (2 * _BASE) + 1)
    keys = np.full(size, bound, dtype=_index_dtype(largest))
    keys[:n] = ranks
    blocks = keys.reshape(-1, _BASE)
    cols = np.ascontiguousarray(blocks.T)
    count = sum(np.count_nonzero(cols[:-k] > cols[k:]) for k in range(1, _BASE))
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


def _tied_pairs(sorted_values):
    """The number of tied pairs in a sorted array."""
    starts = np.flatnonzero(sorted_values[1:] != sorted_values[:-1]) + 1
    lengths = np.diff(starts, prepend=0, append=sorted_values.size)
    return int((lengths * (lengths - 1) // 2).sum())


def _bound_and_ties(keys):
    """A bound above one margin's nonnegative integer keys and its tied
    pairs, the tie counts from one bincount."""
    counts = np.bincount(keys)
    return counts.size, int((counts * (counts - 1) // 2).sum())


def kendall_tau(pairs):
    """Tie-adjusted Kendall rank correlation of the paired values.

    Counts concordant, discordant and tied pairs exactly (integer
    arithmetic throughout), so perfectly concordant input gives 1.0
    exactly at any sample size. Each margin is replaced by its dense
    ranks from np.unique (see :func:`_kendall_tau`). Raises when either
    margin is constant, where the coefficient is undefined.
    """
    a, b = _pair_arrays(pairs)
    return _kendall_tau(np.unique(a, return_inverse=True)[1],
                        np.unique(b, return_inverse=True)[1])


def _kendall_tau(rank_a, rank_b):
    """Kendall's tau of pairs given by integer keys ordered and tied as
    each margin's values: the values' dense ranks, or each site's daily
    ranks on the paired dates (:func:`_pair_daily`). One sort of
    ka * nb + kb (nb above every b key; int32 while (max ka + 1) * nb
    allows, int64 above) gives the a-then-b order, the pairs tied on both
    margins (runs of equal keys) and b's keys in that order
    (key - key // nb * nb), whose inversions are the discordant pairs.
    """
    n = len(rank_a)
    if n < 2:
        raise ValueError("kendall_tau needs at least 2 pairs")
    bound_a, ties_a = _bound_and_ties(rank_a)
    nb, ties_b = _bound_and_ties(rank_b)
    total = n * (n - 1) // 2
    if ties_a == total or ties_b == total:
        raise ValueError("kendall_tau is undefined for a constant margin")
    keys = rank_a.astype(_index_dtype(bound_a * nb))
    keys *= nb
    keys += rank_b
    keys.sort()
    ties_both = _tied_pairs(keys)
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
        year_std=standardize_year(series.year),
        gmt=series.gmt,
    )
    return replace(
        series,
        skew_surge=pit,
        max_sea_level=series.peak_tide + pit,
    )


def _row(daily_a, daily_b, lag, p, site_a, site_b, pair, margin):
    """One dependence table row from two sites' daily maxima, read through
    the paired days' indices."""
    ia, ib = _pair_daily(daily_a, daily_b, lag, site_a, site_b)
    chi, chibar = chi_chibar((daily_a.values[ia], daily_b.values[ib]), p)
    return {"pair": pair, "lag": int(lag), "margin": margin,
            "tau": _kendall_tau(daily_a.ranks[ia], daily_b.ranks[ib]),
            "chi": chi, "chibar": chibar, "p": p, "n": ia.size}


def pairwise_reports(series_map, lags=(-1, 0, 1), p=0.05, models=None):
    """Dependence table rows for every site pair, lag and margin type.

    ``models`` maps site id to a fitted SkewSurgeModel; uniform-margin
    rows are emitted only for pairs where both sites have one. Rows are
    dicts keyed pair/lag/margin/tau/chi/chibar/n, ordered by site pair,
    margin (raw, then uniform), then lag.

    Each site's day index (its days' first rows and slot table, see
    :class:`_DayIndex`) is built once, with its raw daily maxima, and the
    uniform margin's daily maxima are reduced over the same index, so a
    site's days are found once for both margins.

    The rows run on a thread pool with one worker per CPU the process may
    run on (``os.sched_getaffinity``, else ``os.cpu_count``), at most one
    per row, each in a copy of the caller's context (so an ``np.errstate``
    around the call holds in every row). The calling thread builds the
    raw daily maxima, site by site; the uniform margins are then the
    pool's first task, built one site at a time in the same kind of copy,
    and the calling thread submits the raw rows. From then on it only
    waits, for the margins to submit the uniform rows and for the rows, so
    no more threads are busy than the pool has workers. The rows and their
    order do not depend on the number of workers. A failing margin raises
    before any row, the first failing site's error, raw margins first; of
    several failing rows the first in row order raises.
    """
    sites = sorted(series_map)
    pairs = list(itertools.combinations(sites, 2))
    modelled = [site for site in sites if models and site in models]
    modelled_pairs = list(itertools.combinations(modelled, 2))
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)

    def run(pool, task, *args):
        return pool.submit(contextvars.copy_context().run, task, *args)

    def submit(pool, margin, daily, site_pairs):
        return {(sa, sb): [
            run(pool, _row, daily[sa], daily[sb], lag, p,
                series_map[sa].site_id, series_map[sb].site_id,
                f"{sa}-{sb}", margin)
            for lag in lags] for sa, sb in site_pairs}

    # each site's day index and raw daily maxima, before any task starts
    raw = {site: _daily_max(series_map[site])
           for site in (sites if pairs else [])}

    def uniform_margins():
        return {site: _daily_max(pit_transform(series_map[site],
                                               models[site]),
                                 raw[site].index)
                for site in (modelled if modelled_pairs else [])}

    n_rows = len(lags) * (len(pairs) + len(modelled_pairs))
    with ThreadPoolExecutor(max(1, min(cpus, n_rows))) as pool:
        uniform = run(pool, uniform_margins)
        raw_rows = submit(pool, "raw", raw, pairs)
        uniform_rows = submit(pool, "uniform", uniform.result(),
                              modelled_pairs)
        return [task.result() for pair in pairs
                for margin in (raw_rows, uniform_rows)
                for task in margin.get(pair, ())]
