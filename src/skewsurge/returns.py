"""Annual-maximum sea-level distribution and return levels.

The annual-maximum CDF at level z averages, over observed years, the
product across that year's tidal cycles of the conditional skew-surge CDF
evaluated at z minus the cycle's peak tide, each factor raised to the
extremal index at that level to discount within-cluster dependence
(the skew-surge joint probability method).

The engine works in log survival. Along a curve only the level z
changes, so each of :func:`annual_max_cdf`, :func:`return_level` and
:func:`return_curve` builds once the cycles' log CDF at a sea level
(``model._level_log_cdf`` of a SkewSurgeModel), the extremal index at a
level (:func:`exi_at_level`) and the year starts. One evaluation is
log F times theta, one ``np.add.reduceat`` slice per year (the layout
:class:`TideSampleCalendar` checks) and the annual exceedance 1 - A as
the years' mean of -expm1(log A_year), never 1 - F. A zero factor sends
its year to zero, under theta = 0 too.

Return levels solve h(z) = log(1 - A(z)) - log p = 0, the log of the
engine's exceedance, near linear in z in the tail, until |h| < 1e-9, i.e.
the exceedance is within 1e-9 p of p. A curve solves its grid from the
largest p down, each level the lower end of the next bracket. The first
bracket starts just above max(tide + u_j), the engine's ``top_edge``,
where no cycle searches the body, unless the exceedance there is below
the largest p. From the third level on, the first probe is z extrapolated
in log p through the last (up to three) solved levels, the second a
Newton step on that polynomial's slope, then secant steps on the two
newest probes, each kept while it falls inside the bracket and the
exceedance is positive: about three evaluations per level. Otherwise, and
from then on, regula falsi with Anderson-Bjorck scaling of an end kept
twice (a bisection step where the exceedance is 0 makes h -inf). After
the iteration cap the bracket's upper end is returned, for targets that
are step functions (a degenerate surge distribution). A nan exceedance
is an error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exi import exi_at_level

RETURN_LEVEL_TOL = 1e-6  # |F - (1 - p)| every level meets, with room
RETURN_LEVEL_LOG_TOL = 1e-9
RETURN_LEVEL_MAX_ITER = 200


@dataclass
class Scenario:
    """Covariate values held fixed across the synthetic year.

    The annual-maximum construction treats the year as stationary given
    its covariates, so trend terms are evaluated at these fixed values
    rather than per cycle. Leave a field None when the fitted families do
    not use it.
    """

    year_std: float | None = None
    gmt: float | None = None


@dataclass
class TideSampleCalendar:
    """Observed peak tides with calendar tags, grouped by complete year.

    Flat arrays of equal length, ordered year-major: ``year_index`` maps
    each element to its position in ``years``, does not decrease, and
    runs from 0 to ``n_years - 1`` without a gap, so every year holds at
    least one cycle. The annual-maximum engine sums each year as one
    contiguous slice and relies on this layout; other layouts are
    rejected. Only years with all twelve months present qualify.
    """

    years: np.ndarray
    month: np.ndarray
    day_of_month: np.ndarray
    day_of_year: np.ndarray
    tide: np.ndarray
    year_index: np.ndarray

    def __post_init__(self):
        n = len(self.tide)
        if any(len(a) != n for a in (self.month, self.day_of_month,
                                     self.day_of_year, self.year_index)):
            raise ValueError("calendar arrays must have equal lengths")
        steps = np.diff(self.year_index)
        if (n == 0 or self.year_index[0] != 0
                or self.year_index[-1] != len(self.years) - 1
                or np.any((steps != 0) & (steps != 1))):
            raise ValueError(
                "calendar must be year-major with every year present: "
                "year_index must step by 0 or 1 from 0 to n_years - 1")

    @classmethod
    def from_series(cls, series):
        """Build a calendar from a site record, keeping complete years only."""
        years, year_of = np.unique(series.year, return_inverse=True)
        has_month = np.zeros((years.size, 13), dtype=bool)
        has_month[year_of, series.month] = True
        years = years[has_month[:, 1:].all(axis=1)]
        if not years.size:
            raise ValueError(
                f"site {series.site_id}: no year has all twelve months"
            )
        keep = np.isin(series.year, years)
        order = np.argsort(series.timestamps[keep], kind="stable")
        year_kept = series.year[keep][order]
        return cls(
            years=years,
            month=series.month[keep][order],
            day_of_month=series.day_of_month[keep][order],
            day_of_year=series.day_of_year[keep][order],
            tide=series.peak_tide[keep][order],
            year_index=np.searchsorted(years, year_kept),
        )

    @property
    def n_years(self):
        return len(self.years)

    def cycles_per_year(self):
        return np.bincount(self.year_index, minlength=self.n_years)


def _annual_max(model, calendar, exi_model, scenario):
    """z -> P(annual maximum > z), with everything that does not depend on
    z built once. Its ``top_edge`` is the log CDF's max(tide + u_j), above
    which no cycle searches the body."""
    if scenario is None:
        scenario = Scenario()
    log_cdf = model._level_log_cdf(
        calendar.day_of_year, calendar.day_of_month, calendar.month,
        calendar.tide, year_std=scenario.year_std, gmt=scenario.gmt)
    theta = None if exi_model is None else exi_at_level(exi_model,
                                                        calendar.tide)
    year_starts = np.searchsorted(calendar.year_index,
                                  np.arange(calendar.n_years))
    weighted = np.empty(calendar.tide.shape)

    def exceedance(z):
        log_f = log_cdf(z)
        if theta is None:
            log_year = np.add.reduceat(log_f, year_starts)
        else:
            with np.errstate(invalid="ignore"):  # theta 0 times log F = -inf
                np.multiply(log_f, theta(z), out=weighted)
            log_year = np.add.reduceat(weighted, year_starts)
            if np.isnan(log_year).any():  # a zero factor keeps its year 0
                log_year[np.add.reduceat(log_f, year_starts) == -np.inf] = -np.inf
        return float(-np.expm1(log_year).mean())

    exceedance.top_edge = log_cdf.top_edge
    return exceedance


def annual_max_cdf(z, model, calendar, exi_model=None, scenario=None):
    """P(annual maximum sea level <= z) under the fitted models: one minus
    the engine's annual exceedance probability.

    ``model`` is a SkewSurgeModel; ``exi_model`` of None means an
    extremal index of one everywhere. ``scenario`` fixes trend covariates
    for the whole synthetic year.
    """
    return 1.0 - _annual_max(model, calendar, exi_model, scenario)(z)


def _predicted(solved, log_p, probes):
    """The next probe of a level from the (log p, z) of the levels solved
    before it: their polynomial through the last three at log p, then a
    Newton step on its slope, then secant steps on the two newest of the
    ``probes`` (z, h); None where a secant has no slope."""
    (t1, z1), (t2, z2) = solved[-2:]
    slope, curve = (z2 - z1) / (t2 - t1), 0.0
    if len(solved) > 2:
        t0, z0 = solved[-3]
        curve = (slope - (z1 - z0) / (t1 - t0)) / (t2 - t0)
    if not probes:
        return z2 + (log_p - t2) * (slope + curve * (log_p - t1))
    if len(probes) == 1:
        c, h = probes[0]
        return c - h * (slope + curve * (2.0 * log_p - t1 - t2))
    (c1, h1), (c2, h2) = probes[-2:]
    return None if h2 == h1 else c2 - h2 * (c2 - c1) / (h2 - h1)


def _invert(p, f, lo, hi, solved):
    """(z, f(z)) with the exceedance f(z) = p, from (z, f(z)) ends with
    f(hi) <= p; ``lo`` if f(lo) is at most p. With two or more levels in
    ``solved``, the probes start as :func:`_predicted` and are kept while
    each falls inside the bracket and finds a positive exceedance; after
    that, or without them, Anderson-Bjorck on h = log f - log p. On a step
    of f across p (the body's staircase) it stops at a one-ulp bracket."""
    log_p = math.log(p)

    def h(z, q):  # -inf where the exceedance is 0, without taking log(0)
        if q > 0.0:
            return math.log(q) - log_p
        if q == 0.0:
            return -math.inf
        raise ValueError(f"annual exceedance is {q} at z = {z:.6g}")
    (a, f_a), (b, f_b) = lo, hi
    h_a, h_b, side = h(a, f_a), h(b, f_b), 0  # side: +1 after a moved, -1 after b
    if h_a < RETURN_LEVEL_LOG_TOL:
        return lo
    probes, predicting = [], len(solved) > 1
    for _ in range(RETURN_LEVEL_MAX_ITER):
        if b <= math.nextafter(a, math.inf):  # no float left between the ends
            break
        if predicting:
            c = _predicted(solved, log_p, probes)
            predicting = c is not None and a < c < b
        if not predicting:
            c = 0.5 * (a + b) if h_b == -math.inf else b - h_b * (b - a) / (h_b - h_a)
        f_c = f(c)
        h_c = h(c, f_c)
        if abs(h_c) < RETURN_LEVEL_LOG_TOL:
            return c, f_c
        probes.append((c, h_c))
        predicting = predicting and h_c > -math.inf
        # Anderson-Bjorck: an end kept twice has its h scaled by
        # m = 1 - h_c / h(end c replaces), or halved where m <= 0 or is nan.
        if h_c > 0.0:
            m = 1.0 - h_c / h_a if side > 0 else 1.0
            h_b *= m if m > 0.0 else 0.5
            a, h_a, side = c, h_c, 1
        else:
            m = 1.0 - h_c / h_b if side < 0 else 1.0
            h_a *= m if m > 0.0 else 0.5
            b, f_b, h_b, side = c, f_c, h_c, -1
    return b, f_b


def return_level(p, model, calendar, exi_model=None, scenario=None):
    """Level exceeded by the annual maximum with probability p (see
    :func:`return_curve`)."""
    return float(return_curve([p], model, calendar, exi_model, scenario).z[0])


@dataclass
class ReturnCurve:
    """Return levels over a grid of annual exceedance probabilities."""

    p: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float)
        self.z = np.asarray(self.z, dtype=float)
        if self.p.shape != self.z.shape:
            raise ValueError("p and z must have matching shapes")

    def rows(self):
        """(p, return period in years, level) triples, smallest p first."""
        order = np.argsort(self.p)
        return [
            (float(self.p[i]), float(1.0 / self.p[i]), float(self.z[i]))
            for i in order
        ]

    def to_dict(self):
        return {"p": self.p.tolist(), "z_m": self.z.tolist()}


def return_curve(p_grid, model, calendar, exi_model=None, scenario=None):
    """Return levels for each probability in the grid, monotonicity checked.

    Solves annual_max_cdf(z) = 1 - p from the largest p down, each level
    the lower end of the next bracket. The first bracket is [just above
    max(tide + u_j), max tide + 10], which no body search reaches, or
    [min tide - 1, max tide + 10] where the exceedance just above
    max(tide + u_j) is below the grid's largest p; raises when a target
    lies outside it, or where the exceedance is nan.
    """
    p = np.asarray(p_grid, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p grid must be a nonempty 1-D array")
    outside = ~((p >= 1e-6) & (p <= 0.5))
    if outside.any():
        raise ValueError(
            f"annual exceedance probability {p[outside][0]} outside [1e-6, 0.5]")
    f = _annual_max(model, calendar, exi_model, scenario)

    def at(z):
        return z, f(z)
    hi = at(float(calendar.tide.max()) + 10.0)
    lo = at(math.nextafter(f.top_edge, math.inf))  # every cycle in its tail
    if not lo[1] >= p.max():
        lo = at(float(calendar.tide.min()) - 1.0)
    if lo[1] < p.max() or hi[1] > p.min():
        raise ValueError(
            f"no bracket for p={p.max() if lo[1] < p.max() else p.min()}: "
            f"exceedance {lo[1]:.6g} at {lo[0]:.3f}, {hi[1]:.6g} at {hi[0]:.3f}")
    z, solved = np.empty_like(p), []  # solved: (log p, z), distinct p
    for i in np.argsort(-p, kind="stable"):
        lo, log_p = _invert(p[i], f, lo, hi, solved), math.log(p[i])
        z[i] = lo[0]
        if not solved or solved[-1][0] != log_p:
            solved.append((log_p, lo[0]))
    if np.any(np.diff(z[np.argsort(p)]) > 1e-9):
        raise RuntimeError("return levels not nonincreasing in p")
    return ReturnCurve(p=p, z=z)
