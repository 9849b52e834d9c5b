"""Annual-maximum sea-level distribution and return levels.

The annual-maximum CDF at level z averages, over observed years, the
product across that year's tidal cycles of the conditional skew-surge CDF
evaluated at z minus the cycle's peak tide, each factor raised to the
extremal index at that level to discount within-cluster dependence
(the skew-surge joint probability method).

Nothing about a cycle but its surge y = z - tide depends on z, so the
engine builds the calendar's conditional CDF once per call of
:func:`annual_max_cdf`, :func:`return_level` or :func:`return_curve`
(``model.conditional``: thresholds, rate, scale and body cells) together
with the extremal-index curve. Each evaluation is then one pass over the
cycles: theta * log F per cycle, -inf where F = 0, summed by year with a
``bincount``. A cycle whose factor is exactly zero sends its whole year
to zero.

``model`` needs only ``conditional(d, d_j, j, x, year_std, gmt)``
returning a function y -> F, so a stand-in distribution can replace a
fitted SkewSurgeModel.

Return levels solve h(z) = log(1 - F(z)) - log p = 0, near linear in z
in the tail, by regula falsi with Anderson-Bjorck scaling of an end kept
twice (a bisection step where F = 1 makes h -inf) until |h| < 1e-9, i.e.
|F - (1 - p)| < 1e-9 p. A curve solves its grid from the largest p down,
each level the lower end of the next bracket. After the iteration cap the
bracket's upper end is returned, for targets that are step functions (a
degenerate surge distribution).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exi import exi_curve

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

    Flat arrays ordered year-major; ``year_index`` maps each element to
    its position in ``years``. Only years with all twelve months present
    qualify.
    """

    years: np.ndarray
    month: np.ndarray
    day_of_month: np.ndarray
    day_of_year: np.ndarray
    tide: np.ndarray
    year_index: np.ndarray

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
    """z -> P(annual maximum <= z), with everything that does not depend on
    z built once."""
    if scenario is None:
        scenario = Scenario()
    cdf = model.conditional(
        calendar.day_of_year,
        calendar.day_of_month,
        calendar.month,
        calendar.tide,
        year_std=scenario.year_std,
        gmt=scenario.gmt,
    )
    theta = None if exi_model is None else exi_curve(exi_model)

    def f(z):
        y = z - calendar.tide
        factor = cdf(y)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_factor = np.log(factor)
            if theta is not None:
                # -inf where F = 0, also where theta = 0 makes the product nan.
                log_factor = np.where(factor > 0.0, theta(y) * log_factor,
                                      -np.inf)
        log_year = np.bincount(calendar.year_index, weights=log_factor,
                               minlength=calendar.n_years)
        return float(np.exp(log_year).mean())

    return f


def annual_max_cdf(z, model, calendar, exi_model=None, scenario=None):
    """P(annual maximum sea level <= z) under the fitted models.

    ``model`` is a SkewSurgeModel; ``exi_model`` of None means an
    extremal index of one everywhere. ``scenario`` fixes trend covariates
    for the whole synthetic year.
    """
    return _annual_max(model, calendar, exi_model, scenario)(z)


def _invert(p, f, lo, hi):
    """(z, f(z)) with f(z) = 1 - p, by Anderson-Bjorck on
    h = log(1 - f) - log p from (z, f(z)) ends with f(hi) >= 1 - p; ``lo``
    if f(lo) reaches 1 - p."""
    def h(cdf_value):  # -inf where F = 1, without taking log(0)
        return math.log1p(-cdf_value) - math.log(p) if cdf_value < 1.0 else -math.inf
    (a, f_a), (b, f_b) = lo, hi
    h_a, h_b, side = h(f_a), h(f_b), 0  # side: +1 after a moved, -1 after b
    if h_a < RETURN_LEVEL_LOG_TOL:
        return lo
    for _ in range(RETURN_LEVEL_MAX_ITER):
        c = 0.5 * (a + b) if h_b == -math.inf else b - h_b * (b - a) / (h_b - h_a)
        f_c = f(c)
        h_c = h(f_c)
        if abs(h_c) < RETURN_LEVEL_LOG_TOL:
            return c, f_c
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

    Solves annual_max_cdf(z) = 1 - p on [min tide - 1, max tide + 10], from
    the largest p down; raises when a target lies outside that bracket.
    """
    p = np.asarray(p_grid, dtype=float)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("p grid must be a nonempty 1-D array")
    outside = ~((p >= 1e-6) & (p <= 0.5))
    if outside.any():
        raise ValueError(
            f"annual exceedance probability {p[outside][0]} outside [1e-6, 0.5]")
    f = _annual_max(model, calendar, exi_model, scenario)
    lo, hi = float(calendar.tide.min()) - 1.0, float(calendar.tide.max()) + 10.0
    lo, hi = (lo, f(lo)), (hi, f(hi))
    if lo[1] > 1.0 - p.max() or hi[1] < 1.0 - p.min():
        raise ValueError(
            f"no bracket for p={p.max() if lo[1] > 1.0 - p.max() else p.min()}: "
            f"cdf({lo[0]:.3f})={lo[1]:.6f}, cdf({hi[0]:.3f})={hi[1]:.6f}")
    z = np.empty_like(p)
    for i in np.argsort(-p, kind="stable"):
        lo = _invert(p[i], f, lo, hi)
        z[i] = lo[0]
    if np.any(np.diff(z[np.argsort(p)]) > 1e-9):
        raise RuntimeError("return levels not nonincreasing in p")
    return ReturnCurve(p=p, z=z)
