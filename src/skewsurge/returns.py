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

Return levels invert the CDF by bisection. The target can be a step
function (for example with a degenerate surge distribution), so after the
iteration cap the upper end of the bracket is returned; for continuous
cases the probability tolerance is met long before the cap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exi import exi_curve

RETURN_LEVEL_TOL = 1e-6
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


def powered_cdf(cdf_values, theta):
    """Elementwise cdf**theta computed in log space; zero stays zero."""
    cdf_values = np.asarray(cdf_values, dtype=float)
    theta = np.broadcast_to(np.asarray(theta, dtype=float), cdf_values.shape)
    out = np.zeros_like(cdf_values)
    pos = cdf_values > 0.0
    with np.errstate(divide="ignore"):
        out[pos] = np.exp(theta[pos] * np.log(cdf_values[pos]))
    return out


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


def _invert(p, f, calendar):
    """Solve f(z) = 1 - p by bisection on [min tide - 1, max tide + 10]."""
    if not 1e-6 <= p <= 0.5:
        raise ValueError(f"annual exceedance probability {p} outside [1e-6, 0.5]")
    target = 1.0 - p
    lo = float(calendar.tide.min()) - 1.0
    hi = float(calendar.tide.max()) + 10.0
    f_lo, f_hi = f(lo), f(hi)
    if f_lo > target or f_hi < target:
        raise ValueError(
            f"no bracket for p={p}: cdf({lo:.3f})={f_lo:.6f}, "
            f"cdf({hi:.3f})={f_hi:.6f}"
        )
    for _ in range(RETURN_LEVEL_MAX_ITER):
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if abs(f_mid - target) < RETURN_LEVEL_TOL:
            return mid
        if f_mid < target:
            lo = mid
        else:
            hi = mid
    return hi


def return_level(p, model, calendar, exi_model=None, scenario=None):
    """Level exceeded by the annual maximum with probability p.

    Solves annual_max_cdf(z) = 1 - p by bisection on
    [min tide - 1, max tide + 10]; raises when the target lies outside
    that bracket.
    """
    return _invert(p, _annual_max(model, calendar, exi_model, scenario),
                   calendar)


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
    """Return levels for each probability in the grid, monotonicity checked."""
    p_grid = np.asarray(p_grid, dtype=float)
    if p_grid.ndim != 1 or p_grid.size == 0:
        raise ValueError("p grid must be a nonempty 1-D array")
    f = _annual_max(model, calendar, exi_model, scenario)
    z = np.array([_invert(p, f, calendar) for p in p_grid])
    order = np.argsort(p_grid)
    if np.any(np.diff(z[order]) > 1e-9):
        raise RuntimeError("return levels not nonincreasing in p")
    return ReturnCurve(p=p_grid, z=z)
