"""Synthetic tidal-cycle generator for the skew-surge tail model.

Cycles arrive every 12 h 25 min from a chosen start instant; the peak tide
follows a spring-neap cosine. Each cycle draws a threshold-exceedance
indicator from the rate model, the excess of an exceedance from the GPD
via an Exp(1) draw, and a below-threshold surge from a Normal truncated
at the monthly threshold. The three random streams are each drawn
full-length up front in a fixed order, so the values any one cycle sees
do not depend on the outcomes of other cycles.

The tide and calendar standardizers stored on the returned parameters are
recomputed from the generated record, which keeps the simulated truth in
the same parameterization a later fit of that record estimates.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .data import (
    GmtSeries,
    MonthlyThresholds,
    SiteSeries,
    attach_covariates,
    calendar_columns,
    standardizers,
)
from .tail import GMT_FAMILIES, XI_ZERO_TOL, TailParams, rate_at, scale_at

CYCLE_MINUTES = 745.0  # 12 h 25 min
SPRING_NEAP_DAYS = 14.77


@dataclass
class SimSpec:
    """Everything that defines one synthetic record except the seed."""

    params: TailParams
    thresholds: MonthlyThresholds
    n_cycles: int
    start: str = "1950-01-01T00:00"
    site_id: str = "SIM"
    tide_mean: float = 3.0
    tide_amp: float = 1.0
    tide_period_days: float = SPRING_NEAP_DAYS
    cycle_minutes: float = CYCLE_MINUTES
    body_mean: float = 0.0
    body_sd: float = 0.1
    mid_year: int = 1968
    half_range: float = 53.0
    gmt: GmtSeries | None = None

    def __post_init__(self):
        if self.n_cycles < 1:
            raise ValueError("n_cycles must be >= 1")
        if self.tide_amp < 0 or self.tide_period_days <= 0:
            raise ValueError("bad tide settings")
        if self.cycle_minutes <= 0:
            raise ValueError("cycle_minutes must be positive")
        if self.body_sd <= 0:
            raise ValueError("body_sd must be positive")
        if isinstance(self.thresholds, (int, float)):
            self.thresholds = MonthlyThresholds(
                values=np.full(12, float(self.thresholds)), percentile=None
            )


def simulate_series(spec, seed):
    """Generate one SiteSeries from a SimSpec and a seed.

    Returns (series, params) where ``params`` is the spec's truth with the
    standardizers (tide mean/sd, monthly mean day-of-month) replaced by
    the generated record's own values. The series comes back with its
    covariate columns already attached.
    """
    from scipy.special import ndtr, ndtri  # here: scipy is slow to import

    n = spec.n_cycles
    step = np.timedelta64(int(round(spec.cycle_minutes * 60)), "s")
    t0 = np.datetime64(spec.start, "s")
    timestamps = t0 + step * np.arange(n)
    t_days = (spec.cycle_minutes / (60.0 * 24.0)) * np.arange(n)
    tide = spec.tide_mean + spec.tide_amp * np.cos(
        2.0 * np.pi * t_days / spec.tide_period_days
    )

    year, month, day_of_month, day_of_year = calendar_columns(timestamps)

    rf = spec.params.rate.family
    sf = spec.params.scale.family
    needs_gmt = rf in GMT_FAMILIES or sf in GMT_FAMILIES
    if needs_gmt and spec.gmt is None:
        raise ValueError(f"families {rf}/{sf} need a GMT series in the spec")
    # The surge columns are filled in once the cycles are drawn.
    series = attach_covariates(
        SiteSeries(
            site_id=spec.site_id,
            timestamps=timestamps,
            peak_tide=tide,
            max_sea_level=tide,
            skew_surge=np.zeros(n),
            year=year,
            month=month,
            day_of_month=day_of_month,
            day_of_year=day_of_year,
        ),
        gmt=spec.gmt if needs_gmt else None,
        mid_year=spec.mid_year,
        half_range=spec.half_range,
    )
    rate_eff = replace(spec.params.rate,
                       **standardizers(tide, month, day_of_month)._asdict())
    params_eff = TailParams(rate=rate_eff, scale=spec.params.scale, xi=spec.params.xi)

    lam = rate_at(rate_eff, day_of_year, day_of_month, month, tide,
                  year_std=series.year_std, gmt=series.gmt)
    sigma = scale_at(spec.params.scale, day_of_year, tide,
                     year_std=series.year_std, gmt=series.gmt)
    if np.min(sigma) <= 0.0:
        k = int(np.argmin(sigma))
        raise ValueError(
            f"scale model nonpositive ({sigma[k]:.4g}) at cycle {k}; "
            "adjust the spec parameters"
        )
    u = spec.thresholds.for_month(month)

    rng = np.random.default_rng(seed)
    u_ind = rng.random(n)
    w = np.maximum(rng.exponential(size=n), 1e-12)
    u_body = np.clip(rng.random(n), 1e-12, 1.0)

    exceed = u_ind < lam
    xi = spec.params.xi
    if abs(xi) < XI_ZERO_TOL:
        excess = sigma * w
    else:
        excess = sigma * np.expm1(xi * w) / xi

    cap = ndtr((u - spec.body_mean) / spec.body_sd)
    body = spec.body_mean + spec.body_sd * ndtri(u_body * cap)

    surge = np.where(exceed, u + excess, body)
    return replace(series, max_sea_level=tide + surge, skew_surge=surge), params_eff
