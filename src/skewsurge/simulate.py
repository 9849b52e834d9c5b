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
    standardize_year,
    standardizers,
)
from .tail import GMT_FAMILIES, TailParams, _gpd_quantile, rate_at, scale_at

CYCLE_MINUTES = 745.0  # 12 h 25 min
SPRING_NEAP_DAYS = 14.77


def _no_instant(start):
    """Whether numpy reads no date and time from ``start``."""
    try:
        return bool(np.isnat(np.datetime64(start, "s")))
    except ValueError:
        return True


# SimSpec's ranges: each field's test of a refused value and the reason. A
# record needs two cycles and a tide that varies, for its standardizers.
_REFUSED = {"n_cycles": (lambda v: v < 2, "must be >= 2"),
            "start": (_no_instant, "must be a date and time numpy reads"),
            "site_id": (lambda v: not v.strip(), "must not be blank"),
            "tide_amp": (lambda v: v <= 0, "must be positive"),
            "body_sd": (lambda v: v <= 0, "must be positive")}


def _in_range(name, value):
    """The value of SimSpec's field ``name``, refused outside its range."""
    refused, reason = _REFUSED[name]
    if refused(value):
        raise ValueError(f"{name} {reason}")
    return value


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
    body_mean: float = 0.0
    body_sd: float = 0.1
    gmt: GmtSeries | None = None

    def __post_init__(self):
        for name in _REFUSED:
            _in_range(name, getattr(self, name))
        if isinstance(self.thresholds, (int, float)):
            self.thresholds = MonthlyThresholds(
                np.full(12, float(self.thresholds)))


def simulate_series(spec, seed):
    """Generate one SiteSeries from a SimSpec and a seed.

    Returns (series, params) where ``params`` is the spec's truth with the
    standardizers (tide mean/sd, monthly mean day-of-month) replaced by
    the generated record's own values. The series comes back with its GMT
    anomaly attached when the families use it.
    """
    from scipy.special import ndtr, ndtri  # here: scipy is slow to import

    n = spec.n_cycles
    step = np.timedelta64(int(round(CYCLE_MINUTES * 60)), "s")
    t0 = np.datetime64(spec.start, "s")
    timestamps = t0 + step * np.arange(n)
    t_days = (CYCLE_MINUTES / (60.0 * 24.0)) * np.arange(n)
    tide = spec.tide_mean + spec.tide_amp * np.cos(
        2.0 * np.pi * t_days / SPRING_NEAP_DAYS
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
    )
    rate_eff = replace(spec.params.rate,
                       **standardizers(tide, month, day_of_month)._asdict())
    params_eff = TailParams(rate=rate_eff, scale=spec.params.scale, xi=spec.params.xi)

    lam = rate_at(rate_eff, day_of_year, day_of_month, month, tide,
                  year_std=standardize_year(year), gmt=series.gmt)
    sigma = scale_at(spec.params.scale, day_of_year, tide,
                     year_std=standardize_year(year), gmt=series.gmt)
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
    excess = _gpd_quantile(w, spec.params.xi, sigma)

    cap = ndtr((u - spec.body_mean) / spec.body_sd)
    body = spec.body_mean + spec.body_sd * ndtri(u_body * cap)

    surge = np.where(exceed, u + excess, body)
    return replace(series, max_sea_level=tide + surge, skew_surge=surge), params_eff
