"""Tidal-cycle record handling: loading, cleaning, thresholds and covariates.

The unit of observation is one tidal cycle (two per day, roughly 705.5 per
year) with its predicted peak tide and the observed maximum sea level. The
skew surge is the difference between the two, irrespective of timing within
the cycle. Everything downstream (empirical body, GPD tail, return curves)
consumes the column-store :class:`SiteSeries` built here.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import NamedTuple

import numpy as np

GAUGE_HEADER = ["site", "timestamp", "peak_tide_m", "max_sea_level_m", "skew_surge_m"]
GMT_HEADER = ["year", "anomaly_c"]

# Non-leap cumulative days before each month; day-of-year is always mapped
# onto a 365-day calendar (Feb 29 collapses onto day 59).
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_MONTH_CUM = np.concatenate([[0], np.cumsum(_DAYS_IN_MONTH)])[:12]

SEASONS = ("winter", "spring", "summer", "autumn")
# December belongs to winter (DJF / MAM / JJA / SON).
SEASON_OF_MONTH = {
    12: "winter", 1: "winter", 2: "winter",
    3: "spring", 4: "spring", 5: "spring",
    6: "summer", 7: "summer", 8: "summer",
    9: "autumn", 10: "autumn", 11: "autumn",
}
SEASON_INDEX = {name: i for i, name in enumerate(SEASONS)}
# Season index per month, usable as a lookup table with month values 1..12.
SEASON_INDEX_OF_MONTH = np.array(
    [-1] + [SEASON_INDEX[SEASON_OF_MONTH[m]] for m in range(1, 13)]
)


def day_of_year_365(month, day):
    """Day-of-year on a fixed 365-day calendar.

    Feb 29 maps to day 59 (same as Feb 28) so that later days keep the
    non-leap numbering; the result is always in 1..365.
    """
    month = np.asarray(month)
    day = np.asarray(day)
    capped = np.minimum(day, _DAYS_IN_MONTH[month - 1])
    return _MONTH_CUM[month - 1] + capped


def month_of_day(d):
    """Inverse of :func:`day_of_year_365`: month (1..12) containing day d."""
    d = np.asarray(d)
    return np.searchsorted(_MONTH_CUM, d, side="left")


def season_of_day(d):
    """Season index (0=winter, 1=spring, 2=summer, 3=autumn) for day-of-year d."""
    return SEASON_INDEX_OF_MONTH[month_of_day(d)]


def standardize_year(year, mid_year=1968, half_range=53):
    """Map calendar year onto a dimensionless index (year - mid) / half_range."""
    if half_range <= 0:
        raise ValueError("half_range must be positive")
    return (np.asarray(year, dtype=float) - mid_year) / half_range


def calendar_columns(timestamps):
    """(year, month, day_of_month, day_of_year) arrays from datetime64 stamps."""
    ts = np.asarray(timestamps, dtype="datetime64[s]")
    year = ts.astype("datetime64[Y]").astype(int) + 1970
    month = ts.astype("datetime64[M]").astype(int) % 12 + 1
    day = (ts.astype("datetime64[D]") - ts.astype("datetime64[M]")).astype(int) + 1
    return year, month, day, day_of_year_365(month, day)


@dataclass
class TidalCycleRecord:
    """One tidal cycle at one site."""

    site: str
    timestamp: datetime
    peak_tide: float
    max_sea_level: float
    skew_surge: float


@dataclass
class SiteSeries:
    """Column store of tidal cycles for one site, sorted by timestamp.

    Covariate columns (``year_std``, ``gmt``) are absent until
    :func:`attach_covariates` fills them in; they describe the series they
    were computed from, so :meth:`subset` drops them.
    """

    site_id: str
    timestamps: np.ndarray  # datetime64[s], UTC
    peak_tide: np.ndarray
    max_sea_level: np.ndarray
    skew_surge: np.ndarray
    year: np.ndarray
    month: np.ndarray
    day_of_month: np.ndarray
    day_of_year: np.ndarray
    msl_trend_rate: float | None = None  # mm/year already removed
    reference_year: int | None = None
    year_std: np.ndarray | None = None
    gmt: np.ndarray | None = None

    def __len__(self):
        return len(self.timestamps)

    def subset(self, mask):
        """Row subset; attached covariates are discarded."""
        return SiteSeries(
            site_id=self.site_id,
            timestamps=self.timestamps[mask],
            peak_tide=self.peak_tide[mask],
            max_sea_level=self.max_sea_level[mask],
            skew_surge=self.skew_surge[mask],
            year=self.year[mask],
            month=self.month[mask],
            day_of_month=self.day_of_month[mask],
            day_of_year=self.day_of_year[mask],
            msl_trend_rate=self.msl_trend_rate,
            reference_year=self.reference_year,
        )

    def records(self):
        """Yield rows as :class:`TidalCycleRecord` (timestamps as naive UTC)."""
        stamps = self.timestamps.astype("datetime64[s]").tolist()
        for i, ts in enumerate(stamps):
            yield TidalCycleRecord(
                site=self.site_id,
                timestamp=ts,
                peak_tide=float(self.peak_tide[i]),
                max_sea_level=float(self.max_sea_level[i]),
                skew_surge=float(self.skew_surge[i]),
            )

    def summary(self):
        """Coverage summary: record counts overall, per month and per year."""
        months, month_counts = np.unique(self.month, return_counts=True)
        years, year_counts = np.unique(self.year, return_counts=True)
        return {
            "site": self.site_id,
            "n_cycles": int(len(self)),
            "first": str(self.timestamps.min()) if len(self) else None,
            "last": str(self.timestamps.max()) if len(self) else None,
            "per_month": {int(m): int(c) for m, c in zip(months, month_counts)},
            "per_year": {int(y): int(c) for y, c in zip(years, year_counts)},
        }


@dataclass
class GmtSeries:
    """Annual global mean temperature anomalies (deg C) keyed by year."""

    years: np.ndarray
    anomalies: np.ndarray

    def __post_init__(self):
        self.years = np.asarray(self.years, dtype=int)
        self.anomalies = np.asarray(self.anomalies, dtype=float)
        if len(self.years) != len(self.anomalies):
            raise ValueError("years and anomalies must have equal length")
        if len(np.unique(self.years)) != len(self.years):
            raise ValueError("duplicate years in GMT series")

    def anomaly_for(self, year):
        """Anomaly for each requested year; missing years raise KeyError."""
        year = np.atleast_1d(np.asarray(year, dtype=int))
        idx = {int(y): i for i, y in enumerate(self.years)}
        out = np.empty(len(year), dtype=float)
        for i, y in enumerate(year):
            if int(y) not in idx:
                raise KeyError(f"no GMT anomaly for year {int(y)}")
            out[i] = self.anomalies[idx[int(y)]]
        return out if out.size > 1 else float(out[0])


@dataclass
class MonthlyThresholds:
    """Per-month skew-surge thresholds u_j (metres), j = 1..12."""

    values: np.ndarray  # shape (12,)
    percentile: float = 0.95

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (12,):
            raise ValueError("expected 12 monthly threshold values")

    def for_month(self, month):
        """Threshold for month (1..12); accepts arrays."""
        return self.values[np.asarray(month) - 1]

    def to_dict(self):
        return {"percentile": self.percentile, "values": self.values.tolist()}

    @classmethod
    def from_dict(cls, d):
        return cls(values=np.asarray(d["values"]), percentile=d["percentile"])


def _parse_timestamp(text, line_no):
    # datetime.fromisoformat on 3.10 rejects a trailing 'Z'.
    try:
        dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError as exc:
        raise ValueError(f"line {line_no}: bad timestamp {text!r}: {exc}") from None
    if dt.tzinfo is not None:
        dt = dt.astimezone(timezone.utc).replace(tzinfo=None)
    return dt


def load_series(path):
    """Load a gauge CSV into one :class:`SiteSeries` per site.

    The file must carry the header
    ``site,timestamp,peak_tide_m,max_sea_level_m[,skew_surge_m]``; the
    skew-surge column is optional and computed as max sea level minus peak
    tide when absent or empty. Rows are sorted per site by timestamp;
    duplicate timestamps within a site are an error.

    Returns
    -------
    dict mapping site id to SiteSeries.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"gauge CSV not found: {path}")
    per_site: dict[str, list] = {}
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in header]
        if header not in (GAUGE_HEADER, GAUGE_HEADER[:4]):
            raise ValueError(
                f"{path}: unexpected header {header!r}; "
                f"expected {','.join(GAUGE_HEADER)} (skew_surge_m optional)"
            )
        has_ss = len(header) == 5
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise ValueError(f"{path} line {line_no}: expected {len(header)} fields")
            site = row[0].strip()
            if not site:
                raise ValueError(f"{path} line {line_no}: empty site id")
            ts = _parse_timestamp(row[1], line_no)
            try:
                tide = float(row[2])
                msl = float(row[3])
            except ValueError:
                raise ValueError(f"{path} line {line_no}: non-numeric level") from None
            if has_ss and row[4].strip():
                ss = float(row[4])
            else:
                ss = msl - tide
            per_site.setdefault(site, []).append((ts, tide, msl, ss))

    out = {}
    for site, rows in per_site.items():
        rows.sort(key=lambda r: r[0])
        stamps = np.array([r[0] for r in rows], dtype="datetime64[s]")
        if len(stamps) > 1 and (np.diff(stamps.astype("int64")) <= 0).any():
            i = int(np.argmax(np.diff(stamps.astype("int64")) <= 0))
            raise ValueError(f"site {site}: duplicate timestamp {stamps[i + 1]}")
        months = np.array([r[0].month for r in rows])
        days = np.array([r[0].day for r in rows])
        out[site] = SiteSeries(
            site_id=site,
            timestamps=stamps,
            peak_tide=np.array([r[1] for r in rows], dtype=float),
            max_sea_level=np.array([r[2] for r in rows], dtype=float),
            skew_surge=np.array([r[3] for r in rows], dtype=float),
            year=np.array([r[0].year for r in rows]),
            month=months,
            day_of_month=days,
            day_of_year=day_of_year_365(months, days),
        )
    return out


def write_series_csv(target, series, comment=None):
    """Write a SiteSeries (or list of them) in the gauge CSV format.

    ``target`` may be a path or a text file handle. ``comment`` (if given)
    is emitted first as a ``#``-prefixed line.
    """
    if isinstance(series, SiteSeries):
        series = [series]

    def _write(fh):
        if comment:
            fh.write(f"# {comment}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(GAUGE_HEADER)
        for s in series:
            for rec in s.records():
                writer.writerow([
                    rec.site,
                    rec.timestamp.strftime("%Y-%m-%dT%H:%M:%SZ"),
                    f"{rec.peak_tide:.6f}",
                    f"{rec.max_sea_level:.6f}",
                    f"{rec.skew_surge:.6f}",
                ])

    if isinstance(target, (str, Path)):
        with open(target, "w", newline="") as fh:
            _write(fh)
    else:
        _write(target)


def load_gmt(path):
    """Load an annual GMT anomaly CSV with header ``year,anomaly_c``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"GMT CSV not found: {path}")
    years, anoms = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(row for row in fh if not row.startswith("#"))
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != GMT_HEADER:
            raise ValueError(f"{path}: expected header {','.join(GMT_HEADER)}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                years.append(int(row[0]))
                anoms.append(float(row[1]))
            except (ValueError, IndexError):
                raise ValueError(f"{path} line {line_no}: bad GMT row") from None
    return GmtSeries(years=np.array(years), anomalies=np.array(anoms))


def detrend_msl(series, rate_mm_per_year, reference_year):
    """Remove a linear mean-sea-level trend from max sea level and skew surge.

    The adjustment is ``rate_mm_per_year * (year - reference_year) / 1000``
    subtracted from both columns, so records in the reference year are left
    unchanged and applying two detrends is the same as one with the summed
    rate. Peak tide is a prediction and is not touched.
    """
    adj = rate_mm_per_year * (series.year - reference_year) / 1000.0
    return replace(
        series,
        max_sea_level=series.max_sea_level - adj,
        skew_surge=series.skew_surge - adj,
        msl_trend_rate=(series.msl_trend_rate or 0.0) + rate_mm_per_year,
        reference_year=reference_year,
        year_std=None,
        gmt=None,
    )


def monthly_thresholds(series, percentile=0.95):
    """Empirical per-month skew-surge quantiles (linear interpolation).

    Every month 1..12 needs at least 30 observations for a usable
    quantile estimate.
    """
    if not 0.0 < percentile < 1.0:
        raise ValueError("percentile must be in (0, 1)")
    values = np.empty(12)
    for j in range(1, 13):
        ss = series.skew_surge[series.month == j]
        if ss.size < 30:
            raise ValueError(
                f"site {series.site_id}: month {j} has {ss.size} records; "
                "need >= 30 for a threshold"
            )
        values[j - 1] = np.quantile(ss, percentile)
    return MonthlyThresholds(values=values, percentile=percentile)


class Standardizers(NamedTuple):
    """Centering and scaling constants of the rate model's covariates."""

    tide_mean: float
    tide_sd: float
    month_mean_day: np.ndarray  # shape (12,), NaN where a month is absent


def standardizers(peak_tide, month, day_of_month):
    """Peak-tide mean and standard deviation, and the mean day-of-month of
    each month (the centering constant of the rate model's day term)."""
    peak_tide = np.asarray(peak_tide, dtype=float)
    if peak_tide.size == 0:
        raise ValueError("empty series")
    tide_sd = float(peak_tide.std())
    if tide_sd == 0.0:
        raise ValueError("peak tide has zero variance; cannot standardize")
    month_mean_day = np.full(12, np.nan)
    for j in range(1, 13):
        sel = month == j
        if sel.any():
            month_mean_day[j - 1] = day_of_month[sel].mean()
    return Standardizers(float(peak_tide.mean()), tide_sd, month_mean_day)


def attach_covariates(series, gmt=None, mid_year=1968, half_range=53):
    """Fill in covariate columns on a copy of the series.

    Adds the standardized year index and (when a GMT series is given) the
    per-record GMT anomaly. Records in years missing from the GMT series
    raise KeyError. A series the tail model cannot standardize (empty, or
    with a constant peak tide) raises ValueError.
    """
    standardizers(series.peak_tide, series.month, series.day_of_month)
    gmt_col = None
    if gmt is not None:
        gmt_col = np.asarray(
            [gmt.anomaly_for(int(y)) for y in np.unique(series.year)], dtype=float
        )
        lookup = dict(zip(np.unique(series.year), gmt_col))
        gmt_col = np.array([lookup[y] for y in series.year], dtype=float)
    return replace(
        series,
        year_std=standardize_year(series.year, mid_year, half_range),
        gmt=gmt_col,
    )
