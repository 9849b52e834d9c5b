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
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

GAUGE_HEADER = ["site", "timestamp", "peak_tide_m", "max_sea_level_m", "skew_surge_m"]
GMT_HEADER = ["year", "anomaly_c"]
_LEVELS = ("peak_tide_m", "max_sea_level_m")  # the gauge CSV's float fields

# Non-leap cumulative days before each month; day-of-year is always mapped
# onto a 365-day calendar (Feb 29 collapses onto day 59).
_DAYS_IN_MONTH = np.array([31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31])
_MONTH_CUM = np.concatenate([[0], np.cumsum(_DAYS_IN_MONTH)])[:12]

SEASONS = ("winter", "spring", "summer", "autumn")
# Index into SEASONS per month 1..12 (DJF / MAM / JJA / SON: December is
# winter), usable as a lookup table with month values.
SEASON_INDEX_OF_MONTH = np.array([-1, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3, 0])


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
    """(year, month, day_of_month, day_of_year) arrays from datetime64 stamps.

    Civil-from-days in integer arithmetic (H. Hinnant's algorithm) on days
    since 1970, counted in 400-year eras of years that start on March 1.
    """
    days = np.asarray(timestamps, dtype="datetime64[s]").view(np.int64) // 86400
    era, doe = np.divmod(days + 719468, 146097)  # day of era, 0..146096
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)  # from March 1, 0..365
    mp = (5 * doy + 2) // 153  # month from March, 0..11
    day = doy - (153 * mp + 2) // 5 + 1
    month = np.where(mp < 10, mp + 3, mp - 9)
    year = 400 * era + yoe + (month <= 2)
    return year, month, day, day_of_year_365(month, day)


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
        return replace(self, year_std=None, gmt=None, **{  # timestamps .. day_of_year
            f.name: getattr(self, f.name)[mask] for f in fields(self)[1:9]})

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
        missing = ~np.isin(year, self.years)
        if missing.any():
            raise KeyError(f"no GMT anomaly for year {year[missing][0]}")
        order = np.argsort(self.years)
        out = self.anomalies[order[np.searchsorted(self.years, year, sorter=order)]]
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


def _utc_stamps(text):
    """datetime64[s] UTC stamps from ISO 8601 byte strings: naive (UTC),
    or ending in ``Z`` or in a ``+HH:MM`` / ``-HH:MM`` offset (subtracted)."""
    text = np.char.strip(text)
    codes = text.view(np.uint8).reshape(len(text), -1)
    rows, end = np.arange(len(text)), np.char.str_len(text)
    if not (np.char.find(text, b"-") == 4).all():  # also rejects "now", "today"
        raise ValueError("not an ISO 8601 date and time (YYYY-MM-DD...)")
    zulu = codes[rows, end - 1] == ord("Z")
    codes[rows[zulu], end[zulu] - 1] = 0
    sign = codes[rows, np.maximum(end - 6, 0)]
    offset = (~zulu & (end > 6) & ((sign == ord("+")) | (sign == ord("-")))
              & (codes[rows, end - 3] == ord(":")))
    at, stop = rows[offset, None], end[offset, None]
    hh_mm = codes[at, stop + [-5, -4, -2, -1]].astype(np.int64) - ord("0")
    if ((hh_mm < 0) | (hh_mm > 9) | (hh_mm @ [10, 1, 0, 0] > 23)[:, None]
            | (hh_mm[:, 2:3] > 5)).any():
        raise ValueError("a UTC offset is +HH:MM or -HH:MM, below 24:00")
    minutes = np.where(sign[offset] == ord("-"), -1, 1) * (hh_mm @ [600, 60, 10, 1])
    codes[at, stop - np.arange(1, 7)] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on offsets it parses itself
        stamps = text.astype("datetime64[s]")
    stamps[offset] -= minutes * np.timedelta64(60, "s")
    return stamps


def _has_comment_line(fh):
    """Whether a line from ``fh``'s position (a line start) on is a comment,
    read in blocks that end at a line end. Most blocks hold no ``#``."""
    return any("#" in block and (block.startswith("#") or "\n#" in block)
               for block in iter(lambda: fh.read(1 << 16) + fh.readline(), ""))


def _parse_rows(lines, header, first_line):
    """The data rows as one structured array, parsed by numpy's C parser.

    ``lines()`` gives the data lines. Byte-string fields (latin-1 keeps each
    byte) are sized from the first row plus a margin, or from the longest
    line if a value fills that size. The skew surge is parsed as a float
    unless that fails (an empty field does), when it is read as bytes.
    """
    first = next(csv.reader([first_line]))
    widths = [len(f) + 8 for f in first] + [8] * len(header)
    floats = {*_LEVELS, "skew_surge_m"}
    for _ in range(3):
        try:
            table = np.loadtxt(
                lines(), delimiter=",", quotechar='"', comments=None, ndmin=1,
                dtype=[(name, "f8" if name in floats else f"S{width}")
                       for name, width in zip(header, widths)])
        except ValueError:
            if "skew_surge_m" not in floats or len(header) < 5:
                raise
            floats = set(_LEVELS)
            continue
        if all(np.char.str_len(table[name]).max() < width
               for name, width in zip(header, widths) if name not in floats):
            return table
        widths = [max(map(len, lines()))] * len(header)
    return table


def _row_error(path, n_fields):
    """The first unreadable data row's message, with its line in the file."""
    with open(path) as fh:
        lines = ((no, line) for no, line in enumerate(fh, start=1)
                 if line != "\n" and not line.startswith("#"))
        next(lines)  # the header
        for line_no, line in lines:
            row = next(csv.reader([line]))
            where = f"{path} line {line_no}"
            if len(row) != n_fields:
                return f"{where}: expected {n_fields} fields"
            if not row[0].strip():
                return f"{where}: empty site id"
            try:
                _utc_stamps(np.array([row[1].encode()]))
            except (ValueError, UserWarning) as exc:
                return f"{where}: bad timestamp {row[1]!r}: {exc}"
            try:
                [float(v) for v in row[2:4] + [v for v in row[4:] if v.strip()]]
            except ValueError:
                return f"{where}: non-numeric level"


def load_series(path):
    """Load a gauge CSV into one :class:`SiteSeries` per site.

    The file must carry the header
    ``site,timestamp,peak_tide_m,max_sea_level_m[,skew_surge_m]``; the
    skew-surge column is optional and computed as max sea level minus peak
    tide when absent or empty. Lines starting with ``#`` and blank lines
    are skipped. Timestamps are ISO 8601, naive (read as UTC) or ending in
    ``Z`` or a ``±HH:MM`` offset. Rows are sorted per site by timestamp;
    duplicate timestamps within a site are an error.

    Returns
    -------
    dict mapping site id to SiteSeries, in order of first appearance.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"gauge CSV not found: {path}")
    # latin-1 text split at "\n" only: the file's bytes and lines as they are
    with open(path, encoding="latin-1", newline="\n") as fh:
        lines = (line for line in iter(fh.readline, "") if not line.startswith("#"))
        header_line, start = next(lines, None), fh.tell()
        first_line = next((line for line in lines if line.strip("\r\n")), None)
        if header_line is None:
            raise ValueError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader(
            [header_line.encode("latin-1").decode()]), [])]
        if header not in (GAUGE_HEADER, GAUGE_HEADER[:4]):
            raise ValueError(
                f"{path}: unexpected header {header!r}; "
                f"expected {','.join(GAUGE_HEADER)} (skew_surge_m optional)"
            )
        if first_line is None:
            return {}
        fh.seek(start)
        commented = _has_comment_line(fh)

        def data_lines():  # numpy iterates the file itself unless lines are dropped
            fh.seek(start)
            return (line for line in fh if not line.startswith("#")) if commented else fh

        try:
            table = _parse_rows(data_lines, header, first_line)
            site = np.char.strip(table["site"])
            if (np.char.str_len(site) == 0).any():
                raise ValueError("empty site id")
            stamps = _utc_stamps(table["timestamp"])
            tide, msl = table["peak_tide_m"], table["max_sea_level_m"]
            skew = msl - tide
            if table.dtype[-1].kind == "S":  # skew surge as bytes: not all floats
                given = np.char.strip(table["skew_surge_m"])
                filled = np.char.str_len(given) > 0
                skew[filled] = given[filled].astype(float)
            elif len(header) == 5:
                skew = table["skew_surge_m"]
        except (ValueError, UserWarning) as exc:
            raise ValueError(_row_error(path, len(header)) or f"{path}: {exc}") from None

    names, first, code = np.unique(site, return_index=True, return_inverse=True)
    order = np.lexsort((stamps.view(np.int64), code))
    stamps = stamps[order]
    bounds = np.searchsorted(code[order], np.arange(len(names) + 1))
    columns = (stamps, tide[order], msl[order], skew[order],
               *calendar_columns(stamps))
    out, site_ids = {}, [name.decode() for name in names.tolist()]
    for k in np.argsort(first):
        site_id, rows = site_ids[k], slice(bounds[k], bounds[k + 1])
        dup = np.flatnonzero(np.diff(stamps[rows].view(np.int64)) == 0)
        if dup.size:
            raise ValueError(
                f"site {site_id}: duplicate timestamp {stamps[rows][dup[0] + 1]}")
        out[site_id] = SiteSeries(site_id, *(column[rows] for column in columns))
    return out


def write_series_csv(target, series, comment=None):
    """Write a SiteSeries (or list of them) in the gauge CSV format.

    ``target`` may be a path or a text file handle. ``comment`` (if given)
    is emitted first as a ``#``-prefixed line.
    """
    if isinstance(series, SiteSeries):
        series = [series]
    is_path = isinstance(target, (str, Path))
    with open(target, "w", newline="") if is_path else nullcontext(target) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        csv.writer(fh, lineterminator="\n").writerow(GAUGE_HEADER)
        for s in series:
            row = io.StringIO()
            csv.writer(row, lineterminator="").writerow([s.site_id, ""])
            site = row.getvalue()  # "<site id>," as the csv module writes it
            stamps = s.timestamps.astype("datetime64[s]")
            for i in range(0, len(s), 4096):  # blocks bound the memory held
                block = [np.datetime_as_string(stamps[i:i + 4096])] + [
                    c[i:i + 4096] for c in (s.peak_tide, s.max_sea_level, s.skew_surge)]
                fh.write("".join(
                    f"{site}{t}Z,{a:.6f},{b:.6f},{c:.6f}\n" for t, a, b, c
                    in zip(*(column.tolist() for column in block))))


def load_gmt(path):
    """Load an annual GMT anomaly CSV with header ``year,anomaly_c``."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"GMT CSV not found: {path}")
    with open(path, newline="") as fh:  # numbered by the file's own lines
        rows = [(no, next(csv.reader([line]), [])) for no, line in
                enumerate(fh, start=1) if not line.startswith("#")]
    if not rows or [h.strip() for h in rows[0][1]] != GMT_HEADER:
        raise ValueError(f"{path}: expected header {','.join(GMT_HEADER)}")
    years, anoms = [], []
    for line_no, row in rows[1:]:
        try:
            if row:
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
    return replace(
        series,
        year_std=standardize_year(series.year, mid_year, half_range),
        gmt=None if gmt is None else np.atleast_1d(gmt.anomaly_for(series.year)),
    )
