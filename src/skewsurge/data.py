"""Tidal-cycle record handling: loading, cleaning, thresholds and covariates.

The unit of observation is one tidal cycle (two per day, roughly 705.5 per
year) with its predicted peak tide and the observed maximum sea level. The
skew surge is the difference between the two, irrespective of timing within
the cycle. Everything downstream (empirical body, GPD tail, return curves)
consumes the column-store :class:`SiteSeries` built here, whose trend
covariates are its years and (once attached) its GMT anomalies.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

GAUGE_HEADER = ["site", "timestamp", "peak_tide_m", "max_sea_level_m", "skew_surge_m"]
GMT_HEADER = ["year", "anomaly_c"]
_LEVELS = ("peak_tide_m", "max_sea_level_m")  # the gauge CSV's float fields
_COMPRESSED = (".gz", ".bz2", ".xz", ".lzma")  # names np.loadtxt decompresses

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


def standardize_year(year):
    """Map calendar year onto the fixed index (year - 1968) / 53."""
    return (np.asarray(year, dtype=float) - 1968) / 53


def _march_tables():
    """(year step, month, day, day of the 365-day year) of each day 0..365
    of a year that starts on March 1; the year steps on January 1."""
    doy = np.arange(366)
    mp = (5 * doy + 2) // 153  # month from March, 0..11
    day = doy - (153 * mp + 2) // 5 + 1
    month = np.where(mp < 10, mp + 3, mp - 9)
    return (month <= 2).astype(np.int64), month, day, day_of_year_365(month, day)


_MARCH_YEAR, _MARCH_MONTH, _MARCH_DAY, _MARCH_DOY = _march_tables()
_INT32_DAYS = (-2**31, 2**31 - 719468)  # days whose arithmetic fits in int32


def calendar_columns(timestamps):
    """(year, month, day_of_month, day_of_year) int64 arrays from datetime64
    stamps.

    Civil-from-days in integer arithmetic (H. Hinnant's algorithm) on days
    since 1970, counted in 400-year eras of years that start on March 1;
    the day within such a year indexes tables of month, day and the rest.
    Days are int32 where they fit, which halves the temporaries.
    """
    days = np.asarray(timestamps, dtype="datetime64[s]").view(np.int64) // 86400
    if days.size and _INT32_DAYS[0] <= days.min() and days.max() < _INT32_DAYS[1]:
        days = days.astype(np.int32)
    days += 719468
    era = days // 146097
    doe = days - era * 146097  # day of era, 0..146096
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)  # from March 1, 0..365
    year = _MARCH_YEAR.take(doy)
    year += 400 * era + yoe
    return year, _MARCH_MONTH.take(doy), _MARCH_DAY.take(doy), _MARCH_DOY.take(doy)


@dataclass
class SiteSeries:
    """Column store of tidal cycles for one site, in time order.

    A record or copy is refused as it is built if a column's length
    differs from the stamps', a stamp is NaT, the stamps do not strictly
    increase, or (checked last) a level or a set ``gmt`` is NaN or ±inf.
    The year trends' index is :func:`standardize_year` of ``year``. The
    GMT anomaly column ``gmt`` is absent until :func:`attach_covariates`
    fills it in; it is a fact of each record, so copies keep it.
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
    gmt: np.ndarray | None = None

    def __post_init__(self):
        t = self.timestamps
        for name, column in vars(self).items():
            if isinstance(column, np.ndarray) and len(column) != len(t):
                raise ValueError(f"site {self.site_id}: column {name} has "
                                 f"{len(column)} values for {len(t)} stamps")
        if np.isnat(t).any():  # NaT compares false, so the next check misses it
            raise ValueError(f"site {self.site_id}: NaT timestamp")
        bad = np.flatnonzero(t[1:] <= t[:-1])
        if bad.size:
            k = bad[0] + 1
            kind = "duplicate" if t[k] == t[k - 1] else "out-of-order"
            raise ValueError(f"site {self.site_id}: {kind} timestamp {t[k]}")
        for name in ("peak_tide", "max_sea_level", "skew_surge", "gmt"):
            column = getattr(self, name)
            if column is not None and not np.isfinite(column).all():
                raise ValueError(f"site {self.site_id}: column {name} is not "
                                 f"finite at {t[~np.isfinite(column)][0]}")

    def __len__(self):
        return len(self.timestamps)

    def subset(self, mask):
        """Row subset of every column that is set, ``gmt`` included; a
        boolean mask keeps the time order, a reordering is refused."""
        return replace(self, **{k: v[mask] for k, v in vars(self).items()
                                if isinstance(v, np.ndarray)})

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
        """Each year's anomaly as a 1-D array; missing years raise KeyError."""
        year = np.atleast_1d(np.asarray(year, dtype=int))
        missing = ~np.isin(year, self.years)
        if missing.any():
            raise KeyError(f"no GMT anomaly for year {year[missing][0]}")
        order = np.argsort(self.years)
        return self.anomalies[order[np.searchsorted(self.years, year,
                                                    sorter=order)]]


@dataclass
class MonthlyThresholds:
    """Per-month skew-surge thresholds u_j (metres), j = 1..12, all finite."""

    values: np.ndarray  # shape (12,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (12,):
            raise ValueError("expected 12 monthly threshold values")
        bad = np.flatnonzero(~np.isfinite(self.values))
        if bad.size:
            raise ValueError(f"month {bad[0] + 1} threshold is not finite")

    def for_month(self, month):
        """Threshold for month (1..12); accepts arrays."""
        return self.values[np.asarray(month) - 1]


_TEST_ROWS = 1 << 12  # rows per test of the stamps' sign bytes


def _utc_stamps(text):
    """datetime64[s] UTC stamps from ISO 8601 byte strings: naive (UTC),
    or ending in ``Z`` or in a ``±HH:MM``, ``±HHMM`` or ``±HH`` UTC offset
    (subtracted).

    A sign after the date ``YYYY-MM-DD`` starts an offset, which must
    follow a time. Every offset is parsed here or refused, so numpy's
    own parser never sees one: numpy parses offsets only on a path that
    warns, and with the warning raised as an error it can crash there.

    The bytes are tested through one uint8 view of a copy. Stamps are
    stripped and measured one by one only when some stamp differs in
    length from the first or has a space around it, and searched for a
    sign after the date only when some byte is ``+`` or the ``-`` bytes
    are more than each date's two; those two bytes are tested in blocks
    of rows, so no test builds a boolean array of the whole copy.
    """
    text = np.array(text)  # contiguous; each "Z" and offset is zeroed in it
    n, size = len(text), text.dtype.itemsize
    codes = text.view(np.uint8).reshape(n, size)
    length = len(text[0]) if n else 0
    if (10 <= length < size and (codes[:, [0, length - 1]] > ord(" ")).all()
            and not codes[:, length:].any()):  # what strip leaves as it is
        end = np.broadcast_to(length, (n,))
        zulu = codes[:, length - 1] == ord("Z")
        codes[:, length - 1][zulu] = 0
    else:
        text = np.char.strip(text)
        codes = text.view(np.uint8).reshape(n, size)
        end, rows = np.char.str_len(text), np.arange(n)
        zulu = codes[rows, end - 1] == ord("Z")
        codes[rows[zulu], end[zulu] - 1] = 0
    blocks = [codes[i:i + _TEST_ROWS] for i in range(0, n, _TEST_ROWS)]
    if (size > 10 and (codes[:, 4] == ord("-")).all()
            and (codes[:, 7] == ord("-")).all()
            and sum(np.count_nonzero(b == ord("-")) for b in blocks) == 2 * n
            and not any((b == ord("+")).any() for b in blocks)):  # no sign after any date
        at = np.arange(0)
    else:
        if not (np.char.find(text, b"-") == 4).all():  # also rejects "now"
            raise ValueError("not an ISO 8601 date and time (YYYY-MM-DD...)")
        signs = (codes[:, 10:] == ord("+")) | (codes[:, 10:] == ord("-"))
        at = np.flatnonzero(signs.any(axis=1))
        signs = signs[at]
    minutes = 0
    if at.size:  # the offset branch
        start = 10 + signs.argmax(axis=1)
        width = end[at] - start  # 6, 5 or 3 bytes: +HH:MM, +HHMM or +HH
        last = codes.shape[1] - 1
        mm = start + np.where(width == 6, 4, 3)
        hh_mm = codes[at[:, None], np.minimum(
            np.stack([start + 1, start + 2, mm, mm + 1], axis=1), last)
        ].astype(np.int64) - ord("0")
        hh_mm[width == 3, 2:] = 0
        if (~np.isin(width, (3, 5, 6)) | (start == 10) | zulu[at]
                | (signs.sum(axis=1) > 1)
                | ((width == 6)
                   & (codes[at, np.minimum(start + 3, last)] != ord(":")))
                | ((hh_mm < 0) | (hh_mm > 9)).any(axis=1)
                | (hh_mm @ [10, 1, 0, 0] > 23) | (hh_mm[:, 2] > 5)).any():
            raise ValueError("a UTC offset is ±HH:MM, ±HHMM or ±HH, below "
                             "24:00, after a time and with no Z")
        minutes = (np.where(codes[at, start] == ord("-"), -1, 1)
                   * (hh_mm @ [600, 60, 10, 1]))
        codes[at[:, None], np.minimum(start[:, None] + np.arange(6), last)] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy warns on offsets it parses itself
        stamps = text.astype("datetime64[s]")
    stamps[at] -= minutes * np.timedelta64(60, "s")
    return stamps


def _scan_bytes(fh, start):
    """(whether a line from byte ``start``, a line start, on is a comment,
    whether the file holds a carriage return, the lines before ``start``)
    of the binary ``fh``, read in blocks that end at a line end."""
    fh.seek(0)
    head = fh.read(start)
    cr = b"\r" in head
    for block in iter(lambda: fh.read(1 << 16) + fh.readline(), b""):
        if b"#" in block and (block.startswith(b"#") or b"\n#" in block):
            return True, cr, head.count(b"\n")
        cr = cr or b"\r" in block
    return False, cr, head.count(b"\n")


def _parse_rows(lines, header, first_line, named=None):
    """The data rows as one structured array, parsed by numpy's C parser.

    ``lines()`` gives the data lines. If ``named`` is given, a file name
    and the number of lines before its data, numpy reads the data from
    that file itself, in blocks rather than line by line: the same lines
    for a file with no comment line among its data and no carriage
    return. Byte-string fields (latin-1 keeps each byte) are sized from
    the first row plus a margin, or from the longest line if a value
    fills that size (its last byte is set). The skew surge is parsed as a
    float unless that fails (an empty field does), when it is read as
    bytes.
    """
    first = next(csv.reader([first_line]))
    widths = [len(f) + 8 for f in first] + [8] * len(header)
    floats = {*_LEVELS, "skew_surge_m"}
    for _ in range(3):
        try:
            source, skip = named or (lines(), 0)
            table = np.loadtxt(
                source, delimiter=",", quotechar='"', comments=None, ndmin=1,
                skiprows=skip, encoding="latin-1",
                dtype=[(name, "f8" if name in floats else f"S{width}")
                       for name, width in zip(header, widths)])
        except ValueError:
            if "skew_surge_m" not in floats or len(header) < 5:
                raise
            floats = set(_LEVELS)
            continue
        raw = table.view(np.uint8).reshape(len(table), table.dtype.itemsize)
        if not any(raw[:, table.dtype.fields[name][1] + width - 1].any()
                   for name, width in zip(header, widths) if name not in floats):
            return table
        widths = [max(map(len, lines()))] * len(header)
    return table


def _row_error(path, n_fields):
    """The first unreadable data row's message, with its line in the file."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
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
                row[0].encode()  # undecodable bytes were escaped to surrogates
            except UnicodeEncodeError:
                return f"{where}: site id is not UTF-8"
            try:
                stamp = np.array([row[1].encode()])
            except UnicodeEncodeError:
                return f"{where}: timestamp is not UTF-8"
            try:
                _utc_stamps(stamp)
            except (ValueError, UserWarning) as exc:
                return f"{where}: bad timestamp {row[1]!r}: {exc}"
            try:
                [float(v) for v in row[2:4] + [v for v in row[4:] if v.strip()]]
            except ValueError:
                return f"{where}: non-numeric level"


def _table_columns(table):
    """(first row of each run of equal site fields, the runs' stripped site
    ids, stamps, peak tide, max sea level, skew surge) of the parse table.

    The levels are copies, so the table can be freed once they are made.
    """
    raw = table["site"]  # stripped once per run of equal fields
    heads = np.flatnonzero(np.concatenate(([True], raw[1:] != raw[:-1])))
    site = np.char.strip(raw[heads])
    if (site == b"").any():
        raise ValueError("empty site id")
    stamps = _utc_stamps(table["timestamp"])
    tide, msl = (np.ascontiguousarray(table[name]) for name in _LEVELS)
    if table.dtype[-1].kind == "S":  # skew surge as bytes: not all floats
        skew = msl - tide
        given = np.char.strip(table["skew_surge_m"])
        filled = np.char.str_len(given) > 0
        skew[filled] = given[filled].astype(float)
    elif len(table.dtype) == 5:
        skew = np.ascontiguousarray(table["skew_surge_m"])
    else:
        skew = msl - tide
    return heads, site, stamps, tide, msl, skew


def load_series(path):
    """Load a gauge CSV into one :class:`SiteSeries` per site.

    The file must carry the header
    ``site,timestamp,peak_tide_m,max_sea_level_m[,skew_surge_m]``; the
    skew-surge column is optional and computed as max sea level minus peak
    tide when absent or empty. Lines starting with ``#`` and blank lines
    are skipped. Timestamps are ISO 8601, naive (read as UTC) or ending in
    ``Z`` or in a UTC offset of the form ``±HH:MM``, ``±HHMM`` or ``±HH``;
    any other offset is an error. Rows are sorted per site by timestamp;
    :class:`SiteSeries` refuses a duplicate, first site first. A file in
    (site, time) order, one run of rows per site with its stamps rising,
    as :func:`write_series_csv` writes it, is not re-sorted.

    Memory: the loader holds its parse table (each data row's byte
    strings and floats) until the stamps and levels are copied out of it,
    then the returned columns, whose calendar columns are built once the
    table is freed; the two are never held together in full.

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
            [header_line.encode("latin-1").decode(errors="replace")]), [])]
        if header not in (GAUGE_HEADER, GAUGE_HEADER[:4]):
            raise ValueError(
                f"{path}: unexpected header {header!r}; "
                f"expected {','.join(GAUGE_HEADER)} (skew_surge_m optional)"
            )
        if first_line is None:
            return {}
        # latin-1 text: its position is the byte offset
        commented, cr, skip = _scan_bytes(fh.buffer, start)
        # numpy opens a file named like a compressed one decompressed
        named = (None if commented or cr or path.name.endswith(_COMPRESSED)
                 else (str(path), skip))

        def data_lines():  # the file's lines from the first data line on
            fh.seek(start)
            return (line for line in fh if not line.startswith("#")) if commented else fh

        try:
            heads, site, stamps, *levels = _table_columns(
                _parse_rows(data_lines, header, first_line, named))
        except (ValueError, UserWarning) as exc:
            raise ValueError(_row_error(path, len(header)) or f"{path}: {exc}") from None

    names, first, code = np.unique(site, return_index=True, return_inverse=True)
    first = heads[first]  # each site's first row
    try:
        site_ids = [name.decode() for name in names.tolist()]
    except UnicodeDecodeError:
        raise ValueError(_row_error(path, len(header))
                         or f"{path}: a site id is not UTF-8") from None
    fall = stamps[1:] < stamps[:-1]
    fall[heads[1:] - 1] = False  # no step between two runs
    if len(heads) != len(names) or fall.any():  # not in (site, time) order
        row_code = np.repeat(code, np.diff(heads, append=len(stamps)))
        order = np.lexsort((stamps.view(np.int64), row_code))
        stamps, levels = stamps[order], [c[order] for c in levels]
        code = np.arange(len(names))
        heads = np.searchsorted(row_code[order], code)
    columns = (stamps, *levels, *calendar_columns(stamps))
    bounds = np.append(heads, len(stamps))
    out = {}
    for k in np.argsort(first[code]):
        site_id, rows = site_ids[code[k]], slice(bounds[k], bounds[k + 1])
        out[site_id] = SiteSeries(site_id, *(column[rows] for column in columns))
    return out


def _ascii_table(fmt, count, dtype):
    """Entry i: the bytes of ``fmt % i`` read as one little-endian integer."""
    return np.frombuffer("".join(fmt % i for i in range(count)).encode(), dtype)


_TWO_DIGITS = _ascii_table("%02d", 100, "<u2")
_FOUR_DIGITS = _ascii_table("%04d", 10_000, "<u4")
_SIGN_WHOLE = _ascii_table("-%03d", 1000, "<u4")  # a level's sign, whole part
_POINT_DIGITS = _ascii_table(".%03d", 1000, "<u4")  # its point, first 3 decimals
# Which of the bytes "-ddd" of a level with whole part i are kept; the
# sign's byte is set apart, from the value's sign bit.
_KEEP_WHOLE = np.frombuffer(bytes(
    b for i in range(1000) for b in (0, i >= 100, i >= 10, 1)), "<u4")
_STAMP_RANGE = np.array(["0000-01-01", "10000-01-01"],  # the writable years
                        dtype="datetime64[s]").view(np.int64)
_BLOCK_ROWS = 1 << 15  # rows per write; bounds the memory held


def _put(matrix, at, table, index):
    """Write ``table[index]``, one integer per row of the 2-D ``matrix`` of
    bytes, at byte ``at`` of each row."""
    np.ndarray(len(matrix), table.dtype, buffer=matrix, offset=at,
               strides=(matrix.shape[1],))[:] = table.take(index)


def _level_fields(text, keep, at, values):
    """Fill the level fields starting at column ``at`` of ``text``.

    Each field is a sign, three integer digits, ``.``, six decimals and its
    separator; ``keep`` drops the sign of a value that is not negative and
    the leading zeros. Returns the rows whose field is left out for
    ``format`` to write: values that round to 1e3 or more (a record's
    levels are finite, see :class:`SiteSeries`), and values whose
    ``|v| * 1e6`` lies within 1e-6 of a half-integer, where rounding that
    product may not round the exact binary value half to even.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        scaled = np.abs(values) * 1e6
        k = np.rint(scaled)
        exact = (k < 1e9) & (np.abs(scaled - k) < 0.5 - 1e-6)
    k = np.where(exact, k, 0).astype(np.int32)
    whole = k // 1_000_000
    frac = k - whole * 1_000_000
    _put(text, at, _SIGN_WHOLE, whole)
    _put(text, at + 4, _POINT_DIGITS, frac // 1000)
    _put(text, at + 7, _FOUR_DIGITS, frac % 10_000)  # rewrites the third decimal
    _put(keep, at, _KEEP_WHOLE, whole)
    keep[:, at] = np.signbit(values)
    rows = np.flatnonzero(~exact)
    keep[rows, at:at + 11] = False
    return rows


def _csv_rows(site, stamps, levels):
    """One block of gauge CSV rows as a UTF-8 byte array.

    ``site`` is the encoded ``<site id>,`` prefix, ``stamps`` are
    datetime64[s] in years 0000-9999 and ``levels`` the three float columns.
    Each row is laid out at full width in one byte matrix; a boolean mask
    then drops the unused sign and leading-zero bytes.
    """
    p = len(site)
    template = site + b"0000-00-00T00:00:00Z," + b"-000.000000," * 2 + b"-000.000000\n"
    text = np.tile(np.frombuffer(template, np.uint8), (len(stamps), 1))
    keep = np.ones(text.shape, bool)
    year, month, day, _ = calendar_columns(stamps)
    second = stamps.view(np.int64) % 86400
    _put(text, p, _FOUR_DIGITS, year)
    for at, n in ((p + 5, month), (p + 8, day), (p + 11, second // 3600),
                  (p + 14, second // 60 % 60), (p + 17, second % 60)):
        _put(text, at, _TWO_DIGITS, n)
    rows, cols, fields = [], [], []  # the fields ``format`` writes
    for j, values in enumerate(levels):
        at = p + 21 + 12 * j
        r = _level_fields(text, keep, at, values)
        rows.append(r)
        cols.append(np.full(r.size, at))
        fields += [format(v, ".6f") for v in values[r].tolist()]
    body = text[keep]
    if not fields:
        return body
    rows, cols = np.concatenate(rows), np.concatenate(cols)
    row_end = np.cumsum(keep.sum(axis=1))
    pos = (row_end[rows] - keep[rows].sum(axis=1)
           + np.cumsum(keep[rows], axis=1)[np.arange(rows.size), cols - 1])
    return np.insert(body, np.repeat(pos, [len(f) for f in fields]),
                     np.frombuffer("".join(fields).encode(), np.uint8))


def write_series_csv(target, series, comment=None):
    """Write a SiteSeries (or list of them) in the gauge CSV format.

    ``target`` may be a path or a text file handle. ``comment`` (if given)
    is emitted first as a ``#``-prefixed line. Each row is the site id as
    the csv module quotes it, the stamp as ``YYYY-MM-DDTHH:MM:SSZ``, then
    the three levels as ``format(v, ".6f")`` writes them: the exact binary
    value rounded half to even to six decimals (every level is finite,
    as :class:`SiteSeries` refuses any other). A stamp outside years
    0000-9999, which :func:`load_series` cannot read, raises ValueError
    before anything is written.
    """
    if isinstance(series, SiteSeries):
        series = [series]
    prepared = []
    for s in series:
        stamps = s.timestamps.astype("datetime64[s]")
        seconds = stamps.view(np.int64)
        outside = (seconds < _STAMP_RANGE[0]) | (seconds >= _STAMP_RANGE[1])
        if outside.any():
            raise ValueError(
                f"site {s.site_id}: timestamp {stamps[outside][0]} is outside "
                "years 0000-9999, which a gauge CSV cannot hold")
        row = io.StringIO()
        csv.writer(row, lineterminator="").writerow([s.site_id, ""])
        # "<site id>,", decoded back to the same text below
        site = row.getvalue().encode("utf-8", "surrogatepass")
        levels = [np.asarray(c, dtype=float)
                  for c in (s.peak_tide, s.max_sea_level, s.skew_surge)]
        prepared.append((site, stamps, levels))
    is_path = isinstance(target, (str, Path))
    with open(target, "w", newline="") if is_path else nullcontext(target) as fh:
        if comment:
            fh.write(f"# {comment}\n")
        csv.writer(fh, lineterminator="\n").writerow(GAUGE_HEADER)
        for site, stamps, levels in prepared:
            for i in range(0, len(stamps), _BLOCK_ROWS):
                rows = slice(i, i + _BLOCK_ROWS)
                fh.write(str(_csv_rows(site, stamps[rows],
                                       [c[rows] for c in levels]),
                             "utf-8", "surrogatepass"))


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
    rate. Peak tide is a prediction and is not touched; the other columns,
    ``gmt`` included, are kept.
    """
    adj = rate_mm_per_year * (series.year - reference_year) / 1000.0
    return replace(
        series,
        max_sea_level=series.max_sea_level - adj,
        skew_surge=series.skew_surge - adj,
    )


def _quantile(a, q):
    """``np.quantile(a, q)`` to the bit, by numpy's linear rule, from one
    selection: order statistics k and k + 1 of the virtual index
    (n - 1) q, by one partition at k and the least value above it, and
    numpy's interpolation between them (from the upper one where the
    weight is at least 1/2)."""
    v = (a.size - 1) * q
    if v >= a.size - 1:
        return a.max()
    k = math.floor(v)
    part = np.partition(a, k)
    lo, hi = part[k], part[k + 1:].min()
    t, gap = v - k, hi - lo
    return hi - gap * (1 - t) if t >= 0.5 else lo + gap * t


def monthly_thresholds(series, percentile=0.95):
    """Empirical per-month skew-surge quantiles (linear interpolation),
    each ``np.quantile`` of its month to the bit (:func:`_quantile`).

    Every month 1..12 needs at least 30 observations for a usable
    quantile estimate. The surges are finite, as every record's are.
    """
    if not 0.0 < percentile < 1.0:
        raise ValueError("percentile must be in (0, 1)")
    # grouped by month in a stable order: each slice is the masked column
    month = np.asarray(series.month)
    order = np.argsort(month, kind="stable")
    bounds = np.searchsorted(month[order], np.arange(1, 14))
    grouped = np.asarray(series.skew_surge)[order]
    values = np.empty(12)
    for j in range(1, 13):
        ss = grouped[bounds[j - 1]:bounds[j]]
        if ss.size < 30:
            raise ValueError(
                f"site {series.site_id}: month {j} has {ss.size} records; "
                "need >= 30 for a threshold"
            )
        values[j - 1] = _quantile(ss, percentile)
    return MonthlyThresholds(values=values)


class Standardizers(NamedTuple):
    """Centering and scaling constants of the rate model's covariates."""

    tide_mean: float
    tide_sd: float
    month_mean_day: np.ndarray  # shape (12,), NaN where a month is absent


def _tide_sd(peak_tide):
    """Peak tide's standard deviation; ValueError if the series is empty or
    the deviation is zero, where the rate model cannot standardize."""
    peak_tide = np.asarray(peak_tide, dtype=float)
    if peak_tide.size == 0:
        raise ValueError("empty series")
    tide_sd = float(peak_tide.std())
    if tide_sd == 0.0:
        raise ValueError("peak tide has zero variance; cannot standardize")
    return tide_sd


def standardizers(peak_tide, month, day_of_month):
    """Peak-tide mean and standard deviation, and the mean day-of-month of
    each month (the centering constant of the rate model's day term)."""
    peak_tide = np.asarray(peak_tide, dtype=float)
    tide_sd = _tide_sd(peak_tide)
    counts = np.bincount(month, minlength=13)  # whole-day sums are exact
    month_mean_day = np.divide(np.bincount(month, day_of_month, 13), counts,
                               out=np.full(13, np.nan), where=counts > 0)[1:13]
    return Standardizers(float(peak_tide.mean()), tide_sd, month_mean_day)


def attach_covariates(series, gmt=None):
    """A copy of the series with each record's GMT anomaly looked up in the
    GmtSeries ``gmt``; with no ``gmt``, the series as it is.

    Only the GMT families (R3, R4, S3, S4) need it; the year index is
    computed from ``year`` where it is used. Records in years missing from
    the GMT series raise KeyError. A series the tail model cannot
    standardize (empty, or with a constant peak tide) raises ValueError.
    """
    _tide_sd(series.peak_tide)
    if gmt is None:
        return series
    return replace(series, gmt=gmt.anomaly_for(series.year))
