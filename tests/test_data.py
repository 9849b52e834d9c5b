"""Ingest, detrending, calendar derivation and monthly thresholds."""

import calendar
import csv
import datetime
import io
import math
import os
import subprocess
import sys
import textwrap
import warnings
from dataclasses import fields
from pathlib import Path
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

import skewsurge
from skewsurge import data
from skewsurge.data import (
    GAUGE_HEADER,
    GmtSeries,
    SiteSeries,
    attach_covariates,
    calendar_columns,
    day_of_year_365,
    detrend_msl,
    load_gmt,
    load_series,
    month_of_day,
    monthly_thresholds,
    season_of_day,
    standardize_year,
    standardizers,
    write_series_csv,
)

from conftest import columns_series


def _write(tmp_path, text, name="gauges.csv"):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestLoadSeries:
    def test_skew_surge_computed_from_levels(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "NEW,1917-01-03T04:12Z,5.0,5.2\n",
        )
        series = load_series(path)["NEW"]
        assert len(series) == 1
        npt.assert_allclose(series.skew_surge[0], 0.2)
        assert series.year[0] == 1917
        assert series.month[0] == 1
        assert series.day_of_year[0] == 3

    def test_explicit_skew_surge_column_wins(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m,skew_surge_m\n"
            "A,2000-01-01T00:00Z,3.0,3.5,0.41\n",
        )
        npt.assert_allclose(load_series(path)["A"].skew_surge[0], 0.41)

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "A,2000-01-02T00:00Z,3.0,3.1\n"
            "A,2000-01-01T00:00Z,3.0,3.2\n",
        )
        series = load_series(path)["A"]
        assert (np.diff(series.timestamps.astype("int64")) > 0).all()
        npt.assert_allclose(series.skew_surge, [0.2, 0.1])

    def test_empty_file_errors(self, tmp_path):
        with pytest.raises(ValueError, match="empty"):
            load_series(_write(tmp_path, ""))

    def test_duplicate_timestamp_errors(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "A,2000-01-01T00:00Z,3.0,3.1\n"
            "A,2000-01-01T00:00Z,3.0,3.2\n",
        )
        with pytest.raises(ValueError, match="duplicate"):
            load_series(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "A,2000-01-01T00:00Z,3.0,3.1\n"
            "A,2000-01-02T00:00Z,not_a_number,3.2\n",
        )
        with pytest.raises(ValueError, match="line 3"):
            load_series(path)

    @pytest.mark.parametrize("row, message", [
        ("A,2000-01-02T00:00Z,not_a_number,3.2\n", "line 6: non-numeric level"),
        ("A,2000-01-02T00:00Z,,3.1\n", "line 6: non-numeric level"),
        ("A,2000-01-02T00:00Z,3.0\n", "line 6: expected 4 fields"),
        ("  ,2000-01-02T00:00Z,3.0,3.1\n", "line 6: empty site id"),
        ("A,2000-01-02X,3.0,3.1\n", "line 6: bad timestamp '2000-01-02X'"),
        ("A,now,3.0,3.1\n", "line 6: bad timestamp 'now'"),
        ("A,20000102T0000,3.0,3.1\n", "line 6: bad timestamp '20000102T0000'"),
        ("A,2000-01-02T00:00+24:00,3.0,3.1\n", "line 6: bad timestamp"),
    ])
    def test_row_error_names_its_line_in_the_file(self, tmp_path, row,
                                                  message):
        path = _write(
            tmp_path,
            "# config_hash=abc tool_version=0.1.0\n"
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "# a comment between rows\n"
            "A,2000-01-01T00:00Z,3.0,3.1\n"
            "\n" + row,
        )
        with pytest.raises(ValueError, match=message):
            load_series(path)

    @pytest.mark.parametrize("text, message", [
        (b"site,timestamp,peak_tide_m,max_sea_level_m\n"
         b"\xff\xfe,2000-01-01T00:00Z,3.0,3.1\n",
         "gauges.csv line 2: site id is not UTF-8"),
        (b"site,timestamp,peak_tide_m,max_sea_level_m\n"
         b"A,2000-01-01T00:00Z,3.0,3.1\n"
         b"\xff\xfe,2000-01-02T00:00Z,3.0,3.1\n",
         "gauges.csv line 3: site id is not UTF-8"),
        (b"si\xffte,timestamp,peak_tide_m,max_sea_level_m\n"
         b"A,2000-01-01T00:00Z,3.0,3.1\n",
         "gauges.csv: unexpected header"),
        (b"site,timestamp,peak_tide_m,max_sea_level_m\n"
         b"A,2000-01-01T00:00Z,3.0,3.1\n"
         b"A,2000-01-0\xff,3.0,3.1\n",
         "gauges.csv line 3: timestamp is not UTF-8$"),
    ], ids=["only-row", "after-a-valid-row", "header", "timestamp"])
    def test_text_that_is_not_utf8_is_a_value_error(self, tmp_path, text,
                                                     message):
        path = tmp_path / "gauges.csv"
        path.write_bytes(text)
        with pytest.raises(ValueError, match=message):
            load_series(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_series(tmp_path / "nope.csv")

    def test_round_trip_through_csv(self, tmp_path, sim_r0):
        series, _, _ = sim_r0
        path = tmp_path / "rt.csv"
        write_series_csv(path, series, comment="round trip")
        back = load_series(path)[series.site_id]
        assert len(back) == len(series)
        npt.assert_allclose(back.peak_tide, series.peak_tide, atol=5e-7)
        npt.assert_allclose(back.skew_surge, series.skew_surge, atol=5e-7)
        npt.assert_array_equal(back.month, series.month)


def _series(site_id, stamps, tide, level):
    stamps = np.array(stamps, dtype="datetime64[s]")
    tide, level = np.asarray(tide, dtype=float), np.asarray(level, dtype=float)
    return SiteSeries(site_id, stamps, tide, level, level - tide,
                      *calendar_columns(stamps))


def _per_row_csv(series):
    """The gauge CSV text as the per-row writer this format started with
    wrote it: one ``np.datetime_as_string`` and three ``f"{v:.6f}"`` per
    row."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(
        ["site", "timestamp", "peak_tide_m", "max_sea_level_m", "skew_surge_m"])
    for s in series:
        row = io.StringIO()
        csv.writer(row, lineterminator="").writerow([s.site_id, ""])
        site = row.getvalue()
        stamps = np.datetime_as_string(s.timestamps.astype("datetime64[s]"))
        for t, a, b, c in zip(stamps.tolist(), s.peak_tide.tolist(),
                              s.max_sea_level.tolist(), s.skew_surge.tolist()):
            out.write(f"{site}{t}Z,{a:.6f},{b:.6f},{c:.6f}\n")
    return out.getvalue()


def _near_tie(n, step):
    """(n + 0.5) * 1e-6, moved ``step`` floats up (or down, if negative)."""
    v = (n + 0.5) * 1e-6
    for _ in range(abs(step)):
        v = np.nextafter(v, math.copysign(math.inf, step))
    return float(v)


STAMP_SECONDS = (  # years 0000-9999
    int(np.datetime64("0000-01-01T00:00:00").astype(np.int64)),
    int(np.datetime64("9999-12-31T23:59:59").astype(np.int64)))
LEVEL = st.one_of(
    st.builds(_near_tie, st.integers(-2_000_000_000, 2_000_000_000),
              st.integers(-3, 3)),
    st.sampled_from([0.0, -0.0, -4e-7, 4e-7, -5e-7, 9.9999995, -9.9999995,
                     99.9999995, 999.9999995, -999.9999995, 999.999999,
                     1e3, -1e3, 1e300, math.nan, math.inf, -math.inf]),
    st.floats(-2e3, 2e3),
    st.floats(-1e-5, 1e-5),
    st.floats(allow_nan=True, allow_infinity=True),
)


def _load_in_subprocess(tmp_path, code):
    """Run ``code`` in a fresh interpreter with the package importable and
    ``tmp`` bound to ``tmp_path``; a crash there fails only the caller."""
    src = str(Path(skewsurge.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", f"tmp = {str(tmp_path)!r}\n" + textwrap.dedent(code)],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
        timeout=120)


@pytest.mark.parametrize("offset, extended, seconds", [
    ("+0100", "+01:00", 3600), ("-0530", "-05:30", -19800),
    ("+01", "+01:00", 3600), ("-00", "+00:00", 0),
])
def test_basic_format_offsets_match_the_extended_form(tmp_path, offset,
                                                      extended, seconds):
    # numpy parses these forms itself only on a path that warns, and with
    # the warning raised as an error it crashed on files of 1,000+ rows.
    proc = _load_in_subprocess(tmp_path, f"""
        import numpy as np
        from skewsurge.data import load_series
        def load(offset):
            path = f"{{tmp}}/gauge{{offset}}.csv"
            with open(path, "w") as fh:
                fh.write("site,timestamp,peak_tide_m,max_sea_level_m\\n")
                for i in range(2000):
                    fh.write(f"A,{{2000 + i // 500}}-{{1 + i // 40 % 12:02d}}-"
                             f"{{1 + i % 28:02d}}T{{i % 24:02d}}:{{i % 60:02d}}"
                             f"{{offset}},3.0,3.1\\n")
            return load_series(path)["A"].timestamps
        basic, extended = load({offset!r}), load({extended!r})
        assert len(basic) == 2000 and (basic == extended).all()
        assert ((load("") - basic).astype(int) == {seconds}).all()
    """)
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("stamp", [
    "2000-01-01T00:00+01:00Z", "2000-01-01T00:00+01:00+01:00",
    "2000-01-01T00:00+1", "2000-01-01T00:00+015", "2000-01-01T00:00+2400",
    "2000-01-01T00:00+0160", "2000-01-01+01:00", "2000-01-01-05",
])
def test_offsets_not_parsed_are_refused(tmp_path, stamp):
    proc = _load_in_subprocess(tmp_path, f"""
        from skewsurge.data import load_series
        path = f"{{tmp}}/gauge.csv"
        with open(path, "w") as fh:
            fh.write("site,timestamp,peak_tide_m,max_sea_level_m\\n")
            fh.write("A,2000-01-01T00:00,3.0,3.1\\n" * 1999)
            fh.write("A,{stamp},3.0,3.1\\n")
        try:
            load_series(path)
        except ValueError as exc:
            assert "line 2001: bad timestamp" in str(exc), exc
        else:
            raise AssertionError("loaded")
    """)
    assert proc.returncode == 0, proc.stderr


class TestGaugeCsvFormat:
    """The parse and the written text, pinned to what the row-by-row
    reader and writer this format started with produced."""

    def test_parse_is_pinned(self, tmp_path):
        path = _write(
            tmp_path,
            "# written by hand\n"
            "site,timestamp,peak_tide_m,max_sea_level_m,skew_surge_m\n"
            "\n"
            "A,2000-01-01T00:00:00Z,3.0,3.5,\n"
            "A,2000-01-01T03:00:00+01:00,3.0,3.2,0.25\n"
            "\n"
            "A,2000-01-01T00:00-05:30,2.0,2.75,\n"
            '"Port, North",2000-03-01T12:00,1.5,1.25,-0.25\n'
            "A,2000-01-02,3.0,3.0,0.0\n",
        )
        loaded = load_series(path)
        assert list(loaded) == ["A", "Port, North"]
        a = loaded["A"]
        npt.assert_array_equal(a.timestamps, np.array(
            ["2000-01-01T00:00", "2000-01-01T02:00", "2000-01-01T05:30",
             "2000-01-02T00:00"], dtype="datetime64[s]"))
        npt.assert_array_equal(a.peak_tide, [3.0, 3.0, 2.0, 3.0])
        npt.assert_array_equal(a.max_sea_level, [3.5, 3.2, 2.75, 3.0])
        npt.assert_array_equal(a.skew_surge, [0.5, 0.25, 0.75, 0.0])
        npt.assert_array_equal(a.day_of_month, [1, 1, 1, 2])
        port = loaded["Port, North"]
        assert port.timestamps.dtype == np.dtype("datetime64[s]")
        npt.assert_array_equal(port.skew_surge, [-0.25])
        assert (port.year[0], port.month[0], port.day_of_year[0]) == (2000, 3, 60)

    def test_four_column_parse_is_pinned(self, tmp_path):
        path = _write(
            tmp_path,
            "site,timestamp,peak_tide_m,max_sea_level_m\n"
            "B,2001-12-31T23:30Z,4.0,4.3\n"
            "B,2001-12-31T23:00-01:00,4.0,4.5\n",
        )
        b = load_series(path)["B"]
        npt.assert_array_equal(b.timestamps, np.array(
            ["2001-12-31T23:30", "2002-01-01T00:00"], dtype="datetime64[s]"))
        npt.assert_array_equal(b.skew_surge, [0.2999999999999998, 0.5])
        npt.assert_array_equal(b.year, [2001, 2002])
        npt.assert_array_equal(b.day_of_year, [365, 1])

    def test_written_text_is_pinned(self):
        port = _series("Port, North",
                       ["1999-12-31T23:59:59", "2000-02-29T12:25:00"],
                       [3.25, -0.5], [3.2499999, 1.0 / 3.0])
        new = _series("NEW", ["2017-06-01T06:00:00"], [4.0], [4.123456789])
        buf = io.StringIO()
        write_series_csv(buf, [port, new],
                         comment="config_hash=abc tool_version=0.1.0")
        assert buf.getvalue() == (
            "# config_hash=abc tool_version=0.1.0\n"
            "site,timestamp,peak_tide_m,max_sea_level_m,skew_surge_m\n"
            '"Port, North",1999-12-31T23:59:59Z,3.250000,3.250000,-0.000000\n'
            '"Port, North",2000-02-29T12:25:00Z,-0.500000,0.333333,0.833333\n'
            "NEW,2017-06-01T06:00:00Z,4.000000,4.123457,0.123457\n"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        sites=st.lists(
            st.tuples(
                st.sampled_from(["A", "Port, North", 'say "hi"', "é", "北,站"]),
                st.lists(st.tuples(st.integers(*STAMP_SECONDS), LEVEL,
                                   LEVEL, LEVEL), min_size=1, max_size=12),
            ),
            min_size=1, max_size=3,
        ),
        block=st.sampled_from([1, 2, 5, 1 << 15]),
    )
    def test_written_text_matches_the_per_row_writer(self, sites, block):
        series = []
        for site_id, rows in sites:
            seconds, a, b, c = (np.array(column) for column in zip(*rows))
            stamps = seconds.astype("datetime64[s]")
            series.append(SiteSeries(site_id, stamps, a, b, c,
                                     *calendar_columns(stamps)))
        buf = io.StringIO()
        with mock.patch.object(data, "_BLOCK_ROWS", block):
            write_series_csv(buf, series)
        assert buf.getvalue() == _per_row_csv(series)

    @pytest.mark.parametrize("stamp, shown", [
        ("10000-01-01T00:00:00", "10000-01-01T00:00:00"),
        ("-0001-12-31T23:59:59", "-001-12-31T23:59:59"),
        ("NaT", "NaT"),
    ])
    def test_years_the_loader_cannot_read_are_refused(self, tmp_path, stamp,
                                                      shown):
        fine = _series("A", ["0000-01-01T00:00:00", "9999-12-31T23:59:59"],
                       [1.0, 2.0], [1.5, 2.5])
        write_series_csv(tmp_path / "edges.csv", fine)
        back = load_series(tmp_path / "edges.csv")["A"]
        npt.assert_array_equal(back.timestamps, fine.timestamps)
        bad = _series("Port, North", ["2000-01-01T00:00:00", stamp],
                      [1.0, 1.0], [1.5, 1.5])
        path = tmp_path / "bad.csv"
        with pytest.raises(ValueError, match=(
                f"site Port, North: timestamp {shown} is outside years "
                "0000-9999")):
            write_series_csv(path, [fine, bad])
        assert not path.exists()

    @settings(max_examples=40, deadline=None)
    @given(
        sites=st.lists(
            st.tuples(
                st.sampled_from(["A", "B2", "Port, North", 'say "hi"', "é"]),
                st.lists(st.integers(-2_000_000_000, 2_000_000_000),
                         min_size=1, max_size=30, unique=True),
            ),
            min_size=1, max_size=4, unique_by=lambda site: site[0],
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_round_trip_of_shuffled_sites(self, tmp_path_factory, sites, seed):
        rng = np.random.default_rng(seed)
        written = []
        for site_id, seconds in sites:
            stamps = np.array(seconds, dtype="datetime64[s]")
            tide = rng.uniform(-5.0, 5.0, len(seconds))
            written.append(_series(site_id, stamps, tide,
                                   tide + rng.normal(0.0, 1.0, len(seconds))))
        shuffled = [s.subset(rng.permutation(len(s))) for s in written]
        path = tmp_path_factory.mktemp("rt") / "gauges.csv"
        write_series_csv(path, shuffled, comment="round trip")
        back = load_series(path)
        assert list(back) == [site_id for site_id, _ in sites]
        for s in written:
            got, order = back[s.site_id], np.argsort(s.timestamps)
            npt.assert_array_equal(got.timestamps, s.timestamps[order])
            for name in ("peak_tide", "max_sea_level", "skew_surge"):
                npt.assert_allclose(getattr(got, name),
                                    getattr(s, name)[order], atol=5e-7)
            for name in ("year", "month", "day_of_month", "day_of_year"):
                npt.assert_array_equal(getattr(got, name),
                                       getattr(s, name)[order])


GAUGE_HEADER_LINE = "site,timestamp,peak_tide_m,max_sea_level_m,skew_surge_m\n"
ROWS = [
    "A,2000-01-01T00:00:00Z,3.0,3.5,0.25\n",
    '"Port, North",2000-03-01T12:00,1.5,1.25,-0.25\n',
    "A#1,2000-01-02T00:00Z,2.0,2.75,0.5\n",
    "A,1999-12-31T22:00-01:00,3.0,3.2,0.125\n",
]


def _assert_same_series(got, expected):
    """Same sites in the same order; every field equal, with its dtype."""
    assert list(got) == list(expected)
    for site_id, series in expected.items():
        for f in fields(SiteSeries):
            a, b = getattr(got[site_id], f.name), getattr(series, f.name)
            if isinstance(b, np.ndarray):
                assert a.dtype == b.dtype, f.name
                npt.assert_array_equal(a, b, err_msg=f.name)
            else:
                assert a == b, f.name


class TestLoaderRoutes:
    """A file with no comment line after the header is handed to numpy as
    it is; one with such a line is filtered first. Both give one answer."""

    def _load(self, tmp_path, text, name="gauges.csv"):
        return load_series(_write(tmp_path, text, name))

    def test_plain_rows_are_pinned(self, tmp_path):
        loaded = self._load(tmp_path, GAUGE_HEADER_LINE + "".join(ROWS))
        assert list(loaded) == ["A", "Port, North", "A#1"]
        a = loaded["A"]
        npt.assert_array_equal(a.timestamps, np.array(
            ["1999-12-31T23:00", "2000-01-01T00:00"], dtype="datetime64[s]"))
        npt.assert_array_equal(a.skew_surge, [0.125, 0.25])
        assert a.skew_surge.dtype == np.float64
        npt.assert_array_equal(loaded["A#1"].skew_surge, [0.5])
        assert len(self._load(tmp_path, GAUGE_HEADER_LINE + ROWS[3])["A"]) == 1

    def test_comment_after_header_loads_identically(self, tmp_path):
        plain = self._load(tmp_path, GAUGE_HEADER_LINE + "".join(ROWS))
        for text in (
            "# lead\n" + GAUGE_HEADER_LINE + "# after\n" + "".join(ROWS),
            GAUGE_HEADER_LINE + "".join(ROWS[:2]) + "#A,2000-01-05,1,2,3\n"
            + "".join(ROWS[2:]),
            GAUGE_HEADER_LINE + "".join(ROWS) + "# last line, no newline",
        ):
            _assert_same_series(self._load(tmp_path, text), plain)

    def test_crlf_file(self, tmp_path):
        text = GAUGE_HEADER_LINE + "".join(ROWS)
        plain = self._load(tmp_path, text)
        crlf = _write(tmp_path, "", "crlf.csv")
        crlf.write_bytes(text.replace("\n", "\r\n").encode())
        _assert_same_series(load_series(crlf), plain)
        crlf.write_bytes(("# c\r\n" + text + "# d\n").replace("\n", "\r\n").encode())
        _assert_same_series(load_series(crlf), plain)

    def test_blank_lines_before_first_row(self, tmp_path):
        plain = self._load(tmp_path, GAUGE_HEADER_LINE + "".join(ROWS))
        for gap in ("\n", "\n\n\n", "\n# c\n\n"):
            _assert_same_series(
                self._load(tmp_path, GAUGE_HEADER_LINE + gap + "".join(ROWS)),
                plain)

    def test_empty_skew_field(self, tmp_path):
        rows = [*ROWS[:3], "A,1999-12-31T22:00-01:00,3.0,3.2,\n",
                "x" * 40 + ",2001-01-01,0.1,0.3, \n"]  # wider than row 1
        text = GAUGE_HEADER_LINE + "".join(rows)
        loaded = self._load(tmp_path, text)
        npt.assert_array_equal(loaded["A"].skew_surge, [3.2 - 3.0, 0.25])
        npt.assert_array_equal(loaded["x" * 40].skew_surge, [0.3 - 0.1])
        assert loaded["A"].skew_surge.dtype == np.float64
        _assert_same_series(
            self._load(tmp_path, text.replace("\nA#1", "\n# c\nA#1")), loaded)

    def test_underscored_skew_is_read_as_python_reads_it(self, tmp_path):
        # numpy's float parser rejects "1_0"; the byte-string route keeps it
        loaded = self._load(tmp_path, GAUGE_HEADER_LINE + "A,2000-01-01,1,2,1_0\n")
        npt.assert_array_equal(loaded["A"].skew_surge, [10.0])

    def test_hash_inside_a_site_id_is_kept(self, tmp_path):
        for text in (GAUGE_HEADER_LINE + ROWS[2],
                     GAUGE_HEADER_LINE + "# c\n" + ROWS[2]):
            assert list(self._load(tmp_path, text)) == ["A#1"]

    def test_plain_text_named_like_a_compressed_file(self, tmp_path):
        text = GAUGE_HEADER_LINE + "".join(ROWS)
        plain = self._load(tmp_path, text)
        for name in ("gauges.csv.gz", "gauges.csv.bz2", "gauges.csv.xz"):
            _assert_same_series(self._load(tmp_path, text, name), plain)


# The loader as it was before numpy read the file by name, the stamps
# were tested through one byte view, site ids were stripped once per run
# and files in (site, time) order were left unsorted: the reference of
# the differential test below.

def _reference_calendar(timestamps):
    days = np.asarray(timestamps, dtype="datetime64[s]").view(np.int64) // 86400
    era, doe = np.divmod(days + 719468, 146097)
    yoe = (doe - doe // 1460 + doe // 36524 - doe // 146096) // 365
    doy = doe - (365 * yoe + yoe // 4 - yoe // 100)
    mp = (5 * doy + 2) // 153
    day = doy - (153 * mp + 2) // 5 + 1
    month = np.where(mp < 10, mp + 3, mp - 9)
    year = 400 * era + yoe + (month <= 2)
    return year, month, day, day_of_year_365(month, day)


def _reference_utc_stamps(text):
    text = np.char.strip(text)
    codes = text.view(np.uint8).reshape(len(text), -1)
    rows, end = np.arange(len(text)), np.char.str_len(text)
    if not (np.char.find(text, b"-") == 4).all():
        raise ValueError("not an ISO 8601 date and time (YYYY-MM-DD...)")
    zulu = codes[rows, end - 1] == ord("Z")
    codes[rows[zulu], end[zulu] - 1] = 0
    signs = (codes[:, 10:] == ord("+")) | (codes[:, 10:] == ord("-"))
    at = np.flatnonzero(signs.any(axis=1))
    # One change: argmax of no rows raised on a lone 10-byte stamp (a date
    # alone), so the row check reported such a valid stamp as bad.
    start = 10 + (signs[at].argmax(axis=1) if at.size else at)
    width = end[at] - start
    last = codes.shape[1] - 1
    mm = start + np.where(width == 6, 4, 3)
    hh_mm = codes[at[:, None], np.minimum(
        np.stack([start + 1, start + 2, mm, mm + 1], axis=1), last)
    ].astype(np.int64) - ord("0")
    hh_mm[width == 3, 2:] = 0
    if (~np.isin(width, (3, 5, 6)) | (start == 10) | zulu[at]
            | (signs[at].sum(axis=1) > 1)
            | ((width == 6) & (codes[at, np.minimum(start + 3, last)] != ord(":")))
            | ((hh_mm < 0) | (hh_mm > 9)).any(axis=1)
            | (hh_mm @ [10, 1, 0, 0] > 23) | (hh_mm[:, 2] > 5)).any():
        raise ValueError("a UTC offset is ±HH:MM, ±HHMM or ±HH, below 24:00, "
                         "after a time and with no Z")
    minutes = np.where(codes[at, start] == ord("-"), -1, 1) * (hh_mm @ [600, 60, 10, 1])
    codes[at[:, None], np.minimum(start[:, None] + np.arange(6), last)] = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stamps = text.astype("datetime64[s]")
    stamps[at] -= minutes * np.timedelta64(60, "s")
    return stamps


def _reference_parse_rows(lines, header, first_line):
    first = next(csv.reader([first_line]))
    widths = [len(f) + 8 for f in first] + [8] * len(header)
    floats = {"peak_tide_m", "max_sea_level_m", "skew_surge_m"}
    for _ in range(3):
        try:
            table = np.loadtxt(
                lines(), delimiter=",", quotechar='"', comments=None, ndmin=1,
                dtype=[(name, "f8" if name in floats else f"S{width}")
                       for name, width in zip(header, widths)])
        except ValueError:
            if "skew_surge_m" not in floats or len(header) < 5:
                raise
            floats = {"peak_tide_m", "max_sea_level_m"}
            continue
        if all(np.char.str_len(table[name]).max() < width
               for name, width in zip(header, widths) if name not in floats):
            return table
        widths = [max(map(len, lines()))] * len(header)
    return table


def _reference_row_error(path, n_fields):
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        lines = ((no, line) for no, line in enumerate(fh, start=1)
                 if line != "\n" and not line.startswith("#"))
        next(lines)
        for line_no, line in lines:
            row = next(csv.reader([line]))
            where = f"{path} line {line_no}"
            if len(row) != n_fields:
                return f"{where}: expected {n_fields} fields"
            if not row[0].strip():
                return f"{where}: empty site id"
            try:
                row[0].encode()
            except UnicodeEncodeError:
                return f"{where}: site id is not UTF-8"
            try:
                stamp = np.array([row[1].encode()])
            except UnicodeEncodeError:
                return f"{where}: timestamp is not UTF-8"
            try:
                _reference_utc_stamps(stamp)
            except (ValueError, UserWarning) as exc:
                return f"{where}: bad timestamp {row[1]!r}: {exc}"
            try:
                [float(v) for v in row[2:4] + [v for v in row[4:] if v.strip()]]
            except ValueError:
                return f"{where}: non-numeric level"


def _reference_load_series(path):
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"gauge CSV not found: {path}")
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
        fh.seek(start)
        commented = any(
            "#" in block and (block.startswith("#") or "\n#" in block)
            for block in iter(lambda: fh.read(1 << 16) + fh.readline(), ""))

        def data_lines():
            fh.seek(start)
            return (line for line in fh if not line.startswith("#")) if commented else fh

        try:
            table = _reference_parse_rows(data_lines, header, first_line)
            site = np.char.strip(table["site"])
            if (np.char.str_len(site) == 0).any():
                raise ValueError("empty site id")
            stamps = _reference_utc_stamps(table["timestamp"])
            tide, msl = table["peak_tide_m"], table["max_sea_level_m"]
            skew = msl - tide
            if table.dtype[-1].kind == "S":
                given = np.char.strip(table["skew_surge_m"])
                filled = np.char.str_len(given) > 0
                skew[filled] = given[filled].astype(float)
            elif len(header) == 5:
                skew = table["skew_surge_m"]
        except (ValueError, UserWarning) as exc:
            raise ValueError(_reference_row_error(path, len(header))
                             or f"{path}: {exc}") from None

    names, first, code = np.unique(site, return_index=True, return_inverse=True)
    order = np.lexsort((stamps.view(np.int64), code))
    stamps = stamps[order]
    bounds = np.searchsorted(code[order], np.arange(len(names) + 1))
    columns = (stamps, tide[order], msl[order], skew[order],
               *_reference_calendar(stamps))
    try:
        site_ids = [name.decode() for name in names.tolist()]
    except UnicodeDecodeError:
        raise ValueError(_reference_row_error(path, len(header))
                         or f"{path}: a site id is not UTF-8") from None
    out = {}
    for k in np.argsort(first):
        site_id, rows = site_ids[k], slice(bounds[k], bounds[k + 1])
        dup = np.flatnonzero(np.diff(stamps[rows].view(np.int64)) == 0)
        if dup.size:
            raise ValueError(
                f"site {site_id}: duplicate timestamp {stamps[rows][dup[0] + 1]}")
        out[site_id] = SiteSeries(site_id, *(column[rows] for column in columns))
    return out


def _outcome(load, path):
    """What ``load(path)`` gives: the series, or a ValueError's text."""
    try:
        return load(path)
    except ValueError as exc:
        return str(exc)


def _assert_identical(got, expected):
    """The same outcome: one error text, or the same sites in the same
    order with every column of the same dtype and bytes."""
    assert type(got) is type(expected)
    if isinstance(expected, str):
        assert got == expected
        return
    assert list(got) == list(expected)
    for site_id, series in expected.items():
        for f in fields(SiteSeries):
            a, b = getattr(got[site_id], f.name), getattr(series, f.name)
            if isinstance(b, np.ndarray):
                assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
                assert a.tobytes() == b.tobytes(), f.name
            else:
                assert a == b, f.name


STAMP_FORMS = ("%Y-%m-%dT%H:%M:%S", "%Y-%m-%dT%H:%M", "%Y-%m-%d %H:%M:%S",
               "%Y-%m-%d")
OFFSET_FORMS = ("", "Z", "{sign}{hh:02d}:{mm:02d}", "{sign}{hh:02d}{mm:02d}",
                "{sign}{hh:02d}")
BAD_ROWS = ("A,2000-01-02T00:00Z,x,3.1", "A,now,3.0,3.1", "A,2000-13-01,3,3",
            "A,2000-01-02T00:00+24:00,3.0,3.1", "A,2000-01-02T00:00+01Z,3,3",
            "  ,2000-01-02,3.0,3.1", "A,2000-01-02,3.0", "A,2000-01-02,1_0,2",
            "\xff,2000-01-02,3.0,3.1")


def _stamp(seconds, form, offset_form, offset):
    """The instant ``seconds`` written in ``form`` at UTC offset ``offset``
    minutes, with the offset in ``offset_form``."""
    local = datetime.datetime(1970, 1, 1) + datetime.timedelta(
        seconds=seconds + 60 * offset)
    sign, (hh, mm) = "-" if offset < 0 else "+", divmod(abs(offset), 60)
    return local.strftime(form) + offset_form.format(sign=sign, hh=hh, mm=mm)


def _site_field(site_id, style):
    """``site_id`` as a CSV field: quoted where the csv module quotes it,
    always quoted, or with spaces around it (unless it holds a comma)."""
    row = io.StringIO()
    quoting = csv.QUOTE_ALL if style == "quoted" else csv.QUOTE_MINIMAL
    csv.writer(row, lineterminator="", quoting=quoting).writerow([site_id])
    if style == "padded" and "," not in site_id:
        return f" {row.getvalue()}  "
    return row.getvalue()


@st.composite
def gauge_files(draw):
    """Bytes of a gauge CSV: one or more sites, their rows in writer order,
    interleaved or shuffled, stamps in several forms and offsets, comment
    and blank lines, CRLF line ends, empty skew fields and a bad row."""
    five = draw(st.booleans())
    sites = draw(st.lists(st.sampled_from(["A", "B2", "Port, North",
                                           'say "hi"', "é"]),
                          min_size=1, max_size=3, unique=True))
    rows = [(site_id, t) for site_id in sites for t in sorted(draw(st.lists(
        st.integers(-2_000_000_000, 2_000_000_000), min_size=1, max_size=8,
        unique=True)))]
    order = draw(st.sampled_from(["written", "interleaved", "shuffled"]))
    if order == "interleaved":
        rows.sort(key=lambda row: row[1])
    elif order == "shuffled":
        rows = draw(st.permutations(rows))
    forms = draw(st.lists(st.tuples(
        st.sampled_from(STAMP_FORMS), st.sampled_from(OFFSET_FORMS),
        st.sampled_from([0, 60, -330, 345, -720, 840])), min_size=1, max_size=2))
    site_style = draw(st.sampled_from(["minimal", "quoted", "padded"]))
    lines = []
    for site_id, t in rows:
        form, offset_form, offset = draw(st.sampled_from(forms))
        tide, level = draw(st.floats(-10, 10)), draw(st.floats(-10, 10))
        line = (f"{_site_field(site_id, site_style)},"
                f"{_stamp(t, form, offset_form, offset)},{tide!r},{level:.6f}")
        if five:
            line += "," + draw(st.sampled_from(["0.25", "-1e-3", "", " "]))
        lines.append(line)
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(["# c", "#A,2000-01-05,1,2,3",
                                               ""])))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(lines)))
        lines.insert(at, draw(st.sampled_from(BAD_ROWS)) + (",0.1" if five else ""))
    header = ",".join(GAUGE_HEADER if five else GAUGE_HEADER[:4])
    lead = draw(st.sampled_from(["", "# config_hash=abc tool_version=0.1.0\n"]))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return (lead + header + "\n" + "".join(line + "\n" for line in lines)
            ).replace("\n", end).encode("utf-8", "surrogateescape")


@settings(max_examples=150, deadline=None)
@given(text=gauge_files())
def test_loader_matches_the_reference_loader(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("diff") / "gauges.csv"
    path.write_bytes(text)
    _assert_identical(_outcome(load_series, path),
                      _outcome(_reference_load_series, path))


def test_row_check_reads_a_date_alone(tmp_path):
    # numpy refuses "1_0" and Python reads it, so no row is found at fault
    path = _write(tmp_path, "site,timestamp,peak_tide_m,max_sea_level_m\n"
                            "A,2000-01-02,1_0,2\n")
    with pytest.raises(ValueError, match="gauges.csv: could not convert"):
        load_series(path)


def test_calendar_matches_the_reference_outside_int32_days():
    seconds = np.array([-2**62, -2**31 * 86400, -1, 0, 2**31 * 86400 - 1,
                        2**62, np.iinfo(np.int64).min])  # the last is NaT
    stamps = seconds.astype("datetime64[s]")
    for got, expected in zip(calendar_columns(stamps),
                             _reference_calendar(stamps)):
        assert got.dtype == expected.dtype
        npt.assert_array_equal(got, expected)


class TestDetrend:
    def test_newlyn_style_adjustment(self):
        # 1.73 mm/yr over the century 1917 -> 2017 raises the record 0.173 m.
        s = columns_series([1], [2.0], [3.0])
        s.year[:] = 1917
        out = detrend_msl(s, 1.73, 2017)
        npt.assert_allclose(out.max_sea_level[0], 5.0 + 0.173)
        npt.assert_allclose(out.skew_surge[0], 3.0 + 0.173)
        npt.assert_allclose(out.peak_tide[0], 2.0)
        assert out.msl_trend_rate == 1.73
        assert out.reference_year == 2017

    def test_zero_rate_is_identity(self):
        s = columns_series([1, 2], [2.0, 2.1], [0.1, 0.2])
        out = detrend_msl(s, 0.0, 2017)
        npt.assert_array_equal(out.max_sea_level, s.max_sea_level)

    def test_reference_year_record_unchanged(self):
        s = columns_series([1], [2.0], [0.1])
        s.year[:] = 2017
        out = detrend_msl(s, 5.0, 2017)
        npt.assert_allclose(out.skew_surge, s.skew_surge)

    @given(
        r1=st.floats(-5, 5, allow_nan=False),
        r2=st.floats(-5, 5, allow_nan=False),
    )
    def test_two_detrends_compose_additively(self, r1, r2):
        s = columns_series([1, 6, 12], [2.0, 2.5, 3.0], [0.1, -0.2, 0.4])
        s.year[:] = [1950, 1980, 2010]
        twice = detrend_msl(detrend_msl(s, r1, 2017), r2, 2017)
        once = detrend_msl(s, r1 + r2, 2017)
        npt.assert_allclose(twice.max_sea_level, once.max_sea_level,
                            atol=1e-12)
        npt.assert_allclose(twice.skew_surge, once.skew_surge, atol=1e-12)


class TestStandardizeYear:
    def test_midpoint(self):
        assert standardize_year(1968) == 0.0

    def test_1920(self):
        npt.assert_allclose(standardize_year(1920), -48 / 53)
        npt.assert_allclose(standardize_year(1920), -0.9057, atol=5e-5)

    def test_upper_edge(self):
        assert standardize_year(2021) == 1.0

    def test_order_preserved(self):
        years = np.array([1890, 1920, 1968, 2000, 2050])
        out = standardize_year(years)
        assert (np.diff(out) > 0).all()

    def test_bad_half_range(self):
        with pytest.raises(ValueError):
            standardize_year(2000, half_range=0)


class TestCalendar:
    def test_feb29_maps_to_day_59(self):
        assert day_of_year_365(2, 29) == 59
        assert day_of_year_365(2, 28) == 59
        assert day_of_year_365(3, 1) == 60
        assert day_of_year_365(12, 31) == 365

    def test_calendar_columns_match_datetime(self):
        stamps = np.array(
            ["1999-12-31T23:45:00", "2000-02-29T06:00:00",
             "2020-07-04T12:30:00"],
            dtype="datetime64[s]",
        )
        year, month, day, doy = calendar_columns(stamps)
        npt.assert_array_equal(year, [1999, 2000, 2020])
        npt.assert_array_equal(month, [12, 2, 7])
        npt.assert_array_equal(day, [31, 29, 4])
        npt.assert_array_equal(doy, [365, 59, 185])

    @pytest.mark.parametrize("seconds", [0, 1, 45_900, 86_399])
    def test_calendar_columns_match_datetime_every_day(self, seconds):
        # 1800-01-01 .. 2200-12-31, 1800, 1900 and 2100 not leap, 2000 leap
        first, epoch = datetime.date(1800, 1, 1), datetime.date(1970, 1, 1)
        dates = [first + datetime.timedelta(k) for k in range(146_462)]
        assert dates[-1] == datetime.date(2200, 12, 31)
        stamps = (np.array([(d - epoch).days for d in dates]) * 86_400
                  + seconds).astype("datetime64[s]")
        year, month, day, doy = calendar_columns(stamps)
        for column in (year, month, day, doy):
            assert column.dtype == np.int64
        npt.assert_array_equal(year, [d.year for d in dates])
        npt.assert_array_equal(month, [d.month for d in dates])
        npt.assert_array_equal(day, [d.day for d in dates])
        yday = np.array([d.timetuple().tm_yday for d in dates])
        leap = np.array([calendar.isleap(d.year) for d in dates])
        npt.assert_array_equal(doy, yday - (leap & (yday >= 60)))
        feb29 = (month == 2) & (day == 29)
        assert feb29.sum() == 97 and (doy[feb29] == 59).all()

    def test_december_is_winter(self):
        assert season_of_day(day_of_year_365(12, 15)) == 0
        assert season_of_day(day_of_year_365(9, 15)) == 3

    def test_month_of_day_inverts_day_of_year(self):
        # Every day of every month, the last ones included (Feb 28 is
        # winter, not spring).
        days_in_month = [31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31]
        month = np.repeat(np.arange(1, 13), days_in_month)
        day = np.concatenate([np.arange(1, n + 1) for n in days_in_month])
        doy = day_of_year_365(month, day)
        npt.assert_array_equal(doy, np.arange(1, 366))
        npt.assert_array_equal(month_of_day(doy), month)
        assert season_of_day(day_of_year_365(2, 28)) == 0


@settings(deadline=None, max_examples=300)
@given(st.one_of(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=300),
                 st.lists(st.integers(0, 3), min_size=1, max_size=300),
                 st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=2)),
       st.one_of(st.sampled_from([1e-12, 1e-6, 0.05, 0.5, 1.0 - 1e-6,
                                  1.0 - 1e-12]),
                 st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)))
def test_quantile_is_numpys_linear_quantile(values, p):
    # chi's and the monthly thresholds equal np.quantile's to the bit:
    # ties, one or two
    # values, and p near 0 and 1 (virtual index near 0 and n - 1)
    a = np.asarray(values, dtype=float)
    kept = a.copy()
    got = data._quantile(a, 1.0 - p)
    expected = np.quantile(a, 1.0 - p)
    assert got == expected and type(got) is type(expected)
    npt.assert_array_equal(a, kept)



class TestMonthlyThresholds:
    def test_interpolated_quantile(self):
        months = np.repeat(np.arange(1, 13), 100)
        surges = np.tile(np.arange(1.0, 101.0), 12)
        s = columns_series(months, np.full(1200, 3.0), surges)
        thr = monthly_thresholds(s, 0.95)
        npt.assert_allclose(thr.values, 95.05)

    def test_constant_month_gives_constant(self):
        months = np.repeat(np.arange(1, 13), 30)
        s = columns_series(months, np.full(360, 3.0), np.full(360, 0.7))
        npt.assert_allclose(monthly_thresholds(s).values, 0.7)

    def test_months_independent(self):
        months = np.repeat(np.arange(1, 13), 40)
        surges = np.where(months == 2, 5.0, 1.0)
        s = columns_series(months, np.full(480, 3.0), surges)
        thr = monthly_thresholds(s)
        npt.assert_allclose(thr.values[1], 5.0)
        npt.assert_allclose(thr.values[0], 1.0)

    def test_sparse_month_errors(self):
        months = np.repeat(np.arange(1, 13), 40)
        months[months == 7] = 6  # wipe out July
        s = columns_series(months, np.full(480, 3.0), np.zeros(480))
        with pytest.raises(ValueError, match="month 7"):
            monthly_thresholds(s)

    def test_first_sparse_month_is_named(self):
        months = np.repeat(np.arange(1, 13), 40)[::-1].copy()
        months[months == 9] = 1
        months[months == 4] = 1
        s = columns_series(months, np.full(480, 3.0), np.zeros(480))
        with pytest.raises(ValueError, match="month 4 has 0 records"):
            monthly_thresholds(s)

    @pytest.mark.parametrize("percentile", [0.5, 0.95, 0.99])
    def test_equal_to_each_masked_month(self, sim_r0, percentile):
        series, _, _ = sim_r0
        shuffled = series.subset(np.random.default_rng(3).permutation(len(series)))
        for s in (series, shuffled):
            expected = [np.quantile(s.skew_surge[s.month == j], percentile)
                        for j in range(1, 13)]
            got = monthly_thresholds(s, percentile).values
            assert got.tobytes() == np.array(expected).tobytes()

    @settings(deadline=None, max_examples=200)
    @given(st.lists(st.one_of(st.just(30), st.integers(31, 90)),
                    min_size=12, max_size=12),
           st.sampled_from([None, 1, 4]),
           st.one_of(st.sampled_from([1e-12, 1e-6, 0.05, 0.5, 0.95,
                                      1.0 - 1e-6, 1.0 - 1e-12]),
                     st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)),
           st.integers(0, 2**32 - 1))
    def test_each_month_is_numpys_quantile_to_the_bit(self, sizes, levels,
                                                      percentile, seed):
        # months of exactly 30 records, ties (surges on ``levels`` distinct
        # values, or continuous where None), percentiles near 0 and 1, and
        # the records in any order
        rng = np.random.default_rng(seed)
        months = rng.permutation(np.repeat(np.arange(1, 13), sizes))
        surges = (rng.normal(0.2, 0.3, months.size) if levels is None
                  else rng.integers(0, levels, months.size) * 0.25)
        s = columns_series(months, np.full(months.size, 3.0), surges)
        expected = [np.quantile(s.skew_surge[s.month == j], percentile)
                    for j in range(1, 13)]
        got = monthly_thresholds(s, percentile).values
        assert got.tobytes() == np.array(expected).tobytes()

    def test_monotone_in_percentile(self, sim_r0):
        series, _, _ = sim_r0
        lo = monthly_thresholds(series, 0.90).values
        hi = monthly_thresholds(series, 0.97).values
        assert (lo <= hi).all()

    def test_exceedance_count_within_one(self, sim_r0):
        series, _, _ = sim_r0
        thr = monthly_thresholds(series, 0.95)
        for j in range(1, 13):
            ss = series.skew_surge[series.month == j]
            n_exc = int((ss > thr.values[j - 1]).sum())
            assert abs(n_exc - 0.05 * ss.size) <= 1.0

    def test_bad_percentile(self, sim_r0):
        with pytest.raises(ValueError):
            monthly_thresholds(sim_r0[0], 1.0)


class TestCovariates:
    def test_gmt_lookup(self):
        s = columns_series([1, 2], [2.0, 2.5], [0.1, 0.2])
        s.year[:] = [1990, 1991]
        gmt = GmtSeries(years=[1990, 1991], anomalies=[0.2, 0.3])
        out = attach_covariates(s, gmt=gmt)
        npt.assert_allclose(out.gmt, [0.2, 0.3])
        npt.assert_allclose(out.year_std, standardize_year(s.year))

    def test_missing_gmt_year_named(self):
        s = columns_series([1, 2], [2.0, 2.5], [0.1, 0.2])
        s.year[:] = [1990, 1991]
        gmt = GmtSeries(years=[1990], anomalies=[0.2])
        with pytest.raises(KeyError, match="1991"):
            attach_covariates(s, gmt=gmt)

    def test_standardizers_describe_series(self):
        s = columns_series([1, 1, 2], [2.0, 4.0, 3.0], [0.1, 0.2, 0.3])
        out = standardizers(s.peak_tide, s.month, s.day_of_month)
        npt.assert_allclose(out.tide_mean, 3.0)
        npt.assert_allclose(out.tide_sd, np.std([2.0, 4.0, 3.0]))
        npt.assert_allclose(out.month_mean_day[0],
                            s.day_of_month[:2].mean())
        assert math.isnan(out.month_mean_day[11])

    def test_constant_tide_errors(self):
        s = columns_series([1, 2], [3.0, 3.0], [0.1, 0.2])
        with pytest.raises(ValueError, match="zero variance"):
            attach_covariates(s)


def test_load_gmt(tmp_path):
    path = tmp_path / "gmt.csv"
    path.write_text("year,anomaly_c\n1990,0.25\n1991,0.31\n")
    gmt = load_gmt(path)
    npt.assert_allclose(gmt.anomaly_for(1991), 0.31)
    with pytest.raises(KeyError):
        gmt.anomaly_for(1800)


def test_gmt_lookup_of_unsorted_years():
    gmt = GmtSeries(years=[1991, 1989, 1990], anomalies=[0.31, 0.2, 0.25])
    npt.assert_array_equal(gmt.anomaly_for([1990, 1991, 1989, 1990]),
                           [0.25, 0.31, 0.2, 0.25])
    assert gmt.anomaly_for(np.int64(1989)) == 0.2
    with pytest.raises(KeyError, match="no GMT anomaly for year 1992"):
        gmt.anomaly_for([1990, 1992, 1800])
    with pytest.raises(KeyError, match="year 1990"):
        GmtSeries(years=[], anomalies=[]).anomaly_for(1990)


def test_attach_covariates_looks_up_each_record_year():
    s = columns_series([1, 1, 1], [2.0, 2.5, 3.0], [0.1, 0.2, 0.3])
    s.year[:] = [1990, 1991, 1991]
    gmt = GmtSeries(years=[1991, 1990], anomalies=[0.5, 0.25])
    npt.assert_array_equal(attach_covariates(s, gmt=gmt).gmt, [0.25, 0.5, 0.5])
    s.year[:] = 1992
    with pytest.raises(KeyError, match="no GMT anomaly for year 1992"):
        attach_covariates(s, gmt=gmt)


def test_load_gmt_bad_header(tmp_path):
    path = tmp_path / "gmt.csv"
    path.write_text("yr,anom\n1990,0.2\n")
    with pytest.raises(ValueError, match="header"):
        load_gmt(path)


def test_load_gmt_reports_the_files_own_line_number(tmp_path):
    path = tmp_path / "gmt.csv"
    path.write_text("# comment\nyear,anomaly_c\n1990,0.1\n\n1991,x\n")
    with pytest.raises(ValueError, match="line 5: bad GMT row"):
        load_gmt(path)
