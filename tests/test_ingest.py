import contextlib
import dataclasses
import datetime
import re
import tracemalloc
from unittest import mock
from zoneinfo import ZoneInfo

import ingest_oracle
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushresp import ingest
from pushresp.cli import main
from pushresp.errors import MalformedRecord
from pushresp.ingest import (
    DAY_NS,
    DEFAULT_VENUES,
    QUOTE_HEADER,
    Nbbo,
    QualityReport,
    Quotes,
    build_mid_series,
    consolidate_nbbo,
    filter_eligible,
    ingest_consolidated,
    ingest_files,
    read_quote_csv,
)
from pushresp.series import read_manifest, write_prms

ET = ZoneInfo("America/New_York")
UTC = datetime.timezone.utc
RANK = {v: i for i, v in enumerate(DEFAULT_VENUES)}
DOCUMENTED = "1546353000000000000,ARCA,249.90,100,249.92,200,R"


def ns_at(y, m, d, hh, mm, ss=0, nanos=0, tz=ET):
    dt = datetime.datetime(y, m, d, hh, mm, ss, tzinfo=tz)
    return int(dt.timestamp()) * 1_000_000_000 + nanos


def quote(ts, venue="ARCA", bid=100.0, ask=100.02, cond="R"):
    return ts, venue, bid, ask, cond


def quotes(*rows) -> Quotes:
    """Columns of `quote(...)` rows, numbered as lines 2, 3, ..."""
    ts, venue, bid, ask, cond = zip(*rows)
    return Quotes(
        np.array(ts, np.int64), np.array([RANK[v] for v in venue], np.int16),
        np.array(bid), np.array(ask), np.array([c == "R" for c in cond]),
        np.arange(2, 2 + len(rows)),
    )


def nbbo(*rows) -> Nbbo:
    """Consolidated events from (ts, bid, ask, mid) rows."""
    return Nbbo(*map(np.array, zip(*rows)))


def books(out: Nbbo) -> list[tuple[float, float]]:
    return list(zip(out.bid.tolist(), out.ask.tolist()))


def write_lines(path, lines, header=QUOTE_HEADER):
    """Lines joined by LF; "\\udcXX" in a line is written as the byte XX."""
    text = "\n".join([header, *lines]) + "\n"
    path.write_text(text, encoding="utf-8", errors="surrogateescape")
    return path


def write_venue_file(path, rows):
    write_lines(path, [",".join(map(str, row)) for row in rows])


class TestParse:
    def test_documented_example(self, tmp_path):
        p = write_lines(tmp_path / "arca.csv", [DOCUMENTED])
        q = read_quote_csv(p)
        assert q.ts.tolist() == [1546353000000000000]
        assert q.venue.tolist() == [RANK["ARCA"]]
        assert q.bid.tolist() == [249.90]
        assert q.ask.tolist() == [249.92]
        assert q.regular.tolist() == [True]
        assert q.line.tolist() == [2]

    def test_non_numeric_bid(self, tmp_path):
        bad = DOCUMENTED.replace("249.90", "abc")
        p = write_lines(tmp_path / "arca.csv", [DOCUMENTED] * 5 + [bad])
        with pytest.raises(MalformedRecord) as err:
            read_quote_csv(p)
        assert err.value.line_no == 7
        assert "bid" in err.value.field

    def test_non_regular_condition_still_parses(self, tmp_path):
        p = write_lines(tmp_path / "arca.csv", [DOCUMENTED.replace(",R", ",X")])
        q = read_quote_csv(p)
        assert q.regular.tolist() == [False]
        assert len(filter_eligible(q).ts) == 0

    def test_unknown_venue(self, tmp_path):
        p = write_lines(tmp_path / "x.csv", ["1546353000000000000,MARS,249.90,100,249.92,200,R"])
        with pytest.raises(MalformedRecord) as err:
            read_quote_csv(p)
        assert (err.value.line_no, err.value.field) == (2, "venue")

    def test_wrong_field_count(self, tmp_path):
        p = write_lines(tmp_path / "x.csv", ["", "1,ARCA,1.0,2"])
        with pytest.raises(MalformedRecord) as err:
            read_quote_csv(p)
        assert (err.value.line_no, err.value.field) == (3, "record")

    def test_negative_price(self, tmp_path):
        p = write_lines(tmp_path / "x.csv", ["1546353000000000000,ARCA,-1.0,100,249.92,200,R"])
        with pytest.raises(MalformedRecord) as err:
            read_quote_csv(p)
        assert (err.value.line_no, err.value.field) == (2, "bid_price/ask_price")


class TestFilter:
    def test_before_open_dropped(self):
        assert len(filter_eligible(quotes(quote(ns_at(2019, 1, 2, 9, 29, 59)))).ts) == 0

    def test_open_boundary_inclusive(self):
        q = quotes(quote(ns_at(2019, 1, 2, 9, 30, 0)))
        assert filter_eligible(q).ts.tolist() == q.ts.tolist()

    def test_close_boundary_exclusive(self):
        kept = ns_at(2019, 1, 2, 15, 59, 59, nanos=999_999_999)
        dropped = ns_at(2019, 1, 2, 16, 0, 0)
        assert filter_eligible(quotes(quote(kept), quote(dropped))).ts.tolist() == [kept]

    def test_non_regular_condition_dropped(self):
        report = QualityReport()
        q = quotes(quote(ns_at(2019, 1, 2, 12, 0), cond="A"))
        assert len(filter_eligible(q, report=report).ts) == 0
        assert report.n_dropped_condition == 1

    def test_dst_summer_and_winter(self):
        # DST: the same wall-clock open maps to different UTC times
        edges = [
            ns_at(2019, 1, 2, 14, 29, 59, tz=UTC), ns_at(2019, 1, 2, 14, 30, tz=UTC),
            ns_at(2019, 7, 2, 13, 29, 59, tz=UTC), ns_at(2019, 7, 2, 13, 30, tz=UTC),
        ]
        kept = filter_eligible(quotes(*map(quote, edges))).ts.tolist()
        assert kept == [edges[1], edges[3]]


class TestCalendar:
    def test_record_at_the_int64_limit_is_outside_rth(self, tmp_path):
        # 2262-04-11 19:47 local; the next local midnight is past int64
        p = write_lines(tmp_path / "nbbo.csv", [
            f"{ns_at(2024, 1, 3, 10, 0)},ARCA,100.00,100,100.02,100,R",
            f"{np.iinfo(np.int64).max},ARCA,100.00,100,100.02,100,R",
        ])
        out = tmp_path / "mids.prms"
        assert main(["ingest", "--consolidated", str(p), "--out", str(out)]) == 0
        quality = read_manifest(out)["quality"]
        assert (quality["n_records"], quality["n_dropped_outside_rth"]) == (2, 1)
        assert quality["empty_session_dates"] == ["2262-04-11"]

    def test_a_stray_record_looks_up_only_its_own_days(self, tmp_path, monkeypatch):
        # one record at 1 ns before 1,000 over three 2024 sessions: the 54
        # years between are not looked up
        calls = []
        lookup = ingest._local_bounds
        monkeypatch.setattr(ingest, "_local_bounds",
                            lambda day, zone: calls.append(day) or lookup(day, zone))
        t0 = ns_at(2024, 1, 3, 10, 0)
        times = [t0 + i * (DAY_NS // 500) for i in range(1000)]
        p = write_lines(tmp_path / "nbbo.csv", [
            f"{t},ARCA,{100 + i % 2},100,102,100,R" for i, t in enumerate([1, *times])])
        series, report = ingest_consolidated(p)
        in_rth = [ns_at(2024, 1, d, 9, 30) <= t < ns_at(2024, 1, d, 16, 0)
                  for t in times for d in (3, 4, 5)]
        assert report.n_dropped_outside_rth == 1 + len(times) - sum(in_rth)
        assert report.empty_session_dates == ["1969-12-31"]
        assert [s.calendar_date for s in series.sessions] == [
            datetime.date(2024, 1, d) for d in (3, 4, 5)]
        # one lookup of the records and one of the events, whose UTC days
        # are among the records': at most 3 dates per UTC day each
        utc_days = {t // DAY_NS for t in [1, *times]}
        assert len(calls) <= 2 * 3 * len(utc_days)


class TestConsolidate:
    def test_single_venue_dedup(self):
        t0 = ns_at(2019, 1, 2, 10, 0)
        report = QualityReport()
        out = consolidate_nbbo(quotes(
            quote(t0, bid=100.00, ask=100.02),
            quote(t0 + 1000, bid=100.00, ask=100.02),  # unchanged book
            quote(t0 + 2000, bid=100.01, ask=100.02),
        ), report=report)
        assert books(out) == [(100.00, 100.02), (100.01, 100.02)]
        assert report.n_unchanged_suppressed == 1
        assert out.ts.tolist() == [t0, t0 + 2000]

    def test_two_venue_best_bid_ask(self):
        t0 = ns_at(2019, 1, 2, 10, 0)
        out = consolidate_nbbo(quotes(
            quote(t0, venue="NYSE", bid=100.00, ask=100.03),
            quote(t0 + 500, venue="NASDAQ", bid=100.01, ask=100.02),
        ))
        assert books(out)[-1] == (100.01, 100.02)
        assert out.mid[-1] == 100.015

    def test_mid_is_arithmetic_mean(self):
        out = consolidate_nbbo(quotes(quote(ns_at(2019, 1, 2, 10, 0), bid=249.90, ask=249.92)))
        assert out.mid[0] == (249.90 + 249.92) / 2.0

    def test_crossed_withheld_then_recovers(self):
        t0 = ns_at(2019, 1, 2, 10, 0)
        report = QualityReport()
        out = consolidate_nbbo(quotes(
            quote(t0, venue="NYSE", bid=100.00, ask=100.02),
            quote(t0 + 1000, venue="NASDAQ", bid=100.05, ask=100.06),  # crosses NYSE ask
            quote(t0 + 2000, venue="NASDAQ", bid=100.01, ask=100.03),
        ), report=report)
        assert report.n_crossed_dropped == 1
        assert books(out) == [(100.00, 100.02), (100.01, 100.02)]

    def test_locked_kept_and_counted(self):
        t0 = ns_at(2019, 1, 2, 10, 0)
        report = QualityReport()
        out = consolidate_nbbo(quotes(
            quote(t0, venue="NYSE", bid=100.00, ask=100.02),
            quote(t0 + 1000, venue="NASDAQ", bid=100.02, ask=100.04),
        ), report=report)
        assert report.n_locked_kept == 1
        assert books(out)[-1] == (100.02, 100.02)

    def test_timestamp_tie_broken_by_priority(self):
        t0 = ns_at(2019, 1, 2, 10, 0)
        # NYSE outranks NASDAQ in the default priority, so its update applies first
        out = consolidate_nbbo(quotes(
            quote(t0, venue="NASDAQ", bid=100.01, ask=100.02),
            quote(t0, venue="NYSE", bid=100.00, ask=100.03),
        ))
        assert books(out) == [(100.00, 100.03), (100.01, 100.02)]

    @given(
        st.lists(
            st.tuples(
                st.integers(0, 6),        # venue index
                st.integers(0, 30),       # time offset step
                st.integers(9990, 10010),  # bid in ticks
                st.integers(1, 12),       # spread in ticks
            ),
            min_size=1,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_merge_matches_brute_force_replay(self, raw):
        t0 = ns_at(2019, 1, 2, 10, 0)
        rows = [
            quote(t0 + dt * 1000, venue=DEFAULT_VENUES[vi],
                  bid=bid_ticks * 0.01, ask=(bid_ticks + spread) * 0.01)
            for vi, dt, bid_ticks, spread in raw
        ]
        got = consolidate_nbbo(quotes(*rows))

        # oracle: sort by (ts, priority rank, record position), replay
        flat = sorted(enumerate(rows), key=lambda x: (x[1][0], RANK[x[1][1]], x[0]))
        bids, asks = {}, {}
        want = []
        last = None
        for _, (ts, venue, bid, ask, _) in flat:
            bids[venue], asks[venue] = bid, ask
            bb, ba = max(bids.values()), min(asks.values())
            if bb > ba:
                continue
            if (bb, ba) != last:
                last = (bb, ba)
                want.append((ts, bb, ba))
        assert list(zip(got.ts.tolist(), got.bid.tolist(), got.ask.tolist())) == want


class TestBuildMidSeries:
    def test_three_events_one_session(self):
        t0 = ns_at(2019, 1, 2, 10, 0)
        series = build_mid_series(nbbo(
            (t0, 100.0, 100.02, 100.01),
            (t0 + 1000, 100.0, 100.04, 100.02),
            (t0 + 2000, 100.0, 100.06, 100.03),
        ))
        assert len(series.sessions) == 1
        assert len(series) == 3
        assert series.sessions[0].calendar_date == datetime.date(2019, 1, 2)

    def test_two_dates_two_sessions(self):
        ts1 = ns_at(2019, 1, 2, 10, 0)
        ts2 = ns_at(2019, 1, 3, 10, 0)
        series = build_mid_series(nbbo(
            (ts1, 100.0, 100.02, 100.01),
            (ts1 + 1000, 100.0, 100.04, 100.02),
            (ts2, 100.0, 100.06, 100.03),
        ))
        assert [len(series.session_slice(s)) for s in series.sessions] == [2, 1]
        assert series.sessions[0].end == 1
        assert series.sessions[1].start == 2

    def test_empty_input_warns(self, caplog):
        empty = Nbbo(np.empty(0, np.int64), np.empty(0), np.empty(0), np.empty(0))
        with caplog.at_level("WARNING"):
            series = build_mid_series(empty)
        assert len(series) == 0
        assert any("no events" in r.message for r in caplog.records)


class TestFiles:
    def test_header_required(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("not,a,header\n")
        with pytest.raises(MalformedRecord):
            read_quote_csv(p)

    def test_crlf_header_names_the_line_end(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_bytes(f"{QUOTE_HEADER}\r\n{DOCUMENTED}\r\n".encode())
        with pytest.raises(MalformedRecord) as err:
            read_quote_csv(p)
        assert (err.value.line_no, err.value.field) == (1, "header")
        assert "ends in '\\r'" in str(err.value) and "LF" in str(err.value)

    def test_non_utf8_line_is_malformed_record(self, tmp_path):
        # the byte 0xff on line 3 inside a price, and on line 5 as the whole
        # condition, where it would read as a one-character condition
        lines = [DOCUMENTED, DOCUMENTED.replace("249.90", "249.9\udcff"), DOCUMENTED,
                 DOCUMENTED[:-1] + "\udcff", DOCUMENTED]
        p = write_lines(tmp_path / "arca.csv", lines)
        with pytest.raises(MalformedRecord) as err:
            read_quote_csv(p)
        assert (err.value.line_no, err.value.field) == (3, "record")
        assert "not UTF-8" in str(err.value)
        report = QualityReport()
        assert read_quote_csv(p, strict=False, report=report).line.tolist() == [2, 4, 6]
        assert (report.n_records, report.n_malformed_skipped) == (5, 2)

    def test_missing_file(self, tmp_path):
        # the stage that reads it turns the OSError into exit 3
        with pytest.raises(FileNotFoundError):
            read_quote_csv(tmp_path / "absent.csv")

    def test_lenient_skips_and_counts(self, tmp_path):
        t0 = ns_at(2019, 1, 2, 10, 0)
        p = write_lines(tmp_path / "arca.csv", [
            f"{t0},ARCA,100.00,100,100.02,100,R",
            f"{t0 + 1},ARCA,abc,100,100.02,100,R",
            f"{t0 + 2},ARCA,100.01,100,100.03,100,R",
        ])
        report = QualityReport()
        q = read_quote_csv(p, strict=False, report=report)
        assert q.line.tolist() == [2, 4]
        assert report.n_malformed_skipped == 1
        with pytest.raises(MalformedRecord):
            read_quote_csv(p, strict=True)

    def test_out_of_order_within_venue_rejected(self, tmp_path):
        t0 = ns_at(2019, 1, 2, 10, 0)
        p = tmp_path / "arca.csv"
        write_venue_file(p, [
            (t0 + 1000, "ARCA", 100.0, 100, 100.02, 100, "R"),
            (t0, "ARCA", 100.0, 100, 100.02, 100, "R"),
        ])
        with pytest.raises(MalformedRecord) as err:
            read_quote_csv(p, strict=True)
        assert (err.value.line_no, err.value.field) == (3, "timestamp_ns")

    def test_ingest_files_end_to_end(self, tmp_path):
        t0 = ns_at(2019, 1, 2, 10, 0)
        write_venue_file(tmp_path / "nyse.csv", [
            (ns_at(2019, 1, 2, 9, 0), "NYSE", 99.0, 100, 99.02, 100, "R"),  # before the open
            (t0, "NYSE", 100.00, 100, 100.03, 100, "R"),
        ])
        write_venue_file(tmp_path / "nasdaq.csv", [
            (t0 + 500, "NASDAQ", 100.01, 100, 100.02, 100, "R"),
            (t0 + 1500, "NASDAQ", 100.01, 100, 100.02, 100, "A"),
        ])
        series, report = ingest_files(
            {"NYSE": tmp_path / "nyse.csv", "NASDAQ": tmp_path / "nasdaq.csv"}
        )
        assert len(series) == 2
        assert series.mids[-1] == 100.015
        assert report.n_dropped_condition == 1
        assert report.n_dropped_outside_rth == 1
        assert report.n_emitted == 2

    def test_malformed_record_names_its_file(self, tmp_path):
        # of two venue files only arca.csv is bad, on line 3
        t0 = ns_at(2019, 1, 2, 10, 0)
        write_venue_file(tmp_path / "nyse.csv", [
            (t0 + i, "NYSE", 100.00, 100, 100.03, 100, "R") for i in range(3)
        ])
        write_lines(tmp_path / "arca.csv", [DOCUMENTED, DOCUMENTED.replace("249.90", "\udcff")])
        with pytest.raises(MalformedRecord) as err:
            ingest_files({"ARCA": tmp_path / "arca.csv", "NYSE": tmp_path / "nyse.csv"})
        assert (err.value.line_no, err.value.field) == (3, "record")
        assert str(err.value).startswith("arca.csv: line 3: bad field 'record' (not UTF-8 text: ")

    def test_chunked_venue_file_equivalence(self, tmp_path):
        # the same venue split across two files produces identical output
        t0 = ns_at(2019, 1, 2, 10, 0)
        rows = [
            (t0 + i * 1000, "ARCA", 100.0 + (i % 5) * 0.01, 100,
             100.06 + (i % 3) * 0.01, 100, "R")
            for i in range(40)
        ]
        write_venue_file(tmp_path / "all.csv", rows)
        write_venue_file(tmp_path / "p1.csv", rows[:23])
        write_venue_file(tmp_path / "p2.csv", rows[23:])
        whole, _ = ingest_files({"ARCA": tmp_path / "all.csv"})
        split, _ = ingest_files(
            {"ARCA-1": tmp_path / "p1.csv", "ARCA-2": tmp_path / "p2.csv"}
        )
        assert whole == split

    def test_empty_session_logged(self, tmp_path, caplog):
        # a date whose records are all filtered out is reported
        write_venue_file(tmp_path / "arca.csv", [
            (ns_at(2019, 1, 2, 10, 0), "ARCA", 100.0, 100, 100.02, 100, "R"),
            (ns_at(2019, 1, 3, 9, 0), "ARCA", 100.0, 100, 100.02, 100, "R"),
        ])
        with caplog.at_level("WARNING"):
            series, report = ingest_files({"ARCA": tmp_path / "arca.csv"})
        assert len(series.sessions) == 1
        assert report.empty_session_dates == ["2019-01-03"]
        assert any("2019-01-03" in r.message for r in caplog.records)

    def test_consolidated_input_path(self, tmp_path):
        t0 = ns_at(2019, 1, 2, 10, 0)
        rows = [
            (t0 + i * 1000, "ARCA", 100.0 + i * 0.01, 100, 100.02 + i * 0.01, 100, "R")
            for i in range(5)
        ]
        write_venue_file(tmp_path / "nbbo.csv", rows)
        series, report = ingest_consolidated(tmp_path / "nbbo.csv")
        assert len(series) == 5
        assert report.n_emitted == 5

    def test_consolidated_out_of_order_names_its_file_line(self, tmp_path):
        # two blank lines sit before the late record, which is on line 6
        t0 = ns_at(2019, 1, 2, 10, 0)
        p = write_lines(tmp_path / "nbbo.csv", [
            f"{t0 + 1000},ARCA,100.00,100,100.02,100,R",
            "",
            "",
            f"{t0 + 2000},NYSE,100.00,100,100.02,100,R",
            f"{t0},ARCA,100.00,100,100.02,100,R",
        ])
        with pytest.raises(MalformedRecord) as err:
            ingest_consolidated(p)
        assert (err.value.line_no, err.value.field) == (6, "timestamp_ns")
        _, report = ingest_consolidated(p, strict=False)
        assert (report.n_records, report.n_malformed_skipped) == (3, 1)


# Columnar ingest against the scalar oracle on random feeds.

# Weekdays either side of the 2024 switches to and from daylight time.
DAYS = (
    datetime.date(2024, 3, 8), datetime.date(2024, 3, 11),
    datetime.date(2024, 11, 1), datetime.date(2024, 11, 4),
)
# Local times at midnight, around the RTH edges, inside RTH, and far
# enough outside that the UTC date differs from the local one.
# Half the records fall at noon, so that venues tie often.
NOON = datetime.time(12, 0)
TIMES = (
    datetime.time(0, 0), datetime.time(0, 30), datetime.time(4, 0),
    datetime.time(9, 29, 59), datetime.time(9, 30), NOON,
    datetime.time(15, 59, 59), datetime.time(16, 0), datetime.time(23, 30),
)
VENUES = ("NYSE", "NASDAQ", "ARCA")
# One malformed record of each class: (field replaced, its text); a field
# index of None stands for the whole line.
MALFORMED = {
    "field count": (None, "1,ARCA,1.0,2"),
    "timestamp": (0, "12:00"),
    "timestamp sign": (0, "0"),
    "timestamp overflow": (0, str(2**63)),
    "venue": (1, "MARS"),
    # a listed name plus a letter, which a narrow text field would cut back
    "venue longer": (1, "NASDAQX"),
    "venue suffix": (1, "NYSEE"),
    "price": (2, "abc"),
    "price value": (4, "inf"),
    "price nan": (2, "NAN"),
    "price overflow": (4, "1e999"),
    "size": (3, "1.5"),
    "size sign": (5, "-100"),
    "condition": (6, "RR"),
    "condition long": (6, "RRR"),
    "condition space": (6, "R "),
    "line end CRLF": (6, "R\r"),
    "line end CR": (6, "R\rR"),  # and a one-field record after the CR
    "not UTF-8": (6, "\udcff"),  # the byte 0xff, one character once decoded
}
# Spellings the `int`/`float` builtins accept; the C reader's byte gate
# keeps those it might read otherwise away from it.
ACCEPTED = {
    "size plus": (3, "+5"),
    "size underscore": (5, "1_000"),
    "price space": (2, " 1.5"),
    "price exponent": (4, "1E2"),
}
SPELLINGS = {**MALFORMED, **ACCEPTED}

record = st.tuples(
    st.integers(0, 1),                        # file
    st.integers(0, len(DAYS) - 1),
    st.one_of(st.just(TIMES.index(NOON)), st.integers(0, len(TIMES) - 1)),
    st.sampled_from([0, 0, 0, 1, 999_999_999]),  # ns past the second; ties
    st.sampled_from(VENUES),
    st.integers(9998, 10001),                 # bid in cents
    st.integers(-1, 2),                       # spread in cents: crossed, locked
    st.sampled_from("RRRRA"),
    st.sampled_from([None] * 24 + sorted(SPELLINGS) + ["blank"]),
)


def local_ns(day, time):
    return int(datetime.datetime.combine(day, time, tzinfo=ET).timestamp()) * 1_000_000_000


def render(ts, venue, bid_c, spread_c, cond, bad) -> str:
    if bad == "blank":
        return ""
    bid, ask = f"{bid_c / 100:.2f}", f"{(bid_c + spread_c) / 100:.2f}"
    fields = [str(ts), venue, bid, "100", ask, "200", cond]
    if bad in SPELLINGS:
        col, text = SPELLINGS[bad]
        if col is None:
            return text
        fields[col] = text
    return ",".join(fields)


def write_feed(tmp_path, records, swaps) -> list:
    """One file per file index, records in time order except for `swaps`."""
    files = []
    for f in (0, 1):
        rows = sorted((
            (local_ns(DAYS[d], TIMES[t]) + nanos, venue, bid, spread, cond, bad)
            for file_, d, t, nanos, venue, bid, spread, cond, bad in records if file_ == f
        ), key=lambda row: row[0])
        for i, j in swaps:
            if rows:
                a, b = i % len(rows), j % len(rows)
                rows[a], rows[b] = rows[b], rows[a]
        files.append(write_lines(tmp_path / f"feed{f}.csv", [render(*row) for row in rows]))
    return files


@contextlib.contextmanager
def chunked(batch_chars, fill_rows):
    with mock.patch.object(ingest, "_BATCH_CHARS", batch_chars), \
            mock.patch.object(ingest, "_FILL_ROWS", fill_rows):
        yield


def assert_same_ingest(got, want, tmp_path):
    (series, report), (want_series, want_report) = got, want
    assert series == want_series
    assert dataclasses.asdict(report) == dataclasses.asdict(want_report)
    write_prms(series, tmp_path / "got.prms")
    write_prms(want_series, tmp_path / "want.prms")
    assert (tmp_path / "got.prms").read_bytes() == (tmp_path / "want.prms").read_bytes()


class TestOracle:
    @given(
        records=st.lists(record, min_size=0, max_size=80),
        swaps=st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=3),
        consolidated=st.booleans(),
        # parse batches and merge chunks small enough to carry state across
        batch_chars=st.sampled_from([1, 200, 1 << 20]),
        fill_rows=st.sampled_from([1, 7, 1 << 16]),
    )
    @settings(max_examples=300, deadline=None)
    def test_lenient_ingest_matches_scalar_oracle(
        self, tmp_path_factory, records, swaps, consolidated, batch_chars, fill_rows
    ):
        tmp_path = tmp_path_factory.mktemp("feed")
        files = write_feed(tmp_path, records, swaps)
        if consolidated:
            want = ingest_oracle.ingest_consolidated(files[0], strict=False)
            with chunked(batch_chars, fill_rows):
                got = ingest_consolidated(files[0], strict=False)
        else:
            venue_files = {"B": files[0], "A": files[1]}
            want = ingest_oracle.ingest_files(venue_files, strict=False)
            with chunked(batch_chars, fill_rows):
                got = ingest_files(venue_files, strict=False)
        assert_same_ingest(got, want, tmp_path)

    @pytest.mark.parametrize("bad", [*MALFORMED, "header", "out of order"])
    @pytest.mark.parametrize("consolidated", [False, True])
    def test_strict_reports_first_malformed_record(self, tmp_path, bad, consolidated):
        t0 = ns_at(2019, 1, 2, 10, 0)
        lines = [render(t0 + i, VENUES[i % 3], 10000, 1, "R", None) for i in range(6)]
        lines[2] = ""
        if bad == "out of order":
            # late for NYSE, and for the one stream of a consolidated feed
            lines[4] = render(t0 + 2, "NYSE", 10000, 1, "R", None)
        elif bad != "header":
            lines[4] = render(t0 + 4, "NYSE", 10000, 1, "R", bad)
        lines.append(render(t0 + 9, "NYSE", 10000, 1, "R", "venue"))  # a later fault
        header = "ts,venue" if bad == "header" else QUOTE_HEADER
        p = write_lines(tmp_path / "feed.csv", lines, header=header)
        ours = ingest_consolidated if consolidated else (lambda p: ingest_files({"X": p}))
        theirs = ingest_oracle.ingest_consolidated if consolidated else (
            lambda p: ingest_oracle.ingest_files({"X": p}))
        with pytest.raises(MalformedRecord) as got:
            ours(p)
        with pytest.raises(MalformedRecord) as want:
            theirs(p)
        assert (got.value.line_no, got.value.field) == (want.value.line_no, want.value.field)
        assert got.value.line_no == (1 if bad == "header" else 6)


class TestMergeOrder:
    """Each file is filtered on its own and the merge sorts once; ties must
    still apply in (timestamp, venue rank, file, record) order."""

    @pytest.mark.parametrize("batch_chars, fill_rows", [(1, 1), (200, 7), (1 << 20, 1 << 16)])
    def test_venue_split_across_two_files(self, tmp_path, batch_chars, fill_rows):
        # NYSE's records sit in both files, tied at t0 and t0 + 2; file "a"
        # comes first in key order, so its tied NYSE record applies first
        t0 = ns_at(2019, 1, 2, 10, 0)
        write_venue_file(tmp_path / "a.csv", [
            (t0, "NYSE", 100.00, 100, 100.02, 100, "R"),
            (t0 + 2, "NYSE", 100.02, 100, 100.05, 100, "R"),
        ])
        write_venue_file(tmp_path / "b.csv", [
            (t0, "NASDAQ", 99.99, 100, 100.06, 100, "R"),
            (t0, "NYSE", 100.01, 100, 100.05, 100, "R"),
            (t0 + 1, "NYSE", 100.00, 100, 100.02, 100, "R"),
            (t0 + 2, "NYSE", 100.03, 100, 100.04, 100, "R"),
        ])
        venue_files = {"B": tmp_path / "b.csv", "A": tmp_path / "a.csv"}
        with chunked(batch_chars, fill_rows):
            got = ingest_files(venue_files)
        assert_same_ingest(got, ingest_oracle.ingest_files(venue_files), tmp_path)
        # a's then b's NYSE at t0 (b's NASDAQ leaves the book as it is), b's
        # at t0 + 1, then a's and b's at t0 + 2
        assert got[0].mids.tolist() == pytest.approx([100.01, 100.03, 100.01, 100.035, 100.035])

    @pytest.mark.parametrize("batch_chars, fill_rows", [(1, 1), (200, 7), (1 << 20, 1 << 16)])
    def test_multi_venue_file_out_of_time_order_across_venues(
        self, tmp_path, batch_chars, fill_rows
    ):
        # each venue is in time order, but NASDAQ's whole day comes first
        t0 = ns_at(2019, 1, 2, 10, 0)
        rows = [(t0 + i, "NASDAQ", 100.00 + 0.01 * (i % 3), 100, 100.05, 100, "R")
                for i in range(0, 6, 2)]
        rows += [(t0 + i, "NYSE", 100.00, 100, 100.04 - 0.01 * (i % 2), 100, "R")
                 for i in range(6)]
        write_venue_file(tmp_path / "feed.csv", rows)
        with chunked(batch_chars, fill_rows):
            got = ingest_files({"X": tmp_path / "feed.csv"})
        assert_same_ingest(got, ingest_oracle.ingest_files({"X": tmp_path / "feed.csv"}), tmp_path)
        assert got[1].n_malformed_skipped == 0
        # at each tie NYSE applies before NASDAQ, which it outranks
        assert got[0].mids.tolist() == pytest.approx(
            [100.02, 100.015, 100.02, 100.03, 100.025, 100.03, 100.025, 100.02])


def test_ingest_holds_each_quote_once(tmp_path):
    """Traced peak of `ingest_files` per quote on a four-venue feed, with
    parse batches and merge chunks made small so that what is held per
    quote shows. Held per quote are the merge's four columns (26 B), its
    sort order (8 B) until the events are joined, and the events emitted
    (about a fifth of the quotes here, 24 B each, twice while they are
    joined, and 8 B of mid): about 44 B. A sorted copy of the merge
    columns would add 26 B, and keeping all records' six columns through
    the merge 35 B."""
    t0 = ns_at(2019, 1, 2, 9, 30)
    rng = np.random.default_rng(5)
    venue_files = {}
    for venue in ("NYSE", "NASDAQ", "ARCA", "BZX"):
        n = 20_000
        ts = t0 + np.sort(rng.integers(0, 6 * 3600 * 10**9, n))
        bid = 10_000 + rng.integers(0, 4, n)
        ask = bid + rng.integers(1, 4, n)
        venue_files[venue] = write_lines(tmp_path / f"{venue}.csv", [
            f"{t},{venue},{b / 100:.2f},100,{a / 100:.2f},100,R"
            for t, b, a in zip(ts.tolist(), bid.tolist(), ask.tolist())
        ])
    with chunked(1 << 12, 1 << 10):
        ingest_files({"NYSE": venue_files["NYSE"]})  # loads what numpy and zoneinfo keep
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            _, report = ingest_files(venue_files)
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    assert report.n_records == 80_000 and report.n_emitted > 0.1 * report.n_records
    assert peak / report.n_records < 60


def canonical_lines(n, t0=ns_at(2019, 1, 2, 10, 0)):
    return [render(t0 + i * 1000, VENUES[i % 3], 9998 + i % 4, i % 3, "RRRRA"[i % 5], None)
            for i in range(n)]


def batch_tally(caplog, name="feed.csv") -> tuple[int, int]:
    """(batches by the C reader, all batches) as logged for file `name`."""
    [tally] = [re.fullmatch(rf"{name}: (\d+) of (\d+) batches by the C reader", r.getMessage())
               for r in caplog.records if "batches" in r.getMessage()]
    return int(tally[1]), int(tally[2])


class TestConverters:
    """Plainly spelt batches are parsed by numpy's C reader, and the
    checks after it still find a bad record's line and field."""

    @pytest.fixture
    def c_reader_only(self, monkeypatch):
        def refuse(lines):
            raise AssertionError(f"batch at {lines[0]!r} left the C reader")
        monkeypatch.setattr(ingest, "_str_fields", refuse)

    @pytest.mark.parametrize("batch_chars, n_batches", [(1, 300), (200, 60), (1 << 20, 1)])
    def test_canonical_feed_takes_the_c_reader(
        self, tmp_path, c_reader_only, caplog, batch_chars, n_batches
    ):
        p = write_lines(tmp_path / "feed.csv", canonical_lines(300))
        with chunked(batch_chars, 1 << 16), caplog.at_level("INFO", logger="pushresp.ingest"):
            got = ingest_files({"X": p})
        assert_same_ingest(got, ingest_oracle.ingest_files({"X": p}), tmp_path)
        assert batch_tally(caplog) == (n_batches, n_batches)

    @pytest.mark.parametrize("bad", ["price nan", "price value", "venue longer",
                                     "condition long", "out of order"])
    def test_c_reader_batch_keeps_the_checks(self, tmp_path, c_reader_only, bad):
        t0 = ns_at(2019, 1, 2, 10, 0)
        lines = canonical_lines(40)
        if bad == "out of order":
            lines[20] = render(t0, "NASDAQ", 10000, 1, "R", None)
        else:  # upper case, so that the byte gate lets it through
            lines[20] = render(t0 + 20_000, "NASDAQ", 10000, 1, "R", bad).upper()
        p = write_lines(tmp_path / "feed.csv", lines)
        with pytest.raises(MalformedRecord) as got:
            read_quote_csv(p)
        with pytest.raises(MalformedRecord) as want:
            ingest_oracle.ingest_files({"X": p})
        assert (got.value.line_no, got.value.field) == (want.value.line_no, want.value.field)
        assert got.value.line_no == 22
        assert_same_ingest(ingest_files({"X": p}, strict=False),
                           ingest_oracle.ingest_files({"X": p}, strict=False), tmp_path)

    def test_unusual_spelling_sends_only_its_batch_to_the_builtins(self, tmp_path, caplog):
        lines = canonical_lines(40)
        lines[20] = render(ns_at(2019, 1, 2, 10, 0) + 20_000, "NASDAQ", 10000, 1, "R", "size plus")
        p = write_lines(tmp_path / "feed.csv", lines)
        with chunked(200, 1 << 16), caplog.at_level("INFO", logger="pushresp.ingest"):
            got = ingest_files({"X": p})
        assert_same_ingest(got, ingest_oracle.ingest_files({"X": p}), tmp_path)
        n_c, n_batches = batch_tally(caplog)
        assert n_c == n_batches - 1 > 0
