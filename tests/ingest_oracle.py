"""Scalar reference ingest: one object per quote, a per-line parser and a
heap merge of per-venue streams.

It states the ingest rules one record at a time, the way they read in the
schema, so that the columnar `pushresp.ingest` can be checked against it
on random feeds. Only the tests use it.
"""

from __future__ import annotations

import datetime
import heapq
from typing import NamedTuple
from zoneinfo import ZoneInfo

import numpy as np

from pushresp.errors import MalformedRecord
from pushresp.ingest import (
    DEFAULT_TZ,
    DEFAULT_VENUES,
    QUOTE_HEADER,
    RTH_CLOSE,
    RTH_OPEN,
    QualityReport,
)

from conftest import from_session_arrays


class QuoteEvent(NamedTuple):
    timestamp: int
    venue: str
    bid_price: float
    ask_price: float
    condition: str
    line_no: int


def parse_quote_record(line: str, line_no: int, venues=DEFAULT_VENUES) -> QuoteEvent:
    if any("\udc80" <= c <= "\udcff" for c in line):  # a byte decoded with surrogateescape
        raise MalformedRecord(line_no, "record", "not UTF-8 text")
    parts = line.rstrip("\n").split(",")
    if len(parts) != 7:
        raise MalformedRecord(line_no, "record", f"expected 7 fields, got {len(parts)}")
    ts_s, venue, bid_s, bsz_s, ask_s, asz_s, cond = parts
    try:
        ts = int(ts_s)
    except ValueError:
        raise MalformedRecord(line_no, "timestamp_ns", ts_s) from None
    if not 0 < ts < 2**63:
        raise MalformedRecord(line_no, "timestamp_ns", "must be a positive int64")
    if venue not in venues:
        raise MalformedRecord(line_no, "venue", venue)
    try:
        bid, ask = float(bid_s), float(ask_s)
    except ValueError:
        raise MalformedRecord(line_no, "bid_price/ask_price", line) from None
    if not (bid > 0 and ask > 0) or not (np.isfinite(bid) and np.isfinite(ask)):
        raise MalformedRecord(line_no, "bid_price/ask_price", "must be > 0 and finite")
    try:
        bsz, asz = int(bsz_s), int(asz_s)
    except ValueError:
        raise MalformedRecord(line_no, "bid_size/ask_size", line) from None
    if bsz < 0 or asz < 0:
        raise MalformedRecord(line_no, "bid_size/ask_size", "must be >= 0")
    if len(cond) != 1:
        raise MalformedRecord(line_no, "condition", cond)
    return QuoteEvent(ts, venue, bid, ask, cond, line_no)


def read_quote_csv(path, strict, venues, report) -> list[QuoteEvent]:
    events: list[QuoteEvent] = []
    last_ts: dict[str, int] = {}
    with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
        if f.readline().rstrip("\n") != QUOTE_HEADER:
            raise MalformedRecord(1, "header", f"expected '{QUOTE_HEADER}'")
        for line_no, line in enumerate(f, start=2):
            if not line.strip():
                continue
            report.n_records += 1
            try:
                ev = parse_quote_record(line, line_no, venues)
                if ev.timestamp < last_ts.get(ev.venue, ev.timestamp):
                    raise MalformedRecord(line_no, "timestamp_ns", "out of order")
            except MalformedRecord:
                if strict:
                    raise
                report.n_malformed_skipped += 1
                continue
            last_ts[ev.venue] = ev.timestamp
            events.append(ev)
    return events


class RthCalendar:
    def __init__(self, tz: str):
        self.zone = ZoneInfo(tz)

    def local_date(self, ts_ns: int) -> datetime.date:
        return datetime.datetime.fromtimestamp(ts_ns // 1_000_000_000, self.zone).date()

    def in_rth(self, ts_ns: int) -> bool:
        day = self.local_date(ts_ns)
        lo, hi = (
            int(datetime.datetime.combine(day, t, tzinfo=self.zone).timestamp()) * 1_000_000_000
            for t in (RTH_OPEN, RTH_CLOSE)
        )
        return lo <= ts_ns < hi


def filter_eligible(events, cal: RthCalendar, report) -> list[QuoteEvent]:
    out = []
    for ev in events:
        if ev.condition != "R":
            report.n_dropped_condition += 1
        elif not cal.in_rth(ev.timestamp):
            report.n_dropped_outside_rth += 1
        else:
            out.append(ev)
    return out


def consolidate_nbbo(per_venue: dict[str, list[QuoteEvent]], priority, report):
    """(timestamp, mid) of every emitted update of a heap merge of the
    per-venue streams, ties broken by `priority`."""
    rank = {v: i for i, v in enumerate(priority)}
    for venue in per_venue:
        rank.setdefault(venue, len(rank))
    streams = {v: iter(evs) for v, evs in per_venue.items()}
    heap = [(ev.timestamp, rank[v], v, ev) for v, evs in per_venue.items() for ev in evs[:1]]
    for it in streams.values():
        next(it, None)
    heapq.heapify(heap)
    bids: dict[str, float] = {}
    asks: dict[str, float] = {}
    last_state = None
    out = []
    while heap:
        ts, _, venue, ev = heapq.heappop(heap)
        nxt = next(streams[venue], None)
        if nxt is not None:
            heapq.heappush(heap, (nxt.timestamp, rank[venue], venue, nxt))
        bids[venue], asks[venue] = ev.bid_price, ev.ask_price
        best_bid, best_ask = max(bids.values()), min(asks.values())
        if best_bid > best_ask:
            report.n_crossed_dropped += 1
            continue
        if best_bid == best_ask:
            report.n_locked_kept += 1
        if (best_bid, best_ask) == last_state:
            report.n_unchanged_suppressed += 1
            continue
        last_state = (best_bid, best_ask)
        out.append((ts, (best_bid + best_ask) / 2.0))
    report.n_emitted = len(out)
    return out


def _series(events, per_venue, cal, priority, report):
    raw_dates = {cal.local_date(ev.timestamp) for ev in events}
    sessions: dict[datetime.date, list[float]] = {}
    for ts, mid in consolidate_nbbo(per_venue, priority, report):
        sessions.setdefault(cal.local_date(ts), []).append(mid)
    epoch = datetime.date(1970, 1, 1)
    series = from_session_arrays(
        [(d - epoch).days for d in sessions], [np.array(m) for m in sessions.values()]
    )
    report.empty_session_dates = [d.isoformat() for d in sorted(raw_dates - set(sessions))]
    return series, report


def ingest_files(venue_files, tz=DEFAULT_TZ, strict=True, priority=DEFAULT_VENUES):
    report, cal = QualityReport(), RthCalendar(tz)
    events, per_venue = [], {}
    for _, path in sorted(venue_files.items()):
        parsed = read_quote_csv(path, strict, priority, report)
        events.extend(parsed)
        for ev in filter_eligible(parsed, cal, report):
            per_venue.setdefault(ev.venue, []).append(ev)
    for evs in per_venue.values():
        evs.sort(key=lambda ev: ev.timestamp)
    return _series(events, per_venue, cal, priority, report)


def ingest_consolidated(path, tz=DEFAULT_TZ, strict=True, priority=DEFAULT_VENUES):
    report, cal = QualityReport(), RthCalendar(tz)
    ordered: list[QuoteEvent] = []
    for ev in read_quote_csv(path, strict, priority, report):
        if ordered and ev.timestamp < ordered[-1].timestamp:
            if strict:
                raise MalformedRecord(ev.line_no, "timestamp_ns", "out of order")
            report.n_malformed_skipped += 1
            continue
        ordered.append(ev)
    per_venue = {"NBBO": filter_eligible(ordered, cal, report)}
    return _series(ordered, per_venue, cal, priority, report)
