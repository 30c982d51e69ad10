"""Quote-feed parsing, eligibility filtering, and NBBO consolidation.

Input is the documented quote CSV schema, one file per venue (or one
combined file with a venue column). Records must carry the regular
condition flag and fall inside regular trading hours, 09:30 inclusive
to 16:00 exclusive Eastern, with DST handled by the zone database.
Eligible per-venue streams are k-way merged by timestamp (ties broken
by a fixed venue priority), the best bid/ask re-derived after every
update, and an event emitted only when the consolidated top of book
changes. Crossed books (bid > ask) are withheld from output; locked
books (bid == ask) pass through; both are tallied in the quality
report.
"""

from __future__ import annotations

import datetime
import heapq
import logging
from dataclasses import dataclass, field
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

from .errors import ArtifactIOError, MalformedRecord
from .series import MidSeries, from_session_arrays

logger = logging.getLogger(__name__)

DEFAULT_VENUES = ("NYSE", "NASDAQ", "ARCA", "BZX", "BYX", "EDGX", "EDGA")
DEFAULT_TZ = "America/New_York"
QUOTE_HEADER = "timestamp_ns,venue,bid_price,bid_size,ask_price,ask_size,condition"

RTH_OPEN = datetime.time(9, 30)
RTH_CLOSE = datetime.time(16, 0)


@dataclass(frozen=True)
class QuoteEvent:
    timestamp: int  # ns since epoch
    venue: str
    bid_price: float
    bid_size: int
    ask_price: float
    ask_size: int
    condition: str


@dataclass(frozen=True)
class NbboEvent:
    event_index: int
    timestamp: int
    best_bid: float
    best_ask: float
    mid: float


@dataclass
class QualityReport:
    n_records: int = 0
    n_malformed_skipped: int = 0
    n_dropped_condition: int = 0
    n_dropped_outside_rth: int = 0
    n_crossed_dropped: int = 0
    n_locked_kept: int = 0
    n_unchanged_suppressed: int = 0
    n_emitted: int = 0
    empty_session_dates: list[str] = field(default_factory=list)


def parse_quote_record(
    line: str, line_no: int, venues: tuple[str, ...] = DEFAULT_VENUES
) -> QuoteEvent:
    parts = line.rstrip("\n").split(",")
    if len(parts) != 7:
        raise MalformedRecord(line_no, "record", f"expected 7 fields, got {len(parts)}")
    ts_s, venue, bid_s, bsz_s, ask_s, asz_s, cond = parts
    try:
        ts = int(ts_s)
    except ValueError:
        raise MalformedRecord(line_no, "timestamp_ns", ts_s) from None
    if ts <= 0:
        raise MalformedRecord(line_no, "timestamp_ns", "must be positive")
    if venue not in venues:
        raise MalformedRecord(line_no, "venue", venue)
    try:
        bid = float(bid_s)
        ask = float(ask_s)
    except ValueError:
        raise MalformedRecord(line_no, "bid_price/ask_price", line) from None
    if not (bid > 0 and ask > 0) or not (np.isfinite(bid) and np.isfinite(ask)):
        raise MalformedRecord(line_no, "bid_price/ask_price", "must be > 0 and finite")
    try:
        bsz = int(bsz_s)
        asz = int(asz_s)
    except ValueError:
        raise MalformedRecord(line_no, "bid_size/ask_size", line) from None
    if bsz < 0 or asz < 0:
        raise MalformedRecord(line_no, "bid_size/ask_size", "must be >= 0")
    if len(cond) != 1:
        raise MalformedRecord(line_no, "condition", cond)
    return QuoteEvent(
        timestamp=ts, venue=venue, bid_price=bid, bid_size=bsz,
        ask_price=ask, ask_size=asz, condition=cond,
    )


def read_quote_csv(
    path: str | Path,
    strict: bool = True,
    venues: tuple[str, ...] = DEFAULT_VENUES,
    report: QualityReport | None = None,
) -> list[QuoteEvent]:
    """Parse one quote file. In lenient mode malformed records are
    skipped and tallied; strict mode raises on the first problem."""
    report = report if report is not None else QualityReport()
    events: list[QuoteEvent] = []
    last_ts: dict[str, int] = {}
    try:
        with open(path, encoding="utf-8", newline="") as f:
            header = f.readline().rstrip("\n")
            if header != QUOTE_HEADER:
                raise MalformedRecord(1, "header", f"expected '{QUOTE_HEADER}'")
            for line_no, line in enumerate(f, start=2):
                if not line.strip():
                    continue
                report.n_records += 1
                try:
                    ev = parse_quote_record(line, line_no, venues)
                    prev = last_ts.get(ev.venue)
                    if prev is not None and ev.timestamp < prev:
                        raise MalformedRecord(
                            line_no, "timestamp_ns",
                            f"out of order for venue {ev.venue}",
                        )
                except MalformedRecord:
                    if strict:
                        raise
                    report.n_malformed_skipped += 1
                    continue
                last_ts[ev.venue] = ev.timestamp
                events.append(ev)
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {path}: {exc}") from exc
    return events


class RthCalendar:
    """Memoized regular-trading-hours windows in epoch nanoseconds."""

    def __init__(self, tz: str = DEFAULT_TZ):
        self.zone = ZoneInfo(tz)
        self._windows: dict[datetime.date, tuple[int, int]] = {}

    def window(self, day: datetime.date) -> tuple[int, int]:
        got = self._windows.get(day)
        if got is None:
            open_dt = datetime.datetime.combine(day, RTH_OPEN, tzinfo=self.zone)
            close_dt = datetime.datetime.combine(day, RTH_CLOSE, tzinfo=self.zone)
            got = (
                int(open_dt.timestamp()) * 1_000_000_000,
                int(close_dt.timestamp()) * 1_000_000_000,
            )
            self._windows[day] = got
        return got

    def local_date(self, ts_ns: int) -> datetime.date:
        return datetime.datetime.fromtimestamp(ts_ns // 1_000_000_000, self.zone).date()

    def in_rth(self, ts_ns: int) -> datetime.date | None:
        """The session date when ts falls in [open, close), else None."""
        day = self.local_date(ts_ns)
        lo, hi = self.window(day)
        if lo <= ts_ns < hi:
            return day
        return None

    @staticmethod
    def epoch_days(day: datetime.date) -> int:
        return (day - datetime.date(1970, 1, 1)).days


def filter_eligible(
    events: list[QuoteEvent],
    tz: str = DEFAULT_TZ,
    report: QualityReport | None = None,
    calendar: RthCalendar | None = None,
) -> list[QuoteEvent]:
    """Keep regular-condition quotes inside regular trading hours."""
    cal = calendar if calendar is not None else RthCalendar(tz)
    out = []
    for ev in events:
        if ev.condition != "R":
            if report is not None:
                report.n_dropped_condition += 1
            continue
        if cal.in_rth(ev.timestamp) is None:
            if report is not None:
                report.n_dropped_outside_rth += 1
            continue
        out.append(ev)
    return out


def consolidate_nbbo(
    per_venue: dict[str, list[QuoteEvent]],
    priority: tuple[str, ...] = DEFAULT_VENUES,
    report: QualityReport | None = None,
) -> list[NbboEvent]:
    """Merge per-venue streams into the consolidated best bid/offer.

    After each update best_bid is the max over venues' current bids and
    best_ask the min over asks; an event is emitted only when the pair
    changes. Timestamp ties resolve in priority order. Updates that
    leave the book crossed are withheld from output.
    """
    report = report if report is not None else QualityReport()
    rank = {v: i for i, v in enumerate(priority)}
    heap: list[tuple[int, int, int, str]] = []
    streams = {}
    for venue, events in per_venue.items():
        if venue not in rank:
            rank[venue] = len(rank)  # unknown venues go after the fixed list
        if events:
            streams[venue] = iter(events)
    for venue, it in streams.items():
        first = next(it, None)
        if first is not None:
            heapq.heappush(heap, (first.timestamp, rank[venue], 0, venue, first))

    bids: dict[str, float] = {}
    asks: dict[str, float] = {}
    last_state: tuple[float, float] | None = None
    out: list[NbboEvent] = []
    seq = 0
    while heap:
        ts, _, _, venue, ev = heapq.heappop(heap)
        nxt = next(streams[venue], None)
        if nxt is not None:
            seq += 1
            heapq.heappush(heap, (nxt.timestamp, rank[venue], seq, venue, nxt))
        bids[venue] = ev.bid_price
        asks[venue] = ev.ask_price
        best_bid = max(bids.values())
        best_ask = min(asks.values())
        if best_bid > best_ask:
            report.n_crossed_dropped += 1
            continue
        if best_bid == best_ask:
            report.n_locked_kept += 1
        state = (best_bid, best_ask)
        if state == last_state:
            report.n_unchanged_suppressed += 1
            continue
        last_state = state
        out.append(
            NbboEvent(
                event_index=len(out),
                timestamp=ts,
                best_bid=best_bid,
                best_ask=best_ask,
                mid=(best_bid + best_ask) / 2.0,
            )
        )
    report.n_emitted = len(out)
    return out


def build_mid_series(
    nbbo: list[NbboEvent],
    tz: str = DEFAULT_TZ,
    calendar: RthCalendar | None = None,
) -> MidSeries:
    """Group consolidated events into per-date sessions with global indices."""
    cal = calendar if calendar is not None else RthCalendar(tz)
    if not nbbo:
        logger.warning("build_mid_series: no events; empty series")
        return from_session_arrays([], [])
    dates: list[int] = []
    arrays: list[np.ndarray] = []
    current_day: datetime.date | None = None
    bucket: list[float] = []
    for ev in nbbo:
        day = cal.local_date(ev.timestamp)
        if day != current_day:
            if bucket:
                dates.append(RthCalendar.epoch_days(current_day))
                arrays.append(np.array(bucket))
            current_day = day
            bucket = []
        bucket.append(ev.mid)
    if bucket:
        dates.append(RthCalendar.epoch_days(current_day))
        arrays.append(np.array(bucket))
    return from_session_arrays(dates, arrays)


def ingest_files(
    venue_files: dict[str, Path],
    tz: str = DEFAULT_TZ,
    strict: bool = True,
    priority: tuple[str, ...] = DEFAULT_VENUES,
) -> tuple[MidSeries, QualityReport]:
    """Full ingest: parse each venue file, filter, consolidate, build series."""
    report = QualityReport()
    cal = RthCalendar(tz)
    per_venue: dict[str, list[QuoteEvent]] = {}
    raw_dates: set[datetime.date] = set()
    for venue, path in sorted(venue_files.items()):
        events = read_quote_csv(path, strict=strict, venues=priority, report=report)
        for ev in events:
            raw_dates.add(cal.local_date(ev.timestamp))
        eligible = filter_eligible(events, tz, report=report, calendar=cal)
        by_venue: dict[str, list[QuoteEvent]] = {}
        for ev in eligible:
            by_venue.setdefault(ev.venue, []).append(ev)
        for v, evs in by_venue.items():
            per_venue.setdefault(v, []).extend(evs)
    # A venue split across files may interleave; stable sort restores
    # per-stream time order without reordering equal timestamps.
    for v in per_venue:
        per_venue[v].sort(key=lambda ev: ev.timestamp)
    nbbo = consolidate_nbbo(per_venue, priority, report)
    series = build_mid_series(nbbo, tz, calendar=cal)
    kept_dates = {s.calendar_date for s in series.sessions}
    for day in sorted(raw_dates - kept_dates):
        report.empty_session_dates.append(day.isoformat())
        logger.warning("no eligible events for %s; session omitted", day)
    return series, report


def ingest_consolidated(
    path: str | Path,
    tz: str = DEFAULT_TZ,
    strict: bool = True,
    priority: tuple[str, ...] = DEFAULT_VENUES,
) -> tuple[MidSeries, QualityReport]:
    """Ingest a pre-consolidated feed: same schema, degenerate merge."""
    report = QualityReport()
    cal = RthCalendar(tz)
    events = read_quote_csv(path, strict=strict, venues=priority, report=report)
    # One logical stream: enforce global time order.
    ordered: list[QuoteEvent] = []
    for i, ev in enumerate(events):
        if ordered and ev.timestamp < ordered[-1].timestamp:
            if strict:
                raise MalformedRecord(i + 2, "timestamp_ns", "out of order")
            report.n_malformed_skipped += 1
            continue
        ordered.append(ev)
    raw_dates = {cal.local_date(ev.timestamp) for ev in ordered}
    eligible = filter_eligible(ordered, tz, report=report, calendar=cal)
    nbbo = consolidate_nbbo({"NBBO": eligible}, priority, report)
    series = build_mid_series(nbbo, tz, calendar=cal)
    kept_dates = {s.calendar_date for s in series.sessions}
    for day in sorted(raw_dates - kept_dates):
        report.empty_session_dates.append(day.isoformat())
        logger.warning("no eligible events for %s; session omitted", day)
    return series, report
