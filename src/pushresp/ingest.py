"""Quote-feed parsing, eligibility filtering, and NBBO consolidation.

Input is the documented quote CSV schema, one file per venue (or one
combined file with a venue column). Records must carry the regular
condition flag and fall inside regular trading hours, 09:30 inclusive
to 16:00 exclusive Eastern, with DST handled by the zone database.

Every step works on numpy columns (`Quotes`), not on one object per
quote. Eligible quotes are ordered by timestamp (ties broken by a fixed
venue priority), each venue's standing bid and ask are forward-filled,
and the best bid/ask is the row max/min over venues; an event is emitted
only when it changes. Crossed books (bid > ask) are withheld from
output; locked books (bid == ask) pass through; both are tallied in the
quality report.

The feed is ingested one local date at a time. Each file is read in
batches of lines, and each batch is filtered as soon as it is parsed, so
only its eligible quotes are kept, and only the columns the merge reads
(`Updates`). A date is merged once every file has been read past its
local end: a file holding one venue, or a consolidated one, as soon as
it gives a later record; a file holding several venues once each venue
seen in it has, or at its end, so it holds the drift between its
venues. The date's updates are joined in file-key order, merged with
each venue's standing quote and the last uncrossed book carried over
from the dates before (`Book`), and written as the date's session. What
is held is thus the largest date's quotes, not the feed's. A file that
shows a venue first after a date it quotes on was written is read again
whole, from the start.

In strict mode the first problem met is raised: the files' headers and
first batches are read in key order, then, date by date, each file in
key order until it is read past the date's end. So with one malformed
record the file, line and field are those a whole-file read names; with
several, the one in the batch read first.
"""

from __future__ import annotations

import datetime
import logging
import re
import string
from dataclasses import dataclass, field
from itertools import compress, repeat
from pathlib import Path
from typing import Iterator, NamedTuple
from zoneinfo import ZoneInfo

import numpy as np

from .errors import MalformedRecord
from .series import MidSeries, PrmsWriter, Session, read_c_table

logger = logging.getLogger(__name__)

DEFAULT_VENUES = ("NYSE", "NASDAQ", "ARCA", "BZX", "BYX", "EDGX", "EDGA")
# Each venue's rank in the priority order that breaks timestamp ties.
_RANK = {v: i for i, v in enumerate(DEFAULT_VENUES)}
DEFAULT_TZ = "America/New_York"
QUOTE_HEADER = "timestamp_ns,venue,bid_price,bid_size,ask_price,ask_size,condition"

RTH_OPEN = datetime.time(9, 30)
RTH_CLOSE = datetime.time(16, 0)
NS = 1_000_000_000
DAY_NS = 86_400 * NS
EPOCH = datetime.date(1970, 1, 1)
_INT64_MIN, _INT64_MAX = np.iinfo(np.int64).min, np.iinfo(np.int64).max

# Lines parsed per batch (in characters): bounds the str objects alive at once.
_BATCH_CHARS = 1 << 18
# Rows per forward-fill chunk of the NBBO merge: bounds its temporaries.
_FILL_ROWS = 1 << 14

# The checks a record must pass, in the order they are made; a malformed
# record is reported under the field of the first one it fails.
_CHECKS = (
    ("record", "not UTF-8 text"),
    ("record", "expected 7 fields"),
    ("timestamp_ns", "must be a positive integer"),
    ("venue", "not a listed venue"),
    ("bid_price/ask_price", "must be numbers > 0 and finite"),
    ("bid_size/ask_size", "must be integers >= 0"),
    ("condition", "must be one character"),
    ("timestamp_ns", "out of order for its venue"),
)


class Quotes(NamedTuple):
    """Quote records as columns, one entry per record."""

    ts: np.ndarray  # int64 ns since epoch
    venue: np.ndarray  # int16 rank of the venue in the priority order
    bid: np.ndarray  # float64
    ask: np.ndarray  # float64
    regular: np.ndarray  # bool: the condition flag is "R"
    line: np.ndarray  # int64 line number in the source file

    def take(self, rows) -> Quotes:
        return Quotes(*(col[rows] for col in self))


class Updates(NamedTuple):
    """Eligible quotes as the columns the NBBO merge reads, one entry per quote."""

    ts: np.ndarray  # int64 ns since epoch
    venue: np.ndarray  # int16 rank of the venue in the priority order
    bid: np.ndarray  # float64
    ask: np.ndarray  # float64

    def take(self, rows) -> Updates:
        return Updates(*(col[rows] for col in self))


NO_QUOTES = Quotes(*(np.empty(0, t) for t in (np.int64, np.int16, float, float, bool, np.int64)))
NO_UPDATES = Updates(*NO_QUOTES[:4])


def _join(parts: list, empty: tuple):
    """The tables in `parts` as one table of `empty`'s type, emptying `parts`:
    each column of the parts is released as soon as it is joined, so that
    no record is held twice over."""
    columns = list(zip(empty, *parts))
    parts.clear()
    return type(empty)(*(np.concatenate(columns.pop(0)) for _ in empty))


@dataclass
class Book:
    """What the NBBO merge carries from one call to the next, as from one
    chunk to the next: each venue's standing bid and ask, by venue rank,
    and the last uncrossed book emitted."""

    bid: np.ndarray = field(default_factory=lambda: np.full(len(DEFAULT_VENUES), -np.inf))
    ask: np.ndarray = field(default_factory=lambda: np.full(len(DEFAULT_VENUES), np.inf))
    last: tuple[float, float] = (np.nan, np.nan)


class Nbbo(NamedTuple):
    """Consolidated top-of-book events as columns."""

    ts: np.ndarray
    bid: np.ndarray
    ask: np.ndarray
    mid: np.ndarray


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


def _numbers(texts: list[str], kind, dtype, fallback) -> np.ndarray:
    """`kind(text)` for every text as a column; a text that `kind` rejects,
    or whose value the dtype cannot hold, gives `fallback`."""
    try:
        return np.fromiter(map(kind, texts), dtype, len(texts))
    except (ValueError, OverflowError):
        values = np.full(len(texts), fallback, dtype)
        for i, text in enumerate(texts):
            try:
                values[i] = kind(text)
            except (ValueError, OverflowError):
                pass
        return values


def _flags(texts: list[str], test) -> np.ndarray:
    """`test(text)` for every text, evaluated once per distinct text."""
    hits = {text for text in set(texts) if test(text)}
    if not hits:
        return np.zeros(len(texts), bool)
    return np.fromiter(map(hits.__contains__, texts), bool, len(texts))


def _bad_size(text: str) -> bool:
    try:
        return int(text) < 0
    except ValueError:
        return True


class _Fields(NamedTuple):
    """A batch's records as columns, before any check is made."""

    row: np.ndarray  # int64 index of the record's line in the batch
    escaped: np.ndarray  # bool: the line holds a byte that is not UTF-8
    shaped: np.ndarray  # bool: the line has 7 fields
    ts: np.ndarray  # int64, 0 where the text is not an int64
    venue: np.ndarray  # int16 rank, -1 where not a listed venue
    bid: np.ndarray  # float64, nan where the text is not a number
    ask: np.ndarray
    bad_size: np.ndarray  # bool: either size is not an integer >= 0
    bad_condition: np.ndarray  # bool: the condition is not one character
    regular: np.ndarray  # bool: the condition is "R"


# Bytes the C reader may see (the listed venues are spelt in capitals): a
# batch holding any other byte, such as `+`, `_`, a space, `\r` or `#`, is one
# whose spellings numpy's parsers and the `int`/`float` builtins might read
# differently (see `plainly_spelt`).
_C_BYTES = ("0123456789.-,\n" + string.ascii_uppercase).encode()
# A venue column one byte wider than the longest listed venue, so longer
# names stay unlisted.
_C_DTYPE = [("ts", "i8"), ("venue", f"S{max(map(len, DEFAULT_VENUES)) + 1}"), ("bid", "f8"),
            ("bid_size", "i8"), ("ask", "f8"), ("ask_size", "i8"), ("condition", "S2")]
# Text an undecodable byte was read as (errors="surrogateescape").
_ESCAPED = re.compile("[\udc80-\udcff]")


def plainly_spelt(data: bytes, spelt: bytes) -> bool:
    """Whether numpy's C text reader may parse the lines `data` holds: they
    hold no byte outside `spelt` and no blank line (which the C reader
    skips, so line numbers would shift).

    `spelt` keeps away the spellings that the C reader and the `int`/`float`
    builtins might read differently: spaces, `_`, `\\r`, quotes, `#`, non-ASCII
    text. Within it both parse a float with the same correctly rounded
    routine and an int with the same digits, so what the C reader accepts
    the builtins read to the same values, and a quote batch reads alike on
    `_c_fields` and `_str_fields`."""
    return not (data.translate(None, spelt) or data.startswith(b"\n") or b"\n\n" in data)


def _c_fields(lines: list[str]) -> _Fields | None:
    """The batch parsed by numpy's C text reader, or None where the batch
    is not plainly spelt, or the reader rejects a field or warns about one,
    so the batch must go to `_str_fields`, which names the field. The C
    reader takes short lines faster from str than from bytes."""
    # an undecodable byte goes back to itself, outside `_C_BYTES`
    if not plainly_spelt("".join(lines).encode(errors="surrogateescape"), _C_BYTES):
        return None
    try:
        table = read_c_table(lines, _C_DTYPE)
    except (ValueError, Warning):
        return None
    n = len(table)
    venue = np.full(n, -1, np.int16)
    for name, k in _RANK.items():
        venue[table["venue"] == name.encode()] = k
    condition = table["condition"]
    return _Fields(
        np.arange(n), np.zeros(n, bool), np.ones(n, bool), table["ts"], venue,
        table["bid"], table["ask"], (table["bid_size"] < 0) | (table["ask_size"] < 0),
        np.char.str_len(condition) != 1, condition == b"R",
    )


def _str_fields(lines: list[str]) -> _Fields:
    """The batch parsed by the `int`/`float` builtins: any spelling they
    accept is read. Blank lines are not records; misshapen ones get empty
    fields and fail the field-count check."""
    row = np.arange(len(lines))
    shaped = np.fromiter(map(str.count, lines, repeat(",")), np.int64, len(lines)) == 6
    texts = lines
    if not shaped.all():
        keep = shaped | np.fromiter(map(bool, map(str.strip, lines)), bool, len(lines))
        lines, row, shaped = list(compress(lines, keep)), row[keep], shaped[keep]
        texts = [text if ok else ",,,,,," for text, ok in zip(lines, shaped)]
    n = len(texts)
    escaped = np.zeros(n, bool) if all(map(str.isascii, lines)) else _flags(lines, _ESCAPED.search)
    fields = ",".join(texts).split(",")  # a line's last field keeps its terminator
    condition = fields[6::7]
    return _Fields(
        row, escaped, shaped,
        _numbers(fields[0::7], int, np.int64, 0),
        np.fromiter(map(_RANK.get, fields[1::7], repeat(-1)), np.int16, n),
        _numbers(fields[2::7], float, np.float64, np.nan),
        _numbers(fields[4::7], float, np.float64, np.nan),
        _flags(fields[3::7], _bad_size) | _flags(fields[5::7], _bad_size),
        _flags(condition, lambda c: len(c.rstrip("\n")) != 1),
        _flags(condition, lambda c: c.rstrip("\n") == "R"),
    )


def _check(
    f: _Fields, lines: list[str], first_line_no: int, clock: np.ndarray,
    strict: bool, report: QualityReport,
) -> Quotes:
    """The well-formed records of a parsed batch of lines as columns.

    `clock` holds each venue's latest timestamp so far and is advanced in
    place; a record earlier than its venue's clock is out of order.
    """
    if not (n := len(f.row)):
        return NO_QUOTES
    report.n_records += n
    bad = (  # in the order of _CHECKS
        f.escaped,
        ~f.shaped,
        f.ts <= 0,
        f.venue < 0,
        ~((f.bid > 0) & (f.ask > 0) & np.isfinite(f.bid) & np.isfinite(f.ask)),
        f.bad_size,
        f.bad_condition,
    )
    check = np.zeros(n, np.int8)  # 1 + index of the first failed check, 0 if none
    for i in reversed(range(len(bad))):
        check[bad[i]] = i + 1
    ok = check == 0
    for v in np.unique(f.venue[ok]):
        rows = np.flatnonzero(ok & (f.venue == v))
        latest = np.maximum(np.maximum.accumulate(f.ts[rows]), clock[v])
        check[rows[f.ts[rows] < latest]] = len(_CHECKS)
        clock[v] = latest[-1]
    quotes = Quotes(f.ts, f.venue, f.bid, f.ask, f.regular, first_line_no + f.row)
    failed = check != 0
    if not failed.any():
        return quotes
    if strict:
        first = int(failed.argmax())
        name, detail = _CHECKS[check[first] - 1]
        text = lines[f.row[first]].rstrip("\n")
        raise MalformedRecord(int(quotes.line[first]), name, f"{detail}: {text!r}")
    report.n_malformed_skipped += int(failed.sum())
    return quotes.take(~failed)


def _batches(path: str | Path, strict: bool, report: QualityReport,
             clock: np.ndarray) -> Iterator[Quotes]:
    """The well-formed records of a quote file, one batch of lines at a
    time. `clock` holds each venue's latest timestamp and is advanced in
    place, so the order check carries from batch to batch. The file is
    opened when the first batch is asked for."""
    n_batches = n_c = 0
    try:
        with open(path, encoding="utf-8", errors="surrogateescape", newline="") as f:
            header = f.readline().rstrip("\n")
            if header != QUOTE_HEADER:
                detail = f"expected '{QUOTE_HEADER}'"
                if header.endswith("\r"):
                    detail = f"ends in '\\r', but quote files use LF line ends; {detail}"
                raise MalformedRecord(1, "header", detail)
            line_no = 2
            while lines := f.readlines(_BATCH_CHARS):
                fields = _c_fields(lines)
                n_batches, n_c = n_batches + 1, n_c + (fields is not None)
                if fields is None:
                    fields = _str_fields(lines)
                batch = [_check(fields, lines, line_no, clock, strict, report)]
                line_no += len(lines)
                lines = fields = None  # not held while the caller works
                yield batch.pop()  # nor is the batch, once the caller has it
    except MalformedRecord as exc:
        raise MalformedRecord(exc.line_no, exc.field, exc.detail, Path(path).name) from None
    logger.info("%s: %d of %d batches by the C reader", Path(path).name, n_c, n_batches)


def read_quote_csv(
    path: str | Path,
    strict: bool = True,
    report: QualityReport | None = None,
) -> Quotes:
    """Parse one quote file into columns, venues ranked by their place in
    `DEFAULT_VENUES`. In lenient mode malformed records are skipped and tallied;
    strict mode raises on the first problem. A skipped record does not
    advance its venue's clock.

    Each batch of lines is parsed by numpy's C reader when it is plainly
    spelt and by the `int`/`float` builtins otherwise; both give the same
    columns, which go through the same checks."""
    report = report if report is not None else QualityReport()
    clock = np.full(len(DEFAULT_VENUES), _INT64_MIN)
    return _join(list(_batches(path, strict, report, clock)), NO_QUOTES)


def _local_bounds(day: int, zone: ZoneInfo) -> tuple[int, int, int]:
    """The local midnight, open and close of `day` (days since the epoch)
    in the zone, in ns since the epoch, from the zone database."""
    date = EPOCH + datetime.timedelta(days=day)
    return tuple(int(datetime.datetime.combine(date, t, tzinfo=zone).timestamp()) * NS
                 for t in (datetime.time(0), RTH_OPEN, RTH_CLOSE))


def _calendar(ts: np.ndarray, tz: str) -> tuple[np.ndarray, ...]:
    """The local dates around the timestamps, in days since the epoch,
    ascending, with their local midnights and regular trading hours
    [open, close) in ns, and the row of each timestamp's date: the last
    date whose local midnight is at or before it.

    A date's midnight, open and close come from the zone database, so DST
    is handled. A local date lies within a day of the UTC date, so only the
    UTC days present and their neighbours are looked up. A date whose
    midnight is past the int64 range holds no timestamp; one whose close
    is past it has no regular hours.
    """
    zone = ZoneInfo(tz)
    utc = ts // DAY_NS
    first = int(utc.min()) if len(ts) else 0
    utc -= first
    present = np.flatnonzero(np.bincount(utc)) + first
    del utc  # not held beside the rows
    table = []  # date, midnight, open, close
    for day in np.unique(np.concatenate([present - 1, present, present + 1])).tolist():
        midnight, open_, close = _local_bounds(day, zone)
        if midnight > _INT64_MAX:
            break
        if close > _INT64_MAX:
            open_ = close = _INT64_MAX
        table.append((day, midnight, open_, close))
    days, midnights, opens, closes = np.array(table, dtype=np.int64).reshape(-1, 4).T
    return days, midnights, opens, closes, np.searchsorted(midnights, ts, side="right") - 1


def _day_of(t: int, tz: str) -> tuple[int, int, int | None]:
    """The local date of the timestamp `t`, as `_calendar` finds it, with
    the local midnights that start and end that date; the end is None
    when it is past the int64 range."""
    days, midnights, _, _, row = _calendar(np.array([t], np.int64), tz)
    row = int(row[0])
    day, start = int(days[row]), int(midnights[row])
    if row + 1 < len(days):
        return day, start, int(midnights[row + 1])
    end = _local_bounds(day + 1, ZoneInfo(tz))[0]  # a zone ahead of UTC
    return day, start, end if end <= _INT64_MAX else None


def filter_eligible(
    quotes: Quotes, tz: str = DEFAULT_TZ, report: QualityReport | None = None,
    record_days: set[int] | None = None,
) -> Updates:
    """Keep regular-condition quotes inside regular trading hours, as the
    columns the merge reads; the local dates of all the quotes are added to
    `record_days`."""
    days, _, opens, closes, row = _calendar(quotes.ts, tz)
    if record_days is not None:
        record_days.update(days[np.bincount(row, minlength=len(days)) > 0].tolist())
    in_rth = opens[row] <= quotes.ts
    in_rth &= quotes.ts < closes[row]
    del row  # not held beside the kept columns
    if report is not None:
        report.n_dropped_condition += int((~quotes.regular).sum())
        report.n_dropped_outside_rth += int((quotes.regular & ~in_rth).sum())
    keep = quotes.regular & in_rth
    return Updates(quotes.ts[keep], quotes.venue[keep], quotes.bid[keep], quotes.ask[keep])


def consolidate_nbbo(
    quotes: Updates, report: QualityReport | None = None, book: Book | None = None
) -> Nbbo:
    """Merge the venues' quotes into the consolidated best bid/offer.

    Quotes apply in timestamp order, ties in venue-rank order and then in
    record order. After each update best_bid is the max over the venues'
    standing bids and best_ask the min over their asks; an update is
    emitted only when the pair differs from the last uncrossed one, and
    updates that leave the book crossed are withheld. Each chunk of rows is
    gathered through the sort order, so the quotes are not copied whole.
    `book` starts the merge where an earlier call left it and is advanced
    in place, so merging a feed in time-ordered pieces emits what merging
    it whole does.
    """
    report = report if report is not None else QualityReport()
    book = book if book is not None else Book()
    order = np.lexsort((quotes.venue, quotes.ts))  # stable: ties keep file and record order
    parts = [(np.empty(0, np.int64), np.empty(0), np.empty(0))]
    for lo in range(0, len(order), _FILL_ROWS):
        rows = order[lo : lo + _FILL_ROWS]
        venue, bid, ask = quotes.venue[rows], quotes.bid[rows], quotes.ask[rows]
        pos = np.arange(len(venue))
        quoting = np.bincount(venue, minlength=len(book.bid)) > 0
        # venues without a quote in the chunk add their standing quotes
        best_bid = np.full(len(venue), book.bid[~quoting].max(initial=-np.inf))
        best_ask = np.full(len(venue), book.ask[~quoting].min(initial=np.inf))
        for v in np.flatnonzero(quoting).tolist():
            latest = np.maximum.accumulate(np.where(venue == v, pos, -1))
            quoted = latest >= 0
            venue_bid = np.where(quoted, bid[latest], book.bid[v])
            venue_ask = np.where(quoted, ask[latest], book.ask[v])
            np.maximum(best_bid, venue_bid, out=best_bid)
            np.minimum(best_ask, venue_ask, out=best_ask)
            book.bid[v], book.ask[v] = venue_bid[-1], venue_ask[-1]
        crossed = best_bid > best_ask
        report.n_crossed_dropped += int(crossed.sum())
        report.n_locked_kept += int((best_bid == best_ask).sum())
        uncrossed = np.flatnonzero(~crossed)
        bb, ba = best_bid[uncrossed], best_ask[uncrossed]
        last = book.last
        changed = (bb != np.r_[last[0], bb[:-1]]) | (ba != np.r_[last[1], ba[:-1]])
        report.n_unchanged_suppressed += int(len(uncrossed) - changed.sum())
        if len(uncrossed):
            book.last = (bb[-1], ba[-1])
        parts.append((quotes.ts[rows[uncrossed[changed]]], bb[changed], ba[changed]))
    order = rows = None  # not held while the events are joined
    ts, bid, ask = map(np.concatenate, zip(*parts))
    report.n_emitted += len(ts)
    return Nbbo(ts, bid, ask, (bid + ask) / 2.0)


def build_mid_series(nbbo: Nbbo, tz: str = DEFAULT_TZ) -> MidSeries:
    """Cut consolidated events into per-date sessions with global indices."""
    if not len(nbbo.ts):
        logger.warning("build_mid_series: no events; empty series")
        return MidSeries([], np.empty(0))
    dates, *_, row = _calendar(nbbo.ts, tz)
    days = dates[row]
    starts = np.flatnonzero(np.r_[True, days[1:] != days[:-1]])
    ends = np.r_[starts[1:], len(days)] - 1
    sessions = [Session(int(days[s]), int(s), int(e)) for s, e in zip(starts, ends)]
    return MidSeries(sessions, nbbo.mid)


class _Behind(Exception):
    """A file gave an eligible quote of a day already merged."""

    def __init__(self, feed: _Feed):
        self.feed = feed


class _Feed:
    """One quote file read a batch at a time as eligible updates, each
    held until the day it falls in is merged.

    `horizon()` bounds the timestamps of the records still to be read:
    no venue seen in the file goes back in time, so they are no earlier
    than the least of its venues' clocks, or, in a consolidated file,
    which holds one stream, than its latest record. A venue that first
    appears in the file after a day it quotes in was merged cannot be
    foreseen: the update that shows it raises `_Behind`. A file read
    `whole` is read to its end before the first day is merged.
    """

    def __init__(self, path, tz: str, strict: bool, report: QualityReport,
                 record_days: set[int], consolidated: bool, whole: bool):
        self.path, self.tz, self.strict, self.report = Path(path), tz, strict, report
        self.record_days, self.consolidated, self.whole = record_days, consolidated, whole
        self.clock = np.full(len(DEFAULT_VENUES), _INT64_MIN)  # each venue's latest record
        self.latest = _INT64_MIN  # the latest record of a consolidated file
        self.batches = _batches(path, strict, report, self.clock)
        self.held: list[Updates] = []
        self.done = False  # read to its end
        self.merged = _INT64_MIN  # the end of the last day merged

    def horizon(self) -> int | None:
        """No record still to be read is earlier than this; None once the
        file is read, and the int64 minimum while nothing bounds it."""
        if self.done:
            return None
        if self.consolidated:
            return self.latest
        seen = self.clock[self.clock > _INT64_MIN]
        return _INT64_MIN if self.whole or not len(seen) else int(seen.min())

    def first(self) -> int | None:
        """The earliest timestamp the file may yet give the merge, read
        far enough to bound it; None when it has nothing left."""
        while (bound := self.horizon()) == _INT64_MIN:
            self._read()
        times = [int(part.ts.min()) for part in self.held]
        return min(times + [bound] if bound is not None else times, default=None)

    def read_past(self, end: int | None) -> None:
        """Read until no record still to be read is earlier than `end`
        (None: to the end of the file)."""
        while (bound := self.horizon()) is not None and (end is None or bound < end):
            self._read()

    def take_before(self, end: int | None) -> list[Updates]:
        """The held updates earlier than `end` (None: all of them), in
        record order; the later ones stay held."""
        early, late = [], []
        for part in self.held:
            before = part.ts < end if end is not None else np.ones(len(part.ts), bool)
            if before.all():
                early.append(part)
            elif before.any():
                early.append(part.take(before))
                late.append(part.take(~before))
            else:
                late.append(part)
        self.held, self.merged = late, end if end is not None else _INT64_MAX
        return early

    def _read(self) -> None:
        quotes = next(self.batches, None)
        if quotes is None:
            self.done = True
            return
        if self.consolidated:
            quotes = self._in_global_order(quotes)
        updates = filter_eligible(quotes, self.tz, self.report, self.record_days)
        del quotes  # not held beside the updates
        if len(updates.ts):
            if updates.ts.min() < self.merged:
                raise _Behind(self)
            self.held.append(updates)

    def _in_global_order(self, quotes: Quotes) -> Quotes:
        """A consolidated file's records are one stream: one earlier than
        a record before it is out of order. All of them form one venue."""
        if not len(quotes.ts):
            return quotes
        latest = np.maximum(np.maximum.accumulate(quotes.ts), self.latest)
        self.latest = int(latest[-1])
        late = quotes.ts < latest
        if late.any():
            if self.strict:
                raise MalformedRecord(int(quotes.line[late.argmax()]), "timestamp_ns",
                                      "out of order", self.path.name)
            self.report.n_malformed_skipped += int(late.sum())
            quotes = quotes.take(~late)
        return quotes._replace(venue=np.zeros_like(quotes.venue))

    def close(self) -> None:
        self.batches.close()


def _merge_days(feeds: list[_Feed], out: PrmsWriter, tz: str, report: QualityReport) -> None:
    """Merge the feeds one local date at a time, earliest first, and write
    each date's session. A date is merged once every file has been read
    past its end; its updates are joined in file order. Reading on can
    show a venue first at an earlier date, which is then merged first."""
    def earliest() -> int | None:
        return min((t for feed in feeds if (t := feed.first()) is not None), default=None)

    book = Book()
    while (t := earliest()) is not None:
        day, start, end = _day_of(t, tz)
        for feed in feeds:
            feed.read_past(end)
        if (t := earliest()) is not None and t < start:
            continue
        parts = [part for feed in feeds for part in feed.take_before(end)]
        out.write(day, consolidate_nbbo(_join(parts, NO_UPDATES), report, book).mid)


def _ingest(paths: list, out: str | Path, tz: str, strict: bool,
            consolidated: bool) -> tuple[PrmsWriter, QualityReport]:
    """Ingest the files into a PRMS file at `out`, a date at a time. A file
    found behind a date already written is read again whole, from the
    start of the ingest."""
    whole = [False] * len(paths)
    while True:
        report, record_days = QualityReport(), set()
        feeds = [_Feed(path, tz, strict, report, record_days, consolidated, w)
                 for path, w in zip(paths, whole)]
        try:
            with PrmsWriter(out) as written:
                _merge_days(feeds, written, tz, report)
            break
        except _Behind as behind:
            logger.info("%s: a venue first seen past a date already merged; "
                        "reading the file whole", behind.feed.path.name)
            whole[feeds.index(behind.feed)] = True
        finally:
            for feed in feeds:
                feed.close()
    if not written.sessions:
        logger.warning("no eligible events; empty series")
    for day in sorted(record_days.difference(s.date for s in written.sessions)):
        date = EPOCH + datetime.timedelta(days=day)
        report.empty_session_dates.append(date.isoformat())
        logger.warning("no eligible events for %s; session omitted", date)
    return written, report


def ingest_files(
    venue_files: dict[str, Path],
    out: str | Path,
    tz: str = DEFAULT_TZ,
    strict: bool = True,
) -> tuple[PrmsWriter, QualityReport]:
    """Full ingest: parse and filter each venue file, consolidate, and write
    the series to a PRMS file at `out`, one local date at a time. Returns
    the closed writer, whose `sessions` list what was written, and the
    quality report.

    Files are read in key order, so a venue split across files keeps its
    records' order where their timestamps tie. Each batch is filtered as
    soon as it is read, so only eligible quotes are held, and only until
    their date is merged.
    """
    return _ingest([path for _, path in sorted(venue_files.items())], out, tz, strict, False)


def ingest_consolidated(
    path: str | Path,
    out: str | Path,
    tz: str = DEFAULT_TZ,
    strict: bool = True,
) -> tuple[PrmsWriter, QualityReport]:
    """Ingest a pre-consolidated feed, as `ingest_files` does one file: same
    schema, degenerate merge, with the records held to one time order."""
    return _ingest([path], out, tz, strict, True)
