"""Outlier controls on the mid-price series.

Two passes, applied in this order:

1. winsorize_returns: one-event increments within each session are
   clamped to the [lower_q, upper_q] empirical quantiles, with the
   quantiles taken over all sessions pooled. Prices are rebuilt by
   adding the cumulative clamp adjustment to the original mids, so a
   session with no clamped increment stays bit-identical.
2. remove_jumps: any consecutive pair whose absolute increment exceeds
   the jump threshold has both events removed. Marking happens in a
   single pass against the original neighbor structure; compaction may
   create new adjacencies which are deliberately not re-filtered.

Both passes work one session at a time, so a session winsorized and
filtered is final. `clean` runs them on an in-memory series; `clean_prms`
runs them from one PRMS file to another.

Memory: nothing modifies its input. The quantiles are found in one read
of the sessions that holds, besides one session's increments, the
k_low + 1 smallest and n - k_high largest increments, in buffers of up
to twice that plus a session each: little for the default tails, up
to about two series for a central quantile. The in-memory
passes then write one new series; `clean_prms` holds the session read,
the session cleaned and its increments.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .accum import cumsum_in_place
from .errors import ConfigSection, EmptyInput
from .series import MidSeries, PrmsReader, PrmsWriter, Session

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CleaningConfig(ConfigSection):
    lower_q: float = 0.00001
    upper_q: float = 0.99999
    jump_threshold: float = 1.50

    def problems(self) -> list[str]:
        problems = []
        if not (0.0 < self.lower_q < self.upper_q < 1.0):
            problems.append(
                f"need 0 < lower_q < upper_q < 1, got {self.lower_q}, {self.upper_q}"
            )
        if self.jump_threshold <= 0:
            problems.append(f"jump threshold must be > 0, got {self.jump_threshold}")
        return problems


@dataclass
class CleaningReport:
    n_input: int = 0
    n_output: int = 0
    n_winsorized_low: int = 0
    n_winsorized_high: int = 0
    n_jump_events_removed: int = 0
    n_sessions_dropped: int = 0
    degenerate: bool = False
    q_low: float | None = None
    q_high: float | None = None

    @property
    def retention_ratio(self) -> float:
        if self.n_input == 0:
            return 1.0
        return self.n_output / self.n_input

    def to_dict(self) -> dict:
        return {**asdict(self), "retention_ratio": self.retention_ratio}


def _nearest_rank(p: float, n: int) -> int:
    """0-based position of the nearest-rank p-quantile among n sorted values:
    k - 1 with k = ceil(p*n) clamped to [1, n]."""
    if not (0.0 < p < 1.0):
        raise ValueError(f"quantile probability must be in (0, 1), got {p}")
    return min(max(math.ceil(p * n), 1), n) - 1


def empirical_quantile(values: np.ndarray, p: float) -> float:
    """Nearest-rank quantile: k-th smallest with k = ceil(p*n), clamped to [1, n]."""
    values = np.asarray(values)
    if values.size == 0:
        raise EmptyInput("empirical_quantile of empty array")
    k = _nearest_rank(p, values.size)
    return float(np.partition(values, k)[k])


def _extremes(values: np.ndarray, keep: int, largest: bool) -> np.ndarray:
    """The `keep` largest or smallest of `values`, which are reordered in place."""
    if values.size <= keep:
        return values
    if largest:
        values.partition(values.size - keep)
        return values[values.size - keep :]
    values.partition(keep - 1)
    return values[:keep]


class _Tail:
    """The `keep` smallest (or largest) of the values offered so far.

    The buffer holds twice `keep` plus one offer: it is cut back to `keep`
    (one partition) only when an offer would not fit, so at most once per
    `keep` values taken in, and n values cost O(n) partition work."""

    def __init__(self, keep: int, largest: bool, longest_offer: int):
        self.keep, self.largest = keep, largest
        self.buf = np.empty(2 * keep + min(keep, longest_offer))
        self.held = 0

    def offer(self, values: np.ndarray) -> None:
        """Take in `values`, which are reordered in place."""
        tail = _extremes(values, self.keep, self.largest)
        if self.held + tail.size > self.buf.size:
            self.buf[: self.keep] = _extremes(self.buf[: self.held], self.keep, self.largest)
            self.held = self.keep
        self.buf[self.held : self.held + tail.size] = tail
        self.held += tail.size

    def bound(self) -> float:
        """The smallest of the largest values kept, or the largest of the smallest."""
        kept = _extremes(self.buf[: self.held], self.keep, self.largest)
        return float(kept.min() if self.largest else kept.max())


def _quantile_bounds(source, cfg: CleaningConfig) -> tuple[float, float, bool]:
    """(q_low, q_high, degenerate) of every within-session increment of
    `source`, which has at least one, read one session at a time.

    With n increments the nearest-rank quantiles sit at ranks k_low and
    k_high, so each session's k_low + 1 smallest and n - k_high largest
    increments (one partition each) join two tails that keep that many:
    q_low is the largest of the one, q_high the smallest of the other.
    When every increment is equal the pass is degenerate, and both bounds
    are the first increment."""
    n = sum(len(s) - 1 for s in source.sessions)
    k_low, k_high = (_nearest_rank(p, n) for p in (cfg.lower_q, cfg.upper_q))
    longest = max(len(s) - 1 for s in source.sessions)
    low, high = _Tail(k_low + 1, False, longest), _Tail(n - k_high, True, longest)
    scratch = np.empty(longest)
    first = None
    for _, mids in source.blocks():
        if len(mids) < 2:
            continue
        r = np.subtract(mids[1:], mids[:-1], out=scratch[: len(mids) - 1])
        if first is None:
            first, r_min, r_max = float(r[0]), float(r.min()), float(r.max())
        else:
            r_min, r_max = min(r_min, float(r.min())), max(r_max, float(r.max()))
        low.offer(r)
        high.offer(r)
    if r_min == r_max:
        return first, first, True
    return low.bound(), high.bound(), False


def _bounds(source, cfg: CleaningConfig, report: CleaningReport, bounds=None):
    """The winsorizing bounds, recorded in `report`: `bounds` when given,
    else the pooled quantiles; None when there is nothing to winsorize
    (no increments, or all of them equal)."""
    if all(len(s) < 2 for s in source.sessions):
        logger.warning("winsorize: no increments (all sessions shorter than 2 events)")
        return None
    if bounds is None:
        q_low, q_high, degenerate = _quantile_bounds(source, cfg)
        if degenerate:
            logger.warning("winsorize: all increments identical; passing through")
            report.degenerate = True
            report.q_low = report.q_high = q_low
            return None
        bounds = q_low, q_high
    report.q_low, report.q_high = bounds
    return bounds


def _clean_session(
    mids: np.ndarray, out: np.ndarray, bounds, threshold: float | None,
    scratch: np.ndarray, report: CleaningReport,
) -> int:
    """Copy one session's mids to `out`, clamp its increments to `bounds`
    (unless None) and drop both events of every increment beyond
    `threshold` (unless None), keeping the events at the head of `out`;
    returns how many were kept. `scratch` holds the session's increments."""
    n = len(mids)
    out[:n] = mids
    r = scratch[: n - 1]
    if bounds is not None and n > 1:
        q_low, q_high = bounds
        np.subtract(mids[1:], mids[:-1], out=r)
        low_mask = r < q_low
        high_mask = r > q_high
        n_low = int(low_mask.sum())
        n_high = int(high_mask.sum())
        report.n_winsorized_low += n_low
        report.n_winsorized_high += n_high
        if n_low or n_high:  # else the session stays bit-identical
            # the increments' buffer becomes the clamp adjustments, then their drift
            r_low, r_high = r[low_mask], r[high_mask]
            r.fill(0.0)
            r[low_mask] = q_low - r_low
            r[high_mask] = q_high - r_high
            cumsum_in_place(r)
            out[1:n] += r
    if threshold is None:
        return n
    # jumps are judged on the winsorized increments, all in one pass
    np.abs(np.subtract(out[1:n], out[: n - 1], out=r), out=r)
    first = np.flatnonzero(r > threshold)
    if not first.size:
        return n
    drop = np.union1d(first, first + 1)
    report.n_jump_events_removed += int(drop.size)
    los, his = np.append(0, drop + 1), np.append(drop, n)
    runs = his > los  # the kept runs, shifted left in place
    kept = 0
    for lo, hi in zip(los[runs].tolist(), his[runs].tolist()):
        out[kept : kept + hi - lo] = out[lo:hi]
        kept += hi - lo
    return kept


def _clean_sessions(
    source, report: CleaningReport, bounds, threshold: float | None
) -> Iterator[tuple[int, np.ndarray]]:
    """(date, kept mids) of each session of `source` that keeps an event,
    after `_clean_session`; a session the jump filter empties is counted
    and logged. Each session is cleaned into one buffer the size of the
    longest, valid until the next is yielded."""
    longest = max((len(s) for s in source.sessions), default=0)
    scratch = np.empty(max(longest - 1, 0))
    buf = np.empty(longest)
    for s, mids in source.blocks():
        kept = _clean_session(mids, buf, bounds, threshold, scratch, report)
        report.n_output += kept
        if kept == 0:
            report.n_sessions_dropped += 1
            logger.warning("session %s emptied by jump filter", s.calendar_date)
            continue
        yield s.date, buf[:kept]


def _collect(series: MidSeries, report: CleaningReport, bounds, threshold) -> MidSeries:
    """`_clean_sessions` of an in-memory series, copied into one new array."""
    mids = np.empty(len(series))
    sessions: list[Session] = []
    start = 0
    for date, kept in _clean_sessions(series, report, bounds, threshold):
        mids[start : start + len(kept)] = kept
        sessions.append(Session(date=date, start=start, end=start + len(kept) - 1))
        start += len(kept)
    return MidSeries(sessions=sessions, mids=mids[:start])


def winsorize_returns(
    series: MidSeries,
    cfg: CleaningConfig,
    bounds: tuple[float, float] | None = None,
) -> tuple[MidSeries, CleaningReport]:
    """Clamp extreme increments and rebuild prices per session.

    `bounds` overrides the quantile values (used to re-apply a previous
    pass exactly); otherwise they are estimated from the pooled
    increments of this series. The input is never modified."""
    report = CleaningReport(n_input=len(series))
    bounds = _bounds(series, cfg, report, bounds)
    if bounds is None:
        report.n_output = len(series)
        return series, report
    return _collect(series, report, bounds, None), report


def remove_jumps(series: MidSeries, cfg: CleaningConfig) -> tuple[MidSeries, CleaningReport]:
    """Drop both events of every jump into a new series; a session left
    with no event is dropped."""
    report = CleaningReport(n_input=len(series))
    return _collect(series, report, None, cfg.jump_threshold), report


def clean(series: MidSeries, cfg: CleaningConfig) -> tuple[MidSeries, CleaningReport]:
    """Winsorize first, then remove jumps, one session at a time, into one
    new series."""
    report = CleaningReport(n_input=len(series))
    bounds = _bounds(series, cfg, report)
    return _collect(series, report, bounds, cfg.jump_threshold), report


def clean_prms(
    src: str | Path, out: str | Path, cfg: CleaningConfig
) -> tuple[PrmsWriter, CleaningReport]:
    """`clean` from one PRMS file to another. The input is read twice, one
    session at a time: once for the quantiles, and once to clean each
    session and write it, so a session (and the tails of the quantile
    pass) is all that is held. The first read checks every mid before the
    output is opened (when some session has an increment to read; else
    the second read checks them), so a poisoned input costs no write."""
    source = PrmsReader(src)
    report = CleaningReport(n_input=len(source))
    bounds = _bounds(source, cfg, report)
    with PrmsWriter(out) as writer:
        for date, mids in _clean_sessions(source, report, bounds, cfg.jump_threshold):
            writer.write(date, mids)
    return writer, report
