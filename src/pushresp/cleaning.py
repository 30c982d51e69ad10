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

Memory: neither pass modifies its input, and each holds at most one more
series (the pooled increments, then the winsorized copy, which `clean`
lets the jump filter compact in place) plus scratch for one session.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput
from .series import MidSeries, Session

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class CleaningConfig:
    lower_q: float = 0.00001
    upper_q: float = 0.99999
    jump_threshold: float = 1.50

    def __post_init__(self):
        if not (0.0 < self.lower_q < self.upper_q < 1.0):
            raise ValueError(
                f"need 0 < lower_q < upper_q < 1, got {self.lower_q}, {self.upper_q}"
            )
        if self.jump_threshold <= 0:
            raise ValueError(f"jump threshold must be > 0, got {self.jump_threshold}")


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
        return {
            "n_input": self.n_input,
            "n_output": self.n_output,
            "n_winsorized_low": self.n_winsorized_low,
            "n_winsorized_high": self.n_winsorized_high,
            "n_jump_events_removed": self.n_jump_events_removed,
            "n_sessions_dropped": self.n_sessions_dropped,
            "degenerate": self.degenerate,
            "q_low": self.q_low,
            "q_high": self.q_high,
            "retention_ratio": self.retention_ratio,
        }


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


def _increments(series: MidSeries, session: Session, out: np.ndarray) -> np.ndarray:
    """The session's one-event increments, written to out[:len(session) - 1]."""
    mids = series.mids
    return np.subtract(mids[session.start + 1 : session.end + 1],
                       mids[session.start : session.end], out=out[: len(session) - 1])


def _session_scratch(series: MidSeries) -> np.ndarray:
    """A buffer for the increments of the longest session."""
    return np.empty(max((len(s) - 1 for s in series.sessions), default=0))


def pooled_increments(series: MidSeries) -> np.ndarray:
    """Every within-session increment, sessions in order, in one new buffer."""
    out = np.empty(sum(len(s) - 1 for s in series.sessions))
    pos = 0
    for s in series.sessions:
        pos += _increments(series, s, out[pos:]).size
    return out


def winsorize_returns(
    series: MidSeries,
    cfg: CleaningConfig,
    bounds: tuple[float, float] | None = None,
) -> tuple[MidSeries, CleaningReport]:
    """Clamp extreme increments and rebuild prices per session.

    `bounds` overrides the quantile values (used to re-apply a previous
    pass exactly); otherwise they are estimated from the pooled
    increments of this series. The input is never modified: the pooled
    increments are the one extra series until the copy that is rebuilt.
    """
    report = CleaningReport(n_input=len(series), n_output=len(series))
    if all(len(s) < 2 for s in series.sessions):
        logger.warning("winsorize: no increments (all sessions shorter than 2 events)")
        return series, report
    if bounds is None:
        incr = pooled_increments(series)
        if float(incr.min()) == float(incr.max()):
            logger.warning("winsorize: all increments identical; passing through")
            report.degenerate = True
            report.q_low = report.q_high = float(incr[0])
            return series, report
        k_low, k_high = (_nearest_rank(p, incr.size) for p in (cfg.lower_q, cfg.upper_q))
        incr.partition([k_low, k_high])  # the buffer is ours to reorder
        q_low, q_high = float(incr[k_low]), float(incr[k_high])
        del incr
    else:
        q_low, q_high = bounds
    report.q_low = q_low
    report.q_high = q_high

    new_mids = series.mids.copy()
    scratch = _session_scratch(series)
    for s in series.sessions:
        r = _increments(series, s, scratch)
        low_mask = r < q_low
        high_mask = r > q_high
        n_low = int(low_mask.sum())
        n_high = int(high_mask.sum())
        report.n_winsorized_low += n_low
        report.n_winsorized_high += n_high
        if n_low == 0 and n_high == 0:
            continue  # session untouched, stays bit-identical
        # the increments' buffer becomes the clamp adjustments, then their drift
        r_low, r_high = r[low_mask], r[high_mask]
        r.fill(0.0)
        r[low_mask] = q_low - r_low
        r[high_mask] = q_high - r_high
        new_mids[s.start + 1 : s.end + 1] += np.cumsum(r, out=r)
    return MidSeries(sessions=list(series.sessions), mids=new_mids), report


def jump_events(series: MidSeries, threshold: float) -> np.ndarray:
    """Sorted global indices of the events to drop: both endpoints of every
    within-session pair with |increment| > threshold, judged on original
    indices in one pass."""
    scratch = _session_scratch(series)
    ends = []
    for s in series.sessions:
        r = np.abs(_increments(series, s, scratch), out=scratch[: len(s) - 1])
        ends.append(s.start + np.flatnonzero(r > threshold))
    first = np.concatenate(ends) if ends else np.empty(0, dtype=np.int64)
    return np.union1d(first, first + 1)


def remove_jumps(
    series: MidSeries, cfg: CleaningConfig, in_place: bool = False
) -> tuple[MidSeries, CleaningReport]:
    """Drop both events of every jump. The kept runs are shifted left in a
    copy of the mids, or in `series.mids` itself when `in_place` is set
    (for a caller that owns them), so no second copy is made."""
    report = CleaningReport(n_input=len(series))
    drop = jump_events(series, cfg.jump_threshold)
    report.n_jump_events_removed = int(drop.size)
    if drop.size == 0:
        report.n_output = len(series)
        return series, report

    mids = series.mids if in_place else series.mids.copy()
    los, his = np.append(0, drop + 1), np.append(drop, len(mids))
    runs = his > los  # the kept runs
    n_out = 0
    for lo, hi in zip(los[runs].tolist(), his[runs].tolist()):
        mids[n_out : n_out + hi - lo] = mids[lo:hi]
        n_out += hi - lo

    firsts = [s.start for s in series.sessions]
    lasts = [s.end for s in series.sessions]
    n_dropped = np.searchsorted(drop, lasts, "right") - np.searchsorted(drop, firsts)
    sessions: list[Session] = []
    start = 0
    for s, gone in zip(series.sessions, n_dropped.tolist()):
        kept = len(s) - gone
        if kept == 0:
            report.n_sessions_dropped += 1
            logger.warning("session %s emptied by jump filter", s.calendar_date)
            continue
        sessions.append(Session(date=s.date, start=start, end=start + kept - 1))
        start += kept
    report.n_output = n_out
    return MidSeries(sessions=sessions, mids=mids[:n_out]), report


def clean(
    series: MidSeries, cfg: CleaningConfig
) -> tuple[MidSeries, CleaningReport]:
    """Winsorize first, then remove jumps; merge the two reports."""
    wins, wrep = winsorize_returns(series, cfg)
    # a winsorized copy is ours, so the jump filter compacts it in place
    out, jrep = remove_jumps(wins, cfg, in_place=wins is not series)
    merged = CleaningReport(
        n_input=wrep.n_input,
        n_output=jrep.n_output,
        n_winsorized_low=wrep.n_winsorized_low,
        n_winsorized_high=wrep.n_winsorized_high,
        n_jump_events_removed=jrep.n_jump_events_removed,
        n_sessions_dropped=jrep.n_sessions_dropped,
        degenerate=wrep.degenerate,
        q_low=wrep.q_low,
        q_high=wrep.q_high,
    )
    return out, merged
