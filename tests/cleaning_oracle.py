"""Reference cleaning passes: the straightforward per-session versions that
build dense clamp arrays and one array per session, kept as an oracle.

`winsorize_returns`, `remove_jumps` and `clean` here must agree with
`pushresp.cleaning` exactly: same mids bit for bit, same sessions, same
report. The library versions hold less memory; these hold the meaning.
"""

from __future__ import annotations

import math

import numpy as np

from pushresp.cleaning import CleaningConfig, CleaningReport
from pushresp.series import MidSeries, from_session_arrays


def _quantile(values: np.ndarray, p: float) -> float:
    n = values.size
    k = min(max(math.ceil(p * n), 1), n)
    return float(np.partition(values, k - 1)[k - 1])


def _pooled(series: MidSeries) -> np.ndarray:
    parts = [np.diff(series.session_slice(s)) for s in series.sessions]
    parts = [p for p in parts if p.size]
    return np.concatenate(parts) if parts else np.empty(0, dtype=np.float64)


def winsorize_returns(series: MidSeries, cfg: CleaningConfig, bounds=None):
    report = CleaningReport(n_input=len(series), n_output=len(series))
    incr = _pooled(series)
    if incr.size == 0:
        return series, report
    if bounds is None:
        if float(incr.min()) == float(incr.max()):
            report.degenerate = True
            report.q_low = report.q_high = float(incr[0])
            return series, report
        q_low = _quantile(incr, cfg.lower_q)
        q_high = _quantile(incr, cfg.upper_q)
    else:
        q_low, q_high = bounds
    report.q_low = q_low
    report.q_high = q_high

    new_mids = series.mids.copy()
    for s in series.sessions:
        r = np.diff(series.session_slice(s))
        if r.size == 0:
            continue
        low_mask = r < q_low
        high_mask = r > q_high
        n_low = int(low_mask.sum())
        n_high = int(high_mask.sum())
        report.n_winsorized_low += n_low
        report.n_winsorized_high += n_high
        if n_low == 0 and n_high == 0:
            continue
        adjust = np.zeros_like(r)
        adjust[low_mask] = q_low - r[low_mask]
        adjust[high_mask] = q_high - r[high_mask]
        new_mids[s.start + 1 : s.end + 1] += np.cumsum(adjust)
    return MidSeries(sessions=list(series.sessions), mids=new_mids), report


def remove_jumps(series: MidSeries, cfg: CleaningConfig):
    report = CleaningReport(n_input=len(series))
    drop = np.zeros(len(series), dtype=bool)
    for s in series.sessions:
        idx = np.nonzero(np.abs(np.diff(series.session_slice(s))) > cfg.jump_threshold)[0]
        drop[s.start + idx] = True
        drop[s.start + idx + 1] = True
    report.n_jump_events_removed = int(drop.sum())
    if report.n_jump_events_removed == 0:
        report.n_output = len(series)
        return series, report
    dates, arrays = [], []
    for s in series.sessions:
        block = series.session_slice(s)[~drop[s.start : s.end + 1]]
        if block.size == 0:
            report.n_sessions_dropped += 1
            continue
        dates.append(s.date)
        arrays.append(block)
    out = from_session_arrays(dates, arrays)
    report.n_output = len(out)
    return out, report


def clean(series: MidSeries, cfg: CleaningConfig):
    wins, wrep = winsorize_returns(series, cfg)
    out, jrep = remove_jumps(wins, cfg)
    return out, CleaningReport(
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
