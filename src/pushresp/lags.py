"""Lag families, admissible anchors, and per-lag push/response moments.

For a lag L and anchor index t, the push is mids[t] - mids[t-L] and the
response is mids[t+L] - mids[t]. An anchor is admissible when t-L, t and
t+L all fall inside one session. Moments (mean and population standard
deviation of pushes and responses over all admissible anchors) are the
standardization constants for everything downstream.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .accum import MomentAccumulator
from .errors import ArtifactIOError, InsufficientSupport, InvalidGrid, ZeroVariance
from .series import MidSeries, Session, parse_column, read_csv, write_csv

DEFAULT_SHORT_LAGS = (1,) + tuple(range(50, 5001, 50))
DEFAULT_LONG_LAGS = tuple(range(1000, 500001, 1000))


def validate_lags(lags) -> tuple[int, ...]:
    lags = tuple(int(x) for x in lags)
    if not lags:
        raise InvalidGrid("lag family is empty")
    if any(x < 1 for x in lags):
        raise InvalidGrid(f"lags must be >= 1, got {min(lags)}")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise InvalidGrid("lags must be strictly increasing")
    return lags


def anchor_count(sessions: list[Session], lag: int) -> int:
    return sum(max(0, len(s) - 2 * lag) for s in sessions)


@dataclass(frozen=True)
class LagMoments:
    lag: int
    n_pairs: int
    mu_p: float
    sigma_p: float
    mu_r: float
    sigma_r: float


def session_pushes_responses(
    mids: np.ndarray, session: Session, lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized pushes/responses over the session's admissible anchors."""
    a0 = session.start + lag
    a1 = session.end - lag  # inclusive
    if a1 < a0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    pushes = mids[a0 : a1 + 1] - mids[a0 - lag : a1 - lag + 1]
    responses = mids[a0 + lag : a1 + lag + 1] - mids[a0 : a1 + 1]
    return pushes, responses


def compute_moments(series: MidSeries, lag: int) -> LagMoments:
    """Mean and population std of pushes and responses at one lag.

    A session's differences d = mids[t+L] - mids[t] fill one reused buffer:
    its a pushes are d[:a], its responses d[L:] (then their deviations).
    Session partials merge in session order, so chunking cannot change it.
    """
    acc_p, acc_r = MomentAccumulator(), MomentAccumulator()
    longest = max((len(s) for s in series.sessions), default=0)
    diffs, scratch = np.empty((2, max(0, longest - lag)))
    for s in series.sessions:
        a = len(s) - 2 * lag
        if a <= 0:
            continue
        d = np.subtract(series.mids[s.start + lag : s.end + 1],
                        series.mids[s.start : s.end + 1 - lag], out=diffs[: a + lag])
        acc_p.add_batch(d[:a], scratch)
        acc_r.add_batch(d[lag:], d[lag:])
    if acc_p.count < 2:
        raise InsufficientSupport(lag, acc_p.count)
    sigma_p, sigma_r = acc_p.std, acc_r.std
    if sigma_p == 0.0:
        raise ZeroVariance(lag, "push")
    if sigma_r == 0.0:
        raise ZeroVariance(lag, "response")
    return LagMoments(
        lag=lag,
        n_pairs=acc_p.count,
        mu_p=acc_p.mean,
        sigma_p=sigma_p,
        mu_r=acc_r.mean,
        sigma_r=sigma_r,
    )


@dataclass(frozen=True)
class MomentRow:
    """One lag's moments, or the reason the lag was excluded."""

    lag: int
    n_pairs: int
    moments: LagMoments | None
    excluded: str | None  # None, "insufficient_support" or "zero_variance"


def compute_moments_table(series: MidSeries, lags) -> list[MomentRow]:
    rows = []
    for lag in validate_lags(lags):
        try:
            m = compute_moments(series, lag)
            rows.append(MomentRow(lag=lag, n_pairs=m.n_pairs, moments=m, excluded=None))
        except InsufficientSupport as exc:
            rows.append(
                MomentRow(lag=lag, n_pairs=exc.n_pairs, moments=None,
                          excluded="insufficient_support")
            )
        except ZeroVariance:
            rows.append(
                MomentRow(lag=lag, n_pairs=anchor_count(series.sessions, lag),
                          moments=None, excluded="zero_variance")
            )
    return rows


MOMENTS_HEADER = ["lag", "n_pairs", "mu_p", "sigma_p", "mu_r", "sigma_r"]


def write_moments_csv(rows: list[MomentRow], path: str | Path) -> None:
    """One row per lag; an excluded lag's moments are blank."""

    def column(name: str) -> list:
        return [getattr(r.moments, name) if r.moments else "" for r in rows]

    write_csv(path, MOMENTS_HEADER, [[r.lag for r in rows], [r.n_pairs for r in rows],
                                     *map(column, MOMENTS_HEADER[2:])])


def _float_or_blank(text: str) -> float | None:
    return float(text) if text else None


def read_moments_csv(path: str | Path) -> list[MomentRow]:
    cols = read_csv(path, MOMENTS_HEADER)
    rows: list[MomentRow] = []
    for lag, n_pairs, *values in zip(
        parse_column(path, cols, "lag", int), parse_column(path, cols, "n_pairs", int),
        *(parse_column(path, cols, name, _float_or_blank) for name in MOMENTS_HEADER[2:]),
    ):
        if values[0] is None:
            reason = "insufficient_support" if n_pairs < 2 else "zero_variance"
            rows.append(MomentRow(lag, n_pairs, None, reason))
        else:
            m = LagMoments(lag, n_pairs, *values)
            rows.append(MomentRow(lag, n_pairs, m, None))
    return rows


def parse_lag_selector(selector: str) -> tuple[int, ...]:
    """Parse the CLI lag selector: 'short', 'long', 'file:<path>' or 'a,b,c'."""
    if selector == "short":
        return DEFAULT_SHORT_LAGS
    if selector == "long":
        return DEFAULT_LONG_LAGS
    if selector.startswith("file:"):
        path = Path(selector[5:])
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ArtifactIOError(f"cannot read lag file {path}: {exc}") from exc
        values = [int(tok) for tok in text.split()]
        return validate_lags(values)
    try:
        values = [int(tok) for tok in selector.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidGrid(f"cannot parse lag selector '{selector}'") from exc
    return validate_lags(values)
