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
from .errors import InsufficientSupport, InvalidGrid, ZeroVariance
from .series import MidSeries, Session, write_csv

DEFAULT_SHORT_LAGS = (1,) + tuple(range(50, 5001, 50))
DEFAULT_LONG_LAGS = tuple(range(1000, 500001, 1000))


def validate_lags(lags) -> tuple[int, ...]:
    lags = tuple(lags)
    if not lags:
        raise InvalidGrid("lag family is empty")
    if wrong := [x for x in lags if type(x) is not int or x < 1]:
        raise InvalidGrid(f"lags must be integers >= 1, got {wrong[0]!r}")
    if any(b <= a for a, b in zip(lags, lags[1:])):
        raise InvalidGrid("lags must be strictly increasing")
    return lags


def session_anchors(session: Session, lag: int) -> int:
    """The admissible anchors of one session at `lag`."""
    return max(0, len(session) - 2 * lag)


def anchor_count(sessions: list[Session], lag: int) -> int:
    return sum(session_anchors(s, lag) for s in sessions)


@dataclass(frozen=True)
class LagMoments:
    lag: int
    n_pairs: int
    mu_p: float
    sigma_p: float
    mu_r: float
    sigma_r: float


def _moment_sums(source, lags: tuple[int, ...]) -> list[tuple[MomentAccumulator, MomentAccumulator]]:
    """Push and response accumulators of each lag, from one read of the
    sessions of `source` (a MidSeries or a PrmsReader).

    A session's differences d = mids[t+L] - mids[t] fill one reused buffer:
    its a pushes are d[:a], its responses d[L:] (then their deviations).
    Each lag folds its session partials in session order, so neither the
    other lags nor chunking can change it."""
    accs = [(MomentAccumulator(), MomentAccumulator()) for _ in lags]
    longest = max((len(s) for s in source.sessions), default=0)
    diffs, scratch = np.empty((2, max(0, longest - min(lags, default=0))))
    for s, mids in source.blocks():
        for lag, (acc_p, acc_r) in zip(lags, accs):
            if not (a := session_anchors(s, lag)):
                continue
            d = np.subtract(mids[lag:], mids[: len(s) - lag], out=diffs[: a + lag])
            acc_p.add_batch(d[:a], scratch)
            acc_r.add_batch(d[lag:], d[lag:])
    return accs


def _lag_moments(lag: int, acc_p: MomentAccumulator, acc_r: MomentAccumulator) -> LagMoments:
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


def compute_moments(series: MidSeries, lag: int) -> LagMoments:
    """Mean and population std of pushes and responses at one lag."""
    return _lag_moments(lag, *_moment_sums(series, (lag,))[0])


@dataclass(frozen=True)
class MomentRow:
    """One lag's moments, or the reason the lag was excluded."""

    lag: int
    n_pairs: int
    moments: LagMoments | None
    excluded: str | None  # None, "insufficient_support" or "zero_variance"


def compute_moments_table(source, lags) -> list[MomentRow]:
    """Every lag's moments from one read of the sessions of `source`, a
    MidSeries or a PrmsReader; each lag equals its `compute_moments`."""
    lags = validate_lags(lags)
    rows = []
    for lag, accs in zip(lags, _moment_sums(source, lags)):
        try:
            m = _lag_moments(lag, *accs)
            rows.append(MomentRow(lag=lag, n_pairs=m.n_pairs, moments=m, excluded=None))
        except InsufficientSupport as exc:
            rows.append(
                MomentRow(lag=lag, n_pairs=exc.n_pairs, moments=None,
                          excluded="insufficient_support")
            )
        except ZeroVariance:
            rows.append(
                MomentRow(lag=lag, n_pairs=anchor_count(source.sessions, lag),
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


def parse_lag_selector(selector: str) -> tuple[int, ...]:
    """Parse the CLI lag selector: 'short', 'long', 'file:<path>' or 'a,b,c'."""
    if selector == "short":
        return DEFAULT_SHORT_LAGS
    if selector == "long":
        return DEFAULT_LONG_LAGS
    if selector.startswith("file:"):
        tokens = Path(selector[5:]).read_text(encoding="utf-8").split()
        where = f"lag file {selector[5:]}"
    else:
        tokens = [tok for tok in selector.split(",") if tok.strip()]
        where = f"lag selector '{selector}'"
    values = []
    for tok in tokens:
        try:
            values.append(int(tok))
        except ValueError:
            raise InvalidGrid(f"cannot parse {where}: {tok!r} is not an integer") from None
    return validate_lags(values)
