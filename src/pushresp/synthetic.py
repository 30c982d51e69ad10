"""Controlled event-time series generators and their brute-force oracle.

Null walks have i.i.d. symmetric increments (Gaussian by default, or a
tick-sized coin flip), so every conditional response is zero by
exchangeability. Injected series add structure at one target lag:

    x_t = eps_t + phi * eps_{t-L0} - phi/(2+phi) * eps_{t-2*L0}  [+ asym term]

The second tap cancels the echo that a single moving-average tap leaks
into every horizon past the target: with it, cov(push, response) is
exactly zero for all lags >= 2*L0 (and for lags <= L0/2), while at L0
the response is co-signed with the push for phi > 0 and anti-signed for
phi < 0. The asymmetric kind adds asym_gain * max(-eps_{t-L0}, 0),
which produces a positive magnitude-driven (even) response component
that grows with push size.

Generation is per-session with seeds derived from the spec seed, so a
series is reproducible byte-for-byte regardless of scheduling. `generate`
draws every session into one array; `write_series` draws one session at
a time into a PRMS file, with the same bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .accum import cumsum_in_place
from .errors import ConfigSection, InsufficientSupport, InvalidSpec
from .lags import LagMoments
from .series import MidSeries, PrmsWriter, Session
from .surface import BinGrid

KINDS = ("null_walk", "momentum", "reversal", "asymmetric")

BASE_DATE = 18262  # 2020-01-01, days since epoch
BASE_PRICE = 100.0


@dataclass(frozen=True)
class SyntheticSpec(ConfigSection):
    kind: str
    n_events: int
    n_sessions: int = 1
    tick: float = 0.01
    inject_lag: int = 50
    phi: float = 0.0
    asym_gain: float = 0.0
    seed: int = 0
    increments: str = "gauss"  # or "coin"

    error = InvalidSpec

    def problems(self) -> list[str]:
        problems = []
        if self.kind not in KINDS:
            problems.append(f"unknown kind '{self.kind}'")
        if self.n_events < 2:
            problems.append(f"n_events must be >= 2, got {self.n_events}")
        if self.n_sessions < 1:
            problems.append(f"n_sessions must be >= 1, got {self.n_sessions}")
        if self.tick <= 0:
            problems.append(f"tick must be > 0, got {self.tick}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if self.increments not in ("gauss", "coin"):
            problems.append(f"unknown increment kind '{self.increments}'")
        if self.n_sessions >= 1 and self.n_events < 2 * self.n_sessions:
            problems.append(
                f"{self.n_sessions} sessions need at least {2 * self.n_sessions} events"
            )
        if self.kind != "null_walk":
            if self.inject_lag < 1:
                problems.append(f"inject_lag must be >= 1, got {self.inject_lag}")
            if not (-1.0 < self.phi < 1.0):
                problems.append(f"phi must lie in (-1, 1), got {self.phi}")
            if self.asym_gain < 0:
                problems.append(f"asym_gain must be >= 0, got {self.asym_gain}")
            need = 2 * (self.inject_lag + 1) * self.n_sessions
            if self.n_events < need:
                problems.append(
                    f"n_events {self.n_events} too small for inject_lag "
                    f"{self.inject_lag} and {self.n_sessions} sessions (need {need})"
                )
        return problems


def echo_cancel_coefficient(phi: float) -> float:
    """Second-tap weight that zeroes cov(push, response) for lags >= 2*L0."""
    return -phi / (2.0 + phi)


def _session_sizes(spec: SyntheticSpec) -> list[int]:
    base = spec.n_events // spec.n_sessions
    rem = spec.n_events - base * spec.n_sessions
    sizes = [base] * spec.n_sessions
    sizes[-1] += rem
    return sizes


def _sessions(spec: SyntheticSpec) -> Iterator[tuple[int, int, np.random.Generator]]:
    """(date, size, generator) of each session in order; each session draws
    from its own child of the spec seed."""
    children = np.random.SeedSequence(entropy=spec.seed).spawn(spec.n_sessions)
    for i, (size, child) in enumerate(zip(_session_sizes(spec), children)):
        yield BASE_DATE + i, size, np.random.default_rng(child)


def _fill_session(rng: np.random.Generator, spec: SyntheticSpec, out: np.ndarray) -> None:
    """Write one session's prices to `out`: BASE_PRICE, then a walk of
    len(out) - 1 increments drawn from `rng`, summed in place."""
    x = out[1:]
    if spec.increments == "coin":
        np.multiply(rng.integers(0, 2, size=x.size), 2.0, out=x)
        x -= 1.0
    else:
        rng.standard_normal(out=x)
    x *= spec.tick
    if spec.kind != "null_walk":
        lag = spec.inject_lag
        eps = x.copy()
        if spec.phi != 0.0:
            psi = echo_cancel_coefficient(spec.phi)
            if len(x) > lag:
                x[lag:] += spec.phi * eps[:-lag]
            if len(x) > 2 * lag:
                x[2 * lag:] += psi * eps[: -2 * lag]
        if spec.kind == "asymmetric" and spec.asym_gain != 0.0 and len(x) > lag:
            x[lag:] += spec.asym_gain * np.maximum(-eps[:-lag], 0.0)
    out[0] = 0.0
    cumsum_in_place(x)
    out += BASE_PRICE


def generate(spec: SyntheticSpec) -> MidSeries:
    """Deterministic series for the spec, each session drawn straight into
    one array of n_events."""
    mids = np.empty(spec.n_events)
    sessions = []
    start = 0
    for date, size, rng in _sessions(spec):
        _fill_session(rng, spec, mids[start : start + size])
        sessions.append(Session(date=date, start=start, end=start + size - 1))
        start += size
    return MidSeries(sessions=sessions, mids=mids)


def write_series(spec: SyntheticSpec, path: str | Path) -> PrmsWriter:
    """Write the series of `generate(spec)` to a PRMS file, each session drawn
    into one buffer the size of the longest and written before the next, so
    no more than a session is held. Returns the closed writer."""
    buf = np.empty(max(_session_sizes(spec)))
    with PrmsWriter(path) as out:
        for date, size, rng in _sessions(spec):
            _fill_session(rng, spec, buf[:size])
            out.write(date, buf[:size])
    return out


@dataclass
class OracleBins:
    """Brute-force per-bin conditional means at one lag."""

    lag: int
    moments: LagMoments
    count: np.ndarray
    mean_zp: np.ndarray
    mean_zr: np.ndarray
    mean_r_raw: np.ndarray
    out_of_grid: int


def expected_response_oracle(
    series: MidSeries, lag: int, grid: BinGrid
) -> OracleBins:
    """Reference estimate of E[z_r | z_p bin]: materialize every pair,
    group by bin, average. Deliberately simple and memory-hungry; the
    streaming surface must match it."""
    pushes = []
    responses = []
    for s in series.sessions:
        anchors = np.arange(s.start + lag, s.end - lag + 1)
        if len(anchors) == 0:
            continue
        pushes.append(series.mids[anchors] - series.mids[anchors - lag])
        responses.append(series.mids[anchors + lag] - series.mids[anchors])
    if not pushes:
        raise InsufficientSupport(lag, 0)
    p = np.concatenate(pushes)
    r = np.concatenate(responses)
    mu_p, sigma_p = float(p.mean()), float(p.std())
    mu_r, sigma_r = float(r.mean()), float(r.std())
    z_p = (p - mu_p) / sigma_p
    z_r = (r - mu_r) / sigma_r
    j = 1 + np.floor((z_p - grid.z_min) / grid.step).astype(np.int64)
    ok = (z_p >= grid.z_min) & (z_p < grid.z_max) & (j >= 1) & (j <= grid.n_bins)
    n_bins = grid.n_bins
    count = np.zeros(n_bins, dtype=np.int64)
    mean_zp = np.full(n_bins, np.nan)
    mean_zr = np.full(n_bins, np.nan)
    mean_r = np.full(n_bins, np.nan)
    order = np.argsort(j[ok], kind="stable")
    js = j[ok][order]
    zps = z_p[ok][order]
    zrs = z_r[ok][order]
    rs = r[ok][order]
    boundaries = np.searchsorted(js, np.arange(1, n_bins + 2))
    for b in range(n_bins):
        lo, hi = boundaries[b], boundaries[b + 1]
        if hi > lo:
            count[b] = hi - lo
            mean_zp[b] = zps[lo:hi].mean()
            mean_zr[b] = zrs[lo:hi].mean()
            mean_r[b] = rs[lo:hi].mean()
    return OracleBins(
        lag=lag,
        moments=LagMoments(
            lag=lag, n_pairs=len(p), mu_p=mu_p, sigma_p=sigma_p,
            mu_r=mu_r, sigma_r=sigma_r,
        ),
        count=count,
        mean_zp=mean_zp,
        mean_zr=mean_zr,
        mean_r_raw=mean_r,
        out_of_grid=int(len(p) - ok.sum()),
    )
