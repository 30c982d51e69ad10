"""Seeded per-venue quote CSVs that share one latent price path.

Every venue quotes around the same latent mid, so the consolidated book
is crossed only when a stale quote on one venue meets a fresh one on
another after the latent price moved by more than both half-spreads.
Venues with independent walks would drift apart and leave the book
crossed almost all day, which starves every later stage of events.

The generator keeps exact tallies of what the ingest quality report must
count: records written, records whose condition is not the regular
flag `R`, and `R` records stamped outside 09:30-16:00 local time.
"""

from __future__ import annotations

import datetime
from dataclasses import dataclass
from pathlib import Path
from zoneinfo import ZoneInfo

import numpy as np

VENUES = ("NYSE", "NASDAQ", "ARCA", "BZX")
# Tuesday to Thursday, after the 2024 switch to daylight time.
DATES = (datetime.date(2024, 3, 12), datetime.date(2024, 3, 13), datetime.date(2024, 3, 14))
TZ = "America/New_York"
HEADER = "timestamp_ns,venue,bid_price,bid_size,ask_price,ask_size,condition"

NS = 1_000_000_000
RTH_NS = int(6.5 * 3600) * NS
EDGE_NS = 10 * 60 * NS          # quotes also arrive 10 minutes either side of RTH
NON_REGULAR_SHARE = 0.02        # records flagged with a non-`R` condition
LATENT_CENTS_PER_SQRT_S = 0.3   # latent mid volatility
IRREGULAR_CONDITIONS = np.array(["O", "C", "F"])


@dataclass(frozen=True)
class FeedTally:
    """What the quality report of a strict ingest of the feed must show."""

    n_records: int
    n_dropped_condition: int
    n_dropped_outside_rth: int
    session_days: tuple[int, ...]  # days since the Unix epoch


def _rth_open_ns(day: datetime.date) -> int:
    open_dt = datetime.datetime.combine(day, datetime.time(9, 30), tzinfo=ZoneInfo(TZ))
    return int(open_dt.timestamp()) * NS


def write_feed(out_dir: Path, seed: int, n_quotes: int) -> FeedTally:
    """Write one `<venue>.csv` per venue into `out_dir`; return the tallies."""
    rng = np.random.default_rng(seed)
    per_venue = n_quotes // (len(VENUES) * len(DATES))
    lines: dict[str, list[str]] = {v: [] for v in VENUES}
    n_condition = 0
    n_outside = 0
    for day in DATES:
        t_open = _rth_open_ns(day)
        offsets = [
            np.sort(rng.integers(-EDGE_NS, RTH_NS + EDGE_NS, size=per_venue))
            for _ in VENUES
        ]
        # The latent mid, sampled at every quote time of the session (in cents).
        merged = np.concatenate(offsets)
        order = np.argsort(merged, kind="stable")
        dt_s = np.diff(merged[order], prepend=merged[order][0]) / NS
        steps = rng.standard_normal(merged.size) * LATENT_CENTS_PER_SQRT_S * np.sqrt(dt_s)
        latent = np.empty(merged.size)
        latent[order] = 10_000.0 + np.cumsum(steps)
        start = 0
        for venue, off in zip(VENUES, offsets):
            n = off.size
            mid = latent[start : start + n]
            start += n
            half_bid = rng.integers(1, 4, size=n)
            half_ask = rng.integers(1, 4, size=n)
            bid = np.floor(mid).astype(np.int64) - half_bid + 1
            ask = np.ceil(mid).astype(np.int64) + half_ask - 1
            ask = np.maximum(ask, bid + 1)
            bid_size = rng.integers(1, 50, size=n) * 100
            ask_size = rng.integers(1, 50, size=n) * 100
            regular = rng.random(n) >= NON_REGULAR_SHARE
            cond = np.where(regular, "R", IRREGULAR_CONDITIONS[rng.integers(0, len(IRREGULAR_CONDITIONS), size=n)])
            inside = (off >= 0) & (off < RTH_NS)
            n_condition += int((~regular).sum())
            n_outside += int((regular & ~inside).sum())
            ts = t_open + off
            lines[venue].extend(
                f"{t},{venue},{b // 100}.{b % 100:02d},{bs},{a // 100}.{a % 100:02d},{asz},{c}"
                for t, b, bs, a, asz, c in zip(
                    ts.tolist(), bid.tolist(), bid_size.tolist(),
                    ask.tolist(), ask_size.tolist(), cond.tolist(),
                )
            )
    out_dir.mkdir(parents=True, exist_ok=True)
    for venue, rows in lines.items():
        (out_dir / f"{venue.lower()}.csv").write_text(
            HEADER + "\n" + "\n".join(rows) + "\n", encoding="utf-8"
        )
    epoch = datetime.date(1970, 1, 1)
    return FeedTally(
        n_records=per_venue * len(VENUES) * len(DATES),
        n_dropped_condition=n_condition,
        n_dropped_outside_rth=n_outside,
        session_days=tuple((d - epoch).days for d in DATES),
    )
