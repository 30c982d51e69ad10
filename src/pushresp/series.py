"""Event-time mid-price series and its on-disk format.

A MidSeries is the substrate for all lag math: one float64 array of
mid prices indexed by global event index, plus an ordered list of
sessions giving the inclusive [start, end] index range of each
trading day. Every event index belongs to exactly one session and
no pair construction ever crosses a session boundary.

On disk the series is a compact binary file ("PRMS"): magic, u16
version, then one block per session of (date as days-since-epoch
u32, count u64, mids as f64 array), all little-endian, with a JSON
sidecar manifest next to it.

Every table artifact (moments, surface, heatmap, summary) is a CSV
written and read here by `write_csv`/`read_csv`, and every artifact
carries a JSON sidecar manifest (`write_manifest`/`read_manifest`).
"""

from __future__ import annotations

import csv
import datetime
import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .errors import ArtifactIOError, MissingArtifact

PRMS_MAGIC = b"PRMS"
PRMS_VERSION = 1

_HEADER = struct.Struct("<4sH")
_SESSION_HEADER = struct.Struct("<IQ")


@dataclass(frozen=True)
class Session:
    """One regular-hours trading day: date and inclusive event-index bounds."""

    date: int  # days since Unix epoch
    start: int
    end: int  # inclusive

    def __post_init__(self):
        if self.start > self.end:
            raise ValueError(f"session start {self.start} > end {self.end}")

    def __len__(self) -> int:
        return self.end - self.start + 1

    @property
    def calendar_date(self) -> datetime.date:
        return datetime.date(1970, 1, 1) + datetime.timedelta(days=self.date)


@dataclass
class MidSeries:
    """Per-session mid prices in event time, with global indices."""

    sessions: list[Session]
    mids: np.ndarray

    def __post_init__(self):
        self.mids = np.ascontiguousarray(self.mids, dtype=np.float64)
        expect = 0
        for s in self.sessions:
            if s.start != expect:
                raise ValueError(
                    f"session starting at {s.start} leaves a gap (expected {expect})"
                )
            expect = s.end + 1
        if expect != len(self.mids):
            raise ValueError(
                f"sessions cover {expect} events but array holds {len(self.mids)}"
            )

    def __len__(self) -> int:
        return len(self.mids)

    def session_slice(self, session: Session) -> np.ndarray:
        return self.mids[session.start : session.end + 1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MidSeries):
            return NotImplemented
        return self.sessions == other.sessions and np.array_equal(
            self.mids, other.mids
        )


def from_session_arrays(dates: list[int], arrays: list[np.ndarray]) -> MidSeries:
    """Assemble a MidSeries from per-session arrays, assigning global indices."""
    sessions = []
    start = 0
    for date, arr in zip(dates, arrays):
        n = len(arr)
        if n == 0:
            continue
        sessions.append(Session(date=date, start=start, end=start + n - 1))
        start += n
    if sessions:
        mids = np.concatenate([a for a in arrays if len(a)])
    else:
        mids = np.empty(0, dtype=np.float64)
    return MidSeries(sessions=sessions, mids=mids)


def write_prms(series: MidSeries, path: str | Path) -> None:
    path = Path(path)
    try:
        with open(path, "wb") as f:
            f.write(_HEADER.pack(PRMS_MAGIC, PRMS_VERSION))
            for s in series.sessions:
                block = series.session_slice(s)
                f.write(_SESSION_HEADER.pack(s.date, len(block)))
                f.write(np.ascontiguousarray(block, dtype="<f8").data)  # no copy
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc


def read_prms(path: str | Path) -> MidSeries:
    """Read a PRMS file; a NaN or infinite mid is rejected, naming the
    session and its global event index, because every lag statistic
    downstream would turn it into plausible-looking numbers.

    The session headers are indexed first; the mids are then read
    straight into one array of the total event count."""
    path = Path(path)
    try:
        with open(path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            head = f.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise ArtifactIOError(f"{path}: truncated header")
            magic, version = _HEADER.unpack(head)
            if magic != PRMS_MAGIC:
                raise ArtifactIOError(f"{path}: bad magic {magic!r}")
            if version != PRMS_VERSION:
                raise ArtifactIOError(f"{path}: unsupported version {version}")
            pos, blocks = _HEADER.size, []  # (date, count, offset) of nonempty sessions
            while pos < size:
                rec = f.read(_SESSION_HEADER.size)
                if len(rec) < _SESSION_HEADER.size:
                    raise ArtifactIOError(f"{path}: truncated session header at {pos}")
                date, count = _SESSION_HEADER.unpack(rec)
                pos += _SESSION_HEADER.size
                if pos + 8 * count > size:
                    raise ArtifactIOError(f"{path}: truncated session block at {pos}")
                if count:
                    blocks.append((date, count, pos))
                pos = f.seek(pos + 8 * count)
            mids = np.empty(sum(count for _, count, _ in blocks), dtype="<f8")
            sessions: list[Session] = []
            for date, count, offset in blocks:
                start = sessions[-1].end + 1 if sessions else 0
                block = mids[start : start + count]
                f.seek(offset)
                if f.readinto(block) < 8 * count:
                    raise ArtifactIOError(f"{path}: truncated session block at {offset}")
                bad = np.flatnonzero(~np.isfinite(block))
                if bad.size:
                    raise ArtifactIOError(
                        f"{path}: session {len(sessions)} holds a non-finite mid "
                        f"{block[bad[0]]!r} at event index {start + bad[0]}"
                    )
                sessions.append(Session(date=date, start=start, end=start + count - 1))
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {path}: {exc}") from exc
    return MidSeries(sessions=sessions, mids=mids)


def sha256_file(path: str | Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def canonical_json(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def manifest_path(artifact: str | Path) -> Path:
    return Path(str(artifact) + ".manifest.json")


def write_text(path: str | Path, text: str) -> None:
    """Write a text artifact (an SVG, a report, a manifest) as UTF-8."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc


def write_manifest(artifact: str | Path, payload: dict) -> dict:
    """Write the sidecar manifest for an artifact, embedding its data hash."""
    payload = dict(payload)
    payload["data_sha256"] = sha256_file(artifact)
    write_text(manifest_path(artifact), canonical_json(payload) + "\n")
    return payload


def read_manifest(artifact: str | Path) -> dict:
    p = manifest_path(artifact)
    try:
        return json.loads(p.read_text(encoding="utf-8"))
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {p}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ArtifactIOError(f"{p}: invalid JSON: {exc}") from exc


def _cells(column) -> list:
    cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if cells and isinstance(cells[0], bool):
        return ["true" if c else "false" for c in cells]
    return cells


def write_csv(path: str | Path, header: list[str], columns) -> None:
    """Write a table artifact: the header row, then row i of every column,
    each line ending in LF. Columns are arrays or sequences of equal length;
    floats are written by `repr`, so they read back exactly, and a column
    of booleans as `true`/`false`."""
    rows = zip(*map(_cells, columns), strict=True)
    try:
        with open(path, "w", newline="", encoding="utf-8") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(header)
            w.writerows(rows)
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc


def read_csv(path: str | Path, header: list[str]) -> dict[str, tuple[str, ...]]:
    """The columns of a table artifact as text, keyed by `header`, which the
    file's header row must equal; every row must hold one field per column.
    `parse_column` converts a column."""
    try:
        with open(path, newline="", encoding="utf-8") as f:
            rows = list(csv.reader(f))
    except FileNotFoundError as exc:
        raise MissingArtifact(f"{path} does not exist") from exc
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {path}: {exc}") from exc
    if not rows or rows[0] != header:
        raise ArtifactIOError(f"{path}: header is not {','.join(header)}")
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise ArtifactIOError(f"{path}: line {line} has {len(row)} fields, not {len(header)}")
    columns = list(zip(*rows[1:])) or [()] * len(header)
    return dict(zip(header, columns))


def parse_column(
    path: str | Path, columns: dict[str, tuple[str, ...]], name: str,
    convert: Callable[[str], object],
) -> list:
    """Column `name` of the table `read_csv` read from `path`, each field
    converted by `convert`. A field it rejects is an ArtifactIOError naming
    the file and line, so an edited cell exits 3 like any unreadable artifact.
    A reader that fills arrays converts one column at a time, so no more than
    one column of Python numbers is alive beside the text."""
    column = columns[name]
    try:
        return list(map(convert, column))
    except ValueError:
        pass
    for line, text in enumerate(column, start=2):  # find the field that failed
        try:
            convert(text)
        except ValueError:
            break
    raise ArtifactIOError(f"{path}: line {line}: {name} {text!r} is not a number")


def series_summary(series: MidSeries) -> dict:
    return {
        "format": "prms",
        "version": PRMS_VERSION,
        "n_sessions": len(series.sessions),
        "n_events": int(len(series.mids)),
        "sessions": [
            {"date": s.date, "count": len(s)} for s in series.sessions
        ],
    }
