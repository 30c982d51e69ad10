"""Event-time mid-price series and its on-disk format.

A MidSeries is the substrate for all lag math: one float64 array of
mid prices indexed by global event index, plus an ordered list of
sessions giving the inclusive [start, end] index range of each
trading day. Every event index belongs to exactly one session and
no pair construction ever crosses a session boundary.

On disk the series is a compact binary file ("PRMS"): magic, u16
version, then one block per session of (date as days-since-epoch
u32, count u64, mids as f64 array), all little-endian, with a JSON
sidecar manifest next to it. `PrmsWriter` writes it and `PrmsReader`
reads it one session at a time, so a stage that goes session by session
holds one session, not the series; `write_prms` and `read_prms` write
and read a whole MidSeries through them. Per-session code takes either
kind of source: both have `sessions`, `len()` and `blocks()`.

Every table artifact (moments, surface, heatmap, summary) is a CSV
written here by `write_csv` and read by `read_table` into typed numpy
columns, and every artifact carries a JSON sidecar manifest
(`write_manifest`/`read_manifest`) holding the SHA-256 of its bytes. A
table has one reader: numpy's C text reader, which parses it from the
open file.

The readers here hash nothing and pass an OSError on as it is:
`pipeline.run_stage` checks each input against its manifest's
`data_sha256` before a stage reads it, and turns an OSError into exit 3.
A reader rejects only what it detects itself, such as a truncated PRMS,
a wrong header or a non-finite mid.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import os
import struct
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .errors import ArtifactIOError

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
                raise ValueError(f"session starting at {s.start} leaves a gap (expected {expect})")
            expect = s.end + 1
        if expect != len(self.mids):
            raise ValueError(f"sessions cover {expect} events but array holds {len(self.mids)}")

    def __len__(self) -> int:
        return len(self.mids)

    def session_slice(self, session: Session) -> np.ndarray:
        return self.mids[session.start : session.end + 1]

    def blocks(self) -> Iterator[tuple[Session, np.ndarray]]:
        """Each session with its mids (a view), as `PrmsReader.blocks` gives
        them, so the per-session code reads memory and files alike."""
        for s in self.sessions:
            yield s, self.session_slice(s)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MidSeries):
            return NotImplemented
        return self.sessions == other.sessions and np.array_equal(
            self.mids, other.mids
        )


def write_prms(series: MidSeries, path: str | Path) -> None:
    with PrmsWriter(path) as out:
        for s, mids in series.blocks():
            out.write(s.date, mids)


class PrmsWriter:
    """A PRMS file written one session at a time:

        with PrmsWriter(path) as out:
            out.write(date, mids)

    `sessions` lists the sessions written so far, with global indices, and
    `len()` counts their events. A session of no events is not written."""

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self.sessions: list[Session] = []
        self._n = 0
        self._f = open(self.path, "wb")
        self._f.write(_HEADER.pack(PRMS_MAGIC, PRMS_VERSION))

    def write(self, date: int, mids: np.ndarray) -> None:
        if not len(mids):
            return
        self._f.write(_SESSION_HEADER.pack(date, len(mids)))
        self._f.write(np.ascontiguousarray(mids, dtype="<f8").data)  # no copy
        self.sessions.append(Session(date=date, start=self._n, end=self._n + len(mids) - 1))
        self._n += len(mids)

    def __len__(self) -> int:
        return self._n

    def __enter__(self) -> PrmsWriter:
        return self

    def __exit__(self, *exc) -> None:
        self._f.close()


class PrmsReader:
    """A PRMS file read one session at a time. Opening it indexes every
    session header, so a cut or edited file is rejected before a caller
    writes anything; `sessions` then holds the global event indices and
    `len()` the event count. `blocks()` reads the sessions in order.

    Each session read is checked for a NaN or infinite mid, which is
    rejected naming the session and its global event index, because every
    lag statistic downstream would turn it into plausible-looking numbers."""

    def __init__(self, path: str | Path):
        self.path = path = Path(path)
        self.sessions: list[Session] = []
        self._offsets: list[int] = []  # where each session's mids start in the file
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
            pos, n = _HEADER.size, 0
            while pos < size:
                rec = f.read(_SESSION_HEADER.size)
                if len(rec) < _SESSION_HEADER.size:
                    raise ArtifactIOError(f"{path}: truncated session header at {pos}")
                date, count = _SESSION_HEADER.unpack(rec)
                pos += _SESSION_HEADER.size
                if pos + 8 * count > size:
                    raise ArtifactIOError(f"{path}: truncated session block at {pos}")
                if count:  # an empty block is legal on disk and skipped
                    self.sessions.append(Session(date=date, start=n, end=n + count - 1))
                    self._offsets.append(pos)
                    n += count
                pos = f.seek(pos + 8 * count)

    def __len__(self) -> int:
        return self.sessions[-1].end + 1 if self.sessions else 0

    def _read(self, f, i: int, out: np.ndarray) -> np.ndarray:
        """Session i's mids, read from the open file `f` into `out`."""
        offset, start = self._offsets[i], self.sessions[i].start
        f.seek(offset)
        if f.readinto(out) < out.nbytes:
            raise ArtifactIOError(f"{self.path}: truncated session block at {offset}")
        bad = np.flatnonzero(~np.isfinite(out))
        if bad.size:
            raise ArtifactIOError(
                f"{self.path}: session {i} holds a non-finite mid "
                f"{out[bad[0]]!r} at event index {start + bad[0]}"
            )
        return out

    def blocks(self) -> Iterator[tuple[Session, np.ndarray]]:
        """Each session with its mids, read into one buffer the size of the
        longest session: a block is valid until the next one is read."""
        buf = np.empty(max((len(s) for s in self.sessions), default=0), dtype="<f8")
        with open(self.path, "rb") as f:
            for i, s in enumerate(self.sessions):
                yield s, self._read(f, i, buf[: len(s)])

    def series(self) -> MidSeries:
        """The whole file, each session read straight into its place in one
        array of the total event count."""
        mids = np.empty(len(self), dtype="<f8")
        with open(self.path, "rb") as f:
            for i, s in enumerate(self.sessions):
                self._read(f, i, mids[s.start : s.end + 1])
        return MidSeries(sessions=list(self.sessions), mids=mids)


def read_prms(path: str | Path) -> MidSeries:
    """Read a whole PRMS file into memory."""
    return PrmsReader(path).series()


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
    """Write a text artifact (a report, a manifest) as UTF-8."""
    Path(path).write_text(text, encoding="utf-8")


def write_manifest(artifact: str | Path, payload: dict) -> dict:
    """Write the sidecar manifest for an artifact, embedding its data hash."""
    payload = dict(payload)
    payload["data_sha256"] = sha256_file(artifact)
    write_text(manifest_path(artifact), canonical_json(payload) + "\n")
    return payload


def read_manifest(artifact: str | Path) -> dict:
    """The artifact's manifest; ArtifactIOError when it is not a JSON object."""
    p = manifest_path(artifact)
    try:
        manifest = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:  # not UTF-8, or not JSON
        raise ArtifactIOError(f"{p}: invalid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise ArtifactIOError(f"{p}: not a JSON object")
    return manifest


def manifest_fields(artifact: str | Path, manifest: dict, *names: str) -> list:
    """The named fields of the manifest of `artifact`; ArtifactIOError
    naming the first one it lacks."""
    if missing := [name for name in names if name not in manifest]:
        raise ArtifactIOError(f"{artifact}: its manifest has no '{missing[0]}' field")
    return [manifest[name] for name in names]


# Characters that make `csv.writer` quote a cell.
_NEEDS_QUOTES = frozenset(',"\r\n')
# Rows whose text `write_csv` holds at once.
_CSV_ROWS = 256


def _texts(column) -> list[str]:
    """The text of each cell of a column, as `csv.writer` spells it: `repr`
    for a float (of the float itself, also for a float subclass), `str` for
    anything else, and `true`/`false` for a column of booleans."""
    cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
    if cells and isinstance(cells[0], bool):
        return ["true" if c else "false" for c in cells]
    if isinstance(column, np.ndarray) and column.dtype.kind in "iuf":
        return list(map(float.__repr__ if column.dtype.kind == "f" else str, cells))
    texts = [float.__repr__(c) if isinstance(c, float) else str(c) for c in cells]
    for text in texts:
        if _NEEDS_QUOTES.intersection(text):
            raise ValueError(f"table cell {text!r} would need quoting")
    return texts


def write_csv(path: str | Path, header: list[str], columns) -> None:
    """Write a table artifact: the header row, then row i of every column,
    each line ending in LF. Columns are arrays or sequences of equal length;
    floats are written by `repr`, so they read back exactly, and a column
    of booleans as `true`/`false`. The text of each column is built a run
    of `_CSV_ROWS` rows at a time and the rows are joined with commas; the
    bytes are those `csv.writer` writes for such cells (numbers, booleans,
    blanks and plain text), and a text cell that `csv.writer` would quote
    is a ValueError."""
    columns = list(columns)
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError(f"columns of {sorted({len(c) for c in columns})} rows")
    with open(path, "w", newline="", encoding="utf-8") as f:
        f.write(",".join(_texts(header)) + "\n")
        for lo in range(0, n_rows, _CSV_ROWS):
            texts = [_texts(c[lo : lo + _CSV_ROWS]) for c in columns]
            f.write("\n".join(map(",".join, zip(*texts))) + "\n")


def read_c_table(lines, dtype) -> np.ndarray:
    """`lines` (a file or a list of str) as a structured array of `dtype`;
    a field numpy's C text reader rejects or warns about raises."""
    with warnings.catch_warnings():
        # numpy 1.23-1.26 read `1.5` in an int column through float, with a warning.
        warnings.simplefilter("error")
        return np.loadtxt(lines, delimiter=",", comments=None, quotechar=None,
                          ndmin=1, dtype=dtype, encoding="ascii")


def read_table(
    path: str | Path, header: list[str], dtypes: dict[str, type],
) -> dict[str, np.ndarray]:
    """The columns named in `dtypes` of a table artifact whose header row is
    `header`, each as a numpy array of its dtype (`np.int64`, `np.float64`
    or `bool`). A column not in `dtypes` is held to the field count but not
    read. `read_c_table` parses the table from the open file, so its bytes
    are never held whole; a table whose header row differs from `header`,
    or whose field the C reader rejects, is an ArtifactIOError (exit 3)."""
    head = (",".join(header) + "\n").encode()
    # a bool field is read as text, whose first five bytes tell `true` from `false`
    dtype = [(name, "S5" if dtypes.get(name) is bool else dtypes.get(name, "S1"))
             for name in header]
    table = np.empty(0, dtype)
    with open(path, "rb") as f:
        if f.read(len(head)) != head:
            raise ArtifactIOError(f"{path}: header is not {','.join(header)}")
        if f.peek(1):
            try:
                table = read_c_table(f, dtype)
            except (ValueError, Warning) as exc:
                raise ArtifactIOError(f"{path}: not a table the C reader reads: {exc}") from None
    return {name: table[name] == b"true" if kind is bool else table[name]
            for name, kind in dtypes.items()}


def series_summary(series: MidSeries | PrmsReader | PrmsWriter) -> dict:
    return {
        "format": "prms",
        "version": PRMS_VERSION,
        "n_sessions": len(series.sessions),
        "n_events": len(series),
        "sessions": [
            {"date": s.date, "count": len(s)} for s in series.sessions
        ],
    }
