"""Binned conditional response surface.

Standardized pushes are mapped onto a fixed half-open grid of 320
equal-width bins spanning [-4, 4) in units of push standard deviation.
For every (lag, bin) cell the surface stores the pair count and the
conditional means of the standardized push, the standardized response
and the raw response. Cells below the minimum support count are kept
but flagged invalid and carry no means downstream: holes are never
filled. Pushes outside the grid are tallied per lag, never binned.

Anchors are also cut into blocks of consecutive anchors that never
cross a session: a session with a anchors at lag L holds
max(1, a // B) blocks of near-equal size, B = max(10 L, ceil(N / 50))
where N counts the lag's anchors over all sessions. A lag thus gets
about 50 blocks (at most 50 plus one per session) whenever its sessions
are long, whatever the data size, and each block spans at least 10 L
anchors, well past the 2 L over which a push and its response overlap
their neighbours'. Each block keeps its own count and
standardized-response-sum tables, so the decomposition can resample
whole blocks and keep the dependence between overlapping anchors.
Anchors are binned in passes of at most 50,000; the surface totals are
compensated sums over the passes. The tables are stored beside the
surface CSV as a binary artifact ("PRBK") that is read back one lag at
a time.

Memory: the surface is built in one read of the sessions, every lag's
accumulator alive throughout, so it holds one session, one set of pass
buffers per thread and every lag's tables, whose block rows are
allocated whole before the read (their count follows from the session
lengths alone), in one anonymous mapping that is returned to the system
as soon as the tables are dropped.
"""

from __future__ import annotations

import mmap
import struct
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .accum import CompensatedSums
from .errors import (
    ArtifactIOError,
    InvalidGrid,
    MissingArtifact,
    MissingMoments,
)
from .lags import LagMoments, MomentRow
from .series import manifest_fields, read_table, write_csv

BLOCK_TARGET = 50
BLOCK_LAG_FACTOR = 10
# Anchors binned per pass: the per-lag buffers hold one pass, and the
# compensated fold adds once per pass, so output bits depend on it.
CHUNK_ANCHORS = 50_000


def block_size(lag: int, n_anchors: int) -> int:
    """Target anchors per block at a lag with n_anchors anchors over all
    sessions: max(10 L, ceil(n_anchors / 50))."""
    return max(BLOCK_LAG_FACTOR * lag, -(-n_anchors // BLOCK_TARGET))


@dataclass(frozen=True)
class BinGrid:
    z_min: float = -4.0
    z_max: float = 4.0
    step: float = 0.025
    n_min_support: int = 200

    def __post_init__(self):
        problems = []
        if not (self.z_min < self.z_max):
            problems.append(f"need z_min < z_max, got {self.z_min}, {self.z_max}")
        if self.step <= 0:
            problems.append(f"bin step must be > 0, got {self.step}")
        else:
            ratio = (self.z_max - self.z_min) / self.step
            if abs(ratio - round(ratio)) > 1e-9:
                problems.append(
                    f"bin step {self.step} yields a non-integer bin count {ratio:.6g} "
                    f"over [{self.z_min}, {self.z_max})"
                )
        if self.n_min_support < 1:
            problems.append(f"n_min_support must be >= 1, got {self.n_min_support}")
        if problems:
            raise InvalidGrid(problems)

    @property
    def n_bins(self) -> int:
        return round((self.z_max - self.z_min) / self.step)

    def centers(self) -> np.ndarray:
        return self.z_min + (np.arange(1, self.n_bins + 1) - 0.5) * self.step

    def bin_slots(
        self, z_p: np.ndarray, out: np.ndarray | None = None, work: np.ndarray | None = None
    ) -> np.ndarray:
        """Bin slots: 1 + floor((z_p - z_min) / step) when that lies in
        1..n_bins and z_p < z_max; 0 below the grid and n_bins + 1 above it.
        fl(z_p - z_min) >= 0 exactly when z_p >= z_min, so the lower edge
        needs no compare. `out` (int64) and `work` (float64) are optional
        buffers of z_p's length."""
        n = self.n_bins
        out = np.empty(z_p.shape, dtype=np.int64) if out is None else out
        w = np.subtract(z_p, self.z_min, out=work)
        w /= self.step
        np.floor(w, out=w)
        np.clip(w, -1, n, out=w)
        np.add(w, 1, out=out, casting="unsafe")
        if (self.z_max - self.z_min) / self.step < n:  # else z_p >= z_max floors to >= n
            np.putmask(out, z_p >= self.z_max, n + 1)
        return out

    def to_dict(self) -> dict:
        return {
            "z_min": self.z_min,
            "z_max": self.z_max,
            "step": self.step,
            "n_bins": self.n_bins,
            "n_min_support": self.n_min_support,
        }


@dataclass(frozen=True)
class LagBlocks:
    """Block tables of one lag. Block b covers the anchors [starts[b], stops[b])
    (global event indices), all inside one session."""

    lag: int
    starts: np.ndarray   # int64 [n_blocks]
    stops: np.ndarray    # int64 [n_blocks], exclusive
    counts: np.ndarray   # int64 [n_blocks, n_bins]
    sum_zr: np.ndarray   # float64 [n_blocks, n_bins], sums of standardized responses

    @property
    def n_blocks(self) -> int:
        return len(self.starts)


@dataclass(frozen=True)
class BlockTables:
    """The block tables of a surface, fetched one lag at a time with
    `tables[lag]`, from memory or from a block artifact on disk."""

    n_bins: int
    n_min_support: int
    lags: tuple[int, ...]
    load: Callable[[int], LagBlocks]

    def __getitem__(self, lag: int) -> LagBlocks:
        if lag not in self.lags:
            raise MissingArtifact(f"no block tables for lag {lag}")
        return self.load(lag)


@dataclass
class Surface:
    grid: BinGrid
    moments: list[LagMoments]
    counts: np.ndarray      # int64 [n_lags, n_bins]
    mean_zp: np.ndarray     # float64, nan where count == 0
    mean_zr: np.ndarray
    mean_r_raw: np.ndarray
    out_of_grid: np.ndarray  # int64 [n_lags]
    excluded_lags: list[dict] = field(default_factory=list)
    blocks: BlockTables | None = None  # None when read back from the CSV

    @property
    def lags(self) -> list[int]:
        return [m.lag for m in self.moments]

    @property
    def valid(self) -> np.ndarray:
        return self.counts >= self.grid.n_min_support

    def __eq__(self, other) -> bool:
        if not isinstance(other, Surface):
            return NotImplemented
        return (
            self.grid == other.grid
            and self.moments == other.moments
            and np.array_equal(self.counts, other.counts)
            and _nan_equal(self.mean_zp, other.mean_zp)
            and _nan_equal(self.mean_zr, other.mean_zr)
            and _nan_equal(self.mean_r_raw, other.mean_r_raw)
            and np.array_equal(self.out_of_grid, other.out_of_grid)
        )


def _nan_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all((a == b) | (np.isnan(a) & np.isnan(b))))


class _PassBuffers:
    """Scratch for one pass of at most `width` anchors at lags up to
    `max_lag`. Each thread owns one and lends it to the lags it runs."""

    def __init__(self, width: int, max_lag: int):
        self.diffs = np.empty(width + max_lag)
        self.z_p, self.z_r = np.empty((2, width))
        self.slots = np.empty(width, dtype=np.int64)


def _anchors(lag: int, session) -> int:
    return max(0, len(session) - 2 * lag)


def _n_blocks(moments: LagMoments, session) -> int:
    a = _anchors(moments.lag, session)
    return max(1, a // block_size(moments.lag, moments.n_pairs)) if a else 0


def _block_tables(n_blocks: list[int], n_bins: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Zeroed [n, n_bins] count (int64) and sum (float64) tables for each n
    in `n_blocks`, all in one anonymous mapping, whose pages go back to the
    system as soon as the last table is dropped. Allocated one by one, the
    tables could be left behind as free heap that the next stage did not
    fit into, so that its first allocations raised the peak RSS."""
    cells = sum(n_blocks) * n_bins
    mem = mmap.mmap(-1, max(1, 16 * cells))  # zero-filled
    counts = np.frombuffer(mem, np.int64, cells).reshape(-1, n_bins)
    sums = np.frombuffer(mem, np.float64, cells, offset=8 * cells).reshape(-1, n_bins)
    cuts = np.cumsum([0, *n_blocks]).tolist()
    return [(counts[a:b], sums[a:b]) for a, b in zip(cuts[:-1], cuts[1:])]


class _LagAccumulator:
    """Per-lag bin tables: exact counts, compensated sums, and the block
    tables `counts` and `sum_zr`, one row per block the sessions will hold."""

    def __init__(self, grid: BinGrid, moments: LagMoments, counts: np.ndarray,
                 sum_zr: np.ndarray):
        self.grid = grid
        self.moments = moments
        n = grid.n_bins
        self.counts = np.zeros(n, dtype=np.int64)
        self.sum_zp = CompensatedSums((n,))
        self.sum_zr = CompensatedSums((n,))
        self.sum_r = CompensatedSums((n,))
        self.out_of_grid = 0
        self.n_seen = 0
        self.blocks = LagBlocks(
            lag=moments.lag,
            starts=np.zeros(len(counts), dtype=np.int64),
            stops=np.zeros(len(counts), dtype=np.int64),
            counts=counts,
            sum_zr=sum_zr,
        )
        self._next_block = 0

    def anchors(self, session) -> int:
        return _anchors(self.moments.lag, session)

    def add_session(self, session, mids: np.ndarray, buf: _PassBuffers) -> None:
        """Bin the anchors of one session, whose mids are `mids`."""
        lag, a = self.moments.lag, self.anchors(session)
        n_blocks = _n_blocks(self.moments, session)
        edges = [lag + i * a // n_blocks for i in range(n_blocks + 1)] if a else []
        t = self.blocks
        for lo, hi in zip(edges[:-1], edges[1:]):  # within the session
            b = self._next_block
            for c in range(lo, hi, CHUNK_ANCHORS):
                c_counts, c_sum_zr = self._add_chunk(mids, c, min(c + CHUNK_ANCHORS, hi), buf)
                t.counts[b] += c_counts
                t.sum_zr[b] += c_sum_zr
            t.starts[b], t.stops[b] = session.start + lo, session.start + hi
            self._next_block += 1

    def _add_chunk(
        self, mids: np.ndarray, t0: int, t1: int, buf: _PassBuffers
    ) -> tuple[np.ndarray, np.ndarray]:
        """Bin the anchors [t0, t1) of `mids` into the totals; return their
        count and standardized-response-sum tables."""
        m = self.moments
        lag, k, n = m.lag, t1 - t0, self.grid.n_bins
        # d[i] = mids[t0+i] - mids[t0+i-L]: anchor t0+i's push is d[i], its response d[i+L]
        d = np.subtract(mids[t0 : t1 + lag], mids[t0 - lag : t1], out=buf.diffs[: k + lag])
        z_p = np.subtract(d[:k], m.mu_p, out=buf.z_p[:k])
        z_p /= m.sigma_p
        j = self.grid.bin_slots(z_p, out=buf.slots[:k], work=buf.z_r[:k])
        r = d[lag:]
        z_r = np.subtract(r, m.mu_r, out=buf.z_r[:k])
        z_r /= m.sigma_r
        counts = np.bincount(j, minlength=n + 2)[1 : n + 1]  # slots 0, n+1: off the grid
        self.n_seen += k
        self.out_of_grid += k - int(counts.sum())
        sum_zr = np.bincount(j, weights=z_r, minlength=n + 2)[1 : n + 1]
        self.counts += counts
        self.sum_zp.add(np.bincount(j, weights=z_p, minlength=n + 2)[1 : n + 1])
        self.sum_zr.add(sum_zr)
        self.sum_r.add(np.bincount(j, weights=r, minlength=n + 2)[1 : n + 1])
        return counts, sum_zr

    def finish(self) -> LagBlocks:
        """The block tables, once every anchor of the moments is binned."""
        if self.n_seen != self.moments.n_pairs:
            raise MissingMoments(self.moments.lag)
        return self.blocks


def _add_session(accs: list[_LagAccumulator], session, mids, buf: _PassBuffers) -> None:
    for acc in accs:
        acc.add_session(session, mids, buf)


def accumulate_surface(
    source,
    moment_rows: list[MomentRow],
    grid: BinGrid,
    threads: int = 1,
) -> Surface:
    """Bin every lag in one read of the sessions of `source`, a MidSeries
    or a PrmsReader. A session is binned at every lag before the next is
    read, so the session, the per-lag tables and one pass's buffers per
    thread are all that is held. Each lag folds its passes in session
    order, whichever thread runs it, so the thread count changes no bit.
    With more than one thread a session's lags are dealt out among them."""
    usable = [row.moments for row in moment_rows if row.moments is not None]
    excluded = [
        {"lag": row.lag, "n_pairs": row.n_pairs, "reason": row.excluded}
        for row in moment_rows
        if row.moments is None
    ]
    n_blocks = [sum(_n_blocks(m, s) for s in source.sessions) for m in usable]
    accs = [_LagAccumulator(grid, m, *tables)
            for m, tables in zip(usable, _block_tables(n_blocks, grid.n_bins))]
    threads = max(1, min(threads, len(accs)))
    widest = max((acc.anchors(s) for acc in accs for s in source.sessions), default=0)
    max_lag = max((m.lag for m in usable), default=0)
    bufs = [_PassBuffers(min(CHUNK_ANCHORS, widest), max_lag) for _ in range(threads)]
    with ThreadPoolExecutor(max_workers=threads) if threads > 1 else nullcontext() as pool:
        for s, mids in source.blocks():
            busy = [acc for acc in accs if acc.anchors(s)]
            if pool is None:
                _add_session(busy, s, mids, bufs[0])
                continue
            # lags increase, so every threads-th lag makes shares of near-equal anchors
            jobs = [pool.submit(_add_session, busy[i::threads], s, mids, bufs[i])
                    for i in range(threads)]
            for job in jobs:
                job.result()
    done = [(acc, acc.finish()) for acc in accs]

    n_lags, n_bins = len(usable), grid.n_bins
    counts = np.zeros((n_lags, n_bins), dtype=np.int64)
    mean_zp = np.full((n_lags, n_bins), np.nan)
    mean_zr = np.full((n_lags, n_bins), np.nan)
    mean_r = np.full((n_lags, n_bins), np.nan)
    oog = np.zeros(n_lags, dtype=np.int64)
    tables = {acc.moments.lag: blocks for acc, blocks in done}
    for i, (acc, _) in enumerate(done):
        counts[i] = acc.counts
        oog[i] = acc.out_of_grid
        nz = acc.counts > 0
        mean_zp[i, nz] = acc.sum_zp.total[nz] / acc.counts[nz]
        mean_zr[i, nz] = acc.sum_zr.total[nz] / acc.counts[nz]
        mean_r[i, nz] = acc.sum_r.total[nz] / acc.counts[nz]
    return Surface(
        grid=grid,
        moments=usable,
        counts=counts,
        mean_zp=mean_zp,
        mean_zr=mean_zr,
        mean_r_raw=mean_r,
        out_of_grid=oog,
        excluded_lags=excluded,
        blocks=BlockTables(
            n_bins=n_bins,
            n_min_support=grid.n_min_support,
            lags=tuple(tables),
            load=tables.__getitem__,
        ),
    )


SURFACE_HEADER = ["lag", "bin", "center", "count", "mean_zp", "mean_zr", "mean_r_raw", "valid"]

# the columns a surface is rebuilt from; `center` and `valid` follow from the
# grid and the counts
_SURFACE_DTYPES = {"lag": np.int64, "bin": np.int64, "count": np.int64,
                   "mean_zp": np.float64, "mean_zr": np.float64, "mean_r_raw": np.float64}


def write_surface_csv(surface: Surface, path: str | Path) -> None:
    """One row per cell with count > 0, in (lag, bin) order; zero-count
    cells carry nothing."""
    i, col = np.nonzero(surface.counts)
    write_csv(path, SURFACE_HEADER, [
        np.array(surface.lags, dtype=np.int64)[i], col + 1, surface.grid.centers()[col],
        surface.counts[i, col], surface.mean_zp[i, col], surface.mean_zr[i, col],
        surface.mean_r_raw[i, col], surface.valid[i, col],
    ])


def surface_manifest(surface: Surface) -> dict:
    return {
        "format": "surface-csv",
        "grid": surface.grid.to_dict(),
        "lags": surface.lags,
        "n_pairs": {str(m.lag): m.n_pairs for m in surface.moments},
        "out_of_grid": {
            str(m.lag): int(surface.out_of_grid[i])
            for i, m in enumerate(surface.moments)
        },
        "excluded_lags": surface.excluded_lags,
        "moments": [asdict(m) for m in surface.moments],
    }


def read_surface_csv(path: str | Path, manifest: dict) -> Surface:
    """Rebuild a Surface from its CSV plus sidecar manifest, which the
    stage reading it has held the CSV to; a manifest without the grid,
    moments or out-of-grid tallies is an ArtifactIOError."""
    g, moments, out_of_grid = manifest_fields(path, manifest, "grid", "moments", "out_of_grid")
    grid = BinGrid(z_min=g["z_min"], z_max=g["z_max"], step=g["step"],
                   n_min_support=g["n_min_support"])
    moments = [LagMoments(**m) for m in moments]
    row_of = {m.lag: i for i, m in enumerate(moments)}
    n_lags, n_bins = len(moments), grid.n_bins
    counts = np.zeros((n_lags, n_bins), dtype=np.int64)
    mean_zp, mean_zr, mean_r = np.full((3, n_lags, n_bins), np.nan)
    cols = read_table(path, SURFACE_HEADER, _SURFACE_DTYPES)
    lags, where = np.unique(cols["lag"], return_inverse=True)
    i = np.array([row_of.get(lag, -1) for lag in lags.tolist()], dtype=np.int64)[where]
    if (i < 0).any():
        lag = cols["lag"][(i < 0).argmax()]
        raise ArtifactIOError(f"{path}: lag {lag} is not in its manifest")
    col = cols["bin"] - 1
    if not ((0 <= col) & (col < n_bins)).all():
        raise ArtifactIOError(f"{path}: a bin lies outside 1..{n_bins}")
    counts[i, col] = cols["count"]
    for table, name in ((mean_zp, "mean_zp"), (mean_zr, "mean_zr"), (mean_r, "mean_r_raw")):
        table[i, col] = cols[name]
    oog = np.array([int(out_of_grid[str(m.lag)]) for m in moments], dtype=np.int64)
    return Surface(
        grid=grid,
        moments=moments,
        counts=counts,
        mean_zp=mean_zp,
        mean_zr=mean_zr,
        mean_r_raw=mean_r,
        out_of_grid=oog,
        excluded_lags=list(manifest.get("excluded_lags", [])),
    )


BLOCKS_MAGIC = b"PRBK"
BLOCKS_VERSION = 1
_BLOCKS_HEADER = struct.Struct("<4sHIQI")  # magic, version, n_bins, n_min_support, n_lags
_LAG_HEADER = struct.Struct("<IQ")  # lag, n_blocks


def blocks_path(surface_path: str | Path) -> Path:
    """Where the block artifact of a surface CSV lives: same stem, `.blocks`."""
    return Path(surface_path).with_suffix(".blocks")


def _record_bytes(n_blocks: int, n_bins: int) -> int:
    """Bytes of one lag's arrays: starts, stops, counts and sum_zr."""
    return 16 * n_blocks * (1 + n_bins)


def write_surface_blocks(blocks: BlockTables, path: str | Path) -> None:
    """Binary block artifact, little-endian: a header, then one record per lag
    of (lag u32, n_blocks u64), starts i64[n_blocks], stops i64[n_blocks],
    counts i64[n_blocks, n_bins] and sum_zr f64[n_blocks, n_bins]."""
    with open(path, "wb") as f:
        f.write(_BLOCKS_HEADER.pack(
            BLOCKS_MAGIC, BLOCKS_VERSION, blocks.n_bins,
            blocks.n_min_support, len(blocks.lags),
        ))
        for lag in blocks.lags:
            t = blocks[lag]
            f.write(_LAG_HEADER.pack(lag, t.n_blocks))
            for arr, dtype in ((t.starts, "<i8"), (t.stops, "<i8"),
                               (t.counts, "<i8"), (t.sum_zr, "<f8")):
                f.write(np.ascontiguousarray(arr, dtype=dtype).tobytes())


def read_surface_blocks(path: str | Path) -> BlockTables:
    """Index a block artifact; each `tables[lag]` reads only that lag's record."""
    path = Path(path)
    offsets: dict[int, tuple[int, int]] = {}
    size = path.stat().st_size
    with open(path, "rb") as f:
        head = f.read(_BLOCKS_HEADER.size)
        if len(head) < _BLOCKS_HEADER.size:
            raise ArtifactIOError(f"{path}: truncated header")
        magic, version, n_bins, n_min, n_lags = _BLOCKS_HEADER.unpack(head)
        if magic != BLOCKS_MAGIC:
            raise ArtifactIOError(f"{path}: bad magic {magic!r}")
        if version != BLOCKS_VERSION:
            raise ArtifactIOError(f"{path}: unsupported version {version}")
        pos = _BLOCKS_HEADER.size
        for _ in range(n_lags):
            f.seek(pos)
            rec = f.read(_LAG_HEADER.size)
            if len(rec) < _LAG_HEADER.size:
                raise ArtifactIOError(f"{path}: truncated lag header at {pos}")
            lag, n_blocks = _LAG_HEADER.unpack(rec)
            offsets[lag] = (pos + _LAG_HEADER.size, n_blocks)
            pos += _LAG_HEADER.size + _record_bytes(n_blocks, n_bins)
    if pos != size:
        raise ArtifactIOError(f"{path}: holds {size} bytes, its records {pos}")

    def load(lag: int) -> LagBlocks:
        offset, nb = offsets[lag]
        with open(path, "rb") as f:
            f.seek(offset)
            raw = f.read(_record_bytes(nb, n_bins))
        cells = nb * n_bins
        return LagBlocks(
            lag=lag,
            starts=np.frombuffer(raw, dtype="<i8", count=nb),
            stops=np.frombuffer(raw, dtype="<i8", count=nb, offset=8 * nb),
            counts=np.frombuffer(raw, dtype="<i8", count=cells, offset=16 * nb)
            .reshape(nb, n_bins),
            sum_zr=np.frombuffer(raw, dtype="<f8", count=cells, offset=16 * nb + 8 * cells)
            .reshape(nb, n_bins),
        )

    return BlockTables(n_bins=n_bins, n_min_support=n_min, lags=tuple(offsets), load=load)


def blocks_manifest(blocks: BlockTables) -> dict:
    return {
        "format": "surface-blocks",
        "version": BLOCKS_VERSION,
        "block_rule": {"target_blocks": BLOCK_TARGET, "lag_factor": BLOCK_LAG_FACTOR},
        "n_blocks": {str(lag): blocks[lag].n_blocks for lag in blocks.lags},
    }
