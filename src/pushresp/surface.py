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
"""

from __future__ import annotations

import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .accum import CompensatedSums
from .errors import (
    ArtifactIOError,
    IndexOutOfRange,
    InvalidGrid,
    MissingArtifact,
    MissingMoments,
)
from .lags import LagMoments, MomentRow
from .series import MidSeries, parse_column, read_csv, write_csv

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
        if not (self.z_min < self.z_max):
            raise InvalidGrid(f"need z_min < z_max, got {self.z_min}, {self.z_max}")
        if self.step <= 0:
            raise InvalidGrid(f"bin step must be > 0, got {self.step}")
        ratio = (self.z_max - self.z_min) / self.step
        if abs(ratio - round(ratio)) > 1e-9:
            raise InvalidGrid(
                f"bin step {self.step} yields a non-integer bin count {ratio:.6g} "
                f"over [{self.z_min}, {self.z_max})"
            )
        if self.n_min_support < 1:
            raise InvalidGrid(f"n_min_support must be >= 1, got {self.n_min_support}")

    @property
    def n_bins(self) -> int:
        return round((self.z_max - self.z_min) / self.step)

    def bin_index(self, z_p: float):
        """1-based bin of one push, or None when it falls off the grid."""
        j = int(self.bin_slots(np.array([z_p], dtype=np.float64))[0])
        return j if 1 <= j <= self.n_bins else None

    def bin_center(self, j: int) -> float:
        if not (1 <= j <= self.n_bins):
            raise IndexOutOfRange(f"bin index {j} outside 1..{self.n_bins}")
        return self.z_min + (j - 0.5) * self.step

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

    def bin_indices(self, z_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(0-based indices, in-grid mask) from bin_slots."""
        j0 = self.bin_slots(z_p) - 1
        return j0, (j0 >= 0) & (j0 < self.n_bins)

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

    def lag_row(self, lag: int) -> int:
        try:
            return self.lags.index(lag)
        except ValueError:
            raise MissingMoments(lag) from None

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


class _LagAccumulator:
    """Per-lag bin tables: exact counts, compensated sums, and block tables.
    Each pass fills buffers of `width` anchors (plus the lag) allocated once
    and freed by `finish`, so only the lags in progress hold them."""

    def __init__(self, grid: BinGrid, moments: LagMoments, width: int):
        self.grid = grid
        self.moments = moments
        n = grid.n_bins
        self.counts = np.zeros(n, dtype=np.int64)
        self.sum_zp = CompensatedSums((n,))
        self.sum_zr = CompensatedSums((n,))
        self.sum_r = CompensatedSums((n,))
        self.out_of_grid = 0
        self.n_seen = 0
        self.block_bounds: list[tuple[int, int]] = []
        self.block_counts: list[np.ndarray] = []
        self.block_sum_zr: list[np.ndarray] = []
        self._diffs = np.empty(width + moments.lag)
        self._z_p, self._z_r, self._work = np.empty((3, width))
        self._slots = np.empty(width, dtype=np.int64)

    def add_session(self, mids: np.ndarray, session) -> None:
        lag = self.moments.lag
        a = len(session) - 2 * lag
        if a <= 0:
            return
        n_blocks = max(1, a // block_size(lag, self.moments.n_pairs))
        edges = [session.start + lag + i * a // n_blocks for i in range(n_blocks + 1)]
        n = self.grid.n_bins
        for lo, hi in zip(edges[:-1], edges[1:]):
            counts, sum_zr = np.zeros(n, dtype=np.int64), np.zeros(n)
            for c in range(lo, hi, CHUNK_ANCHORS):
                c_counts, c_sum_zr = self._add_chunk(mids, c, min(c + CHUNK_ANCHORS, hi))
                counts += c_counts
                sum_zr += c_sum_zr
            self.block_bounds.append((lo, hi))
            self.block_counts.append(counts)
            self.block_sum_zr.append(sum_zr)

    def _add_chunk(self, mids: np.ndarray, t0: int, t1: int) -> tuple[np.ndarray, np.ndarray]:
        """Bin the anchors [t0, t1) into the totals; return their count and
        standardized-response-sum tables."""
        m = self.moments
        lag, k, n = m.lag, t1 - t0, self.grid.n_bins
        # d[i] = mids[t0+i] - mids[t0+i-L]: anchor t0+i's push is d[i], its response d[i+L]
        d = np.subtract(mids[t0 : t1 + lag], mids[t0 - lag : t1], out=self._diffs[: k + lag])
        z_p = np.subtract(d[:k], m.mu_p, out=self._z_p[:k])
        z_p /= m.sigma_p
        r = d[lag:]
        z_r = np.subtract(r, m.mu_r, out=self._z_r[:k])
        z_r /= m.sigma_r
        j = self.grid.bin_slots(z_p, out=self._slots[:k], work=self._work[:k])
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
        """Free the pass buffers; stack the per-block rows into a LagBlocks
        and drop the rows."""
        del self._diffs, self._z_p, self._z_r, self._work, self._slots
        n = self.grid.n_bins
        bounds = np.array(self.block_bounds, dtype=np.int64).reshape(-1, 2)
        blocks = LagBlocks(
            lag=self.moments.lag,
            starts=bounds[:, 0].copy(),
            stops=bounds[:, 1].copy(),
            counts=np.array(self.block_counts, dtype=np.int64).reshape(-1, n),
            sum_zr=np.array(self.block_sum_zr, dtype=np.float64).reshape(-1, n),
        )
        self.block_bounds, self.block_counts, self.block_sum_zr = [], [], []
        return blocks


def accumulate_surface(
    series: MidSeries,
    moment_rows: list[MomentRow],
    grid: BinGrid,
    threads: int = 1,
) -> Surface:
    """One sweep per lag over all sessions; lags are independent jobs."""
    usable = [row.moments for row in moment_rows if row.moments is not None]
    excluded = [
        {"lag": row.lag, "n_pairs": row.n_pairs, "reason": row.excluded}
        for row in moment_rows
        if row.moments is None
    ]

    def run(m: LagMoments) -> tuple[_LagAccumulator, LagBlocks]:
        longest = max(len(s) - 2 * m.lag for s in series.sessions)
        acc = _LagAccumulator(grid, m, min(CHUNK_ANCHORS, longest))
        for s in series.sessions:
            acc.add_session(series.mids, s)
        if acc.n_seen != m.n_pairs:
            raise MissingMoments(m.lag)
        return acc, acc.finish()

    if threads > 1 and len(usable) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            done = list(pool.map(run, usable))
    else:
        done = [run(m) for m in usable]

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
    """Rebuild a Surface from its CSV plus sidecar manifest."""
    g = manifest["grid"]
    grid = BinGrid(z_min=g["z_min"], z_max=g["z_max"], step=g["step"],
                   n_min_support=g["n_min_support"])
    moments = [LagMoments(**m) for m in manifest["moments"]]
    row_of = {m.lag: i for i, m in enumerate(moments)}
    n_lags, n_bins = len(moments), grid.n_bins
    counts = np.zeros((n_lags, n_bins), dtype=np.int64)
    mean_zp, mean_zr, mean_r = np.full((3, n_lags, n_bins), np.nan)
    cols = read_csv(path, SURFACE_HEADER)
    try:
        i = [row_of[lag] for lag in parse_column(path, cols, "lag", int)]
    except KeyError as exc:
        raise ArtifactIOError(f"{path}: lag {exc} is not in its manifest") from None
    col = [j - 1 for j in parse_column(path, cols, "bin", int)]
    if not all(0 <= c < n_bins for c in col):
        raise ArtifactIOError(f"{path}: a bin lies outside 1..{n_bins}")
    counts[i, col] = parse_column(path, cols, "count", int)
    for table, name in ((mean_zp, "mean_zp"), (mean_zr, "mean_zr"), (mean_r, "mean_r_raw")):
        table[i, col] = parse_column(path, cols, name, float)
    oog = np.array(
        [int(manifest["out_of_grid"][str(m.lag)]) for m in moments], dtype=np.int64
    )
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
    try:
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
    except OSError as exc:
        raise ArtifactIOError(f"cannot write {path}: {exc}") from exc


def read_surface_blocks(path: str | Path) -> BlockTables:
    """Index a block artifact; each `tables[lag]` reads only that lag's record."""
    path = Path(path)
    offsets: dict[int, tuple[int, int]] = {}
    try:
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
    except OSError as exc:
        raise ArtifactIOError(f"cannot read {path}: {exc}") from exc
    if pos != size:
        raise ArtifactIOError(f"{path}: holds {size} bytes, its records {pos}")

    def load(lag: int) -> LagBlocks:
        offset, nb = offsets[lag]
        try:
            with open(path, "rb") as f:
                f.seek(offset)
                raw = f.read(_record_bytes(nb, n_bins))
        except OSError as exc:
            raise ArtifactIOError(f"cannot read {path}: {exc}") from exc
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
