"""Symmetric/antisymmetric split of the surface and dominance statistics.

For every lag and absolute bin offset whose two mirror cells are both
valid, the conditional response means split into an even part S (push
magnitude only) and an odd part A (push sign). Local dominance is the
signed share A / (|A| + |S| + eps); an alternative magnitude-share
index (|A| - |S|) / (|A| + |S| + eps) is kept behind a flag because it
maps symmetry dominance to -1. Per lag, pairs are weighted by combined
support and aggregated into a dominance statistic, a magnitude curve
(standardized and raw), and a bootstrap confidence band.

The band comes from the surface's anchor-block tables (see surface.py):
a bootstrap over non-overlapping blocks of consecutive anchors
(Carlstein 1986; Kuensch 1989 is the moving-block variant). Each
replicate redraws whole blocks, rebuilds the cells, the valid mirror
pairs and their weights, and recomputes the dominance statistic.
Anchors closer than 2 L share increments, so only whole blocks carry
the surface's real sampling noise. A replicate adds resampling noise
on top of the data's own, which pulls its statistic towards 0, so the
band is the replicates' percentile band shifted by rho minus their
median: it holds rho and has the replicates' spread.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cleaning import empirical_quantile
from .errors import InvalidGrid
from .series import parse_column, read_csv, write_csv
from .surface import BinGrid, BlockTables, LagBlocks, Surface

EPSILON = 1e-12

LOCAL_INDEX_CHOICES = ("eq319", "absratio")


@dataclass(frozen=True)
class BootstrapConfig:
    n_replicates: int = 1000
    seed: int = 42
    quantiles: tuple[float, float] = (0.025, 0.975)

    def __post_init__(self):
        if self.n_replicates < 1:
            raise ValueError(f"need at least 1 replicate, got {self.n_replicates}")
        lo, hi = self.quantiles
        if not (0.0 < lo < hi < 1.0):
            raise ValueError(f"bad quantile pair {self.quantiles}")


@dataclass(frozen=True)
class MirrorPair:
    lag: int
    abs_index: int      # 1..n_bins/2
    abs_center: float   # center of the positive bin
    n_pos: int
    n_neg: int
    mean_zr_pos: float
    mean_zr_neg: float
    mean_r_raw_pos: float
    mean_r_raw_neg: float
    S: float
    A: float
    rho_local: float
    rho_local_alt: float
    weight: float


@dataclass(frozen=True)
class LagSummary:
    lag: int
    rho: float
    ci_low: float
    ci_high: float
    M: float
    M_raw: float
    n_supported_pairs: int
    degenerate: bool


def pair_terms(
    counts: np.ndarray, mean_zr: np.ndarray, n_min_support: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mirror pairs of [..., n_bins] count and mean-response tables, pair
    k + 1 (bins +k+1 and -(k+1) from zero) in column k of each result:
    the support n(+j) + n(-j), which is 0 unless both cells hold at least
    n_min_support anchors, and the odd and even parts A and S.

    `decompose` builds the surface's pairs here and the block band builds
    every replicate's, so both follow one rule. Where the support is 0
    the parts are meaningless and may be nan.
    """
    half = counts.shape[-1] // 2
    n_pos, n_neg = counts[..., half:], counts[..., half - 1::-1]
    zr_pos, zr_neg = mean_zr[..., half:], mean_zr[..., half - 1::-1]
    both_valid = np.minimum(n_pos, n_neg) >= n_min_support
    support = np.where(both_valid, n_pos + n_neg, 0)
    return support, 0.5 * (zr_pos - zr_neg), 0.5 * (zr_pos + zr_neg)


def check_mirror_grid(grid: BinGrid) -> None:
    """Bin half + k and bin half - k + 1 mirror each other across 0 only on
    a grid symmetric about 0 with an even bin count."""
    if grid.z_min != -grid.z_max:
        raise InvalidGrid(
            f"mirror decomposition needs a grid symmetric about 0, "
            f"got [{grid.z_min}, {grid.z_max})"
        )
    if grid.n_bins % 2 != 0:
        raise InvalidGrid(f"mirror decomposition needs an even bin count, got {grid.n_bins}")


def decompose(surface: Surface, local_index: str = "eq319") -> list[MirrorPair]:
    """Mirror pairs with both cells valid, in (lag, abs_index) order.

    Weights are the supports normalized per lag over the supported pairs.
    """
    if local_index not in LOCAL_INDEX_CHOICES:
        raise InvalidGrid(f"unknown local index '{local_index}'")
    grid = surface.grid
    check_mirror_grid(grid)
    half = grid.n_bins // 2
    support, A, S = pair_terms(surface.counts, surface.mean_zr, grid.n_min_support)
    # unsupported pairs (and lags without one) may give nan; none is kept
    with np.errstate(invalid="ignore", divide="ignore"):
        weight = support / support.sum(axis=1, keepdims=True)
        denom = np.abs(A) + np.abs(S) + EPSILON
        signed = A / denom
        share = (np.abs(A) - np.abs(S)) / denom
    if local_index == "absratio":
        signed, share = share, signed
    i, col = np.nonzero(support)
    pos, neg = half + col, half - 1 - col
    lags = np.array(surface.lags, dtype=np.int64)
    cols = (
        lags[i], col + 1, grid.centers()[pos],
        surface.counts[i, pos], surface.counts[i, neg],
        surface.mean_zr[i, pos], surface.mean_zr[i, neg],
        surface.mean_r_raw[i, pos], surface.mean_r_raw[i, neg],
        S[i, col], A[i, col], signed[i, col], share[i, col], weight[i, col],
    )
    return [MirrorPair(*row) for row in zip(*(c.tolist() for c in cols))]


def dominance_ratio(num_a, num_s) -> np.ndarray:
    """(num_a - num_s) / (num_a + num_s) elementwise, 0 where both vanish."""
    num_a = np.asarray(num_a, dtype=np.float64)
    num_s = np.asarray(num_s, dtype=np.float64)
    denom = num_a + num_s
    return np.divide(num_a - num_s, denom, out=np.zeros_like(denom), where=denom != 0.0)


def rho_lag(
    abs_A: np.ndarray, abs_S: np.ndarray, weights: np.ndarray
) -> tuple[float, bool]:
    """Weighted dominance balance in [-1, 1]; degenerate when all parts vanish."""
    num_a = np.dot(weights, abs_A)
    num_s = np.dot(weights, abs_S)
    return float(dominance_ratio(num_a, num_s)), bool(num_a + num_s == 0.0)


def _lag_rng(seed: int, lag: int) -> np.random.Generator:
    # Per-lag stream keyed on (seed, lag): independent of processing order.
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(lag,)))


# Bytes of one [replicates, n_bins / 2] float64 temporary per pass of
# the block band. Small temporaries stay in reused heap memory; at 96 KiB
# and above (glibc) they were mapped afresh and page-faulted on every
# pass, which cost more than the arithmetic. The pass's two full-width
# tables are allocated once per lag instead.
_PASS_BYTES = 64 * 1024


def block_replicates(
    blocks: LagBlocks, n_min_support: int, cfg: BootstrapConfig
) -> np.ndarray:
    """The dominance statistic of each of `cfg.n_replicates` replicate
    surfaces of one lag, drawn from its blocks of consecutive anchors.

    A replicate redraws as many blocks as the lag has, with replacement
    and equal probability, sums their count and response tables into a
    surface, and builds its pairs with `pair_terms` as `decompose` does:
    cells below `n_min_support` are invalid, mirror pairs need both cells
    valid, and weights follow the replicate's own support. A replicate
    without a supported pair counts as 0, as in `rho_lag`.
    """
    n_blocks, n_bins = blocks.counts.shape
    rng = _lag_rng(cfg.seed, blocks.lag)
    draws = rng.integers(0, n_blocks, size=(cfg.n_replicates, n_blocks))
    draws += np.arange(cfg.n_replicates)[:, None] * n_blocks
    # how often each replicate draws each block
    times_drawn = np.bincount(
        draws.ravel(), minlength=cfg.n_replicates * n_blocks
    ).reshape(cfg.n_replicates, n_blocks).astype(np.float64)
    # the replicate counts are exact: integer sums below 2**53
    tables = np.concatenate([blocks.counts.astype(np.float64), blocks.sum_zr], axis=1)
    stats = np.empty(cfg.n_replicates)
    per_pass = max(1, _PASS_BYTES // (8 * (n_bins // 2)))
    drawn = np.empty((per_pass, 2 * n_bins))
    mean_zr = np.empty((per_pass, n_bins))
    for r0 in range(0, cfg.n_replicates, per_pass):
        n = min(per_pass, cfg.n_replicates - r0)
        np.matmul(times_drawn[r0:r0 + n], tables, out=drawn[:n])
        counts = drawn[:n, :n_bins]
        # a cell with count 0 has sum 0, so dividing by max(n, 1) keeps it finite
        np.maximum(counts, 1.0, out=mean_zr[:n])
        np.divide(drawn[:n, n_bins:], mean_zr[:n], out=mean_zr[:n])
        support, A, S = pair_terms(counts, mean_zr[:n], n_min_support)
        stats[r0:r0 + n] = dominance_ratio(
            np.einsum("ij,ij->i", support, np.abs(A)),
            np.einsum("ij,ij->i", support, np.abs(S)),
        )
    return stats


def bootstrap_rho(
    blocks: LagBlocks, n_min_support: int, cfg: BootstrapConfig, rho: float
) -> tuple[float, float]:
    """Block band for the lag dominance statistic `rho` of the full
    surface, from a bootstrap over non-overlapping blocks of consecutive
    anchors (Carlstein 1986); see `block_replicates` for a replicate.

    Each replicate carries the data's sampling noise plus that of the
    redraw, and the extra noise in both |A| and |S| pulls the
    replicates' statistic towards 0: at a strongly planted lag their
    whole percentile band can lie below rho. The band is therefore the
    replicates' percentile band shifted by rho minus their median, which
    holds rho, keeps the replicates' spread, and is clipped to [-1, 1].
    It measures how far rho scatters, not how far rho, a ratio of
    absolute values, leans towards 0 when noise is large beside the
    parts. The basic band 2 rho - quantiles was not used: on null walks
    of 2e5 to 1e6 events it contained 0 at only 55-74% of lags.

    A lag with fewer than two blocks has nothing to resample; its band is
    the whole range [-1, 1] of the statistic, never a zero-width band.
    """
    if blocks.n_blocks < 2:
        return -1.0, 1.0
    stats = block_replicates(blocks, n_min_support, cfg)
    shift = rho - empirical_quantile(stats, 0.5)
    lo = empirical_quantile(stats, cfg.quantiles[0]) + shift
    hi = empirical_quantile(stats, cfg.quantiles[1]) + shift
    return max(-1.0, lo), min(1.0, hi)


def summarize(
    pairs: list[MirrorPair], boot: BootstrapConfig, blocks: BlockTables
) -> list[LagSummary]:
    """Per-lag dominance, magnitudes, and block bands (`bootstrap_rho`).

    M and M_raw are the support-weighted means of the pairs' half
    magnitudes (|mean(+j)| + |mean(-j)|) / 2, standardized and raw.
    """
    pairs = sorted(pairs, key=lambda p: p.lag)  # stable: pair order kept per lag
    lags, starts = np.unique([p.lag for p in pairs], return_index=True)

    def column(name: str) -> np.ndarray:
        return np.array([getattr(p, name) for p in pairs], dtype=np.float64)

    w, abs_a, abs_s = column("weight"), np.abs(column("A")), np.abs(column("S"))
    half_zr = 0.5 * (np.abs(column("mean_zr_pos")) + np.abs(column("mean_zr_neg")))
    half_raw = 0.5 * (np.abs(column("mean_r_raw_pos")) + np.abs(column("mean_r_raw_neg")))
    summaries = []
    for lag, a, b in zip(lags.tolist(), starts.tolist(), [*starts[1:].tolist(), len(pairs)]):
        rho, degenerate = rho_lag(abs_a[a:b], abs_s[a:b], w[a:b])
        lo, hi = bootstrap_rho(blocks[lag], blocks.n_min_support, boot, rho)
        summaries.append(
            LagSummary(
                lag=lag,
                rho=rho,
                ci_low=lo,
                ci_high=hi,
                M=float(np.dot(w[a:b], half_zr[a:b])),
                M_raw=float(np.dot(w[a:b], half_raw[a:b])),
                n_supported_pairs=b - a,
                degenerate=degenerate,
            )
        )
    return summaries


HEATMAP_HEADER = [
    "lag", "abs_index", "abs_center", "S", "A", "rho_local", "rho_local_alt",
    "weight", "n_pos", "n_neg",
    "mean_zr_pos", "mean_zr_neg", "mean_r_raw_pos", "mean_r_raw_neg",
]

SUMMARY_HEADER = [
    "lag", "rho", "ci_low", "ci_high", "M", "M_raw", "n_supported_pairs", "degenerate",
]


# how a heatmap or summary column parses; every other column is a float
_PARSERS = {"lag": int, "abs_index": int, "n_pos": int, "n_neg": int,
            "n_supported_pairs": int, "degenerate": "true".__eq__}


def _write_records(records: list, header: list[str], path: str | Path) -> None:
    write_csv(path, header, [[getattr(r, name) for r in records] for name in header])


def _read_records(path: str | Path, header: list[str], record: type) -> list:
    cols = read_csv(path, header)
    values = zip(*(parse_column(path, cols, name, _PARSERS.get(name, float)) for name in header))
    return [record(**dict(zip(header, row))) for row in values]


def write_heatmap_csv(pairs: list[MirrorPair], path: str | Path) -> None:
    _write_records(pairs, HEATMAP_HEADER, path)


def read_heatmap_csv(path: str | Path) -> list[MirrorPair]:
    return _read_records(path, HEATMAP_HEADER, MirrorPair)


def write_summary_csv(summaries: list[LagSummary], path: str | Path) -> None:
    _write_records(summaries, SUMMARY_HEADER, path)


def read_summary_csv(path: str | Path) -> list[LagSummary]:
    return _read_records(path, SUMMARY_HEADER, LagSummary)
