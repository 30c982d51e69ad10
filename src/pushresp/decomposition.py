"""Symmetric/antisymmetric split of the surface and dominance statistics.

For every lag and absolute bin offset whose two mirror cells are both
valid, the conditional response means split into an even part S (push
magnitude only) and an odd part A (push sign). Local dominance is the
signed share A / (|A| + |S| + eps). The magnitude share
(|A| - |S|) / (|A| + |S| + eps) is written beside it as `rho_local_alt`;
it is not the local index because it maps symmetry dominance to -1. Per
lag, pairs are weighted by combined support and aggregated into a
dominance statistic, a magnitude curve (standardized and raw), and a
bootstrap confidence band.

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

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .cleaning import empirical_quantile
from .errors import InvalidGrid, ValidationFailed
from .series import read_table, write_csv
from .surface import BinGrid, BlockTables, LagBlocks, Surface

EPSILON = 1e-12

# The replicate quantiles of the 95% band.
BAND_QUANTILES = (0.025, 0.975)


@dataclass(frozen=True)
class BootstrapConfig:
    n_replicates: int = 1000
    seed: int = 42

    def __post_init__(self):
        problems = []
        if self.n_replicates < 1:
            problems.append(f"need at least 1 replicate, got {self.n_replicates}")
        if self.seed < 0:
            problems.append(f"seed must be >= 0, got {self.seed}")
        if problems:
            raise ValidationFailed(problems)


@dataclass(frozen=True, eq=False)
class MirrorPairs:
    """Supported mirror pairs, one equal-length array per heatmap CSV
    column, in (lag, abs_index) order. `lag`, `abs_index`, `n_pos` and
    `n_neg` are int64, the rest float64."""

    lag: np.ndarray
    abs_index: np.ndarray   # 1..n_bins/2
    abs_center: np.ndarray  # center of the positive bin
    S: np.ndarray
    A: np.ndarray
    rho_local: np.ndarray
    rho_local_alt: np.ndarray
    weight: np.ndarray
    n_pos: np.ndarray
    n_neg: np.ndarray
    mean_zr_pos: np.ndarray
    mean_zr_neg: np.ndarray
    mean_r_raw_pos: np.ndarray
    mean_r_raw_neg: np.ndarray

    def __len__(self) -> int:
        return len(self.lag)


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


def decompose(surface: Surface) -> MirrorPairs:
    """Mirror pairs with both cells valid, in (lag, abs_index) order.

    Weights are the supports normalized per lag over the supported pairs.
    """
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
    i, col = np.nonzero(support)
    pos, neg = half + col, half - 1 - col
    lags = np.array(surface.lags, dtype=np.int64)
    return MirrorPairs(
        lag=lags[i], abs_index=col + 1, abs_center=grid.centers()[pos],
        S=S[i, col], A=A[i, col], rho_local=signed[i, col], rho_local_alt=share[i, col],
        weight=weight[i, col],
        n_pos=surface.counts[i, pos], n_neg=surface.counts[i, neg],
        mean_zr_pos=surface.mean_zr[i, pos], mean_zr_neg=surface.mean_zr[i, neg],
        mean_r_raw_pos=surface.mean_r_raw[i, pos], mean_r_raw_neg=surface.mean_r_raw[i, neg],
    )


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
# the block band, which sets how many replicates a pass holds. Small
# temporaries stay in reused heap memory; at 96 KiB and above (glibc)
# they were mapped afresh and page-faulted on every pass, which cost more
# than the arithmetic. A pass draws its replicates' blocks and holds how
# often each is drawn; its two full-width tables (drawn counts and sums)
# and the mean table are allocated once per lag.
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

    The replicates are drawn a pass at a time, in order, from the lag's
    one stream: `Generator.integers` drawn in consecutive row chunks gives
    the rows of one whole draw, so the pass size does not change a bit.
    """
    n_blocks, n_bins = blocks.counts.shape
    rng = _lag_rng(cfg.seed, blocks.lag)
    # the replicate counts are exact: integer sums below 2**53
    block_counts = blocks.counts.astype(np.float64)
    stats = np.empty(cfg.n_replicates)
    per_pass = max(1, _PASS_BYTES // (8 * (n_bins // 2)))
    offsets = np.arange(per_pass)[:, None] * n_blocks
    counts = np.empty((per_pass, n_bins))
    sums = np.empty((per_pass, n_bins))
    mean_zr = np.empty((per_pass, n_bins))
    for r0 in range(0, cfg.n_replicates, per_pass):
        n = min(per_pass, cfg.n_replicates - r0)
        draws = rng.integers(0, n_blocks, size=(n, n_blocks))
        draws += offsets[:n]
        # how often each replicate of the pass draws each block
        times_drawn = np.bincount(draws.ravel(), minlength=n * n_blocks).reshape(n, n_blocks)
        times_drawn = times_drawn.astype(np.float64)
        np.matmul(times_drawn, block_counts, out=counts[:n])
        np.matmul(times_drawn, blocks.sum_zr, out=sums[:n])
        # a cell with count 0 has sum 0, so dividing by max(n, 1) keeps it finite
        np.maximum(counts[:n], 1.0, out=mean_zr[:n])
        np.divide(sums[:n], mean_zr[:n], out=mean_zr[:n])
        support, A, S = pair_terms(counts[:n], mean_zr[:n], n_min_support)
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
    lo = empirical_quantile(stats, BAND_QUANTILES[0]) + shift
    hi = empirical_quantile(stats, BAND_QUANTILES[1]) + shift
    return max(-1.0, lo), min(1.0, hi)


def summarize(
    pairs: MirrorPairs, boot: BootstrapConfig, blocks: BlockTables
) -> list[LagSummary]:
    """Per-lag dominance, magnitudes, and block bands (`bootstrap_rho`),
    one per run of equal lags, in the pairs' order. Each lag's pairs form
    one run, as `decompose` and `read_heatmap_csv` return them.

    M and M_raw are the support-weighted means of the pairs' half
    magnitudes (|mean(+j)| + |mean(-j)|) / 2, standardized and raw.
    """
    w, abs_a, abs_s = pairs.weight, np.abs(pairs.A), np.abs(pairs.S)
    half_zr = 0.5 * (np.abs(pairs.mean_zr_pos) + np.abs(pairs.mean_zr_neg))
    half_raw = 0.5 * (np.abs(pairs.mean_r_raw_pos) + np.abs(pairs.mean_r_raw_neg))
    # a run starts at row 0 and wherever the lag changes
    starts = np.flatnonzero(np.diff(pairs.lag, prepend=pairs.lag[:1] - 1)).tolist()
    summaries = []
    for a, b in zip(starts, [*starts[1:], len(pairs)]):
        lag = int(pairs.lag[a])
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


HEATMAP_HEADER = [f.name for f in fields(MirrorPairs)]

_HEATMAP_DTYPES = {name: np.int64 if name in ("lag", "abs_index", "n_pos", "n_neg")
                   else np.float64 for name in HEATMAP_HEADER}

SUMMARY_HEADER = [f.name for f in fields(LagSummary)]

_SUMMARY_DTYPES = {name: np.float64 for name in SUMMARY_HEADER} | {
    "lag": np.int64, "n_supported_pairs": np.int64, "degenerate": bool}


def write_heatmap_csv(pairs: MirrorPairs, path: str | Path) -> None:
    write_csv(path, HEATMAP_HEADER, [getattr(pairs, name) for name in HEATMAP_HEADER])


def read_heatmap_csv(path: str | Path) -> MirrorPairs:
    return MirrorPairs(**read_table(path, HEATMAP_HEADER, _HEATMAP_DTYPES))


def write_summary_csv(summaries: list[LagSummary], path: str | Path) -> None:
    write_csv(path, SUMMARY_HEADER, [[getattr(s, name) for s in summaries]
                                     for name in SUMMARY_HEADER])


def read_summary_csv(path: str | Path) -> list[LagSummary]:
    cols = read_table(path, SUMMARY_HEADER, _SUMMARY_DTYPES)
    return [LagSummary(*row) for row in zip(*(cols[name].tolist() for name in SUMMARY_HEADER))]
