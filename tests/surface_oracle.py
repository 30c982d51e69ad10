"""Reference per-lag kernel: whole-session pushes and responses, masks and
compressed copies.

It states the moments and the surface sweep the plain way (two diffs per
session for the moments; per pass a standardization, an in-grid mask and
four compressed `bincount`s for the surface), so that the lean kernels in
`pushresp.lags` and `pushresp.surface` can be checked against it bit for
bit. It keeps the same block edges, passes and compensated folds, so the
results must be `==`, not merely close. Only the tests use it.
"""

from __future__ import annotations

import numpy as np

from pushresp import surface as surface_mod
from pushresp.accum import CompensatedSums, MomentAccumulator
from pushresp.errors import InsufficientSupport, MissingMoments, ZeroVariance
from pushresp.lags import LagMoments
from pushresp.surface import BlockTables, LagBlocks, Surface, block_size


def session_pushes_responses(
    mids: np.ndarray, session, lag: int
) -> tuple[np.ndarray, np.ndarray]:
    """Pushes and responses over the session's admissible anchors."""
    a0 = session.start + lag
    a1 = session.end - lag  # inclusive
    if a1 < a0:
        empty = np.empty(0, dtype=np.float64)
        return empty, empty
    pushes = mids[a0 : a1 + 1] - mids[a0 - lag : a1 - lag + 1]
    responses = mids[a0 + lag : a1 + lag + 1] - mids[a0 : a1 + 1]
    return pushes, responses


def oracle_moments(series, lag: int) -> LagMoments:
    acc_p, acc_r = MomentAccumulator(), MomentAccumulator()
    for s in series.sessions:
        pushes, responses = session_pushes_responses(series.mids, s, lag)
        acc_p.add_batch(pushes, np.empty_like(pushes))
        acc_r.add_batch(responses, np.empty_like(responses))
    if acc_p.count < 2:
        raise InsufficientSupport(lag, acc_p.count)
    if acc_p.std == 0.0:
        raise ZeroVariance(lag, "push")
    if acc_r.std == 0.0:
        raise ZeroVariance(lag, "response")
    return LagMoments(lag, acc_p.count, acc_p.mean, acc_p.std, acc_r.mean, acc_r.std)


def mask_bin_indices(grid, z_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """0-based bins and the in-grid mask, by explicit compares."""
    j = 1 + np.floor((z_p - grid.z_min) / grid.step).astype(np.int64)
    ok = (z_p >= grid.z_min) & (z_p < grid.z_max) & (j >= 1) & (j <= grid.n_bins)
    return j - 1, ok


class _OracleLag:
    def __init__(self, grid, moments: LagMoments, chunk: int):
        n = grid.n_bins
        self.grid, self.moments, self.chunk = grid, moments, chunk
        self.counts = np.zeros(n, dtype=np.int64)
        self.sums = [CompensatedSums((n,)) for _ in range(3)]  # z_p, z_r, raw r
        self.out_of_grid = self.n_seen = 0
        self.bounds, self.block_counts, self.block_sum_zr = [], [], []

    def add_session(self, mids, session) -> None:
        lag = self.moments.lag
        pushes, responses = session_pushes_responses(mids, session, lag)
        a = pushes.size
        if a == 0:
            return
        n_blocks = max(1, a // block_size(lag, self.moments.n_pairs))
        edges = [i * a // n_blocks for i in range(n_blocks + 1)]
        n = self.grid.n_bins
        for lo, hi in zip(edges[:-1], edges[1:]):
            counts, sum_zr = np.zeros(n, dtype=np.int64), np.zeros(n)
            for c in range(lo, hi, self.chunk):
                c_hi = min(c + self.chunk, hi)
                c_counts, c_sum_zr = self._add_chunk(pushes[c:c_hi], responses[c:c_hi])
                counts += c_counts
                sum_zr += c_sum_zr
            first = session.start + lag
            self.bounds.append((first + lo, first + hi))
            self.block_counts.append(counts)
            self.block_sum_zr.append(sum_zr)

    def _add_chunk(self, pushes, responses):
        m, n = self.moments, self.grid.n_bins
        z_p = (pushes - m.mu_p) / m.sigma_p
        z_r = (responses - m.mu_r) / m.sigma_r
        j0, ok = mask_bin_indices(self.grid, z_p)
        self.n_seen += int(pushes.size)
        self.out_of_grid += int(pushes.size - ok.sum())
        jj = j0[ok]
        counts = np.bincount(jj, minlength=n)
        sum_zr = np.bincount(jj, weights=z_r[ok], minlength=n)
        self.counts += counts
        self.sums[0].add(np.bincount(jj, weights=z_p[ok], minlength=n))
        self.sums[1].add(sum_zr)
        self.sums[2].add(np.bincount(jj, weights=responses[ok], minlength=n))
        return counts, sum_zr


def oracle_surface(series, moments: list[LagMoments], grid) -> Surface:
    """The surface of the given lags, one lag after another, in passes of
    the current `surface.CHUNK_ANCHORS` anchors."""
    n = grid.n_bins
    accs = []
    for m in moments:
        acc = _OracleLag(grid, m, surface_mod.CHUNK_ANCHORS)
        for s in series.sessions:
            acc.add_session(series.mids, s)
        if acc.n_seen != m.n_pairs:
            raise MissingMoments(m.lag)
        accs.append(acc)
    means = [np.full((len(accs), n), np.nan) for _ in range(3)]
    tables = {}
    for i, acc in enumerate(accs):
        nz = acc.counts > 0
        for mean, total in zip(means, acc.sums):
            mean[i, nz] = total.total[nz] / acc.counts[nz]
        bounds = np.array(acc.bounds, dtype=np.int64).reshape(-1, 2)
        tables[acc.moments.lag] = LagBlocks(
            lag=acc.moments.lag,
            starts=bounds[:, 0].copy(),
            stops=bounds[:, 1].copy(),
            counts=np.array(acc.block_counts, dtype=np.int64).reshape(-1, n),
            sum_zr=np.array(acc.block_sum_zr, dtype=np.float64).reshape(-1, n),
        )
    return Surface(
        grid=grid,
        moments=list(moments),
        counts=np.array([acc.counts for acc in accs], dtype=np.int64).reshape(-1, n),
        mean_zp=means[0],
        mean_zr=means[1],
        mean_r_raw=means[2],
        out_of_grid=np.array([acc.out_of_grid for acc in accs], dtype=np.int64),
        blocks=BlockTables(n, grid.n_min_support, tuple(tables), tables.__getitem__),
    )
