import dataclasses
import math

import numpy as np
import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from pushresp.decomposition import (
    EPSILON,
    LOCAL_INDEX_CHOICES,
    BootstrapConfig,
    bootstrap_rho,
    block_replicates,
    decompose,
    dominance_ratio,
    pair_terms,
    read_heatmap_csv,
    read_summary_csv,
    rho_lag,
    summarize,
    write_heatmap_csv,
    write_summary_csv,
)
from pushresp.cleaning import empirical_quantile
from pushresp.errors import ArtifactIOError, InvalidGrid
from pushresp.lags import LagMoments, compute_moments_table
from pushresp.surface import BinGrid, BlockTables, LagBlocks, Surface, accumulate_surface
from pushresp.synthetic import SyntheticSpec, generate

from conftest import make_series
from decomposition_oracle import oracle_decompose, oracle_magnitudes


def build_surface(cell_data, n_min=200, lag=100):
    """Surface with the given cells; cell_data maps 1-based bin -> (count, mean_zr, mean_r)."""
    grid = BinGrid(n_min_support=n_min)
    counts = np.zeros((1, grid.n_bins), dtype=np.int64)
    mean_zp = np.full((1, grid.n_bins), np.nan)
    mean_zr = np.full((1, grid.n_bins), np.nan)
    mean_r = np.full((1, grid.n_bins), np.nan)
    for j, (count, zr, rr) in cell_data.items():
        counts[0, j - 1] = count
        mean_zp[0, j - 1] = grid.bin_center(j)
        mean_zr[0, j - 1] = zr
        mean_r[0, j - 1] = rr
    moments = [LagMoments(lag=lag, n_pairs=int(counts.sum()), mu_p=0.0,
                          sigma_p=1.0, mu_r=0.0, sigma_r=1.0)]
    return Surface(
        grid=grid, moments=moments, counts=counts, mean_zp=mean_zp,
        mean_zr=mean_zr, mean_r_raw=mean_r,
        out_of_grid=np.zeros(1, dtype=np.int64),
    )


def mirror_cells(abs_index, n_pos, n_neg, zr_pos, zr_neg, r_pos=0.0, r_neg=0.0):
    """Cell dict entries for a +/- bin pair at the given absolute offset."""
    return {
        160 + abs_index: (n_pos, zr_pos, r_pos),
        161 - abs_index: (n_neg, zr_neg, r_neg),
    }


def block_tables(tables, n_min_support=200):
    """Block tables over {lag: (counts [n_blocks, n_bins], sums)}."""
    def load(lag):
        counts, sums = tables[lag]
        n_blocks = len(counts)
        return LagBlocks(
            lag=lag,
            starts=np.arange(n_blocks, dtype=np.int64) * 1000,
            stops=np.arange(1, n_blocks + 1, dtype=np.int64) * 1000,
            counts=np.asarray(counts, dtype=np.int64),
            sum_zr=np.asarray(sums, dtype=np.float64),
        )
    n_bins = len(next(iter(tables.values()))[0][0])
    return BlockTables(n_bins=n_bins, n_min_support=n_min_support, lags=tuple(tables),
                       load=load)


def split_blocks(surf, n_blocks=4):
    """Block tables that cut each lag of a built surface into n_blocks
    blocks whose counts differ by at most one and sum to the surface's;
    each block's sums follow the cell means. Where n_blocks divides every
    count the blocks are identical and every replicate is the surface."""
    tables = {}
    for i, lag in enumerate(surf.lags):
        counts = (surf.counts[i] + np.arange(n_blocks)[:, None]) // n_blocks
        tables[lag] = (counts, np.nan_to_num(counts * surf.mean_zr[i]))
    return block_tables(tables, surf.grid.n_min_support)


def one_summary(pairs, surf, n_replicates=20):
    (summary,) = summarize(pairs, BootstrapConfig(n_replicates=n_replicates, seed=1),
                           split_blocks(surf))
    return summary


class TestMirrorIndex:
    # bin 160 + k and bin 161 - k form pair k on the default 320-bin grid
    def test_examples(self):
        cells = mirror_cells(1, 301, 302, 0.1, 0.2)        # bins 161 and 160
        cells.update(mirror_cells(40, 303, 304, 0.3, 0.4))  # bins 200 and 121
        cells.update(mirror_cells(160, 305, 306, 0.5, 0.6))  # bins 320 and 1
        pairs = decompose(build_surface(cells))
        assert [(p.abs_index, p.n_pos, p.n_neg, p.mean_zr_pos, p.mean_zr_neg)
                for p in pairs] == [(1, 301, 302, 0.1, 0.2), (40, 303, 304, 0.3, 0.4),
                                    (160, 305, 306, 0.5, 0.6)]

    def test_center_negation(self):
        g = BinGrid()
        assert g.bin_center(50) + g.bin_center(271) == 0.0
        cells = {}
        for k in range(1, 161):
            cells.update(mirror_cells(k, 300, 300, 0.1, 0.1))
        for p in decompose(build_surface(cells)):
            assert p.abs_center == g.bin_center(160 + p.abs_index)
            assert abs(p.abs_center + g.bin_center(161 - p.abs_index)) < 2e-15

    def test_out_of_range(self):
        # every cell of the grid pairs up, and no pair reaches past its edges
        surf = build_surface({j: (300, 0.1, 0.0) for j in range(1, 321)})
        pairs = decompose(surf)
        assert [p.abs_index for p in pairs] == list(range(1, 161))
        assert pairs[0].abs_center == pytest.approx(0.0125, rel=1e-12)
        assert pairs[-1].abs_center == pytest.approx(3.9875, rel=1e-12)


class TestDecompose:
    def test_pure_antisymmetry(self):
        surf = build_surface(mirror_cells(40, 300, 300, 0.4, -0.4))
        (pair,) = decompose(surf)
        assert pair.S == 0.0
        assert pair.A == pytest.approx(0.4, rel=1e-15)
        assert pair.abs_index == 40

    def test_pure_symmetry(self):
        surf = build_surface(mirror_cells(40, 300, 300, 0.3, 0.3))
        (pair,) = decompose(surf)
        assert pair.S == pytest.approx(0.3, rel=1e-15)
        assert pair.A == 0.0

    def test_reconstruction(self):
        surf = build_surface(mirror_cells(12, 250, 400, 0.5, 0.1))
        (pair,) = decompose(surf)
        assert pair.S == pytest.approx(0.3, rel=1e-15)
        assert pair.A == pytest.approx(0.2, rel=1e-15)
        assert pair.S + pair.A == pytest.approx(0.5, rel=1e-15)
        assert pair.S - pair.A == pytest.approx(0.1, rel=1e-15)

    def test_asymmetric_grid_rejected(self):
        # 320 bins over [-3, 5): bin 160 + k and bin 161 - k are not mirrors
        surf = build_surface(mirror_cells(40, 300, 300, 0.4, -0.4))
        shifted = dataclasses.replace(surf, grid=BinGrid(z_min=-3.0, z_max=5.0))
        with pytest.raises(InvalidGrid, match="symmetric about 0"):
            decompose(shifted)

    def test_unsupported_side_blanks_pair(self):
        cells = mirror_cells(10, 300, 199, 0.2, 0.1)  # negative side below n_min
        cells.update(mirror_cells(20, 300, 300, 0.2, 0.1))
        surf = build_surface(cells)
        pairs = decompose(surf)
        assert [p.abs_index for p in pairs] == [20]

    def test_weights_normalized_per_lag(self):
        cells = mirror_cells(5, 300, 300, 0.1, 0.0)
        cells.update(mirror_cells(9, 600, 600, 0.2, 0.0))
        surf = build_surface(cells)
        pairs = decompose(surf)
        assert pairs[0].weight == pytest.approx(1 / 3, rel=1e-15)
        assert pairs[1].weight == pytest.approx(2 / 3, rel=1e-15)

    @given(
        st.dictionaries(
            st.integers(1, 160),
            st.tuples(
                st.integers(200, 5000),
                st.integers(200, 5000),
                st.floats(-2, 2, allow_nan=False),
                st.floats(-2, 2, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_and_weight_sum_property(self, table):
        cells = {}
        for k, (n_pos, n_neg, zr_pos, zr_neg) in table.items():
            cells.update(mirror_cells(k, n_pos, n_neg, zr_pos, zr_neg))
        surf = build_surface(cells)
        pairs = decompose(surf)
        assert len(pairs) == len(table)
        for p in pairs:
            zr_pos = table[p.abs_index][2]
            zr_neg = table[p.abs_index][3]
            assert p.S + p.A == pytest.approx(zr_pos, rel=1e-15, abs=1e-15)
            assert p.S - p.A == pytest.approx(zr_neg, rel=1e-15, abs=1e-15)
            assert -1.0 <= p.rho_local <= 1.0
        assert sum(p.weight for p in pairs) == pytest.approx(1.0, abs=1e-15)


@st.composite
def small_surfaces(draw):
    """Surfaces of 1-4 lags on the [-2, 2) grid of step 0.1 (40 bins).
    Cell counts cluster at 0, just below and at n_min_support; a lag may
    hold no count at all; a mirror pair may be zero, even, odd or free,
    so A == S == 0 pairs occur. Empty cells hold nan means."""
    n_min = draw(st.integers(1, 50))
    grid = BinGrid(z_min=-2.0, z_max=2.0, step=0.1, n_min_support=n_min)
    n, half = grid.n_bins, grid.n_bins // 2
    lags = sorted(draw(st.sets(st.integers(1, 5000), min_size=1, max_size=4)))
    count = st.sampled_from([0, n_min - 1, n_min, n_min + 1]) | st.integers(0, 4 * n_min)
    value = st.sampled_from([0.0, 0.5, -0.25]) | st.floats(-3, 3, allow_nan=False)
    counts = np.zeros((len(lags), n), dtype=np.int64)
    mean_zr = np.full((len(lags), n), np.nan)
    mean_r = np.full((len(lags), n), np.nan)
    for i in range(len(lags)):
        if draw(st.integers(0, 4)) == 0:
            continue  # a lag without anchors in the grid
        counts[i] = draw(st.lists(count, min_size=n, max_size=n))
        for k in range(half):
            pos, neg = half + k, half - 1 - k
            zr = draw(value)
            shape = draw(st.sampled_from(["zero", "even", "odd", "free"]))
            zr_pos, zr_neg = {
                "zero": (0.0, 0.0), "even": (zr, zr), "odd": (zr, -zr),
                "free": (zr, draw(value)),
            }[shape]
            mean_zr[i, pos], mean_zr[i, neg] = zr_pos, zr_neg
            mean_r[i, pos], mean_r[i, neg] = 0.01 * draw(value), 0.01 * draw(value)
        empty = counts[i] == 0
        mean_zr[i, empty] = mean_r[i, empty] = np.nan
    moments = [LagMoments(lag=lag, n_pairs=int(c.sum()), mu_p=0.0, sigma_p=1.0,
                          mu_r=0.0, sigma_r=1.0) for lag, c in zip(lags, counts)]
    return Surface(grid=grid, moments=moments, counts=counts,
                   mean_zp=np.where(counts > 0, grid.centers(), np.nan),
                   mean_zr=mean_zr, mean_r_raw=mean_r,
                   out_of_grid=np.zeros(len(lags), dtype=np.int64))


def assert_same_pairs(got, want):
    assert got == want
    assert [repr(p) for p in got] == [repr(p) for p in want]


class TestDecomposeOracle:
    """The array `decompose` and `summarize`'s magnitudes against the
    per-pair loop of decomposition_oracle, bit for bit."""

    # Without the shrink phase a failure is reported as drawn: shrinking
    # these surfaces cell by cell took minutes, finding one a few seconds.
    @given(small_surfaces(), st.sampled_from(LOCAL_INDEX_CHOICES))
    @settings(max_examples=150, deadline=None,
              phases=[p for p in Phase if p is not Phase.shrink])
    def test_matches_per_pair_loop(self, surf, local_index):
        pairs = decompose(surf, local_index)
        assert_same_pairs(pairs, oracle_decompose(surf, local_index))
        summaries = summarize(pairs, BootstrapConfig(n_replicates=1), split_blocks(surf, 2))
        want = oracle_magnitudes(pairs)
        assert [s.lag for s in summaries] == sorted(want)
        for s in summaries:
            assert (repr(s.M), repr(s.M_raw)) == tuple(map(repr, want[s.lag]))

    @pytest.mark.parametrize("kind,phi", [("momentum", 0.3), ("null_walk", 0.0),
                                          ("reversal", -0.3)])
    def test_matches_per_pair_loop_on_walks(self, kind, phi):
        series = generate(SyntheticSpec(kind=kind, n_events=200_000, n_sessions=2,
                                        inject_lag=10, phi=phi, seed=5))
        surf = accumulate_surface(series, compute_moments_table(series, [1, 10, 50, 400]),
                                  BinGrid(n_min_support=50))
        for local_index in LOCAL_INDEX_CHOICES:
            pairs = decompose(surf, local_index)
            assert len({p.lag for p in pairs}) == 4
            assert_same_pairs(pairs, oracle_decompose(surf, local_index))


class TestLocalDominance:
    @staticmethod
    def _pair(zr_pos, zr_neg, local_index="eq319"):
        (pair,) = decompose(build_surface(mirror_cells(30, 300, 300, zr_pos, zr_neg)),
                            local_index)
        return pair

    def test_pure_antisymmetry_near_one(self):
        assert self._pair(0.4, -0.4).rho_local == pytest.approx(1.0, abs=1e-11)

    def test_zero_numerator(self):
        assert self._pair(0.3, 0.3).rho_local == 0.0

    def test_direct_evaluation(self):
        # S = 0.2, A = -0.2
        assert self._pair(0.0, 0.4).rho_local == pytest.approx(-0.5, rel=1e-11)

    def test_alt_index_maps_symmetry_to_minus_one(self):
        assert self._pair(0.3, 0.3, "absratio").rho_local == pytest.approx(-1.0, abs=1e-11)
        assert self._pair(0.4, -0.4, "absratio").rho_local == pytest.approx(1.0, abs=1e-11)

    def test_epsilon_value(self):
        assert EPSILON == 1e-12


class TestRhoLag:
    def test_pure_antisymmetric_pairs(self):
        rho, degenerate = rho_lag(np.array([0.4, 0.2]), np.array([0.0, 0.0]),
                                  np.array([0.5, 0.5]))
        assert rho == 1.0 and not degenerate

    def test_pure_symmetric_pairs(self):
        rho, _ = rho_lag(np.array([0.0, 0.0]), np.array([0.4, 0.2]),
                         np.array([0.5, 0.5]))
        assert rho == -1.0

    def test_symmetric_cancellation(self):
        rho, _ = rho_lag(np.array([0.2, 0.1]), np.array([0.1, 0.2]),
                         np.array([0.5, 0.5]))
        assert rho == pytest.approx(0.0, abs=1e-15)

    def test_degenerate_returns_zero_with_flag(self):
        rho, degenerate = rho_lag(np.array([0.0]), np.array([0.0]), np.array([1.0]))
        assert rho == 0.0 and degenerate


class TestMagnitude:
    def test_all_zero_means(self):
        cells = mirror_cells(1, 300, 300, 0.0, 0.0)
        cells.update(mirror_cells(2, 300, 300, 0.0, 0.0))
        surf = build_surface(cells)
        summary = one_summary(decompose(surf), surf)
        assert summary.M == 0.0 and summary.M_raw == 0.0

    def test_single_pair(self):
        surf = build_surface(mirror_cells(1, 300, 300, 0.4, -0.4))
        assert one_summary(decompose(surf), surf).M == pytest.approx(0.4, rel=1e-15)

    def test_three_pair_table_direct_recomputation(self):
        spec = [(1, 0.5, -0.3, 0.02, -0.01, 1000),
                (2, -0.2, 0.6, -0.005, 0.015, 500),
                (3, 0.1, 0.1, 0.001, 0.001, 250)]
        cells = {}
        for k, zp, zn, rp, rn, n in spec:
            cells.update(mirror_cells(k, n, n, zp, zn, rp, rn))
        surf = build_surface(cells)
        summary = one_summary(decompose(surf), surf)
        w = np.array([1000, 500, 250], dtype=float)
        w = w / w.sum()
        want_std = sum(
            wi * (abs(zp) + abs(zn)) / 2 for wi, (_, zp, zn, _, _, _) in zip(w, spec)
        )
        want_raw = sum(
            wi * (abs(rp) + abs(rn)) / 2 for wi, (_, _, _, rp, rn, _) in zip(w, spec)
        )
        assert summary.M == pytest.approx(want_std, rel=1e-14)
        assert summary.M_raw == pytest.approx(want_raw, rel=1e-14)


class TestBlockBootstrap:
    def _surface_and_blocks(self, n_blocks):
        cells = {}
        for k in (5, 40, 90):
            cells.update(mirror_cells(k, 400 * n_blocks, 500 * n_blocks, 0.3, -0.1))
        surf = build_surface(cells)
        return surf, split_blocks(surf, n_blocks)

    def test_single_block_band_is_whole_range(self):
        surf, blocks = self._surface_and_blocks(1)
        (summary,) = summarize(decompose(surf), BootstrapConfig(n_replicates=200, seed=1), blocks)
        assert (summary.ci_low, summary.ci_high) == (-1.0, 1.0)
        assert summary.ci_low < summary.rho < summary.ci_high

    def test_single_pair_band_collapses_to_point(self):
        # identical blocks: every replicate is the one-pair surface itself
        surf = build_surface(mirror_cells(7, 1600, 1600, 0.4, -0.2))  # A 0.3, S 0.1
        summary = one_summary(decompose(surf), surf, n_replicates=500)
        point, _ = rho_lag(np.array([0.3]), np.array([0.1]), np.array([1.0]))
        assert summary.rho == pytest.approx(point, rel=1e-12)
        assert summary.ci_low == summary.ci_high == pytest.approx(summary.rho, rel=1e-15)

    def test_pure_antisymmetric_band_is_one(self, rng):
        # blocks of unequal counts, but each block's mirror cells hold the
        # same count and opposite sums, so every replicate has S = 0
        n_blocks = 5
        counts = np.zeros((n_blocks, 320), dtype=np.int64)
        sums = np.zeros((n_blocks, 320))
        cells = {}
        for k, a in ((1, 0.4), (2, 0.2), (3, 0.1)):
            n = rng.integers(60, 120, n_blocks)
            s = n * a + rng.normal(0, 1, n_blocks)
            counts[:, 159 + k], counts[:, 160 - k] = n, n
            sums[:, 159 + k], sums[:, 160 - k] = s, -s
            zr = s.sum() / n.sum()
            cells.update(mirror_cells(k, int(n.sum()), int(n.sum()), zr, -zr))
        (summary,) = summarize(decompose(build_surface(cells)),
                               BootstrapConfig(n_replicates=200, seed=9),
                               block_tables({100: (counts, sums)}))
        assert summary.rho == 1.0
        assert summary.ci_low == 1.0 and summary.ci_high == 1.0

    def test_identical_blocks_give_point_band(self):
        # every replicate redraws the same surface
        surf, blocks = self._surface_and_blocks(4)
        (summary,) = summarize(decompose(surf), BootstrapConfig(n_replicates=200, seed=1), blocks)
        assert summary.ci_low == pytest.approx(summary.rho, rel=1e-12)
        assert summary.ci_high == pytest.approx(summary.rho, rel=1e-12)

    def test_full_tables_reproduce_surface_rho(self, rng):
        # a replicate that drew every block once is the surface itself
        series = make_series([100 + np.cumsum(rng.standard_normal(n) * 0.01)
                              for n in (150_000, 160_000)])
        lags = [1, 3, 30]
        surf = accumulate_surface(series, compute_moments_table(series, lags),
                                  BinGrid(n_min_support=50))
        summaries = summarize(decompose(surf), BootstrapConfig(n_replicates=50, seed=4),
                              surf.blocks)
        for s in summaries:
            b = surf.blocks[s.lag]
            counts = b.counts.sum(axis=0)
            sums = np.array([math.fsum(col) for col in b.sum_zr.T])
            support, A, S = pair_terms(counts, sums / np.maximum(counts, 1), 50)
            full = dominance_ratio(support @ np.abs(A), support @ np.abs(S))
            assert full == pytest.approx(s.rho, rel=1e-12, abs=1e-14)
            assert s.ci_low <= s.rho <= s.ci_high and b.n_blocks >= 40

    def test_band_holds_rho_at_planted_lag(self, rng):
        # Every pair carries A = 0.1 and S = 0; the blocks add noise. A
        # replicate adds the redraw's noise to the data's, so |S| grows
        # and the replicates' statistic sinks below rho: their plain
        # percentile band misses rho, the shifted band holds it.
        n_blocks, n_cell = 40, 300
        centers = BinGrid().centers()
        counts = np.full((n_blocks, 320), n_cell, dtype=np.int64)
        sums = n_cell * 0.1 * np.sign(centers) + rng.normal(0, math.sqrt(n_cell), (n_blocks, 320))
        blocks = block_tables({20: (counts, sums)})
        surf = build_surface({
            j + 1: (n_blocks * n_cell, sums[:, j].sum() / (n_blocks * n_cell), 0.0)
            for j in range(320)
        }, lag=20)
        cfg = BootstrapConfig(n_replicates=1000, seed=2)
        (summary,) = summarize(decompose(surf), cfg, blocks)
        stats = block_replicates(blocks[20], 200, cfg)
        q_lo, q_hi = (empirical_quantile(stats, q) for q in cfg.quantiles)
        assert q_hi < summary.rho
        assert summary.ci_low <= summary.rho <= summary.ci_high
        assert summary.ci_high - summary.ci_low == pytest.approx(q_hi - q_lo, rel=1e-9)
        assert summary.ci_low > 0.5

    def test_deterministic_and_keyed_on_lag(self, rng):
        counts = rng.integers(150, 400, size=(6, 320))
        sums = rng.normal(0, 20, size=(6, 320))
        blocks = block_tables({100: (counts, sums)})
        cfg = BootstrapConfig(n_replicates=300, seed=8)
        band = bootstrap_rho(blocks[100], 200, cfg, 0.1)
        assert band == bootstrap_rho(blocks[100], 200, cfg, 0.1)
        assert -1.0 <= band[0] < band[1] <= 1.0
        other = block_tables({101: (counts, sums)})
        assert bootstrap_rho(other[101], 200, cfg, 0.1) != band


class TestBootstrap:
    def test_deterministic_given_seed(self, rng):
        # the band is a function of the blocks and the seed alone
        counts = rng.integers(150, 400, size=(8, 320))
        sums = rng.normal(0, 20, size=(8, 320))
        blocks = block_tables({50: (counts, sums)})[50]
        cfg = BootstrapConfig(n_replicates=777, seed=123)
        stats = block_replicates(blocks, 200, cfg)
        assert np.array_equal(stats, block_replicates(blocks, 200, cfg))
        band = bootstrap_rho(blocks, 200, cfg, 0.2)
        assert band == bootstrap_rho(blocks, 200, cfg, 0.2)
        other = BootstrapConfig(n_replicates=777, seed=124)
        assert not np.array_equal(stats, block_replicates(blocks, 200, other))


class TestEquivariance:
    @given(
        st.lists(
            st.tuples(
                st.integers(1, 160),
                st.integers(200, 3000),
                st.integers(200, 3000),
                st.floats(-1, 1, allow_nan=False),
                st.floats(-1, 1, allow_nan=False),
            ),
            min_size=1,
            max_size=8,
            unique_by=lambda t: t[0],
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_sign_flip_and_mirror(self, rows):
        cells, flipped, mirrored = {}, {}, {}
        for k, n_pos, n_neg, zr_pos, zr_neg in rows:
            cells.update(mirror_cells(k, n_pos, n_neg, zr_pos, zr_neg))
            flipped.update(mirror_cells(k, n_pos, n_neg, -zr_pos, -zr_neg))
            mirrored.update(mirror_cells(k, n_neg, n_pos, zr_neg, zr_pos))
        base = decompose(build_surface(cells))
        neg = decompose(build_surface(flipped))
        mir = decompose(build_surface(mirrored))
        boot = BootstrapConfig(n_replicates=50, seed=7)
        rho_base = summarize(base, boot, split_blocks(build_surface(cells)))[0].rho
        rho_neg = summarize(neg, boot, split_blocks(build_surface(flipped)))[0].rho
        for pb, pn, pm in zip(base, neg, mir):
            # negating all means flips S and A jointly, flips rho_local
            assert pn.S == pytest.approx(-pb.S, rel=1e-12, abs=1e-15)
            assert pn.A == pytest.approx(-pb.A, rel=1e-12, abs=1e-15)
            assert pn.rho_local == pytest.approx(-pb.rho_local, rel=1e-9, abs=1e-12)
            # mirroring the push axis negates A, preserves S, flips rho_local
            assert pm.S == pytest.approx(pb.S, rel=1e-12, abs=1e-15)
            assert pm.A == pytest.approx(-pb.A, rel=1e-12, abs=1e-15)
            assert pm.rho_local == pytest.approx(-pb.rho_local, rel=1e-9, abs=1e-12)
        assert rho_neg == pytest.approx(rho_base, rel=1e-12, abs=1e-15)


class TestSummaries:
    def test_summarize_bounds_and_counts(self, rng):
        cells = {}
        for k in range(1, 30):
            cells.update(
                mirror_cells(
                    k,
                    int(rng.integers(200, 1000)),
                    int(rng.integers(200, 1000)),
                    float(rng.normal(0, 0.4)),
                    float(rng.normal(0, 0.4)),
                )
            )
        surf = build_surface(cells)
        (summary,) = summarize(decompose(surf), BootstrapConfig(n_replicates=300, seed=11),
                               split_blocks(surf))
        assert -1.0 <= summary.rho <= 1.0
        assert -1.0 <= summary.ci_low <= summary.ci_high <= 1.0
        assert summary.M >= 0.0
        assert summary.M_raw >= 0.0
        assert summary.n_supported_pairs == 29

    def test_csv_round_trips(self, tmp_path, rng):
        cells = {}
        for k in (3, 17, 90):
            cells.update(
                mirror_cells(
                    k, 400, 500,
                    float(rng.normal()), float(rng.normal()),
                    float(rng.normal() * 0.01), float(rng.normal() * 0.01),
                )
            )
        surf = build_surface(cells)
        pairs = decompose(surf)
        summaries = summarize(pairs, BootstrapConfig(n_replicates=100, seed=2),
                              split_blocks(surf))
        hp = tmp_path / "heat.csv"
        sp = tmp_path / "lags.csv"
        write_heatmap_csv(pairs, hp)
        write_summary_csv(summaries, sp)
        assert read_heatmap_csv(hp) == pairs
        assert read_summary_csv(sp) == summaries
        head = hp.read_text().splitlines()[0].split(",")
        assert head[:7] == ["lag", "abs_index", "abs_center", "S", "A",
                            "rho_local", "rho_local_alt"]

    def test_non_numeric_field_rejected(self, tmp_path):
        surf = build_surface(mirror_cells(25, 300, 300, 0.3, 0.3))
        sp = tmp_path / "lags.csv"
        write_summary_csv(summarize(decompose(surf), BootstrapConfig(n_replicates=10, seed=2),
                                    split_blocks(surf)), sp)
        head, row = sp.read_text().splitlines()
        fields = row.split(",")
        fields[1] = "nope"  # rho
        sp.write_text(head + "\n" + ",".join(fields) + "\n")
        with pytest.raises(ArtifactIOError, match="line 2: rho 'nope' is not a number"):
            read_summary_csv(sp)

    def test_empty_tables_are_header_only(self, tmp_path):
        hp = tmp_path / "heat.csv"
        sp = tmp_path / "lags.csv"
        write_heatmap_csv([], hp)
        write_summary_csv([], sp)
        assert len(hp.read_text().splitlines()) == 1
        assert len(sp.read_text().splitlines()) == 1
        assert read_heatmap_csv(hp) == []
        assert read_summary_csv(sp) == []

    def test_local_index_flag_swaps_columns(self):
        surf = build_surface(mirror_cells(25, 300, 300, 0.3, 0.3))
        (default_pair,) = decompose(surf, "eq319")
        (alt_pair,) = decompose(surf, "absratio")
        assert default_pair.rho_local == 0.0           # signed share of pure symmetry
        assert alt_pair.rho_local == pytest.approx(-1.0, abs=1e-11)
        assert default_pair.rho_local_alt == alt_pair.rho_local
        assert alt_pair.rho_local_alt == default_pair.rho_local
