import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushresp.decomposition import (
    EPSILON,
    BootstrapConfig,
    LagSummary,
    MirrorPair,
    block_bootstrap_rho,
    bootstrap_rho,
    block_replicates,
    decompose,
    dominance_ratio,
    lag_weights,
    local_dominance,
    local_dominance_abs,
    magnitude,
    mirror_index,
    pair_terms,
    read_heatmap_csv,
    read_summary_csv,
    rho_lag,
    summarize,
    write_heatmap_csv,
    write_summary_csv,
)
from pushresp.cleaning import empirical_quantile
from pushresp.errors import IndexOutOfRange, InvalidGrid
from pushresp.lags import LagMoments, compute_moments_table
from pushresp.surface import BinGrid, BlockTables, LagBlocks, Surface, accumulate_surface

from conftest import make_series


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


class TestMirrorIndex:
    def test_examples(self):
        assert mirror_index(1) == 320
        assert mirror_index(161) == 160
        assert mirror_index(320) == 1

    def test_center_negation(self):
        g = BinGrid()
        assert g.bin_center(50) + g.bin_center(271) == 0.0
        for j in range(1, 321):
            assert abs(g.bin_center(j) + g.bin_center(mirror_index(j))) < 2e-15

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            mirror_index(0)
        with pytest.raises(IndexOutOfRange):
            mirror_index(321)


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


class TestLocalDominance:
    def test_pure_antisymmetry_near_one(self):
        assert local_dominance(0.0, 0.4) == pytest.approx(1.0, abs=1e-11)

    def test_zero_numerator(self):
        assert local_dominance(0.3, 0.0) == 0.0

    def test_direct_evaluation(self):
        assert local_dominance(0.2, -0.2) == pytest.approx(-0.5, rel=1e-11)

    def test_alt_index_maps_symmetry_to_minus_one(self):
        assert local_dominance_abs(0.3, 0.0) == pytest.approx(-1.0, abs=1e-11)
        assert local_dominance_abs(0.0, 0.4) == pytest.approx(1.0, abs=1e-11)

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
    def _pair(self, k, zr_pos, zr_neg, r_pos=0.0, r_neg=0.0, n=300, w=1.0):
        return MirrorPair(
            lag=10, abs_index=k, abs_center=0.0, n_pos=n, n_neg=n,
            mean_zr_pos=zr_pos, mean_zr_neg=zr_neg,
            mean_r_raw_pos=r_pos, mean_r_raw_neg=r_neg,
            S=0.5 * (zr_pos + zr_neg), A=0.5 * (zr_pos - zr_neg),
            rho_local=0.0, rho_local_alt=0.0, weight=w,
        )

    def test_all_zero_means(self):
        pairs = [self._pair(1, 0.0, 0.0), self._pair(2, 0.0, 0.0)]
        assert magnitude(pairs, np.array([0.5, 0.5])) == 0.0

    def test_single_pair(self):
        pairs = [self._pair(1, 0.4, -0.4)]
        assert magnitude(pairs, np.array([1.0])) == pytest.approx(0.4, rel=1e-15)

    def test_three_pair_table_direct_recomputation(self):
        spec = [(1, 0.5, -0.3, 0.02, -0.01, 1000),
                (2, -0.2, 0.6, -0.005, 0.015, 500),
                (3, 0.1, 0.1, 0.001, 0.001, 250)]
        pairs = [self._pair(k, zp, zn, rp, rn, n) for k, zp, zn, rp, rn, n in spec]
        w = np.array([1000, 500, 250], dtype=float)
        w = w / w.sum()
        want_std = sum(
            wi * (abs(zp) + abs(zn)) / 2 for wi, (_, zp, zn, _, _, _) in zip(w, spec)
        )
        want_raw = sum(
            wi * (abs(rp) + abs(rn)) / 2 for wi, (_, _, _, rp, rn, _) in zip(w, spec)
        )
        assert magnitude(pairs, w, "standardized") == pytest.approx(want_std, rel=1e-14)
        assert magnitude(pairs, w, "raw") == pytest.approx(want_raw, rel=1e-14)


def reference_bootstrap(pairs, weights, cfg):
    """Second implementation from the formula, same seed-stream contract."""
    rng = np.random.default_rng(
        np.random.SeedSequence(entropy=cfg.seed, spawn_key=(pairs[0].lag,))
    )
    k = len(pairs)
    draws = rng.choice(k, size=(cfg.n_replicates, k), replace=True, p=weights)
    rhos = []
    for b in range(cfg.n_replicates):
        num_a = sum(abs(pairs[i].A) for i in draws[b])
        num_s = sum(abs(pairs[i].S) for i in draws[b])
        rhos.append(0.0 if num_a + num_s == 0 else (num_a - num_s) / (num_a + num_s))
    rhos.sort()
    def q(p):
        idx = min(max(math.ceil(p * len(rhos)), 1), len(rhos))
        return rhos[idx - 1]
    return q(cfg.quantiles[0]), q(cfg.quantiles[1])


class TestBootstrap:
    def _pairs(self, rows, lag=10):
        pairs = []
        for k, (a, s, n) in enumerate(rows, start=1):
            zr_pos, zr_neg = s + a, s - a
            pairs.append(
                MirrorPair(
                    lag=lag, abs_index=k, abs_center=0.0, n_pos=n, n_neg=n,
                    mean_zr_pos=zr_pos, mean_zr_neg=zr_neg,
                    mean_r_raw_pos=0.0, mean_r_raw_neg=0.0,
                    S=s, A=a, rho_local=0.0, rho_local_alt=0.0, weight=0.0,
                )
            )
        w = lag_weights(pairs)
        return [p for p in pairs], w

    def test_single_pair_band_collapses_to_point(self):
        pairs, w = self._pairs([(0.3, 0.1, 400)])
        lo, hi = bootstrap_rho(pairs, w, BootstrapConfig(n_replicates=500, seed=3))
        point, _ = rho_lag(np.array([0.3]), np.array([0.1]), w)
        assert lo == hi == pytest.approx(point, rel=1e-15)

    def test_pure_antisymmetric_band_is_one(self):
        pairs, w = self._pairs([(0.4, 0.0, 300), (0.2, 0.0, 500), (0.1, 0.0, 200)])
        lo, hi = bootstrap_rho(pairs, w, BootstrapConfig(n_replicates=200, seed=9))
        assert lo == 1.0 and hi == 1.0

    def test_matches_reference_implementation(self, rng):
        rows = [
            (float(a), float(s), int(n))
            for a, s, n in zip(
                rng.normal(0, 0.3, 10), rng.normal(0, 0.3, 10), rng.integers(200, 2000, 10)
            )
        ]
        pairs, w = self._pairs(rows)
        cfg = BootstrapConfig(n_replicates=10_000, seed=42)
        lo, hi = bootstrap_rho(pairs, w, cfg)
        ref_lo, ref_hi = reference_bootstrap(pairs, w, cfg)
        assert lo == pytest.approx(ref_lo, abs=0.01)
        assert hi == pytest.approx(ref_hi, abs=0.01)

    def test_deterministic_given_seed(self):
        pairs, w = self._pairs([(0.3, 0.2, 300), (0.1, 0.4, 800), (0.2, 0.0, 250)])
        cfg = BootstrapConfig(n_replicates=777, seed=123)
        assert bootstrap_rho(pairs, w, cfg) == bootstrap_rho(pairs, w, cfg)

    def test_selection_weight_mode_differs(self):
        pairs, w = self._pairs([(0.5, 0.0, 200), (0.0, 0.5, 2000)])
        eq = bootstrap_rho(pairs, w, BootstrapConfig(n_replicates=400, seed=5))
        sel = bootstrap_rho(
            pairs, w,
            BootstrapConfig(n_replicates=400, seed=5, recompute_weights="selection"),
        )
        assert eq != sel


class TestBlockBootstrap:
    @staticmethod
    def _blocks(counts, sums, lag=100):
        counts = np.asarray(counts, dtype=np.int64)
        n_blocks = counts.shape[0]
        lb = LagBlocks(
            lag=lag,
            starts=np.arange(n_blocks, dtype=np.int64) * 1000,
            stops=np.arange(1, n_blocks + 1, dtype=np.int64) * 1000,
            counts=counts,
            sum_zr=np.asarray(sums, dtype=np.float64),
        )
        return BlockTables(n_bins=counts.shape[1], n_min_support=200, lags=(lag,),
                           load={lag: lb}.__getitem__)

    def _surface_and_blocks(self, n_blocks):
        cells = {}
        for k in (5, 40, 90):
            cells.update(mirror_cells(k, 400 * n_blocks, 500 * n_blocks, 0.3, -0.1))
        surf = build_surface(cells)
        counts = np.repeat(surf.counts // n_blocks, n_blocks, axis=0)
        sums = np.nan_to_num(np.repeat(surf.mean_zr * surf.counts / n_blocks, n_blocks, axis=0))
        return surf, self._blocks(counts, sums)

    def test_single_block_band_is_whole_range(self):
        surf, blocks = self._surface_and_blocks(1)
        (summary,) = summarize(decompose(surf), BootstrapConfig(n_replicates=200, seed=1), blocks)
        assert (summary.ci_low, summary.ci_high) == (-1.0, 1.0)
        assert summary.ci_low < summary.rho < summary.ci_high

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
        blocks = self._blocks(counts, sums, lag=20)
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
        blocks = self._blocks(counts, sums)
        cfg = BootstrapConfig(n_replicates=300, seed=8)
        band = block_bootstrap_rho(blocks[100], 200, cfg, 0.1)
        assert band == block_bootstrap_rho(blocks[100], 200, cfg, 0.1)
        assert -1.0 <= band[0] < band[1] <= 1.0
        other = self._blocks(counts, sums, lag=101)
        assert block_bootstrap_rho(other[101], 200, cfg, 0.1) != band


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
        rho_base = summarize(base, boot)[0].rho
        rho_neg = summarize(neg, boot)[0].rho
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
        pairs = decompose(build_surface(cells))
        (summary,) = summarize(pairs, BootstrapConfig(n_replicates=300, seed=11))
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
        pairs = decompose(build_surface(cells))
        summaries = summarize(pairs, BootstrapConfig(n_replicates=100, seed=2))
        hp = tmp_path / "heat.csv"
        sp = tmp_path / "lags.csv"
        write_heatmap_csv(pairs, hp)
        write_summary_csv(summaries, sp)
        assert read_heatmap_csv(hp) == pairs
        assert read_summary_csv(sp) == summaries
        head = hp.read_text().splitlines()[0].split(",")
        assert head[:7] == ["lag", "abs_index", "abs_center", "S", "A",
                            "rho_local", "rho_local_alt"]

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
