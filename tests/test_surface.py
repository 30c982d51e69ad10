import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushresp.errors import (
    ArtifactIOError,
    IndexOutOfRange,
    InvalidGrid,
    MissingArtifact,
    MissingMoments,
)
from pushresp.lags import compute_moments_table
from pushresp.series import read_manifest, write_manifest
from pushresp.surface import (
    CHUNK_ANCHORS,
    BinGrid,
    accumulate_surface,
    block_size,
    read_surface_blocks,
    read_surface_csv,
    surface_manifest,
    write_surface_blocks,
    write_surface_csv,
)
from pushresp.synthetic import SyntheticSpec, generate

from conftest import make_series, traced_peak


def verbatim_bin_index(z, z_min=-4.0, z_max=4.0, step=0.025, n=320):
    """Independent transcription of the index formula."""
    if not (z_min <= z < z_max):
        return None
    j = 1 + math.floor((z - z_min) / step)
    return j if 1 <= j <= n else None


def verbatim_slot(z, z_min=-4.0, z_max=4.0, step=0.025, n=320):
    """verbatim_bin_index in BinGrid.bin_slots form: 0 below the grid,
    n + 1 for any other push off it."""
    j = verbatim_bin_index(z, z_min, z_max, step, n)
    if j is not None:
        return j
    return 0 if z < z_min else n + 1


def brute_force_bins(series, lag, grid):
    """Pure-python oracle: materialize every pair, group by bin, average."""
    pushes, responses = [], []
    for s in series.sessions:
        for t in range(s.start + lag, s.end - lag + 1):
            pushes.append(series.mids[t] - series.mids[t - lag])
            responses.append(series.mids[t + lag] - series.mids[t])
    p = np.array(pushes)
    r = np.array(responses)
    mu_p, sig_p = p.mean(), p.std()
    mu_r, sig_r = r.mean(), r.std()
    groups = {}
    oog = 0
    for push, resp in zip(p, r):
        z_p = (push - mu_p) / sig_p
        z_r = (resp - mu_r) / sig_r
        j = verbatim_bin_index(z_p, grid.z_min, grid.z_max, grid.step, grid.n_bins)
        if j is None:
            oog += 1
            continue
        groups.setdefault(j, []).append((z_p, z_r, resp))
    return groups, oog


class TestBinGrid:
    def test_default_bin_count(self):
        assert BinGrid().n_bins == 320

    def test_invalid_step_rejected(self):
        with pytest.raises(InvalidGrid):
            BinGrid(step=0.03)

    def test_nonpositive_support_rejected(self):
        with pytest.raises(InvalidGrid):
            BinGrid(n_min_support=0)

    def test_edges(self):
        g = BinGrid()
        slots = g.bin_slots(np.array([-4.0, 0.0, 4.0, -4.0000001, 3.9999999]))
        assert slots.tolist() == [1, 161, 321, 0, 320]  # 0 and 321 are off the grid

    def test_every_center_maps_to_its_bin(self):
        g = BinGrid()
        centers = np.array([g.bin_center(j) for j in range(1, 321)])
        np.testing.assert_array_equal(g.bin_slots(centers), np.arange(1, 321))

    def test_matches_verbatim_formula(self, rng):
        g = BinGrid()
        zs = np.concatenate(
            [
                rng.standard_normal(20000) * 2,
                -4.0 + 0.025 * np.arange(321),           # all edges
                -4.0 + 0.025 * np.arange(320) + 0.0125,  # all centers
                np.array([-4.0, 4.0, 3.999999999999999, -3.9999999999999996]),
            ]
        )
        np.testing.assert_array_equal(g.bin_slots(zs), [verbatim_slot(float(z)) for z in zs])

    def test_vectorized_matches_scalar(self, rng):
        g = BinGrid()
        zs = rng.standard_normal(5000) * 2.5
        j0, ok = g.bin_indices(zs)
        for z, j, valid in zip(zs, j0, ok):
            want = verbatim_bin_index(float(z))
            if want is None:
                assert not valid
            else:
                assert valid and j + 1 == want

    def test_centers(self):
        g = BinGrid()
        assert g.bin_center(1) == -3.9875
        assert g.bin_center(161) == pytest.approx(0.0125, abs=1e-12)
        assert g.bin_center(320) == pytest.approx(3.9875, abs=1e-12)
        with pytest.raises(IndexOutOfRange):
            g.bin_center(0)
        with pytest.raises(IndexOutOfRange):
            g.bin_center(321)

    def test_centers_array_matches_scalar(self):
        g = BinGrid()
        np.testing.assert_array_equal(
            g.centers(), np.array([g.bin_center(j) for j in range(1, 321)])
        )


class TestAccumulateSurface:
    def test_single_bin_degenerate_case(self, rng):
        # every push lands in one bin: its mean_zr is the plain average
        n = 600
        incr = np.where(rng.random(n) < 0.5, 0.009, 0.011)
        mids = 100 + np.cumsum(incr)
        series = make_series([mids])
        grid = BinGrid(n_min_support=200)
        rows = compute_moments_table(series, [1])
        surf = accumulate_surface(series, rows, grid)
        nonzero = np.nonzero(surf.counts[0])[0]
        assert len(nonzero) == 2  # two increment values -> two bins
        for col in nonzero:
            if surf.valid[0, col]:
                assert surf.counts[0, col] >= 200

    def test_count_199_is_invalid(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(403) * 0.01)
        series = make_series([mids])
        grid = BinGrid(n_min_support=200)
        rows = compute_moments_table(series, [1])
        surf = accumulate_surface(series, rows, grid)
        # total pairs 401 over ~320 bins: no bin can reach 200 unless degenerate
        for col in np.nonzero(surf.counts[0])[0]:
            assert surf.valid[0, col] == (surf.counts[0, col] >= 200)

    def test_matches_brute_force_enumeration(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(4000) * 0.01)
        series = make_series([mids[:1500], mids[1500:]])
        grid = BinGrid(n_min_support=10)
        lags = [1, 3, 17, 250]
        rows = compute_moments_table(series, lags)
        surf = accumulate_surface(series, rows, grid)
        for lag in lags:
            groups, oog = brute_force_bins(series, lag, grid)
            i = surf.lag_row(lag)
            assert int(surf.out_of_grid[i]) == oog
            got_nonzero = {int(c) + 1 for c in np.nonzero(surf.counts[i])[0]}
            assert got_nonzero == set(groups)
            for j, members in groups.items():
                col = j - 1
                assert surf.counts[i, col] == len(members)
                zp = [m[0] for m in members]
                zr = [m[1] for m in members]
                rw = [m[2] for m in members]
                assert surf.mean_zp[i, col] == pytest.approx(np.mean(zp), rel=1e-10, abs=1e-13)
                assert surf.mean_zr[i, col] == pytest.approx(np.mean(zr), rel=1e-10, abs=1e-13)
                assert surf.mean_r_raw[i, col] == pytest.approx(np.mean(rw), rel=1e-10, abs=1e-15)

    def test_partition_identity(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(20000) * 0.01)
        series = make_series([mids[:9000], mids[9000:]])
        grid = BinGrid()
        lags = [1, 10, 100]
        rows = compute_moments_table(series, lags)
        surf = accumulate_surface(series, rows, grid)
        for i, m in enumerate(surf.moments):
            assert int(surf.counts[i].sum()) + int(surf.out_of_grid[i]) == m.n_pairs

    def test_bin_mean_containment(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(50000) * 0.01)
        series = make_series([mids])
        grid = BinGrid(n_min_support=50)
        rows = compute_moments_table(series, [5])
        surf = accumulate_surface(series, rows, grid)
        for col in np.nonzero(surf.valid[0])[0]:
            lo = grid.z_min + col * grid.step
            hi = grid.z_min + (col + 1) * grid.step
            assert lo <= surf.mean_zp[0, col] < hi

    def test_monotone_support(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(30000) * 0.01)
        series = make_series([mids])
        rows = compute_moments_table(series, [2, 20])
        loose = accumulate_surface(series, rows, BinGrid(n_min_support=50))
        strict = accumulate_surface(series, rows, BinGrid(n_min_support=300))
        assert np.array_equal(loose.counts, strict.counts)
        assert (strict.valid <= loose.valid).all()
        both = strict.valid
        np.testing.assert_array_equal(loose.mean_zr[both], strict.mean_zr[both])

    def test_threads_do_not_change_result(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(10000) * 0.01)
        series = make_series([mids[:4000], mids[4000:]])
        rows = compute_moments_table(series, [1, 5, 9, 33])
        a = accumulate_surface(series, rows, BinGrid(), threads=1)
        b = accumulate_surface(series, rows, BinGrid(), threads=4)
        assert a == b

    def test_excluded_lags_are_recorded(self, rng):
        series = make_series([100 + np.cumsum(rng.standard_normal(100) * 0.01)])
        rows = compute_moments_table(series, [1, 400])
        surf = accumulate_surface(series, rows, BinGrid())
        assert surf.lags == [1]
        assert surf.excluded_lags == [
            {"lag": 400, "n_pairs": 0, "reason": "insufficient_support"}
        ]
        with pytest.raises(MissingMoments):
            surf.lag_row(400)


class TestSurfaceCsv:
    def test_round_trip_exact(self, tmp_path, rng):
        mids = 100 + np.cumsum(rng.standard_normal(5000) * 0.01)
        series = make_series([mids[:2000], mids[2000:]])
        rows = compute_moments_table(series, [1, 7, 60])
        surf = accumulate_surface(series, rows, BinGrid(n_min_support=20))
        path = tmp_path / "surface.csv"
        write_surface_csv(surf, path)
        manifest = write_manifest(path, surface_manifest(surf))
        back = read_surface_csv(path, read_manifest(path))
        assert back == surf
        assert manifest["n_pairs"][str(surf.moments[0].lag)] == surf.moments[0].n_pairs

    @pytest.mark.parametrize("bin_text", ["0", "321"])
    def test_bin_off_the_grid_rejected(self, tmp_path, rng, bin_text):
        # bin 0 would otherwise wrap round to the last column
        series = make_series([100 + np.cumsum(rng.standard_normal(3000) * 0.01)])
        surf = accumulate_surface(series, compute_moments_table(series, [1]), BinGrid())
        path = tmp_path / "surface.csv"
        write_surface_csv(surf, path)
        write_manifest(path, surface_manifest(surf))
        header, first, *rest = path.read_text().splitlines()
        lag, _, *fields = first.split(",")
        path.write_text("\n".join([header, ",".join([lag, bin_text, *fields]), *rest]) + "\n")
        with pytest.raises(ArtifactIOError, match="outside 1..320"):
            read_surface_csv(path, read_manifest(path))

    def test_empty_surface_is_header_only(self, tmp_path):
        series = make_series([[1.0, 2.0, 3.0]])
        rows = compute_moments_table(series, [5])  # no anchors
        surf = accumulate_surface(series, rows, BinGrid())
        path = tmp_path / "empty.csv"
        write_surface_csv(surf, path)
        lines = path.read_text().splitlines()
        assert lines == ["lag,bin,center,count,mean_zp,mean_zr,mean_r_raw,valid"]

    def test_one_valid_cell_single_row_flagged(self, tmp_path, rng):
        # constant-ish pushes in one bin, n >= n_min
        n = 450
        incr = np.where(rng.random(n) < 0.5, 0.0099, 0.0101)
        mids = 100 + np.cumsum(incr)
        series = make_series([mids])
        rows = compute_moments_table(series, [1])
        surf = accumulate_surface(series, rows, BinGrid(n_min_support=100))
        path = tmp_path / "one.csv"
        write_surface_csv(surf, path)
        data_rows = path.read_text().splitlines()[1:]
        valid_rows = [r for r in data_rows if r.endswith(",true")]
        assert len(valid_rows) == int(surf.valid.sum())
        assert len(valid_rows) >= 1


class TestBlockTables:
    LAGS = [1, 40, 6000]

    @pytest.fixture(scope="class")
    def series(self):
        # about 430,000 anchors at short lags, in blocks of ceil(n / 50) = 8,600:
        # 13, 6 and 29 per session; at lag 6000 blocks of 10 L: 1, 1 and 3
        rng = np.random.default_rng(77)
        sizes = (120_000, 60_000, 250_000)
        return make_series([100 + np.cumsum(rng.standard_normal(n) * 0.01) for n in sizes])

    @pytest.fixture(scope="class")
    def surf(self, series):
        rows = compute_moments_table(series, self.LAGS)
        return accumulate_surface(series, rows, BinGrid(n_min_support=20))

    def test_block_size_rule(self):
        assert block_size(1, 430_000) == 8_600
        assert block_size(1, 430_001) == 8_601
        assert block_size(6000, 394_000) == 60_000
        assert block_size(3, 20) == 30

    def test_block_counts_sum_to_counts(self, surf):
        for i, lag in enumerate(surf.lags):
            np.testing.assert_array_equal(surf.blocks[lag].counts.sum(axis=0), surf.counts[i])

    def test_block_sums_match_cell_sums(self, surf):
        for i, lag in enumerate(surf.lags):
            b = surf.blocks[lag]
            for col in np.nonzero(surf.counts[i])[0]:
                want = surf.mean_zr[i, col] * surf.counts[i, col]
                got = math.fsum(b.sum_zr[:, col])
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_blocks_tile_sessions_without_crossing(self, series, surf):
        for m in surf.moments:
            lag, size = m.lag, block_size(m.lag, m.n_pairs)
            b = surf.blocks[lag]
            got = list(zip(b.starts.tolist(), b.stops.tolist()))
            want = []
            for s in series.sessions:
                first, stop = s.start + lag, s.end - lag + 1
                if stop <= first:
                    continue
                session_blocks = [(lo, hi) for lo, hi in got if first <= lo < stop]
                # contiguous, inside the session, at least one block size each
                assert session_blocks[0][0] == first and session_blocks[-1][1] == stop
                for (lo, hi), (nlo, _) in zip(session_blocks, session_blocks[1:]):
                    assert hi == nlo
                if len(session_blocks) > 1:
                    assert min(hi - lo for lo, hi in session_blocks) >= size
                assert len(session_blocks) == max(1, (stop - first) // size)
                want += session_blocks
            assert got == want
            assert (b.counts.sum(axis=1) <= b.stops - b.starts).all()
        assert [surf.blocks[lag].n_blocks for lag in self.LAGS] == [13 + 6 + 29] * 2 + [1 + 1 + 3]

    def test_threads_give_equal_tables(self, series, surf):
        rows = compute_moments_table(series, self.LAGS)
        other = accumulate_surface(series, rows, BinGrid(n_min_support=20), threads=2)
        for lag in self.LAGS:
            a, b = surf.blocks[lag], other.blocks[lag]
            for name in ("starts", "stops", "counts", "sum_zr"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))

    def test_artifact_round_trip_and_truncation(self, tmp_path, surf):
        path = tmp_path / "surface.blocks"
        write_surface_blocks(surf.blocks, path)
        back = read_surface_blocks(path)
        assert back.lags == surf.blocks.lags
        assert (back.n_bins, back.n_min_support) == (320, 20)
        for lag in self.LAGS:
            a, b = surf.blocks[lag], back[lag]
            for name in ("starts", "stops", "counts", "sum_zr"):
                np.testing.assert_array_equal(getattr(a, name), getattr(b, name))
        with pytest.raises(MissingArtifact):
            back[7]
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ArtifactIOError):
            read_surface_blocks(path)


@given(st.floats(-5, 5))
@settings(max_examples=300)
def test_bin_index_property_matches_verbatim(z):
    g = BinGrid()
    assert g.bin_slots(np.array([z])).tolist() == [verbatim_slot(z)]


@pytest.mark.parametrize("threads", [1, 2])
def test_surface_memory_grows_by_block_tables_not_pass_buffers(threads):
    # a lag's pass buffers are freed when the lag is done, so 18 more lags
    # add their block and surface tables, and at most one lag's buffers per
    # thread, to the traced peak
    series = generate(SyntheticSpec(kind="null_walk", n_events=1_000_000, n_sessions=4, seed=3))
    grid = BinGrid()
    rows = compute_moments_table(series, range(100, 2001, 100))

    def run(n_lags):
        surf, peak = traced_peak(
            lambda: accumulate_surface(series, rows[:n_lags], grid, threads=threads))
        tables = sum(surf.blocks[lag].counts.nbytes + surf.blocks[lag].sum_zr.nbytes
                     + 16 * surf.blocks[lag].n_blocks for lag in surf.blocks.lags)
        return peak, tables + 4 * surf.counts.nbytes

    run(2)  # first-call set-up stays out of the comparison
    (peak_2, tables_2), (peak_20, tables_20) = run(2), run(20)
    longest = max(len(s) for s in series.sessions)
    pass_buffers = 5 * 8 * min(CHUNK_ANCHORS, longest) + 8 * 2000
    assert peak_20 - peak_2 <= tables_20 - tables_2 + threads * pass_buffers
