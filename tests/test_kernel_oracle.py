"""The per-lag kernels against the plain reference kernel, bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushresp import surface as surface_mod
from pushresp.errors import InsufficientSupport, ZeroVariance
from pushresp.lags import LagMoments, MomentRow, anchor_count, compute_moments
from pushresp.surface import BinGrid, accumulate_surface

from conftest import make_series
from surface_oracle import oracle_moments, oracle_surface

GRIDS = [
    BinGrid(),
    BinGrid(z_min=-2.0, z_max=2.0, step=0.1, n_min_support=5),
    # fl((z_max - z_min) / step) is 23.999999999999996, not 24: a push on
    # z_max floors into the last bin and only its compare keeps it off
    BinGrid(z_min=-1.2, z_max=1.2, step=0.1, n_min_support=5),
]


def edge_pushes(grid: BinGrid) -> list[float]:
    """Pushes whose z_p = push / 0.5 falls exactly on or beside the grid's
    edges, or overflows to +-inf."""
    edges = [grid.z_min + k * grid.step for k in range(grid.n_bins + 1)]
    edges += [grid.z_min, grid.z_max, 0.0]
    edges += [float(np.nextafter(e, d)) for e in (grid.z_min, grid.z_max) for d in (-np.inf, np.inf)]
    return [e / 2 for e in edges] + [1.5e308, -1.5e308]


def assert_same(got, want):
    assert got == want  # grid, moments, counts, out_of_grid, the three mean tables
    assert got.blocks.lags == want.blocks.lags
    for lag in want.blocks.lags:
        a, b = got.blocks[lag], want.blocks[lag]
        for name in ("starts", "stops", "counts"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), (lag, name)
        assert np.array_equal(a.sum_zr, b.sum_zr, equal_nan=True), lag


sessions = st.lists(st.integers(1, 60), min_size=1, max_size=4)
lags = st.lists(st.integers(1, 12), min_size=1, max_size=4, unique=True).map(sorted)
chunks = st.sampled_from([1, 3, 7, 50_000])
threads = st.sampled_from([1, 2])


@given(sizes=sessions, lags=lags, grid=st.sampled_from(GRIDS), chunk=chunks,
       threads=threads, seed=st.integers(0, 2**32 - 1), ties=st.booleans())
@settings(max_examples=150, deadline=None)
def test_walk_matches_oracle(sizes, lags, grid, chunk, threads, seed, ties):
    """Moments from the data; short sessions, ties, passes cut mid-block."""
    rng = np.random.default_rng(seed)
    steps = rng.integers(-2, 3, sum(sizes)) * 0.01 if ties else rng.standard_normal(sum(sizes))
    mids = 100 + np.cumsum(steps)
    series = make_series(np.split(mids, np.cumsum(sizes)[:-1]))
    moments = []
    for lag in lags:
        try:
            want = oracle_moments(series, lag)
        except (InsufficientSupport, ZeroVariance) as exc:
            try:
                compute_moments(series, lag)
            except type(exc):
                continue
            raise AssertionError(f"lag {lag}: expected {type(exc).__name__}")
        got = compute_moments(series, lag)
        assert got == want
        moments.append(got)
    rows = [MomentRow(m.lag, m.n_pairs, m, None) for m in moments]
    with mock.patch.object(surface_mod, "CHUNK_ANCHORS", chunk):
        assert_same(accumulate_surface(series, rows, grid, threads=threads),
                    oracle_surface(series, moments, grid))


@given(grid=st.sampled_from(GRIDS), data=st.data(), chunk=chunks, threads=threads,
       lags=lags, sizes=sessions)
@settings(max_examples=150, deadline=None)
@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_edge_pushes_match_oracle(grid, data, chunk, threads, lags, sizes):
    """Pushes exactly on z_min, z_max and interior edges, and pushes whose
    z_p is +-inf, under hand-set moments."""
    mids = np.zeros(sum(sizes))
    # mids 0, p1, 0, p2, ...: the lag-1 pushes are exactly +-p_k
    pushes = st.sampled_from(edge_pushes(grid)) | st.floats(-2.5, 2.5)
    n_odd = mids[1::2].size
    mids[1::2] = data.draw(st.lists(pushes, min_size=n_odd, max_size=n_odd))
    series = make_series(np.split(mids, np.cumsum(sizes)[:-1]))
    moments = [
        LagMoments(lag, anchor_count(series.sessions, lag), 0.0, 0.5, 0.0, 1.0)
        for lag in lags if anchor_count(series.sessions, lag) > 0
    ]
    rows = [MomentRow(m.lag, m.n_pairs, m, None) for m in moments]
    with mock.patch.object(surface_mod, "CHUNK_ANCHORS", chunk):
        assert_same(accumulate_surface(series, rows, grid, threads=threads),
                    oracle_surface(series, moments, grid))
