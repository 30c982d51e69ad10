"""The source, clean and surface stages read and write one session at a time.

Each stage must leave the bytes the in-memory entry points leave
(`generate`, `clean`, `compute_moments_table` and `accumulate_surface` on
a whole series), and must hold about one session, not the series.
"""

import threading

import numpy as np
import pytest

from pushresp import cleaning as cleaning_mod
from pushresp import surface as surface_mod
from pushresp.cleaning import CleaningConfig, clean, clean_prms
from pushresp.errors import ArtifactIOError
from pushresp.lags import compute_moments_table, write_moments_csv
from pushresp.pipeline import clean_stage, run_stage, source_stage, surface_stage
from pushresp.series import (
    PrmsReader,
    canonical_json,
    read_prms,
    write_manifest,
    write_prms,
)
from pushresp.surface import (
    CHUNK_ANCHORS,
    BinGrid,
    accumulate_surface,
    write_surface_blocks,
    write_surface_csv,
)
from pushresp.synthetic import SyntheticSpec, generate, write_series

from conftest import make_series, traced_peak

LAGS = (1, 10, 50, 200)
GRID = BinGrid(n_min_support=20)


def _walk(rng, n, start=100.0, step=0.01):
    return start + np.cumsum(rng.standard_normal(n)) * step


def _series(case: str):
    """(series, cleaning config) of one edge case."""
    rng = np.random.default_rng(CASES.index(case))
    cfg = CleaningConfig()
    if case == "short_sessions":  # some sessions hold no anchor at the longer lags
        blocks = [_walk(rng, 3000), _walk(rng, 1), _walk(rng, 60), _walk(rng, 350), _walk(rng, 2000)]
    elif case == "emptied_session":  # the jump filter drops every event of one session
        blocks = [_walk(rng, 2500), [100.0, 105.0], _walk(rng, 2500)]
        blocks[2][700] += 4.0
    elif case == "degenerate":  # every increment is the same
        blocks = [100.0 + 0.25 * np.arange(n) for n in (1500, 900)]
    elif case == "one_session":
        blocks = [_walk(rng, 6000)]
    elif case == "central_q":
        blocks = [_walk(rng, n) for n in (1800, 2600, 900)]
        cfg = CleaningConfig(lower_q=0.4, upper_q=0.55)
    return make_series(blocks), cfg


CASES = ["short_sessions", "emptied_session", "degenerate", "one_session", "central_q"]


def _in_memory(series, cfg, out, threads):
    """The clean and surface artifacts, written from whole in-memory series."""
    cleaned, report = clean(series, cfg)
    write_prms(cleaned, out / "clean.prms")
    (out / "clean.json").write_text(canonical_json(report.to_dict()) + "\n")
    rows = compute_moments_table(cleaned, LAGS)
    write_moments_csv(rows, out / "moments.csv")
    surf = accumulate_surface(cleaned, rows, GRID, threads=threads)
    write_surface_csv(surf, out / "surface.csv")
    write_surface_blocks(surf.blocks, out / "surface.blocks")


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("case", CASES)
def test_streaming_stages_write_the_in_memory_bytes(tmp_path, case, threads):
    series, cfg = _series(case)
    ref, wd = tmp_path / "ref", tmp_path / "wd"
    ref.mkdir()
    wd.mkdir()
    _in_memory(series, cfg, ref, threads)
    write_prms(series, wd / "mids.prms")
    write_manifest(wd / "mids.prms", {})
    run_stage(clean_stage(wd / "mids.prms", wd / "clean.prms", wd / "clean.json", cfg))
    run_stage(surface_stage(wd / "clean.prms", wd / "surface.csv", wd / "moments.csv",
                            LAGS, GRID, threads))
    for name in ("clean.prms", "clean.json", "moments.csv", "surface.csv", "surface.blocks"):
        assert (wd / name).read_bytes() == (ref / name).read_bytes(), name


def test_edge_cases_reach_their_edges():
    # each case does reach the path it is named for
    _, rep = clean(*_series("emptied_session"))
    assert rep.n_sessions_dropped == 1
    _, rep = clean(*_series("degenerate"))
    assert rep.degenerate
    series, cfg = _series("central_q")
    _, rep = clean(series, cfg)
    assert rep.n_winsorized_low > 0.3 * len(series)
    rows = compute_moments_table(_series("short_sessions")[0], LAGS)
    assert all(r.moments is not None for r in rows)


@pytest.mark.parametrize("spec", [
    SyntheticSpec(kind="null_walk", n_events=5000, n_sessions=1, seed=2),
    SyntheticSpec(kind="momentum", n_events=20_003, n_sessions=3, inject_lag=20, phi=0.3, seed=4),
    SyntheticSpec(kind="asymmetric", n_events=9000, n_sessions=2, inject_lag=5, phi=-0.2,
                  asym_gain=0.5, seed=6, increments="coin"),
])
def test_source_stage_writes_the_generated_bytes(tmp_path, spec):
    write_prms(generate(spec), tmp_path / "ref.prms")
    run_stage(source_stage(tmp_path / "mids.prms", synth=spec))
    assert (tmp_path / "mids.prms").read_bytes() == (tmp_path / "ref.prms").read_bytes()


def test_reader_blocks_equal_read_prms(tmp_path):
    series = _series("short_sessions")[0]
    write_prms(series, tmp_path / "m.prms")
    reader = PrmsReader(tmp_path / "m.prms")
    assert reader.sessions == read_prms(tmp_path / "m.prms").sessions == series.sessions
    assert len(reader) == len(series)
    got = [(s, mids.copy()) for s, mids in reader.blocks()]
    assert [s for s, _ in got] == series.sessions
    assert all(np.array_equal(m, series.session_slice(s)) for s, m in got)


def test_cut_input_is_rejected_before_any_output(tmp_path):
    series = _series("one_session")[0]
    write_prms(series, tmp_path / "m.prms")
    data = (tmp_path / "m.prms").read_bytes()
    (tmp_path / "m.prms").write_bytes(data[:-8])
    with pytest.raises(ArtifactIOError, match="truncated session block"):
        clean_prms(tmp_path / "m.prms", tmp_path / "c.prms", CleaningConfig())
    assert not (tmp_path / "c.prms").exists()


def test_non_finite_mid_in_last_session_is_rejected_before_any_output(tmp_path):
    series = make_series([[100.0, 100.01, 100.02], [101.0, 101.01], [99.0, 99.5, np.inf]])
    write_prms(series, tmp_path / "m.prms")
    with pytest.raises(ArtifactIOError, match="session 2 holds a non-finite mid .*inf.* at event index 7"):
        clean_prms(tmp_path / "m.prms", tmp_path / "c.prms", CleaningConfig())
    assert not (tmp_path / "c.prms").exists()


def test_each_session_s_lags_are_dealt_out_to_both_threads(monkeypatch):
    where = []
    add_session = surface_mod._add_session

    def spy(accs, *args):
        where.append(threading.current_thread() is threading.main_thread())
        add_session(accs, *args)

    monkeypatch.setattr(surface_mod, "_add_session", spy)
    series = make_series([_walk(np.random.default_rng(1), 3000) for _ in range(3)])
    rows = compute_moments_table(series, LAGS)
    one = accumulate_surface(series, rows, GRID, threads=1)
    assert where == [True] * 3
    where.clear()
    two = accumulate_surface(series, rows, GRID, threads=2)
    assert where == [False] * 6
    assert one == two


# Memory: in units of the longest session (8 bytes an event), plus the tables
# that a surface keeps. The series here is twenty sessions, so holding it
# whole would cost twenty units.
N_SESSIONS, SESSION = 20, 100_000
UNIT = 8 * SESSION


@pytest.fixture(scope="module")
def spec():
    return SyntheticSpec(kind="momentum", n_events=N_SESSIONS * SESSION, n_sessions=N_SESSIONS,
                         inject_lag=50, phi=0.3, seed=5)


@pytest.fixture(scope="module")
def mids_path(tmp_path_factory, spec):
    path = tmp_path_factory.mktemp("stream") / "mids.prms"
    write_series(spec, path)
    return path


def test_source_holds_a_few_sessions(tmp_path, spec):
    # the session buffer, the injected kinds' copy of its noise and one product
    _, peak = traced_peak(lambda: write_series(spec, tmp_path / "m.prms"))
    assert peak <= 3.5 * UNIT


def test_clean_holds_a_few_sessions(tmp_path, mids_path):
    # the session read, the session cleaned, its increments and their masks
    (_, rep), peak = traced_peak(
        lambda: clean_prms(mids_path, tmp_path / "c.prms", CleaningConfig()))
    assert rep.n_winsorized_low and rep.n_winsorized_high
    assert peak <= 4 * UNIT


def test_clean_of_a_central_quantile_holds_its_tails_twice(tmp_path, mids_path):
    # each tail keeps 40% of the increments, in a buffer of twice that plus
    # a session; besides them, the session read and its increments
    cfg = CleaningConfig(lower_q=0.4, upper_q=0.6)
    _, peak = traced_peak(lambda: clean_prms(mids_path, tmp_path / "c.prms", cfg))
    tails = 2 * 0.4 * N_SESSIONS * UNIT
    assert peak <= 2 * tails + 5 * UNIT


@pytest.mark.parametrize("keep, sizes", [
    (3, [1, 5, 2, 40, 3, 3, 3]),
    (50, [10] * 30),
    (500, [7, 1000, 3, 400, 999] * 8),
])
@pytest.mark.parametrize("largest", [False, True])
def test_tail_keeps_the_extremes_with_a_cut_per_keep_values(keep, sizes, largest):
    rng = np.random.default_rng(keep)
    offers = [np.round(rng.normal(size=s), 1) for s in sizes]  # with ties
    tail = cleaning_mod._Tail(keep, largest, max(sizes))
    cuts = 0
    for values in offers:
        before = tail.held
        tail.offer(values.copy())
        cuts += tail.held < before + min(keep, values.size)  # cut back to keep first
    pooled = np.sort(np.concatenate(offers))
    assert tail.bound() == (pooled[-keep] if largest else pooled[keep - 1])
    assert cuts <= sum(sizes) / keep


@pytest.mark.parametrize("threads", [1, 2])
def test_surface_holds_a_session_and_its_tables(mids_path, threads):
    lags = range(100, 2001, 100)

    def run():
        source = PrmsReader(mids_path)
        return accumulate_surface(source, compute_moments_table(source, lags), BinGrid(),
                                  threads=threads)

    surf, peak = traced_peak(run)
    tables = sum(surf.blocks[lag].counts.nbytes + surf.blocks[lag].sum_zr.nbytes
                 + 16 * surf.blocks[lag].n_blocks for lag in surf.blocks.lags)
    pass_buffers = 4 * 8 * CHUNK_ANCHORS + 8 * max(lags)
    # the session read, plus the moments' differences or the binning's buffers
    assert peak <= 2 * UNIT + tables + 4 * surf.counts.nbytes + threads * pass_buffers + (1 << 16)

