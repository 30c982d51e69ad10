import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushresp.errors import ArtifactIOError
from pushresp.series import (
    MidSeries,
    Session,
    from_session_arrays,
    parse_column,
    read_csv,
    read_manifest,
    read_prms,
    series_summary,
    write_csv,
    write_manifest,
    write_prms,
)

from conftest import make_series


def test_session_length_and_date():
    s = Session(date=18262, start=0, end=9)
    assert len(s) == 10
    assert s.calendar_date.isoformat() == "2020-01-01"


def test_session_rejects_inverted_bounds():
    with pytest.raises(ValueError):
        Session(date=0, start=5, end=4)


def test_series_requires_contiguous_sessions():
    with pytest.raises(ValueError):
        MidSeries(
            sessions=[Session(0, 0, 2), Session(1, 4, 5)],
            mids=np.zeros(6),
        )
    with pytest.raises(ValueError):
        MidSeries(sessions=[Session(0, 0, 2)], mids=np.zeros(5))


def test_from_session_arrays_skips_empty_blocks():
    s = from_session_arrays([10, 11, 12], [np.array([1.0, 2.0]), np.array([]), np.array([3.0])])
    assert [sess.date for sess in s.sessions] == [10, 12]
    assert s.sessions[1].start == 2


def test_prms_round_trip(tmp_path):
    series = make_series([[100.0, 100.01, 100.02], [99.5, 99.75]])
    path = tmp_path / "mids.prms"
    write_prms(series, path)
    back = read_prms(path)
    assert back == series
    # byte-stable rewrite
    write_prms(back, tmp_path / "again.prms")
    assert (tmp_path / "again.prms").read_bytes() == path.read_bytes()


def test_prms_empty_series(tmp_path):
    series = make_series([])
    path = tmp_path / "empty.prms"
    write_prms(series, path)
    back = read_prms(path)
    assert back == series
    assert len(back) == 0


def test_prms_rejects_bad_magic(tmp_path):
    p = tmp_path / "bad.prms"
    p.write_bytes(b"NOPE\x01\x00")
    with pytest.raises(ArtifactIOError):
        read_prms(p)


def test_prms_rejects_truncated(tmp_path):
    series = make_series([[1.0, 2.0, 3.0]])
    path = tmp_path / "t.prms"
    write_prms(series, path)
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(ArtifactIOError):
        read_prms(path)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_prms_rejects_non_finite_mid(tmp_path, bad):
    # one poisoned mid would turn into nan moments downstream
    series = make_series([[100.0, 100.01, 100.02], [101.0, bad, 101.02]])
    path = tmp_path / "bad.prms"
    write_prms(series, path)
    with pytest.raises(ArtifactIOError, match="session 1 .* at event index 4"):
        read_prms(path)


def test_manifest_round_trip(tmp_path):
    series = make_series([[1.0, 2.0]])
    path = tmp_path / "m.prms"
    write_prms(series, path)
    payload = dict(series_summary(series), quality={"n_emitted": 2})
    written = write_manifest(path, payload)
    back = read_manifest(path)
    assert back == written
    assert back["n_sessions"] == 1
    assert back["n_events"] == 2
    assert len(back["data_sha256"]) == 64


def frombuffer_read_prms(path):
    """The reader this module once had: the whole file as bytes, one copy
    per session, then a concatenation."""
    raw = path.read_bytes()
    pos, dates, arrays = 6, [], []
    while pos < len(raw):
        date, count = struct.unpack_from("<IQ", raw, pos)
        pos += 12
        arrays.append(np.frombuffer(raw, dtype="<f8", count=count, offset=pos).copy())
        dates.append(date)
        pos += 8 * count
    return from_session_arrays(dates, arrays)


@given(st.lists(st.integers(0, 40), max_size=6), st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_prms_read_matches_frombuffer_reader(sizes, seed):
    rng = np.random.default_rng(seed)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "s.prms"
        # an empty session block is legal on disk and is skipped by both
        with open(path, "wb") as f:
            f.write(b"PRMS\x01\x00")
            for i, n in enumerate(sizes):
                f.write(struct.pack("<IQ", 18262 + i, n))
                f.write((100 + rng.standard_normal(n)).astype("<f8").tobytes())
        assert read_prms(path) == frombuffer_read_prms(path)


def test_prms_read_peak_allocation(tmp_path):
    # one array of the series plus a session's finiteness mask, not 3x
    n = 400_000
    series = make_series([100 + np.arange(n // 4) * 0.01] * 4)
    path = tmp_path / "big.prms"
    write_prms(series, path)
    tracemalloc.start()
    try:
        back = read_prms(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back == series
    assert peak < 1.5 * 8 * n


def test_write_prms_copies_no_session(tmp_path):
    # one 8 MB session goes to the file from the array's own buffer
    series = make_series([100 + np.arange(1_000_000) * 0.01])
    tracemalloc.start()
    try:
        write_prms(series, tmp_path / "one.prms")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * series.mids.nbytes
    assert read_prms(tmp_path / "one.prms") == series


def test_parse_column_converts_a_column(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, ["a", "b", "c"], [[1, 2], [0.5, -1.25], ["x", "y"]])
    cols = read_csv(path, ["a", "b", "c"])
    assert parse_column(path, cols, "a", int) == [1, 2]
    assert parse_column(path, cols, "b", float) == [0.5, -1.25]
    assert cols["c"] == ("x", "y")


@pytest.mark.parametrize("body, where", [
    ("1,2.5\n3,abc\n", "line 3: b 'abc'"),
    ("1.5,2.5\n", "line 2: a '1.5'"),
    ("1,\n", "line 2: b ''"),
])
def test_parse_column_names_the_field_that_does_not_convert(tmp_path, body, where):
    path = tmp_path / "t.csv"
    path.write_text("a,b\n" + body)
    cols = read_csv(path, ["a", "b"])
    with pytest.raises(ArtifactIOError, match=f"t.csv: {where} is not a number"):
        parse_column(path, cols, "a", int)
        parse_column(path, cols, "b", float)
