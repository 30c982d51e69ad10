import csv
import io
import struct
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushresp.accum import cumsum_in_place
from pushresp.errors import ArtifactIOError, MissingArtifact
from pushresp.pipeline import Stage, run_stage
from pushresp.series import (
    MidSeries,
    Session,
    read_manifest,
    read_prms,
    read_table,
    series_summary,
    write_csv,
    write_manifest,
    write_prms,
)

from conftest import from_session_arrays, make_series


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


# Tables of `TABLE_HEADER` as `write_csv` writes them: `read_table` reads
# every column back bit for bit, at chunk sizes that put line ends and the
# end of the header on chunk edges, and rejects any other bytes.
TABLE_HEADER = ["n", "x", "ok", "note"]
TABLE_DTYPES = {"n": np.int64, "x": np.float64, "ok": bool}
INT64 = np.iinfo(np.int64)
EDGE_INTS = [INT64.min, INT64.max, -1, 0]
# float("nan") has the bits numpy reads `nan` to; other NaN payloads do not round trip
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e-05, 1.7976931348623157e308,
               float("nan"), float("inf"), float("-inf")]


@st.composite
def table_columns(draw) -> list:
    """The columns of a table of `TABLE_HEADER`, with values at every edge;
    `note` is not read."""
    n = draw(st.integers(0, 30))

    def column(values) -> list:
        return draw(st.lists(values, min_size=n, max_size=n))

    return [
        np.array(column(st.sampled_from(EDGE_INTS) | st.integers(INT64.min, INT64.max)),
                 dtype=np.int64),
        np.array(column(st.sampled_from(EDGE_FLOATS) | st.floats(allow_nan=False)),
                 dtype=np.float64),
        np.array(column(st.booleans()), dtype=bool),
        column(st.integers(0, 99)),
    ]


def write_table(path, columns) -> None:
    write_csv(path, TABLE_HEADER, columns)
    write_manifest(path, {})


@given(columns=table_columns())
@settings(max_examples=200, deadline=None)
def test_read_table_round_trips_write_csv(columns):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_table(path, columns)
        got = read_table(path, TABLE_HEADER, TABLE_DTYPES)
    assert list(got) == list(TABLE_DTYPES)
    for name, want in zip(TABLE_HEADER, columns):
        if name in got:  # equal bits: NaN and -0.0 included
            assert (got[name].dtype, got[name].tobytes()) == (want.dtype, want.tobytes()), name


def count_rows_stage(table: Path, out: Path) -> Stage:
    """A stage that reads `table` and writes its row count to `out`."""

    def produce(partial):
        partial.write_text(str(len(read_table(table, TABLE_HEADER, TABLE_DTYPES)["n"])))
        return [{}]

    return Stage("count", {"table": table}, [out], {}, produce)


@given(columns=table_columns(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_stage_rejects_an_edited_or_cut_table(columns, data):
    # the stage reads an intact table, and refuses an edited or cut one
    # before it writes or reads anything
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "t.csv", Path(tmp) / "n.txt"
        write_table(path, columns)
        run_stage(count_rows_stage(path, out))
        assert out.read_text() == str(len(columns[0]))
        before = {p.name: p.read_bytes() for p in Path(tmp).iterdir()}
        raw = before["t.csv"]
        at = data.draw(st.integers(0, len(raw) - 1), label="edited byte")
        edited = raw[:at] + bytes([raw[at] ^ data.draw(st.integers(1, 255))]) + raw[at + 1:]
        lines = [0, *(i + 1 for i, b in enumerate(raw[:-1]) if b == ord("\n"))]
        cut = raw[:data.draw(st.sampled_from(lines), label="cut")]
        for bad in (edited, cut):
            path.write_bytes(bad)
            with pytest.raises(ArtifactIOError, match="t.csv: its bytes do not match") as err:
                run_stage(count_rows_stage(path, out), force=True)
            assert err.value.exit_code == 3
            assert {p.name: p.read_bytes() for p in Path(tmp).iterdir()} == {**before, "t.csv": bad}


def test_read_table_reads_edge_values(tmp_path):
    path = tmp_path / "t.csv"
    xs = [-0.0, 5e-324, float("nan"), float("inf"), float("-inf")]
    write_table(path, [np.array([INT64.min, INT64.max, 0, 3, 4]), np.array(xs),
                       np.array([True, False, True, False, True]), ["a", "", "b", "", "c"]])
    cols = read_table(path, TABLE_HEADER, TABLE_DTYPES)
    assert cols["n"].tolist() == [INT64.min, INT64.max, 0, 3, 4]
    assert cols["x"].view(np.int64).tolist() == np.array(xs).view(np.int64).tolist()
    assert cols["ok"].tolist() == [True, False, True, False, True]
    write_table(path, [[], [], [], []])
    empty = read_table(path, TABLE_HEADER, TABLE_DTYPES)
    assert {name: (col.dtype, col.shape) for name, col in empty.items()} == {
        "n": (np.int64, (0,)), "x": (np.float64, (0,)), "ok": (bool, (0,))}


def test_stage_needs_its_input_manifest(tmp_path):
    path = tmp_path / "t.csv"
    write_csv(path, TABLE_HEADER, [[1], [0.5], [True], [0]])
    with pytest.raises(MissingArtifact, match="input 'table': .*t.csv.manifest.json") as err:
        run_stage(count_rows_stage(path, tmp_path / "n.txt"))
    assert err.value.exit_code == 3
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


def test_read_table_checks_the_header(tmp_path):
    # a table that matches its own manifest can still be another kind of table
    path = tmp_path / "t.csv"
    write_csv(path, ["n", "x", "ok", "other"], [[1], [0.5], [True], [0]])
    write_manifest(path, {})
    with pytest.raises(ArtifactIOError, match="t.csv: header is not n,x,ok,note"):
        read_table(path, TABLE_HEADER, TABLE_DTYPES)


def test_read_table_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"n,x,ok,note\n1,0.5\xff,true,\n")
    write_manifest(path, {})  # the bytes match their manifest, so the C reader sees them
    with pytest.raises(ArtifactIOError, match="t.csv: not a table the C reader reads") as err:
        read_table(path, TABLE_HEADER, TABLE_DTYPES)
    assert err.value.exit_code == 3


def csv_writer_bytes(header, columns) -> bytes:
    """What `write_csv` once wrote: each row's cells through `csv.writer`."""

    def cells(column):
        cells = column.tolist() if isinstance(column, np.ndarray) else list(column)
        if cells and isinstance(cells[0], bool):
            return ["true" if c else "false" for c in cells]
        return cells

    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(header)
    w.writerows(zip(*map(cells, columns)))
    return out.getvalue().encode()


_INT64 = st.integers(INT64.min, INT64.max)


@st.composite
def csv_columns(draw):
    """Two to five equal columns: float64, int64 and bool arrays, and lists of
    floats or ints with blank cells, with values at every edge."""
    n = draw(st.integers(0, 100))
    floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True)
    kinds = {
        "f8": lambda: np.array(draw(st.lists(floats, min_size=n, max_size=n)), dtype=np.float64),
        "i8": lambda: np.array(draw(st.lists(_INT64, min_size=n, max_size=n)), dtype=np.int64),
        "bool": lambda: np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool),
        "blank": lambda: draw(st.lists(floats | _INT64 | st.just(""), min_size=n, max_size=n)),
    }
    names = draw(st.lists(st.sampled_from(sorted(kinds)), min_size=2, max_size=5))
    return [f"c{i}" for i in range(len(names))], [kinds[k]() for k in names]


@given(csv_columns())
@settings(max_examples=200, deadline=None)
def test_write_csv_writes_the_bytes_of_csv_writer(data):
    header, columns = data
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        write_csv(path, header, columns)
        assert path.read_bytes() == csv_writer_bytes(header, columns)


@pytest.mark.parametrize("cell", ["a,b", 'say "x"', "two\nlines", "cr\r"])
def test_write_csv_rejects_a_cell_that_needs_quoting(tmp_path, cell):
    with pytest.raises(ValueError, match="would need quoting"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1], [cell]])


def test_write_csv_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [3]])


@given(st.lists(st.floats(-1e300, 1e300), max_size=200), st.integers(1, 7))
@settings(max_examples=200, deadline=None)
def test_cumsum_in_place_is_cumsum(values, run):
    x = np.array(values, dtype=np.float64)
    want = np.cumsum(x)
    cumsum_in_place(x, run)
    assert x.tobytes() == want.tobytes()
