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

from pushresp import series
from pushresp.accum import cumsum_in_place
from pushresp.errors import ArtifactIOError, MissingArtifact
from pushresp.series import (
    MidSeries,
    Session,
    flag,
    int64,
    parse_column,
    read_csv,
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


# A property test of `read_table`: on any table, its typed columns equal those
# of the str path (`read_csv` + `parse_column`), or it raises the same error.
TABLE_HEADER = ["n", "x", "ok", "note"]
TABLE_KINDS = {"n": int64, "x": float, "ok": flag}
INT64 = np.iinfo(np.int64)

plain_ints = st.integers(INT64.min, INT64.max).map(str)
plain_floats = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.floats(allow_nan=False, allow_infinity=False).map(lambda v: f"{v:.17g}"),
    st.floats(min_value=-1e-300, max_value=1e-300).map(repr),  # subnormals
    st.sampled_from(["nan", "-nan", "inf", "-inf", "-0.0", "1e-05", "1E5", "+1", ".5", "5."]),
)
plain_flags = st.sampled_from(["true", "false", "", "tru", "truee"])
plain_notes = st.sampled_from(["", "false", "true", "nan"])
# any mix of the bytes the C reader may see
gate_texts = st.text(alphabet="0123456789+-.eEnaiftrusl", max_size=6)
odd_texts = st.sampled_from([str(INT64.min - 1), str(INT64.max + 1), " 1", "1 ", "1_0",
                             "1.5", "Infinity", "abc", "a b", '"5"', '"q,r"', '"true"'])
PLAIN = (plain_ints, plain_floats, plain_flags, plain_notes)


@st.composite
def tables(draw) -> bytes:
    """A table: half of them with plainly spelt fields, the rest with odd
    ones too; over either, one defect or none (a wrong field count, a blank
    line, CRLF line ends, no line end after the last row)."""
    plain = draw(st.booleans())
    defect = draw(st.sampled_from([None, None, None, "count", "blank", "crlf", "open"]))
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        row = [draw(texts if plain or draw(st.integers(0, 2)) else st.one_of(gate_texts, odd_texts))
               for texts in PLAIN]
        rows.append(",".join(row))
    if rows and defect == "count":  # a field too few or too many
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k].rpartition(",")[0] if draw(st.booleans()) else rows[k] + ",1"
    if defect == "blank":
        rows.insert(draw(st.integers(0, len(rows))), "")
    end = "\r\n" if defect == "crlf" else "\n"
    text = end.join([",".join(TABLE_HEADER), *rows])
    return (text if defect == "open" else text + end).encode()


def str_path_columns(path):
    """The columns as the str path reads them."""
    columns = read_csv(path, TABLE_HEADER)
    dtypes = {int64: np.int64, float: np.float64, flag: bool}
    return {name: np.array(parse_column(path, columns, name, kind), dtype=dtypes[kind])
            for name, kind in TABLE_KINDS.items()}


def read_or_error(read, path):
    try:
        return read(path)
    except ArtifactIOError as exc:
        assert exc.exit_code == 3
        return str(exc)


@given(tables())
@settings(max_examples=400, deadline=None)
def test_read_table_matches_the_str_path(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "t.csv"
        path.write_bytes(data)
        got = read_or_error(lambda p: read_table(p, TABLE_HEADER, TABLE_KINDS), path)
        want = read_or_error(str_path_columns, path)
    if isinstance(want, str):
        assert got == want
        return
    assert got.keys() == want.keys()
    for name, col in want.items():
        assert got[name].dtype == col.dtype, name
        if col.dtype == np.float64:  # equal bits: NaNs and -0.0 included
            assert got[name].view(np.int64).tolist() == col.view(np.int64).tolist(), name
        else:
            assert got[name].tolist() == col.tolist(), name


def test_read_table_reads_a_plain_table_without_the_str_path(tmp_path, monkeypatch):
    path = tmp_path / "t.csv"
    path.write_text("n,x,ok,note\n-9223372036854775808,-0.0,true,false\n"
                    "9223372036854775807,1e-05,false,true\n3,nan,true,\n"
                    "4,5e-324,tru,na\n")
    monkeypatch.setattr(series, "read_csv", None)
    cols = read_table(path, TABLE_HEADER, TABLE_KINDS)
    assert cols["n"].tolist() == [INT64.min, INT64.max, 3, 4]
    assert cols["x"].view(np.int64).tolist() == np.array(
        [-0.0, 1e-05, float("nan"), 5e-324]).view(np.int64).tolist()
    assert cols["ok"].tolist() == [True, False, True, False]
    path.write_text("n,x,ok,note\n")
    empty = read_table(path, TABLE_HEADER, TABLE_KINDS)
    assert {name: (col.dtype, col.shape) for name, col in empty.items()} == {
        "n": (np.int64, (0,)), "x": (np.float64, (0,)), "ok": (bool, (0,))}


@pytest.mark.parametrize("chunk", [1, 2, 3, 5, 8, 13, 1 << 16])
def test_read_table_gates_each_chunk(tmp_path, monkeypatch, chunk):
    # small chunks put line ends, a blank line and an odd byte on chunk edges
    monkeypatch.setattr(series, "_TABLE_CHUNK", chunk)
    str_reads = []
    monkeypatch.setattr(series, "read_csv", lambda *a: str_reads.append(a) or read_csv(*a))
    rows = ["-9223372036854775808,-0.0,true,false", "9223372036854775807,1e-05,false,true",
            "3,nan,true,", "4,5e-324,tru,na"]
    path = tmp_path / "t.csv"

    def read(lines):
        path.write_text("\n".join(["n,x,ok,note", *lines]) + "\n")
        return read_table(path, TABLE_HEADER, TABLE_KINDS)

    got = read(rows)
    assert not str_reads
    want = str_path_columns(path)
    assert {name: (col.dtype, col.tobytes()) for name, col in got.items()} == {
        name: (col.dtype, col.tobytes()) for name, col in want.items()}
    for k in range(len(rows) + 1):  # a blank line on line k + 2
        with pytest.raises(ArtifactIOError, match=f"line {k + 2} has 0 fields"):
            read(rows[:k] + [""] + rows[k:])
    assert read(rows[:-1] + [rows[-1] + " "])["n"].tolist() == [INT64.min, INT64.max, 3, 4]
    assert len(str_reads) == len(rows) + 2


def test_read_table_rejects_bytes_that_are_not_utf8(tmp_path):
    path = tmp_path / "t.csv"
    path.write_bytes(b"n,x,ok,note\n1,0.5\xff,true,\n")
    with pytest.raises(ArtifactIOError, match=r"t.csv: not UTF-8 text \(invalid") as err:
        read_table(path, TABLE_HEADER, TABLE_KINDS)
    assert err.value.exit_code == 3


def test_read_table_missing_file_is_missing_artifact(tmp_path):
    with pytest.raises(MissingArtifact):
        read_table(tmp_path / "absent.csv", TABLE_HEADER, TABLE_KINDS)


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
