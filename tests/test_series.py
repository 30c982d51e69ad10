import numpy as np
import pytest

from pushresp.errors import ArtifactIOError
from pushresp.series import (
    MidSeries,
    Session,
    from_session_arrays,
    read_manifest,
    read_prms,
    series_summary,
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
