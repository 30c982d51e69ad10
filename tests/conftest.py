import csv
import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

import pushresp
from pushresp.lags import MOMENTS_HEADER, LagMoments, MomentRow
from pushresp.series import MidSeries, Session

# HYPOTHESIS_PROFILE=ci makes every property test draw the same examples on
# each run, so a CI result does not hang on the draw; a run without it draws
# new examples each time.
settings.register_profile("ci", derandomize=True, database=None)
if profile := os.environ.get("HYPOTHESIS_PROFILE"):
    settings.load_profile(profile)


def from_session_arrays(dates: list[int], arrays: list[np.ndarray]) -> MidSeries:
    """Assemble a MidSeries from per-session arrays, assigning global indices."""
    sessions = []
    start = 0
    for date, arr in zip(dates, arrays):
        n = len(arr)
        if n == 0:
            continue
        sessions.append(Session(date=date, start=start, end=start + n - 1))
        start += n
    if sessions:
        mids = np.concatenate([a for a in arrays if len(a)])
    else:
        mids = np.empty(0, dtype=np.float64)
    return MidSeries(sessions=sessions, mids=mids)


def make_series(blocks, dates=None) -> MidSeries:
    """Build a MidSeries from per-session price lists."""
    arrays = [np.asarray(b, dtype=np.float64) for b in blocks]
    if dates is None:
        dates = [18262 + i for i in range(len(arrays))]
    return from_session_arrays(list(dates), arrays)


def bin_indices(grid, z_p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(0-based indices, in-grid mask) from `grid.bin_slots`."""
    j0 = grid.bin_slots(z_p) - 1
    return j0, (j0 >= 0) & (j0 < grid.n_bins)


def bin_index(grid, z_p: float):
    """1-based bin of one push, or None when it falls off the grid."""
    j = int(grid.bin_slots(np.array([z_p], dtype=np.float64))[0])
    return j if 1 <= j <= grid.n_bins else None


class IndexOutOfRange(IndexError):
    """A bin index fell outside 1..n_bins."""


def bin_center(grid, j: int) -> float:
    """Center of the 1-based bin j; IndexOutOfRange off the grid."""
    if not (1 <= j <= grid.n_bins):
        raise IndexOutOfRange(f"bin index {j} outside 1..{grid.n_bins}")
    return grid.z_min + (j - 0.5) * grid.step


def read_moments_csv(path) -> list[MomentRow]:
    """The rows of a moments CSV; a lag whose moments are blank is excluded.
    The pipeline never reads this table back, so it is parsed here with
    the `csv` module."""
    with open(path, newline="", encoding="utf-8") as f:
        header, *lines = csv.reader(f)
    assert header == MOMENTS_HEADER
    rows: list[MomentRow] = []
    for lag, n_pairs, *values in lines:
        lag, n_pairs = int(lag), int(n_pairs)
        if values[0] == "":
            reason = "insufficient_support" if n_pairs < 2 else "zero_variance"
            rows.append(MomentRow(lag, n_pairs, None, reason))
        else:
            rows.append(MomentRow(lag, n_pairs, LagMoments(lag, n_pairs, *map(float, values)),
                                  None))
    return rows


def traced_peak(fn):
    """(fn(), the peak bytes traced while it ran)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def child_env() -> dict:
    """Environment for a child `python -m pushresp.cli`: PYTHONPATH starts
    with the absolute directory holding the package this suite imported,
    so the child finds it whatever its working directory."""
    env = dict(os.environ)
    root = str(Path(pushresp.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = root + (os.pathsep + rest if rest else "")
    return env
