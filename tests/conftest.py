import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pushresp
from pushresp.series import MidSeries, Session


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
