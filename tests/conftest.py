import os
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import pushresp
from pushresp.series import MidSeries, from_session_arrays


def make_series(blocks, dates=None) -> MidSeries:
    """Build a MidSeries from per-session price lists."""
    arrays = [np.asarray(b, dtype=np.float64) for b in blocks]
    if dates is None:
        dates = [18262 + i for i in range(len(arrays))]
    return from_session_arrays(list(dates), arrays)


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
