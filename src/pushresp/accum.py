"""Mergeable streaming accumulators.

Per-session partial statistics are computed vectorized (numpy pairwise
summation inside a batch) and folded into running accumulators with
compensated merge formulas, so a sweep over sessions matches a naive
two-pass computation to near machine precision regardless of how the
input is chunked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class MomentAccumulator:
    """Running count/mean/M2 with batch updates (parallel-variance merge)."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def add_batch(self, values: np.ndarray, out: np.ndarray) -> None:
        """Fold in a batch; its deviations go to `out`, which may be `values`."""
        n_b = int(values.size)
        if n_b == 0:
            return
        mean_b = float(values.mean())
        dev = np.subtract(values, mean_b, out=out[:n_b])
        m2_b = float(np.dot(dev, dev))
        n_a = self.count
        n = n_a + n_b
        delta = mean_b - self.mean
        self.mean += delta * (n_b / n)
        self.m2 += m2_b + delta * delta * (n_a * n_b / n)
        self.count = n

    @property
    def variance(self) -> float:
        """Population variance (divide by n)."""
        if self.count == 0:
            return float("nan")
        return self.m2 / self.count

    @property
    def std(self) -> float:
        return float(np.sqrt(self.variance))


@dataclass
class CompensatedSums:
    """Elementwise Kahan-compensated running sums over a fixed-shape array."""

    shape: tuple
    total: np.ndarray = field(init=False)
    _carry: np.ndarray = field(init=False)

    def __post_init__(self):
        self.total = np.zeros(self.shape, dtype=np.float64)
        self._carry = np.zeros(self.shape, dtype=np.float64)

    def add(self, values: np.ndarray) -> None:
        y = values - self._carry
        t = self.total + y
        self._carry = (t - self.total) - y
        self.total = t
