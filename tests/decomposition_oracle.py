"""Reference mirror decomposition: one lag at a time, one pair at a time.

It states `decompose` and the per-lag magnitudes the plain way (per lag
the supported columns of `pair_terms`, per pair scalar local indices and
a row of Python values appended field by field, per lag a dot product of
the weights with a list of half-magnitudes), so that the array forms in
`pushresp.decomposition` can be checked against it bit for bit. Its
columns must equal `decompose`'s in `repr` and dtype, not merely be
close. Only the tests use it.
"""

from __future__ import annotations

import numpy as np

from pushresp.decomposition import EPSILON, HEATMAP_HEADER, MirrorPairs, pair_terms
from pushresp.surface import Surface

from conftest import bin_center

INT_COLUMNS = ("lag", "abs_index", "n_pos", "n_neg")


def oracle_decompose(surface: Surface) -> MirrorPairs:
    grid = surface.grid
    half = grid.n_bins // 2
    rows: list[dict] = []
    for i, m in enumerate(surface.moments):
        support, A, S = pair_terms(surface.counts[i], surface.mean_zr[i], grid.n_min_support)
        supported = np.flatnonzero(support)
        if supported.size == 0:
            continue
        weights = support[supported] / support[supported].sum()
        for col, w in zip(supported.tolist(), weights.tolist()):
            k = col + 1
            pos, neg = half + k - 1, half - k  # 0-based columns
            s, a = float(S[col]), float(A[col])
            signed = a / (abs(a) + abs(s) + EPSILON)
            share = (abs(a) - abs(s)) / (abs(a) + abs(s) + EPSILON)
            rows.append(dict(
                lag=m.lag,
                abs_index=k,
                abs_center=bin_center(grid, half + k),
                S=s,
                A=a,
                rho_local=signed,
                rho_local_alt=share,
                weight=w,
                n_pos=int(surface.counts[i, pos]),
                n_neg=int(surface.counts[i, neg]),
                mean_zr_pos=float(surface.mean_zr[i, pos]),
                mean_zr_neg=float(surface.mean_zr[i, neg]),
                mean_r_raw_pos=float(surface.mean_r_raw[i, pos]),
                mean_r_raw_neg=float(surface.mean_r_raw[i, neg]),
            ))
    return MirrorPairs(**{
        name: np.array([r[name] for r in rows],
                       dtype=np.int64 if name in INT_COLUMNS else np.float64)
        for name in HEATMAP_HEADER
    })


def oracle_magnitudes(pairs: MirrorPairs) -> dict[int, tuple[float, float]]:
    """(M, M_raw) per lag: the weighted mean half-magnitude of the
    standardized and the raw mirror means."""
    by_lag: dict[int, list[dict]] = {}
    for values in zip(*(getattr(pairs, name).tolist() for name in HEATMAP_HEADER)):
        p = dict(zip(HEATMAP_HEADER, values))
        by_lag.setdefault(p["lag"], []).append(p)
    out = {}
    for lag, lp in by_lag.items():
        w = np.array([p["weight"] for p in lp])
        half_zr = np.array([0.5 * (abs(p["mean_zr_pos"]) + abs(p["mean_zr_neg"])) for p in lp])
        half_raw = np.array([0.5 * (abs(p["mean_r_raw_pos"]) + abs(p["mean_r_raw_neg"]))
                             for p in lp])
        out[lag] = (float(np.dot(w, half_zr)), float(np.dot(w, half_raw)))
    return out
