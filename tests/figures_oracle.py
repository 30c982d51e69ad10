"""Per-cell drawing of the two cell figures, the oracle for `figures`.

`figures.render_surface_top` and `render_dominance_heatmap` format each
bin's x and each row's y once and color their cells in vectorized
batches, writing each batch to the file as it is drawn.
This module draws the same figures one cell at a time: one scalar
`diverging_color` (Python floats, `round`) and one `_Svg.rect` per cell,
into an `io.StringIO`. The tests hold the figures to it byte for byte.
"""

from __future__ import annotations

import io

import numpy as np

from pushresp.decomposition import read_heatmap_csv
from pushresp.figures import (
    HEIGHT,
    MARGIN_B,
    MARGIN_L,
    MARGIN_R,
    MARGIN_T,
    WIDTH,
    FigureSpec,
    _axes,
    _Frame,
    _read_surface,
    _Svg,
)
from pushresp.series import read_manifest


def diverging_color(v: float, vmax: float) -> str:
    """Blue-white-red map on [-vmax, vmax], clipped."""
    t = max(-1.0, min(1.0, v / vmax))
    if t < 0:
        f = 1.0 + t  # 0 at -1, 1 at 0
        r, g, b = 59 + (255 - 59) * f, 76 + (255 - 76) * f, 192 + (255 - 192) * f
    else:
        f = 1.0 - t
        r, g, b = 255 - (255 - 180) * (1 - f), 255 * f + 4 * (1 - f), 255 * f + 38 * (1 - f)
    return f"#{round(r):02x}{round(g):02x}{round(b):02x}"


def render_surface_top(spec: FigureSpec) -> str:
    surf, rows = _read_surface(spec.surface)
    out = io.StringIO()
    with _Svg(out, "conditional response surface (top view)") as svg:
        if rows.size:
            grid = surf.grid
            cw = (WIDTH - MARGIN_L - MARGIN_R) / grid.n_bins
            ch = (HEIGHT - MARGIN_T - MARGIN_B) / len(rows)
            for row, i in enumerate(rows):
                cols = np.flatnonzero(surf.valid[i])
                for col, v in zip(cols.tolist(), surf.mean_zr[i, cols].tolist()):
                    svg.rect(MARGIN_L + col * cw, MARGIN_T + row * ch, cw + 0.1, ch + 0.1,
                             diverging_color(v, spec.vmax))
            frame = _Frame(grid.z_min, grid.z_max, 0, len(rows))
            _axes(svg, frame, "standardized push", "lag rank (top to bottom)")
    return out.getvalue()


def render_dominance_heatmap(spec: FigureSpec) -> str:
    pairs = read_heatmap_csv(spec.heatmap)
    out = io.StringIO()
    with _Svg(out, "local dominance heatmap") as svg:
        if len(pairs):
            lags, rank = np.unique(pairs.lag, return_inverse=True)
            grid = read_manifest(spec.heatmap)["grid"]
            n_half = grid["n_bins"] // 2
            cw = (WIDTH - MARGIN_L - MARGIN_R) / n_half
            ch = (HEIGHT - MARGIN_T - MARGIN_B) / len(lags)
            for row, k, v in zip(rank.tolist(), pairs.abs_index.tolist(),
                                 pairs.rho_local.tolist()):
                if 1 <= k <= n_half:
                    svg.rect(MARGIN_L + (k - 1) * cw, MARGIN_T + row * ch,
                             cw + 0.1, ch + 0.1, diverging_color(v, 1.0))
            frame = _Frame(0.0, grid["z_max"], 0, len(lags))
            _axes(svg, frame, "absolute standardized push", "lag rank (top to bottom)")
    return out.getvalue()
