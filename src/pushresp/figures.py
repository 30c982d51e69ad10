"""Deterministic SVG figures rendered from CSV artifacts.

Figures never touch in-memory pipeline state: they are drawn from the
exported CSV files alone, read by the same readers the pipeline uses,
with the bin layout of the surface views and the heatmap taken from the
grid in the CSV's manifest, so the published tables fully determine the
published pictures. All coordinates and colors are formatted with fixed
precision, making the output byte-stable for identical inputs.

Memory: a figure is written as it is drawn, each element to the output
file as soon as it is made. The two cell figures color and format their
cells a batch of `_CELL_BATCH` at a time, so a render holds its CSV's
columns and one batch of cells, never the whole document.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TextIO

import numpy as np

from .decomposition import read_heatmap_csv, read_summary_csv
from .errors import InvalidGrid, MissingArtifact
from .series import manifest_fields, read_manifest
from . import surface as surface_mod

WIDTH = 960
HEIGHT = 560
MARGIN_L = 70
MARGIN_R = 30
MARGIN_T = 40
MARGIN_B = 50
# Cells colored, formatted and written at a time by the cell figures.
_CELL_BATCH = 1024

@dataclass(frozen=True)
class FigureSpec:
    kind: str
    out: str
    surface: str | None = None
    heatmap: str | None = None
    summary: str | None = None
    vmax: float = 0.5  # color scale bound for surface views

    def __post_init__(self):
        problems = []
        if self.kind not in _RENDERERS:
            problems.append(f"unknown figure kind '{self.kind}'")
        if self.vmax <= 0:
            problems.append(f"vmax must be > 0, got {self.vmax}")
        if problems:
            raise InvalidGrid(problems)


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _diverging_colors(values: np.ndarray, vmax: float) -> list[str]:
    """`#rrggbb` of each value on a blue-white-red map over [-vmax, vmax],
    clipped: t = max(-1, min(1, v / vmax)) (so NaN maps to 1), and each
    channel a float64 line in t, rounded half to even."""
    t = values / vmax
    t = np.where(t < 1.0, t, 1.0)
    t = np.where(t > -1.0, t, -1.0)
    neg = t < 0
    f = np.where(neg, 1.0 + t, 1.0 - t)  # 0 at -1 and at 1, 1 at 0
    r = np.where(neg, 59 + (255 - 59) * f, 255 - (255 - 180) * (1 - f))
    g = np.where(neg, 76 + (255 - 76) * f, 255 * f + 4 * (1 - f))
    b = np.where(neg, 192 + (255 - 192) * f, 255 * f + 38 * (1 - f))
    rgb = (np.rint(r).astype(np.int64) << 16) | (np.rint(g).astype(np.int64) << 8) \
        | np.rint(b).astype(np.int64)
    return [f"#{c:06x}" for c in rgb.tolist()]


def _lag_color(i: int, n: int) -> str:
    t = 0.0 if n <= 1 else i / (n - 1)
    r = round(40 + 180 * t)
    g = round(90 + 40 * t)
    b = round(200 - 160 * t)
    return f"#{r:02x}{g:02x}{b:02x}"


class _Svg:
    """An SVG document written to the text stream `out` as it is drawn,
    one line per element; leaving the `with` block ends the document."""

    def __init__(self, out: TextIO, title: str):
        self.out = out
        out.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">\n'
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n'
            f'<text x="{WIDTH / 2:.0f}" y="24" font-family="monospace" '
            f'font-size="16" text-anchor="middle">{title}</text>\n'
        )

    def __enter__(self) -> _Svg:
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is None:
            self.out.write("</svg>\n")

    def rect(self, x, y, w, h, color):
        self.out.write(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{color}"/>\n'
        )

    def cells(self, xs, ys, cols, rows, values, vmax, w, h):
        """One rect per cell k, at x `xs[cols[k]]` and y `ys[rows[k]]`, all
        of width `w` and height `h`, in the diverging color of `values[k]`
        over [-vmax, vmax]. Coordinates are formatted once each; the cells
        are colored and written `_CELL_BATCH` at a time."""
        xs, ys = list(map(_fmt, xs)), list(map(_fmt, ys))
        size = f'width="{_fmt(w)}" height="{_fmt(h)}"'
        for lo in range(0, len(cols), _CELL_BATCH):
            batch = slice(lo, lo + _CELL_BATCH)
            colors = _diverging_colors(values[batch], vmax)
            self.out.write("".join(
                f'<rect x="{xs[c]}" y="{ys[r]}" {size} fill="{color}"/>\n'
                for c, r, color in zip(cols[batch].tolist(), rows[batch].tolist(), colors)
            ))

    def line(self, x1, y1, x2, y2, color="#888888", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.out.write(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>\n'
        )

    def polyline(self, points, color, width=1.5, dash=None):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.out.write(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>\n'
        )

    def text(self, x, y, s, anchor="middle", size=11):
        self.out.write(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}">{s}</text>\n'
        )


@dataclass
class _Frame:
    """Maps data coordinates onto the plot area."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    plot_w: float = field(init=False)
    plot_h: float = field(init=False)

    def __post_init__(self):
        if self.x_max == self.x_min:
            self.x_max = self.x_min + 1.0
        if self.y_max == self.y_min:
            self.y_max = self.y_min + 1.0
        self.plot_w = WIDTH - MARGIN_L - MARGIN_R
        self.plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def x(self, v: float) -> float:
        return MARGIN_L + (v - self.x_min) / (self.x_max - self.x_min) * self.plot_w

    def y(self, v: float) -> float:
        return HEIGHT - MARGIN_B - (v - self.y_min) / (self.y_max - self.y_min) * self.plot_h


def _axes(svg: _Svg, frame: _Frame, x_label: str, y_label: str):
    svg.line(MARGIN_L, HEIGHT - MARGIN_B, WIDTH - MARGIN_R, HEIGHT - MARGIN_B, "#000000")
    svg.line(MARGIN_L, MARGIN_T, MARGIN_L, HEIGHT - MARGIN_B, "#000000")
    for i in range(5):
        xv = frame.x_min + (frame.x_max - frame.x_min) * i / 4
        yv = frame.y_min + (frame.y_max - frame.y_min) * i / 4
        svg.text(frame.x(xv), HEIGHT - MARGIN_B + 16, f"{xv:.4g}")
        svg.text(MARGIN_L - 8, frame.y(yv) + 4, f"{yv:.4g}", anchor="end")
    svg.text(WIDTH / 2, HEIGHT - 12, x_label)
    svg.text(16, MARGIN_T - 14, y_label, anchor="start")


def _read_surface(path) -> tuple[surface_mod.Surface, np.ndarray]:
    """The surface at `path` and the indices of its lags that hold a cell,
    read through the module, so a wrapper of the reader sees this read."""
    surf = surface_mod.read_surface_csv(path, read_manifest(path))
    return surf, np.flatnonzero(surf.counts.any(axis=1))


def render_surface_top(spec: FigureSpec, out: TextIO) -> None:
    surf, rows = _read_surface(spec.surface)
    with _Svg(out, "conditional response surface (top view)") as svg:
        if rows.size:
            grid = surf.grid
            cw = (WIDTH - MARGIN_L - MARGIN_R) / grid.n_bins
            ch = (HEIGHT - MARGIN_T - MARGIN_B) / len(rows)
            row, col = np.nonzero(surf.valid[rows])  # row by row, bins in order
            svg.cells([MARGIN_L + k * cw for k in range(grid.n_bins)],
                      [MARGIN_T + k * ch for k in range(len(rows))], col, row,
                      surf.mean_zr[rows[row], col], spec.vmax, cw + 0.1, ch + 0.1)
            frame = _Frame(grid.z_min, grid.z_max, 0, len(rows))
            _axes(svg, frame, "standardized push", "lag rank (top to bottom)")


def render_surface_side(spec: FigureSpec, out: TextIO) -> None:
    surf, rows = _read_surface(spec.surface)
    vals = surf.mean_zr[surf.valid]
    with _Svg(out, "conditional response surface (side view)") as svg:
        if vals.size:
            grid = surf.grid
            lo, hi = vals.min().item(), vals.max().item()
            pad = 0.05 * (hi - lo) if hi > lo else 0.1
            frame = _Frame(grid.z_min, grid.z_max, lo - pad, hi + pad)
            _axes(svg, frame, "standardized push", "mean standardized response")
            if frame.y_min < 0 < frame.y_max:
                svg.line(frame.x(frame.x_min), frame.y(0), frame.x(frame.x_max),
                         frame.y(0), "#bbbbbb", dash="4,3")
            centers = grid.centers()
            for row, i in enumerate(rows):
                cols = np.flatnonzero(surf.valid[i])
                if len(cols) >= 2:
                    points = zip(frame.x(centers[cols]).tolist(),
                                 frame.y(surf.mean_zr[i, cols]).tolist())
                    svg.polyline(points, _lag_color(row, len(rows)), width=1.0)


def render_dominance_heatmap(spec: FigureSpec, out: TextIO) -> None:
    pairs = read_heatmap_csv(spec.heatmap)
    with _Svg(out, "local dominance heatmap") as svg:
        if len(pairs):
            (grid,) = manifest_fields(spec.heatmap, read_manifest(spec.heatmap), "grid")
            lags, rank = np.unique(pairs.lag, return_inverse=True)
            n_half = grid["n_bins"] // 2
            cw = (WIDTH - MARGIN_L - MARGIN_R) / n_half
            ch = (HEIGHT - MARGIN_T - MARGIN_B) / len(lags)
            # a cell per supported pair, in the file's (lag, abs_index) order;
            # unsupported pairs stay blank
            on = (1 <= pairs.abs_index) & (pairs.abs_index <= n_half)
            svg.cells([MARGIN_L + k * cw for k in range(n_half)],
                      [MARGIN_T + k * ch for k in range(len(lags))],
                      pairs.abs_index[on] - 1, rank[on], pairs.rho_local[on], 1.0,
                      cw + 0.1, ch + 0.1)
            frame = _Frame(0.0, grid["z_max"], 0, len(lags))
            _axes(svg, frame, "absolute standardized push", "lag rank (top to bottom)")


def render_magnitude_curve(spec: FigureSpec, out: TextIO) -> None:
    rows = read_summary_csv(spec.summary)
    with _Svg(out, "response magnitude by lag") as svg:
        if rows:
            xs = [r.lag for r in rows]
            ys = [r.M for r in rows]
            frame = _Frame(min(xs), max(xs), 0.0, max(ys) * 1.05 if max(ys) > 0 else 1.0)
            _axes(svg, frame, "lag (events)", "weighted mean |response|")
            svg.polyline(
                [(frame.x(x), frame.y(y)) for x, y in zip(xs, ys)], "#b02428", width=2.0
            )


def render_rho_curve(spec: FigureSpec, out: TextIO) -> None:
    rows = read_summary_csv(spec.summary)
    with _Svg(out, "lag dominance with bootstrap band") as svg:
        if rows:
            xs = [r.lag for r in rows]
            frame = _Frame(min(xs), max(xs), -1.0, 1.0)
            _axes(svg, frame, "lag (events)", "dominance")
            svg.line(frame.x(xs[0]), frame.y(0), frame.x(xs[-1]), frame.y(0),
                     "#bbbbbb", dash="4,3")
            for col, key, width, dash in (
                ("#8899dd", "ci_low", 1.0, "2,2"),
                ("#8899dd", "ci_high", 1.0, "2,2"),
                ("#202090", "rho", 2.0, None),
            ):
                pts = [(frame.x(x), frame.y(getattr(r, key))) for x, r in zip(xs, rows)]
                if len(pts) >= 2:
                    svg.polyline(pts, col, width=width, dash=dash)
                elif pts:
                    x, y = pts[0]
                    svg.rect(x - 2, y - 2, 4, 4, col)


_RENDERERS = {
    "surface_top": (render_surface_top, "surface"),
    "surface_side": (render_surface_side, "surface"),
    "dominance_heatmap": (render_dominance_heatmap, "heatmap"),
    "magnitude_curve": (render_magnitude_curve, "summary"),
    "rho_curve": (render_rho_curve, "summary"),
}
FIGURE_KINDS = tuple(_RENDERERS)


def render_figure(spec: FigureSpec) -> Path:
    """Render one figure to its output path; returns the path. What a
    failed render leaves there is removed by the stage that ran it."""
    renderer, needed = _RENDERERS[spec.kind]
    if getattr(spec, needed) is None:
        raise MissingArtifact(f"figure '{spec.kind}' needs a --{needed} input")
    with open(spec.out, "w", encoding="utf-8") as out:
        renderer(spec, out)
    return Path(spec.out)
