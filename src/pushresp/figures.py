"""Deterministic SVG figures rendered from CSV artifacts.

Figures never touch in-memory pipeline state: they are drawn from the
exported CSV files alone, read by the same readers the pipeline uses,
with the bin layout of the surface views and the heatmap taken from the
grid in the CSV's manifest, so the published tables fully determine the
published pictures. All coordinates and colors are formatted with fixed
precision, making the output byte-stable for identical inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .decomposition import HEATMAP_HEADER, read_summary_csv
from .errors import InvalidGrid, MissingArtifact
from .series import parse_column, read_csv, read_manifest, write_text
from .surface import Surface, read_surface_csv

WIDTH = 960
HEIGHT = 560
MARGIN_L = 70
MARGIN_R = 30
MARGIN_T = 40
MARGIN_B = 50

FIGURE_KINDS = (
    "surface_top",
    "surface_side",
    "dominance_heatmap",
    "magnitude_curve",
    "rho_curve",
)


@dataclass(frozen=True)
class FigureSpec:
    kind: str
    out: str
    surface: str | None = None
    heatmap: str | None = None
    summary: str | None = None
    vmax: float = 0.5  # color scale bound for surface views

    def __post_init__(self):
        if self.kind not in FIGURE_KINDS:
            raise InvalidGrid(f"unknown figure kind '{self.kind}'")
        if self.vmax <= 0:
            raise InvalidGrid(f"vmax must be > 0, got {self.vmax}")


def _fmt(x: float) -> str:
    return f"{x:.3f}"


def _diverging_color(v: float, vmax: float) -> str:
    """Blue-white-red map on [-vmax, vmax], clipped."""
    t = max(-1.0, min(1.0, v / vmax))
    if t < 0:
        f = 1.0 + t  # 0 at -1, 1 at 0
        r, g, b = 59 + (255 - 59) * f, 76 + (255 - 76) * f, 192 + (255 - 192) * f
    else:
        f = 1.0 - t
        r, g, b = 255 - (255 - 180) * (1 - f), 255 * f + 4 * (1 - f), 255 * f + 38 * (1 - f)
    return f"#{round(r):02x}{round(g):02x}{round(b):02x}"


def _lag_color(i: int, n: int) -> str:
    t = 0.0 if n <= 1 else i / (n - 1)
    r = round(40 + 180 * t)
    g = round(90 + 40 * t)
    b = round(200 - 160 * t)
    return f"#{r:02x}{g:02x}{b:02x}"


class _Svg:
    def __init__(self, title: str):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
            f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
            f'<text x="{WIDTH / 2:.0f}" y="24" font-family="monospace" '
            f'font-size="16" text-anchor="middle">{title}</text>',
        ]

    def rect(self, x, y, w, h, color):
        self.parts.append(
            f'<rect x="{_fmt(x)}" y="{_fmt(y)}" width="{_fmt(w)}" '
            f'height="{_fmt(h)}" fill="{color}"/>'
        )

    def line(self, x1, y1, x2, y2, color="#888888", width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" y2="{_fmt(y2)}" '
            f'stroke="{color}" stroke-width="{width}"{d}/>'
        )

    def polyline(self, points, color, width=1.5, dash=None):
        pts = " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<polyline points="{pts}" fill="none" stroke="{color}" '
            f'stroke-width="{width}"{d}/>'
        )

    def text(self, x, y, s, anchor="middle", size=11):
        self.parts.append(
            f'<text x="{_fmt(x)}" y="{_fmt(y)}" font-family="monospace" '
            f'font-size="{size}" text-anchor="{anchor}">{s}</text>'
        )

    def to_string(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


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


def _read_surface(path) -> tuple[Surface, np.ndarray]:
    """The surface at `path` and the indices of its lags that hold a cell."""
    surf = read_surface_csv(path, read_manifest(path))
    return surf, np.flatnonzero(surf.counts.any(axis=1))


def render_surface_top(spec: FigureSpec) -> str:
    surf, rows = _read_surface(spec.surface)
    svg = _Svg("conditional response surface (top view)")
    if rows.size:
        grid = surf.grid
        cw = (WIDTH - MARGIN_L - MARGIN_R) / grid.n_bins
        ch = (HEIGHT - MARGIN_T - MARGIN_B) / len(rows)
        for row, i in enumerate(rows):
            cols = np.flatnonzero(surf.valid[i])
            for col, v in zip(cols.tolist(), surf.mean_zr[i, cols].tolist()):
                svg.rect(MARGIN_L + col * cw, MARGIN_T + row * ch, cw + 0.1, ch + 0.1,
                         _diverging_color(v, spec.vmax))
        frame = _Frame(grid.z_min, grid.z_max, 0, len(rows))
        _axes(svg, frame, "standardized push", "lag rank (top to bottom)")
    return svg.to_string()


def render_surface_side(spec: FigureSpec) -> str:
    surf, rows = _read_surface(spec.surface)
    svg = _Svg("conditional response surface (side view)")
    vals = surf.mean_zr[surf.valid]
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
    return svg.to_string()


def render_dominance_heatmap(spec: FigureSpec) -> str:
    cols = read_csv(spec.heatmap, HEATMAP_HEADER)
    svg = _Svg("local dominance heatmap")
    if cols["lag"]:
        lags = parse_column(spec.heatmap, cols, "lag", int)
        rank = {lag: row for row, lag in enumerate(sorted(set(lags)))}
        cells = zip(lags, parse_column(spec.heatmap, cols, "abs_index", int),
                    parse_column(spec.heatmap, cols, "rho_local", float))
        grid = read_manifest(spec.heatmap)["grid"]
        n_half = grid["n_bins"] // 2
        cw = (WIDTH - MARGIN_L - MARGIN_R) / n_half
        ch = (HEIGHT - MARGIN_T - MARGIN_B) / len(rank)
        # a cell per supported pair, in (lag, abs_index) order; unsupported pairs stay blank
        for (lag, k), v in sorted({(lag, k): v for lag, k, v in cells}.items()):
            if 1 <= k <= n_half:
                svg.rect(MARGIN_L + (k - 1) * cw, MARGIN_T + rank[lag] * ch,
                         cw + 0.1, ch + 0.1, _diverging_color(v, 1.0))
        frame = _Frame(0.0, grid["z_max"], 0, len(rank))
        _axes(svg, frame, "absolute standardized push", "lag rank (top to bottom)")
    return svg.to_string()


def render_magnitude_curve(spec: FigureSpec) -> str:
    rows = read_summary_csv(spec.summary)
    svg = _Svg("response magnitude by lag")
    if rows:
        xs = [r.lag for r in rows]
        ys = [r.M for r in rows]
        frame = _Frame(min(xs), max(xs), 0.0, max(ys) * 1.05 if max(ys) > 0 else 1.0)
        _axes(svg, frame, "lag (events)", "weighted mean |response|")
        svg.polyline(
            [(frame.x(x), frame.y(y)) for x, y in zip(xs, ys)], "#b02428", width=2.0
        )
    return svg.to_string()


def render_rho_curve(spec: FigureSpec) -> str:
    rows = read_summary_csv(spec.summary)
    svg = _Svg("lag dominance with bootstrap band")
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
    return svg.to_string()


_RENDERERS = {
    "surface_top": (render_surface_top, "surface"),
    "surface_side": (render_surface_side, "surface"),
    "dominance_heatmap": (render_dominance_heatmap, "heatmap"),
    "magnitude_curve": (render_magnitude_curve, "summary"),
    "rho_curve": (render_rho_curve, "summary"),
}


def render_figure(spec: FigureSpec) -> Path:
    """Render one figure to its output path; returns the path."""
    renderer, needed = _RENDERERS[spec.kind]
    if getattr(spec, needed) is None:
        raise MissingArtifact(f"figure '{spec.kind}' needs a --{needed} input")
    out = Path(spec.out)
    write_text(out, renderer(spec))
    return out
