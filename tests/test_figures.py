import dataclasses
from pathlib import Path

import figures_oracle
import numpy as np
import pytest

from pushresp import figures
from pushresp.decomposition import (
    BootstrapConfig,
    HEATMAP_HEADER,
    MirrorPairs,
    decompose,
    read_heatmap_csv,
    summarize,
    write_heatmap_csv,
    write_summary_csv,
)
from pushresp.errors import InvalidGrid, MissingArtifact, StageFailure
from pushresp.figures import FigureSpec, render_figure
from pushresp.lags import LagMoments, compute_moments_table
from pushresp.pipeline import render_stage, run_stage
from pushresp.series import read_manifest, write_manifest
from pushresp.surface import (
    BinGrid,
    Surface,
    accumulate_surface,
    read_surface_csv,
    surface_manifest,
    write_surface_csv,
)
from pushresp.synthetic import SyntheticSpec, generate

from conftest import traced_peak
from test_decomposition import build_surface, mirror_cells


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    """A small end-to-end artifact set rendered from a null walk; the
    surface and heatmap manifests carry the grid the figures lay out."""
    d = tmp_path_factory.mktemp("artifacts")
    series = generate(SyntheticSpec(kind="null_walk", n_events=60000,
                                    n_sessions=2, seed=4))
    rows = compute_moments_table(series, [1, 5, 20])
    surf = accumulate_surface(series, rows, BinGrid(n_min_support=50))
    write_surface_csv(surf, d / "surface.csv")
    write_manifest(d / "surface.csv", surface_manifest(surf))
    pairs = decompose(surf)
    write_heatmap_csv(pairs, d / "heat.csv")
    write_manifest(d / "heat.csv", {"grid": surf.grid.to_dict()})
    write_summary_csv(summarize(pairs, BootstrapConfig(n_replicates=100, seed=1), surf.blocks),
                      d / "lags.csv")
    write_manifest(d / "lags.csv", {})
    return d


def test_all_kinds_render_deterministically(artifact_dir, tmp_path):
    for kind, src in (
        ("surface_top", "surface"),
        ("surface_side", "surface"),
        ("dominance_heatmap", "heatmap"),
        ("magnitude_curve", "summary"),
        ("rho_curve", "summary"),
    ):
        inputs = {
            "surface": str(artifact_dir / "surface.csv"),
            "heatmap": str(artifact_dir / "heat.csv"),
            "summary": str(artifact_dir / "lags.csv"),
        }
        out1 = tmp_path / f"{kind}-1.svg"
        out2 = tmp_path / f"{kind}-2.svg"
        render_figure(FigureSpec(kind=kind, out=str(out1), **{src: inputs[src]}))
        render_figure(FigureSpec(kind=kind, out=str(out2), **{src: inputs[src]}))
        text = out1.read_text()
        assert text.startswith("<svg")
        assert text.rstrip().endswith("</svg>")
        assert out1.read_bytes() == out2.read_bytes()


def test_layout_follows_the_grid(tmp_path):
    # an 80-bin grid over [-2, 2) fills the plot width under a -2..2 axis
    grid = BinGrid(z_min=-2.0, z_max=2.0, step=0.05, n_min_support=20)
    series = generate(SyntheticSpec(kind="null_walk", n_events=20000, seed=4))
    surf = accumulate_surface(series, compute_moments_table(series, [1, 5]), grid)
    write_surface_csv(surf, tmp_path / "surface.csv")
    write_manifest(tmp_path / "surface.csv", surface_manifest(surf))
    write_heatmap_csv(decompose(surf), tmp_path / "heat.csv")
    write_manifest(tmp_path / "heat.csv", {"grid": grid.to_dict()})
    plot_w = 960 - 70 - 30
    for kind, src, n_cells in (
        ("surface_top", "surface", 80),
        ("surface_side", "surface", None),
        ("dominance_heatmap", "heatmap", 40),
    ):
        out = tmp_path / f"{kind}.svg"
        csv_name = "surface.csv" if src == "surface" else "heat.csv"
        render_figure(FigureSpec(kind=kind, out=str(out), **{src: str(tmp_path / csv_name)}))
        body = out.read_text()
        if n_cells is not None:
            assert f'width="{plot_w / n_cells + 0.1:.3f}"' in body
        if src == "surface":
            assert ">-2</text>" in body and ">2</text>" in body
            assert ">-4</text>" not in body


def test_surface_views_skip_a_lag_without_cells(tmp_path):
    # on a narrow grid a lag can push every anchor off the grid: its row
    # is all zero and its CSV has no row, so the views must leave it out
    series = generate(SyntheticSpec(kind="null_walk", n_events=20000, seed=4))
    surf = accumulate_surface(series, compute_moments_table(series, [1, 5]),
                              BinGrid(n_min_support=20))
    blank = dataclasses.replace(surf.moments[0], lag=3)
    with_blank = dataclasses.replace(
        surf,
        moments=[surf.moments[0], blank, surf.moments[1]],
        counts=np.insert(surf.counts, 1, 0, axis=0),
        mean_zp=np.insert(surf.mean_zp, 1, np.nan, axis=0),
        mean_zr=np.insert(surf.mean_zr, 1, np.nan, axis=0),
        mean_r_raw=np.insert(surf.mean_r_raw, 1, np.nan, axis=0),
        out_of_grid=np.insert(surf.out_of_grid, 1, blank.n_pairs),
    )
    for name, s in (("plain", surf), ("blank", with_blank)):
        write_surface_csv(s, tmp_path / f"{name}.csv")
        write_manifest(tmp_path / f"{name}.csv", surface_manifest(s))
    for kind in ("surface_top", "surface_side"):
        for name in ("plain", "blank"):
            render_figure(FigureSpec(kind=kind, out=str(tmp_path / f"{kind}-{name}.svg"),
                                     surface=str(tmp_path / f"{name}.csv")))
        plain = (tmp_path / f"{kind}-plain.svg").read_bytes()
        assert (tmp_path / f"{kind}-blank.svg").read_bytes() == plain


def test_heatmap_single_pair_single_cell(tmp_path):
    surf = build_surface(mirror_cells(30, 400, 400, 0.2, -0.3))
    pairs = decompose(surf)
    heat = tmp_path / "heat.csv"
    write_heatmap_csv(pairs, heat)
    write_manifest(heat, {"grid": surf.grid.to_dict()})
    out = tmp_path / "heat.svg"
    render_figure(FigureSpec(kind="dominance_heatmap", out=str(out), heatmap=str(heat)))
    body = out.read_text()
    # background rect + exactly one data cell
    assert body.count("<rect") == 2


def test_rho_curve_has_three_polylines(artifact_dir, tmp_path):
    out = tmp_path / "rho.svg"
    render_figure(
        FigureSpec(kind="rho_curve", out=str(out),
                   summary=str(artifact_dir / "lags.csv"))
    )
    assert out.read_text().count("<polyline") == 3


def test_missing_artifact(tmp_path):
    # a render runs through its stage, which leaves neither the figure nor
    # its .partial when the input is gone: before the figure is opened when
    # the manifest is missing too, after it when only the table is
    summary = tmp_path / "lags.csv"
    spec = FigureSpec(kind="rho_curve", out=str(tmp_path / "x.svg"), summary=str(summary))
    with pytest.raises(MissingArtifact):
        run_stage(render_stage(spec))
    write_summary_csv([], summary)
    write_manifest(summary, {})
    summary.unlink()
    with pytest.raises(MissingArtifact):
        run_stage(render_stage(spec))
    assert [p.name for p in tmp_path.iterdir()] == ["lags.csv.manifest.json"]
    with pytest.raises(MissingArtifact):
        render_figure(FigureSpec(kind="surface_top", out=str(tmp_path / "y.svg")))


def test_unknown_kind_rejected(tmp_path):
    with pytest.raises(InvalidGrid):
        FigureSpec(kind="pie", out=str(tmp_path / "p.svg"))


def test_empty_csv_renders_blank_figure(tmp_path):
    src = tmp_path / "lags.csv"
    src.write_text("lag,rho,ci_low,ci_high,M,M_raw,n_supported_pairs,degenerate\n")
    write_manifest(src, {})
    out = tmp_path / "empty.svg"
    render_figure(FigureSpec(kind="rho_curve", out=str(out), summary=str(src)))
    assert "<polyline" not in out.read_text()


def channels(v: float, vmax: float) -> tuple[float, float, float]:
    """The unrounded color channels of `v`, as the scalar map computes them."""
    t = max(-1.0, min(1.0, v / vmax))
    if t < 0:
        f = 1.0 + t
        return 59 + 196 * f, 76 + 179 * f, 192 + 63 * f
    f = 1.0 - t
    return 255 - 75 * (1 - f), 255 * f + 4 * (1 - f), 255 * f + 38 * (1 - f)


def half_way_values(vmax: float) -> list[float]:
    """Values one of whose color channels lands exactly on x.5, where the
    rounding goes half to even: each channel's line in t solved for every
    k + 0.5, kept where the float arithmetic hits it."""
    out = set()
    for k in range(256):
        h = k + 0.5
        for t in ((h - 59) / 196 - 1, (h - 76) / 179 - 1, (h - 192) / 63 - 1,
                  (255 - h) / 75, (255 - h) / 251, (255 - h) / 217):
            v = t * vmax
            if -1 <= t <= 1 and any(c % 1 == 0.5 for c in channels(v, vmax)):
                out.add(v)
    return sorted(out)


def edge_values(vmax: float) -> np.ndarray:
    halves = half_way_values(vmax)
    assert min(halves) < 0 < max(halves) and len(halves) >= 100
    return np.array(
        [vmax, -vmax, np.nextafter(vmax, 0), np.nextafter(-vmax, 0), 1.5 * vmax, -1.5 * vmax,
         0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf, np.nan] + halves)


@pytest.mark.parametrize("vmax", [0.5, 0.3])
def test_surface_top_matches_per_cell_oracle(tmp_path, vmax):
    # every edge value in a valid cell, then random ones; the last lag is
    # left blank and every third bin of the one before holds nothing
    values = edge_values(vmax)
    grid = BinGrid(n_min_support=1)
    n_lags = len(values) // grid.n_bins + 2
    counts = np.ones((n_lags, grid.n_bins), dtype=np.int64)
    counts[-2, ::3] = counts[-1] = 0
    mean_zr = np.random.default_rng(5).uniform(-2 * vmax, 2 * vmax, counts.shape)
    mean_zr.flat[:len(values)] = values
    mean_zr[counts == 0] = np.nan
    lags = range(1, n_lags + 1)
    surf = Surface(
        grid=grid, counts=counts, mean_zp=np.where(counts > 0, 0.0, np.nan), mean_zr=mean_zr,
        mean_r_raw=np.where(counts > 0, 0.0, np.nan), out_of_grid=np.zeros(n_lags, np.int64),
        moments=[LagMoments(lag, grid.n_bins, 0.0, 1.0, 0.0, 1.0) for lag in lags],
    )
    write_surface_csv(surf, tmp_path / "surface.csv")
    write_manifest(tmp_path / "surface.csv", surface_manifest(surf))
    spec = FigureSpec(kind="surface_top", out=str(tmp_path / "top.svg"),
                      surface=str(tmp_path / "surface.csv"), vmax=vmax)
    render_figure(spec)
    want = figures_oracle.render_surface_top(spec)
    assert want.count("<rect") == 1 + counts.sum()
    assert (tmp_path / "top.svg").read_text() == want


def test_dominance_heatmap_matches_per_cell_oracle(tmp_path):
    # every edge value as a pair's rho_local, over bins 0..161 of a 320-bin
    # grid's 160 half bins: the pairs at 0 and 161 get no cell
    values = edge_values(1.0)
    n = len(values) + 100
    index = np.arange(n)
    rho = np.random.default_rng(6).uniform(-2, 2, n)
    rho[:len(values)] = values
    columns = {name: np.zeros(n) for name in HEATMAP_HEADER}
    columns |= {"lag": 1 + index // 162, "abs_index": index % 162, "rho_local": rho,
                "n_pos": np.ones(n, np.int64), "n_neg": np.ones(n, np.int64)}
    write_heatmap_csv(MirrorPairs(**columns), tmp_path / "heat.csv")
    write_manifest(tmp_path / "heat.csv", {"grid": BinGrid().to_dict()})
    spec = FigureSpec(kind="dominance_heatmap", out=str(tmp_path / "heat.svg"),
                      heatmap=str(tmp_path / "heat.csv"))
    render_figure(spec)
    want = figures_oracle.render_dominance_heatmap(spec)
    assert want.count("<rect") == 1 + np.count_nonzero((index % 162 >= 1) & (index % 162 <= 160))
    assert (tmp_path / "heat.svg").read_text() == want


def cell_inputs(tmp_path, kind) -> tuple[FigureSpec, object]:
    """A figure spec over about 30k cells of 17-digit values, every one of
    them drawn, and the read its renderer makes of its CSV."""
    rng = np.random.default_rng(8)
    grid = BinGrid(n_min_support=1)
    if kind == "surface_top":
        n_lags = 94
        shape = (n_lags, grid.n_bins)
        surf = Surface(
            grid=grid, counts=rng.integers(1, 10**6, shape), mean_zp=rng.standard_normal(shape),
            mean_zr=rng.standard_normal(shape), mean_r_raw=rng.standard_normal(shape),
            out_of_grid=np.zeros(n_lags, np.int64),
            moments=[LagMoments(lag, 10**6, 0.0, 1.0, 0.0, 1.0) for lag in range(1, n_lags + 1)],
        )
        path = tmp_path / "surface.csv"
        write_surface_csv(surf, path)
        write_manifest(path, surface_manifest(surf))
        return (FigureSpec(kind=kind, out=str(tmp_path / "top.svg"), surface=str(path)),
                lambda: read_surface_csv(path, read_manifest(path)))
    n = 188 * (grid.n_bins // 2)
    columns = {name: rng.standard_normal(n) for name in HEATMAP_HEADER}
    columns |= {"lag": 1 + np.arange(n) // 160, "abs_index": 1 + np.arange(n) % 160,
                "n_pos": rng.integers(1, 10**5, n), "n_neg": rng.integers(1, 10**5, n)}
    path = tmp_path / "heat.csv"
    write_heatmap_csv(MirrorPairs(**columns), path)
    write_manifest(path, {"grid": grid.to_dict()})
    return (FigureSpec(kind=kind, out=str(tmp_path / "heat.svg"), heatmap=str(path)),
            lambda: read_heatmap_csv(path))


@pytest.mark.parametrize("kind", ["surface_top", "dominance_heatmap"])
def test_cell_figure_draws_in_bounded_memory(tmp_path, kind):
    # The figure is written as it is drawn, a batch of cells at a time, so
    # drawing adds little to its CSV's read: 0.0 (surface) and 0.4 MiB
    # (heatmap) traced, against 3.3 MiB (surface) when every cell's text
    # and the whole document were held.
    spec, read = cell_inputs(tmp_path, kind)
    _, read_peak = traced_peak(read)
    _, render_peak = traced_peak(lambda: render_figure(spec))
    assert Path(spec.out).read_text().count("<rect") == 1 + 30_080
    assert render_peak <= read_peak + (1 << 20)


def test_render_failing_mid_draw_leaves_no_svg(tmp_path, monkeypatch):
    spec, _ = cell_inputs(tmp_path, "surface_top")
    partial = Path(f"{spec.out}.partial")
    colors = figures._diverging_colors
    batches = []

    def fail_on_the_third_batch(values, vmax):
        batches.append(partial.stat().st_size)  # the figure is streamed to its .partial
        if len(batches) == 3:
            raise RuntimeError("draw failed")
        return colors(values, vmax)

    monkeypatch.setattr(figures, "_diverging_colors", fail_on_the_third_batch)
    with pytest.raises(StageFailure, match="draw failed"):
        run_stage(render_stage(spec))
    assert batches[0] < batches[1] < batches[2]  # a batch at a time, not the whole document
    assert not Path(spec.out).exists() and not partial.exists()
