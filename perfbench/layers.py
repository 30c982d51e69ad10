"""Per-layer metrics from the spans of one traced run.

Times are sums of span durations. Counts come from what the wrapped
functions returned or from artifacts, never from program internals.
A layer that does not run on a workload reports 0.
"""

from __future__ import annotations

from workloads import FIGURE_KINDS

# name -> (unit, better); the order is the report order.
PER_LAYER = {
    "lags.compute_moments_table.s": ("s", "lower"),
    "lags.compute_moments.ns_per_anchor_lag": ("ns", "lower"),
    "surface.accumulate_surface.s": ("s", "lower"),
    "surface.ns_per_anchor_lag": ("ns", "lower"),
    "surface.speedup_2t": ("ratio", "higher"),
    "surface.in_grid_ratio": ("ratio", "higher"),
    "surface.write_surface_csv.s": ("s", "lower"),
    "surface.read_surface_csv.s": ("s", "lower"),
    "surface.rows": ("count", "higher"),
    "series.write_prms.s": ("s", "lower"),
    "series.read_prms.s": ("s", "lower"),
    "series.read_prms.mb_per_s": ("MB/s", "higher"),
    "series.write_manifest.s": ("s", "lower"),
    "series.read_prms.rss_hwm_mb": ("MiB", "lower"),
    "synthetic.generate.ns_per_event": ("ns", "lower"),
    "cleaning.winsorize_returns.s": ("s", "lower"),
    "cleaning.remove_jumps.s": ("s", "lower"),
    "cleaning.retention_ratio": ("ratio", "higher"),
    "ingest.read_quote_csv.us_per_quote": ("us", "lower"),
    "ingest.filter_eligible.us_per_quote": ("us", "lower"),
    "ingest.consolidate_nbbo.us_per_quote": ("us", "lower"),
    "ingest.build_mid_series.us_per_quote": ("us", "lower"),
    "ingest.quotes_per_s": ("1/s", "higher"),
    "ingest.emit_ratio": ("ratio", "higher"),
    "ingest.rss_hwm_mb": ("MiB", "lower"),
    "decomposition.decompose.s": ("s", "lower"),
    "decomposition.summarize.s": ("s", "lower"),
    "decomposition.bootstrap_rho.s": ("s", "lower"),
    "decomposition.us_per_pair": ("us", "lower"),
    "decomposition.write_heatmap_csv.s": ("s", "lower"),
    **{f"figures.render_figure.{k}.s": ("s", "lower") for k in FIGURE_KINDS},
    "figures.svg_bytes": ("B", "lower"),
    "pipeline.self_s": ("s", "lower"),
    "pipeline.stages_ran": ("count", "lower"),
    "pipeline.stages_skipped": ("count", "higher"),
    "cli.startup_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _union_length(intervals, lo: float, hi: float) -> float:
    covered, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            covered += end - start
            reach = end
    return covered


def self_times(spans: list[dict], keep_in_parent=()) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover.
    Children named in `keep_in_parent` count as their parent's own time."""
    children: dict[int, list] = {}
    for s in spans:
        if s["parent"] is not None and s["name"] not in keep_in_parent:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    return {
        s["id"]: s["end"] - s["start"] - _union_length(children.get(s["id"], []), s["start"], s["end"])
        for s in spans
    }


def check_self_times(spans: list[dict]) -> list[str]:
    """Self times must add up to the one root span: children nest inside
    their parents and siblings never overlap."""
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        return [f"trace has {len(roots)} root spans"]
    total = sum(self_times(spans).values())
    root = roots[0]["end"] - roots[0]["start"]
    if abs(total - root) > 1e-9 * max(root, 1.0):
        return [f"self times add to {total:.9f} s, root span is {root:.9f} s"]
    return []


def layer_metrics(spans: list[dict], extra: dict[str, float]) -> dict[str, float]:
    """Every PER_LAYER metric; `extra` carries the values measured outside
    the traced child (probes, artifacts, status table, overhead)."""

    def named(name):
        return [s for s in spans if s["name"] == name]

    def busy(name):
        return sum(s["end"] - s["start"] for s in named(name))

    def count(name, key):
        return sum(s["counts"].get(key, 0) for s in named(name))

    quotes = count("ingest.ingest_files", "n_records")
    pairs = count("decomposition.decompose", "pairs")
    pipeline_self = self_times(spans, keep_in_parent=("series.read_manifest",))
    m = {
        "lags.compute_moments_table.s": busy("lags.compute_moments_table"),
        "lags.compute_moments.ns_per_anchor_lag": _ratio(
            1e9 * busy("lags.compute_moments"), count("lags.compute_moments", "n_pairs")),
        "surface.accumulate_surface.s": busy("surface.accumulate_surface"),
        "surface.ns_per_anchor_lag": _ratio(
            1e9 * busy("surface.accumulate_surface"), count("surface.accumulate_surface", "n_pairs")),
        "surface.in_grid_ratio": _ratio(
            count("surface.accumulate_surface", "in_grid"), count("surface.accumulate_surface", "n_pairs")),
        "surface.write_surface_csv.s": busy("surface.write_surface_csv"),
        "surface.read_surface_csv.s": busy("surface.read_surface_csv"),
        "series.write_prms.s": busy("series.write_prms"),
        "series.read_prms.s": busy("series.read_prms"),
        "series.read_prms.mb_per_s": _ratio(count("series.read_prms", "bytes") / 1e6, busy("series.read_prms")),
        "series.write_manifest.s": busy("series.write_manifest"),
        "synthetic.generate.ns_per_event": _ratio(
            1e9 * busy("synthetic.generate"), count("synthetic.generate", "events")),
        "cleaning.winsorize_returns.s": busy("cleaning.winsorize_returns"),
        "cleaning.remove_jumps.s": busy("cleaning.remove_jumps"),
        "cleaning.retention_ratio": _ratio(
            count("cleaning.clean", "events_out"), count("cleaning.clean", "events_in")),
        "ingest.quotes_per_s": _ratio(quotes, busy("ingest.ingest_files")),
        "ingest.emit_ratio": _ratio(count("ingest.ingest_files", "n_emitted"), quotes),
        "ingest.rss_hwm_mb": max((s["counts"]["rss_hwm_mib"] for s in named("ingest.ingest_files")), default=0.0),
        "decomposition.decompose.s": busy("decomposition.decompose"),
        "decomposition.summarize.s": busy("decomposition.summarize"),
        "decomposition.bootstrap_rho.s": busy("decomposition.bootstrap_rho"),
        "decomposition.us_per_pair": _ratio(
            1e6 * (busy("decomposition.decompose") + busy("decomposition.summarize")), pairs),
        "decomposition.write_heatmap_csv.s": busy("decomposition.write_heatmap_csv"),
        "figures.svg_bytes": count("figures.render_figure", "bytes"),
        "pipeline.self_s": sum(pipeline_self[s["id"]] for s in named("pipeline.run_pipeline")),
    }
    for step in ("read_quote_csv", "filter_eligible", "consolidate_nbbo", "build_mid_series"):
        m[f"ingest.{step}.us_per_quote"] = _ratio(1e6 * busy(f"ingest.{step}"), quotes)
    for kind in FIGURE_KINDS:
        m[f"figures.render_figure.{kind}.s"] = sum(
            s["end"] - s["start"] for s in named("figures.render_figure") if s["counts"]["kind"] == kind)
    m.update(extra)
    return {name: float(m[name]) for name in PER_LAYER}
