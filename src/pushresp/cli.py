"""Command-line interface.

Subcommands run the pipeline's stage functions (ingest and synth run
the source stage; clean, surface, decompose, render the rest), always
rerunning, plus `pipeline` for the orchestrated run and `validate` for
static config checks. A subcommand needs its input's manifest and
writes the same manifests as the pipeline. Exit codes: 0 success,
1 validation failure, 2 stage failure, 3 I/O failure or an artifact
unlike its manifest.
"""

from __future__ import annotations

import json
import logging
import sys
from pathlib import Path

import click

from . import __version__
from . import cleaning as cleaning_mod
from . import decomposition as decomp_mod
from . import figures as figures_mod
from . import lags as lags_mod
from . import surface as surface_mod
from . import synthetic as synth_mod
from .errors import ArtifactIOError, PushRespError, ValidationFailed
from .pipeline import (
    IngestOptions,
    apply_override,
    clean_stage,
    config_from_dict,
    decompose_stage,
    render_stage,
    run_pipeline,
    run_stage,
    source_stage,
    surface_stage,
    validate_config_dict,
)

logger = logging.getLogger(__name__)


@click.group()
@click.version_option(__version__, prog_name="pushresp")
def cli():
    """Lag-resolved push-response analysis of event-time quote data."""
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")


def _run(stage) -> None:
    """Run one stage regardless of freshness, as its subcommand always does."""
    status = run_stage(stage, force=True)
    click.echo(f"wrote {', '.join(status.outputs)}")


@cli.command()
@click.option("--venues", "venues_dir", type=click.Path(), default=None,
              help="Directory of per-venue quote CSV files.")
@click.option("--consolidated", type=click.Path(), default=None,
              help="Pre-consolidated quote CSV (skips the venue merge).")
@click.option("--tz", default=IngestOptions.tz, show_default=True)
@click.option("--strict/--lenient", default=True,
              help="Fail on malformed records vs. skip and count them.")
@click.option("--out", required=True, type=click.Path())
def ingest(venues_dir, consolidated, tz, strict, out):
    """Parse quote feeds, consolidate the best bid/offer, emit mid series."""
    opts = IngestOptions(venues_dir=venues_dir, consolidated=consolidated,
                         tz=tz, strict=strict)
    _run(source_stage(Path(out), ingest=opts))


@cli.command()
@click.option("--in", "input_path", required=True, type=click.Path())
@click.option("--lower-q", default=cleaning_mod.CleaningConfig.lower_q, show_default=True)
@click.option("--upper-q", default=cleaning_mod.CleaningConfig.upper_q, show_default=True)
@click.option("--jump", default=cleaning_mod.CleaningConfig.jump_threshold, show_default=True)
@click.option("--out", required=True, type=click.Path())
@click.option("--report", "report_path", type=click.Path(), default=None,
              help="Cleaning report path (default: <out> with .report.json).")
def clean(input_path, lower_q, upper_q, jump, out, report_path):
    """Winsorize increments, then drop intraday jumps."""
    cfg = cleaning_mod.CleaningConfig(lower_q=lower_q, upper_q=upper_q, jump_threshold=jump)
    report = report_path or str(Path(out).with_suffix("")) + ".report.json"
    _run(clean_stage(Path(input_path), Path(out), Path(report), cfg))


@cli.command()
@click.option("--in", "input_path", required=True, type=click.Path())
@click.option("--grid", default="default", show_default=True,
              help="'default' or 'z_min:z_max:step'.")
@click.option("--lags", default="short", show_default=True,
              help="'short', 'long', 'file:<path>', or comma-separated values.")
@click.option("--nmin", default=surface_mod.BinGrid.n_min_support, show_default=True)
@click.option("--threads", default=1, show_default=True, help="Worker threads.")
@click.option("--out", required=True, type=click.Path())
@click.option("--out-moments", type=click.Path(), default=None,
              help="Moments CSV path (default: <out> with .moments.csv).")
def surface(input_path, grid, lags, nmin, threads, out, out_moments):
    """Bin standardized pushes and aggregate conditional response means."""
    moments = out_moments or str(Path(out).with_suffix("")) + ".moments.csv"
    _run(surface_stage(
        Path(input_path), Path(out), Path(moments), lags_mod.parse_lag_selector(lags),
        _parse_grid(grid, nmin), threads,
    ))


def _parse_grid(grid: str, nmin: int) -> surface_mod.BinGrid:
    if grid == "default":
        return surface_mod.BinGrid(n_min_support=nmin)
    parts = grid.split(":")
    if len(parts) != 3:
        raise ValidationFailed([f"cannot parse grid '{grid}'; want z_min:z_max:step"])
    try:
        z_min, z_max, step = (float(x) for x in parts)
    except ValueError as exc:
        raise ValidationFailed([f"cannot parse grid '{grid}': {exc}"]) from exc
    return surface_mod.BinGrid(z_min=z_min, z_max=z_max, step=step, n_min_support=nmin)


@cli.command()
@click.option("--surface", "surface_path", required=True, type=click.Path())
@click.option("--bootstrap", "n_replicates", show_default=True,
              default=decomp_mod.BootstrapConfig.n_replicates)
@click.option("--seed", default=decomp_mod.BootstrapConfig.seed, show_default=True)
@click.option("--out-heatmap", required=True, type=click.Path())
@click.option("--out-summary", required=True, type=click.Path())
def decompose(surface_path, n_replicates, seed, out_heatmap, out_summary):
    """Split the surface into even/odd parts and attach bootstrap bands.

    The bands resample anchor blocks from the block artifact that
    `pushresp surface` writes beside the surface CSV (`<stem>.blocks`).
    """
    boot = decomp_mod.BootstrapConfig(n_replicates=n_replicates, seed=seed)
    _run(decompose_stage(Path(surface_path), Path(out_heatmap), Path(out_summary), boot))


@cli.command()
@click.option("--kind", required=True, type=click.Choice(synth_mod.KINDS))
@click.option("--n", "n_events", required=True, type=int)
@click.option("--sessions", "n_sessions", show_default=True,
              default=synth_mod.SyntheticSpec.n_sessions)
@click.option("--lag", "inject_lag", show_default=True,
              default=synth_mod.SyntheticSpec.inject_lag)
@click.option("--phi", default=synth_mod.SyntheticSpec.phi, show_default=True)
@click.option("--asym-gain", default=synth_mod.SyntheticSpec.asym_gain, show_default=True)
@click.option("--tick", default=synth_mod.SyntheticSpec.tick, show_default=True)
@click.option("--increments", default=synth_mod.SyntheticSpec.increments, show_default=True,
              type=click.Choice(["gauss", "coin"]))
@click.option("--seed", default=synth_mod.SyntheticSpec.seed, show_default=True)
@click.option("--out", required=True, type=click.Path())
def synth(kind, n_events, n_sessions, inject_lag, phi, asym_gain, tick,
          increments, seed, out):
    """Generate a controlled synthetic event-time series."""
    spec = synth_mod.SyntheticSpec(
        kind=kind, n_events=n_events, n_sessions=n_sessions, tick=tick,
        inject_lag=inject_lag, phi=phi, asym_gain=asym_gain, seed=seed,
        increments=increments,
    )
    _run(source_stage(Path(out), synth=spec))


@cli.command()
@click.option("--kind", required=True, type=click.Choice(figures_mod.FIGURE_KINDS))
@click.option("--surface", "surface_path", type=click.Path(), default=None)
@click.option("--heatmap", "heatmap_path", type=click.Path(), default=None)
@click.option("--summary", "summary_path", type=click.Path(), default=None)
@click.option("--vmax", default=figures_mod.FigureSpec.vmax, show_default=True,
              help="Color scale bound for surface views.")
@click.option("--out", required=True, type=click.Path())
def render(kind, surface_path, heatmap_path, summary_path, vmax, out):
    """Draw one figure as a self-contained SVG from CSV artifacts."""
    _run(render_stage(figures_mod.FigureSpec(
        kind=kind, out=out, surface=surface_path, heatmap=heatmap_path,
        summary=summary_path, vmax=vmax,
    )))


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
@click.option("--set", "overrides", multiple=True,
              help="Override a config entry, e.g. --set synth.seed=9 "
                   "(values parsed as JSON when possible).")
@click.option("--force", is_flag=True, help="Re-run every stage even if fresh.")
def pipeline(config_path, overrides, force):
    """Run source -> clean -> surface -> decompose -> render, resumably."""
    raw = _load_raw_config(config_path)
    for item in overrides:
        apply_override(raw, item)
    cfg = config_from_dict(raw)
    statuses = run_pipeline(cfg, force=force)
    for s in statuses:
        click.echo(f"{s.stage:<22} {s.status:<8} {', '.join(s.outputs)}")


@cli.command()
@click.option("--config", "config_path", required=True, type=click.Path())
def validate(config_path):
    """Statically check a pipeline config without touching data."""
    raw = _load_raw_config(config_path)
    problems = validate_config_dict(raw)
    if problems:
        for p in problems:
            click.echo(f"problem: {p}")
        raise ValidationFailed(problems)
    click.echo("config ok")


def _load_raw_config(path: str) -> dict:
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ValidationFailed([f"config {path} is not valid JSON: {exc}"]) from exc
    if not isinstance(raw, dict):
        raise ValidationFailed([f"config {path} is not a JSON object"])
    return raw


def main(argv=None) -> int:
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.UsageError as exc:
        click.echo(f"error: {exc.format_message()}", err=True)
        return 1
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.Abort:
        return 1
    except PushRespError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    except OSError as exc:  # the config, a lag file or the workdir, outside any stage
        click.echo(f"error: {exc}", err=True)
        return ArtifactIOError.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
