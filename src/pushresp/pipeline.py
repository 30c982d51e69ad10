"""End-to-end orchestration: source -> clean -> surface -> decompose -> render.

Each stage is one function here that takes explicit input paths, output
paths and its section of the config, and returns a `Stage`: its name,
outputs, key and producer. `run_pipeline` and the CLI subcommands run
the same stage functions through `run_stage`, so a standalone artifact
carries the same manifest as the pipeline's. Every stage writes its
artifact plus a sidecar manifest carrying the exact stage
configuration, the hashes of its inputs' manifests, and a stage key
derived from both. A pipeline rerun skips a stage when its outputs and
manifests already exist with a matching stage key, so the pipeline is
resumable and artifacts form a verifiable provenance chain.

Throughput knobs (thread count) are excluded from stage keys because
they never change results.
"""

from __future__ import annotations

import hashlib
import json
import logging
import resource
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from . import cleaning as cleaning_mod
from . import decomposition as decomp_mod
from . import figures as figures_mod
from . import ingest as ingest_mod
from . import lags as lags_mod
from . import surface as surface_mod
from . import synthetic as synth_mod
from .errors import (
    ArtifactIOError,
    MissingArtifact,
    PushRespError,
    StageFailure,
    ValidationFailed,
)
from .series import (
    canonical_json,
    manifest_path,
    read_manifest,
    read_prms,
    series_summary,
    write_manifest,
    write_prms,
    write_text,
)

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class IngestOptions:
    venues_dir: str | None = None
    consolidated: str | None = None
    tz: str = ingest_mod.DEFAULT_TZ
    strict: bool = True

    def __post_init__(self):
        if bool(self.venues_dir) == bool(self.consolidated):
            raise ValidationFailed(
                "ingest needs exactly one of venues_dir (--venues) "
                "or consolidated (--consolidated)"
            )
        try:
            ZoneInfo(self.tz)
        except (ZoneInfoNotFoundError, ValueError, TypeError):
            raise ValidationFailed(f"tz: unknown time zone {self.tz!r}") from None


@dataclass
class PipelineConfig:
    synth: synth_mod.SyntheticSpec | None = None
    ingest: IngestOptions | None = None
    cleaning: cleaning_mod.CleaningConfig = field(
        default_factory=cleaning_mod.CleaningConfig
    )
    lags: str | list = "short"
    grid: surface_mod.BinGrid = field(default_factory=surface_mod.BinGrid)
    bootstrap: decomp_mod.BootstrapConfig = field(default_factory=decomp_mod.BootstrapConfig)
    local_index: str = "eq319"
    figures: list[figures_mod.FigureSpec] = field(default_factory=list)
    workdir: str = "."
    threads: int = 1
    paths: dict = field(default_factory=dict)

    DEFAULT_PATHS = {
        "mids": "mids.prms",
        "clean": "clean.prms",
        "clean_report": "clean.json",
        "moments": "moments.csv",
        "surface": "surface.csv",
        "heatmap": "heat.csv",
        "summary": "lags.csv",
    }

    def path(self, name: str) -> Path:
        rel = self.paths.get(name, self.DEFAULT_PATHS[name])
        return Path(self.workdir) / rel

    def lag_list(self) -> tuple[int, ...]:
        if isinstance(self.lags, str):
            return lags_mod.parse_lag_selector(self.lags)
        return lags_mod.validate_lags(self.lags)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build the pipeline config from its JSON form without touching data.

    Each section is built by its own constructor, which holds that
    section's checks; every error a constructor raises becomes one
    problem. The checks that span sections follow, and one
    ValidationFailed lists every problem found. Top-level keys the
    config does not know are ignored.
    """
    problems: list[str] = []

    def build(section: str, make: Callable):
        try:
            return make()
        except (ValueError, TypeError, PushRespError) as exc:
            problems.append(f"{section}: {exc}")
            return None

    has_synth, has_ingest = bool(raw.get("synth")), bool(raw.get("ingest"))
    if has_synth and has_ingest:
        problems.append("config sets both 'synth' and 'ingest'; pick one source")
    if not has_synth and not has_ingest:
        problems.append("config needs a source: either 'synth' or 'ingest'")
    figures = raw.get("figures", [])
    if not isinstance(figures, list):
        problems.append(f"figures must be a list, got {figures!r}")
        figures = []
    cfg = PipelineConfig(
        synth=build("synth", lambda: synth_mod.SyntheticSpec(**raw["synth"]))
        if has_synth else None,
        ingest=build("ingest", lambda: IngestOptions(**raw["ingest"]))
        if has_ingest else None,
        cleaning=build(
            "cleaning", lambda: cleaning_mod.CleaningConfig(**raw.get("cleaning", {}))
        ),
        lags=raw.get("lags", "short"),
        grid=build("grid", lambda: _bin_grid(raw.get("grid", {}))),
        bootstrap=build("bootstrap", lambda: _bootstrap(raw.get("bootstrap", {}))),
        local_index=raw.get("local_index", "eq319"),
        figures=[
            build(f"figures[{i}]", lambda f=f: figures_mod.FigureSpec(**f))
            for i, f in enumerate(figures)
        ],
        workdir=raw.get("workdir", "."),
        threads=raw.get("threads", 1),
        paths=build("paths", lambda: _paths(raw.get("paths", {}))) or {},
    )

    if not (isinstance(cfg.lags, str) and cfg.lags.startswith("file:")):
        build("lags", cfg.lag_list)  # a lag file is read when the surface stage runs
    if cfg.grid is not None:
        build("grid", lambda: decomp_mod.check_mirror_grid(cfg.grid))
    if cfg.local_index not in decomp_mod.LOCAL_INDEX_CHOICES:
        problems.append(f"unknown local_index '{cfg.local_index}'")
    if not isinstance(cfg.threads, int) or cfg.threads < 1:
        problems.append(f"threads must be an integer >= 1, got {cfg.threads!r}")

    if problems:
        raise ValidationFailed(problems)
    return cfg


def _bin_grid(raw: dict) -> surface_mod.BinGrid:
    fields = dict(raw)
    fields.pop("n_bins", None)  # derived field, accepted on input for convenience
    return surface_mod.BinGrid(**fields)


def _bootstrap(raw: dict) -> decomp_mod.BootstrapConfig:
    fields = dict(raw)
    if "quantiles" in fields:
        fields["quantiles"] = tuple(fields["quantiles"])
    return decomp_mod.BootstrapConfig(**fields)


def _paths(raw: dict) -> dict:
    """The path overrides; two artifacts at one path, the derived block
    artifact included, are rejected."""
    paths = {**PipelineConfig.DEFAULT_PATHS, **raw}
    paths["surface blocks"] = str(surface_mod.blocks_path(paths["surface"]))
    seen: dict[str, str] = {}
    clashes = []
    for name, rel in sorted(paths.items()):
        if rel in seen:
            clashes.append(f"'{seen[rel]}' and '{name}' both point to '{rel}'")
        seen[rel] = name
    if clashes:
        raise ValidationFailed(clashes)
    return dict(raw)


def validate_config_dict(raw: dict) -> list[str]:
    """Every problem `config_from_dict` finds; empty when the config is valid."""
    try:
        config_from_dict(raw)
    except ValidationFailed as exc:
        return exc.problems
    return []


# -- stages --------------------------------------------------------------


@dataclass
class StageStatus:
    stage: str
    status: str  # "ran" | "skipped"
    outputs: list[str]


@dataclass(frozen=True)
class Stage:
    """One stage over fixed paths: `produce` writes `outputs` and their
    manifests, each carrying `key`."""

    name: str
    outputs: list[Path]
    key: str
    produce: Callable[[], None]


def _key_of(stage: str, cfg: dict, inputs: dict[str, str]) -> str:
    payload = canonical_json({"stage": stage, "config": cfg, "inputs": inputs})
    return hashlib.sha256(payload.encode()).hexdigest()


def _input_hashes(stage: str, paths: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of each input's manifest."""
    hashes = {}
    for name, path in paths.items():
        try:
            payload = canonical_json(read_manifest(path))
        except ArtifactIOError as exc:
            raise MissingArtifact(f"stage '{stage}' needs input '{name}': {exc}") from exc
        hashes[name] = hashlib.sha256(payload.encode()).hexdigest()
    return hashes


def _stage_fresh(outputs: list[Path], key: str) -> bool:
    for out in outputs:
        if not out.exists() or not manifest_path(out).exists():
            return False
        try:
            if read_manifest(out).get("stage_key") != key:
                return False
        except ArtifactIOError:
            return False
    return True


def _remove_partial(outputs: list[Path]) -> None:
    for out in outputs:
        out.unlink(missing_ok=True)
        manifest_path(out).unlink(missing_ok=True)


def run_stage(stage: Stage, force: bool = False) -> StageStatus:
    """Run a stage unless `force` is off and its outputs are fresh.

    A failed run removes the stage's outputs. Errors of this package keep
    their own exit codes; any other exception becomes a StageFailure.
    Each stage that ran or was skipped logs one INFO line: its wall and
    CPU seconds, the process's peak RSS so far and how much the stage
    raised it, so one run's log shows which stage sets the peak.
    """
    wall, cpu, peak = time.perf_counter(), time.process_time(), _peak_rss_mib()
    ran = force or not _stage_fresh(stage.outputs, stage.key)
    if ran:
        try:
            stage.produce()
        except PushRespError:
            _remove_partial(stage.outputs)
            raise
        except Exception as exc:  # noqa: BLE001 - boundary to exit-code contract
            _remove_partial(stage.outputs)
            raise StageFailure(stage.name, str(exc)) from exc
    status = StageStatus(stage.name, "ran" if ran else "skipped", [str(o) for o in stage.outputs])
    peak_after = _peak_rss_mib()
    logger.info(
        "stage %s %s: wall %.3f s, cpu %.3f s, peak rss %.1f MiB (+%.1f in stage)",
        stage.name, status.status, time.perf_counter() - wall, time.process_time() - cpu,
        peak_after, peak_after - peak,
    )
    return status


def _peak_rss_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def source_stage(
    out: Path,
    synth: synth_mod.SyntheticSpec | None = None,
    ingest: IngestOptions | None = None,
) -> Stage:
    """The mid series at `out`, generated from `synth` or ingested per `ingest`."""
    stage_cfg = {"synth": asdict(synth)} if synth is not None else {"ingest": asdict(ingest)}
    key = _key_of("source", stage_cfg, {})

    def produce():
        payload = {"stage": "source", "stage_key": key, "config": stage_cfg}
        if synth is not None:
            series = synth_mod.generate(synth)
        else:
            series, report = _ingest(ingest)
            payload["quality"] = asdict(report)
        write_prms(series, out)
        write_manifest(out, {**series_summary(series), **payload})

    return Stage("source", [out], key, produce)


def _ingest(opts: IngestOptions):
    if opts.consolidated:
        if not Path(opts.consolidated).exists():
            raise StageFailure("source", f"input {opts.consolidated} does not exist")
        return ingest_mod.ingest_consolidated(
            opts.consolidated, tz=opts.tz, strict=opts.strict
        )
    files = {p.stem.upper(): p for p in sorted(Path(opts.venues_dir).glob("*.csv"))}
    if not files:
        raise StageFailure("source", f"no quote files in {opts.venues_dir}")
    return ingest_mod.ingest_files(files, tz=opts.tz, strict=opts.strict)


def clean_stage(
    src: Path, out: Path, report_out: Path, cfg: cleaning_mod.CleaningConfig
) -> Stage:
    """The cleaned series at `out` and its cleaning report at `report_out`."""
    stage_cfg = asdict(cfg)
    inputs = _input_hashes("clean", {"mids": src})
    key = _key_of("clean", stage_cfg, inputs)

    def produce():
        cleaned, report = cleaning_mod.clean(read_prms(src), cfg)
        write_prms(cleaned, out)
        write_text(report_out, canonical_json(report.to_dict()) + "\n")
        write_manifest(out, {
            **series_summary(cleaned), "stage": "clean", "stage_key": key,
            "config": stage_cfg, "inputs": inputs, "report": report.to_dict(),
        })
        write_manifest(report_out, {"stage": "clean", "stage_key": key})

    return Stage("clean", [out, report_out], key, produce)


def surface_stage(
    src: Path,
    out: Path,
    moments_out: Path,
    lags: tuple[int, ...],
    grid: surface_mod.BinGrid,
    threads: int = 1,
) -> Stage:
    """The surface CSV at `out`, its block tables beside it, and the moments."""
    blocks_out = surface_mod.blocks_path(out)
    stage_cfg = {"lags": list(lags), "grid": grid.to_dict()}
    inputs = _input_hashes("surface", {"clean": src})
    key = _key_of("surface", stage_cfg, inputs)

    def produce():
        series = read_prms(src)
        rows = lags_mod.compute_moments_table(series, lags)
        lags_mod.write_moments_csv(rows, moments_out)
        surf = surface_mod.accumulate_surface(series, rows, grid, threads=threads)
        surface_mod.write_surface_csv(surf, out)
        meta = {"stage": "surface", "stage_key": key}
        write_manifest(out, {
            **surface_mod.surface_manifest(surf), **meta,
            "config": stage_cfg, "inputs": inputs,
        })
        surface_mod.write_surface_blocks(surf.blocks, blocks_out)
        write_manifest(blocks_out, {**surface_mod.blocks_manifest(surf.blocks), **meta})
        write_manifest(moments_out, meta)

    return Stage("surface", [out, blocks_out, moments_out], key, produce)


def decompose_stage(
    src: Path,
    heat_out: Path,
    summary_out: Path,
    local_index: str,
    boot: decomp_mod.BootstrapConfig,
) -> Stage:
    """Mirror pairs of the surface at `src` and per-lag summaries with block
    bands from the block tables beside it."""
    blocks_src = surface_mod.blocks_path(src)
    stage_cfg = {"local_index": local_index, "bootstrap": asdict(boot)}
    inputs = _input_hashes("decompose", {"surface": src, "blocks": blocks_src})
    key = _key_of("decompose", stage_cfg, inputs)

    def produce():
        surf = surface_mod.read_surface_csv(src, read_manifest(src))
        pairs = decomp_mod.decompose(surf, local_index)
        blocks = surface_mod.read_surface_blocks(blocks_src)
        summaries = decomp_mod.summarize(pairs, boot, blocks)
        decomp_mod.write_heatmap_csv(pairs, heat_out)
        decomp_mod.write_summary_csv(summaries, summary_out)
        meta = {"stage": "decompose", "stage_key": key, "config": stage_cfg, "inputs": inputs}
        # the figures lay the heatmap out on the surface's grid
        write_manifest(heat_out, {**meta, "grid": surf.grid.to_dict()})
        write_manifest(summary_out, meta)

    return Stage("decompose", [heat_out, summary_out], key, produce)


def render_stage(spec: figures_mod.FigureSpec) -> Stage:
    """The figure `spec` describes; its inputs are every CSV the spec names.

    The pipeline names all three CSVs, so every figure reruns whenever
    any of them changes.
    """
    inputs = _input_hashes("render", {
        name: Path(getattr(spec, name))
        for name in ("surface", "heatmap", "summary") if getattr(spec, name) is not None
    })
    stage_cfg = asdict(spec)
    key = _key_of("render", stage_cfg, inputs)
    out = Path(spec.out)

    def produce():
        figures_mod.render_figure(spec)
        write_manifest(out, {"stage": "render", "stage_key": key,
                             "config": stage_cfg, "inputs": inputs})

    return Stage(f"render:{spec.kind}", [out], key, produce)


def run_pipeline(config: PipelineConfig, force: bool = False) -> list[StageStatus]:
    """Run every stage in order; each stage is built once its inputs exist."""
    cfg = config
    Path(cfg.workdir).mkdir(parents=True, exist_ok=True)
    statuses = [run_stage(source_stage(cfg.path("mids"), cfg.synth, cfg.ingest), force)]
    statuses.append(run_stage(clean_stage(
        cfg.path("mids"), cfg.path("clean"), cfg.path("clean_report"), cfg.cleaning
    ), force))
    statuses.append(run_stage(surface_stage(
        cfg.path("clean"), cfg.path("surface"), cfg.path("moments"),
        cfg.lag_list(), cfg.grid, cfg.threads,
    ), force))
    statuses.append(run_stage(decompose_stage(
        cfg.path("surface"), cfg.path("heatmap"), cfg.path("summary"),
        cfg.local_index, cfg.bootstrap,
    ), force))
    for fig in cfg.figures:
        spec = figures_mod.FigureSpec(
            kind=fig.kind,
            out=str(Path(cfg.workdir) / fig.out),
            surface=fig.surface or str(cfg.path("surface")),
            heatmap=fig.heatmap or str(cfg.path("heatmap")),
            summary=fig.summary or str(cfg.path("summary")),
            vmax=fig.vmax,
        )
        statuses.append(run_stage(render_stage(spec), force))
    return statuses


def apply_override(raw: dict, item: str) -> None:
    """Apply one 'dotted.key=value' override in place; values parse as JSON
    with a plain-string fallback."""
    if "=" not in item:
        raise ValidationFailed([f"override '{item}' is not key=value"])
    key, _, value = item.partition("=")
    try:
        parsed = json.loads(value)
    except json.JSONDecodeError:
        parsed = value
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ValidationFailed([f"override '{key}' crosses a non-object entry"])
    node[parts[-1]] = parsed
