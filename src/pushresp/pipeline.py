"""End-to-end orchestration: source -> clean -> surface -> decompose -> render.

Each stage is one function here that takes explicit input paths, output
paths and its section of the config, and returns a `Stage`.
`run_pipeline` and the CLI subcommands run the same stage functions
through `run_stage`, so a standalone artifact carries the same manifest
as the pipeline's.

`run_stage` alone decides when an artifact becomes visible, and alone
keys, verifies and writes manifests. It is also the stages' one gate:
before a stage runs, each input must hash to its manifest's
`data_sha256`, or the stage is refused (exit 3) with nothing written,
so an edited or cut PRMS, block table or CSV never becomes numbers; and
an OSError anywhere in a stage is exit 3. A skipped stage reads no
input, so it hashes none. Every artifact has a sidecar
`<artifact>.manifest.json` holding `stage`, `stage_key`, `config`,
`inputs` (the SHA-256 of each input's manifest), `data_sha256` (of the
artifact's bytes) and the fields its producer returns. The stage key
hashes the stage, its config and its inputs. A stage is skipped only
when every output's manifest carries its key and every output still
hashes to its `data_sha256`, so an edited or cut artifact reruns its
stage. Old manifests go before a stage produces; the producer writes
each output to `<output>.partial` beside it, `run_stage` renames each
one in with `os.replace`, and the new manifests are written last. So a
kill leaves each output whole, old or new but never cut, and no
manifest: the stage reruns. Keys hash whole manifests: a workdir whose
manifests were written by a version with other manifest fields reruns
once.

No key holds a path: artifacts have fixed names in the workdir, inputs
are keyed by their manifests, and a render hashes only its figure's kind
and scale, so a workdir that is moved or copied resumes where it was.
The thread count, which never changes results, is in no key.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import os
import resource
import time
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable
from zoneinfo import ZoneInfo, ZoneInfoNotFoundError

from . import cleaning as cleaning_mod
from . import decomposition as decomp_mod
from . import figures as figures_mod
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
    PrmsReader,
    canonical_json,
    manifest_path,
    read_manifest,
    series_summary,
    sha256_file,
    write_manifest,
    write_text,
)
# perfbench/tracing.py wraps pipeline.read_prms and pipeline.write_prms
from .series import read_prms, write_prms  # noqa: F401

logger = logging.getLogger(__name__)

@dataclass(frozen=True)
class IngestOptions:
    venues_dir: str | None = None
    consolidated: str | None = None
    tz: str = "America/New_York"  # ingest.DEFAULT_TZ, which is imported only to ingest
    strict: bool = True

    def __post_init__(self):
        problems = []
        if bool(self.venues_dir) == bool(self.consolidated):
            problems.append("ingest needs exactly one of venues_dir (--venues) "
                            "or consolidated (--consolidated)")
        try:
            ZoneInfo(self.tz)
        except (ZoneInfoNotFoundError, ValueError):
            problems.append(f"tz: unknown time zone {self.tz!r}")
        if problems:
            raise ValidationFailed(problems)


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
    figures: list[figures_mod.FigureSpec] = field(default_factory=list)
    workdir: str = "."
    threads: int = 1

    # The artifacts' names in the workdir (the block tables sit beside the surface).
    DEFAULT_PATHS = {"mids": "mids.prms", "clean": "clean.prms", "clean_report": "clean.json",
                     "moments": "moments.csv", "surface": "surface.csv",
                     "heatmap": "heat.csv", "summary": "lags.csv"}

    def path(self, name: str) -> Path:
        return Path(self.workdir) / self.DEFAULT_PATHS[name]

    def lag_list(self) -> tuple[int, ...]:
        if isinstance(self.lags, str):
            return lags_mod.parse_lag_selector(self.lags)
        return lags_mod.validate_lags(self.lags)


_CONFIG_KEYS = {f.name for f in fields(PipelineConfig)}
# The JSON value each annotation of a config field takes, by type and in words.
_JSON_TYPES = {"int": (int, "an integer"), "float": ((int, float), "a finite number"),
               "bool": (bool, "true or false"), "str": (str, "a string"),
               "str | None": ((str, type(None)), "a string or null"),
               "str | list": ((str, list), "a string or a list"),
               "list[figures_mod.FigureSpec]": (list, "a list")}


def _wrong_types(cls, raw: dict) -> dict[str, str]:
    """The problem with each value of `raw` whose type its field of `cls` does
    not take, by field name: an `int` field takes an int, a `float` field a
    finite int or float (Python reads NaN as JSON), only a `bool` a bool."""
    wrong = {}
    for f in fields(cls):
        if f.name in raw:
            (types, words), value = _JSON_TYPES[f.type], raw[f.name]
            if (not isinstance(value, types) or isinstance(value, bool) != (types is bool)
                    or isinstance(value, float) and not math.isfinite(value)):
                wrong[f.name] = f"{f.name} must be {words}, not {type(value).__name__!r} {value!r}"
    return wrong


def _typed(cls, raw):
    """`cls(**raw)` once `_wrong_types` finds each value of `raw` typed."""
    if wrong := isinstance(raw, dict) and _wrong_types(cls, raw):
        raise ValidationFailed(list(wrong.values()))
    return cls(**raw)


def config_from_dict(raw: dict) -> PipelineConfig:
    """Build the pipeline config from its JSON form without touching data.

    `_wrong_types` types the values of each section and the top-level ones,
    and each section's constructor checks its ranges; each error, or the
    TypeError of a key unknown or missing, becomes one problem, as does an
    unknown top-level key. The checks that span sections follow, and one
    ValidationFailed lists every problem found."""
    problems = [f"unknown config key '{key}'" for key in raw if key not in _CONFIG_KEYS]

    def build(section: str, make: Callable, *args):
        try:
            return make(*args)
        except (ValidationFailed, TypeError) as exc:
            problems.append(f"{section}: {exc}")

    has_synth, has_ingest = bool(raw.get("synth")), bool(raw.get("ingest"))
    if has_synth and has_ingest:
        problems.append("config sets both 'synth' and 'ingest'; pick one source")
    if not has_synth and not has_ingest:
        problems.append("config needs a source: either 'synth' or 'ingest'")
    top = {key: raw[key] for key in ("lags", "workdir", "threads", "figures") if key in raw}
    problems += (wrong := _wrong_types(PipelineConfig, top)).values()
    top = {key: value for key, value in top.items() if key not in wrong}
    cfg = PipelineConfig(
        synth=build("synth", _typed, synth_mod.SyntheticSpec, raw["synth"]) if has_synth else None,
        ingest=build("ingest", _typed, IngestOptions, raw["ingest"]) if has_ingest else None,
        cleaning=build("cleaning", _typed, cleaning_mod.CleaningConfig, raw.get("cleaning", {})),
        grid=build("grid", _typed, surface_mod.BinGrid, raw.get("grid", {})),
        bootstrap=build("bootstrap", _typed, decomp_mod.BootstrapConfig, raw.get("bootstrap", {})),
        figures=[build(f"figures[{i}]", _pipeline_figure, f)
                 for i, f in enumerate(top.pop("figures", []))],
        **top,
    )

    if not (isinstance(cfg.lags, str) and cfg.lags.startswith("file:")):
        build("lags", cfg.lag_list)  # a lag file is read when the surface stage runs
    if cfg.grid is not None:
        build("grid", decomp_mod.check_mirror_grid, cfg.grid)
    problems += _threads_problems(cfg.threads) + _figure_clashes(cfg.figures)

    if problems:
        raise ValidationFailed(problems)
    return cfg


def _pipeline_figure(raw) -> figures_mod.FigureSpec:
    """A pipeline figure, which reads the workdir's tables, so names none."""
    spec = _typed(figures_mod.FigureSpec, raw)
    if named := [name for name in ("surface", "heatmap", "summary") if name in raw]:
        raise ValidationFailed(f"a pipeline figure reads the workdir's tables; drop '{named[0]}'")
    return spec


def _threads_problems(threads: int) -> list[str]:
    """The problem with a worker-thread count below 1."""
    return [] if threads >= 1 else [f"threads must be an integer >= 1, got {threads}"]


def _figure_clashes(figures: list) -> list[str]:
    """Each figure `out` at the path of an artifact or of another figure."""
    paths = dict(PipelineConfig.DEFAULT_PATHS)
    paths["surface blocks"] = str(surface_mod.blocks_path(paths["surface"]))
    paths |= {f"figures[{i}].out": f.out for i, f in enumerate(figures) if f is not None}
    seen: dict[str, str] = {}
    clashes = []
    for name, rel in sorted(paths.items()):
        if rel in seen:
            clashes.append(f"'{seen[rel]}' and '{name}' both point to '{rel}'")
        seen[rel] = name
    return clashes


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
    """One stage over fixed paths. `inputs` names the artifacts whose
    manifests feed the key, `config` is the hashed configuration, and
    `produce` takes one path per output, in the order of `outputs`, writes
    each output there and returns each output's own manifest fields, in the
    same order. The paths it is handed are the outputs' `.partial`
    siblings, which `run_stage` renames in. A render's `name` adds its
    figure kind to the stage its manifests name."""

    name: str
    inputs: dict[str, Path]
    outputs: list[Path]
    config: dict
    produce: Callable[..., list[dict]]


def _key_of(stage: str, cfg: dict, inputs: dict[str, str]) -> str:
    payload = canonical_json({"stage": stage, "config": cfg, "inputs": inputs})
    return hashlib.sha256(payload.encode()).hexdigest()


def _intact(path: Path, manifest: dict) -> bool:
    """The bytes at `path` hash to its manifest's `data_sha256`."""
    return sha256_file(path) == manifest.get("data_sha256")


def _input_hashes(stage: str, paths: dict[str, Path]) -> dict[str, str]:
    """SHA-256 of each input's manifest."""
    hashes = {}
    for name, path in paths.items():
        try:
            payload = canonical_json(read_manifest(path))
        except (ArtifactIOError, OSError) as exc:
            raise MissingArtifact(f"stage '{stage}' needs input '{name}': {exc}") from exc
        hashes[name] = hashlib.sha256(payload.encode()).hexdigest()
    return hashes


def _check_inputs(stage: str, paths: dict[str, Path]) -> None:
    """Each input is intact: one that is gone is a MissingArtifact, and one
    unlike its manifest, as after an edit or a cut, an ArtifactIOError.
    Each manifest is read again rather than held while the stage runs."""
    for name, path in paths.items():
        try:
            intact = _intact(path, read_manifest(path))
        except (ArtifactIOError, OSError) as exc:
            raise MissingArtifact(f"stage '{stage}' needs input '{name}': {exc}") from exc
        if not intact:
            raise ArtifactIOError(f"{path}: its bytes do not match the data_sha256 of its manifest")


def _stage_fresh(outputs: list[Path], key: str) -> bool:
    """Every output's manifest carries `key` and the output is intact. Keys
    are checked first, so a re-keyed stage hashes no output."""
    try:
        manifests = [read_manifest(out) for out in outputs]
        if any(m.get("stage_key") != key for m in manifests):
            return False
        return all(_intact(out, m) for out, m in zip(outputs, manifests))
    except (ArtifactIOError, OSError):
        return False


def _overwrites(stage: Stage) -> list[str]:
    """Each output of `stage` at the path of one of its inputs, of an
    earlier output or of a directory, as a problem."""
    taken = {path.resolve(): f"input '{name}'" for name, path in stage.inputs.items()}
    problems = []
    for out in stage.outputs:
        if (where := out.resolve()) in taken:
            problems.append(f"stage '{stage.name}' would write {out} over its {taken[where]}")
        elif out.is_dir():
            problems.append(f"stage '{stage.name}' would write {out} over a directory")
        taken[where] = "own output"
    return problems


def run_stage(stage: Stage, force: bool = False) -> StageStatus:
    """Run a stage unless `force` is off and its outputs are fresh, behind
    the input gate and in the commit order of the module docstring.

    A stage whose outputs name one another, one of its inputs or a
    directory is refused (ValidationFailed, exit 1) before any file is
    touched. A failed run removes the stage's outputs, and every exit,
    `KeyboardInterrupt` included, removes the `.partial` files. Errors of
    this package keep their own exit codes, an OSError becomes an
    ArtifactIOError (exit 3) naming the stage, and any other exception a
    StageFailure.
    Each stage that ran or was skipped logs one INFO line: its wall and
    CPU seconds, the process's peak RSS so far and how much the stage
    raised it, so one run's log shows which stage sets the peak."""
    if problems := _overwrites(stage):
        raise ValidationFailed(problems)
    wall, cpu, peak = time.perf_counter(), time.process_time(), _peak_rss_mib()
    kind = stage.name.split(":")[0]
    inputs = _input_hashes(kind, stage.inputs)
    key = _key_of(kind, stage.config, inputs)
    ran = force or not _stage_fresh(stage.outputs, key)
    if ran:  # a skipped stage reads no input
        _check_inputs(kind, stage.inputs)
        for out in stage.outputs:
            manifest_path(out).unlink(missing_ok=True)
        meta = {"stage": kind, "stage_key": key, "config": stage.config, "inputs": inputs}
        partials = [Path(f"{out}.partial") for out in stage.outputs]
        try:
            owns = stage.produce(*partials)
            for partial, out in zip(partials, stage.outputs):
                os.replace(partial, out)
            for out, own in zip(stage.outputs, owns, strict=True):
                write_manifest(out, {**own, **meta})
        except Exception as exc:
            for out in stage.outputs:
                out.unlink(missing_ok=True)
                manifest_path(out).unlink(missing_ok=True)
            if isinstance(exc, PushRespError):
                raise
            if isinstance(exc, OSError):
                raise ArtifactIOError(f"stage '{stage.name}': {exc}") from exc
            raise StageFailure(stage.name, str(exc)) from exc  # boundary to exit-code contract
        finally:
            for partial in partials:
                partial.unlink(missing_ok=True)
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

    def produce(mids):
        if synth is not None:
            return [series_summary(synth_mod.write_series(synth, mids))]  # one session at a time
        written, report = _ingest(ingest, mids)  # one date at a time
        return [{**series_summary(written), "quality": asdict(report)}]

    return Stage("source", {}, [out], stage_cfg, produce)


def _ingest(opts: IngestOptions, out: Path):
    # imported here, so a run that ingests nothing does not load the module
    from . import ingest as ingest_mod

    if opts.consolidated:
        return ingest_mod.ingest_consolidated(
            opts.consolidated, out, tz=opts.tz, strict=opts.strict
        )
    files: dict[str, Path] = {}
    for p in sorted(Path(opts.venues_dir).glob("*.csv")):
        if (other := files.setdefault(p.stem.upper(), p)) != p:
            raise StageFailure("source", f"quote files {other.name} and {p.name} in "
                                         f"{opts.venues_dir} differ only in case; rename one")
    if not files:
        raise StageFailure("source", f"no quote files in {opts.venues_dir}")
    return ingest_mod.ingest_files(files, out, tz=opts.tz, strict=opts.strict)


def clean_stage(
    src: Path, out: Path, report_out: Path, cfg: cleaning_mod.CleaningConfig
) -> Stage:
    """The cleaned series at `out` and its cleaning report at `report_out`."""

    def produce(prms, report_json):
        cleaned, report = cleaning_mod.clean_prms(src, prms, cfg)
        write_text(report_json, canonical_json(report.to_dict()) + "\n")
        return [{**series_summary(cleaned), "report": report.to_dict()}, {}]

    return Stage("clean", {"mids": src}, [out, report_out], asdict(cfg), produce)


def surface_stage(
    src: Path,
    out: Path,
    moments_out: Path,
    lags: tuple[int, ...],
    grid: surface_mod.BinGrid,
    threads: int = 1,
) -> Stage:
    """The surface CSV at `out`, its block tables beside it, and the moments."""
    if problems := _threads_problems(threads):
        raise ValidationFailed(problems)
    blocks_out = surface_mod.blocks_path(out)
    stage_cfg = {"lags": list(lags), "grid": grid.to_dict()}

    def produce(surface_csv, blocks, moments):
        series = PrmsReader(src)  # read twice, one session at a time
        rows = lags_mod.compute_moments_table(series, lags)
        lags_mod.write_moments_csv(rows, moments)
        surf = surface_mod.accumulate_surface(series, rows, grid, threads=threads)
        surface_mod.write_surface_blocks(surf.blocks, blocks)
        blocks_fields = surface_mod.blocks_manifest(surf.blocks)
        surf = replace(surf, blocks=None)  # the block tables are not held beside the CSV's columns
        surface_mod.write_surface_csv(surf, surface_csv)
        return [surface_mod.surface_manifest(surf), blocks_fields, {}]

    return Stage("surface", {"clean": src}, [out, blocks_out, moments_out], stage_cfg, produce)


def decompose_stage(
    src: Path,
    heat_out: Path,
    summary_out: Path,
    boot: decomp_mod.BootstrapConfig,
) -> Stage:
    """Mirror pairs of the surface at `src` and per-lag summaries with block
    bands from the block tables beside it."""
    blocks_src = surface_mod.blocks_path(src)
    stage_cfg = {"bootstrap": asdict(boot)}

    def produce(heat, summary):
        surf = surface_mod.read_surface_csv(src, read_manifest(src))
        pairs = decomp_mod.decompose(surf)
        blocks = surface_mod.read_surface_blocks(blocks_src)
        summaries = decomp_mod.summarize(pairs, boot, blocks)
        decomp_mod.write_heatmap_csv(pairs, heat)
        decomp_mod.write_summary_csv(summaries, summary)
        # the figures lay the heatmap out on the surface's grid
        return [{"grid": surf.grid.to_dict()}, {}]

    inputs = {"surface": src, "blocks": blocks_src}
    return Stage("decompose", inputs, [heat_out, summary_out], stage_cfg, produce)


def render_stage(spec: figures_mod.FigureSpec) -> Stage:
    """The figure `spec` describes; its inputs are every CSV the spec names.

    The pipeline names all three CSVs, so every figure reruns whenever
    any of them changes. The inputs are keyed by their manifests, so the
    hashed config is the figure's kind and scale, and no key holds a path.
    """
    inputs = {
        name: Path(getattr(spec, name))
        for name in ("surface", "heatmap", "summary") if getattr(spec, name) is not None
    }

    def produce(svg):
        figures_mod.render_figure(replace(spec, out=str(svg)))
        return [{}]

    stage_cfg = {"kind": spec.kind, "vmax": spec.vmax}
    return Stage(f"render:{spec.kind}", inputs, [Path(spec.out)], stage_cfg, produce)


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
        cfg.path("surface"), cfg.path("heatmap"), cfg.path("summary"), cfg.bootstrap,
    ), force))
    for fig in cfg.figures:
        spec = replace(fig, out=str(Path(cfg.workdir) / fig.out), surface=str(cfg.path("surface")),
                       heatmap=str(cfg.path("heatmap")), summary=str(cfg.path("summary")))
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
