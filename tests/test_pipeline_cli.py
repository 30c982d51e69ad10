import hashlib
import json
import re
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from pushresp import pipeline
from pushresp import surface as surface_mod
from pushresp.cli import main
from pushresp.decomposition import write_summary_csv
from pushresp.errors import StageFailure, ValidationFailed
from pushresp.figures import FIGURE_KINDS
from pushresp.pipeline import (
    apply_override,
    config_from_dict,
    run_pipeline,
    validate_config_dict,
)
from pushresp.series import (
    PrmsReader,
    canonical_json,
    manifest_path,
    read_manifest,
    write_manifest,
    write_prms,
)

from conftest import child_env, make_series


# A CLI run whose surface CSV writer writes half of the CSV and then kills
# its own process.
KILLED_MID_WRITE = """
import os, signal, sys
from pathlib import Path
from pushresp import cli, surface

def killed(surf, path):
    real(surf, path)
    data = Path(path).read_bytes()
    Path(path).write_bytes(data[: len(data) // 2])
    os.kill(os.getpid(), signal.SIGKILL)

real, surface.write_surface_csv = surface.write_surface_csv, killed
cli.main(sys.argv[1:])
"""


def base_config(workdir, n_events=40000, figures=None):
    return {
        "workdir": str(workdir),
        "synth": {"kind": "momentum", "n_events": n_events, "n_sessions": 2,
                  "inject_lag": 20, "phi": 0.3, "seed": 11},
        "cleaning": {"lower_q": 1e-05, "upper_q": 0.99999, "jump_threshold": 1.5},
        "lags": "1,10,20,40",
        "grid": {"n_min_support": 50},
        "bootstrap": {"n_replicates": 100, "seed": 42},
        "figures": figures if figures is not None else [
            {"kind": "rho_curve", "out": "rho.svg"}
        ],
    }


class TestValidate:
    def test_default_grid_ok(self, tmp_path):
        assert validate_config_dict(base_config(tmp_path)) == []

    def test_bin_count_arithmetic(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["grid"] = {"z_min": -4.0, "z_max": 4.0, "step": 0.025}
        assert validate_config_dict(cfg) == []

    def test_step_003_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["grid"] = {"step": 0.03}
        problems = validate_config_dict(cfg)
        assert any("non-integer bin count" in p for p in problems)

    def test_quantile_ordering_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["cleaning"]["lower_q"] = 0.9999
        cfg["cleaning"]["upper_q"] = 0.0001
        assert any("lower_q" in p for p in validate_config_dict(cfg))

    def test_bad_lags_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["lags"] = [0, 5]
        assert validate_config_dict(cfg)

    def test_needs_exactly_one_source(self, tmp_path):
        cfg = base_config(tmp_path)
        del cfg["synth"]
        assert any("source" in p for p in validate_config_dict(cfg))
        cfg = base_config(tmp_path)
        cfg["ingest"] = {"venues_dir": "x"}
        assert any("pick one" in p for p in validate_config_dict(cfg))

    def test_pair_band_weighting_rejected(self, tmp_path):
        # the pipeline reports the block band, which has no weighting option
        cfg = base_config(tmp_path)
        cfg["bootstrap"]["recompute_weights"] = "selection"
        assert any("recompute_weights" in p for p in validate_config_dict(cfg))

    def test_readme_example_config_ok(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"```json\n(.*?)```", readme, re.DOTALL)
        assert validate_config_dict(json.loads(example)) == []


class TestConfigFaults:
    @pytest.mark.parametrize("section, value, word", [
        ("grid", {"stepp": 0.05}, "stepp"),
        ("figures", [{"kind": "rho_curve"}], "'out'"),
        ("ingest", {"tz": "America/New_York"}, "venues_dir"),
        ("grid", {"step": "0.05"}, "'str'"),
        ("grid", {"z_min": -2.0, "z_max": 4.0, "step": 0.025}, "symmetric about 0"),
        ("ingest", {"venues_dir": "quotes", "tz": "Mars/Olympus"}, "tz: unknown time zone"),
        ("threads", True, "threads must be an integer"),
        # settings that no longer exist are refused, not ignored
        ("paths", {"summary": "l.csv"}, "unknown config key 'paths'"),
        ("local_index", "absratio", "unknown config key 'local_index'"),
        ("bootstrap", {"quantiles": [0.05, 0.95]}, "'quantiles'"),
        ("grid", {"n_bins": 320}, "'n_bins'"),
        ("deterministic", True, "unknown config key 'deterministic'"),
        # a pipeline figure always reads the workdir's tables
        ("figures", [{"kind": "rho_curve", "out": "rho.svg", "summary": "other.csv"}],
         "figures[0]: a pipeline figure reads the workdir's tables; drop 'summary'"),
        # a JSON value of the wrong type is refused, not truncated, coerced or
        # left to fail in a stage
        ("lags", [1.7, "5"], "lags must be integers >= 1, got 1.7"),
        ("lags", [True], "lags must be integers >= 1, got True"),
        ("lags", [50.0], "lags must be integers >= 1, got 50.0"),
        ("bootstrap", {"n_replicates": 2.5}, "bootstrap: n_replicates must be an integer"),
        ("bootstrap", {"seed": -3}, "bootstrap: seed must be >= 0, got -3"),
        ("synth", {"n_events": 2e4}, "synth: n_events must be an integer, not 'float'"),
        ("synth", {"seed": 1.5}, "synth: seed must be an integer"),
        ("synth", {"seed": -3}, "synth: seed must be >= 0, got -3"),
        ("workdir", 5, "workdir must be a string, not 'int' 5"),
        ("ingest", {"venues_dir": "quotes", "strict": "false"},
         "ingest: strict must be true or false, not 'str' 'false'"),
        # Python's JSON reader takes NaN and Infinity, which JSON has not
        ("grid", {"step": float("nan")}, "grid: step must be a finite number, not 'float' nan"),
        ("grid", {"z_max": float("inf")}, "grid: z_max must be a finite number"),
    ], ids=["grid_key", "figure_out", "ingest_input", "grid_step_type", "grid_asymmetric",
            "ingest_tz", "threads_bool", "paths", "local_index", "bootstrap_quantiles",
            "grid_n_bins", "unknown_key", "figure_input", "lags_float_str", "lags_bool",
            "lags_float", "replicates_float", "bootstrap_seed", "synth_n_events_float",
            "synth_seed_float", "synth_seed", "workdir_int", "ingest_strict_str",
            "grid_step_nan", "grid_z_max_inf"])
    def test_validate_and_pipeline_exit_1(self, tmp_path, capsys, section, value, word):
        workdir = tmp_path / "wd"
        raw = base_config(workdir)
        if section == "ingest":
            del raw["synth"]  # so the ingest section is the one source
        if section in ("synth", "bootstrap"):  # one entry of an otherwise valid section
            value = {**raw[section], **value}
        raw[section] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(raw))
        assert main(["validate", "--config", str(path)]) == 1
        out = capsys.readouterr().out
        assert any(word in line for line in out.splitlines() if line.startswith("problem:"))
        assert main(["pipeline", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert word in err and "Traceback" not in err
        assert not workdir.exists()

    def test_every_problem_reported(self, tmp_path):
        raw = base_config(tmp_path)
        raw["grid"] = {"stepp": 0.05}
        raw["figures"] = [{"kind": "rho_curve"}]
        problems = validate_config_dict(raw)
        assert len(problems) == 2
        assert "stepp" in problems[0] and "figures[0]" in problems[1]
        with pytest.raises(ValidationFailed) as err:
            config_from_dict(raw)
        assert err.value.problems == problems


class TestPipeline:
    def test_full_run_artifacts_and_provenance(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        statuses = run_pipeline(cfg)
        assert [s.status for s in statuses] == ["ran"] * 5
        for name in ("mids.prms", "clean.prms", "surface.csv", "surface.blocks",
                     "moments.csv", "heat.csv", "lags.csv", "rho.svg"):
            assert (tmp_path / name).exists(), name
        # manifests chain: each stage records the hash of its input manifest
        mids_m = read_manifest(tmp_path / "mids.prms")
        clean_m = read_manifest(tmp_path / "clean.prms")
        want = hashlib.sha256(canonical_json(mids_m).encode()).hexdigest()
        assert clean_m["inputs"]["mids"] == want
        surface_m = read_manifest(tmp_path / "surface.csv")
        want = hashlib.sha256(canonical_json(clean_m).encode()).hexdigest()
        assert surface_m["inputs"]["clean"] == want
        heat_m = read_manifest(tmp_path / "heat.csv")
        want = hashlib.sha256(canonical_json(surface_m).encode()).hexdigest()
        assert heat_m["inputs"]["surface"] == want
        blocks_m = read_manifest(tmp_path / "surface.blocks")
        assert blocks_m["stage_key"] == surface_m["stage_key"]
        want = hashlib.sha256(canonical_json(blocks_m).encode()).hexdigest()
        assert heat_m["inputs"]["blocks"] == want
        # every artifact has a manifest, and every manifest one shape
        manifests = sorted(tmp_path.glob("*.manifest.json"))
        assert len(manifests) == 9 and len(list(tmp_path.iterdir())) == 18
        for path in manifests:
            manifest = json.loads(path.read_text())
            for name in ("stage", "stage_key", "config", "inputs", "data_sha256"):
                assert name in manifest, (path.name, name)

    def test_rerun_skips_everything(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        run_pipeline(cfg)
        statuses = run_pipeline(cfg)
        assert {s.status for s in statuses} == {"skipped"}

    def test_only_fresh_keys_hash_data(self, tmp_path, monkeypatch):
        # a stage that runs hashes its inputs first, and a skipped one only
        # its outputs; a forced or re-keyed stage hashes none of its outputs
        raw = base_config(tmp_path)
        run_pipeline(config_from_dict(raw))
        hashed = []
        real = pipeline.sha256_file
        monkeypatch.setattr(pipeline, "sha256_file", lambda p: hashed.append(p.name) or real(p))
        run_pipeline(config_from_dict(raw), force=True)
        inputs = {"clean": ["mids.prms"], "surface": ["clean.prms"],
                  "decompose": ["surface.csv", "surface.blocks"],
                  "render": ["surface.csv", "heat.csv", "lags.csv"]}
        assert hashed == [name for stage in inputs.values() for name in stage]
        hashed.clear()
        raw["bootstrap"]["seed"] = 43
        run_pipeline(config_from_dict(raw))
        assert hashed == ["mids.prms", "clean.prms", "clean.json",
                          "surface.csv", "surface.blocks", "moments.csv",
                          *inputs["decompose"], *inputs["render"]]

    @pytest.fixture(scope="class")
    def lags_at_seed_43(self, tmp_path_factory):
        raw = base_config(tmp_path_factory.mktemp("fresh"))
        raw["bootstrap"]["seed"] = 43
        run_pipeline(config_from_dict(raw))
        return (Path(raw["workdir"]) / "lags.csv").read_bytes()

    @staticmethod
    def _edit_mean_zr(data: bytes) -> bytes:
        # one digit of the mean_zr of the fullest cell
        lines = data.decode().splitlines(keepends=True)
        row = max(range(1, len(lines)), key=lambda i: int(lines[i].split(",")[3]))
        fields = lines[row].split(",")
        dot = fields[5].index(".")
        fields[5] = fields[5][:dot + 1] + str((int(fields[5][dot + 1]) + 5) % 10) + fields[5][dot + 2:]
        lines[row] = ",".join(fields)
        return "".join(lines).encode()

    @staticmethod
    def _cut_lines(data: bytes) -> bytes:
        lines = data.splitlines(keepends=True)
        return b"".join(lines[: len(lines) // 2])

    @pytest.mark.parametrize("name, stage, damage", [
        ("surface.csv", "surface", "edit"),
        ("surface.csv", "surface", "cut"),
        ("clean.prms", "clean", "edit"),
        ("clean.prms", "clean", "cut"),
    ])
    def test_damaged_artifact_reruns_its_stage(self, tmp_path, lags_at_seed_43, name, stage, damage):
        raw = base_config(tmp_path)
        run_pipeline(config_from_dict(raw))
        path = tmp_path / name
        intact = path.read_bytes()
        if name == "clean.prms":
            # a mid's first byte, or a cut at a mid's boundary
            at = len(intact) - 8 * 1000
            damaged = (intact[:at] + bytes([intact[at] ^ 1]) + intact[at + 1:]
                       if damage == "edit" else intact[:at])
        else:
            damaged = self._edit_mean_zr(intact) if damage == "edit" else self._cut_lines(intact)
        assert damaged != intact
        path.write_bytes(damaged)
        raw["bootstrap"]["seed"] = 43
        statuses = {s.stage: s.status for s in run_pipeline(config_from_dict(raw))}
        assert statuses[stage] == "ran"
        assert path.read_bytes() == intact
        assert (tmp_path / "lags.csv").read_bytes() == lags_at_seed_43

    def test_interrupted_forced_rerun_reruns_the_stage(self, tmp_path, monkeypatch):
        cfg = config_from_dict(base_config(tmp_path))
        run_pipeline(cfg)
        first = (tmp_path / "surface.csv").read_bytes()
        real = surface_mod.write_surface_csv

        def interrupted(surf, path):
            real(surf, path)
            data = Path(path).read_bytes()
            Path(path).write_bytes(data[: len(data) // 2])
            raise KeyboardInterrupt

        monkeypatch.setattr(surface_mod, "write_surface_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            run_pipeline(cfg, force=True)
        # no manifest vouches for the surface stage's outputs, so no reader takes the cut file
        assert not [p for p in tmp_path.glob("*.manifest.json")
                    if p.name.startswith(("surface.", "moments."))]
        monkeypatch.undo()
        statuses = {s.stage: s.status for s in run_pipeline(cfg)}
        assert statuses == {"source": "skipped", "clean": "skipped", "surface": "ran",
                            "decompose": "skipped", "render:rho_curve": "skipped"}
        assert (tmp_path / "surface.csv").read_bytes() == first

    def test_killed_mid_write_keeps_the_old_artifact(self, tmp_path):
        # a forced run whose process is killed while it writes the surface CSV
        raw = base_config(tmp_path / "wd")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        run_pipeline(config_from_dict(raw))
        wd = tmp_path / "wd"
        first = files(wd)
        child = subprocess.run([sys.executable, "-c", KILLED_MID_WRITE, "pipeline",
                                "--config", str(cfg), "--force"],
                               env=child_env(), capture_output=True, text=True)
        assert child.returncode == -signal.SIGKILL, child.stderr
        assert (wd / "surface.csv").read_bytes() == first["surface.csv"]
        assert (wd / "surface.csv.partial").stat().st_size < len(first["surface.csv"])
        assert not [p for p in wd.glob("*.manifest.json")
                    if p.name.startswith(("surface.", "moments."))]
        statuses = {s.stage: s.status for s in run_pipeline(config_from_dict(raw))}
        assert statuses == {"source": "skipped", "clean": "skipped", "surface": "ran",
                            "decompose": "skipped", "render:rho_curve": "skipped"}
        assert files(wd) == first  # no .partial left

    def test_manifest_not_an_object_reruns_its_stage(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        run_pipeline(cfg)
        manifest = manifest_path(tmp_path / "lags.csv")
        intact = manifest.read_bytes()
        manifest.write_text("[]")
        statuses = {s.stage: s.status for s in run_pipeline(cfg)}
        assert statuses == {"source": "skipped", "clean": "skipped", "surface": "skipped",
                            "decompose": "ran", "render:rho_curve": "skipped"}
        assert manifest.read_bytes() == intact

    def test_moved_workdir_resumes(self, tmp_path):
        # no stage key holds a path: one config in two places writes the same
        # bytes, manifests included, and a moved workdir skips every stage
        figures = [{"kind": k, "out": f"{k}.svg"} for k in FIGURE_KINDS]
        trees = []
        for base in ("a", "b"):
            run_pipeline(config_from_dict(base_config(tmp_path / base / "wd", figures=figures)))
            trees.append(files(tmp_path / base / "wd"))
        assert len(trees[0]) == 26 and trees[0] == trees[1]
        moved = tmp_path / "moved"
        (tmp_path / "a" / "wd").rename(moved)
        statuses = run_pipeline(config_from_dict(base_config(moved, figures=figures)))
        assert [s.status for s in statuses] == ["skipped"] * 9
        assert files(moved) == trees[0]

    def test_one_log_line_per_stage(self, tmp_path, caplog):
        cfg = config_from_dict(base_config(tmp_path))
        with caplog.at_level("INFO", logger="pushresp.pipeline"):
            statuses = run_pipeline(cfg) + run_pipeline(cfg)
        lines = [r.getMessage() for r in caplog.records if r.name == "pushresp.pipeline"]
        assert [s.status for s in statuses] == ["ran"] * 5 + ["skipped"] * 5
        assert len(lines) == len(statuses)
        for status, line in zip(statuses, lines):
            assert re.fullmatch(
                rf"stage {re.escape(status.stage)} {status.status}: wall \d+\.\d{{3}} s, "
                r"cpu \d+\.\d{3} s, peak rss \d+\.\d MiB \(\+\d+\.\d in stage\)", line
            ), line

    def test_config_change_reruns_downstream(self, tmp_path):
        raw = base_config(tmp_path)
        run_pipeline(config_from_dict(raw))
        raw["bootstrap"]["seed"] = 43
        statuses = run_pipeline(config_from_dict(raw))
        by_stage = {s.stage: s.status for s in statuses}
        assert by_stage["source"] == "skipped"
        assert by_stage["clean"] == "skipped"
        assert by_stage["surface"] == "skipped"
        assert by_stage["decompose"] == "ran"
        assert by_stage["render:rho_curve"] == "ran"

    def test_missing_ingest_input_is_stage_failure(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["synth"]
        raw["ingest"] = {"venues_dir": str(tmp_path / "absent")}
        with pytest.raises(StageFailure) as err:
            run_pipeline(config_from_dict(raw))
        assert err.value.stage == "source"
        assert not (tmp_path / "mids.prms").exists()

    def test_deterministic_rerun_bit_identical(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        run_pipeline(cfg)
        names = ["mids.prms", "clean.prms", "surface.csv", "surface.blocks",
                 "heat.csv", "lags.csv", "rho.svg"]
        before = {n: (tmp_path / n).read_bytes() for n in names}
        run_pipeline(cfg, force=True)
        after = {n: (tmp_path / n).read_bytes() for n in names}
        assert before == after


class TestOverrides:
    def test_override_parses_json_values(self):
        raw = {"synth": {"seed": 1}}
        apply_override(raw, "synth.seed=9")
        assert raw["synth"]["seed"] == 9
        apply_override(raw, "lags=short")
        assert raw["lags"] == "short"
        apply_override(raw, "cleaning.jump_threshold=2.5")
        assert raw["cleaning"]["jump_threshold"] == 2.5

    def test_override_requires_key_value(self):
        with pytest.raises(ValidationFailed):
            apply_override({}, "nonsense")


@pytest.fixture(scope="module")
def table_artifacts(tmp_path_factory):
    """A directory of the three tables the figures read, each with its
    manifest, written by the subcommands."""
    d = tmp_path_factory.mktemp("tables")
    assert main(["synth", "--kind", "null_walk", "--n", "20000", "--seed", "3",
                 "--out", str(d / "mids.prms")]) == 0
    assert main(["surface", "--in", str(d / "mids.prms"), "--lags", "1,5", "--nmin", "50",
                 "--out", str(d / "surface.csv")]) == 0
    assert main(["decompose", "--surface", str(d / "surface.csv"), "--bootstrap", "10",
                 "--out-heatmap", str(d / "heat.csv"), "--out-summary", str(d / "lags.csv")]) == 0
    return d


@pytest.fixture(scope="module")
def binary_artifacts(tmp_path_factory):
    """A PRMS of three sessions, and the surface CSV and block tables over
    it, each with its manifest, written by the subcommands."""
    d = tmp_path_factory.mktemp("binary")
    assert main(["synth", "--kind", "null_walk", "--n", "20000", "--sessions", "3",
                 "--seed", "3", "--out", str(d / "mids.prms")]) == 0
    assert main(["surface", "--in", str(d / "mids.prms"), "--lags", "1,5", "--nmin", "50",
                 "--out", str(d / "surface.csv")]) == 0
    return d


def files(d: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


class TestOverwrites:
    """A stage that would write over one of its own outputs or inputs is
    refused before any file is touched."""

    def test_surface_outputs_at_one_path_exit_1(self, tmp_path, table_artifacts, capsys):
        wd = tmp_path / "wd"
        shutil.copytree(table_artifacts, wd)
        before = files(wd)
        assert main(["surface", "--in", str(wd / "mids.prms"), "--lags", "1,5",
                     "--out", str(wd / "surface.csv"),
                     "--out-moments", str(wd / "surface.csv")]) == 1
        assert "surface.csv over its own output" in capsys.readouterr().err
        assert files(wd) == before

    def test_render_over_its_input_exit_1(self, tmp_path, table_artifacts, capsys):
        wd = tmp_path / "wd"
        shutil.copytree(table_artifacts, wd)
        before = files(wd)
        assert main(["render", "--kind", "rho_curve", "--summary", str(wd / "lags.csv"),
                     "--out", str(wd / "lags.csv")]) == 1
        assert "over its input 'summary'" in capsys.readouterr().err
        assert files(wd) == before

    def test_figure_over_a_table_exit_1(self, tmp_path):
        raw = base_config(tmp_path / "wd", figures=[])
        run_pipeline(config_from_dict(raw))
        before = files(tmp_path / "wd")
        raw["figures"] = [{"kind": "rho_curve", "out": "lags.csv"}]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert validate_config_dict(raw) == [
            "'figures[0].out' and 'summary' both point to 'lags.csv'"]
        assert main(["validate", "--config", str(cfg)]) == 1
        assert main(["pipeline", "--config", str(cfg)]) == 1
        assert files(tmp_path / "wd") == before

    def test_output_over_a_directory_exit_1(self, tmp_path, capsys):
        out = tmp_path / "adir"
        out.mkdir()
        (out / "keep").write_text("kept")
        assert main(["synth", "--kind", "null_walk", "--n", "2000", "--out", str(out)]) == 1
        assert f"would write {out} over a directory" in capsys.readouterr().err
        assert sorted(tmp_path.rglob("*")) == [out, out / "keep"]
        assert (out / "keep").read_text() == "kept"


# Each subcommand that reads a table, with the option naming it and the table.
TABLE_READERS = {
    "decompose": (["decompose", "--bootstrap", "10", "--surface"], "surface.csv"),
    "surface_top": (["render", "--kind", "surface_top", "--surface"], "surface.csv"),
    "dominance_heatmap": (["render", "--kind", "dominance_heatmap", "--heatmap"], "heat.csv"),
    "rho_curve": (["render", "--kind", "rho_curve", "--summary"], "lags.csv"),
}


class TestCliExitCodes:
    def test_validate_ok_and_fail(self, tmp_path):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(base_config(tmp_path)))
        assert main(["validate", "--config", str(good)]) == 0
        bad_cfg = base_config(tmp_path)
        bad_cfg["grid"] = {"step": 0.03}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(bad_cfg))
        assert main(["validate", "--config", str(bad)]) == 1

    def test_pipeline_stage_failure_exit_2(self, tmp_path):
        raw = base_config(tmp_path)
        del raw["synth"]
        raw["ingest"] = {"venues_dir": str(tmp_path / "absent")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        assert main(["pipeline", "--config", str(cfg)]) == 2

    def test_io_failure_exit_3(self, tmp_path):
        assert main([
            "clean", "--in", str(tmp_path / "absent.prms"),
            "--out", str(tmp_path / "out.prms"),
        ]) == 3

    def test_workdir_that_cannot_be_made_exit_3(self, tmp_path, capsys):
        (tmp_path / "blocker").write_text("")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(base_config(tmp_path / "blocker" / "wd")))
        assert main(["pipeline", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "blocker" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "cfg.json"]

    def test_missing_lag_file_exit_3(self, tmp_path, capsys):
        # read before the stage runs, so cli.main maps its OSError
        mids = tmp_path / "mids.prms"
        assert main(["synth", "--kind", "null_walk", "--n", "2000", "--out", str(mids)]) == 0
        before = files(tmp_path)
        assert main(["surface", "--in", str(mids), "--lags", f"file:{tmp_path / 'absent.txt'}",
                     "--out", str(tmp_path / "s.csv")]) == 3
        assert "absent.txt" in capsys.readouterr().err
        assert files(tmp_path) == before

    def test_bad_lag_file_token_exit_1(self, tmp_path, capsys):
        # one `error:` line naming the token, not a traceback
        mids, lags = tmp_path / "mids.prms", tmp_path / "lags.txt"
        lags.write_text("1 x 5\n")
        assert main(["synth", "--kind", "null_walk", "--n", "2000", "--out", str(mids)]) == 0
        capsys.readouterr()
        before = files(tmp_path)
        assert main(["surface", "--in", str(mids), "--lags", f"file:{lags}",
                     "--out", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'x'" in err
        assert files(tmp_path) == before

    def test_bad_lag_file_token_in_pipeline_exit_1(self, tmp_path, capsys):
        lags = tmp_path / "lags.txt"
        lags.write_text("1\n10 2.5\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**base_config(tmp_path / "wd"), "lags": f"file:{lags}"}))
        assert main(["pipeline", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "'2.5'" in err

    def test_missing_consolidated_file_exit_3(self, tmp_path, capsys):
        # like any other missing input, not a stage failure
        absent = tmp_path / "absent.csv"
        assert main(["ingest", "--consolidated", str(absent),
                     "--out", str(tmp_path / "mids.prms")]) == 3
        assert str(absent) in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_non_finite_mid_exit_3(self, tmp_path):
        mids, out = tmp_path / "mids.prms", tmp_path / "s.csv"
        write_prms(make_series([[100.0, float("nan"), 100.02, 100.03]]), mids)
        write_manifest(mids, {})
        out.write_text("stale")
        assert main(["surface", "--in", str(mids), "--lags", "1", "--out", str(out)]) == 3
        assert not out.exists()  # a failed stage leaves none of its outputs

    def test_unwritable_svg_exit_3(self, tmp_path):
        summary = tmp_path / "lags.csv"
        write_summary_csv([], summary)
        write_manifest(summary, {})
        assert main(["render", "--kind", "rho_curve", "--summary", str(summary),
                     "--out", str(tmp_path / "absent" / "x.svg")]) == 3

    def test_unwritable_clean_report_exit_3(self, tmp_path):
        mids, out = tmp_path / "mids.prms", tmp_path / "clean.prms"
        assert main(["synth", "--kind", "null_walk", "--n", "2000", "--seed", "1",
                     "--out", str(mids)]) == 0
        assert main(["clean", "--in", str(mids), "--out", str(out),
                     "--report", str(tmp_path / "absent" / "r.json")]) == 3
        assert not out.exists()  # a failed stage leaves none of its outputs

    @staticmethod
    def _surface_reader(tmp_path, command):
        """A surface CSV with its manifest, and the argv of `command` reading it."""
        surface = tmp_path / "surface.csv"
        assert main(["synth", "--kind", "null_walk", "--n", "20000", "--seed", "3",
                     "--out", str(tmp_path / "mids.prms")]) == 0
        assert main(["surface", "--in", str(tmp_path / "mids.prms"), "--lags", "1,5",
                     "--nmin", "50", "--out", str(surface)]) == 0
        argv = {
            "decompose": ["--surface", str(surface), "--bootstrap", "10",
                          "--out-heatmap", str(tmp_path / "heat.csv"),
                          "--out-summary", str(tmp_path / "lags.csv")],
            "render": ["--kind", "surface_top", "--surface", str(surface),
                       "--out", str(tmp_path / "top.svg")],
        }[command]
        return surface, [command, *argv]

    @pytest.mark.parametrize("command", ["decompose", "render"])
    def test_missing_input_csv_exit_3(self, tmp_path, command):
        # the input's manifest is there, the CSV itself is gone
        surface, argv = self._surface_reader(tmp_path, command)
        surface.unlink()
        assert main(argv) == 3

    @pytest.mark.parametrize("command", ["decompose", "render"])
    def test_non_numeric_csv_field_exit_3(self, tmp_path, command, capsys):
        surface, argv = self._surface_reader(tmp_path, command)
        lines = surface.read_text().splitlines(keepends=True)
        fields = lines[3].split(",")
        fields[5] = "abc"  # mean_zr of the third row
        lines[3] = ",".join(fields)
        surface.write_text("".join(lines))
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert f"{surface}: its bytes do not match the data_sha256 of its manifest" in err

    @staticmethod
    def _damage(path: Path, damage: str) -> None:
        """Edit one digit of the last row so that it still parses, cut the
        last row off at its line boundary, delete the manifest, make it a
        JSON list, put a byte that is not UTF-8 before it, or delete its
        `grid` field."""
        data = path.read_bytes()
        if damage == "edit":
            at = data.rindex(b".") + 1
            digit = ord("0") + (data[at] - ord("0") + 5) % 10
            path.write_bytes(data[:at] + bytes([digit]) + data[at + 1:])
        elif damage == "cut":
            path.write_bytes(data[: data.rindex(b"\n", 0, -1) + 1])
        elif damage == "manifest":
            manifest_path(path).unlink()
        elif damage == "manifest_list":
            manifest_path(path).write_text("[]")
        elif damage == "manifest_no_grid":
            manifest = read_manifest(path)
            del manifest["grid"]
            manifest_path(path).write_text(canonical_json(manifest) + "\n")
        else:
            manifest_path(path).write_bytes(b"\xff" + manifest_path(path).read_bytes())

    @pytest.mark.parametrize("command, table, damage", [
        pytest.param(*TABLE_READERS[reader], damage, id=f"{reader}-{damage}")
        for damage in ["edit", "cut", "manifest", "manifest_list", "manifest_not_utf8"]
        for reader in TABLE_READERS
    ] + [
        # the grid is in the manifests of the surface and the heatmap only
        pytest.param(*TABLE_READERS[reader], "manifest_no_grid", id=f"{reader}-manifest_no_grid")
        for reader in ["decompose", "surface_top", "dominance_heatmap"]
    ])
    def test_table_unlike_its_manifest_exit_3(self, tmp_path, table_artifacts, command, table,
                                              damage, capsys):
        wd = tmp_path / "wd"
        shutil.copytree(table_artifacts, wd)
        self._damage(wd / table, damage)
        before = files(wd)
        outs = {"decompose": ["--out-heatmap", str(wd / "h.csv"),
                              "--out-summary", str(wd / "l.csv")],
                "render": ["--out", str(wd / "x.svg")]}[command[0]]
        assert main([*command, str(wd / table), *outs]) == 3
        err = capsys.readouterr().err
        assert f"{wd / table}" in err
        assert damage != "manifest_no_grid" or "its manifest has no 'grid' field" in err
        assert files(wd) == before  # no output file, no file changed

    @staticmethod
    def _damage_binary(path: Path, damage: str) -> None:
        """Flip the low bit of the last float of a PRMS or block table, or cut
        a PRMS before its last session; either leaves a well-formed file."""
        data = path.read_bytes()
        if damage == "cut":
            sessions = PrmsReader(path).sessions
            path.write_bytes(data[: 6 + sum(12 + 8 * len(s) for s in sessions[:-1])])
        else:
            path.write_bytes(data[:-8] + bytes([data[-8] ^ 1]) + data[-7:])

    @pytest.mark.parametrize("command, damaged, damage", [
        ("clean", "mids.prms", "bit"),
        ("clean", "mids.prms", "cut"),
        ("surface", "mids.prms", "bit"),
        ("surface", "mids.prms", "cut"),
        ("decompose", "surface.blocks", "bit"),
    ])
    def test_binary_input_unlike_its_manifest_exit_3(self, tmp_path, binary_artifacts, command,
                                                     damaged, damage, capsys):
        wd = tmp_path / "wd"
        shutil.copytree(binary_artifacts, wd)
        self._damage_binary(wd / damaged, damage)
        before = files(wd)
        argv = {"clean": ["--in", str(wd / "mids.prms"), "--out", str(wd / "c.prms")],
                "surface": ["--in", str(wd / "mids.prms"), "--lags", "1,5",
                            "--out", str(wd / "s.csv")],
                "decompose": ["--surface", str(wd / "surface.csv"), "--bootstrap", "10",
                              "--out-heatmap", str(wd / "h.csv"),
                              "--out-summary", str(wd / "l.csv")]}[command]
        assert main([command, *argv]) == 3
        err = capsys.readouterr().err
        assert f"{wd / damaged}: its bytes do not match the data_sha256 of its manifest" in err
        assert files(wd) == before  # no output file, no file changed

    def test_table_of_another_kind_exit_3(self, tmp_path, table_artifacts, capsys):
        # the surface and summary tables both have eight columns
        assert main(["render", "--kind", "rho_curve", "--summary",
                     str(table_artifacts / "surface.csv"), "--out", str(tmp_path / "x.svg")]) == 3
        assert "surface.csv: header is not lag,rho," in capsys.readouterr().err
        assert not (tmp_path / "x.svg").exists()

    def test_usage_error_exit_1(self):
        assert main(["clean"]) == 1

    def test_missing_config_exit_3(self, tmp_path):
        assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 3


class TestCliSubcommands:
    def test_synth_clean_surface_decompose_render(self, tmp_path):
        mids = tmp_path / "mids.prms"
        cleaned = tmp_path / "clean.prms"
        surf = tmp_path / "surface.csv"
        heat = tmp_path / "heat.csv"
        summ = tmp_path / "lags.csv"
        fig = tmp_path / "rho.svg"
        assert main([
            "synth", "--kind", "momentum", "--n", "30000", "--sessions", "2",
            "--lag", "20", "--phi", "0.3", "--seed", "5", "--out", str(mids),
        ]) == 0
        assert main([
            "clean", "--in", str(mids), "--lower-q", "1e-5", "--upper-q",
            "0.99999", "--jump", "1.50", "--out", str(cleaned),
            "--report", str(tmp_path / "clean.json"),
        ]) == 0
        assert main([
            "surface", "--in", str(cleaned), "--grid", "default", "--lags",
            "1,10,20", "--nmin", "50", "--out", str(surf),
        ]) == 0
        assert main([
            "decompose", "--surface", str(surf), "--bootstrap", "100",
            "--seed", "42",
            "--out-heatmap", str(heat), "--out-summary", str(summ),
        ]) == 0
        assert main([
            "render", "--kind", "rho_curve", "--summary", str(summ),
            "--out", str(fig),
        ]) == 0
        for p in (mids, cleaned, surf, heat, summ, fig):
            assert p.exists()
        assert (tmp_path / "clean.json").exists()
        assert (tmp_path / "surface.moments.csv").exists()
        assert (tmp_path / "surface.blocks").exists()

    def test_subcommands_match_pipeline_bytes(self, tmp_path):
        # the subcommands run the pipeline's stage functions: same settings,
        # same data and manifests, byte for byte
        piped, alone = tmp_path / "pipeline", tmp_path / "alone"
        raw = base_config(piped, figures=[])
        raw["lags"] = "1,10,20"
        run_pipeline(config_from_dict(raw))
        alone.mkdir()
        assert main([
            "synth", "--kind", "momentum", "--n", "40000", "--sessions", "2",
            "--lag", "20", "--phi", "0.3", "--seed", "11",
            "--out", str(alone / "mids.prms"),
        ]) == 0
        assert main([
            "clean", "--in", str(alone / "mids.prms"), "--lower-q", "1e-5",
            "--upper-q", "0.99999", "--jump", "1.5", "--out", str(alone / "clean.prms"),
            "--report", str(alone / "clean.json"),
        ]) == 0
        assert main([
            "surface", "--in", str(alone / "clean.prms"), "--lags", "1,10,20",
            "--nmin", "50", "--out", str(alone / "surface.csv"),
            "--out-moments", str(alone / "moments.csv"),
        ]) == 0
        assert main([
            "decompose", "--surface", str(alone / "surface.csv"), "--bootstrap", "100",
            "--seed", "42", "--out-heatmap", str(alone / "heat.csv"),
            "--out-summary", str(alone / "lags.csv"),
        ]) == 0
        names = sorted(p.name for p in piped.iterdir())
        assert names == sorted(p.name for p in alone.iterdir())
        assert len(names) == 16  # 8 artifacts, each with its manifest
        for name in names:
            assert (alone / name).read_bytes() == (piped / name).read_bytes(), name
        assert read_manifest(alone / "mids.prms")["stage"] == "source"

    def test_decompose_needs_block_artifact(self, tmp_path):
        mids = tmp_path / "mids.prms"
        surf = tmp_path / "surface.csv"
        assert main(["synth", "--kind", "null_walk", "--n", "20000", "--seed", "3",
                     "--out", str(mids)]) == 0
        assert main(["surface", "--in", str(mids), "--lags", "1,5", "--nmin", "50",
                     "--out", str(surf)]) == 0
        (tmp_path / "surface.blocks").unlink()
        assert main(["decompose", "--surface", str(surf), "--bootstrap", "10",
                     "--out-heatmap", str(tmp_path / "heat.csv"),
                     "--out-summary", str(tmp_path / "lags.csv")]) == 3

    def test_synth_rejects_invalid_spec(self, tmp_path):
        # a bad spec is a validation failure (exit 1), as in `pipeline`
        code = main([
            "synth", "--kind", "momentum", "--n", "50", "--lag", "50",
            "--phi", "0.3", "--out", str(tmp_path / "x.prms"),
        ])
        assert code == 1

    @pytest.mark.parametrize("args, word", [
        (["--n", "1"], "n_events must be >= 2, got 1"),
        (["--n", "100", "--seed", "-1"], "seed must be >= 0, got -1"),
    ], ids=["n_1", "seed_negative"])
    def test_synth_bad_value_exit_1(self, tmp_path, capsys, args, word):
        assert main(["synth", "--kind", "null_walk", *args,
                     "--out", str(tmp_path / "x.prms")]) == 1
        err = capsys.readouterr().err
        assert word in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_threads_below_one_rejected(self, tmp_path, capsys, threads):
        mids = tmp_path / "m.prms"
        assert main(["synth", "--kind", "null_walk", "--n", "5000",
                     "--seed", "1", "--out", str(mids)]) == 0
        before = sorted(tmp_path.iterdir())
        assert main(["surface", "--in", str(mids), "--lags", "1,5", "--nmin", "20",
                     "--threads", threads, "--out", str(tmp_path / "s.csv")]) == 1
        assert f"threads must be an integer >= 1, got {int(threads)}" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before

    def test_ingest_cli_venue_dir(self, tmp_path):
        from test_ingest import ns_at, write_venue_file

        vdir = tmp_path / "venues"
        vdir.mkdir()
        t0 = ns_at(2019, 1, 2, 10, 0)
        write_venue_file(
            vdir / "arca.csv",
            [(t0 + i * 1000, "ARCA", 100.0 + 0.01 * (i % 7), 100,
              100.10 + 0.01 * (i % 5), 100, "R") for i in range(50)],
        )
        out = tmp_path / "mids.prms"
        assert main(["ingest", "--venues", str(vdir), "--out", str(out)]) == 0
        assert out.exists()
        manifest = read_manifest(out)
        assert manifest["quality"]["n_emitted"] > 0

    def test_ingest_venue_files_differing_in_case_exit_2(self, tmp_path, capsys):
        # both files would map to the key NYSE; neither may be dropped silently
        from test_ingest import ns_at, write_venue_file

        vdir = tmp_path / "venues"
        vdir.mkdir()
        t0 = ns_at(2019, 1, 2, 10, 0)
        for name in ("NYSE.csv", "nyse.csv"):
            write_venue_file(vdir / name, [(t0 + i, "NYSE", 100.0, 100, 100.02, 100, "R")
                                           for i in range(5)])
        out = tmp_path / "mids.prms"
        assert main(["ingest", "--venues", str(vdir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "NYSE.csv" in err and "nyse.csv" in err and "differ only in case" in err
        assert not out.exists()

    def test_ingest_requires_one_source(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path / "x.prms")]) == 1
