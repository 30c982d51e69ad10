import hashlib
import json
import re
from pathlib import Path

import pytest

from pushresp.cli import main
from pushresp.decomposition import write_summary_csv
from pushresp.errors import StageFailure, ValidationFailed
from pushresp.pipeline import (
    apply_override,
    config_from_dict,
    run_pipeline,
    validate_config_dict,
)
from pushresp.series import canonical_json, read_manifest, write_manifest, write_prms

from conftest import make_series


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

    def test_duplicate_paths_rejected(self, tmp_path):
        cfg = base_config(tmp_path)
        cfg["paths"] = {"surface": "same.csv", "heatmap": "same.csv"}
        assert any("same.csv" in p for p in validate_config_dict(cfg))
        # the block artifact sits beside the surface CSV under the same stem
        cfg["paths"] = {"surface": "s.csv", "heatmap": "s.blocks"}
        assert any("s.blocks" in p for p in validate_config_dict(cfg))


class TestConfigFaults:
    @pytest.mark.parametrize("section, value, word", [
        ("grid", {"stepp": 0.05}, "stepp"),
        ("figures", [{"kind": "rho_curve"}], "'out'"),
        ("ingest", {"tz": "America/New_York"}, "venues_dir"),
        ("grid", {"step": "0.05"}, "'str'"),
        ("grid", {"z_min": -2.0, "z_max": 4.0, "step": 0.025}, "symmetric about 0"),
        ("ingest", {"venues_dir": "quotes", "tz": "Mars/Olympus"}, "tz: unknown time zone"),
    ], ids=["grid_key", "figure_out", "ingest_input", "grid_step_type", "grid_asymmetric",
            "ingest_tz"])
    def test_validate_and_pipeline_exit_1(self, tmp_path, capsys, section, value, word):
        workdir = tmp_path / "wd"
        raw = base_config(workdir)
        if section == "ingest":
            del raw["synth"]  # so the ingest section is the one source
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

    def test_rerun_skips_everything(self, tmp_path):
        cfg = config_from_dict(base_config(tmp_path))
        run_pipeline(cfg)
        statuses = run_pipeline(cfg)
        assert {s.status for s in statuses} == {"skipped"}

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
        assert f"{surface}: line 4: mean_zr 'abc' is not a number" in capsys.readouterr().err

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
            "--seed", "42", "--local-index", "eq319",
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
        code = main([
            "synth", "--kind", "momentum", "--n", "50", "--lag", "50",
            "--phi", "0.3", "--out", str(tmp_path / "x.prms"),
        ])
        assert code == 2

    def test_threads_env_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("PUSHRESP_THREADS", "2")
        mids = tmp_path / "m.prms"
        assert main(["synth", "--kind", "null_walk", "--n", "5000",
                     "--seed", "1", "--out", str(mids)]) == 0
        assert main(["surface", "--in", str(mids), "--lags", "1,5",
                     "--nmin", "20", "--out", str(tmp_path / "s.csv")]) == 0

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

    def test_ingest_requires_one_source(self, tmp_path):
        assert main(["ingest", "--out", str(tmp_path / "x.prms")]) == 1
