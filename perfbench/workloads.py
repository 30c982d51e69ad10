"""The three benchmark workloads: their inputs, configs and output checks.

Each workload prepares a directory holding `config.json` (and any input
files), names the CLI arguments of each timed run, and says which
stages the run must report as `ran` or `skipped`. Every seed the
program sees is derived from the benchmark's workload seed. Work that
needs numpy or the program runs through `helper`, in a child process
(see probe.py).
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

FIGURE_KINDS = ("surface_top", "surface_side", "dominance_heatmap", "magnitude_curve", "rho_curve")
CONFIG = "config.json"
WORKDIR = "wd"
PIPELINE = ["pipeline", "--config", CONFIG]


def derive_seed(seed: int, label: str) -> int:
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "little") % (1 << 31)


def _write_config(directory: Path, cfg: dict) -> None:
    directory.mkdir(parents=True, exist_ok=True)
    (directory / CONFIG).write_text(json.dumps(cfg, indent=1) + "\n", encoding="utf-8")


def _figures(kinds) -> list[dict]:
    return [{"kind": k, "out": f"{k}.svg"} for k in kinds]


class Workload:
    """One set of inputs. `prepare` builds them; `warm_argv`, when set, is a
    program run that belongs to set-up (it builds the starting state).
    By default every timed run reruns the whole pipeline with `--force`."""

    name = ""
    warm_argv: list[str] | None = None

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, directory: Path, helper) -> None:
        raise NotImplementedError

    def run_argv(self, i: int) -> list[str]:
        """CLI arguments of the i-th timed run."""
        return PIPELINE + ["--force"]

    def variant(self, i: int) -> int:
        """Runs with the same variant must leave byte-identical workdirs."""
        return 0

    def expected_status(self) -> dict[str, str]:
        return {s: "ran" for s in ("source", "clean", "surface", "decompose", "render:rho_curve")}

    def check_outputs(self, directory: Path, helper) -> list[str]:
        """Untimed checks on the first run's outputs; returns problems."""
        return []


class Sweep(Workload):
    """The kernel workload: moments and the per-lag surface sweep dominate."""

    name = "sweep"
    N_EVENTS = 3_000_000
    LAGS = sorted(set(range(100, 5501, 300)) | {500})
    ORACLE_LAGS = (500, 5500)

    def prepare(self, directory: Path, helper) -> None:
        _write_config(directory, {
            "workdir": WORKDIR,
            "synth": {"kind": "momentum", "n_events": self.N_EVENTS, "n_sessions": 20,
                      "inject_lag": 500, "phi": 0.3, "seed": derive_seed(self.seed, "synth")},
            "lags": self.LAGS,
            "bootstrap": {"n_replicates": 1000, "seed": derive_seed(self.seed, "bootstrap")},
            "threads": 1,
            "figures": _figures(["rho_curve"]),
        })

    def check_outputs(self, directory: Path, helper) -> list[str]:
        return helper("oracle", WORKDIR, ",".join(map(str, self.ORACLE_LAGS)))


class Ingest(Workload):
    """The per-object Python path: quote parsing, RTH filter, NBBO merge."""

    name = "ingest"
    N_QUOTES = 240_000

    def prepare(self, directory: Path, helper) -> None:
        directory.mkdir(parents=True, exist_ok=True)
        self.tally = helper("feed", "quotes", str(derive_seed(self.seed, "feed")), str(self.N_QUOTES))
        _write_config(directory, {
            "workdir": WORKDIR,
            "ingest": {"venues_dir": "quotes", "strict": True},
            "lags": "1,10,50,100,200",
            "bootstrap": {"n_replicates": 1000, "seed": derive_seed(self.seed, "bootstrap")},
            "threads": 2,
            "figures": _figures(["rho_curve"]),
        })

    def check_outputs(self, directory: Path, helper) -> list[str]:
        return check_quality_report(directory / WORKDIR, self.tally)


class Reanalyze(Workload):
    """A warm workdir re-decomposed under a new bootstrap seed: surface-CSV
    read, decompose with bootstrap, CSV writes and five SVG renders."""

    name = "reanalyze"
    N_EVENTS = 1_000_000
    warm_argv = PIPELINE

    def prepare(self, directory: Path, helper) -> None:
        self.boot_seeds = (derive_seed(self.seed, "bootstrap-a"), derive_seed(self.seed, "bootstrap-b"))
        _write_config(directory, {
            "workdir": WORKDIR,
            "synth": {"kind": "momentum", "n_events": self.N_EVENTS, "n_sessions": 4,
                      "inject_lag": 500, "phi": 0.3, "seed": derive_seed(self.seed, "synth")},
            "lags": "short",
            "bootstrap": {"n_replicates": 1000, "seed": derive_seed(self.seed, "bootstrap-warm")},
            "threads": 2,
            "figures": _figures(FIGURE_KINDS),
        })

    def run_argv(self, i: int) -> list[str]:
        return PIPELINE + ["--set", f"bootstrap.seed={self.boot_seeds[self.variant(i)]}"]

    def variant(self, i: int) -> int:
        return i % 2

    def expected_status(self) -> dict[str, str]:
        status = {s: "skipped" for s in ("source", "clean", "surface")}
        status["decompose"] = "ran"
        status.update({f"render:{k}": "ran" for k in FIGURE_KINDS})
        return status


WORKLOADS = {w.name: w for w in (Sweep, Ingest, Reanalyze)}


def check_quality_report(workdir: Path, tally: dict) -> list[str]:
    """The ingest quality report must match the generator's exact tallies,
    every session date must survive, and the book must be usable."""
    manifest = json.loads((workdir / "mids.prms.manifest.json").read_text(encoding="utf-8"))
    q = manifest["quality"]
    want = {
        "n_records": tally["n_records"],
        "n_malformed_skipped": 0,
        "n_dropped_condition": tally["n_dropped_condition"],
        "n_dropped_outside_rth": tally["n_dropped_outside_rth"],
        "empty_session_dates": [],
    }
    problems = [f"quality {k} = {q[k]}, generator wrote {v}" for k, v in want.items() if q[k] != v]
    days = [s["date"] for s in manifest["sessions"]]
    if days != tally["session_days"]:
        problems.append(f"sessions {days} != generated dates {tally['session_days']}")
    eligible = tally["n_records"] - tally["n_dropped_condition"] - tally["n_dropped_outside_rth"]
    if q["n_crossed_dropped"] > 0.01 * eligible:
        problems.append(f"{q['n_crossed_dropped']} of {eligible} eligible quotes left the book crossed")
    return problems


def stage_status(stdout: str) -> dict[str, str]:
    """Parse the `pushresp pipeline` status table: stage, status, outputs."""
    out = {}
    for line in stdout.splitlines():
        parts = line.split()
        if len(parts) >= 2 and parts[1] in ("ran", "skipped"):
            out[parts[0]] = parts[1]
    return out

