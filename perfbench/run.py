"""pushresp benchmark: end-to-end runs of `pushresp pipeline`, timed from outside.

    python3 perfbench/run.py --workload {sweep,ingest,reanalyze} --seed N --seconds S --trace {0,1}

Run from the root of a checkout. The program is this checkout's `src/`,
started as `python -m pushresp.cli` in a child process, one child at a
time, with the numeric libraries held to one thread (the pipeline's own
thread count comes from the workload config). Each child is reaped with
`wait4`, which gives its CPU time and peak RSS.

`--trace 0` sets the workload up three times (reporting the median as
`setup_s`), then runs timed children for about `--seconds` seconds, at
least three, and reports the median wall time, CPU time and peak RSS.
`--trace 1` sets up once, runs the same timed children, then one child
with spans around the layer functions (see tracing.py) and the probes
of probe.py, and reports the per-layer metrics of layers.py.

Every timed child is checked: exit code 0, the expected ran/skipped
stages, and a workdir byte-identical to the first run of the same
config. The first run's outputs also get the workload's own check
(the surface oracle for `sweep`, the feed tallies for `ingest`). The
last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
SETUPS = 3
MIN_RUNS = 3
DEADLINE_S = 170.0  # every child is killed by then, so a run ends within 180 s

T0 = time.perf_counter()


@dataclass
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mib: float
    stdout: str
    stderr: str


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("PUSHRESP_THREADS", None)
    return env


def run_child(argv: list[str], cwd: Path) -> Child:
    """Spawn, wait with wait4 and measure one child; kill it at the deadline."""
    timeout = max(1.0, DEADLINE_S - (time.perf_counter() - T0))
    with open(cwd / ".child.out", "w+", encoding="utf-8") as out, \
            open(cwd / ".child.err", "w+", encoding="utf-8") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_env(), stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime,
                     usage.ru_maxrss / 1024.0, out.read(), err.read())


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "pushresp.cli", *args]


def hash_tree(root: Path) -> dict[str, str]:
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h = hashlib.sha256()
            with open(p, "rb") as f:
                for chunk in iter(lambda: f.read(1 << 20), b""):
                    h.update(chunk)
            out[str(p.relative_to(root))] = h.hexdigest()
    return out


class Bench:
    def __init__(self, workload, base: Path):
        self.wl = workload
        self.base = base
        self.dir: Path | None = None
        self.references: dict[int, dict[str, str]] = {}
        self.runs: list[Child] = []
        self.failed = 0
        self.problems: list[str] = []

    def set_up(self, times: int) -> list[float]:
        """Prepare the workload `times` times; keep the last directory."""
        took = []
        for j in range(times):
            d = self.base / f"setup{j}"
            t0 = time.perf_counter()
            self.wl.prepare(d, self.helper(d))
            steps = [cli("validate", "--config", workloads.CONFIG)]
            if self.wl.warm_argv:
                steps.append(cli(*self.wl.warm_argv))
            for argv in steps:
                child = run_child(argv, d)
                if child.code != 0:
                    raise SystemExit(f"set-up step {argv[3:]} exited {child.code}: {child.stderr[-2000:]}")
            took.append(time.perf_counter() - t0)
            if self.dir is not None:
                shutil.rmtree(self.dir)
            self.dir = d
        return took

    def check(self, i: int, child: Child) -> list[str]:
        problems = []
        if child.code != 0:
            problems.append(f"exit code {child.code}: {child.stderr[-500:]}")
        status = workloads.stage_status(child.stdout)
        if status != self.wl.expected_status():
            problems.append(f"stage status {status}")
        tree = hash_tree(self.dir / workloads.WORKDIR)
        ref = self.references.setdefault(self.wl.variant(i), tree)
        if tree != ref:
            differ = sorted(k for k in set(tree) | set(ref) if tree.get(k) != ref.get(k))
            problems.append(f"workdir differs from the first run of this config: {differ}")
        return problems

    def record(self, i: int, child: Child) -> None:
        problems = self.check(i, child)
        if problems:
            self.failed += 1
            self.problems += [f"run {i}: {p}" for p in problems]

    def timed_runs(self, seconds: float) -> None:
        t_start = time.perf_counter()
        while True:
            i = len(self.runs)
            child = run_child(cli(*self.wl.run_argv(i)), self.dir)
            self.runs.append(child)
            self.record(i, child)
            elapsed = time.perf_counter() - t_start
            expected = statistics.median(c.wall_s for c in self.runs)
            if len(self.runs) >= MIN_RUNS and elapsed + expected > seconds:
                break
        problems = self.wl.check_outputs(self.dir, self.helper(self.dir))
        if problems:
            # Every run reproduced the checked bytes, so every run is wrong.
            self.failed = len(self.runs)
            self.problems += problems

    def traced_run(self) -> dict[str, float]:
        """One child with spans, plus the probes; its checks count as one run."""
        i = len(self.runs)
        spans_path = self.dir / "spans.json"
        child = run_child([sys.executable, str(HERE / "tracing.py"), str(spans_path), "--",
                           *self.wl.run_argv(i)], self.dir)
        problems = self.check(i, child)
        spans = json.loads(spans_path.read_text(encoding="utf-8")) if spans_path.exists() else []
        problems += layers.check_self_times(spans)
        wd = self.dir / workloads.WORKDIR
        status = workloads.stage_status(child.stdout)
        startup = [run_child(cli("validate", "--config", workloads.CONFIG), self.dir).wall_s for _ in range(3)]
        with open(wd / "surface.csv", encoding="utf-8") as f:
            surface_rows = sum(1 for _ in f) - 1  # minus the header
        extra = {
            "surface.speedup_2t": 0.0,
            "series.read_prms.rss_hwm_mb": 0.0,
            "surface.rows": surface_rows,
            "pipeline.stages_ran": sum(v == "ran" for v in status.values()),
            "pipeline.stages_skipped": sum(v == "skipped" for v in status.values()),
            "cli.startup_s": statistics.median(startup),
            "trace.overhead_ratio": child.wall_s / statistics.median(c.wall_s for c in self.runs) - 1.0,
        }
        if any(s["name"] == "series.read_prms" for s in spans):
            extra["series.read_prms.rss_hwm_mb"] = self.probe(self.dir, "read_prms", str(wd / "mids.prms"))[1].rss_mib
        if any(s["name"] == "surface.accumulate_surface" for s in spans):
            lags = json.loads((self.dir / workloads.CONFIG).read_text(encoding="utf-8"))["lags"]
            selector = lags if isinstance(lags, str) else ",".join(map(str, lags))
            result, _ = self.probe(self.dir, "speedup", str(wd / "clean.prms"), selector, "2")
            if not result["equal"]:
                problems.append("surfaces at 1 and 2 threads differ")
            extra["surface.speedup_2t"] = result["speedup_2t"]
        if problems:
            self.failed += 1
            self.problems += [f"traced run: {p}" for p in problems]
        return layers.layer_metrics(spans, extra)

    def probe(self, cwd: Path, *args: str):
        """Run one probe.py command in `cwd`; return its JSON result and the child."""
        child = run_child([sys.executable, str(HERE / "probe.py"), *args], cwd)
        if child.code != 0:
            raise SystemExit(f"probe {args[0]} exited {child.code}: {child.stderr[-2000:]}")
        return json.loads(child.stdout.strip().splitlines()[-1]), child

    def helper(self, cwd: Path):
        return lambda *args: self.probe(cwd, *args)[0]


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _summary(name: str, values: list[float]) -> str:
    return (f"{name}: median {statistics.median(values):.4f} over n={len(values)}: "
            + " ".join(f"{v:.4f}" for v in values))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "pushresp" / "cli.py").is_file():
        print(f"error: no pushresp sources under {SRC}", file=sys.stderr)
        return 2

    base = WORK / args.workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    bench = Bench(workloads.WORKLOADS[args.workload](args.seed), base)
    setups = bench.set_up(1 if args.trace else SETUPS)
    bench.timed_runs(args.seconds)
    if args.trace:
        values = bench.traced_run()
        metrics = {k: {"value": v, "unit": layers.PER_LAYER[k][0]} for k, v in values.items()}
    else:
        series = {
            "wall_s": ([c.wall_s for c in bench.runs], "s"),
            "cpu_s": ([c.cpu_s for c in bench.runs], "s"),
            "peak_rss_mb": ([c.rss_mib for c in bench.runs], "MiB"),
            "setup_s": (setups, "s"),
        }
        for name, (values, _) in series.items():
            log(_summary(name, values))
        metrics = {k: {"value": statistics.median(v), "unit": u} for k, (v, u) in series.items()}
    for p in bench.problems:
        log(f"FAILED {p}")
    attempted = len(bench.runs) + args.trace
    print(json.dumps({"correct": bench.failed == 0 and not bench.problems, "attempted": attempted,
                      "failed": bench.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
