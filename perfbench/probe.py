"""Benchmark work that runs in a child process of its own.

    python perfbench/probe.py feed OUT_DIR SEED N_QUOTES
        Write the quote feed (feed.py); print its tallies.
    python perfbench/probe.py oracle WORKDIR LAGS
        Check surface.csv against the brute-force oracle on clean.prms;
        print the problems found.
    python perfbench/probe.py read_prms PRMS
        Read one PRMS file; the parent takes the child's peak RSS.
    python perfbench/probe.py speedup PRMS LAGS MIN_SECONDS
        Time `accumulate_surface` on the same inputs at 1 and 2 threads,
        at least twice each, and check that the surfaces are equal.

Results are printed as one JSON line. The benchmark's parent process
stays small because Linux starts a child's `ru_maxrss` from the
parent's peak RSS.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import sys
import time
from pathlib import Path


def _close(got: float, want: float) -> bool:
    # The relative error of the acceptance suite's criterion 2.
    return abs(got - want) <= 1e-10 * max(abs(want), 1e-10)


def oracle(workdir: Path, lags: list[int]) -> list[str]:
    """Exact counts and means within 1e-10 relative of the oracle."""
    from pushresp.series import read_prms
    from pushresp.surface import BinGrid
    from pushresp.synthetic import expected_response_oracle

    manifest = json.loads((workdir / "surface.csv.manifest.json").read_text(encoding="utf-8"))
    g = manifest["grid"]
    grid = BinGrid(z_min=g["z_min"], z_max=g["z_max"], step=g["step"], n_min_support=g["n_min_support"])
    series = read_prms(workdir / "clean.prms")
    with open(workdir / "surface.csv", newline="", encoding="utf-8") as f:
        rows = list(csv.DictReader(f))
    problems = []
    for lag in lags:
        want = expected_response_oracle(series, lag, grid)
        got = {int(r["bin"]): r for r in rows if int(r["lag"]) == lag}
        bins = {j + 1 for j in range(grid.n_bins) if want.count[j] > 0}
        if set(got) != bins:
            problems.append(f"lag {lag}: surface.csv has {len(got)} bins, the oracle {len(bins)}")
            continue
        if manifest["out_of_grid"][str(lag)] != want.out_of_grid:
            problems.append(f"lag {lag}: out-of-grid count differs from the oracle")
        for j, r in sorted(got.items()):
            if int(r["count"]) != int(want.count[j - 1]):
                problems.append(f"lag {lag} bin {j}: count {r['count']}, oracle {want.count[j - 1]}")
                break
            means = (("mean_zp", want.mean_zp), ("mean_zr", want.mean_zr), ("mean_r_raw", want.mean_r_raw))
            bad = [k for k, ref in means if not _close(float(r[k]), float(ref[j - 1]))]
            if bad:
                problems.append(f"lag {lag} bin {j}: {bad[0]} is off the oracle by more than 1e-10")
                break
    return problems


def speedup(prms: str, lag_selector: str, min_seconds: float) -> dict:
    from pushresp.lags import compute_moments_table, parse_lag_selector
    from pushresp.series import read_prms
    from pushresp.surface import BinGrid, accumulate_surface

    series = read_prms(prms)
    rows = compute_moments_table(series, parse_lag_selector(lag_selector))
    grid = BinGrid()
    seconds = {1: [], 2: []}
    surfaces = {}
    t_start = time.perf_counter()
    # Alternate which thread count goes first, so warm-up favours neither.
    while len(seconds[1]) < 2 or time.perf_counter() - t_start < min_seconds:
        for threads in (1, 2) if len(seconds[1]) % 2 == 0 else (2, 1):
            t0 = time.perf_counter()
            surfaces[threads] = accumulate_surface(series, rows, grid, threads=threads)
            seconds[threads].append(time.perf_counter() - t0)
        if surfaces[1] != surfaces[2]:
            return {"speedup_2t": 0.0, "equal": False}
    return {"speedup_2t": sum(seconds[1]) / sum(seconds[2]), "equal": True}


def main(argv: list[str]) -> int:
    cmd, args = (argv[0], argv[1:]) if argv else ("", [])
    if cmd == "feed" and len(args) == 3:
        import feed

        result = dataclasses.asdict(feed.write_feed(Path(args[0]), int(args[1]), int(args[2])))
    elif cmd == "oracle" and len(args) == 2:
        result = oracle(Path(args[0]), [int(x) for x in args[1].split(",")])
    elif cmd == "read_prms" and len(args) == 1:
        from pushresp.series import read_prms

        result = len(read_prms(args[0]))
    elif cmd == "speedup" and len(args) == 3:
        result = speedup(args[0], args[1], float(args[2]))
    else:
        print(__doc__, file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
