#!/usr/bin/env python3
"""Injected-structure experiment: recover a planted lag-local signal.

Plants momentum (or reversal / sign-asymmetric response) at one lag,
runs the pipeline across a lag bracket around it, and prints where the
dominance statistic detects the injection. The asymmetric kind should
show a positive even component S in the wings instead of a sign effect.

Usage:
  python scripts/run_injection_experiment.py --kind momentum --phi 0.3
  python scripts/run_injection_experiment.py --kind asymmetric --asym-gain 1.0
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from pushresp.decomposition import read_heatmap_csv, read_summary_csv
from pushresp.figures import FigureSpec
from pushresp.pipeline import PipelineConfig, run_pipeline
from pushresp.synthetic import SyntheticSpec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--kind", default="momentum",
                    choices=["momentum", "reversal", "asymmetric"])
    ap.add_argument("--events", type=int, default=2_000_000)
    ap.add_argument("--sessions", type=int, default=4)
    ap.add_argument("--inject-lag", type=int, default=50)
    ap.add_argument("--phi", type=float, default=0.3)
    ap.add_argument("--asym-gain", type=float, default=0.0)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    l0 = args.inject_lag
    phi = args.phi
    if args.kind == "reversal" and phi > 0:
        phi = -phi
    if args.kind == "asymmetric" and args.asym_gain == 0.0:
        args.asym_gain = 1.0

    out = args.out or f"runs/{args.kind}"
    lag_bracket = sorted({1, l0 // 2, l0, 2 * l0, 4 * l0, 10 * l0, 40 * l0})
    cfg = PipelineConfig(
        synth=SyntheticSpec(kind=args.kind, n_events=args.events,
                            n_sessions=args.sessions, inject_lag=l0,
                            phi=phi, asym_gain=args.asym_gain, seed=args.seed),
        lags=",".join(str(x) for x in lag_bracket),
        workdir=out,
        threads=2,
        figures=[
            FigureSpec(kind="surface_side", out="surface_side.svg"),
            FigureSpec(kind="dominance_heatmap", out="heatmap.svg"),
            FigureSpec(kind="rho_curve", out="rho.svg"),
            FigureSpec(kind="magnitude_curve", out="magnitude.svg"),
        ],
    )
    for status in run_pipeline(cfg):
        print(f"{status.stage:<20} {status.status}")

    print(f"\ninjected at lag {l0} (phi={phi}, asym_gain={args.asym_gain})")
    print(f"{'lag':>8} {'rho':>8} {'band':>20} {'M':>8}  detected?")
    for s in read_summary_csv(cfg.path("summary")):
        excl = s.ci_low > 0.0 or s.ci_high < 0.0
        band = f"[{s.ci_low:+.3f},{s.ci_high:+.3f}]"
        mark = "<-- signal" if excl and s.lag == l0 else ("!" if excl else "")
        print(f"{s.lag:>8} {s.rho:>8.3f} {band:>20} {s.M:>8.4f}  {mark}")

    if args.kind == "asymmetric":
        pairs = read_heatmap_csv(cfg.path("heatmap"))
        wings = (pairs.lag == l0) & (pairs.abs_center >= 2.0)
        if wings.any():
            s_min = pairs.S[wings].min()
            print(f"\neven component in the wings (|center|>=2) at lag {l0}: "
                  f"min S = {s_min:+.4f} over {wings.sum()} pairs "
                  f"({'positive as expected' if s_min > 0 else 'NOT positive'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
