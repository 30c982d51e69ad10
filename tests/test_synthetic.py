import numpy as np
import pytest

from pushresp.errors import InsufficientSupport, InvalidSpec
from pushresp.lags import compute_moments
from pushresp.surface import BinGrid
from pushresp.synthetic import (
    SyntheticSpec,
    echo_cancel_coefficient,
    expected_response_oracle,
    generate,
)

from conftest import traced_peak
from surface_oracle import session_pushes_responses


def sample_pair_correlation(series, lag):
    """Monte-Carlo push/response correlation over all admissible anchors."""
    ps, rs = [], []
    for s in series.sessions:
        p, r = session_pushes_responses(series.mids, s, lag)
        ps.append(p)
        rs.append(r)
    p = np.concatenate(ps)
    r = np.concatenate(rs)
    return float(np.corrcoef(p, r)[0, 1]), len(p)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(kind="chaos", n_events=100)

    def test_injected_needs_room_for_lag(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(kind="momentum", n_events=100, n_sessions=2,
                          inject_lag=50, phi=0.3)

    def test_phi_bounds(self):
        with pytest.raises(InvalidSpec):
            SyntheticSpec(kind="momentum", n_events=10**5, inject_lag=50, phi=1.0)

    def test_every_problem_listed(self):
        with pytest.raises(InvalidSpec) as err:
            SyntheticSpec(kind="chaos", n_events=1, seed=-1)
        assert any("seed must be >= 0" in p for p in err.value.problems)
        assert len(err.value.problems) >= 3


def test_oracle_without_anchors_is_insufficient_support():
    # a lag no session can hold is a data shortfall, not a bad spec
    s = generate(SyntheticSpec(kind="null_walk", n_events=100, seed=1))
    with pytest.raises(InsufficientSupport):
        expected_response_oracle(s, 60, BinGrid())


class TestDeterminism:
    def test_same_seed_identical_bytes(self):
        spec = SyntheticSpec(kind="null_walk", n_events=4, seed=99, increments="coin")
        a = generate(spec)
        b = generate(spec)
        assert a == b
        assert len(a) == 4

    def test_different_seeds_differ(self):
        a = generate(SyntheticSpec(kind="null_walk", n_events=1000, seed=1))
        b = generate(SyntheticSpec(kind="null_walk", n_events=1000, seed=2))
        assert not np.array_equal(a.mids, b.mids)

    def test_sessions_split_sizes(self):
        s = generate(SyntheticSpec(kind="null_walk", n_events=10007, n_sessions=4, seed=0))
        assert [len(x) for x in map(s.session_slice, s.sessions)] == [2501, 2501, 2501, 2504]
        assert len(s) == 10007

    def test_coin_increments_are_tick_sized(self):
        s = generate(SyntheticSpec(kind="null_walk", n_events=500, seed=3,
                                   increments="coin", tick=0.25))
        d = np.diff(s.mids)
        assert set(np.unique(d)) == {-0.25, 0.25}


class TestNullWalk:
    def test_increment_mean_and_autocorrelation(self):
        n = 200_000
        s = generate(SyntheticSpec(kind="null_walk", n_events=n, seed=11, tick=0.01))
        d = np.diff(s.mids)
        bound = 4.0 / np.sqrt(len(d))
        assert abs(d.mean() / d.std()) < bound
        for lag in (1, 5, 50, 500):
            x, y = d[:-lag], d[lag:]
            rho = np.corrcoef(x, y)[0, 1]
            assert abs(rho) < bound, f"autocorrelation at {lag}: {rho}"

    def test_oracle_bins_are_centered_on_zero(self):
        s = generate(SyntheticSpec(kind="null_walk", n_events=300_000,
                                   n_sessions=3, seed=21))
        orc = expected_response_oracle(s, 20, BinGrid())
        seen = orc.count >= 50
        assert seen.sum() > 50
        bounds = 4.0 / np.sqrt(orc.count[seen])
        frac_bad = float((np.abs(orc.mean_zr[seen]) > bounds).mean())
        assert frac_bad < 0.01


class TestInjected:
    def test_echo_cancel_coefficient(self):
        assert echo_cancel_coefficient(0.3) == pytest.approx(-0.3 / 2.3, rel=1e-15)
        assert echo_cancel_coefficient(-0.3) == pytest.approx(0.3 / 1.7, rel=1e-15)
        assert echo_cancel_coefficient(0.0) == 0.0

    def test_momentum_correlation_localized(self):
        spec = SyntheticSpec(kind="momentum", n_events=2_000_000, n_sessions=2,
                             inject_lag=50, phi=0.3, seed=5)
        s = generate(spec)
        corr50, n50 = sample_pair_correlation(s, 50)
        assert n50 > 1_000_000
        assert corr50 > 0.2  # analytic value ~ 0.236
        for far in (150, 200, 400):
            corr, n = sample_pair_correlation(s, far)
            # overlapping anchor windows inflate the null variance to ~(4/3) L/n
            assert abs(corr) < 5.0 * np.sqrt(far / n), f"lag {far}: {corr}"

    def test_reversal_flips_sign(self):
        spec = SyntheticSpec(kind="reversal", n_events=1_000_000, n_sessions=2,
                             inject_lag=50, phi=-0.3, seed=6)
        s = generate(spec)
        corr, _ = sample_pair_correlation(s, 50)
        assert corr < -0.2

    def test_zero_phi_behaves_like_null(self):
        spec = SyntheticSpec(kind="momentum", n_events=500_000, inject_lag=50,
                             phi=0.0, seed=8)
        s = generate(spec)
        corr, n = sample_pair_correlation(s, 50)
        assert abs(corr) < 5.0 * np.sqrt(50 / n)

    def test_momentum_oracle_slope_positive(self):
        spec = SyntheticSpec(kind="momentum", n_events=2_000_000, n_sessions=2,
                             inject_lag=50, phi=0.3, seed=9)
        s = generate(spec)
        orc = expected_response_oracle(s, 50, BinGrid())
        good = orc.count >= 200
        centers = BinGrid().centers()[good]
        means = orc.mean_zr[good]
        slope = np.polyfit(centers, means, 1)[0]
        assert slope > 0.15
        # responses co-signed with pushes in the wings
        assert means[centers >= 1.0].min() > 0
        assert means[centers <= -1.0].max() < 0

    def test_asymmetric_even_component_positive(self):
        spec = SyntheticSpec(kind="asymmetric", n_events=2_000_000, n_sessions=2,
                             inject_lag=50, phi=0.0, asym_gain=1.0, seed=10)
        s = generate(spec)
        orc = expected_response_oracle(s, 50, BinGrid())
        grid = BinGrid()
        centers = grid.centers()
        good = orc.count >= 200
        # S(|j|) = (mean_zr(+j) + mean_zr(-j)) / 2 > 0 for |center| >= 2
        for j in range(161, 321):
            k = j - 161
            mirror = 160 - k - 1
            if not (good[j - 1] and good[mirror]):
                continue
            if centers[j - 1] < 2.0:
                continue
            S = 0.5 * (orc.mean_zr[j - 1] + orc.mean_zr[mirror])
            assert S > 0, f"S at center {centers[j - 1]}: {S}"

    def test_injection_does_not_break_moments(self):
        spec = SyntheticSpec(kind="momentum", n_events=100_000, inject_lag=50,
                             phi=0.3, seed=12)
        s = generate(spec)
        m = compute_moments(s, 50)
        assert m.sigma_p > 0 and m.sigma_r > 0
        assert m.n_pairs == len(s) - 100

    def test_injection_locality_factor(self):
        # |rho_lag| and mean |A| at the injected lag dominate lags past
        # 3x the injection horizon by at least 5x (1e7 events, fixed seed)
        from pushresp.decomposition import BootstrapConfig, decompose, summarize
        from pushresp.lags import compute_moments_table
        from pushresp.surface import accumulate_surface

        spec = SyntheticSpec(kind="momentum", n_events=10_000_000, n_sessions=5,
                             inject_lag=50, phi=0.3, seed=428)
        s = generate(spec)
        lags = (50, 200, 500, 2000)
        rows = compute_moments_table(s, lags)
        surf = accumulate_surface(s, rows, BinGrid(), threads=2)
        pairs = decompose(surf)
        summ = {x.lag: x for x in
                summarize(pairs, BootstrapConfig(n_replicates=50, seed=1), surf.blocks)}
        mean_abs_a = {lag: float(np.mean(np.abs(pairs.A[pairs.lag == lag]))) for lag in lags}
        for far in (200, 500, 2000):
            assert abs(summ[50].rho) >= 5 * abs(summ[far].rho)
            assert mean_abs_a[50] >= 5 * mean_abs_a[far]


@pytest.mark.parametrize("kind", ["null_walk", "momentum"])
def test_generate_holds_one_series(kind):
    # each session is drawn into the output array; what else is allocated
    # lives for one session (here a twentieth of the series)
    spec = SyntheticSpec(kind=kind, n_events=2_000_000, n_sessions=20,
                         inject_lag=50, phi=0.3, seed=5)
    series, peak = traced_peak(lambda: generate(spec))
    assert len(series) == spec.n_events
    assert peak <= 1.2 * series.mids.nbytes
