import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushresp.cleaning import (
    CleaningConfig,
    clean,
    empirical_quantile,
    remove_jumps,
    winsorize_returns,
)
from pushresp.errors import EmptyInput, ValidationFailed
from pushresp.series import MidSeries
from pushresp.synthetic import SyntheticSpec, generate

import cleaning_oracle
from cleaning_oracle import pooled_increments
from conftest import make_series, traced_peak


def sort_quantile_oracle(values, p):
    """Independent nearest-rank oracle: full sort, index ceil(p*n)."""
    s = np.sort(np.asarray(values))
    k = min(max(math.ceil(p * len(s)), 1), len(s))
    return float(s[k - 1])


class TestEmpiricalQuantile:
    def test_singleton(self):
        assert empirical_quantile(np.array([5.0]), 0.3) == 5.0
        assert empirical_quantile(np.array([5.0]), 0.9999) == 5.0

    def test_nearest_rank_small(self):
        # k = ceil(0.5 * 4) = 2 -> second smallest
        assert empirical_quantile(np.array([1.0, 2.0, 3.0, 4.0]), 0.5) == 2.0

    def test_empty_raises(self):
        with pytest.raises(EmptyInput):
            empirical_quantile(np.array([]), 0.5)

    def test_matches_sort_oracle_on_normals(self, rng):
        x = rng.standard_normal(10**6)
        for p in (0.00001, 0.25, 0.5, 0.99999):
            assert empirical_quantile(x, p) == sort_quantile_oracle(x, p)

    @given(
        st.lists(st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=300),
        st.floats(0.001, 0.999),
    )
    def test_matches_sort_oracle_property(self, values, p):
        x = np.array(values)
        assert empirical_quantile(x, p) == sort_quantile_oracle(x, p)


class TestWinsorize:
    def test_untouched_series_is_bit_identical(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(500) * 0.01)
        series = make_series([mids[:250], mids[250:]])
        out, rep = winsorize_returns(series, CleaningConfig(), bounds=(-1.0, 1.0))
        assert np.array_equal(out.mids, series.mids)
        assert rep.n_winsorized_low == 0 and rep.n_winsorized_high == 0

    def test_single_clamp_shifts_session_tail(self):
        # one +9.99 increment clamped to 0.02 shifts everything after down by 9.97
        series = make_series([[100.00, 100.01, 110.00, 110.01]])
        out, rep = winsorize_returns(series, CleaningConfig(), bounds=(-0.02, 0.02))
        assert rep.n_winsorized_high == 1
        assert out.mids[0] == 100.00
        assert out.mids[1] == 100.01
        assert out.mids[2] == pytest.approx(100.03, abs=1e-9)
        assert out.mids[3] == pytest.approx(100.04, abs=1e-9)
        assert out.mids[2] == pytest.approx(110.00 - 9.97, abs=1e-9)

    def test_planted_spikes_exactly_clamped(self, rng):
        # oracle: direct per-increment quantile comparison
        n = 20000
        incr = rng.standard_normal(n) * 0.01
        spikes = [1234, 5678, 15000]
        incr[spikes] = 0.1 * np.sign(incr[spikes] + 0.5)  # ~10 sigma
        mids = 100 + np.cumsum(incr)
        series = make_series([mids])
        cfg = CleaningConfig(lower_q=0.0001, upper_q=0.9999)
        out, rep = winsorize_returns(series, cfg)
        r = pooled_increments(series)
        expect_low = int((r < rep.q_low).sum())
        expect_high = int((r > rep.q_high).sum())
        assert rep.n_winsorized_low == expect_low
        assert rep.n_winsorized_high == expect_high
        # the planted positions are among the clamped ones
        new_r = pooled_increments(out)
        for pos in spikes:
            assert new_r[pos - 1] == pytest.approx(
                rep.q_high if incr[pos] > 0 else rep.q_low, abs=1e-12
            )

    def test_clamp_bound_property(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(5000) * 0.01)
        series = make_series([mids[:2500], mids[2500:]])
        cfg = CleaningConfig(lower_q=0.01, upper_q=0.99)
        out, rep = winsorize_returns(series, cfg)
        new_r = pooled_increments(out)
        assert np.all(new_r >= rep.q_low - 1e-12)
        assert np.all(new_r <= rep.q_high + 1e-12)

    def test_idempotent_with_same_bounds_on_dyadic_grid(self, rng):
        # dyadic tick keeps all arithmetic exact, so the second pass is a no-op
        ticks = rng.integers(-40, 41, size=400).astype(np.float64)
        mids = 128.0 + np.cumsum(ticks * 0.25)
        series = make_series([mids[:200], mids[200:]])
        cfg = CleaningConfig(lower_q=0.05, upper_q=0.95)
        once, rep = winsorize_returns(series, cfg)
        assert rep.n_winsorized_low + rep.n_winsorized_high > 0
        twice, rep2 = winsorize_returns(once, cfg, bounds=(rep.q_low, rep.q_high))
        assert np.array_equal(once.mids, twice.mids)

    @given(st.lists(st.integers(-30, 30), min_size=3, max_size=120), st.data())
    @settings(max_examples=60, deadline=None)
    def test_idempotence_property_dyadic(self, steps, data):
        mids = 64.0 + np.cumsum(np.array([0] + steps, dtype=np.float64) * 0.25)
        series = make_series([mids])
        cfg = CleaningConfig(lower_q=0.1, upper_q=0.9)
        once, rep = winsorize_returns(series, cfg)
        if rep.degenerate:
            assert np.array_equal(once.mids, series.mids)
            return
        twice, _ = winsorize_returns(once, cfg, bounds=(rep.q_low, rep.q_high))
        assert np.array_equal(once.mids, twice.mids)

    def test_degenerate_distribution_passes_through(self):
        series = make_series([[10.0, 10.5, 11.0, 11.5]])
        out, rep = winsorize_returns(series, CleaningConfig())
        assert rep.degenerate
        assert np.array_equal(out.mids, series.mids)

    def test_quantiles_pooled_across_sessions(self, rng):
        # one calm and one wild session: pooled quantiles clamp only the wild one
        calm = 100 + np.cumsum(rng.standard_normal(1000) * 0.001)
        wild = 100 + np.cumsum(rng.standard_normal(1000) * 0.1)
        series = make_series([calm, wild])
        cfg = CleaningConfig(lower_q=0.05, upper_q=0.95)
        out, rep = winsorize_returns(series, cfg)
        q_lo = sort_quantile_oracle(pooled_increments(series), 0.05)
        q_hi = sort_quantile_oracle(pooled_increments(series), 0.95)
        assert rep.q_low == q_lo and rep.q_high == q_hi
        calm_out = out.mids[:1000]
        assert np.array_equal(calm_out, series.mids[:1000])


def jump_oracle(blocks, threshold):
    """Mark-then-compact reference: pure python, original neighbor structure."""
    out = []
    removed = 0
    for block in blocks:
        dead = set()
        for i in range(1, len(block)):
            if abs(block[i] - block[i - 1]) > threshold:
                dead.add(i - 1)
                dead.add(i)
        kept = [v for i, v in enumerate(block) if i not in dead]
        removed += len(dead)
        if kept:
            out.append(kept)
    return out, removed


class TestRemoveJumps:
    def test_single_jump_removes_both(self):
        blocks = [[100.0, 100.1, 100.2, 100.3, 100.4, 100.5, 100.6, 100.7, 102.7, 102.8]]
        # delta of 2.0 between positions 7 and 8
        series = make_series([blocks[0]])
        out, rep = remove_jumps(series, CleaningConfig())
        assert rep.n_jump_events_removed == 2
        assert list(out.mids) == blocks[0][:7] + [102.8]

    def test_threshold_is_strict(self):
        series = make_series([[100.0, 101.5, 103.0]])  # deltas exactly 1.5
        out, rep = remove_jumps(series, CleaningConfig())
        assert rep.n_jump_events_removed == 0
        assert np.array_equal(out.mids, series.mids)

    def test_chained_jumps_remove_all_three(self):
        mids = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 2.6, 0.6, 0.7]
        # deltas (6,7) = 2.0 and (7,8) = -2.0 -> events 6, 7, 8 all removed
        series = make_series([mids])
        out, rep = remove_jumps(series, CleaningConfig())
        assert rep.n_jump_events_removed == 3
        assert list(out.mids) == [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.7]

    def test_single_pass_no_refilter_of_new_adjacency(self):
        series = make_series([[0.0, 0.1, 10.0, 1.9, 2.0]])
        out, rep = remove_jumps(series, CleaningConfig())
        # events 1,2,3 drop; the new [0.0, 2.0] adjacency stays
        assert list(out.mids) == [0.0, 2.0]
        assert rep.n_jump_events_removed == 3

    def test_count_accounting(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(3000))
        series = make_series([mids[:1500], mids[1500:]])
        out, rep = remove_jumps(series, CleaningConfig())
        assert rep.n_input == len(series)
        assert rep.n_input == rep.n_output + rep.n_jump_events_removed

    @given(
        st.lists(
            st.lists(st.floats(-3, 3, allow_nan=False), min_size=1, max_size=40),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_mark_then_compact_oracle(self, blocks):
        series = make_series([np.cumsum(b) for b in blocks])
        want_blocks, want_removed = jump_oracle(
            [list(np.cumsum(b)) for b in blocks], 1.5
        )
        out, rep = remove_jumps(series, CleaningConfig())
        got_blocks = [list(out.session_slice(s)) for s in out.sessions]
        assert got_blocks == want_blocks
        assert rep.n_jump_events_removed == want_removed

    def test_session_emptied_by_filter_is_dropped(self):
        series = make_series([[0.0, 5.0], [1.0, 1.1]])
        out, rep = remove_jumps(series, CleaningConfig())
        assert len(out.sessions) == 1
        assert rep.n_sessions_dropped == 1


def test_clean_runs_winsorize_then_jump_filter(rng):
    incr = rng.standard_normal(4000) * 0.01
    incr[100] = 5.0   # clamped by winsorization, never seen by jump filter
    mids = 100 + np.cumsum(incr)
    series = make_series([mids])
    out, rep = clean(series, CleaningConfig(lower_q=0.001, upper_q=0.999))
    assert rep.n_winsorized_high >= 1
    assert rep.n_jump_events_removed == 0
    assert rep.n_input == len(series)
    assert rep.retention_ratio == 1.0


@pytest.mark.parametrize("jumps", [False, True])
def test_clean_allocates_one_series_beyond_its_input(jumps):
    # the pooled increments are freed before the winsorized copy, and jumps
    # compact that copy in place; per-session scratch is a twentieth here
    series = generate(SyntheticSpec(kind="momentum", n_events=2_000_000, n_sessions=20,
                                    inject_lag=50, phi=0.3, seed=5))
    if jumps:
        series.mids[::100_000] += 5.0
    (out, rep), peak = traced_peak(lambda: clean(series, CleaningConfig()))
    assert rep.n_winsorized_low and rep.n_winsorized_high
    assert (rep.n_jump_events_removed > 0) == jumps
    assert peak <= 1.2 * series.mids.nbytes


def test_cleaning_config_validation():
    with pytest.raises(ValidationFailed):
        CleaningConfig(lower_q=0.5, upper_q=0.5)
    with pytest.raises(ValidationFailed):
        CleaningConfig(jump_threshold=0.0)
    with pytest.raises(ValidationFailed) as err:  # every problem, not the first
        CleaningConfig(lower_q=0.5, upper_q=0.5, jump_threshold=0.0)
    assert len(err.value.problems) == 2


# Mids either walk by steps that include jumps (|2.0|, |3.0| > 1.5), a step
# of exactly the 1.5 threshold, and zero or repeated steps, or are drawn from
# a few values that include both zeros, so increments of -0.0 and one-value
# (degenerate) sessions occur.
_STEPS = st.sampled_from([0.0, 0.01, -0.01, 0.02, 0.25, 1.5, 2.0, -3.0])
_VALUES = st.sampled_from([0.0, -0.0, 0.01, 100.0, 100.01, 101.75, 104.0])


@st.composite
def _session(draw):
    n = draw(st.integers(1, 30))
    if draw(st.booleans()):
        steps = draw(st.lists(_STEPS, min_size=n - 1, max_size=n - 1))
        return np.cumsum([draw(_VALUES)] + steps)
    return np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))


_CONFIGS = st.builds(
    CleaningConfig,
    lower_q=st.sampled_from([0.00001, 0.05, 0.3]),
    upper_q=st.sampled_from([0.99999, 0.9, 0.7]),
    jump_threshold=st.sampled_from([1.5, 0.015, 0.3]),
)
_BOUNDS = st.none() | st.tuples(*[st.sampled_from([-2.0, -0.01, 0.0, -0.0, 0.01, 1.0])] * 2)


class TestCleaningOracle:
    """The lean passes against the dense per-session reference passes:
    same mid bits, sessions and report, and the input left as it was."""

    @staticmethod
    def _assert_same(got, want):
        (g, g_rep), (w, w_rep) = got, want
        assert g.sessions == w.sessions
        assert g.mids.tobytes() == w.mids.tobytes()  # -0.0 and 0.0 differ here
        # == on the report: when the quantile rank falls on tied zeros, the
        # one two-rank partition may pick -0.0 where the reference picked 0.0;
        # every clamp, and so every mid, is the same either way
        assert g_rep == w_rep

    @given(st.lists(_session(), min_size=1, max_size=4), _CONFIGS, _BOUNDS)
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_passes(self, blocks, cfg, bounds):
        series = make_series(blocks)
        before = MidSeries(sessions=list(series.sessions), mids=series.mids.copy())
        self._assert_same(winsorize_returns(series, cfg, bounds=bounds),
                          cleaning_oracle.winsorize_returns(series, cfg, bounds=bounds))
        self._assert_same(remove_jumps(series, cfg), cleaning_oracle.remove_jumps(series, cfg))
        self._assert_same(clean(series, cfg), cleaning_oracle.clean(series, cfg))
        assert series.sessions == before.sessions
        assert series.mids.tobytes() == before.mids.tobytes()
