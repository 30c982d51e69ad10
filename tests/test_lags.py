import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pushresp.errors import ArtifactIOError, InsufficientSupport, InvalidGrid, ZeroVariance
from pushresp.lags import (
    DEFAULT_LONG_LAGS,
    DEFAULT_SHORT_LAGS,
    anchor_count,
    compute_moments,
    compute_moments_table,
    parse_lag_selector,
    read_moments_csv,
    session_pushes_responses,
    validate_lags,
    write_moments_csv,
)
from pushresp.series import Session

from conftest import make_series


def naive_moments(series, lag):
    """Two-pass oracle: enumerate pairs with plain loops, then mean/std."""
    pushes, responses = [], []
    for s in series.sessions:
        for t in range(s.start + lag, s.end - lag + 1):
            pushes.append(series.mids[t] - series.mids[t - lag])
            responses.append(series.mids[t + lag] - series.mids[t])
    p = np.array(pushes)
    r = np.array(responses)
    return (
        len(p),
        p.mean(),
        math.sqrt(((p - p.mean()) ** 2).mean()),
        r.mean(),
        math.sqrt(((r - r.mean()) ** 2).mean()),
    )


class TestLagGrid:
    def test_default_families(self):
        assert validate_lags(DEFAULT_SHORT_LAGS) == DEFAULT_SHORT_LAGS
        assert validate_lags(DEFAULT_LONG_LAGS) == DEFAULT_LONG_LAGS
        assert len(DEFAULT_SHORT_LAGS) == 101
        assert len(DEFAULT_LONG_LAGS) == 500
        assert DEFAULT_SHORT_LAGS[0] == 1
        assert DEFAULT_SHORT_LAGS[1] == 50
        assert DEFAULT_SHORT_LAGS[-1] == 5000
        assert DEFAULT_LONG_LAGS[0] == 1000
        assert DEFAULT_LONG_LAGS[-1] == 500000

    def test_custom_family(self):
        assert validate_lags([10, 20]) == (10, 20)

    def test_zero_lag_rejected(self):
        with pytest.raises(InvalidGrid):
            validate_lags([0])

    def test_unsorted_rejected(self):
        with pytest.raises(InvalidGrid):
            validate_lags([10, 5])

    def test_unknown_family_name(self):
        with pytest.raises(InvalidGrid):
            parse_lag_selector("medium")

    def test_selector_parsing(self, tmp_path):
        assert parse_lag_selector("short") == DEFAULT_SHORT_LAGS
        assert parse_lag_selector("long") == DEFAULT_LONG_LAGS
        assert parse_lag_selector("5,10,20") == (5, 10, 20)
        p = tmp_path / "lags.txt"
        p.write_text("3 7\n11\n")
        assert parse_lag_selector(f"file:{p}") == (3, 7, 11)


class TestAdmissibleAnchors:
    # an anchor t is admissible when t - L and t + L lie in its session
    @staticmethod
    def _mids(n):
        return 100 + np.cumsum(np.arange(n) % 7 - 3.0) * 0.01

    def test_eleven_events_lag_three(self):
        s = Session(date=0, start=0, end=10)
        mids = self._mids(11)
        pushes, responses = session_pushes_responses(mids, s, 3)
        assert anchor_count([s], 3) == 5
        np.testing.assert_array_equal(pushes, mids[3:8] - mids[0:5])
        np.testing.assert_array_equal(responses, mids[6:11] - mids[3:8])

    def test_too_short_session_is_empty(self):
        s = Session(date=0, start=0, end=5)  # 6 events
        pushes, responses = session_pushes_responses(self._mids(6), s, 3)
        assert anchor_count([s], 3) == 0
        assert pushes.size == responses.size == 0

    def test_single_anchor(self):
        s = Session(date=0, start=0, end=6)  # 7 events
        mids = self._mids(7)
        pushes, responses = session_pushes_responses(mids, s, 3)
        assert anchor_count([s], 3) == 1
        assert pushes.tolist() == [mids[3] - mids[0]]
        assert responses.tolist() == [mids[6] - mids[3]]

    def test_global_offsets_respected(self):
        s = Session(date=0, start=100, end=110)
        mids = self._mids(120)
        pushes, responses = session_pushes_responses(mids, s, 3)
        np.testing.assert_array_equal(pushes, mids[103:108] - mids[100:105])
        np.testing.assert_array_equal(responses, mids[106:111] - mids[103:108])


class TestMoments:
    def test_alternating_example(self):
        series = make_series([[0.0, 1.0, 0.0, 1.0, 0.0]])
        m = compute_moments(series, 1)
        assert m.n_pairs == 3
        assert m.mu_p == pytest.approx(1 / 3, rel=1e-15)
        assert m.sigma_p == pytest.approx(math.sqrt(8 / 9), rel=1e-15)
        assert m.mu_r == pytest.approx(-1 / 3, rel=1e-15)
        assert m.sigma_r == pytest.approx(math.sqrt(8 / 9), rel=1e-15)

    def test_constant_increments_zero_variance(self):
        series = make_series([[1.0, 2.0, 3.0, 4.0, 5.0]])
        with pytest.raises(ZeroVariance):
            compute_moments(series, 1)

    def test_insufficient_support(self):
        series = make_series([[1.0, 2.0, 3.0]])
        with pytest.raises(InsufficientSupport):
            compute_moments(series, 2)

    def test_matches_naive_two_pass_oracle(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(30000) * 0.01)
        series = make_series([mids[:11000], mids[11000:17000], mids[17000:]])
        for lag in (1, 7, 100, 999):
            m = compute_moments(series, lag)
            n, mu_p, sig_p, mu_r, sig_r = naive_moments(series, lag)
            assert m.n_pairs == n
            assert m.mu_p == pytest.approx(mu_p, rel=1e-10, abs=1e-14)
            assert m.sigma_p == pytest.approx(sig_p, rel=1e-10)
            assert m.mu_r == pytest.approx(mu_r, rel=1e-10, abs=1e-14)
            assert m.sigma_r == pytest.approx(sig_r, rel=1e-10)

    def test_anchor_count_identity(self, rng):
        mids = np.cumsum(rng.standard_normal(5000))
        series = make_series([mids[:1000], mids[1000:1100], mids[1100:]])
        for lag in (1, 30, 49, 50, 51, 600):
            expect = sum(max(0, len(s) - 2 * lag) for s in series.sessions)
            assert anchor_count(series.sessions, lag) == expect
            if expect >= 2:
                try:
                    m = compute_moments(series, lag)
                    assert m.n_pairs == expect
                except ZeroVariance:
                    pass

    def test_chunking_invariance(self, rng):
        # one long session vs the same data split across sessions differs,
        # but the same sessions chunked differently in memory must agree
        mids = 100 + np.cumsum(rng.standard_normal(8000) * 0.01)
        a = make_series([mids[:3000], mids[3000:]])
        b = make_series([mids[:3000].copy(), mids[3000:].copy()])
        ma = compute_moments(a, 13)
        mb = compute_moments(b, 13)
        assert ma == mb

    def test_standardized_population_is_centered_unit(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(50000) * 0.01)
        series = make_series([mids[:25000], mids[25000:]])
        lag = 40
        m = compute_moments(series, lag)
        parts = [session_pushes_responses(series.mids, s, lag) for s in series.sessions]
        zp = (np.concatenate([p for p, _ in parts]) - m.mu_p) / m.sigma_p
        zr = (np.concatenate([r for _, r in parts]) - m.mu_r) / m.sigma_r
        assert abs(zp.mean()) < 1e-8
        assert abs(zp.var() - 1.0) < 1e-8
        assert abs(zr.mean()) < 1e-8
        assert abs(zr.var() - 1.0) < 1e-8


class TestMomentsTable:
    def test_mixed_rows(self, rng):
        mids = 100 + np.cumsum(rng.standard_normal(300) * 0.01)
        series = make_series([mids])
        rows = compute_moments_table(series, [1, 100, 200])
        assert rows[0].excluded is None
        assert rows[1].excluded is None
        assert rows[2].excluded == "insufficient_support"

    def test_lag_beyond_every_session_is_row_not_error(self, rng):
        series = make_series([100 + np.cumsum(rng.standard_normal(50))])
        rows = compute_moments_table(series, [500])
        assert rows[0].moments is None
        assert rows[0].n_pairs == 0

    def test_csv_round_trip(self, tmp_path, rng):
        mids = 100 + np.cumsum(rng.standard_normal(500) * 0.01)
        series = make_series([mids])
        rows = compute_moments_table(series, [1, 10, 400])
        path = tmp_path / "moments.csv"
        write_moments_csv(rows, path)
        back = read_moments_csv(path)
        assert back == rows
        assert path.read_text().splitlines()[0] == "lag,n_pairs,mu_p,sigma_p,mu_r,sigma_r"

    def test_csv_non_numeric_field_rejected(self, tmp_path, rng):
        series = make_series([100 + np.cumsum(rng.standard_normal(500) * 0.01)])
        path = tmp_path / "moments.csv"
        write_moments_csv(compute_moments_table(series, [1, 10]), path)
        lines = path.read_text().splitlines()
        fields = lines[2].split(",")
        fields[3] = "x"  # sigma_p of lag 10
        lines[2] = ",".join(fields)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ArtifactIOError, match="line 3: sigma_p 'x' is not a number"):
            read_moments_csv(path)


@given(st.integers(1, 20), st.integers(2, 60))
@settings(max_examples=50, deadline=None)
def test_anchor_count_formula(lag, length):
    s = Session(date=0, start=0, end=length - 1)
    pushes, responses = session_pushes_responses(np.arange(length, dtype=np.float64), s, lag)
    assert anchor_count([s], lag) == len(pushes) == len(responses) == max(0, length - 2 * lag)
