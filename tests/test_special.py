import numpy as np
import pytest
import scipy.stats

from eegbench import special


# published upper-5% studentized range quantiles q(0.95; m, df)
PUBLISHED_Q95 = {
    (2, 10): 3.151, (2, 30): 2.888, (2, np.inf): 2.772,
    (3, 10): 3.877, (3, 30): 3.486, (3, np.inf): 3.314,
    (5, 10): 4.654, (5, 30): 4.102, (5, np.inf): 3.858,
}


class TestStudentizedRange:
    def test_zero_and_large_q(self):
        assert special.studentized_range_cdf(0.0, 3, 10) == 0.0
        assert special.studentized_range_cdf(-1.0, 3, 10) == 0.0
        assert special.studentized_range_cdf(100.0, 4, 25) >= 1 - 1e-6

    @pytest.mark.parametrize("key", sorted(PUBLISHED_Q95, key=str))
    def test_published_quantile_tables(self, key):
        m, df = key
        p = special.studentized_range_cdf(PUBLISHED_Q95[key], m, df)
        assert p == pytest.approx(0.95, abs=5e-3)

    def test_large_df_limit_value(self):
        # q(0.95, 3, inf) from the normal-range limit
        assert special.studentized_range_cdf(3.314, 3, float("inf")) == pytest.approx(
            0.95, abs=5e-4)

    def test_monotone_in_q(self):
        qs = np.linspace(0.1, 8.0, 25)
        vals = [special.studentized_range_cdf(q, 4, 12) for q in qs]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_against_scipy_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            df = float(rng.integers(2, 500))
            q = float(rng.uniform(0.3, 7.0))
            mine = special.studentized_range_cdf(q, m, df)
            ref = scipy.stats.studentized_range.cdf(q, m, df)
            assert mine == pytest.approx(ref, abs=1e-6)

    def test_quantile_round_trip(self):
        for p in (0.5, 0.95, 0.99):
            q = special.studentized_range_quantile(p, 5, 40)
            assert special.studentized_range_cdf(q, 5, 40) == pytest.approx(p, abs=1e-5)

    def test_quantile_cached_per_arguments(self, monkeypatch):
        special.studentized_range_quantile.cache_clear()
        calls = []
        cdf = special.studentized_range_cdf

        def counting_cdf(*args, **kwargs):
            calls.append(args)
            return cdf(*args, **kwargs)

        monkeypatch.setattr(special, "studentized_range_cdf", counting_cdf)
        first = special.studentized_range_quantile(0.95, 4, 28)
        n_calls = len(calls)
        assert n_calls > 0
        assert special.studentized_range_quantile(0.95, 4, 28) is first
        assert len(calls) == n_calls
        special.studentized_range_quantile.cache_clear()
        assert special.studentized_range_quantile(0.95, 4, 28) == first
        assert len(calls) == 2 * n_calls

    def test_input_validation(self):
        with pytest.raises(ValueError):
            special.studentized_range_cdf(2.0, 1, 10)
        with pytest.raises(ValueError):
            special.studentized_range_cdf(2.0, 3, 0.5)
        with pytest.raises(ValueError):
            special.studentized_range_quantile(1.2, 3, 10)
