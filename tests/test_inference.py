import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from eegbench import inference
from eegbench.inference import AnovaRow, AnovaTable


def make_observations(cell_data):
    """cell_data: {(a, b): [values]} -> long-format triples."""
    obs = []
    for (a, b), values in cell_data.items():
        obs.extend((a, b, v) for v in values)
    return obs


# Hand-worked 2x2x3 table. Cell means 2, 4, 6, 10; grand mean 5.5;
# marginals a=(3, 8), b=(4, 7). SS: A=75, B=27, AB=3, residual=42.
HAND_TABLE = {
    ("a1", "b1"): [1.0, 2.0, 3.0],
    ("a1", "b2"): [2.0, 4.0, 6.0],
    ("a2", "b1"): [5.0, 5.0, 8.0],
    ("a2", "b2"): [7.0, 9.0, 14.0],
}


class TestTwoWayAnova:
    def test_hand_computed_decomposition(self):
        t = inference.two_way_anova(make_observations(HAND_TABLE), "A", "B")
        assert [r.df for r in t.rows] == [1, 1, 1, 8]
        assert t["A"].sum_sq == pytest.approx(75.0, abs=1e-10)
        assert t["B"].sum_sq == pytest.approx(27.0, abs=1e-10)
        assert t["A:B"].sum_sq == pytest.approx(3.0, abs=1e-10)
        assert t.residual.sum_sq == pytest.approx(42.0, abs=1e-10)
        assert t["A"].mean_sq == pytest.approx(75.0, abs=1e-10)
        assert t.residual.mean_sq == pytest.approx(5.25, abs=1e-10)
        assert t["A"].f_value == pytest.approx(75.0 / 5.25, abs=1e-10)
        assert t["A:B"].f_value == pytest.approx(3.0 / 5.25, abs=1e-10)
        assert 0 < t["A"].p_value < 1

    def test_benchmark_design_degrees_of_freedom(self):
        rng = np.random.default_rng(0)
        cells = {}
        for a in range(7):
            for b in range(5):
                cells[(f"m{a}", f"e{b}")] = rng.normal(a + 2 * b, 1.0, size=50).tolist()
        t = inference.two_way_anova(make_observations(cells), "Models", "feat_extr")
        assert [r.df for r in t.rows] == [6, 4, 24, 1715]
        assert t["Models"].p_value < 0.05
        assert t["feat_extr"].p_value < 0.05

    def test_all_equal_responses(self):
        cells = {(a, b): [3.0, 3.0, 3.0] for a in "xy" for b in "uv"}
        t = inference.two_way_anova(make_observations(cells))
        for row in t.rows:
            assert row.sum_sq == 0.0
        assert math.isnan(t["A"].f_value)
        assert t["A"].p_value == 1.0

    def test_rejects_unbalanced_cells(self):
        cells = dict(HAND_TABLE)
        cells[("a1", "b1")] = [1.0, 2.0]
        with pytest.raises(ValueError, match="unbalanced"):
            inference.two_way_anova(make_observations(cells))

    def test_rejects_single_replication(self):
        cells = {(a, b): [1.0 * hash((a, b)) % 5] for a in "xy" for b in "uv"}
        with pytest.raises(ValueError, match="two replications"):
            inference.two_way_anova(make_observations(cells))

    def test_rejects_missing_cell(self):
        cells = dict(HAND_TABLE)
        del cells[("a2", "b2")]
        with pytest.raises(ValueError, match="at least two levels|cell"):
            inference.two_way_anova(make_observations(cells))

    @given(st.integers(2, 4), st.integers(2, 4), st.integers(2, 5), st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_sum_of_squares_additivity(self, na, nb, n_per, seed):
        rng = np.random.default_rng(seed)
        cells = {
            (f"a{i}", f"b{j}"): rng.normal(rng.uniform(-3, 3), 1.0, n_per).tolist()
            for i in range(na) for j in range(nb)
        }
        obs = make_observations(cells)
        t = inference.two_way_anova(obs)
        y = np.array([v for _, _, v in obs])
        ss_total = float(((y - y.mean()) ** 2).sum())
        if ss_total > 0:
            assert abs(t.total_sum_sq - ss_total) / ss_total < 1e-8

    def test_p_values_equal_scipy_f_tail(self):
        # random designs whose p-values span many orders of magnitude
        designs = [HAND_TABLE]
        rng = np.random.default_rng(11)
        for _ in range(40):
            na, nb, n_per = rng.integers(2, 8), rng.integers(2, 6), rng.integers(2, 30)
            shift = rng.uniform(0, 1.5)
            designs.append({(f"a{i}", f"b{j}"): rng.normal(shift * i, 1.0, n_per).tolist()
                            for i in range(na) for j in range(nb)})
        for cells in designs:
            t = inference.two_way_anova(make_observations(cells))
            for row in t.rows[:-1]:
                assert row.p_value == scipy.stats.f.sf(row.f_value, row.df, t.residual.df)

    def test_zero_effect_p_value_is_one(self):
        # zero B and A:B effects give F = 0, whose upper tail is exactly 1
        cells = {("a1", "b1"): [1.0, 3.0], ("a1", "b2"): [2.0, 2.0],
                 ("a2", "b1"): [5.0, 7.0], ("a2", "b2"): [6.0, 6.0]}
        t = inference.two_way_anova(make_observations(cells))
        for term in ("B", "A:B"):
            assert t[term].f_value == 0.0
            assert t[term].p_value == scipy.stats.f.sf(0.0, t[term].df, t.residual.df) == 1.0
        assert 0.0 < t["A"].p_value < 1.0

    def test_response_rescaling_invariance(self):
        obs = make_observations(HAND_TABLE)
        scaled = [(a, b, 3.5 * v) for a, b, v in obs]
        t1 = inference.two_way_anova(obs)
        t2 = inference.two_way_anova(scaled)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert r2.sum_sq == pytest.approx(3.5 ** 2 * r1.sum_sq, rel=1e-10)
        for term in ("A", "B", "A:B"):
            assert t2[term].f_value == pytest.approx(t1[term].f_value, rel=1e-10)
            assert t2[term].p_value == pytest.approx(t1[term].p_value, abs=1e-10)
        for e1, e2 in zip(inference.omega_squared(t1), inference.omega_squared(t2)):
            assert e2.omega_sq == pytest.approx(e1.omega_sq, abs=1e-10)


class TestOmegaSquared:
    @staticmethod
    def _table(rows):
        built = [AnovaRow(t, df, ss, ss / df, float("nan"), float("nan"))
                 for t, df, ss in rows]
        return AnovaTable(built, rows[0][0], rows[1][0])

    def test_zero_when_effect_equals_noise(self):
        # SS_effect = df_effect * MS_res exactly
        t = self._table([("A", 3, 30.0), ("B", 2, 50.0), ("A:B", 6, 60.0),
                         ("Residuals", 10, 100.0)])
        effects = inference.omega_squared(t)
        assert effects[0].omega_sq == 0.0
        assert effects[0].raw_omega_sq == pytest.approx(0.0, abs=1e-15)

    def test_hand_formula_substitution(self):
        t = self._table([("A", 2, 80.0), ("B", 1, 40.0), ("A:B", 2, 20.0),
                         ("Residuals", 12, 24.0)])
        ms_res = 2.0
        denom = 164.0 + ms_res
        got = inference.omega_squared(t)
        assert got[0].omega_sq == pytest.approx((80 - 2 * ms_res) / denom, abs=1e-12)
        assert got[1].omega_sq == pytest.approx((40 - 1 * ms_res) / denom, abs=1e-12)
        assert got[2].omega_sq == pytest.approx((20 - 2 * ms_res) / denom, abs=1e-12)

    def test_negative_raw_is_clamped(self):
        t = self._table([("A", 3, 1.0), ("B", 2, 50.0), ("A:B", 6, 60.0),
                         ("Residuals", 10, 100.0)])
        e = inference.omega_squared(t)[0]
        assert e.raw_omega_sq < 0
        assert e.omega_sq == 0.0
        assert e.band == "very small"

    def test_reference_table_reproduces_reported_effects(self):
        # the known decomposition: df (6, 4, 24, 1715) with these sums of
        # squares bands as (medium, large, large) and rounds to .09/.19/.29
        t = self._table([
            ("Models", 6, 8947.34),
            ("feat_extr", 4, 18879.49),
            ("Models:feat_extr", 24, 28916.51),
            ("Residuals", 1715, 42552.50),
        ])
        effects = inference.omega_squared(t)
        assert [round(e.omega_sq, 2) for e in effects] == [0.09, 0.19, 0.29]
        assert [e.band for e in effects] == ["medium", "large", "large"]

    def test_band_thresholds(self):
        assert inference._band(0.005) == "very small"
        assert inference._band(0.03) == "small"
        assert inference._band(0.10) == "medium"
        assert inference._band(0.20) == "large"


class TestTukey:
    def test_identical_group_means(self):
        groups = {g: [5.0, 5.2, 4.8, 5.0] for g in ("x", "y", "z")}
        out = inference.tukey_from_groups(groups, ms_resid=0.02, df_resid=9)
        for comp in out:
            assert comp.estimate == pytest.approx(0.0, abs=1e-12)
            assert comp.adj_p == pytest.approx(1.0, abs=1e-6)

    def test_three_groups_against_published_quantile(self):
        # 3 groups x 21 -> one-way residual df = 60; published q(0.95,3,60)=3.40
        rng = np.random.default_rng(8)
        groups = {
            "lo": (0.0 + 0.2 * rng.normal(size=21)).tolist(),
            "mid": (1.0 + 0.2 * rng.normal(size=21)).tolist(),
            "hi": (2.5 + 0.2 * rng.normal(size=21)).tolist(),
        }
        n = 21
        means = {g: np.mean(v) for g, v in groups.items()}
        ss_within = sum(((np.array(v) - means[g]) ** 2).sum() for g, v in groups.items())
        ms_within = ss_within / (63 - 3)
        out = inference.tukey_from_groups(groups, ms_within, 60)
        hand_half = 3.40 * math.sqrt(ms_within / n)
        by_pair = {c.comparison: c for c in out}
        for (hi, lo) in (("mid", "lo"), ("hi", "mid"), ("hi", "lo")):
            c = by_pair[f"{hi}-{lo}"]
            est = means[hi] - means[lo]
            assert c.estimate == pytest.approx(est, abs=1e-12)
            assert c.conf_low == pytest.approx(est - hand_half, abs=1e-3)
            assert c.conf_high == pytest.approx(est + hand_half, abs=1e-3)

    def test_estimates_ordered_and_antisymmetric(self):
        rng = np.random.default_rng(5)
        groups = {g: (mu + rng.normal(size=6)).tolist()
                  for g, mu in [("a", 0.0), ("b", 2.0), ("c", 5.0)]}
        out = inference.tukey_from_groups(groups, 1.0, 15)
        means = {g: np.mean(v) for g, v in groups.items()}
        for c in out:
            assert c.estimate >= 0
            assert c.estimate == pytest.approx(means[c.level_a] - means[c.level_b])
            assert -(means[c.level_b] - means[c.level_a]) == pytest.approx(c.estimate)
            assert c.conf_low <= c.estimate <= c.conf_high

    def test_two_way_marginal_comparisons(self):
        rng = np.random.default_rng(2)
        cells = {}
        shift = {"e1": 0.0, "e2": 4.0, "e3": 4.2}
        for a in ("m1", "m2"):
            for b, mu in shift.items():
                cells[(a, b)] = (mu + rng.normal(size=20)).tolist()
        obs = make_observations(cells)
        out = inference.tukey_hsd(obs, factor="b", factor_a="Models", factor_b="feat_extr")
        assert len(out) == 3
        by_pair = {c.comparison: c for c in out}
        assert by_pair["e2-e1"].adj_p < 0.01
        assert by_pair["e3-e1"].adj_p < 0.01
        assert by_pair["e3-e2"].adj_p > 0.05  # close means, not significant
        assert all(c.factor == "feat_extr" for c in out)

    def test_requires_two_levels(self):
        with pytest.raises(ValueError, match="two levels"):
            inference.tukey_from_groups({"only": [1.0, 2.0]}, 1.0, 5)

    def test_rejects_unequal_group_sizes(self):
        with pytest.raises(ValueError, match="unequal"):
            inference.tukey_from_groups({"a": [1.0], "b": [1.0, 2.0]}, 1.0, 5)

    def test_unknown_factor_name(self):
        obs = make_observations(HAND_TABLE)
        with pytest.raises(ValueError, match="factor"):
            inference.tukey_hsd(obs, factor="c")
