"""Two-way ANOVA with interaction, omega-squared effect sizes, Tukey HSD.

Works on long-format observations: an iterable of (factor_a_level,
factor_b_level, response) triples. The report layer makes them from a
scheme's long rows as (model, extractor, accuracy in points), one per
replication. Only balanced designs (equal replication per cell) are
supported; the benchmark always produces them, and the sum-of-squares
decomposition is then unambiguous. One ``two_way_anova`` table serves
its F tests, ``omega_squared`` and both factors' ``tukey_hsd``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import fdtrc

from .special import studentized_range_cdf, studentized_range_quantile

EFFECT_BANDS = ((0.01, "very small"), (0.06, "small"), (0.14, "medium"))


@dataclass
class AnovaRow:
    term: str
    df: int
    sum_sq: float
    mean_sq: float
    f_value: float      # nan when the residual mean square is zero
    p_value: float


@dataclass
class AnovaTable:
    rows: list
    factor_a: str
    factor_b: str

    def __getitem__(self, term: str) -> AnovaRow:
        for row in self.rows:
            if row.term == term:
                return row
        raise KeyError(term)

    @property
    def residual(self) -> AnovaRow:
        return self.rows[-1]

    @property
    def total_sum_sq(self) -> float:
        return sum(r.sum_sq for r in self.rows)


def _group_observations(observations):
    a_raw, b_raw, y = [], [], []
    for a, b, v in observations:
        a_raw.append(a)
        b_raw.append(b)
        y.append(float(v))
    if not y:
        raise ValueError("no observations")
    a_levels = sorted(set(a_raw))
    b_levels = sorted(set(b_raw))
    a_idx = np.array([a_levels.index(a) for a in a_raw])
    b_idx = np.array([b_levels.index(b) for b in b_raw])
    return a_levels, b_levels, a_idx, b_idx, np.array(y)


def two_way_anova(observations, factor_a: str = "A", factor_b: str = "B") -> AnovaTable:
    """Balanced two-way decomposition with interaction.

    Raises on empty or unequal cells and on designs with fewer than two
    replications per cell (zero residual degrees of freedom). When every
    response is identical all sums of squares vanish; F is then reported
    as nan with p = 1 by convention.
    """
    a_levels, b_levels, a_idx, b_idx, y = _group_observations(observations)
    if len(a_levels) < 2 or len(b_levels) < 2:
        raise ValueError("each factor needs at least two levels")
    na, nb = len(a_levels), len(b_levels)
    counts = np.zeros((na, nb), dtype=int)
    sums = np.zeros((na, nb))
    np.add.at(counts, (a_idx, b_idx), 1)
    np.add.at(sums, (a_idx, b_idx), y)
    if counts.min() == 0:
        raise ValueError("empty factor-combination cell")
    n_per = int(counts.flat[0])
    if not (counts == n_per).all():
        raise ValueError("unbalanced design: unequal replication across cells")
    if n_per < 2:
        raise ValueError("need at least two replications per cell")

    cell_means = sums / n_per
    grand = y.mean()
    a_means = cell_means.mean(axis=1)
    b_means = cell_means.mean(axis=0)

    ss_a = nb * n_per * float(((a_means - grand) ** 2).sum())
    ss_b = na * n_per * float(((b_means - grand) ** 2).sum())
    inter_dev = cell_means - a_means[:, None] - b_means[None, :] + grand
    ss_ab = n_per * float((inter_dev ** 2).sum())
    ss_res = float(((y - cell_means[a_idx, b_idx]) ** 2).sum())

    df_a, df_b = na - 1, nb - 1
    df_ab = df_a * df_b
    df_res = na * nb * (n_per - 1)
    ms_res = ss_res / df_res

    def effect_row(term, df, ss):
        ms = ss / df
        if ms_res > 0.0:
            f_stat = ms / ms_res
            p = float(fdtrc(df, df_res, f_stat))
        else:
            f_stat, p = float("nan"), 1.0
        return AnovaRow(term, df, ss, ms, f_stat, p)

    rows = [
        effect_row(factor_a, df_a, ss_a),
        effect_row(factor_b, df_b, ss_b),
        effect_row(f"{factor_a}:{factor_b}", df_ab, ss_ab),
        AnovaRow("Residuals", df_res, ss_res, ms_res, float("nan"), float("nan")),
    ]
    return AnovaTable(rows, factor_a, factor_b)


@dataclass
class EffectSize:
    term: str
    omega_sq: float       # clamped at zero
    raw_omega_sq: float   # unclamped diagnostic
    band: str


def _band(omega: float) -> str:
    for threshold, name in EFFECT_BANDS:
        if omega < threshold:
            return name
    return "large"


def omega_squared(table: AnovaTable) -> list:
    """omega^2 = (SS_effect - df * MS_res) / (SS_total + MS_res) per effect."""
    resid = table.residual
    if resid.df <= 0:
        raise ValueError("residual degrees of freedom must be positive")
    denom = table.total_sum_sq + resid.mean_sq
    out = []
    for row in table.rows[:-1]:
        raw = (row.sum_sq - row.df * resid.mean_sq) / denom
        clamped = max(0.0, raw)
        out.append(EffectSize(row.term, clamped, raw, _band(clamped)))
    return out


@dataclass
class TukeyComparison:
    factor: str
    level_a: str          # higher-mean level
    level_b: str          # lower-mean level
    estimate: float
    conf_low: float
    conf_high: float
    adj_p: float

    @property
    def comparison(self) -> str:
        return f"{self.level_a}-{self.level_b}"


def tukey_from_groups(groups: dict, ms_resid: float, df_resid: int,
                      factor: str = "group", alpha: float = 0.05) -> list:
    """All-pairs comparisons given group samples and an error mean square.

    Groups must be equally sized. Pairs are ordered by ascending group
    mean, higher level first in each comparison, so estimates are
    nonnegative.
    """
    if len(groups) < 2:
        raise ValueError("need at least two levels")
    sizes = {len(v) for v in groups.values()}
    if len(sizes) != 1:
        raise ValueError("unequal group sizes")
    n_per = sizes.pop()
    if n_per < 1:
        raise ValueError("empty groups")
    m = len(groups)
    se = math.sqrt(ms_resid / n_per)
    q_crit = studentized_range_quantile(1.0 - alpha, m, df_resid)
    half_width = q_crit * se
    means = {level: float(np.mean(vals)) for level, vals in groups.items()}
    ordered = sorted(means, key=lambda lvl: (means[lvl], lvl))
    out = []
    for i, low in enumerate(ordered):
        for high in ordered[i + 1:]:
            diff = means[high] - means[low]
            if se > 0:
                adj_p = 1.0 - studentized_range_cdf(abs(diff) / se, m, df_resid)
            else:
                adj_p = 1.0 if diff == 0 else 0.0
            out.append(TukeyComparison(
                factor, high, low, diff, diff - half_width, diff + half_width, adj_p,
            ))
    return out


def tukey_hsd(observations, table: AnovaTable, factor: str, alpha: float = 0.05) -> list:
    """Pairwise marginal comparisons for one factor of a two-way design.

    ``table`` is the two-way ANOVA with interaction of the same
    observations, and ``factor`` one of its two factor names. The error
    term (mean square and degrees of freedom) is ``table.residual``,
    matching how the benchmark's comparison tables are built.
    """
    if factor not in (table.factor_a, table.factor_b):
        raise ValueError(f"factor must identify {table.factor_a!r} or {table.factor_b!r}")
    pos = 0 if factor == table.factor_a else 1
    groups: dict = {}
    for triple in observations:
        groups.setdefault(triple[pos], []).append(float(triple[2]))
    resid = table.residual
    return tukey_from_groups(groups, resid.mean_sq, resid.df, factor, alpha)
