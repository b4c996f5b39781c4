"""The studentized-range distribution behind Tukey HSD.

The CDF is a nested Gauss-Legendre quadrature (outer integral over the
pooled-variance scale, inner over the range of standard normals). Its
one library function is ``scipy.special.ndtr``, the standard normal CDF;
:mod:`eegbench.inference` adds ``fdtrc`` for the ANOVA p-values. These
two modules are where eegbench loads ``scipy.special``, and only
``reporting.run_inference`` imports them, when a run or ``eegbench
stats`` writes ANOVA and Tukey tables. The distribution is not taken
from ``scipy.stats.studentized_range``, because importing
``scipy.stats`` costs tens of megabytes more.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .errors import ConvergenceError

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


@lru_cache(maxsize=8)
def _panel_nodes(n_nodes: int, n_panels: int, lo: float, hi: float):
    base_x, base_w = np.polynomial.legendre.leggauss(n_nodes)
    edges = np.linspace(lo, hi, n_panels + 1)
    xs, ws = [], []
    for a, b in zip(edges[:-1], edges[1:]):
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        xs.append(mid + half * base_x)
        ws.append(half * base_w)
    return np.concatenate(xs), np.concatenate(ws)


def _range_cdf(u: np.ndarray, m: int, n_nodes: int, n_panels: int) -> np.ndarray:
    """P(range of m iid standard normals <= u), elementwise over u >= 0."""
    z, w = _panel_nodes(n_nodes, n_panels, -8.5, 8.5)
    phi = _INV_SQRT_2PI * np.exp(-0.5 * z * z)
    inner = ndtr(z)[:, None] - ndtr(z[:, None] - u[None, :])
    np.clip(inner, 0.0, None, out=inner)
    out = m * ((w * phi) @ inner ** (m - 1))
    return np.clip(out, 0.0, 1.0)


def _studentized_range_cdf_once(q: float, m: int, df: float,
                                n_nodes: int, n_panels: int) -> float:
    if df > 1e6 or math.isinf(df):
        return float(_range_cdf(np.array([q]), m, n_nodes, 2 * n_panels)[0])
    # outer over s ~ sqrt(chi2_df / df); density peaks near 1 with sd ~ 1/sqrt(2 df)
    sd = 1.0 / math.sqrt(2.0 * df)
    s_lo, s_hi = max(0.0, 1.0 - 14.0 * sd), 1.0 + 14.0 * sd
    segments = [(s_lo, s_hi, n_panels)]
    if s_lo > 0.0:
        segments.insert(0, (0.0, s_lo, max(2, n_panels // 4)))
    ln_norm = (df / 2.0) * math.log(df / 2.0) - math.lgamma(df / 2.0) + math.log(2.0)
    total = 0.0
    for a, b, panels in segments:
        s, w = _panel_nodes(n_nodes, panels, a, b)
        keep = s > 0.0
        s, w = s[keep], w[keep]
        dens = np.exp(ln_norm + (df - 1.0) * np.log(s) - df * s * s / 2.0)
        total += float((w * dens) @ _range_cdf(q * s, m, n_nodes, n_panels))
    return min(1.0, max(0.0, total))


def studentized_range_cdf(q: float, m: int, df: float, tol: float = 1e-5) -> float:
    """P(Q <= q) for the studentized range of m groups at df error degrees.

    Evaluated at two quadrature resolutions; if they disagree beyond the
    requested tolerance the call fails rather than returning a bad value.
    """
    if m < 2:
        raise ValueError("need at least two groups")
    if df < 1:
        raise ValueError("degrees of freedom must be >= 1")
    if q <= 0.0:
        return 0.0
    coarse = _studentized_range_cdf_once(q, m, df, 14, 10)
    fine = _studentized_range_cdf_once(q, m, df, 20, 14)
    err = abs(fine - coarse)
    if err > tol:
        raise ConvergenceError(
            f"studentized-range quadrature disagreement {err:.2e} exceeds {tol:.0e}",
            achieved=err,
        )
    return fine


@lru_cache(maxsize=64)
def studentized_range_quantile(p: float, m: int, df: float) -> float:
    """Inverse CDF by bisection (the CDF is monotone in q).

    Cached per ``(p, m, df)``: each call costs dozens of CDF quadratures,
    and Tukey HSD asks for the same critical value once per scheme.
    """
    if not 0.0 < p < 1.0:
        raise ValueError("p must be inside (0, 1)")
    lo, hi = 1e-9, 10.0
    while studentized_range_cdf(hi, m, df) < p:
        hi *= 2.0
        if hi > 1e4:
            raise ConvergenceError("quantile bracket not found")
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if studentized_range_cdf(mid, m, df) < p:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-7 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)
