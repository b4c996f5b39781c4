"""Checks of eegbench's outputs against computations made apart from it.

Every check returns a list of problems; an empty list means it passed.
The references are plain numpy and scipy, closed forms, or properties
the output must have. None compares with a stored copy of an earlier
output, so a later change that corrects the method can still pass.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

import numpy as np

# Bonn layout: 100 seizure signals (set S) and 400 others; the balanced
# scheme keeps S and draws 25 from each of the four other sets.
SCHEME_CLASS_COUNTS = {"imbalanced": (100, 400), "balanced": (100, 100)}
SET_TAGS = ("Z", "O", "N", "F", "S")
ANOVA_TERMS = ("Models", "feat_extr", "Models:feat_extr", "Residuals")


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= abs_ + rel * max(abs(a), abs(b))


# -- long-format cell rows ------------------------------------------------

def check_long_rows(rows, schemes, extractors, models, n_repeats, name) -> list:
    """One row per cell and repetition, every metric inside [0, 1]."""
    problems = []
    seen = Counter((r["scheme"], r["extractor"], r["model"], int(r["replication"]))
                   for r in rows)
    expected = {(s, e, m, rep) for s in schemes for e in extractors for m in models
                for rep in range(n_repeats)}
    missing = expected - set(seen)
    extra = set(seen) - expected
    doubled = [k for k, n in seen.items() if n > 1]
    if missing or extra or doubled:
        problems.append(f"{name}: {len(missing)} missing, {len(extra)} unexpected, "
                        f"{len(doubled)} repeated (cell, repetition) rows")
    for r in rows:
        for col in ("accuracy", "sensitivity", "specificity"):
            v = float(r[col]) if r[col] else math.nan
            if not 0.0 <= v <= 1.0:
                problems.append(f"{name}: {col}={r[col]!r} outside [0, 1] in {dict(r)}")
    return problems


def check_holdout_identity(rows, test_fraction: float) -> list:
    """accuracy = (P*sen + N*spe) / (P + N) with P, N the stratified test counts."""
    problems = []
    for r in rows:
        n_pos, n_neg = SCHEME_CLASS_COUNTS[r["scheme"]]
        P, N = round(test_fraction * n_pos), round(test_fraction * n_neg)
        acc, sen, spe = (float(r[c]) for c in ("accuracy", "sensitivity", "specificity"))
        expected = (P * sen + N * spe) / (P + N)
        counts_whole = (abs(P * sen - round(P * sen)) <= 1e-9
                        and abs(N * spe - round(N * spe)) <= 1e-9)
        if not (abs(acc - expected) <= 1e-12 and counts_whole):
            problems.append(f"holdout row {dict(r)}: accuracy {acc!r} is not "
                            f"(P*sen + N*spe)/(P+N) = {expected!r} with P={P}, N={N}")
    return problems


# -- two-way ANOVA and Tukey HSD ------------------------------------------

def accuracy_points(rows, scheme):
    """(model, extractor, accuracy in percentage points) for one scheme."""
    return [(r["model"], r["extractor"], 100.0 * float(r["accuracy"]))
            for r in rows if r["scheme"] == scheme]


def anova_by_least_squares(obs) -> dict:
    """Sums of squares as drops in residual sum of squares between nested
    least-squares fits: grand mean, + Models, + feat_extr, full cell means."""
    a = [o[0] for o in obs]
    b = [o[1] for o in obs]
    y = np.array([o[2] for o in obs])

    def one_hot(labels):
        levels = sorted(set(labels))
        return np.array([[lab == lv for lv in levels] for lab in labels], dtype=float)

    def rss(*blocks):
        X = np.column_stack(blocks)
        beta, *_ = np.linalg.lstsq(X, y, rcond=None)
        r = y - X @ beta
        return float(r @ r)

    ones = np.ones((y.size, 1))
    A, B = one_hot(a), one_hot(b)
    cells = one_hot(list(zip(a, b)))
    rss0, rss_a, rss_ab, rss_full = rss(ones), rss(ones, A), rss(ones, A, B), rss(cells)
    na, nb = A.shape[1], B.shape[1]
    df = {"Models": na - 1, "feat_extr": nb - 1, "Models:feat_extr": (na - 1) * (nb - 1),
          "Residuals": y.size - na * nb}
    ss = {"Models": rss0 - rss_a, "feat_extr": rss_a - rss_ab,
          "Models:feat_extr": rss_ab - rss_full, "Residuals": rss_full}
    return {"df": df, "ss": ss, "total": float(((y - y.mean()) ** 2).sum())}


def check_anova(obs, anova_rows) -> list:
    """Program's ANOVA table against least squares and ``scipy.stats.f.sf``."""
    from scipy import stats

    ref = anova_by_least_squares(obs)
    ms_res = ref["ss"]["Residuals"] / ref["df"]["Residuals"]
    problems = []
    got = {r["term"]: r for r in anova_rows}
    if sorted(got) != sorted(ANOVA_TERMS):
        return [f"anova terms {sorted(got)} are not {sorted(ANOVA_TERMS)}"]
    scale = max(ref["total"], 1e-300)
    for term in ANOVA_TERMS:
        row = got[term]
        df, ss = ref["df"][term], ref["ss"][term]
        if int(row["df"]) != df:
            problems.append(f"anova {term}: df {row['df']} != {df}")
        if not _close(float(row["sum_sq"]), ss, 1e-9, 1e-9 * scale):
            problems.append(f"anova {term}: sum_sq {row['sum_sq']} != {ss!r}")
        if term == "Residuals" or ms_res <= 0.0:
            continue
        f_ref = (ss / df) / ms_res
        p_ref = float(stats.f.sf(f_ref, df, ref["df"]["Residuals"]))
        if not _close(float(row["f_value"]), f_ref, 1e-7, 1e-9):
            problems.append(f"anova {term}: F {row['f_value']} != {f_ref!r}")
        if not _close(float(row["p_value"]), p_ref, 1e-6, 1e-9):
            problems.append(f"anova {term}: p {row['p_value']} != scipy {p_ref!r}")
    return problems


def check_tukey(obs, hsd_rows, position: int, alpha: float = 0.05) -> list:
    """Program's HSD table for the factor at ``position`` (0 models, 1
    extractors) against ``scipy.stats.studentized_range``."""
    from scipy import stats

    ref = anova_by_least_squares(obs)
    df_res = ref["df"]["Residuals"]
    ms_res = ref["ss"]["Residuals"] / df_res
    groups = {}
    for o in obs:
        groups.setdefault(o[position], []).append(o[2])
    m = len(groups)
    n_per = len(next(iter(groups.values())))
    means = {lv: float(np.mean(v)) for lv, v in groups.items()}
    se = math.sqrt(ms_res / n_per)
    q_crit = float(stats.studentized_range.ppf(1.0 - alpha, m, df_res))
    problems = []
    if len(hsd_rows) != m * (m - 1) // 2:
        problems.append(f"hsd: {len(hsd_rows)} comparisons for {m} levels")
    for row in hsd_rows:
        hi, lo = row["comparison"].split("-")
        diff = means[hi] - means[lo]
        p_ref = float(stats.studentized_range.sf(abs(diff) / se, m, df_res)) if se > 0 else math.nan
        half = q_crit * se
        if diff < 0:
            problems.append(f"hsd {row['comparison']}: higher mean listed second")
        if not _close(float(row["estimate"]), diff, 1e-9, 1e-9):
            problems.append(f"hsd {row['comparison']}: estimate {row['estimate']} != {diff!r}")
        for col, want in (("conf.low", diff - half), ("conf.high", diff + half)):
            if not _close(float(row[col]), want, 0.0, 1e-5 * half + 1e-9):
                problems.append(f"hsd {row['comparison']}: {col} {row[col]} != {want!r}")
        if se > 0 and not _close(float(row["adj.p.value"]), p_ref, 0.0, 1e-5):
            problems.append(f"hsd {row['comparison']}: adj.p {row['adj.p.value']} "
                            f"!= scipy {p_ref!r}")
    return problems


# -- PCA ------------------------------------------------------------------

def check_pca(X_train, model, target: float) -> list:
    """Kept spectrum equals the top Gram-matrix eigenvalues, components are
    orthonormal, and k is the smallest count reaching the target."""
    X = np.asarray(X_train, dtype=float)
    n = X.shape[0]
    Xc = X - X.mean(axis=0)
    eig = np.linalg.eigvalsh(Xc @ Xc.T)[::-1] / (n - 1)
    eig = np.clip(eig, 0.0, None)
    total = eig.sum()
    cum = np.cumsum(eig) / total
    k_ref = int(np.argmax(cum >= target - 1e-12)) + 1
    problems = []
    C = np.asarray(model.components)
    k = C.shape[0]
    if k != model.n_components or k != k_ref:
        problems.append(f"pca: kept {model.n_components} components ({k} rows), "
                        f"smallest count reaching {target} is {k_ref}")
        k = min(k, k_ref)
    gram_err = np.abs(C @ C.T - np.eye(C.shape[0])).max() if C.size else 0.0
    if gram_err > 1e-10:
        problems.append(f"pca: components not orthonormal (max |CC^T - I| = {gram_err:.2e})")
    kept = ((Xc @ C[:k].T) ** 2).sum(axis=0) / (n - 1)
    err = np.abs(kept - eig[:k]).max() if k else 0.0
    if err > 1e-9 * eig[0]:
        problems.append(f"pca: kept spectrum differs from Gram eigenvalues by {err:.3e} "
                        f"(largest eigenvalue {eig[0]:.3e})")
    ratio_err = np.abs(np.asarray(model.explained_variance_ratio)[:k] - eig[:k] / total).max()
    if k and ratio_err > 1e-10:
        problems.append(f"pca: explained-variance ratios off by {ratio_err:.2e}")
    return problems


def load_signals(corpus_root, tags=SET_TAGS) -> tuple:
    """Raw samples of every corpus file as rows, with seizure labels."""
    rows, labels = [], []
    for tag in tags:
        for path in sorted(Path(corpus_root, tag).iterdir()):
            rows.append(np.array(path.read_text().split(), dtype=float))
            labels.append(int(tag == "S"))
    return np.vstack(rows), np.array(labels)


def stratified_train_rows(labels, test_fraction: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    keep = []
    for value in np.unique(labels):
        idx = np.flatnonzero(labels == value)
        n_test = round(test_fraction * idx.size)
        keep.extend(rng.permutation(idx)[n_test:])
    return np.sort(np.array(keep))


# -- discrete wavelet transform -------------------------------------------

def db2_closed_form() -> np.ndarray:
    s3, s2 = math.sqrt(3.0), math.sqrt(2.0)
    return np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4.0 * s2)


def check_db2_filter(lo_dec) -> list:
    err = np.abs(np.asarray(lo_dec) - db2_closed_form()).max()
    return [] if err <= 1e-15 else [f"db2 low-pass differs from its closed form by {err:.2e}"]


def check_dwt_energy(signals, bands_of) -> list:
    """sum of squared coefficients over all bands equals the signal energy."""
    problems = []
    for i, x in enumerate(signals):
        energy = float(x @ x)
        coeff = sum(float(b @ b) for b in bands_of(x))
        if abs(coeff - energy) > 1e-10 * energy:
            problems.append(f"dwt: signal {i} energy {energy!r} became {coeff!r}")
    return problems


# -- SVM ------------------------------------------------------------------

def check_svm_fit(model, X_train, y_train) -> list:
    """The program's KKT measure is within tolerance, and so are the KKT
    conditions recomputed from fresh decision values."""
    problems = []
    violation = model.kkt_violation()
    if not violation <= model.tol:
        problems.append(f"svm: kkt_violation() = {violation:.3e} > tol {model.tol}")
    ym = np.where(np.asarray(y_train) == model.classes_[1], 1.0, -1.0)
    yf = ym * model.decision_function(X_train)
    a, C, tol = np.asarray(model.alpha_), model.C, model.tol
    low, high = a <= 1e-8, a >= C - 1e-8
    free = ~(low | high)
    worst = max(np.max(1.0 - yf[low], initial=0.0), np.max(yf[high] - 1.0, initial=0.0),
                np.max(np.abs(yf[free] - 1.0), initial=0.0))
    if worst > tol + 1e-6:
        problems.append(f"svm: recomputed KKT violation {worst:.3e} > tol {tol}")
    if a.min() < -1e-12 or a.max() > C + 1e-12 or abs(a @ ym) > 1e-8 * C * a.size:
        problems.append("svm: multipliers leave the box or sum(alpha*y) != 0")
    return problems
