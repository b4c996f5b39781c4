"""Each output check passes on a genuine eegbench output and fails on a
deliberately perturbed copy of it.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import checks  # noqa: E402
from eegbench import features, reporting, wavelet  # noqa: E402
from eegbench.classifiers import SvmClassifier  # noqa: E402

SCHEMES = ["imbalanced", "balanced"]
EXTRACTORS = ["db2", "mfcc", "wfe"]
MODELS = ["knn", "lda", "svm"]
REPEATS = 3


def _holdout_rows(seed=0):
    """Long rows as a stratified 20 % hold-out of the Bonn schemes yields them."""
    rng = np.random.default_rng(seed)
    rows = []
    for scheme, extractor, model, rep in itertools.product(SCHEMES, EXTRACTORS, MODELS,
                                                           range(REPEATS)):
        n_pos, n_neg = checks.SCHEME_CLASS_COUNTS[scheme]
        P, N = round(0.2 * n_pos), round(0.2 * n_neg)
        tp, tn = int(rng.integers(P // 2, P + 1)), int(rng.integers(N // 2, N + 1))
        rows.append({"scheme": scheme, "extractor": extractor, "model": model,
                     "replication": str(rep), "accuracy": repr((tp + tn) / (P + N)),
                     "sensitivity": repr(tp / P), "specificity": repr(tn / N)})
    return rows


def _long_check(rows):
    return checks.check_long_rows(rows, SCHEMES, EXTRACTORS, MODELS, REPEATS, "rows")


def test_long_rows():
    rows = _holdout_rows()
    assert _long_check(rows) == []
    assert _long_check(rows[1:])
    assert _long_check(rows + rows[:1])
    bad = [dict(r) for r in rows]
    bad[4]["specificity"] = "1.25"
    assert _long_check(bad)


def test_holdout_identity():
    rows = _holdout_rows()
    assert checks.check_holdout_identity(rows, 0.2) == []
    bad = [dict(r) for r in rows]
    bad[7]["accuracy"] = repr(float(bad[7]["accuracy"]) + 1e-9)
    assert checks.check_holdout_identity(bad, 0.2)
    bad = [dict(r) for r in rows]
    bad[2]["sensitivity"] = repr(float(bad[2]["sensitivity"]) * 0.99)
    assert checks.check_holdout_identity(bad, 0.2)


@pytest.fixture(scope="module")
def inference_bundle(tmp_path_factory):
    """The program's own ANOVA and Tukey tables for the imbalanced rows."""
    rows = _holdout_rows(seed=3)
    out = tmp_path_factory.mktemp("inference")
    program_rows = [(r["scheme"], r["extractor"], r["model"], int(r["replication"]),
                     float(r["accuracy"]), float(r["sensitivity"]), float(r["specificity"]))
                    for r in rows]
    reporting.write_inference_reports(program_rows, "imbalanced", out)
    return checks.accuracy_points(rows, "imbalanced"), out


def _perturbed(table, index, column, factor):
    bad = [dict(r) for r in table]
    bad[index][column] = repr(float(bad[index][column]) * factor)
    return bad


@pytest.mark.parametrize("column", ["sum_sq", "f_value", "p_value"])
def test_anova(inference_bundle, column):
    obs, out = inference_bundle
    table = checks.read_csv(out / "anova_imbalanced.csv")
    assert checks.check_anova(obs, table) == []
    assert checks.check_anova(obs, _perturbed(table, 0, column, 1.001))


@pytest.mark.parametrize("name,position", [("models", 0), ("feat_extr", 1)])
@pytest.mark.parametrize("column", ["estimate", "conf.low", "conf.high", "adj.p.value"])
def test_tukey(inference_bundle, name, position, column):
    obs, out = inference_bundle
    table = checks.read_csv(out / f"hsd_imbalanced_{name}.csv")
    assert checks.check_tukey(obs, table, position) == []
    assert checks.check_tukey(obs, _perturbed(table, 1, column, 1.001), position)


@pytest.fixture(scope="module")
def pca_case():
    rng = np.random.default_rng(5)
    scales = 0.7 ** np.arange(300)
    X = rng.normal(size=(60, 300)) * scales + rng.normal(size=300)
    return X, features.pca_fit(X, 0.95)


def test_pca(pca_case):
    X, model = pca_case
    assert model.n_components > 2
    assert checks.check_pca(X, model, 0.95) == []


def test_pca_too_few_components(pca_case):
    X, model = pca_case
    k = model.n_components - 1
    short = dataclasses.replace(model, components=model.components[:k], n_components=k)
    assert checks.check_pca(X, short, 0.95)


def test_pca_rotated_axes(pca_case):
    X, model = pca_case
    c = model.components.copy()
    t = 1e-3
    c[0], c[1] = np.cos(t) * c[0] + np.sin(t) * c[1], -np.sin(t) * c[0] + np.cos(t) * c[1]
    assert checks.check_pca(X, dataclasses.replace(model, components=c), 0.95)


def test_pca_unnormalised_axis(pca_case):
    X, model = pca_case
    c = model.components.copy()
    c[-1] *= 1.0 + 1e-6
    assert checks.check_pca(X, dataclasses.replace(model, components=c), 0.95)


def test_db2_filter():
    lo = wavelet.filter_for("db2").lo_dec
    assert checks.check_db2_filter(lo) == []
    assert checks.check_db2_filter(lo + np.array([0.0, 1e-12, 0.0, 0.0]))


def test_dwt_energy():
    rng = np.random.default_rng(2)
    signals = np.round(100 * rng.normal(size=(4, 4097)))
    filt = wavelet.filter_for("coif1")

    def bands(x):
        return wavelet.wavedec(x, filt, 4, "periodized").bands

    def perturbed_bands(x):
        b = bands(x)
        b[1] = b[1] * (1.0 + 1e-6)
        return b

    assert checks.check_dwt_energy(signals, bands) == []
    assert checks.check_dwt_energy(signals, perturbed_bands)


@pytest.fixture()
def svm_case():
    rng = np.random.default_rng(9)
    X = rng.normal(size=(80, 3))
    y = (X[:, 0] + 0.6 * rng.normal(size=80) > 0).astype(int)
    return SvmClassifier().fit(X, y), X, y


def test_svm(svm_case):
    model, X, y = svm_case
    assert checks.check_svm_fit(model, X, y) == []


def test_svm_shifted_bias(svm_case):
    model, X, y = svm_case
    model._b += 0.05
    assert checks.check_svm_fit(model, X, y)


def test_svm_moved_multiplier(svm_case):
    model, X, y = svm_case
    model.alpha_ = model.alpha_.copy()
    model.alpha_[int(np.argmin(model.alpha_))] = 0.5 * model.C
    assert checks.check_svm_fit(model, X, y)

