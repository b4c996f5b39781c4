"""Replicated resampling and per-replication benchmark execution.

Seeding: ``derive_seed`` hashes the master seed with a replication's
``(scheme, plan kind, "split", replication)`` for its splits, which every
extractor and model of the scheme share, and with ``(scheme, plan kind,
extractor, model, "fit", replication, split)`` for a fit (only ``rf``
draws on it), so any replication reruns bit-identically in isolation.

Leakage rule: PCA and standardization statistics are fitted on the
training rows of each split only, then applied to both sides. PCA keeps
the fewest axes that explain ``PCA_VARIANCE_TARGET`` of the training
variance, as in the paper. A wide matrix's split PCA works from its Gram
matrix ``X Xᵀ``: each entry is the product of two rows alone, so the
training block ``G[train, train]`` depends on the training rows only,
and the test rows enter only through ``G[test, train]``, to be projected.

Task: ``run_cell`` runs one replication of (scheme, plan, extractor):
it computes each split's inputs once (``split_inputs``), fits every model
on them (``fit_split``), and returns a long row per model, ``(scheme,
extractor, model, replication, accuracy, sensitivity, specificity)``, the
one format of the runner, the report writers and ``eegbench stats``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace

import numpy as np

from .classifiers import STANDARDIZED_KINDS, make_model
from .errors import CellError
from .features import FeatureMatrix, gram_pca_split, pca_apply, pca_fit

PLAN_KINDS = ("kfold", "holdout")
PCA_VARIANCE_TARGET = 0.95


def derive_seed(master: int, *parts) -> int:
    text = f"{master}|" + "|".join(str(p) for p in parts)
    digest = hashlib.sha256(text.encode()).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class SplitPlan:
    kind: str
    k: int = 10
    test_fraction: float = 0.2
    n_repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.kind not in PLAN_KINDS:
            raise ValueError(f"plan kind must be one of {PLAN_KINDS}")
        if self.kind == "kfold" and self.k < 2:
            raise ValueError("k-fold needs k >= 2")
        if self.kind == "holdout" and not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test fraction must be inside (0, 1)")
        if self.n_repeats < 1:
            raise ValueError("need at least one repetition")


def make_splits(labels, plan: SplitPlan) -> list:
    """One repetition's stratified (train, test) index pairs, drawn from ``plan.seed``.

    k-fold: every index lands in exactly one test fold, with per-label
    counts balanced across folds within one. holdout: one pair, whose test
    side samples ``test_fraction`` of every label.
    """
    y = np.asarray(labels)
    rng = np.random.default_rng(plan.seed)
    values, counts = np.unique(y, return_counts=True)
    if plan.kind == "kfold":
        if counts.min() < plan.k:
            raise ValueError(
                f"stratification impossible: a label has {counts.min()} instances "
                f"for {plan.k} folds")
    else:
        n_test = [int(round(plan.test_fraction * c)) for c in counts]
        if any(t < 1 or t >= c for c, t in zip(counts, n_test)):
            raise ValueError("stratification impossible: empty train or test side for a label")
    shuffled = [rng.permutation(np.flatnonzero(y == v)) for v in values]
    if plan.kind == "kfold":
        tests = [[idx[f::plan.k] for idx in shuffled] for f in range(plan.k)]
    else:
        tests = [[idx[:t] for idx, t in zip(shuffled, n_test)]]
    tests = [np.sort(np.concatenate(parts)) for parts in tests]
    return [(np.setdiff1d(np.arange(y.size), test), test) for test in tests]


def split_rates(y_true, y_pred):
    """(accuracy, sensitivity, specificity) from the confusion counts; an undefined rate is nan."""
    t = np.asarray(y_true) == 1
    p = np.asarray(y_pred) == 1
    tp, fp = int(np.sum(t & p)), int(np.sum(~t & p))
    tn, fn = int(np.sum(~t & ~p)), int(np.sum(t & ~p))
    nan = float("nan")
    acc = (tp + tn) / t.size if t.size else nan
    sen = tp / (tp + fn) if tp + fn else nan
    spe = tn / (tn + fp) if tn + fp else nan
    return acc, sen, spe


def split_inputs(X, train_idx, test_idx, gram=None) -> tuple:
    """One split's model inputs, indexed by ``model in STANDARDIZED_KINDS``:
    (training, test) rows of ``X`` on its training rows' principal axes
    (for a wide ``X`` by ``gram_pca_split`` from the caller's
    ``gram = X @ X.T``; for a tall one, which needs no ``gram``, by
    ``pca_fit`` and ``pca_apply``), then those standardized by the training
    moments (a constant column by 1). ``X`` is left alone."""
    if X.shape[0] < X.shape[1]:
        X_train, X_test = gram_pca_split(X, gram, train_idx, test_idx, PCA_VARIANCE_TARGET)
    else:
        X_train = X[train_idx]
        pca = pca_fit(X_train, PCA_VARIANCE_TARGET)
        X_train, X_test = pca_apply(pca, X_train), pca_apply(pca, X[test_idx])
    mu = X_train.mean(axis=0)
    sd = X_train.std(axis=0)
    sd[sd == 0] = 1.0
    return (X_train, X_test), ((X_train - mu) / sd, (X_test - mu) / sd)


def fit_split(inputs, y_train, y_test, model_kind, seed: int = 0):
    """Fit one model on one split's ``split_inputs``, labelled ``y_train``;
    returns its (acc, sen, spe) on the test rows, labelled ``y_test``."""
    X_train, X_test = inputs[model_kind in STANDARDIZED_KINDS]
    model = make_model(model_kind, seed=seed)
    model.fit(X_train, y_train)
    return split_rates(y_test, model.predict(X_test))


def run_cell(scheme: str, extractor: str, models, plan: SplitPlan, replication: int,
             *, features: FeatureMatrix, rows=None, master_seed: int = 0) -> dict:
    """One replication of the cells (scheme, plan, extractor, model) of ``models``.

    Returns {model: long row}, each rate the mean over the splits.
    ``features`` is ``extractor``'s matrix and ``rows`` the scheme's sorted
    rows of it (default: all); splits drawn on their labels read it and
    its Gram matrix in place. A failure carries (scheme, extractor, model,
    replication), with the first model if the split's inputs failed.
    """
    X, labels = features.values, features.labels
    rows = np.arange(features.n_instances) if rows is None else rows
    splits = make_splits(labels[rows], replace(plan, seed=derive_seed(
        master_seed, scheme, plan.kind, "split", replication)))
    rates = {model: [] for model in models}
    for s, (train_idx, test_idx) in enumerate(splits):
        train_idx, test_idx, model = rows[train_idx], rows[test_idx], models[0]
        try:
            inputs = split_inputs(X, train_idx, test_idx, features.gram)
            for model in models:
                fit_seed = derive_seed(master_seed, scheme, plan.kind, extractor, model, "fit",
                                       replication, s)
                rates[model].append(fit_split(inputs, labels[train_idx], labels[test_idx],
                                              model, fit_seed))
        except Exception as exc:
            raise CellError(scheme, extractor, model, replication, exc) from exc
        del inputs          # one split's inputs at a time
    return {model: (scheme, extractor, model, replication,
                    *(float(np.mean(parts)) for parts in zip(*rates[model])))
            for model in models}
