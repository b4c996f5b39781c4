"""Replicated resampling and per-cell benchmark execution.

Seeding: every random decision derives from the master seed through
``derive_seed(master, scheme, plan kind, extractor, model, purpose,
replication)`` (SHA-256 of the joined parts), so any cell can be rerun
in isolation and reproduces bit-identically regardless of execution
order or worker count.

Leakage rule: PCA and standardization statistics are fitted on the
training rows of each split only, then applied to both sides. PCA keeps
the fewest axes that explain ``PCA_VARIANCE_TARGET`` of the training
variance, as in the paper. A wide matrix's split PCA works from its Gram
matrix ``X Xᵀ``: each entry is the product of two rows alone, so the
training block ``G[train, train]`` depends on the training rows only,
and the test rows enter only through ``G[test, train]``, to be projected.

Results: ``run_cell`` gives one long row per replication, ``(scheme,
extractor, model, replication, accuracy, sensitivity, specificity)``,
the one format of the runner, the report writers and ``eegbench stats``.
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

    @property
    def splits_per_repeat(self) -> int:
        return self.k if self.kind == "kfold" else 1


def make_splits(labels, plan: SplitPlan) -> list:
    """Stratified (train, test) index pairs, ``n_repeats`` groups in order.

    k-fold: within each repeat every index lands in exactly one test
    fold, with per-label counts balanced across folds within one.
    holdout: each repetition samples ``test_fraction`` of every label.
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
    out = []
    for _ in range(plan.n_repeats):
        shuffled = []
        for v in values:
            idx = np.flatnonzero(y == v)
            rng.shuffle(idx)
            shuffled.append(idx)
        if plan.kind == "kfold":
            tests = [[idx[f::plan.k] for idx in shuffled] for f in range(plan.k)]
        else:
            tests = [[idx[:t] for idx, t in zip(shuffled, n_test)]]
        for parts in tests:
            test = np.sort(np.concatenate(parts))
            out.append((np.setdiff1d(np.arange(y.size), test), test))
    return out


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


def fit_split(X, y, train_idx, test_idx, model_kind, seed: int = 0, gram=None):
    """Fit one split end to end; returns (acc, sen, spe).

    All fold statistics (PCA axes, standardization moments) come from the
    training rows alone, and ``X`` is left alone. A wide ``X`` (fewer rows
    than columns) is projected by ``gram_pca_split`` from ``gram``, its
    ``X @ X.T``, which is computed here when not given; a tall one by
    ``pca_fit`` on the gathered training rows and ``pca_apply``.
    """
    if X.shape[0] < X.shape[1]:
        gram = X @ X.T if gram is None else gram
        X_train, X_test = gram_pca_split(X, gram, train_idx, test_idx, PCA_VARIANCE_TARGET)
    else:
        X_train = X[train_idx]
        pca = pca_fit(X_train, PCA_VARIANCE_TARGET)
        X_train, X_test = pca_apply(pca, X_train), pca_apply(pca, X[test_idx])
    if model_kind in STANDARDIZED_KINDS:
        mu = X_train.mean(axis=0)
        sd = X_train.std(axis=0)
        sd[sd == 0] = 1.0
        X_train = (X_train - mu) / sd
        X_test = (X_test - mu) / sd
    model = make_model(model_kind, seed=seed)
    model.fit(X_train, y[train_idx])
    return split_rates(y[test_idx], model.predict(X_test))


def run_cell(scheme: str, extractor: str, model_kind: str, plan: SplitPlan,
             *, features: FeatureMatrix, rows=None, master_seed: int = 0) -> list:
    """Evaluate one benchmark cell under a replicated resampling plan.

    Returns a long row per replication, each rate the mean over its
    splits. ``features`` is ``extractor``'s matrix, shared by every
    scheme, and ``rows`` the scheme's sorted rows of it (default: all).
    Splits are drawn on the scheme's labels and mapped through ``rows``,
    so each reads ``features`` and its Gram matrix, if any, in place.
    Failures abort the cell and carry (scheme, extractor, model, replication).
    """
    X, labels = features.values, features.labels
    rows = np.arange(features.n_instances) if rows is None else rows
    split_seed = derive_seed(master_seed, scheme, plan.kind, extractor, model_kind, "split")
    splits = make_splits(labels[rows], replace(plan, seed=split_seed))
    per_rep = plan.splits_per_repeat
    result = []
    for rep in range(plan.n_repeats):
        rates = []
        for s in range(per_rep):
            train_idx, test_idx = splits[rep * per_rep + s]
            fit_seed = derive_seed(master_seed, scheme, plan.kind, extractor,
                                   model_kind, "fit", rep, s)
            try:
                rates.append(fit_split(X, labels, rows[train_idx], rows[test_idx], model_kind,
                                       fit_seed, features.gram))
            except Exception as exc:
                raise CellError(
                    f"cell failed: scheme={scheme} extractor={extractor} "
                    f"model={model_kind} replication={rep}: {exc}",
                    scheme=scheme, extractor=extractor,
                    model=model_kind, replication=rep,
                ) from exc
        result.append((scheme, extractor, model_kind, rep,
                       *(float(np.mean(parts)) for parts in zip(*rates))))
    return result
