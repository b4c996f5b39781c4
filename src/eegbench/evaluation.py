"""Replicated resampling and per-cell benchmark execution.

Seeding: every random decision derives from the master seed through
``derive_seed(master, scheme, plan kind, extractor, model, purpose,
replication)`` (SHA-256 of the joined parts), so any cell can be rerun
in isolation and reproduces bit-identically regardless of execution
order or worker count.

Leakage rule: PCA and standardization statistics are fitted on the
training rows of each split only, then applied to both sides. PCA keeps
the fewest axes that explain ``PCA_VARIANCE_TARGET`` of the training
variance, as in the paper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace

import numpy as np

from .classifiers import STANDARDIZED_KINDS, make_model
from .errors import CellError
from .features import FeatureMatrix, pca_apply, pca_fit

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
    out = []
    if plan.kind == "kfold":
        if counts.min() < plan.k:
            raise ValueError(
                f"stratification impossible: a label has {counts.min()} instances "
                f"for {plan.k} folds")
        for _ in range(plan.n_repeats):
            folds = [[] for _ in range(plan.k)]
            for v in values:
                idx = np.flatnonzero(y == v)
                rng.shuffle(idx)
                for i, ix in enumerate(idx):
                    folds[i % plan.k].append(int(ix))
            for f in range(plan.k):
                test = np.array(sorted(folds[f]), dtype=int)
                train = np.setdiff1d(np.arange(y.size), test)
                out.append((train, test))
    else:
        n_test = {v: int(round(plan.test_fraction * c)) for v, c in zip(values, counts)}
        if any(t < 1 or t >= c for (v, c), t in zip(zip(values, counts), n_test.values())):
            raise ValueError("stratification impossible: empty train or test side for a label")
        for _ in range(plan.n_repeats):
            test_parts = []
            for v in values:
                idx = np.flatnonzero(y == v)
                rng.shuffle(idx)
                test_parts.append(idx[: n_test[v]])
            test = np.array(sorted(np.concatenate(test_parts)), dtype=int)
            train = np.setdiff1d(np.arange(y.size), test)
            out.append((train, test))
    return out


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    def __post_init__(self):
        if min(self.tp, self.fp, self.tn, self.fn) < 0:
            raise ValueError("confusion counts must be nonnegative")

    @classmethod
    def from_predictions(cls, y_true, y_pred, positive=1):
        t = np.asarray(y_true) == positive
        p = np.asarray(y_pred) == positive
        return cls(
            tp=int(np.sum(t & p)),
            fp=int(np.sum(~t & p)),
            tn=int(np.sum(~t & ~p)),
            fn=int(np.sum(t & ~p)),
        )

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def confusion_metrics(cm: ConfusionMatrix):
    """(accuracy, sensitivity, specificity); undefined metrics come back nan."""
    nan = float("nan")
    acc = (cm.tp + cm.tn) / cm.total if cm.total else nan
    sen = cm.tp / (cm.tp + cm.fn) if cm.tp + cm.fn else nan
    spe = cm.tn / (cm.tn + cm.fp) if cm.tn + cm.fp else nan
    return acc, sen, spe


@dataclass
class CellResult:
    """Per-replication metrics for one (scheme, extractor, model) cell."""

    scheme: str
    extractor: str
    model_kind: str
    plan_kind: str
    accuracy: list = field(default_factory=list)
    sensitivity: list = field(default_factory=list)
    specificity: list = field(default_factory=list)

    @property
    def n_replications(self) -> int:
        return len(self.accuracy)


def fit_split(X, y, train_idx, test_idx, model_kind, seed: int = 0):
    """Fit one split end to end; returns (ConfusionMatrix, fitted PcaModel).

    All fold statistics (PCA axes, standardization moments) come from the
    training rows alone.
    """
    X_train, X_test = X[train_idx], X[test_idx]
    pca = pca_fit(X_train, PCA_VARIANCE_TARGET)
    X_train = pca_apply(pca, X_train)
    X_test = pca_apply(pca, X_test)
    if model_kind in STANDARDIZED_KINDS:
        mu = X_train.mean(axis=0)
        sd = X_train.std(axis=0)
        sd[sd == 0] = 1.0
        X_train = (X_train - mu) / sd
        X_test = (X_test - mu) / sd
    model = make_model(model_kind, seed=seed)
    model.fit(X_train, y[train_idx])
    cm = ConfusionMatrix.from_predictions(y[test_idx], model.predict(X_test))
    return cm, pca


def run_cell(scheme: str, extractor: str, model_kind: str, plan: SplitPlan,
             *, features: FeatureMatrix, master_seed: int = 0) -> CellResult:
    """Evaluate one benchmark cell under a replicated resampling plan.

    ``features`` is the scheme's matrix under ``extractor`` (extraction
    is per-instance pure, so the runner does it once per scheme and
    extractor). Failures abort the cell and carry (scheme, extractor,
    model, replication).
    """
    X, y = features.values, features.labels
    split_seed = derive_seed(master_seed, scheme, plan.kind, extractor, model_kind, "split")
    splits = make_splits(y, replace(plan, seed=split_seed))
    result = CellResult(scheme, extractor, model_kind, plan.kind)
    per_rep = plan.splits_per_repeat
    for rep in range(plan.n_repeats):
        acc_parts, sen_parts, spe_parts = [], [], []
        for s in range(per_rep):
            train_idx, test_idx = splits[rep * per_rep + s]
            fit_seed = derive_seed(master_seed, scheme, plan.kind, extractor,
                                   model_kind, "fit", rep, s)
            try:
                cm, _ = fit_split(X, y, train_idx, test_idx, model_kind, fit_seed)
            except Exception as exc:
                raise CellError(
                    f"cell failed: scheme={scheme} extractor={extractor} "
                    f"model={model_kind} replication={rep}: {exc}",
                    scheme=scheme, extractor=extractor,
                    model=model_kind, replication=rep,
                ) from exc
            acc, sen, spe = confusion_metrics(cm)
            acc_parts.append(acc)
            sen_parts.append(sen)
            spe_parts.append(spe)
        result.accuracy.append(float(np.mean(acc_parts)))
        result.sensitivity.append(float(np.mean(sen_parts)))
        result.specificity.append(float(np.mean(spe_parts)))
    return result
