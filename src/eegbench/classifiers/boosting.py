"""Stochastic gradient boosting with logistic loss.

Stages fit shallow regression trees to the current negative gradient
(label minus predicted probability); leaf values take one Newton step
sum(residual) / sum(p(1-p)), scaled by the learning rate. ``subsample``
below 1 draws a random row fraction per stage without replacement.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTree, check_max_depth

_PROB_CLIP = 1e-12


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _log_loss(y01, prob):
    p = np.clip(prob, _PROB_CLIP, 1.0 - _PROB_CLIP)
    return float(-np.mean(y01 * np.log(p) + (1.0 - y01) * np.log(1.0 - p)))


class GradientBoostingClassifier:
    def __init__(self, n_stages: int = 100, learning_rate: float = 0.1,
                 max_depth: int = 3, subsample: float = 1.0, seed: int = 0):
        if n_stages < 1:
            raise ValueError("need at least one stage")
        if not 0.0 <= learning_rate <= 1.0:
            raise ValueError("learning rate must be in [0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample fraction must be in (0, 1]")
        check_max_depth(max_depth)
        self.n_stages = n_stages
        self.learning_rate = learning_rate
        self.max_depth = max_depth
        self.subsample = subsample
        self.seed = seed

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if self.classes_.size > 2:
            raise ValueError("binary classifier: more than two labels present")
        if self.classes_.size == 1:
            # degenerate run: the prior saturates and every stage fits zeros
            self._f0 = np.inf
            self.trees_ = []
            self.train_loss_path_ = [0.0]
            return self
        y01 = (y == self.classes_[1]).astype(float)
        p0 = float(np.clip(y01.mean(), _PROB_CLIP, 1.0 - _PROB_CLIP))
        self._f0 = float(np.log(p0 / (1.0 - p0)))
        n = X.shape[0]
        rng = np.random.default_rng(self.seed)
        scores = np.full(n, self._f0)
        self.trees_ = []
        self.train_loss_path_ = [_log_loss(y01, _sigmoid(scores))]
        for _ in range(self.n_stages):
            prob = _sigmoid(scores)
            residual = y01 - prob
            if self.subsample < 1.0:
                m = max(1, int(round(self.subsample * n)))
                rows = np.sort(rng.choice(n, size=m, replace=False))
            else:
                rows = np.arange(n)
            tree = DecisionTree("mse", max_depth=self.max_depth)
            tree.fit(X[rows], residual[rows])
            # Newton step per leaf on the fitted rows
            fit_residual = residual[rows]
            hess = prob[rows] * (1.0 - prob[rows])
            leaf_of = np.empty(rows.size, dtype=np.int64)
            for leaf, idx in tree.leaf_rows_:
                tree.value[leaf] = float(fit_residual[idx].sum() / (hess[idx].sum() + 1e-16))
                leaf_of[idx] = leaf
            if rows.size == n:                            # every row was fitted
                scores += self.learning_rate * np.asarray(tree.value)[leaf_of]
            else:
                scores += self.learning_rate * tree.predict(X)
            self.trees_.append(tree)
            self.train_loss_path_.append(_log_loss(y01, _sigmoid(scores)))
        return self

    def decision_scores(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = np.full(X.shape[0], self._f0)
        for tree in self.trees_:
            scores += self.learning_rate * tree.predict(X)
        return scores

    def predict_proba(self, X) -> np.ndarray:
        scores = self.decision_scores(X)
        if np.isinf(self._f0):
            return np.ones_like(scores)
        return _sigmoid(scores)

    def predict(self, X) -> np.ndarray:
        if self.classes_.size == 1:
            X = np.atleast_2d(np.asarray(X, dtype=float))
            return np.full(X.shape[0], self.classes_[0])
        return np.where(self.predict_proba(X) >= 0.5, self.classes_[1], self.classes_[0])
