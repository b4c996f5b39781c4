"""Gradient boosting with logistic loss.

Each stage fits a regression tree of depth ``MAX_DEPTH`` to the current
negative gradient (label minus predicted probability) on every training
row; leaf values take one Newton step sum(residual) / sum(p(1-p)),
scaled by the learning rate. Every stage fits the same rows, so all the
trees grow from one ``presort`` of the training matrix.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTree, predict_trees, presort

MAX_DEPTH = 3
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
    def __init__(self, n_stages: int = 100, learning_rate: float = 0.1):
        if n_stages < 1:
            raise ValueError("need at least one stage")
        if not 0.0 <= learning_rate <= 1.0:
            raise ValueError("learning rate must be in [0, 1]")
        self.n_stages = n_stages
        self.learning_rate = learning_rate

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
        scores = np.full(X.shape[0], self._f0)
        root = presort(X)                              # shared by every stage's tree
        prob = _sigmoid(scores)
        self.trees_ = []
        self.train_loss_path_ = [_log_loss(y01, prob)]
        for _ in range(self.n_stages):
            residual = y01 - prob
            tree = DecisionTree("mse", max_depth=MAX_DEPTH).grow(X, residual, root)
            # Newton step per leaf
            hess = prob * (1.0 - prob)
            leaf_of = np.empty(X.shape[0], dtype=np.int64)
            for leaf, idx in tree.leaf_rows_:
                tree.value[leaf] = float(residual[idx].sum() / (hess[idx].sum() + 1e-16))
                leaf_of[idx] = leaf
            scores += self.learning_rate * np.asarray(tree.value)[leaf_of]
            self.trees_.append(tree)
            prob = _sigmoid(scores)
            self.train_loss_path_.append(_log_loss(y01, prob))
        return self

    def decision_scores(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = np.full(X.shape[0], self._f0)
        if self.trees_:
            for values in self.learning_rate * predict_trees(self.trees_, X):
                scores += values                       # in stage order
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
