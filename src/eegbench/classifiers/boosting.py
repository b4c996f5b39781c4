"""Gradient boosting with logistic loss.

Each stage fits a regression tree of depth ``MAX_DEPTH`` to the current
negative gradient (label minus predicted probability) on every training
row; each leaf's value is one Newton step sum(residual) / sum(p(1-p)),
and the learning rate times that value is added to the scores of the
leaf's rows. Every stage fits the same rows, so all the trees grow from
one ``presort`` of the training matrix. No training loss is kept.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTree, predict_trees, presort

MAX_DEPTH = 3


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


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
        if self.classes_.size != 2:
            raise ValueError("binary classifier: need exactly two labels present")
        y01 = (y == self.classes_[1]).astype(float)
        p0 = float(y01.mean())                         # in [1/n, 1 - 1/n]
        self._f0 = float(np.log(p0 / (1.0 - p0)))
        scores = np.full(X.shape[0], self._f0)
        root = presort(X)                              # shared by every stage's tree
        self.trees_ = []
        for _ in range(self.n_stages):
            prob = _sigmoid(scores)
            residual = y01 - prob
            tree = DecisionTree(max_depth=MAX_DEPTH).grow(residual, root)
            hess = prob * (1.0 - prob)
            for leaf, idx in tree.leaf_rows_:
                tree.value[leaf] = float(residual[idx].sum() / (hess[idx].sum() + 1e-16))
                scores[idx] += self.learning_rate * tree.value[leaf]
            self.trees_.append(tree)
        return self

    def decision_scores(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = np.full(X.shape[0], self._f0)
        for values in self.learning_rate * predict_trees(self.trees_, X):
            scores += values                           # in stage order
        return scores

    def predict(self, X) -> np.ndarray:
        prob = _sigmoid(self.decision_scores(X))
        return np.where(prob >= 0.5, self.classes_[1], self.classes_[0])
