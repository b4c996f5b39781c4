"""Gradient boosting with logistic loss.

Each stage fits a regression tree of depth ``MAX_DEPTH`` to the current
negative gradient (label minus predicted probability) on every training
row; each leaf's value is one Newton step sum(residual) / sum(p(1-p)),
and the learning rate times that value is added to the scores of the
leaf's rows. Every stage fits the same rows, so all the trees grow
through one ``SplitPaths`` table of the training matrix. A node's entry
is the same whether read from it or partitioned again, and every sum
and score the same numpy operation on the same array, so the trees do
not depend on what the table holds. No training loss is kept.
"""

from __future__ import annotations

import numpy as np

from .tree import DecisionTree, SplitPaths, predict_trees

MAX_DEPTH = 3


def _sigmoid(z):
    """1 / (1 + exp(-z)) where z >= 0 and exp(z) / (1 + exp(z)) elsewhere, from one exp."""
    e = np.exp(-np.abs(z))                            # never overflows
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


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
        paths = SplitPaths(X)                          # shared by every stage's tree
        step = np.empty_like(scores)
        add = np.add.reduce                            # ndarray.sum without its wrapper
        self.trees_ = []
        for _ in range(self.n_stages):
            prob = _sigmoid(scores)
            residual = y01 - prob
            tree = DecisionTree(max_depth=MAX_DEPTH).grow(residual, paths)
            hess = prob * (1.0 - prob)
            for leaf, idx in tree.leaf_rows_:
                tree.value[leaf] = float(add(residual[idx]) / (add(hess[idx]) + 1e-16))
                step[idx] = self.learning_rate * tree.value[leaf]
            scores += step                             # every row is in one leaf
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
