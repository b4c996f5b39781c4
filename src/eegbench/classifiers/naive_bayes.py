"""Gaussian naive Bayes: independent per-feature likelihoods per class."""

from __future__ import annotations

import numpy as np

from .discriminant import _check_two_per_class


class GaussianNaiveBayes:
    def __init__(self, var_floor_ratio: float = 1e-9):
        self.var_floor_ratio = var_floor_ratio

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_, counts = np.unique(y, return_counts=True)
        _check_two_per_class(y, self.classes_, counts)
        self.priors_ = counts / X.shape[0]
        self.means_ = np.vstack([X[y == c].mean(axis=0) for c in self.classes_])
        variances = np.vstack([X[y == c].var(axis=0) for c in self.classes_])
        floor = self.var_floor_ratio * max(X.var(axis=0).max(), 1e-300)
        self.variances_ = np.maximum(variances, floor)
        return self

    def log_posteriors(self, X) -> np.ndarray:
        """Unnormalized: log prior + sum of per-feature Gaussian log likelihoods."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        out = np.empty((X.shape[0], self.classes_.size))
        for k in range(self.classes_.size):
            var = self.variances_[k]
            ll = -0.5 * (np.log(2.0 * np.pi * var) + (X - self.means_[k]) ** 2 / var)
            out[:, k] = ll.sum(axis=1) + np.log(self.priors_[k])
        return out

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.log_posteriors(X), axis=1)]
