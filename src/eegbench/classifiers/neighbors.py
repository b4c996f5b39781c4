"""k-nearest-neighbor voting with Euclidean distance.

Vote ties fall back to the single nearest neighbor's label. Distance
ties resolve by training-set order (stable sort), so prediction is fully
deterministic.
"""

from __future__ import annotations

import numpy as np


def squared_distances(A, B) -> np.ndarray:
    """|a_i - b_j|^2 for every row pair of ``A`` and ``B``, clipped at 0 against rounding."""
    d2 = ((A ** 2).sum(axis=1)[:, None] + (B ** 2).sum(axis=1)[None, :] - 2.0 * A @ B.T)
    np.clip(d2, 0.0, None, out=d2)
    return d2


class KnnClassifier:
    def __init__(self, k: int = 5):
        if k < 1:
            raise ValueError("k must be at least 1")
        self.k = k

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        if X.shape[0] == 0:
            raise ValueError("empty training set")
        if self.k > X.shape[0]:
            raise ValueError(f"k={self.k} exceeds training size {X.shape[0]}")
        self._X = X
        self._y = y
        self.classes_ = np.unique(y)
        return self

    def predict(self, X) -> np.ndarray:
        Q = np.atleast_2d(np.asarray(X, dtype=float))
        d2 = squared_distances(Q, self._X)
        order = np.argsort(d2, axis=1, kind="stable")[:, : self.k]
        neighbor_labels = self._y[order]
        votes = np.stack(
            [(neighbor_labels == c).sum(axis=1) for c in self.classes_], axis=1
        )
        best = votes.max(axis=1)
        tied = (votes == best[:, None]).sum(axis=1) > 1
        pred = self.classes_[np.argmax(votes, axis=1)]
        pred[tied] = neighbor_labels[tied, 0]
        return pred
