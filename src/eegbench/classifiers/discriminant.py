"""Linear and quadratic discriminant classifiers.

Both score a point against each class with the Gaussian log-posterior up
to shared constants, then take the argmax. LDA pools one covariance
across classes (linear boundaries); QDA keeps one per class (quadratic
boundaries). Covariances use the population (1/N) convention and a ridge
term epsilon * trace/d on the diagonal for invertibility.

Both solve with numpy alone, so a run never imports ``scipy.linalg``:
LDA its pooled system, and QDA ``L z = x - mu`` for each class's
Cholesky factor ``L`` through ``np.linalg.solve``, numpy's LU solve,
which agrees with triangular substitution up to rounding.
"""

from __future__ import annotations

import numpy as np


def _check_two_per_class(y, classes, counts):
    if len(classes) < 2:
        raise ValueError("need at least two distinct labels")
    lacking = [c for c, n in zip(classes, counts) if n < 2]
    if lacking:
        raise ValueError(f"classes with fewer than two samples: {lacking}")


def _ridged(cov: np.ndarray, ridge: float) -> np.ndarray:
    d = cov.shape[0]
    scale = np.trace(cov) / d
    if scale <= 0:
        scale = 1.0
    return cov + ridge * scale * np.eye(d)


class LdaClassifier:
    """Pooled-covariance Gaussian discriminant."""

    def __init__(self, ridge: float = 1e-6):
        self.ridge = ridge

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_, counts = np.unique(y, return_counts=True)
        _check_two_per_class(y, self.classes_, counts)
        n, d = X.shape
        priors = counts / n
        self.means_ = np.vstack([X[y == c].mean(axis=0) for c in self.classes_])
        pooled = np.zeros((d, d))
        for c, mu in zip(self.classes_, self.means_):
            diff = X[y == c] - mu
            pooled += diff.T @ diff
        pooled = _ridged(pooled / n, self.ridge)
        # Gamma_k(x) = mu_k' S^-1 x - 0.5 mu_k' S^-1 mu_k + ln prior_k
        self._weights = np.linalg.solve(pooled, self.means_.T).T
        self._bias = -0.5 * np.sum(self._weights * self.means_, axis=1) + np.log(priors)
        return self

    def decision_scores(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        return X @ self._weights.T + self._bias

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_scores(X), axis=1)]


class QdaClassifier:
    """Per-class covariance Gaussian discriminant."""

    def __init__(self, ridge: float = 1e-6):
        self.ridge = ridge

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_, counts = np.unique(y, return_counts=True)
        _check_two_per_class(y, self.classes_, counts)
        n = X.shape[0]
        self.priors_ = counts / n
        self.means_ = []
        self._chols = []
        self._log_dets = []
        for c in self.classes_:
            rows = X[y == c]
            mu = rows.mean(axis=0)
            diff = rows - mu
            cov = _ridged(diff.T @ diff / rows.shape[0], self.ridge)
            chol = np.linalg.cholesky(cov)
            self.means_.append(mu)
            self._chols.append(chol)
            self._log_dets.append(2.0 * np.sum(np.log(np.diag(chol))))
        self.means_ = np.vstack(self.means_)
        return self

    def decision_scores(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        scores = np.empty((X.shape[0], self.classes_.size))
        for k, (mu, chol, logdet) in enumerate(zip(self.means_, self._chols, self._log_dets)):
            z = np.linalg.solve(chol, (X - mu).T)
            maha = np.sum(z * z, axis=0)
            scores[:, k] = -0.5 * logdet - 0.5 * maha + np.log(self.priors_[k])
        return scores

    def predict(self, X) -> np.ndarray:
        return self.classes_[np.argmax(self.decision_scores(X), axis=1)]
