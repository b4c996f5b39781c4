"""Soft-margin kernel SVM trained by SMO with second-order working-set selection.

The dual max sum(a) - 0.5 sum a_i a_j y_i y_j K_ij subject to
0 <= a_i <= C and sum a_i y_i = 0 is solved one pair at a time, as in
LIBSVM. With g = K (a * y) and v = y - g, I_up holds the multipliers free
to move along +y (a_t < C, y_t = 1 or a_t > 0, y_t = -1) and I_low those
free to move along -y. Each update takes i = argmax of v over I_up, then j
in I_low with the largest second-order gain b^2 / a, b = v_i - v_j > 0,
a = K_ii + K_jj - 2 K_ij (WSS2; Fan, Chen & Lin, JMLR 2005). When a <= 0,
as an indefinite (sigmoid) kernel allows, a is replaced by TAU (Chen, Fan
& Lin, IEEE TNN 2006). The closed-form step is clipped to the box, and a
multiplier that reaches a bound is set to it exactly.

Training stops when m - M <= TOL, m = max of v over I_up, M = min over
I_low. The bias, the mean of v over free multipliers or (m + M) / 2 when
none is free, lies in [M, m], so kkt_violation() <= TOL.
"""

from __future__ import annotations

import numpy as np

from ..errors import ConvergenceError

KERNELS = ("rbf", "linear", "poly", "sigmoid")
COEF0 = 1.0
DEGREE = 3
TAU = 1e-12
TOL = 1e-3
# cap on pair updates; a fit that reaches it raises ConvergenceError
MAX_UPDATES = 1_000_000


def _kernel_matrix(kind, A, B, gamma):
    if kind == "linear":
        return A @ B.T
    if kind == "poly":
        return (gamma * (A @ B.T) + COEF0) ** DEGREE
    if kind == "sigmoid":
        return np.tanh(gamma * (A @ B.T) + COEF0)
    # rbf
    d2 = ((A ** 2).sum(1)[:, None] + (B ** 2).sum(1)[None, :] - 2.0 * A @ B.T)
    np.clip(d2, 0.0, None, out=d2)
    return np.exp(-gamma * d2)


class SvmClassifier:
    def __init__(self, kernel: str = "rbf", C: float = 1.0, gamma="scale"):
        if kernel not in KERNELS:
            raise ValueError(f"unknown kernel {kernel!r}; expected one of {KERNELS}")
        if C <= 0:
            raise ValueError("C must be positive")
        self.kernel = kernel
        self.C = C
        self.gamma = gamma
        self.tol = TOL

    def _resolve_gamma(self, X) -> float:
        if self.gamma == "scale":
            var = X.var()
            return 1.0 / (X.shape[1] * var) if var > 0 else 1.0 / X.shape[1]
        return float(self.gamma)

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_ = np.unique(y)
        if self.classes_.size != 2:
            raise ValueError("binary classifier: need exactly two labels present")
        ym = np.where(y == self.classes_[1], 1.0, -1.0)
        pos = ym > 0
        self.gamma_ = self._resolve_gamma(X)
        K = _kernel_matrix(self.kernel, X, X, self.gamma_)
        diag = K.diagonal()
        C = self.C

        alpha = np.zeros(X.shape[0])
        g = np.zeros(X.shape[0])             # K (alpha * ym)
        updates = 0
        while True:
            v = ym - g
            up = np.where(pos, alpha < C, alpha > 0)
            low = np.where(pos, alpha > 0, alpha < C)
            i = int(np.argmax(np.where(up, v, -np.inf)))
            m, M = v[i], v[low].min()
            if m - M <= self.tol:
                break
            if updates == MAX_UPDATES:
                raise ConvergenceError(
                    f"SMO did not reach KKT tolerance {self.tol} within {MAX_UPDATES} "
                    f"pair updates", iterations=updates, achieved=float(m - M))
            b = m - v
            a = diag[i] + diag - 2.0 * K[i]
            a[a <= 0] = TAU
            j = int(np.argmax(np.where(low & (b > 0), b * b / a, -np.inf)))
            # alpha_i += y_i t runs toward end_i, alpha_j -= y_j t toward end_j
            end_i, end_j = (C if pos[i] else 0.0), (0.0 if pos[j] else C)
            room_i, room_j = abs(end_i - alpha[i]), abs(end_j - alpha[j])
            t = min(b[j] / a[j], room_i, room_j)
            alpha[i] = end_i if t == room_i else alpha[i] + ym[i] * t
            alpha[j] = end_j if t == room_j else alpha[j] - ym[j] * t
            g += t * (K[i] - K[j])
            updates += 1

        free = (alpha > 0) & (alpha < C)
        self._b = float(v[free].mean()) if free.any() else float(m + M) / 2.0
        self.n_sweeps_ = updates             # pair updates
        support = alpha > 1e-8
        self.support_vectors_ = X[support]
        self.dual_coef_ = alpha[support] * ym[support]
        self.alpha_ = alpha
        self._train_margins = g + self._b
        self._train_ym = ym
        return self

    def decision_function(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        K = _kernel_matrix(self.kernel, X, self.support_vectors_, self.gamma_)
        return K @ self.dual_coef_ + self._b

    def predict(self, X) -> np.ndarray:
        return np.where(self.decision_function(X) >= 0, self.classes_[1], self.classes_[0])

    @property
    def bias(self) -> float:
        return self._b

    def kkt_violation(self) -> float:
        """Largest complementary-slackness violation on the training set."""
        yf = self._train_ym * self._train_margins
        a = self.alpha_
        viol = np.zeros_like(a)
        at_zero = a <= 1e-8
        at_c = a >= self.C - 1e-8
        middle = ~(at_zero | at_c)
        viol[at_zero] = np.maximum(0.0, 1.0 - yf[at_zero])
        viol[at_c] = np.maximum(0.0, yf[at_c] - 1.0)
        viol[middle] = np.abs(yf[middle] - 1.0)
        return float(viol.max()) if viol.size else 0.0
