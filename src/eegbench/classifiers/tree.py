"""CART decision trees shared by the forest and boosting ensembles.

Split search is vectorized across all candidate features at once:
sort each candidate column, build cumulative class counts (or target
sums), and score every cut position in one pass. Classification nodes
minimize Gini impurity; regression nodes minimize within-node variance.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1


class DecisionTree:
    """One fitted tree over flat node arrays; ``apply`` maps rows to leaf ids."""

    def __init__(self, criterion: str, max_depth=None, max_features=None,
                 rng: np.random.Generator | None = None):
        if criterion not in ("gini", "mse"):
            raise ValueError(f"unknown criterion {criterion!r}")
        self.criterion = criterion
        self.max_depth = max_depth
        self.max_features = max_features
        self.rng = rng
        self.feature: list = []
        self.threshold: list = []
        self.left: list = []
        self.right: list = []
        self.value: list = []
        self.n_classes = 0

    # -- construction -------------------------------------------------

    def fit(self, X, targets):
        X = np.asarray(X, dtype=float)
        t = np.asarray(targets)
        if self.criterion == "gini":
            t = t.astype(np.int64)
            self.n_classes = int(t.max()) + 1 if t.size else 0
        else:
            t = t.astype(float)
        self._grow(X, t, np.arange(X.shape[0]), depth=0)
        return self

    def _new_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _leaf_value(self, t):
        if self.criterion == "gini":
            counts = np.bincount(t, minlength=self.n_classes)
            return int(np.argmax(counts))  # smallest class index wins ties
        return float(t.mean())

    def _grow(self, X, t, idx, depth) -> int:
        node = self._new_node()
        sub_t = t[idx]
        pure = (sub_t == sub_t[0]).all() if self.criterion == "gini" else sub_t.var() <= 1e-14
        # both children of a split are nonempty, and a one-row node is pure
        if pure or (self.max_depth is not None and depth >= self.max_depth):
            self.value[node] = self._leaf_value(sub_t)
            return node
        split = self._best_split(X, sub_t, idx)
        if split is None:
            self.value[node] = self._leaf_value(sub_t)
            return node
        feat, thr = split
        go_left = X[idx, feat] <= thr
        self.feature[node] = feat
        self.threshold[node] = thr
        self.left[node] = self._grow(X, t, idx[go_left], depth + 1)
        self.right[node] = self._grow(X, t, idx[~go_left], depth + 1)
        return node

    def _candidate_features(self, d: int):
        if self.max_features is None or self.max_features >= d:
            return np.arange(d)
        return np.sort(self.rng.choice(d, size=self.max_features, replace=False))

    def _best_split(self, X, sub_t, idx):
        d = X.shape[1]
        feats = self._candidate_features(d)
        cols = X[np.ix_(idx, feats)]
        n = idx.size
        order = np.argsort(cols, axis=0, kind="stable")
        sorted_x = np.take_along_axis(cols, order, axis=0)
        valid = sorted_x[:-1] < sorted_x[1:]          # (n-1, f) cut between t-1 and t
        if not valid.any():
            return None
        left_n = np.arange(1, n, dtype=float)[:, None]
        right_n = n - left_n
        if self.criterion == "gini":
            onehot = sub_t[order][:, :, None] == np.arange(self.n_classes)[None, None, :]
            cum = np.cumsum(onehot, axis=0)[:-1].astype(float)   # (n-1, f, K)
            score = (cum ** 2).sum(axis=2) / left_n
            score += ((cum[-1:] + onehot[-1][None] - cum) ** 2).sum(axis=2) / right_n
            parent = float((np.bincount(sub_t, minlength=self.n_classes).astype(float) ** 2).sum() / n)
        else:
            sorted_y = sub_t[order]
            cum = np.cumsum(sorted_y, axis=0)[:-1]
            total = cum[-1] + sorted_y[-1]
            score = cum ** 2 / left_n + (total[None, :] - cum) ** 2 / right_n
            parent = float((sub_t.sum() ** 2) / n)
        score = np.where(valid, score, -np.inf)
        flat = int(np.argmax(score))
        if score.ravel()[flat] <= parent + 1e-10 * max(1.0, parent):
            return None                                # no impurity decrease
        pos, fcol = np.unravel_index(flat, score.shape)
        lo, hi = sorted_x[pos, fcol], sorted_x[pos + 1, fcol]
        thr = lo + (hi - lo) / 2.0
        if thr >= hi:                                  # adjacent floats
            thr = lo
        return int(feats[fcol]), float(thr)

    # -- inference ----------------------------------------------------

    def apply(self, X) -> np.ndarray:
        """Leaf node id for every row."""
        X = np.asarray(X, dtype=float)
        out = np.zeros(X.shape[0], dtype=np.int64)
        stack = [(0, np.arange(X.shape[0]))]
        while stack:
            node, rows = stack.pop()
            if rows.size == 0:
                continue
            feat = self.feature[node]
            if feat == _LEAF:
                out[rows] = node
                continue
            go_left = X[rows, feat] <= self.threshold[node]
            stack.append((self.left[node], rows[go_left]))
            stack.append((self.right[node], rows[~go_left]))
        return out

    def predict(self, X) -> np.ndarray:
        leaf_ids = self.apply(X)
        values = np.asarray(self.value)
        return values[leaf_ids]

    def set_leaf_values(self, mapping: dict):
        """Overwrite leaf payloads (used by boosting's per-leaf line search)."""
        for node, val in mapping.items():
            if self.feature[node] != _LEAF:
                raise ValueError(f"node {node} is not a leaf")
            self.value[node] = float(val)

    @property
    def n_nodes(self) -> int:
        return len(self.feature)
