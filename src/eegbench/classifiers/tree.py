"""CART decision trees shared by the forest and boosting ensembles.

Classification nodes minimize Gini impurity; regression nodes minimize
within-node variance. Two growers build the same trees:

- ``DecisionTree.fit`` grows one tree node by node, depth first. At each
  node ``_best_split`` sorts every candidate column, builds cumulative
  class counts (or target sums) and scores every cut in one pass. It
  serves boosting's ``mse`` trees and every tree that draws candidate
  features (``max_features`` below the column count): those draws come
  from the tree's generator in depth-first node order, and any other
  order would draw other features.
- ``grow_gini_forest`` grows many Gini trees on all columns together, one
  pass per tree level (SLIQ's presorted attribute lists; Mehta, Agrawal &
  Rissanen 1996). Each column is sorted once per tree and partitioned
  stably at each split, and the cuts of every open node of every tree are
  scored at once. Class counts are integer cumsums, so every score,
  threshold and tie-break is computed exactly as ``_best_split`` computes
  it, and the trees are equal node for node; only node ids differ, being
  numbered level by level instead of depth first.
"""

from __future__ import annotations

import numbers

import numpy as np

_LEAF = -1

# Layout entries (rows x columns) that ``grow_gini_forest`` grows at once.
# All 100 trees of a 400 x 2 fit in one pass peak at 15 MB of traced
# allocations, against 0.7 MB tree by tree; 16 384 entries (20 such trees
# a pass) keep the peak near 4 MB.
GROW_BLOCK = 16_384


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
        """Grow depth first; ``leaf_rows_`` lists each leaf with its rows of ``X``, ascending."""
        X = np.asarray(X, dtype=float)
        t = np.asarray(targets)
        if self.criterion == "gini":
            t = t.astype(np.int64)
            self.n_classes = int(t.max()) + 1 if t.size else 0
        else:
            t = t.astype(float)
        self.leaf_rows_ = []
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

    def _leaf(self, node, sub_t, idx) -> int:
        self.value[node] = self._leaf_value(sub_t)
        self.leaf_rows_.append((node, idx))
        return node

    def _grow(self, X, t, idx, depth) -> int:
        node = self._new_node()
        sub_t = t[idx]
        if self.max_depth is not None and depth >= self.max_depth:
            return self._leaf(node, sub_t, idx)
        # both children of a split are nonempty, and a one-row node is pure
        pure = (sub_t == sub_t[0]).all() if self.criterion == "gini" else sub_t.var() <= 1e-14
        split = None if pure else self._best_split(X, sub_t, idx)
        if split is None:
            return self._leaf(node, sub_t, idx)
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

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def check_max_depth(max_depth):
    """Reject a depth limit other than None or an integer of at least 1."""
    if max_depth is not None and (isinstance(max_depth, bool)
                                  or not isinstance(max_depth, numbers.Integral)
                                  or max_depth < 1):
        raise ValueError(f"max_depth must be None or an integer >= 1, got {max_depth!r}")


def grow_gini_forest(X, y, samples, max_depth=None) -> list[DecisionTree]:
    """One Gini tree on all columns of ``X`` per row of ``samples``, grown level-wise.

    ``samples`` is an (n_trees, n) array of row indices into ``X`` and the
    integer labels ``y``. Tree ``b`` equals, node for node,
    ``DecisionTree("gini", max_depth).fit(X[samples[b]], y[samples[b]])``
    with its nodes numbered in level order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    samples = np.asarray(samples)
    n_classes = int(y.max()) + 1
    per_batch = max(1, GROW_BLOCK // (samples.shape[1] * X.shape[1]))
    trees = []
    for first in range(0, samples.shape[0], per_batch):
        trees += _grow_batch(X, y, samples[first:first + per_batch], n_classes, max_depth)
    return trees


def _grow_batch(X, y, samples, n_classes, max_depth) -> list[DecisionTree]:
    n_trees, n = samples.shape
    d = X.shape[1]
    V, Y = X[samples.ravel()], y[samples.ravel()]     # tree b owns rows [b*n, (b+1)*n)
    cols, classes = np.arange(d), np.arange(n_classes)
    # Layout: column j of P holds the rows of every open node as one contiguous
    # segment sorted by V[:, j]; ties keep row order, as a stable sort per node does.
    # (np.take and np.compress gather much faster here than fancy indexing.)
    P = (np.argsort(V.reshape(n_trees, n, d), axis=1, kind="stable")
         + (np.arange(n_trees) * n)[:, None, None]).reshape(-1, d)
    # the open nodes of the current level, in layout order
    owner = np.arange(n_trees)
    size = np.full(n_trees, n)
    counts = np.bincount(np.repeat(owner * n_classes, n) + Y,
                         minlength=n_trees * n_classes).reshape(n_trees, n_classes)
    n_nodes = n_trees
    go_left = np.zeros(V.shape[0], dtype=bool)
    levels = []
    depth = 0
    while size.size:
        # split search, as in _best_split, on the impure nodes above the depth limit
        grow = (counts < size[:, None]).all(axis=1)
        if max_depth is not None and depth >= max_depth:
            grow[:] = False
        P = np.compress(np.repeat(grow, size), P, axis=0)
        g_node, g_size, g_counts = np.flatnonzero(grow), size[grow], counts[grow]
        g_start = np.cumsum(g_size) - g_size
        seg = np.repeat(np.arange(g_node.size), g_size)
        Vs = np.take(V, P * d + cols)
        cum = np.zeros((P.shape[0] + 1, d, n_classes), dtype=np.int64)
        np.equal(np.take(Y, P)[:, :, None], classes, out=cum[1:], casting="unsafe")
        np.cumsum(cum, axis=0, out=cum)
        cum = cum.reshape(-1, n_classes)              # row p*d + j: column j's counts before p
        # every cut between distinct values inside a segment, in (position, column) order
        at = np.flatnonzero((Vs[:-1] < Vs[1:]) & (seg[1:] == seg[:-1])[:, None])
        pos, col = np.divmod(at, d)
        k = seg[pos]
        cut_left = np.take(cum, at + d, axis=0) - np.take(cum, g_start[k] * d + col, axis=0)
        cut_right = g_counts[k] - cut_left
        left_n = pos - g_start[k] + 1
        # integer sums of squared counts are exact, so these equal _best_split's floats
        score = np.einsum("ij,ij->i", cut_left, cut_left) / left_n
        score += np.einsum("ij,ij->i", cut_right, cut_right) / (g_size[k] - left_n)
        # the first best cut of each node that has a cut
        first = np.ones(k.size, dtype=bool)
        first[1:] = k[1:] != k[:-1]
        group = np.flatnonzero(first)
        best = np.maximum.reduceat(score, group)
        hit = np.where(score == best[np.cumsum(first) - 1], np.arange(k.size), k.size)
        pick = np.minimum.reduceat(hit, group)
        s = k[pick]
        parent = (g_counts[s].astype(float) ** 2).sum(axis=1) / g_size[s]
        gain = best > parent + 1e-10 * np.maximum(1.0, parent)
        pick, s = pick[gain], s[gain]
        lo, hi = Vs.ravel()[at[pick]], Vs.ravel()[at[pick] + d]
        thr = lo + (hi - lo) / 2.0
        thr = np.where(thr >= hi, lo, thr)                 # adjacent floats

        split = g_node[s]
        feature = np.full(size.size, _LEAF)
        threshold = np.zeros(size.size)
        left = np.full(size.size, _LEAF)
        value = np.argmax(counts, axis=1).astype(float)   # smallest class index wins ties
        feature[split], threshold[split], value[split] = col[pick], thr, 0.0
        left[split] = n_nodes + 2 * np.arange(split.size)
        levels.append((owner, feature, threshold, left, value))

        # children, left then right: each split segment partitioned stably
        s_size, n_left = g_size[s], left_n[pick]
        node_pos, node_col = np.full(g_node.size, -1), np.zeros_like(g_start)
        node_pos[s], node_col[s] = pos[pick], col[pick]
        mine = np.repeat(node_pos >= 0, g_size)
        p = np.flatnonzero(mine)
        go_left[np.take(P, p * d + node_col[seg[p]])] = p <= node_pos[seg[p]]
        P = np.compress(mine, P, axis=0)
        F = np.take(go_left, P)
        seg_start = np.repeat(np.cumsum(s_size) - s_size, s_size)
        lefts = np.zeros((P.shape[0] + 1, d), dtype=np.int64)
        lefts[1:] = F
        np.cumsum(lefts, axis=0, out=lefts)
        lefts_before = lefts[:-1] - np.take(lefts, seg_start, axis=0)
        rights_before = (np.arange(P.shape[0]) - seg_start)[:, None] - lefts_before
        dest = seg_start[:, None] + np.where(F, lefts_before,
                                             np.repeat(n_left, s_size)[:, None] + rights_before)
        P_next = np.empty_like(P)
        np.put(P_next, dest * d + cols, P)
        P = P_next
        owner = np.repeat(owner[split], 2)
        size = np.column_stack([n_left, s_size - n_left]).ravel()
        counts = np.stack([cut_left[pick], cut_right[pick]], axis=1).reshape(-1, n_classes)
        n_nodes += size.size
        depth += 1
    return _batch_trees(levels, n_trees, n_classes, max_depth)


def _batch_trees(levels, n_trees, n_classes, max_depth) -> list[DecisionTree]:
    """Split a batch's node records, numbered level by level, into one tree each."""
    owner, feature, threshold, left, value = (np.concatenate(a) for a in zip(*levels))
    order = np.argsort(owner, kind="stable")
    bounds = np.searchsorted(owner[order], np.arange(n_trees + 1))
    local = np.empty_like(order)
    local[order] = np.arange(order.size) - np.repeat(bounds[:-1], np.diff(bounds))
    left = np.where(left == _LEAF, _LEAF, local[left])
    right = np.where(left == _LEAF, _LEAF, left + 1)     # siblings are numbered together
    trees = []
    for b in range(n_trees):
        nodes = order[bounds[b]:bounds[b + 1]]
        tree = DecisionTree("gini", max_depth=max_depth)
        tree.n_classes = n_classes
        tree.feature = feature[nodes].tolist()
        tree.threshold = threshold[nodes].tolist()
        tree.left = left[nodes].tolist()
        tree.right = right[nodes].tolist()
        tree.value = value[nodes].tolist()
        trees.append(tree)
    return trees
