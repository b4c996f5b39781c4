"""CART decision trees shared by the forest and boosting ensembles.

Classification trees are two-class, on labels 0 and 1: their nodes minimize
Gini impurity, computed from each side's class-1 count. Regression nodes
minimize within-node variance. Three growers build the same trees:

- ``DecisionTree.grow`` from a ``presort`` grows one tree depth first from
  columns argsorted once, stably (SLIQ's presorted attribute lists; Mehta,
  Agrawal & Rissanen 1996). A split partitions every column's order stably
  by the side each row goes to, so a node's rows stay in value order with
  ties in row order, as a stable sort of the node alone would leave them,
  and every cumsum adds in the same order. ``DecisionTree.fit`` grows every
  tree that draws no features this way, and boosting sorts its training
  matrix once per fit and grows all its stages' ``mse`` trees from that one
  presort (XGBoost's column block; Chen & Guestrin 2016, section 4.1).
- A tree that draws candidate features (``max_features`` below the column
  count) sorts its drawn columns at every node instead, and it is the only
  tree ``grow`` takes without a presort (``root`` None). The draws come from
  the tree's generator in depth-first node order, and any other order would
  draw other features. Partitioning every column at every node costs more
  than sorting the few drawn ones: 100 forest trees on a 450 x 207 matrix,
  15 columns drawn per node, took 0.85-1.18 s sorting per node against
  1.69-1.94 s presorted (one thread of a shared 2-core VM), with identical
  trees.
- ``grow_gini_forest`` grows many Gini trees on all columns together, one
  pass per tree level. Each column is sorted once per tree and partitioned
  stably at each split, and the cuts of every open node of every tree are
  scored at once. Class-1 counts are integer cumsums, so every score,
  threshold and tie-break is computed exactly as ``_best_split`` computes
  it, and the trees are equal node for node; only node ids differ, being
  numbered level by level instead of depth first.

``apply_trees`` and ``predict_trees`` walk any number of trees at once:
their nodes are laid end to end in flat arrays, and each step moves every
(tree, row) pair that has not reached a leaf down one level.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1

# Layout entries (rows x columns) that ``grow_gini_forest`` grows at once.
# A forest fit of 100 trees on 400 x 2 peaks at 13.4 MB of traced
# allocations when all trees grow in one pass, against 1.7 MB tree by tree;
# 16 384 entries (20 such trees a pass) keep the peak near 4 MB.
GROW_BLOCK = 16_384


def presort(X):
    """The root of every tree grown on all rows of ``X`` from one sort.

    Returns each column's stable row order, the sorted values, and the
    cuts between distinct neighbours, all (rows x columns) but the cuts
    (one row fewer).
    """
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=0)
    return order, sorted_x, sorted_x[:-1] < sorted_x[1:]


def _partition(rows, sorted_x, mask):
    """Each column's rows and sorted values split stably by ``mask``: left, then right."""
    d = rows.shape[1]
    goes_left = mask[rows.T]
    return [(rows.T[side].reshape(d, -1).T, sorted_x.T[side].reshape(d, -1).T, None)
            for side in (goes_left, ~goes_left)]


class DecisionTree:
    """One fitted tree over flat node arrays; ``apply_trees`` maps rows to leaf ids."""

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

    def fit(self, X, targets):
        """Grow depth first and set every leaf's value (majority class or mean)."""
        X = np.asarray(X, dtype=float)
        t = np.asarray(targets).astype(np.int64 if self.criterion == "gini" else float)
        draws = self.max_features is not None and self.max_features < X.shape[1]
        self.grow(X, t, None if draws else presort(X))
        for leaf, rows in self.leaf_rows_:
            self.value[leaf] = self._leaf_value(t[rows])
        return self

    def grow(self, X, t, root=None):
        """Grow the nodes depth first, leaving every leaf's value 0.

        ``root`` is ``presort(X)``, or None for a tree that sorts its drawn
        columns at each node, which needs ``max_features`` below the column
        count. ``leaf_rows_`` lists each leaf with its rows of ``X``, ascending.
        """
        self.leaf_rows_ = []
        self._grow(X, t, np.arange(X.shape[0]), 0, root)
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
            return int(2 * t.sum() > t.size)  # class 0 wins ties
        return float(t.mean())

    def _leaf(self, node, idx) -> int:
        self.leaf_rows_.append((node, idx))
        return node

    def _grow(self, X, t, idx, depth, sorted_cols) -> int:
        """Grow the subtree of rows ``idx`` (ascending); ``sorted_cols`` is their share of the presort."""
        node = self._new_node()
        if self.max_depth is not None and depth >= self.max_depth:
            return self._leaf(node, idx)
        n = idx.size
        sub_t = t[idx]
        # both children of a split are nonempty, and a one-row node is pure
        total = sub_t.sum(keepdims=True)             # gini: the class-1 count
        if self.criterion == "gini":
            pure = total[0] in (0, n)
        else:
            dev = sub_t - total / n                  # sub_t.var(), term for term
            pure = (dev * dev).sum() / n <= 1e-14
        if pure:
            return self._leaf(node, idx)
        if sorted_cols is None:
            feats = np.sort(self.rng.choice(X.shape[1], size=self.max_features, replace=False))
            order, sorted_x, valid = presort(X[np.ix_(idx, feats)])
            sorted_t = sub_t[order]
        else:
            rows, sorted_x, valid = sorted_cols
            if valid is None:
                valid = sorted_x[:-1] < sorted_x[1:]
            sorted_t = t[rows]
        split = self._best_split(sorted_x, sorted_t, valid, total)
        if split is None:
            return self._leaf(node, idx)
        pos, col = split
        lo, hi = sorted_x[pos, col], sorted_x[pos + 1, col]
        thr = lo + (hi - lo) / 2.0
        if thr >= hi:                                  # adjacent floats
            thr = lo
        left = right = None
        if sorted_cols is None:
            feat = int(feats[col])
            go_left = X[idx, feat] <= thr
        else:
            # lo <= thr < hi: the rows before the cut go left
            feat = int(col)
            mask = np.zeros(t.size, dtype=bool)
            mask[rows[:pos + 1, col]] = True
            go_left = mask[idx]
            if self.max_depth is None or depth + 1 < self.max_depth:   # else both are leaves
                left, right = _partition(rows, sorted_x, mask)
        self.feature[node] = feat
        self.threshold[node] = float(thr)
        self.left[node] = self._grow(X, t, idx[go_left], depth + 1, left)
        self.right[node] = self._grow(X, t, idx[~go_left], depth + 1, right)
        return node

    def _best_split(self, sorted_x, sorted_t, valid, total):
        """(position, column) of the best cut of the node's sorted columns, or None."""
        n = sorted_t.shape[0]
        left_n = np.arange(1, n, dtype=float)[:, None]
        right_n = n - left_n
        cum = np.cumsum(sorted_t, axis=0)              # cum[-1] is each column's total
        left, right = cum[:-1], cum[-1] - cum[:-1]
        if self.criterion == "gini":
            # sums of squared class counts: integers, so exact in float
            score = ((left_n - left) ** 2 + left ** 2) / left_n
            score += ((right_n - right) ** 2 + right ** 2) / right_n
            parent = float(((n - total[0]) ** 2 + total[0] ** 2) / n)
        else:
            score = left ** 2 / left_n + right ** 2 / right_n
            parent = float(total[0] ** 2 / n)
        score = np.where(valid, score, -np.inf)        # cut between t-1 and t
        flat = int(np.argmax(score))
        if score.ravel()[flat] <= parent + 1e-10 * max(1.0, parent):
            return None                                # no impurity decrease, or no cut
        return divmod(flat, score.shape[1])

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def _walk(trees, X):
    """Leaf of every (tree, row) pair, numbered across the trees' nodes laid end to end.

    Returns the (trees x rows) node numbers and each tree's first number.
    """
    X = np.asarray(X, dtype=float)
    n, d = X.shape
    sizes = [tree.n_nodes for tree in trees]
    first = np.cumsum(sizes) - sizes
    shift = np.repeat(first, sizes)
    feature = np.concatenate([tree.feature for tree in trees])
    threshold = np.concatenate([tree.threshold for tree in trees])
    left = np.concatenate([tree.left for tree in trees]) + shift
    right = np.concatenate([tree.right for tree in trees]) + shift
    x = X.ravel()
    node = np.repeat(first, n)
    row_start = np.tile(np.arange(n) * d, len(trees))
    live = np.flatnonzero(feature[node] != _LEAF)
    while live.size:
        at = node[live]
        go_left = x[row_start[live] + feature[at]] <= threshold[at]
        at = np.where(go_left, left[at], right[at])
        node[live] = at
        live = live[feature[at] != _LEAF]
    return node.reshape(len(trees), n), first


def apply_trees(trees, X) -> np.ndarray:
    """(trees x rows) leaf ids, each numbered within its own tree, from one walk."""
    node, first = _walk(trees, X)
    return node - first[:, None]


def predict_trees(trees, X) -> np.ndarray:
    """(trees x rows) leaf values from one walk."""
    node, _ = _walk(trees, X)
    return np.concatenate([tree.value for tree in trees])[node]


def grow_gini_forest(X, y, samples) -> list[DecisionTree]:
    """One Gini tree on all columns of ``X`` per row of ``samples``, grown level-wise.

    ``samples`` is an (n_trees, n) array of row indices into ``X`` and the
    0/1 labels ``y``. Tree ``b`` equals, node for node,
    ``DecisionTree("gini").fit(X[samples[b]], y[samples[b]])``
    with its nodes numbered in level order.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    samples = np.asarray(samples)
    per_batch = max(1, GROW_BLOCK // (samples.shape[1] * X.shape[1]))
    trees = []
    for first in range(0, samples.shape[0], per_batch):
        trees += _grow_batch(X, y, samples[first:first + per_batch])
    return trees


def _grow_batch(X, y, samples) -> list[DecisionTree]:
    n_trees, n = samples.shape
    d = X.shape[1]
    V, Y = X[samples.ravel()], y[samples.ravel()]     # tree b owns rows [b*n, (b+1)*n)
    cols = np.arange(d)
    # Layout: column j of P holds the rows of every open node as one contiguous
    # segment sorted by V[:, j]; ties keep row order, as a stable sort per node does.
    # (np.take and np.compress gather much faster here than fancy indexing.)
    P = (np.argsort(V.reshape(n_trees, n, d), axis=1, kind="stable")
         + (np.arange(n_trees) * n)[:, None, None]).reshape(-1, d)
    # the open nodes of the current level, in layout order
    owner = np.arange(n_trees)
    size = np.full(n_trees, n)
    ones = Y.reshape(n_trees, n).sum(axis=1)          # each node's class-1 count
    n_nodes = n_trees
    go_left = np.zeros(V.shape[0], dtype=bool)
    levels = []
    while size.size:
        # split search, as in _best_split, on the impure nodes
        grow = (ones > 0) & (ones < size)
        P = np.compress(np.repeat(grow, size), P, axis=0)
        g_node, g_size, g_ones = np.flatnonzero(grow), size[grow], ones[grow]
        g_start = np.cumsum(g_size) - g_size
        seg = np.repeat(np.arange(g_node.size), g_size)
        Vs = np.take(V, P * d + cols)
        cum = np.zeros((P.shape[0] + 1, d), dtype=np.int64)
        np.take(Y, P, out=cum[1:])
        np.cumsum(cum, axis=0, out=cum)
        cum = cum.ravel()                 # entry p*d + j: column j's class-1 count before p
        # every cut between distinct values inside a segment, in (position, column) order
        at = np.flatnonzero((Vs[:-1] < Vs[1:]) & (seg[1:] == seg[:-1])[:, None])
        pos, col = np.divmod(at, d)
        k = seg[pos]
        cut_left = np.take(cum, at + d) - np.take(cum, g_start[k] * d + col)
        cut_right = g_ones[k] - cut_left
        left_n = pos - g_start[k] + 1
        right_n = g_size[k] - left_n
        # integer sums of squared counts are exact, so these equal _best_split's floats
        score = ((left_n - cut_left) ** 2 + cut_left ** 2) / left_n
        score += ((right_n - cut_right) ** 2 + cut_right ** 2) / right_n
        # the first best cut of each node that has a cut
        first = np.ones(k.size, dtype=bool)
        first[1:] = k[1:] != k[:-1]
        group = np.flatnonzero(first)
        best = np.maximum.reduceat(score, group)
        hit = np.where(score == best[np.cumsum(first) - 1], np.arange(k.size), k.size)
        pick = np.minimum.reduceat(hit, group)
        s = k[pick]
        parent = ((g_size[s] - g_ones[s]) ** 2 + g_ones[s] ** 2) / g_size[s]
        gain = best > parent + 1e-10 * np.maximum(1.0, parent)
        pick, s = pick[gain], s[gain]
        lo, hi = Vs.ravel()[at[pick]], Vs.ravel()[at[pick] + d]
        thr = lo + (hi - lo) / 2.0
        thr = np.where(thr >= hi, lo, thr)                 # adjacent floats

        split = g_node[s]
        feature = np.full(size.size, _LEAF)
        threshold = np.zeros(size.size)
        left = np.full(size.size, _LEAF)
        value = (2 * ones > size).astype(float)           # class 0 wins ties
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
        ones = np.column_stack([cut_left[pick], cut_right[pick]]).ravel()
        n_nodes += size.size
    return _batch_trees(levels, n_trees)


def _batch_trees(levels, n_trees) -> list[DecisionTree]:
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
        tree = DecisionTree("gini")
        tree.feature = feature[nodes].tolist()
        tree.threshold = threshold[nodes].tolist()
        tree.left = left[nodes].tolist()
        tree.right = right[nodes].tolist()
        tree.value = value[nodes].tolist()
        trees.append(tree)
    return trees
