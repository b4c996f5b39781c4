"""CART decision trees for the forest and boosting ensembles.

A fitted tree is a ``DecisionTree``: flat lists of node features,
thresholds, children and leaf values, numbered depth first in preorder.
Two growers fill them, both depth first, and both cut a node between
distinct neighbours of a stably sorted column, at their midpoint, taking
the first best cut in (position, column) order:

- ``DecisionTree.grow`` grows one regression tree, whose nodes minimize
  within-node variance, through a ``SplitPaths`` table: a ``presort`` of
  its matrix, each column argsorted once, stably (SLIQ's presorted
  attribute lists; Mehta, Agrawal & Rissanen 1996), and each node's rows
  in those orders, split from its parent's stably by side and kept under
  its split path while ``PATH_TABLE_BYTES`` allows. Boosting grows all its
  stages' trees through one table, so a stage that takes an earlier
  stage's split reads the children instead of partitioning again
  (XGBoost's column block; Chen & Guestrin 2016, section 4.1).
- ``grow_forest`` grows a forest's two-class Gini trees, on labels 0 and
  1, in lockstep: each step takes the next node off every tree's
  depth-first stack, as many trees as ``FOREST_BLOCK`` bounds, and splits
  all of them at once. So a tree that draws
  its nodes' candidate features (Breiman 2001) draws them from its own
  generator in its own depth-first order, and any other order would draw
  other features. One stable argsort of node number x dense value rank
  orders every taken node's rows in each of its candidate columns, ties
  in bootstrap order. A split is scored from class-1 counts, which are
  integer cumsums, so every score and tie-break is exact.

``predict_trees`` walks any number of trees at once: their nodes are
laid end to end in flat arrays, and each step moves every (tree, row)
pair that has not reached a leaf down one level.
"""

from __future__ import annotations

import numpy as np

_LEAF = -1

# Entries (node rows x candidate columns) that one ``grow_forest`` step
# scores at most, unless one node alone holds more. A step holds about
# 130 bytes of temporaries per entry: a 100-tree fit's traced peak is
# 4.3 MB at 400 x 2 and 4.4 MB at 450 x 200, against 8.0 and 45 MB with
# every root in one step.
FOREST_BLOCK = 32_768

# Bytes one ``SplitPaths`` holds at most. A 100-stage boosting fit on 400 x
# 190 wide-matrix scores needs about 23 MB to keep every split it makes; it
# took 0.67 s of CPU with 16 MiB, 0.88 s with 8 MiB and 1.05 s with none.
PATH_TABLE_BYTES = 16 << 20


def presort(X):
    """Each column's stable row order, and the cuts between distinct neighbours in it."""
    order = np.argsort(X, axis=0, kind="stable")
    sorted_x = np.take_along_axis(X, order, axis=0)
    return order, sorted_x[:-1] < sorted_x[1:]


def _partition(X, node, pos, col, leaves):
    """Both children's entries, left then right in one tuple, of ``node`` cut after
    sorted position ``pos`` of column ``col``; at the depth cap (``leaves``), rows only.

    Each column's order splits stably by side, so a child's rows stay in
    value order with ties in row order, as a stable sort of it would leave them.
    """
    idx, rows, _ = node
    mask = np.zeros(X.shape[0], dtype=bool)
    mask[rows[:pos + 1, col]] = True
    go_left = mask[idx]
    if leaves:
        return idx[go_left], None, None, idx[~go_left], None, None
    goes_left = mask[rows.T]
    kids = ()
    for side, goes in ((go_left, goes_left), (~go_left, ~goes_left)):
        child_rows = rows.T[goes].reshape(rows.shape[1], -1).T
        sorted_x = np.take_along_axis(X, child_rows, axis=0)
        kids += (idx[side], child_rows, ~(sorted_x[:-1] < sorted_x[1:]))
    return kids


class SplitPaths:
    """The nodes that regression trees of one depth cap grown on one matrix reach.

    A node's key is ``()`` at the root and ``(key, pos, col, side)`` for
    side 0 (left) or 1 of the cut after sorted position ``pos`` of column
    ``col`` of node ``key``; this path fixes its rows. Its entry is its
    rows ascending, its rows in each column's order, in the smallest
    unsigned type that holds the row count, and its invalid cuts (between
    equal neighbours). The table grows to at most ``PATH_TABLE_BYTES``.
    """

    def __init__(self, X):
        self.X = np.asarray(X, dtype=float)
        order, cuts = presort(self.X)
        rows = np.arange(len(order), dtype=np.min_scalar_type(len(order)))
        self.root = (rows, order.astype(rows.dtype), ~cuts)
        # an m-row node's rows left of each cut are counts[:m - 1], right counts[m - 2::-1]
        self.counts = np.arange(1, rows.size, dtype=float)[:, None]
        self.nbytes = sum(a.nbytes for a in (*self.root, self.counts))
        self.children: dict = {}

    def split(self, key, node, pos, col, leaves):
        """``_partition`` of node ``key``, whose entry is ``node``, from the table if it holds it."""
        kids = self.children.get((key, pos, col))
        if kids is None:
            kids = _partition(self.X, node, pos, col, leaves)
            size = sum(a.nbytes for a in kids if a is not None)
            if self.nbytes + size <= PATH_TABLE_BYTES:
                self.children[key, pos, col] = kids
                self.nbytes += size
        return kids


def _best_split(sorted_t, invalid, total, counts):
    """(position, column) of the variance-minimizing cut of a node's sorted columns, or None."""
    n = sorted_t.shape[0]
    cum = sorted_t.cumsum(axis=0)                      # cum[-1] is each column's total
    left, right = cum[:-1], cum[-1] - cum[:-1]
    score = left ** 2 / counts[:n - 1] + right ** 2 / counts[n - 2::-1]
    parent = float(total * total / n)                  # total ** 2, which squares as x * x
    score[invalid] = -np.inf                           # cut between t-1 and t
    flat = int(score.argmax())
    if score.item(flat) <= parent + 1e-10 * max(1.0, parent):
        return None                                    # no variance decrease, or no cut
    return divmod(flat, score.shape[1])


class DecisionTree:
    """One fitted tree over flat node lists; ``grow`` grows a regression tree."""

    def __init__(self, max_depth=None):
        self.max_depth = max_depth
        self.feature: list = []
        self.threshold: list = []
        self.left: list = []
        self.right: list = []
        self.value: list = []

    def grow(self, t, paths) -> list:
        """Grow the nodes on targets ``t`` through ``SplitPaths`` ``paths``, leaving leaf
        values 0; returns each leaf with its rows of the matrix, ascending, in preorder."""
        leaves = []
        self._grow(t, paths, (), paths.root, 0, leaves)
        return leaves

    def _new_node(self) -> int:
        self.feature.append(_LEAF)
        self.threshold.append(0.0)
        self.left.append(_LEAF)
        self.right.append(_LEAF)
        self.value.append(0.0)
        return len(self.feature) - 1

    def _grow(self, t, paths, key, entry, depth, leaves) -> int:
        """Grow the subtree of node ``key`` of ``paths``, whose entry is ``entry``,
        appending its leaves and their rows to ``leaves``."""
        node = self._new_node()
        idx = entry[0].astype(np.intp)                 # numpy gathers fastest by intp
        split = None
        if self.max_depth is None or depth < self.max_depth:
            n = idx.size
            sub_t = t[idx]
            total = np.add.reduce(sub_t)               # sub_t.sum(), without its wrapper
            dev = sub_t - total / n                    # sub_t.var(), term for term
            if np.add.reduce(dev * dev) / n > 1e-14:   # a one-row node is pure
                rows = entry[1].astype(np.intp)
                split = _best_split(t[rows], entry[2], total, paths.counts)
        if split is None:
            leaves.append((node, idx))
            return node
        pos, col = split
        lo, hi = paths.X[rows[pos, col], col], paths.X[rows[pos + 1, col], col]
        thr = lo + (hi - lo) / 2.0
        if thr >= hi:                                  # adjacent floats
            thr = lo
        # lo <= thr < hi: the rows before the cut go left
        kids = paths.split(key, entry, pos, col, depth + 1 == self.max_depth)
        self.feature[node] = int(col)
        self.threshold[node] = float(thr)
        self.left[node] = self._grow(t, paths, (key, pos, col, 0), kids[:3], depth + 1, leaves)
        self.right[node] = self._grow(t, paths, (key, pos, col, 1), kids[3:], depth + 1, leaves)
        return node

    @property
    def n_nodes(self) -> int:
        return len(self.feature)


def predict_trees(trees, X) -> np.ndarray:
    """(trees x rows) leaf values from one walk of every (tree, row) pair."""
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
    return np.concatenate([tree.value for tree in trees])[node.reshape(len(trees), n)]


def _dense_rank(X):
    """Each value's rank among the distinct values of its column, in the smallest unsigned type."""
    order, cuts = presort(X)
    steps = np.zeros(X.shape, dtype=np.min_scalar_type(X.shape[0]))
    np.cumsum(cuts, axis=0, out=steps[1:])
    rank = np.empty_like(steps)
    np.put_along_axis(rank, order, steps, axis=0)
    return rank


def grow_forest(X, y, samples, max_features, rngs=None) -> list[DecisionTree]:
    """One Gini tree per row of ``samples``, all grown depth first in lockstep.

    ``samples`` is an (n_trees, n) array of row indices into ``X`` and
    the 0/1 labels ``y``; tree ``b`` grows on ``X[samples[b]]``. While
    ``max_features`` is below the column count d, every impure node of
    tree ``b`` draws its candidate columns as
    ``np.sort(rngs[b].choice(d, size=max_features, replace=False))``;
    otherwise every column is a candidate and ``rngs`` is not read.
    Each step takes the next node of as many trees, in tree order, as
    ``FOREST_BLOCK`` entries hold, and of one tree at least.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=np.int64)
    samples = np.asarray(samples)
    n_trees, n = samples.shape
    N, d = X.shape
    m = min(max_features, d)
    rank = _dense_rank(X)
    # each stacked node owns a range of ``rows``: its rows in bootstrap order
    rows = samples.ravel().copy()
    # depth-first stacks of (first position in rows, size, parent if a right child else -1)
    stack = np.zeros((n_trees, 8, 3), dtype=np.int64)
    stack[:, 0] = np.column_stack([np.arange(n_trees) * n, np.full(n_trees, n), np.full(n_trees, -1)])
    height = np.ones(n_trees, dtype=np.int64)
    taken = np.zeros(n_trees, dtype=np.int64)        # each tree's next preorder id
    records = []
    while height.any():
        if height.max() >= stack.shape[1]:
            stack = np.concatenate([stack, np.zeros_like(stack)], axis=1)
        tree = np.flatnonzero(height)
        fits = np.cumsum(stack[tree, height[tree] - 1, 1]) * m <= FOREST_BLOCK
        tree = tree[:max(1, np.count_nonzero(fits))]
        height[tree] -= 1
        start, size, parent = stack[tree, height[tree]].T
        node = taken[tree]
        taken[tree] += 1
        first = np.cumsum(size) - size
        at = np.arange(size.sum()) + np.repeat(start - first, size)
        ones = np.add.reduceat(y[rows[at]], first)       # class-1 counts
        feature = np.full(tree.size, _LEAF)
        threshold = np.zeros(tree.size)
        value = (2 * ones > size).astype(float)          # class 0 wins ties
        records.append((tree, node, parent, feature, threshold, value))
        impure = (ones > 0) & (ones < size)
        grow = np.flatnonzero(impure)
        if not grow.size:
            continue
        at = at[np.repeat(impure, size)]
        r = rows[at]
        size, ones, start = size[grow], ones[grow], start[grow]
        first = np.cumsum(size) - size
        seg = np.repeat(np.arange(grow.size), size)
        if m == d:
            feats = np.repeat(np.arange(d)[None], grow.size, axis=0)
        else:
            feats = np.array([np.sort(rngs[b].choice(d, size=m, replace=False))
                              for b in tree[grow]])
        # every node's rows sorted in each of its candidate columns, ties in bootstrap order
        r_rank = np.take(rank, r[:, None] * d + feats[seg])
        key = seg.astype(np.min_scalar_type(grow.size * N))   # radix sorts for 16-bit keys
        order = np.argsort(key[:, None] * N + r_rank, axis=0, kind="stable")
        s_rank = np.take_along_axis(r_rank, order, axis=0)
        cum = np.zeros((r.size + 1, m), dtype=np.int64)
        np.take(y[r], order, out=cum[1:])
        np.cumsum(cum, axis=0, out=cum)
        # the cut after each sorted row: counts left of it, exact, so the scores are too
        left_n = (np.arange(r.size) - np.repeat(first, size) + 1)[:, None]
        right_n = np.repeat(size, size)[:, None] - left_n
        cut_left = cum[1:] - np.repeat(cum[first], size, axis=0)
        cut_right = np.repeat(ones, size)[:, None] - cut_left
        score = ((left_n - cut_left) ** 2 + cut_left ** 2) / left_n
        score += ((right_n - cut_right) ** 2 + cut_right ** 2) / np.maximum(right_n, 1)
        # cuts between distinct values inside a node only
        valid = np.zeros(score.shape, dtype=bool)
        valid[:-1] = (s_rank[:-1] < s_rank[1:]) & (seg[1:] == seg[:-1])[:, None]
        score[~valid] = -np.inf
        # each node's first best cut in (position, column) order, if it beats the node
        best = np.maximum.reduceat(score, first).max(axis=1)
        hit = np.where(score == np.repeat(best, size)[:, None],
                       np.arange(score.size).reshape(score.shape), score.size)
        pos, col = np.divmod(np.minimum.reduceat(hit, first).min(axis=1), m)
        # each node's rows, left (rank at most the cut's) then right, each in
        # order; a node that does not split is a leaf, whose rows are not read again
        right = r_rank[np.arange(r.size), col[seg]] > s_rank[pos, col][seg]
        rows[at] = r[np.argsort(key * 2 + right, kind="stable")]
        parent_score = ((size - ones) ** 2 + ones ** 2) / size
        s = np.flatnonzero(best > parent_score + 1e-10 * np.maximum(1.0, parent_score))
        pos, col = pos[s], col[s]
        f = feats[s, col]
        lo = X[r[order[pos, col]], f]
        hi = X[r[order[pos + 1, col]], f]
        thr = lo + (hi - lo) / 2.0
        split = grow[s]
        feature[split] = f
        threshold[split] = np.where(thr >= hi, lo, thr)   # adjacent floats
        value[split] = 0.0
        # push the right child, then the left, which is taken next
        n_left = left_n[pos, 0]
        b, h = tree[split], height[tree[split]]
        stack[b, h] = np.array([start[s] + n_left, size[s] - n_left, node[split]]).T
        stack[b, h + 1] = np.array([start[s], n_left, np.full(s.size, -1)]).T
        height[b] += 2
    return _forest_trees(records, n_trees)


def _forest_trees(records, n_trees) -> list[DecisionTree]:
    """One tree each from the lockstep steps' node records."""
    tree, node, parent, feature, threshold, value = (np.concatenate(a) for a in zip(*records))
    order = np.argsort(tree, kind="stable")           # each tree's nodes in preorder
    tree, node, parent = tree[order], node[order], parent[order]
    feature, threshold, value = feature[order], threshold[order], value[order]
    sizes = np.bincount(tree, minlength=n_trees)
    first = np.cumsum(sizes) - sizes
    left = np.where(feature == _LEAF, _LEAF, node + 1)
    right = np.full(node.size, _LEAF)
    is_right = parent >= 0
    right[first[tree[is_right]] + parent[is_right]] = node[is_right]
    trees = []
    for b in range(n_trees):
        nodes = slice(first[b], first[b] + sizes[b])
        t = DecisionTree()
        t.feature = feature[nodes].tolist()
        t.threshold = threshold[nodes].tolist()
        t.left = left[nodes].tolist()
        t.right = right[nodes].tolist()
        t.value = value[nodes].tolist()
        trees.append(t)
    return trees
