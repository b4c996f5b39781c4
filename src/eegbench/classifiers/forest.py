"""Random forest: bagged Gini trees with per-node feature subsampling.

Each tree has its own generator, spawned from the forest's seed, which
draws the tree's bootstrap rows and then its nodes' candidate features.
When every node takes every column (``max_features`` reaches the column
count) no tree draws features, and ``grow_gini_forest`` grows all trees
together, one pass per tree level. Otherwise each tree grows depth first,
so its feature draws come in the same node order as always; the two
growers give equal trees, so the choice moves no prediction.
"""

from __future__ import annotations

import math
import numbers

import numpy as np

from .tree import DecisionTree, check_max_depth, grow_gini_forest


class RandomForestClassifier:
    def __init__(self, n_trees: int = 100, max_features="sqrt", max_depth=None, seed: int = 0):
        if n_trees < 1:
            raise ValueError("need at least one tree")
        if not (max_features in ("sqrt", None)
                or (isinstance(max_features, numbers.Integral)
                    and not isinstance(max_features, bool) and max_features >= 1)):
            raise ValueError(f"max_features must be 'sqrt', None or an integer >= 1, "
                             f"got {max_features!r}")
        check_max_depth(max_depth)
        self.n_trees = n_trees
        self.max_features = max_features
        self.max_depth = max_depth
        self.seed = seed

    def _n_features(self, d: int) -> int:
        if self.max_features == "sqrt":
            return min(d, math.ceil(math.sqrt(d)))
        if self.max_features is None:
            return d
        return min(d, int(self.max_features))

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        n, d = X.shape
        mf = self._n_features(d)
        rngs = [np.random.default_rng(child)
                for child in np.random.SeedSequence(self.seed).spawn(self.n_trees)]
        samples = [rng.integers(0, n, size=n) for rng in rngs]
        if mf == d:
            self.trees_ = grow_gini_forest(X, encoded, samples, self.max_depth)
            return self
        self.trees_ = [DecisionTree("gini", max_depth=self.max_depth, max_features=mf,
                                    rng=rng).fit(X[rows], encoded[rows])
                       for rng, rows in zip(rngs, samples)]
        return self

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        counts = np.zeros((X.shape[0], self.classes_.size), dtype=np.int64)
        rows = np.arange(X.shape[0])
        for tree in self.trees_:
            counts[rows, tree.predict(X).astype(np.int64)] += 1
        return self.classes_[np.argmax(counts, axis=1)]
