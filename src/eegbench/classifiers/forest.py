"""Random forest: bagged, fully grown Gini trees with per-node feature subsampling.

Each tree has its own generator, spawned from the forest's seed, which
draws the tree's bootstrap rows and then its nodes' candidate features:
ceil(sqrt(d)) of the d columns. When that is every column (d <= 2) no
tree draws features, and ``grow_gini_forest`` grows all trees together,
one pass per tree level. Otherwise each tree grows depth first, so its
feature draws come in the same node order as always; the two growers give
equal trees, so the choice moves no prediction.

The forest fits one label as it is and rejects more than two; it predicts
the second label iff more than half its trees vote for it.
"""

from __future__ import annotations

import math

import numpy as np

from .tree import DecisionTree, grow_gini_forest, predict_trees


class RandomForestClassifier:
    def __init__(self, n_trees: int = 100, seed: int = 0):
        if n_trees < 1:
            raise ValueError("need at least one tree")
        self.n_trees = n_trees
        self.seed = seed

    def fit(self, X, y):
        X = np.asarray(X, dtype=float)
        y = np.asarray(y)
        self.classes_, encoded = np.unique(y, return_inverse=True)
        if self.classes_.size > 2:
            raise ValueError("binary classifier: need at most two labels")
        n, d = X.shape
        mf = min(d, math.ceil(math.sqrt(d)))
        rngs = [np.random.default_rng(child)
                for child in np.random.SeedSequence(self.seed).spawn(self.n_trees)]
        samples = [rng.integers(0, n, size=n) for rng in rngs]
        if mf == d:
            self.trees_ = grow_gini_forest(X, encoded, samples)
            return self
        self.trees_ = [DecisionTree("gini", max_features=mf, rng=rng).fit(X[rows], encoded[rows])
                       for rng, rows in zip(rngs, samples)]
        return self

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ones = predict_trees(self.trees_, X).sum(axis=0)          # class-1 votes per row
        return self.classes_[(2 * ones > len(self.trees_)).astype(np.int64)]
