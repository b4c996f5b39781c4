"""Random forest: bagged, fully grown Gini trees with per-node feature subsampling.

Each tree has its own generator, spawned from the forest's seed, which
draws the tree's bootstrap rows and then its nodes' candidate features:
ceil(sqrt(d)) of the d columns, or every column when that is all of them
(d <= 2). ``grow_forest`` grows all the trees together, depth first in
lockstep, so each tree draws its features in its own depth-first node
order.

The forest fits one label as it is and rejects more than two; it predicts
the second label iff more than half its trees vote for it.
"""

from __future__ import annotations

import math

import numpy as np

from .tree import grow_forest, predict_trees


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
        rngs = [np.random.default_rng(child)
                for child in np.random.SeedSequence(self.seed).spawn(self.n_trees)]
        samples = [rng.integers(0, n, size=n) for rng in rngs]
        self.trees_ = grow_forest(X, encoded, samples, math.ceil(math.sqrt(d)), rngs)
        return self

    def predict(self, X) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        ones = predict_trees(self.trees_, X).sum(axis=0)          # class-1 votes per row
        return self.classes_[(2 * ones > len(self.trees_)).astype(np.int64)]
