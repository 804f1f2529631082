"""Random forest of CART trees: bootstrap rows, subsample features per split.

Each tree owns one generator, spawned from the seed, so tree i is stable
under n_trees changes. The generator draws the tree's bootstrap rows first,
then the candidate features of each split. ``grow_trees`` grows all trees
together, one node per tree per step in that tree's own depth-first order, so
each generator is consumed in the order a one-tree-at-a-time builder would
consume it, and every tree is the same to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

from .tree import CartTree, grow_trees


@dataclass
class RandomForest:
    trees: list[CartTree]
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros(np.asarray(X).shape[0], dtype=np.float64)
        for tree in self.trees:
            scores += tree.predict_proba(X)
        return scores / len(self.trees)

    def feature_gains(self) -> np.ndarray:
        gains = np.zeros(self.n_features, dtype=np.float64)
        for tree in self.trees:
            gains += tree.feature_gains()
        return gains


def build_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 100,
    max_features: int | str | None = "sqrt",
    bootstrap: bool = True,
    min_samples_split: int = 2,
    seed: int = 0,
) -> RandomForest:
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if max_features == "sqrt":
        max_features = ceil(sqrt(p))
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n_trees)]
    samples = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs]
    trees = grow_trees(X, y, samples, min_samples_split=min_samples_split, max_features=max_features, rngs=rngs)
    return RandomForest(trees=trees, n_features=p)
