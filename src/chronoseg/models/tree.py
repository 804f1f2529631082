"""CART binary classification tree with Gini impurity.

Splits maximize the total Gini decrease n*imp(parent) - nL*imp(L) - nR*imp(R).
A node's split search covers all candidate features in one pass: a stable
argsort of every candidate column, one cumulative count of positives down the
sorted rows, and the gain at every row boundary where the value changes (other
rows are masked to -inf). The first maximum of each column gives its lowest
best threshold and the first maximum across columns its lowest feature, so
ties break deterministically on lowest feature index, then lowest threshold.
The same builder backs the standalone decision_tree family and the random
forest (which adds bootstrap and per-split feature subsampling).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class TreeNode:
    n: int
    value: float  # fraction of positive samples at the node
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    gain: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def _gini_total(n: int, n_pos: int) -> float:
    """n * gini impurity, i.e. the unnormalized split criterion."""
    if n == 0:
        return 0.0
    p = n_pos / n
    return n * 2.0 * p * (1.0 - p)


def _best_split(X: np.ndarray, y: np.ndarray):
    """Best (gain, column, threshold) over the columns of X, or None.

    Candidate thresholds are midpoints between consecutive distinct values;
    rows with value <= threshold go left.
    """
    n = y.size
    n_pos = int(y.sum())
    parent = _gini_total(n, n_pos)
    cols = np.arange(X.shape[1])
    order = np.argsort(X, axis=0, kind="stable")
    xs = X[order, cols]
    boundary = xs[:-1] < xs[1:]  # row i: split after sorted row i
    if not boundary.any():
        return None
    pl = np.cumsum(y[order[:-1]], axis=0)
    nl = np.arange(1, n)[:, None]
    nr = n - nl
    pr = n_pos - pl
    gains = parent - 2.0 * pl * (nl - pl) / nl - 2.0 * pr * (nr - pr) / nr
    gains[~boundary] = -np.inf
    rows = np.argmax(gains, axis=0)  # first max -> lowest threshold among ties
    best = gains[rows, cols]
    col = int(np.argmax(best))  # first max -> lowest feature among ties
    row = rows[col]
    threshold = float((xs[row, col] + xs[row + 1, col]) / 2.0)
    return float(best[col]), col, threshold


@dataclass
class CartTree:
    root: TreeNode
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape[0], dtype=np.float64)
        stack = [(self.root, np.arange(X.shape[0]))]
        while stack:
            node, idx = stack.pop()
            if idx.size == 0:
                continue
            if node.is_leaf:
                out[idx] = node.value
                continue
            go_left = X[idx, node.feature] <= node.threshold
            stack.append((node.left, idx[go_left]))
            stack.append((node.right, idx[~go_left]))
        return out

    def feature_gains(self) -> np.ndarray:
        gains = np.zeros(self.n_features, dtype=np.float64)
        stack = [self.root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                gains[node.feature] += node.gain
                stack.append(node.left)
                stack.append(node.right)
        return gains


def build_cart(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_split: int = 2,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> CartTree:
    """Grow a CART tree to purity (no depth cap).

    max_features enables per-split feature subsampling (random forest mode);
    sampled feature ids are sorted so the lowest-index tie-break is preserved
    within the sample.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    p = X.shape[1]
    all_features = np.arange(p)

    root = TreeNode(n=y.size, value=float(y.mean()))
    stack = [(root, np.arange(y.size))]
    while stack:
        node, idx = stack.pop()
        sub_y = y[idx]
        n_pos = int(sub_y.sum())
        if idx.size < min_samples_split or n_pos == 0 or n_pos == idx.size:
            continue
        if max_features is not None and max_features < p:
            features = np.sort(rng.choice(p, size=max_features, replace=False))
        else:
            features = all_features
        candidates = X[idx[:, None], features]
        found = _best_split(candidates, sub_y)
        if found is None or found[0] <= 1e-12:
            continue
        gain, col, threshold = found
        feature = int(features[col])
        go_left = candidates[:, col] <= threshold
        left_idx = idx[go_left]
        right_idx = idx[~go_left]
        node.feature = feature
        node.threshold = threshold
        node.gain = gain
        node.left = TreeNode(n=left_idx.size, value=float(y[left_idx].mean()))
        node.right = TreeNode(n=right_idx.size, value=float(y[right_idx].mean()))
        stack.append((node.left, left_idx))
        stack.append((node.right, right_idx))
    return CartTree(root=root, n_features=p)
