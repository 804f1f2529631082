"""Histogram-based gradient boosted trees with logistic loss.

One engine, one growth loop, two presets that differ only in which limit
stops a tree: "lgbm" at num_leaves leaves (leaf-wise, Ke et al., LightGBM,
NeurIPS 2017), "xgb" at max_depth (level-wise, Chen & Guestrin, XGBoost, KDD
2016). The loop splits the open leaf of highest gain first. A leaf at the
depth limit, or any leaf once the leaf budget is spent, is never searched.
Without a leaf budget every searched leaf with a split is split, so the order
of the splits cannot change an "xgb" tree.

Features are pre-binned (at most 255 bins per feature) once per fit; the flat
histogram codes and the root's split candidates, which do not depend on the
gradients, are built once per fit too. For every leaf searched, the candidate
splits (bins that leave min_child_samples rows on each side and that some row
occupies) come from the sorted bin codes of its rows; one weighted bincount
fills a stacked (2, p, width) gradient/hessian histogram, one cumulative sum
runs over it and the gain is computed only at the candidates, in row-major
order so ties break on lowest feature, then lowest bin (Ke et al., section
3). Leaf values are Newton steps -G/(H+lambda) with the learning rate folded
in; each round adds them to the training scores through the final leaf
partition and takes one sigmoid for both the loss and the next gradients.

The trees are ``TreeNode`` trees in feature space, predicted and summed by the
same walks as CART. A split at bin b of feature f sends a row left when its
code is <= b, which holds exactly when x < boundaries[f][b], that is when
x <= nextafter(boundaries[f][b], -inf); that float is the node's threshold,
so prediction never bins X.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError
from .tree import TreeNode, predict_tree, sum_gains


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500), 500)))


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.minimum(np.maximum(p, 1e-15), 1 - 1e-15)
    return float(-((y * np.log(p) + (1 - y) * np.log(1 - p)).sum() / p.size))


@dataclass
class Binner:
    """Per-feature bin boundaries; bin(x) = searchsorted(boundaries, x, 'right')."""

    boundaries: list[np.ndarray]

    @property
    def n_bins(self) -> np.ndarray:
        return np.array([b.size + 1 for b in self.boundaries])

    def transform(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        out = np.empty(X.shape, dtype=np.int64)
        for f, bounds in enumerate(self.boundaries):
            out[:, f] = np.searchsorted(bounds, X[:, f], side="right")
        return out


def fit_binner(X: np.ndarray, max_bins: int = 255) -> Binner:
    """Boundaries at midpoints of distinct values, or at quantiles when a
    feature has more than max_bins distinct values."""
    X = np.asarray(X, dtype=np.float64)
    boundaries = []
    for f in range(X.shape[1]):
        uniq = np.unique(X[:, f])
        if uniq.size <= max_bins:
            bounds = (uniq[:-1] + uniq[1:]) / 2.0
        else:
            qs = np.quantile(uniq, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
            bounds = np.unique(qs)
        boundaries.append(bounds)
    return Binner(boundaries=boundaries)


def _split_positions(
    codes_t: np.ndarray, min_child: int, last_bin: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """(counts, positions) of the splits of one node worth evaluating.

    codes_t holds the node's bin codes feature-major, (p, m). A row goes left
    when its bin is <= the split bin, so bin b of feature f leaves min_child
    rows on each side exactly when the min_child-th smallest code of f is
    <= b and b is below the min_child-th largest; b must also be at most
    last_bin[f] (n_bins - 2). Of those bins only the ones some row occupies
    are kept: an empty bin adds nothing to the cumulative sums, so its gain
    ties with the occupied bin before it, which argmax meets first. positions
    are flat indices feature * width + bin, feature-major with bins
    ascending (the row-major order of a dense (p, width) gain array), and
    counts[f] is how many of them belong to feature f. min_child must be >= 1.
    """
    p, m = codes_t.shape
    if m < 2 * min_child:
        return np.zeros(p, dtype=np.int64), np.empty(0, dtype=np.int64)
    window = np.sort(codes_t, axis=1)[:, min_child - 1 : m - min_child + 1]
    hi = np.minimum(window[:, -1] - 1, last_bin)
    keep = window <= hi[:, None]
    keep[:, 1:] &= window[:, 1:] != window[:, :-1]
    return keep.sum(axis=1), (window + (np.arange(p) * width)[:, None])[keep]


def _best_split(hist: np.ndarray, counts: np.ndarray, positions: np.ndarray, reg_lambda: float):
    """Best (gain, feature, bin) among the flat split positions, or None.

    hist stacks the (p, width) gradient and hessian histograms; counts and
    positions come from _split_positions.
    """
    if positions.size == 0:
        return None
    G, H = hist.sum(axis=2)
    parent = np.repeat((G**2) / (H + reg_lambda), counts)
    G = np.repeat(G, counts)
    H = np.repeat(H, counts)
    GL, HL = np.cumsum(hist, axis=2).reshape(2, -1)[:, positions]
    GR = G - GL
    HR = H - HL
    gains = 0.5 * (GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda) - parent)
    k = int(np.argmax(gains))
    gain = float(gains[k])
    if not np.isfinite(gain) or gain <= 1e-12:
        return None
    feature, bin_ = divmod(int(positions[k]), hist.shape[2])
    return gain, feature, bin_


@dataclass
class _Leaf:
    node: TreeNode
    idx: np.ndarray
    depth: int
    split: tuple | None  # (gain, feature, bin)


class _TreeGrower:
    """Grows one tree per boosting round over bin codes fixed for the fit."""

    def __init__(self, X: np.ndarray, binner: Binner, preset: str, params: dict):
        codes, n_bins = binner.transform(X), binner.n_bins
        n, p = codes.shape
        width = int(n_bins.max())
        self.codes = codes
        self.rows = np.arange(n)
        self.params = params
        self.max_leaves = params["num_leaves"] if preset == "lgbm" else math.inf
        self.max_depth = params["max_depth"] if preset == "xgb" else math.inf
        # the threshold of every bin boundary, feature after feature; one array, as
        # one small array per feature left the fit's large temporaries where
        # malloc trims and page-faults them again on every split search
        self.thresholds = np.nextafter(np.concatenate(binner.boundaries), -np.inf)
        self.first_boundary = np.cumsum(n_bins - 1) - (n_bins - 1)
        self.width = width
        self.last_bin = n_bins - 2
        # flat[k, i, f]: cell of row i, feature f in block k (gradient, hessian)
        # of the flattened (2, p, width) histogram
        flat = codes + np.arange(p) * width
        self.flat = np.stack([flat, flat + p * width])
        # feature-major for the per-node sorts; NumPy sorts int32 several
        # times faster than int64 or uint8
        self.codes_t = np.ascontiguousarray(codes.T, dtype=np.int32)
        self.root_positions = self._positions(self.rows)

    def grow(self, g: np.ndarray, h: np.ndarray) -> tuple[TreeNode, list[_Leaf]]:
        """The round's tree and its final leaves, which partition the rows.

        Best first: the open leaf of highest gain is split next, the
        earlier-created one on ties.
        """
        self.g, self.h = g, h
        root = self._make_leaf(self.rows, 0, 1)
        nodes, heap, n_leaves = [root], [], 1
        if root.split:
            heap.append((-root.split[0], 0, root))
        while heap and n_leaves < self.max_leaves:
            _, _, leaf = heapq.heappop(heap)
            n_leaves += 1
            for child in self._apply_split(leaf, n_leaves):
                nodes.append(child)
                if child.split:
                    heapq.heappush(heap, (-child.split[0], len(nodes), child))
        return root.node, [leaf for leaf in nodes if leaf.node.is_leaf]

    def _positions(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return _split_positions(self.codes_t[:, idx], self.params["min_child_samples"], self.last_bin, self.width)

    def _search(self, idx: np.ndarray):
        if idx.size < 2 * self.params["min_child_samples"]:
            return None
        if idx.size == self.rows.size:  # the root
            flat, (counts, positions) = self.flat, self.root_positions
        else:
            flat, (counts, positions) = self.flat[:, idx], self._positions(idx)
        if positions.size == 0:
            return None
        weights = np.empty(flat.shape)
        weights[0] = self.g[idx, None]
        weights[1] = self.h[idx, None]
        _, _, p = flat.shape
        hist = np.bincount(flat.ravel(), weights.ravel(), minlength=2 * p * self.width)
        return _best_split(hist.reshape(2, p, self.width), counts, positions, self.params["reg_lambda"])

    def _make_leaf(self, idx: np.ndarray, depth: int, n_leaves: int) -> _Leaf:
        """A new leaf at depth in a tree of n_leaves leaves, searched unless a limit binds."""
        pr = self.params
        g_sum = float(self.g[idx].sum())
        h_sum = float(self.h[idx].sum())
        node = TreeNode(n=idx.size, value=-pr["learning_rate"] * g_sum / (h_sum + pr["reg_lambda"]))
        can_split = n_leaves < self.max_leaves and depth < self.max_depth
        return _Leaf(node=node, idx=idx, depth=depth, split=self._search(idx) if can_split else None)

    def _apply_split(self, leaf: _Leaf, n_leaves: int) -> tuple[_Leaf, _Leaf]:
        gain, feature, bin_ = leaf.split
        go_left = self.codes[leaf.idx, feature] <= bin_
        left = self._make_leaf(leaf.idx[go_left], leaf.depth + 1, n_leaves)
        right = self._make_leaf(leaf.idx[~go_left], leaf.depth + 1, n_leaves)
        node = leaf.node
        node.feature, node.threshold, node.gain = feature, float(self.thresholds[self.first_boundary[feature] + bin_]), gain
        node.left, node.right = left.node, right.node
        return left, right


DEFAULT_PARAMS = {
    "n_rounds": 100,
    "learning_rate": 0.1,
    "max_bins": 255,
    "min_child_samples": 20,
    "reg_lambda": 1.0,
    "num_leaves": 31,  # leaf-wise preset
    "max_depth": 6,  # level-wise preset
}


@dataclass
class GradientBoosting:
    preset: str  # "lgbm" | "xgb"
    base_score: float
    trees: list[TreeNode]
    n_features: int
    train_losses: list[float] = field(default_factory=list)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        raw = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            raw += predict_tree(tree, X)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def feature_gains(self) -> np.ndarray:
        return sum_gains(self.trees, self.n_features)


def train_gbdt(X: np.ndarray, y: np.ndarray, preset: str = "lgbm", **overrides) -> GradientBoosting:
    if preset not in ("lgbm", "xgb"):
        raise DataError(f"unknown gbdt preset {preset!r}")
    params = dict(DEFAULT_PARAMS)
    params.update(overrides)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape

    grower = _TreeGrower(X, fit_binner(X, max_bins=params["max_bins"]), preset, params)

    prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    base = float(np.log(prior / (1 - prior)))
    raw = np.full(n, base, dtype=np.float64)
    prob = sigmoid(raw)

    trees: list[TreeNode] = []
    losses = [log_loss(y, prob)]
    # split searches divide by H + lambda, which is 0 when lambda is 0 and a side's hessians are 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(params["n_rounds"]):
            tree, leaves = grower.grow(prob - y, prob * (1 - prob))
            trees.append(tree)
            for leaf in leaves:
                raw[leaf.idx] += leaf.node.value
            prob = sigmoid(raw)
            losses.append(log_loss(y, prob))

    return GradientBoosting(preset=preset, base_score=base, trees=trees, n_features=p, train_losses=losses)
