"""Histogram-based gradient boosted trees with logistic loss.

One engine, two growth strategies: "lgbm" grows leaf-wise up to num_leaves,
"xgb" grows level-wise up to max_depth. Features are pre-binned (at most 255
bins per feature) once per fit; the flat histogram codes and the root's split
candidates, which do not depend on the gradients, are built once per fit too.
A leaf at max_depth, or any leaf once the num_leaves budget is spent, is never
searched. For every other leaf with enough rows, the candidate splits (bins
that leave min_child_samples rows on each side and that some row occupies)
come from the sorted bin codes of its rows; one weighted bincount fills a
stacked (2, p, width) gradient/hessian histogram, one cumulative sum runs over
it and the gain is computed only at the candidates, in row-major order so ties
break on lowest feature, then lowest bin (Ke et al., LightGBM, NeurIPS 2017,
section 3). Leaf values are Newton steps -G/(H+lambda) with the learning rate
folded in; each round adds them to the training scores through the final leaf
partition and takes one sigmoid for both the loss and the next gradients.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

import numpy as np

from ..errors import DataError


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500), 500)))


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.minimum(np.maximum(p, 1e-15), 1 - 1e-15)
    return float(-((y * np.log(p) + (1 - y) * np.log(1 - p)).sum() / p.size))


@dataclass
class BoostNode:
    value: float = 0.0  # leaf output (already shrunk)
    feature: int = -1
    bin: int = -1  # rows with bin index <= this go left
    gain: float = 0.0
    left: "BoostNode | None" = None
    right: "BoostNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


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
    node: BoostNode
    idx: np.ndarray
    depth: int
    split: tuple | None  # (gain, feature, bin)


class _TreeGrower:
    """Grows one tree per boosting round over bin codes fixed for the fit."""

    def __init__(self, codes: np.ndarray, n_bins: np.ndarray, preset: str, params: dict):
        n, p = codes.shape
        width = int(n_bins.max())
        self.codes = codes
        self.rows = np.arange(n)
        self.preset = preset
        self.params = params
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

    def grow(self, g: np.ndarray, h: np.ndarray) -> tuple[BoostNode, list[_Leaf]]:
        """The round's tree and its final leaves, which partition the rows."""
        self.g, self.h = g, h
        self.leaves: list[_Leaf] = []
        if self.preset == "lgbm":
            root = self._grow_leafwise(self.params["num_leaves"])
        else:
            root = self._grow_levelwise(self.params["max_depth"])
        return root, [leaf for leaf in self.leaves if leaf.node.is_leaf]

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

    def _make_leaf(self, idx: np.ndarray, depth: int, can_split: bool) -> _Leaf:
        pr = self.params
        g_sum = float(self.g[idx].sum())
        h_sum = float(self.h[idx].sum())
        node = BoostNode(value=-pr["learning_rate"] * g_sum / (h_sum + pr["reg_lambda"]))
        leaf = _Leaf(node=node, idx=idx, depth=depth, split=self._search(idx) if can_split else None)
        self.leaves.append(leaf)
        return leaf

    def _apply_split(self, leaf: _Leaf, can_split: bool) -> tuple[_Leaf, _Leaf]:
        gain, feature, bin_ = leaf.split
        node = leaf.node
        go_left = self.codes[leaf.idx, feature] <= bin_
        left = self._make_leaf(leaf.idx[go_left], leaf.depth + 1, can_split)
        right = self._make_leaf(leaf.idx[~go_left], leaf.depth + 1, can_split)
        node.value = 0.0
        node.feature = feature
        node.bin = bin_
        node.gain = gain
        node.left = left.node
        node.right = right.node
        return left, right

    def _grow_leafwise(self, num_leaves: int) -> BoostNode:
        root = self._make_leaf(self.rows, 0, num_leaves > 1)
        heap: list[tuple[float, int, _Leaf]] = []
        counter = 0  # heap tie-break: earlier-created leaf first
        if root.split:
            heapq.heappush(heap, (-root.split[0], counter, root))
        leaves = 1
        while heap and leaves < num_leaves:
            _, _, leaf = heapq.heappop(heap)
            leaves += 1
            left, right = self._apply_split(leaf, leaves < num_leaves)
            for child in (left, right):
                if child.split:
                    counter += 1
                    heapq.heappush(heap, (-child.split[0], counter, child))
        return root.node

    def _grow_levelwise(self, max_depth: int) -> BoostNode:
        root = self._make_leaf(self.rows, 0, max_depth > 0)
        level = [root]
        while level:
            next_level = []
            for leaf in level:
                if leaf.split:
                    next_level.extend(self._apply_split(leaf, leaf.depth + 1 < max_depth))
            level = next_level
        return root.node


def _predict_tree(node: BoostNode, codes: np.ndarray) -> np.ndarray:
    out = np.empty(codes.shape[0], dtype=np.float64)
    stack = [(node, np.arange(codes.shape[0]))]
    while stack:
        nd, idx = stack.pop()
        if idx.size == 0:
            continue
        if nd.is_leaf:
            out[idx] = nd.value
            continue
        go_left = codes[idx, nd.feature] <= nd.bin
        stack.append((nd.left, idx[go_left]))
        stack.append((nd.right, idx[~go_left]))
    return out


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
    binner: Binner
    trees: list[BoostNode]
    n_features: int
    train_losses: list[float] = field(default_factory=list)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        codes = self.binner.transform(X)
        raw = np.full(codes.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            raw += _predict_tree(tree, codes)
        return raw

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision_function(X))

    def feature_gains(self) -> np.ndarray:
        gains = np.zeros(self.n_features, dtype=np.float64)
        stack = list(self.trees)
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                gains[node.feature] += node.gain
                stack.append(node.left)
                stack.append(node.right)
        return gains


def train_gbdt(X: np.ndarray, y: np.ndarray, preset: str = "lgbm", **overrides) -> GradientBoosting:
    if preset not in ("lgbm", "xgb"):
        raise DataError(f"unknown gbdt preset {preset!r}")
    params = dict(DEFAULT_PARAMS)
    params.update(overrides)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape

    binner = fit_binner(X, max_bins=params["max_bins"])
    grower = _TreeGrower(binner.transform(X), binner.n_bins, preset, params)

    prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    base = float(np.log(prior / (1 - prior)))
    raw = np.full(n, base, dtype=np.float64)
    prob = sigmoid(raw)

    trees: list[BoostNode] = []
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

    return GradientBoosting(
        preset=preset, base_score=base, binner=binner, trees=trees, n_features=p, train_losses=losses
    )
