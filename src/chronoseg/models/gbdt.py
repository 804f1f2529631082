"""Histogram-based gradient boosted trees with logistic loss.

One engine, one growth loop, two presets that differ only in which limit
stops a tree: "lgbm" at num_leaves leaves (leaf-wise, Ke et al., LightGBM,
NeurIPS 2017), "xgb" at max_depth (level-wise, Chen & Guestrin, XGBoost, KDD
2016). PRESETS declares each preset's model name and limit once, and every
hyperparameter's default is a keyword default of ``train_gbdt``. The loop
splits the open leaf of highest gain first. A leaf at the depth limit, or any
leaf once the leaf budget is spent, is never searched. Without a leaf budget
every searched leaf with a split is split, so the order of the splits cannot
change an "xgb" tree.

A limit keeps a leaf from being searched only in a tree that reaches it, so
a fit whose every tree stays strictly below its own preset's limit (fewer
than num_leaves leaves for "lgbm", depth below max_depth for "xgb") grew every
tree to completion. Such a fit is also the fit of another preset on the same
rows when its trees stay within that preset's limit and every other
keyword of ``train_gbdt`` but ``preset`` and the limits is equal; ``serves``
reads this rule off the trees. A tree that reaches the other limit exactly
is still that preset's tree: the leaves the limit keeps from being searched
found no split.

Features are pre-binned (at most 255 bins per feature) once per fit, from
one sort of every column: a feature's distinct values start its runs of equal
sorted values, and its boundaries are the midpoints between them. The bin
codes are kept once, feature-major, one searchsorted per row of X.T. The flat
histogram codes, the root's split candidates, which do not depend on the
gradients, and the scratch arrays that every split search writes into are
built once per fit too, so a search allocates little more than bincount's
result. For every leaf searched, the candidate splits (bins that leave
min_child_samples rows on each side and that some row occupies) come from the
sorted bin codes of its rows, each with its feature index. One weighted
bincount fills a (p, width, 2) histogram that interleaves the gradient and
hessian sums of every bin, so it reads as one complex g + ih per bin. Complex
addition adds the real and the imaginary parts separately, so one complex
cumulative sum, run up to the node's last candidate bin, gives the very floats
of two; the feature totals are sums over each plane's stride-2 view, which
NumPy groups pairwise as it does contiguous rows. The gain is computed only at
the candidates, in row-major order so ties break on lowest feature, then
lowest bin (Ke et al., section 3). Leaf values are Newton steps
-G/(H+lambda) with the learning rate folded in; each round adds them to the
training scores through the final leaf partition and takes one sigmoid for
the next gradients.

The trees are ``TreeNode`` trees in feature space, predicted and summed by the
same walks as CART. A split at bin b of feature f sends a row left when its
code is <= b, which holds exactly when x < boundaries[f][b], that is when
x <= nextafter(boundaries[f][b], -inf); that float is the node's threshold,
so prediction never bins X.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .tree import TreeNode, predict_tree, sum_gains


def sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.minimum(np.maximum(z, -500), 500)))


@dataclass
class Binner:
    """Per-feature bin boundaries; bin(x) = searchsorted(boundaries, x, 'right')."""

    boundaries: list[np.ndarray]

    @property
    def n_bins(self) -> np.ndarray:
        return np.array([b.size + 1 for b in self.boundaries])


def fit_binner(X: np.ndarray, max_bins: int = 255) -> Binner:
    """Boundaries at midpoints of distinct values, or at quantiles when a
    feature has more than max_bins distinct values.

    One sort of every column at once: a sorted value starts a run when it
    differs from the value before it, the test np.unique makes, so the run
    starts are the feature's distinct values and each boundary is the
    midpoint of a run's last value and the next run's first. The values of
    a run are equal, so this midpoint is the one of the two distinct values
    (of two zeros only the sign can differ, and the other operand is not
    zero). X is finite, as ``train`` checks: each NaN would start a run.
    """
    X = np.asarray(X, dtype=np.float64)
    ordered = np.sort(X.T, axis=1)
    starts = ordered[:, 1:] != ordered[:, :-1]
    counts = starts.sum(axis=1)
    mids = ((ordered[:, :-1] + ordered[:, 1:]) / 2.0)[starts]
    ends = np.cumsum(counts).tolist()
    boundaries = [mids[end - count : end] for count, end in zip(counts.tolist(), ends)]
    for f in np.flatnonzero(counts >= max_bins):
        uniq = ordered[f, np.concatenate([[True], starts[f]])]
        qs = np.quantile(uniq, np.linspace(0.0, 1.0, max_bins + 1)[1:-1])
        boundaries[f] = np.unique(qs)
    return Binner(boundaries=boundaries)


def _split_positions(
    codes_t: np.ndarray, min_child: int, last_bin: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, int]:
    """(features, positions, stop) of the splits of one node worth evaluating.

    codes_t holds the node's bin codes feature-major, (p, m), and is sorted
    along its rows in place. A row goes left when its bin is <= the split
    bin, so bin b of feature f leaves min_child rows on each side exactly
    when the min_child-th smallest code of f is <= b and b is below the
    min_child-th largest; b must also be at most last_bin[f] (n_bins - 2).
    Of those bins only the ones some row occupies are kept: an empty bin adds
    nothing to the cumulative sums, so its gain ties with the occupied bin
    before it, which argmax meets first. positions are flat indices
    feature * width + bin, feature-major with bins ascending (the row-major
    order of a dense (p, width) gain array), features[j] is the feature of
    positions[j] and stop is one past the highest bin among them.
    min_child must be >= 1.
    """
    p, m = codes_t.shape
    if m < 2 * min_child:
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), 0
    codes_t.sort(axis=1)
    window = codes_t[:, min_child - 1 : m - min_child + 1]
    hi = np.minimum(window[:, -1] - 1, last_bin)
    keep = window <= hi[:, None]
    keep[:, 1:] &= window[:, 1:] != window[:, :-1]
    bins = window[keep]
    features = np.repeat(np.arange(p), keep.sum(axis=1))
    return features, features * width + bins, int(bins.max(initial=-1)) + 1


def _best_split(
    hist: np.ndarray, candidates: tuple[np.ndarray, np.ndarray, int], reg_lambda: float, scratch: "_Scratch"
):
    """Best (gain, feature, bin) among the flat split positions, or None.

    hist is the (p, width, 2) histogram, gradient and hessian interleaved
    per bin; candidates come from _split_positions and are not empty. Every
    array of the candidates' size or the histogram's is written into scratch.
    """
    features, positions, stop = candidates
    n = positions.size
    p, width, _ = hist.shape
    # G + iH of every feature, then GL + iHL and GR + iHR of every candidate
    sides = scratch.sides[: p + 2 * n]
    totals, left, right = sides[:p], sides[p : p + n], sides[p + n :]
    # per-plane sums over a stride-2 view group like sums over contiguous rows
    hist[:, :, 0].sum(axis=1, out=totals.real)
    hist[:, :, 1].sum(axis=1, out=totals.imag)
    # complex addition and subtraction act on the two parts separately: one
    # cumulative sum for both planes, up to the last bin that is a candidate
    np.cumsum(hist.view(np.complex128)[:, :stop, 0], axis=1, out=scratch.cum[:, :stop])
    # indices are in range; take buffers its output under the default mode="raise"
    np.take(scratch.cum.reshape(-1), positions, out=left, mode="clip")
    np.take(totals, features, out=right, mode="clip")
    np.subtract(right, left, out=right)
    # G**2 / (H + lambda) of every feature (the parent's score) and of both
    # sides of every candidate
    score, den = scratch.score[: p + 2 * n], scratch.den[: p + 2 * n]
    np.square(sides.real, out=score)
    np.add(sides.imag, reg_lambda, out=den)
    np.divide(score, den, out=score)
    gains = np.add(score[p : p + n], score[p + n :], out=scratch.gains[:n])
    np.subtract(gains, np.take(score[:p], features, out=den[:n], mode="clip"), out=gains)
    np.multiply(gains, 0.5, out=gains)
    k = int(np.argmax(gains))
    gain = float(gains[k])
    if not np.isfinite(gain) or gain <= 1e-12:
        return None
    feature = int(features[k])
    return gain, feature, int(positions[k]) - feature * width


class _Scratch:
    """Arrays written by every split search of one fit, sized for its largest node."""

    def __init__(self, n: int, p: int, width: int):
        self.node_flat = np.empty(n * p * 2, dtype=np.int64)
        self.weights = np.empty(n * p, dtype=np.complex128)
        self.node_codes = np.empty(p * n, dtype=np.int32)
        self.cum = np.empty((p, width), dtype=np.complex128)
        self.sides = np.empty(p + 2 * p * width, dtype=np.complex128)
        self.score = np.empty(p + 2 * p * width)
        self.den = np.empty(p + 2 * p * width)
        self.gains = np.empty(p * width)


@dataclass
class _Leaf:
    node: TreeNode
    idx: np.ndarray
    depth: int
    split: tuple | None  # (gain, feature, bin)


class _TreeGrower:
    """Grows one tree per boosting round over bin codes fixed for the fit."""

    def __init__(self, X: np.ndarray, binner: Binner, preset: str, params: dict):
        n_bins = binner.n_bins
        n, p = X.shape
        width = int(n_bins.max())
        # the bin codes, feature-major for the per-node sorts and the row
        # partitions; NumPy sorts int32 several times faster than int64 or uint8
        X_t = np.ascontiguousarray(X.T)
        self.codes_t = np.empty((p, n), dtype=np.int32)
        for f, bounds in enumerate(binner.boundaries):
            self.codes_t[f] = np.searchsorted(bounds, X_t[f], side="right")
        self.rows = np.arange(n)
        self.params = params
        # the preset's limit stops the tree; the other one never binds
        limit = PRESETS[preset].limit
        self.max_leaves = params["num_leaves"] if limit == "num_leaves" else math.inf
        self.max_depth = params["max_depth"] if limit == "max_depth" else math.inf
        # the threshold of every bin boundary, feature after feature
        self.thresholds = np.nextafter(np.concatenate(binner.boundaries), -np.inf)
        self.first_boundary = np.cumsum(n_bins - 1) - (n_bins - 1)
        self.width = width
        self.last_bin = n_bins - 2
        # flat[i, f, k]: cell of row i, feature f, plane k (gradient, hessian) of
        # the flattened (p, width, 2) histogram; row-major, so that a search
        # reshapes it without a copy
        cell = 2 * np.add(self.codes_t.T, np.arange(p) * width, order="C")
        self.flat = np.stack([cell, cell + 1], axis=2)
        self.scratch = _Scratch(n, p, width)
        # g + ih of each row: its two weights, side by side as in the histogram
        self.gh = np.empty(n, dtype=np.complex128)
        self.root_candidates = self._candidates(self.rows)

    def grow(self, g: np.ndarray, h: np.ndarray) -> tuple[TreeNode, list[_Leaf]]:
        """The round's tree and its final leaves, which partition the rows.

        Best first: the open leaf of highest gain is split next, the
        earlier-created one on ties.
        """
        self.gh.real, self.gh.imag = g, h
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

    def _candidates(self, idx: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
        p, m = self.codes_t.shape[0], idx.size
        codes_t = np.take(self.codes_t, idx, axis=1, out=self.scratch.node_codes[: p * m].reshape(p, m), mode="clip")
        return _split_positions(codes_t, self.params["min_child_samples"], self.last_bin, self.width)

    def _search(self, idx: np.ndarray):
        if idx.size < 2 * self.params["min_child_samples"]:
            return None
        s, m, p = self.scratch, idx.size, self.codes_t.shape[0]
        if m == self.rows.size:  # the root
            flat, candidates = self.flat, self.root_candidates
        else:
            flat = np.take(self.flat, idx, axis=0, out=s.node_flat[: m * p * 2].reshape(m, p, 2), mode="clip")
            candidates = self._candidates(idx)
        if candidates[1].size == 0:
            return None
        weights = s.weights[: m * p].reshape(m, p)
        weights[...] = self.gh[idx, None]
        hist = np.bincount(flat.reshape(-1), weights.view(np.float64).reshape(-1), minlength=2 * p * self.width)
        return _best_split(hist.reshape(p, self.width, 2), candidates, self.params["reg_lambda"], s)

    def _make_leaf(self, idx: np.ndarray, depth: int, n_leaves: int) -> _Leaf:
        """A new leaf at depth in a tree of n_leaves leaves, searched unless a limit binds."""
        pr = self.params
        g_sum = float(self.gh.real[idx].sum())
        h_sum = float(self.gh.imag[idx].sum())
        node = TreeNode(n=idx.size, value=-pr["learning_rate"] * g_sum / (h_sum + pr["reg_lambda"]))
        can_split = n_leaves < self.max_leaves and depth < self.max_depth
        return _Leaf(node=node, idx=idx, depth=depth, split=self._search(idx) if can_split else None)

    def _apply_split(self, leaf: _Leaf, n_leaves: int) -> tuple[_Leaf, _Leaf]:
        gain, feature, bin_ = leaf.split
        go_left = self.codes_t[feature, leaf.idx] <= bin_
        left = self._make_leaf(leaf.idx[go_left], leaf.depth + 1, n_leaves)
        right = self._make_leaf(leaf.idx[~go_left], leaf.depth + 1, n_leaves)
        node = leaf.node
        node.feature, node.threshold, node.gain = feature, float(self.thresholds[self.first_boundary[feature] + bin_]), gain
        node.left, node.right = left.node, right.node
        return left, right


class Preset(NamedTuple):
    name: str  # the model name it is reported under
    limit: str  # the hyperparameter that stops its trees


# each boosting preset's model name and the one limit that stops its trees;
# the other preset's limit has no effect on it
PRESETS = {"lgbm": Preset("lightgbm", "num_leaves"), "xgb": Preset("xgboost", "max_depth")}


@dataclass
class GradientBoosting:
    base_score: float
    trees: list[TreeNode]
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        raw = np.full(X.shape[0], self.base_score, dtype=np.float64)
        for tree in self.trees:
            raw += predict_tree(tree, X)
        return sigmoid(raw)

    def feature_gains(self) -> np.ndarray:
        return sum_gains(self.trees, self.n_features)


def train_gbdt(
    X: np.ndarray, y: np.ndarray, preset: str = "lgbm", n_rounds: int = 100, learning_rate: float = 0.1,
    max_bins: int = 255, min_child_samples: int = 20, reg_lambda: float = 1.0, num_leaves: int = 31, max_depth: int = 6,
) -> GradientBoosting:
    params = dict(learning_rate=learning_rate, min_child_samples=min_child_samples, reg_lambda=reg_lambda,
                  num_leaves=num_leaves, max_depth=max_depth)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape

    grower = _TreeGrower(X, fit_binner(X, max_bins=max_bins), preset, params)

    prior = float(np.clip(y.mean(), 1e-6, 1 - 1e-6))
    base = float(np.log(prior / (1 - prior)))
    raw = np.full(n, base, dtype=np.float64)
    prob = sigmoid(raw)

    trees: list[TreeNode] = []
    # split searches divide by H + lambda, which is 0 when lambda is 0 and a side's hessians are 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(n_rounds):
            tree, leaves = grower.grow(prob - y, prob * (1 - prob))
            trees.append(tree)
            for leaf in leaves:
                raw[leaf.idx] += leaf.node.value
            prob = sigmoid(raw)

    return GradientBoosting(base_score=base, trees=trees, n_features=p)


def _size(tree: TreeNode, limit: str) -> int:
    """The tree's leaf count (limit "num_leaves") or depth (limit "max_depth")."""
    if tree.is_leaf:
        return 1 if limit == "num_leaves" else 0
    left, right = _size(tree.left, limit), _size(tree.right, limit)
    return left + right if limit == "num_leaves" else 1 + max(left, right)


def serves(model: GradientBoosting, fit_params: dict, params: dict) -> bool:
    """Whether model, the fit of fit_params, is also the fit of params on the same rows.

    fit_params and params hold every hyperparameter of ``train_gbdt``, the
    defaults overlaid with the given ones. model serves when every tree stays
    strictly below its own preset's limit and within the wanted preset's
    limit, and the other hyperparameters are equal.
    """
    limits = {preset.limit for preset in PRESETS.values()}
    if any(fit_params[key] != params[key] for key in fit_params.keys() - {"preset", *limits}):
        return False
    own, wanted = PRESETS[fit_params["preset"]].limit, PRESETS[params["preset"]].limit
    return all(_size(tree, own) < fit_params[own] and _size(tree, wanted) <= params[wanted] for tree in model.trees)
