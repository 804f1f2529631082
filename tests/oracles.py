"""Reference implementations used to cross-check the package's vectorized code.

The feature, AUC and F1 references are naive pure Python, deliberately
written without numpy and without looking at the implementation under test.
The split-search references are the earlier per-feature CART loop and the
earlier dense GBDT histogram search, kept as they were so that the vectorized
kernels can be required to return the very same splits. The one-node-at-a-time
depth-first CART builder and the one-tree-at-a-time forest loop are kept as
they were, so that the lockstep builder can be required to grow the very same
trees. The earlier boosting engine, with its own bin-code node type, predict
walk, gains walk and separate leaf-wise and level-wise growth loops, is kept
as it was, so that the one feature-space tree and growth loop can be required
to give the very same predictions and gains; its split search over a stacked
(2, p, width) histogram and its per-feature np.unique binner are kept with
it, so that the interleaved histogram search and the one-sort binner can be
required to give the very same splits and boundaries. Likewise the
per-segment feature code and the per-row recording parser are the earlier
implementations, kept so that the block feature kernel and the columnar
parser can be required to give the very same bytes and errors; the one change
to the per-segment code is that it takes the third and fourth moments as
products of the squared deviations, as the kernel does (the pow forms differ
in the last bits, and tests/test_kernels.py checks the products against
them within a tolerance). So is the
per-minute interchange writer, for the bulk writer. The earlier
Nesterov-accelerated logistic fit is kept as a baseline objective that the
Newton fit must reach. The earlier scheme check, which listed every violation
and ran again for every segment lookup, is kept with the unchecked scheme it
took, so that a scheme's constructor can be required to store the very same
minutes or raise the very same message. The earlier two-branch fold
assignment, a round-robin for rows and a per-class greedy for subjects, is
kept as it was, so that the one group dealer can be required to give the very
same row plans and the same class-0 subject plans. The earlier k-NN distance,
which broadcast every (test row, training row) pair into one
(n_test, n_train, p) temporary, is kept so that the row-at-a-time distances
can be required to give the very same bits. The row-chunked csv parser of
recordings is kept as it was but for its line numbers, which count physical
lines (it counted csv rows), so that the np.loadtxt parser can be required to
return the very same arrays or raise the very same error.
"""

import csv
import heapq
import io
import math
from dataclasses import dataclass, field
from datetime import datetime, timedelta
from typing import Callable, TextIO
from math import ceil, sqrt

import numpy as np

from chronoseg.errors import ConfigError, DataError
from chronoseg.evaluation import CV_MODES, FoldPlan
from chronoseg.ingest import MINUTES_PER_DAY, READ_CHUNK_ROWS
from chronoseg.models.gbdt import Binner
from chronoseg.models.gbdt import sigmoid
from chronoseg.models.linear import LogisticModel
from chronoseg.models.tree import RandomForest, TreeNode, predict_tree


def _median_sorted(sorted_vals):
    m = len(sorted_vals)
    if m % 2:
        return float(sorted_vals[m // 2])
    return (sorted_vals[m // 2 - 1] + sorted_vals[m // 2]) / 2.0


def _quantile(sorted_vals, p):
    # position h = (n-1)p with linear interpolation
    n = len(sorted_vals)
    h = (n - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return sorted_vals[lo] + (h - lo) * (sorted_vals[hi] - sorted_vals[lo])


def naive_features(values):
    """The sixteen statistics, computed the slow and obvious way.

    Expects integer-valued input (activity counts), which keeps the entropy
    bin assignment exact.
    """
    xs = [float(v) for v in values]
    n = len(xs)
    assert n > 0
    mean = sum(xs) / n
    s = sorted(xs)
    median = _median_sorted(s)

    var = sum((v - mean) ** 2 for v in xs) / n
    std = math.sqrt(var)
    if var > 0:
        skewness = (sum((v - mean) ** 3 for v in xs) / n) / var**1.5
        kurtosis = (sum((v - mean) ** 4 for v in xs) / n) / var**2 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0

    prop_zeros = sum(1 for v in xs if v == 0) / n
    maximum = max(xs)
    mad = _median_sorted(sorted(abs(v - median) for v in xs))
    iqr = _quantile(s, 0.75) - _quantile(s, 0.25)
    cv = std / mean if mean != 0 else 0.0

    distinct = len(set(xs))
    if distinct <= 1:
        entropy = 0.0
    else:
        bins = min(16, distinct)
        mx = int(maximum)
        counts = [0] * bins
        for v in values:
            idx = min(bins - 1, (int(v) * bins) // mx)
            counts[idx] += 1
        entropy = -sum((c / n) * math.log(c / n) for c in counts if c > 0)

    den = sum((v - mean) ** 2 for v in xs)
    if den > 0 and n > 1:
        autocorr = sum((xs[t] - mean) * (xs[t + 1] - mean) for t in range(n - 1)) / den
    else:
        autocorr = 0.0

    n_peaks = sum(1 for i in range(1, n - 1) if xs[i - 1] < xs[i] > xs[i + 1])
    n_troughs = sum(1 for i in range(1, n - 1) if xs[i - 1] > xs[i] < xs[i + 1])
    semivariance = sum((mean - v) ** 2 for v in xs if v < mean) / n
    rms = math.sqrt(sum(v * v for v in xs) / n)

    return {
        "mean": mean,
        "median": median,
        "std_dev": std,
        "prop_zeros": prop_zeros,
        "skewness": skewness,
        "kurtosis": kurtosis,
        "max": maximum,
        "mad": mad,
        "iqr": iqr,
        "cv": cv,
        "entropy": entropy,
        "autocorr_lag1": autocorr,
        "n_peaks": float(n_peaks),
        "n_troughs": float(n_troughs),
        "semivariance": semivariance,
        "rms": rms,
    }


def naive_auc(scores, labels):
    """Brute-force Mann-Whitney statistic over all positive-negative pairs."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    assert pos and neg
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


def loop_roc_points(scores, labels):
    """Stepwise ROC points, one tie group at a time from the highest score."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    y = labels[order]
    points = [(0.0, 0.0)]
    tp = fp = 0
    i = 0
    while i < y.size:
        j = i
        while j < y.size and s[j] == s[i]:
            j += 1
        tp += int(y[i:j].sum())
        fp += (j - i) - int(y[i:j].sum())
        points.append((fp / n_neg, tp / n_pos))
        i = j
    return points


def naive_f1(scores, labels, threshold=0.5):
    tp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 1)
    fp = sum(1 for s, y in zip(scores, labels) if s >= threshold and y == 0)
    fn = sum(1 for s, y in zip(scores, labels) if s < threshold and y == 1)
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def loop_cart_split(X, y, features):
    """Best (gain, feature, threshold) over the candidate features, or None.

    One stable argsort per feature; ties break on the lowest feature index,
    then the lowest threshold.
    """
    n = y.size
    n_pos = int(y.sum())
    parent = n * 2.0 * (n_pos / n) * (1.0 - n_pos / n) if n else 0.0
    best = None  # (gain, feature, threshold)
    for f in features:
        col = X[:, f]
        order = np.argsort(col, kind="stable")
        xs = col[order]
        ys = y[order]
        boundaries = np.flatnonzero(xs[:-1] < xs[1:])  # split after index i
        if boundaries.size == 0:
            continue
        pos_prefix = np.cumsum(ys)
        nl = boundaries + 1
        pl = pos_prefix[boundaries]
        nr = n - nl
        pr = n_pos - pl
        with np.errstate(divide="ignore", invalid="ignore"):
            imp_l = np.where(nl > 0, 2.0 * pl * (nl - pl) / nl, 0.0)
            imp_r = np.where(nr > 0, 2.0 * pr * (nr - pr) / nr, 0.0)
        gains = parent - imp_l - imp_r
        i = int(np.argmax(gains))  # first max -> lowest threshold among ties
        gain = float(gains[i])
        if best is None or gain > best[0]:
            b = boundaries[i]
            threshold = float((xs[b] + xs[b + 1]) / 2.0)
            best = (gain, int(f), threshold)
    return best


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


def reference_build_cart(
    X: np.ndarray,
    y: np.ndarray,
    min_samples_split: int = 2,
    max_features: int | None = None,
    rng: np.random.Generator | None = None,
) -> RandomForest:
    """Grow a CART tree to purity (no depth cap), as a forest of one tree.

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
    return RandomForest(trees=[root], n_features=p)


def reference_build_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 100,
    max_features: int | str | None = "sqrt",
    bootstrap: bool = True,
    min_samples_split: int = 2,
    seed: int = 0,
) -> RandomForest:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    n, p = X.shape
    if max_features == "sqrt":
        max_features = ceil(sqrt(p))
    # one independent stream per tree so tree i is stable under n_trees changes
    streams = np.random.SeedSequence(seed).spawn(n_trees)
    trees = []
    for ss in streams:
        rng = np.random.default_rng(ss)
        if bootstrap:
            idx = rng.integers(0, n, size=n)
            Xb, yb = X[idx], y[idx]
        else:
            Xb, yb = X, y
        trees.append(
            reference_build_cart(
                Xb, yb, min_samples_split=min_samples_split, max_features=max_features, rng=rng
            ).trees[0]
        )
    return RandomForest(trees=trees, n_features=p)


def dense_gbdt_split(codes, n_bins, idx, g, h, reg_lambda, min_child):
    """Best (gain, feature, bin) of the rows idx, or None.

    Builds full gradient, hessian and count histograms with three bincounts,
    then scores every (feature, bin) cell; ties break on the lowest feature
    index then the lowest bin (np.argmax order).
    """
    p = codes.shape[1]
    width = int(n_bins.max())
    flat = (codes + np.arange(p) * width)[idx].ravel()
    size = p * width
    hist_g = np.bincount(flat, weights=np.repeat(g[idx], p), minlength=size).reshape(p, width)
    hist_h = np.bincount(flat, weights=np.repeat(h[idx], p), minlength=size).reshape(p, width)
    hist_c = np.bincount(flat, minlength=size).reshape(p, width)

    G = hist_g.sum(axis=1, keepdims=True)
    H = hist_h.sum(axis=1, keepdims=True)
    C = hist_c.sum(axis=1, keepdims=True)
    GL = np.cumsum(hist_g, axis=1)
    HL = np.cumsum(hist_h, axis=1)
    CL = np.cumsum(hist_c, axis=1)
    GR = G - GL
    HR = H - HL
    CR = C - CL

    parent = (G**2) / (H + reg_lambda)
    with np.errstate(divide="ignore", invalid="ignore"):
        gains = 0.5 * (GL**2 / (HL + reg_lambda) + GR**2 / (HR + reg_lambda) - parent)

    valid = (CL >= min_child) & (CR >= min_child)
    valid &= np.arange(width)[None, :] < (n_bins - 1)[:, None]
    gains = np.where(valid, gains, -np.inf)

    flat_best = int(np.argmax(gains))
    feature, bin_ = divmod(flat_best, width)
    gain = float(gains[feature, bin_])
    if not np.isfinite(gain) or gain <= 1e-12:
        return None
    return gain, feature, bin_


# the boosting defaults as one table, as train_gbdt's signature declares them
DEFAULT_PARAMS = {
    "n_rounds": 100,
    "learning_rate": 0.1,
    "max_bins": 255,
    "min_child_samples": 20,
    "reg_lambda": 1.0,
    "num_leaves": 31,  # leaf-wise preset
    "max_depth": 6,  # level-wise preset
}


def reference_bin_codes(binner: Binner, X: np.ndarray) -> np.ndarray:
    """Row-major bin codes, bin(x) = searchsorted(boundaries, x, 'right'), one column at a time."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape, dtype=np.int64)
    for f, bounds in enumerate(binner.boundaries):
        out[:, f] = np.searchsorted(bounds, X[:, f], side="right")
    return out


def reference_fit_binner(X: np.ndarray, max_bins: int = 255) -> Binner:
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


def _gbdt_best_split(hist: np.ndarray, counts: np.ndarray, positions: np.ndarray, reg_lambda: float):
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
class _Leaf:
    node: BoostNode
    idx: np.ndarray
    depth: int
    split: tuple | None  # (gain, feature, bin)


class _ReferenceGrower:
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
        return _gbdt_best_split(hist.reshape(2, p, self.width), counts, positions, self.params["reg_lambda"])

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


def log_loss(y: np.ndarray, p: np.ndarray) -> float:
    p = np.minimum(np.maximum(p, 1e-15), 1 - 1e-15)
    return float(-((y * np.log(p) + (1 - y) * np.log(1 - p)).sum() / p.size))


def training_losses(model, X: np.ndarray, y: np.ndarray) -> list[float]:
    """The training log-loss of a fitted GradientBoosting before its first
    round and after each, from its base score plus the running sum of its
    trees' predictions on the training rows."""
    raw = np.full(X.shape[0], model.base_score, dtype=np.float64)
    losses = [log_loss(y, sigmoid(raw))]
    for tree in model.trees:
        raw += predict_tree(tree, X)
        losses.append(log_loss(y, sigmoid(raw)))
    return losses


@dataclass
class ReferenceGradientBoosting:
    preset: str  # "lgbm" | "xgb"
    base_score: float
    binner: Binner
    trees: list[BoostNode]
    n_features: int
    train_losses: list[float] = field(default_factory=list)

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        codes = reference_bin_codes(self.binner, X)
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


def reference_train_gbdt(X: np.ndarray, y: np.ndarray, preset: str = "lgbm", **overrides) -> ReferenceGradientBoosting:
    if preset not in ("lgbm", "xgb"):
        raise DataError(f"unknown gbdt preset {preset!r}")
    params = dict(DEFAULT_PARAMS)
    params.update(overrides)
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape

    binner = reference_fit_binner(X, max_bins=params["max_bins"])
    grower = _ReferenceGrower(reference_bin_codes(binner, X), binner.n_bins, preset, params)

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

    return ReferenceGradientBoosting(
        preset=preset, base_score=base, binner=binner, trees=trees, n_features=p, train_losses=losses
    )


def per_segment_features(values):
    """The sixteen statistics of one segment, as the per-segment code computed them.

    Conventions: population moments throughout; skewness/kurtosis/cv/
    autocorrelation are 0 for degenerate inputs; entropy is over at most 16
    equal-width histogram bins spanning [0, max]; peaks/troughs are strict
    interior local extrema.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0:
        raise ValueError("cannot extract features from an empty vector")
    n = x.size
    mean = float(x.mean())
    median = float(np.median(x))
    centered = x - mean
    squares = centered**2
    m2 = float(np.mean(squares))
    std = float(np.sqrt(m2))

    if m2 > 0:
        skewness = float(np.mean(squares * centered)) / m2**1.5
        kurtosis = float(np.mean(squares * squares)) / m2**2 - 3.0
    else:
        skewness = 0.0
        kurtosis = 0.0

    prop_zeros = float(np.count_nonzero(x == 0)) / n
    maximum = float(x.max())
    mad = float(np.median(np.abs(x - median)))
    q1, q3 = np.quantile(x, [0.25, 0.75])  # linear interpolation at h=(n-1)p
    iqr = float(q3 - q1)
    cv = std / mean if mean != 0 else 0.0

    distinct = np.unique(x).size
    if distinct <= 1:
        entropy = 0.0
    else:
        # equal-width bins over [0, max], left-closed, last bin closed
        bins = min(16, distinct)
        idx = np.minimum((x * bins / maximum).astype(np.int64), bins - 1)
        counts = np.bincount(idx, minlength=bins)
        p = counts[counts > 0] / n
        entropy = float(-(p * np.log(p)).sum())

    denom = float(np.sum(centered**2))
    if denom > 0 and n > 1:
        autocorr = float(np.sum(centered[:-1] * centered[1:])) / denom
    else:
        autocorr = 0.0

    if n >= 3:
        inner = x[1:-1]
        n_peaks = int(np.count_nonzero((x[:-2] < inner) & (inner > x[2:])))
        n_troughs = int(np.count_nonzero((x[:-2] > inner) & (inner < x[2:])))
    else:
        n_peaks = 0
        n_troughs = 0

    below = centered[centered < 0]
    semivariance = float(np.sum(below**2)) / n
    rms = float(np.sqrt(np.mean(x**2)))

    return {
        "mean": mean,
        "median": median,
        "std_dev": std,
        "prop_zeros": prop_zeros,
        "skewness": skewness,
        "kurtosis": kurtosis,
        "max": maximum,
        "mad": mad,
        "iqr": iqr,
        "cv": cv,
        "entropy": entropy,
        "autocorr_lag1": autocorr,
        "n_peaks": float(n_peaks),
        "n_troughs": float(n_troughs),
        "semivariance": semivariance,
        "rms": rms,
    }


def _parse_timestamp(text):
    for fmt in ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M"):
        try:
            ts = datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
        return ts.replace(second=0, microsecond=0)
    raise ValueError(f"unparseable timestamp {text!r}")


def per_row_days(text):
    """Parse one recording row by row and keep its complete days: those whose
    rows are its 1440 minutes, consecutive and in order. A day with a gap, a
    repeated minute or rows out of order is discarded.

    Returns ([(date, values)], n_discarded) with values a list of 1440
    counts, or raises the DataError or ConfigError the per-row parser raised.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise DataError("empty file: no header row")
    header = [h.strip() for h in header]
    try:
        ts_idx = header.index("timestamp")
        act_idx = header.index("activity")
    except ValueError as exc:
        raise ConfigError(f"column missing from header {header}: {exc}")

    samples = []
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
        try:
            ts = _parse_timestamp(row[ts_idx])
            raw = row[act_idx].strip()
            activity = int(float(raw))
            if float(raw) != activity:
                raise ValueError(f"non-integer activity {raw!r}")
        except OverflowError:
            raise DataError(f"malformed row at line {lineno}: non-finite activity {raw!r}")
        except (ValueError, IndexError) as exc:
            raise DataError(f"malformed row at line {lineno}: {exc}")
        if activity < 0:
            raise DataError(f"malformed row at line {lineno}: negative activity {activity}")
        samples.append((ts, activity))

    days = {}  # date -> its rows as (sample index, minute of the day, activity)
    for i, (ts, activity) in enumerate(samples):
        days.setdefault(ts.date(), []).append((i, ts.hour * 60 + ts.minute, activity))
    kept = [(d, [activity for _, _, activity in rows]) for d, rows in sorted(days.items())
            if [(i - rows[0][0], m) for i, m, _ in rows] == [(m, m) for m in range(1440)]]
    return kept, len(days) - len(kept)


def per_minute_save_corpus(corpus, path):
    """The interchange file of a corpus, written one csv row per minute."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "label", "date", "minute", "activity"])
        for subject_id, label, day, row in zip(corpus.subject_ids, corpus.labels, corpus.dates, corpus.values):
            for minute in range(1440):
                writer.writerow([subject_id, int(label), day.isoformat(), minute, int(row[minute])])


def broadcast_squared_distances(X, X_train):
    """(n_test, n_train) squared Euclidean distances from one broadcast
    (n_test, n_train, p) array."""
    return ((X[:, None, :] - X_train[None, :, :]) ** 2).sum(axis=2)


def _clipped_sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))


def _mean_gradient(w, b, X, y, l2):
    n = X.shape[0]
    residual = _clipped_sigmoid(X @ w + b) - y
    return X.T @ residual / n + (l2 / n) * w, float(np.mean(residual))


def reference_train_logistic(X, y, l2=1.0, tol=1e-6, max_iter=1000):
    """Nesterov-accelerated logistic fit with NumPy scalars throughout."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n, p = X.shape

    design = np.hstack([X, np.ones((n, 1))])
    sigma = float(np.linalg.norm(design, 2))
    L = sigma**2 / (4 * n) + l2 / n
    step = 1.0 / L

    w = np.zeros(p)
    b = 0.0
    w_prev, b_prev = w, b
    t_prev = 1.0
    n_iter, grad_norm = 0, float("inf")
    for n_iter in range(1, max_iter + 1):
        t = (1 + np.sqrt(1 + 4 * t_prev**2)) / 2
        beta = (t_prev - 1) / t
        w_look = w + beta * (w - w_prev)
        b_look = b + beta * (b - b_prev)
        gw, gb = _mean_gradient(w_look, b_look, X, y, l2)
        w_prev, b_prev = w, b
        w = w_look - step * gw
        b = b_look - step * gb
        t_prev = t
        gw, gb = _mean_gradient(w, b, X, y, l2)
        grad_norm = float(np.sqrt(float(gw @ gw) + gb**2))
        if grad_norm <= tol:
            break
    return LogisticModel(weights=w, intercept=b, n_iter=n_iter, grad_norm=grad_norm)


@dataclass(frozen=True)
class UncheckedScheme:
    """A segmentation scheme as the earlier ``SegmentationScheme`` held it,
    with no check on construction."""

    name: str
    segments: tuple
    per_subject: bool = False

    def segment_names(self) -> list[str]:
        return [s.name for s in self.segments]


@dataclass(frozen=True)
class SchemeViolation:
    kind: str  # "overlap" | "gap" | "duplicate_name"
    detail: str
    start: int = 0
    end: int = 0


def reference_validate_scheme(scheme) -> list[SchemeViolation]:
    """Check disjointness and exact cover of [0, 1440); empty list means ok."""
    violations: list[SchemeViolation] = []
    names = scheme.segment_names()
    if len(set(names)) != len(names):
        violations.append(SchemeViolation("duplicate_name", f"segment names not unique: {names}"))

    coverage = np.zeros(MINUTES_PER_DAY, dtype=np.int32)
    for seg in scheme.segments:
        for w in seg.windows:
            coverage[w.start:w.end] += 1

    for kind, mask in (("overlap", coverage > 1), ("gap", coverage == 0)):
        idx = np.flatnonzero(mask)
        if idx.size:
            # report the first contiguous run only
            start = int(idx[0])
            end = start
            while end < MINUTES_PER_DAY and mask[end]:
                end += 1
            violations.append(SchemeViolation(kind, f"{kind} over minutes [{start}, {end})", start, end))
    return violations


def reference_segment_minutes(scheme) -> list[np.ndarray]:
    """Each segment's minutes of the day, its windows in start order, in
    scheme order; a scheme that is not an exact partition is a ConfigError."""
    violations = reference_validate_scheme(scheme)
    if violations:
        raise ConfigError(f"scheme {scheme.name!r} invalid: {violations[0].detail}")
    return [
        np.concatenate([np.arange(w.start, w.end) for w in sorted(seg.windows, key=lambda w: w.start)])
        for seg in scheme.segments
    ]


def reference_stratified_kfold(
    labels: np.ndarray,
    k: int,
    seed: int = 0,
    mode: str = "row_stratified",
    groups=None,
) -> FoldPlan:
    """Deterministic fold assignment.

    row_stratified deals each class round-robin after a seeded shuffle, so
    per-fold class counts are within 1 of proportional. subject_grouped keeps
    all rows of a subject together, greedily balancing per-class row counts
    across folds.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if mode not in CV_MODES:
        raise ConfigError(f"unknown cv mode {mode!r}; choose from {CV_MODES}")
    rng = np.random.default_rng(seed)
    assignments = np.full(n, -1, dtype=np.int64)

    if mode == "row_stratified":
        offset = 0  # carried across classes so fold sizes stay balanced
        for cls in (0, 1):
            idx = np.flatnonzero(labels == cls)
            # k == n is leave-one-out: one row per fold, always admissible
            if idx.size < k and k != n:
                raise DataError(f"class {cls} has only {idx.size} rows, need at least k={k}")
            idx = rng.permutation(idx)
            assignments[idx] = (offset + np.arange(idx.size)) % k
            offset = (offset + idx.size) % k
    else:
        if groups is None:
            raise ConfigError("subject_grouped mode requires group ids")
        groups = np.asarray(groups)
        if groups.size != n:
            raise ConfigError("group ids length does not match labels")
        unique = sorted(set(groups.tolist()))
        if len(unique) < k:
            raise DataError(f"only {len(unique)} subjects, cannot make {k} grouped folds")
        subj_label = {g: int(labels[groups == g][0]) for g in unique}
        for cls in (0, 1):
            members = [g for g in unique if subj_label[g] == cls]
            order = rng.permutation(len(members))
            members = [members[i] for i in order]
            members.sort(key=lambda g: -int(np.sum(groups == g)))  # stable: big subjects first
            fold_rows = np.zeros(k, dtype=np.int64)
            for g in members:
                fold = int(np.argmin(fold_rows))
                mask = groups == g
                assignments[mask] = fold
                fold_rows[fold] += int(mask.sum())
    return FoldPlan(k=k, assignments=assignments, mode=mode, seed=seed)

# -- the row-chunked csv parser of recordings, as it was ----------------------

EPOCH = datetime(1970, 1, 1)
MINUTE = timedelta(minutes=1)
MAX_COUNT = 2.0**63

# the zero-padded stamp: digits where the template has 0, the separators elsewhere
_STAMP_TEMPLATE = np.array([ord(c) for c in "0000-00-00 00:00:00"])
_STAMP_DIGITS = np.flatnonzero(_STAMP_TEMPLATE[:16] == ord("0"))
_STAMP_SEPARATORS = np.flatnonzero(_STAMP_TEMPLATE[:16] != ord("0"))


def _canonical_minutes(stamps: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Minutes since the epoch of each zero-padded ``YYYY-MM-DD HH:MM[:SS]``
    stamp, and a mask of the stamps that have that form and a valid date and
    time. Values where the mask is False are meaningless."""
    length = np.fromiter(map(len, stamps), dtype=np.int64, count=len(stamps))
    # longer stamps are cut to 19 characters here and rejected by their length
    code = np.array(stamps, dtype="<U19").view(np.uint32).reshape(len(stamps), 19)
    is_digit = (code >= ord("0")) & (code <= ord("9"))
    with_seconds = (length == 19) & (code[:, 16] == ord(":")) & is_digit[:, 17] & is_digit[:, 18]
    ok = (
        ((length == 16) | with_seconds)
        & is_digit[:, _STAMP_DIGITS].all(axis=1)
        & (code[:, _STAMP_SEPARATORS] == _STAMP_TEMPLATE[_STAMP_SEPARATORS]).all(axis=1)
    )

    def two(i):  # the two-digit number at position i; garbage where ok is False
        return (code[:, i].astype(np.int64) - ord("0")) * 10 + code[:, i + 1].astype(np.int64) - ord("0")

    year = two(0) * 100 + two(2)
    month, day, hour, minute, second = two(5), two(8), two(11), two(14), two(17)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour <= 23) & (minute <= 59)
    ok &= (length == 16) | (second <= 59)
    month_start = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first_day = month_start.astype("datetime64[D]").astype(np.int64)
    ok &= day <= (month_start + 1).astype("datetime64[D]").astype(np.int64) - first_day
    return (first_day + day - 1) * MINUTES_PER_DAY + hour * 60 + minute, ok


def _convert(cells: list[str], convert: Callable, failed):
    """``convert`` applied to every cell, with ``failed`` where it raises ValueError."""
    try:
        return list(map(convert, cells))
    except ValueError:
        pass
    out = []
    for cell in cells:
        try:
            out.append(convert(cell))
        except ValueError:
            out.append(failed)
    return out


def _column(rows: list[list[str]], index: int) -> list[str]:
    try:
        return [row[index] for row in rows]
    except IndexError:  # short or blank rows; the per-row parse reports them
        return [row[index] if index < len(row) else "" for row in rows]


def _parse_row(row: list[str], lineno: int, ts_idx: int, act_idx: int):
    """One row the bulk conversion did not accept, parsed on its own.

    Returns None for a blank row, else (minute, activity); raises DataError
    naming the line for a malformed row.
    """
    if not row or all(not cell.strip() for cell in row):
        return None
    try:
        ts = _parse_timestamp(row[ts_idx])
        raw = row[act_idx].strip()
        # activity counts occasionally appear as "143.0"; accept integral floats
        activity = int(float(raw))
        if float(raw) != activity:
            raise ValueError(f"non-integer activity {raw!r}")
    except OverflowError:  # inf, -inf, or a count beyond float range such as 1e400
        raise DataError(f"malformed row at line {lineno}: non-finite activity {raw!r}")
    except (ValueError, IndexError) as exc:
        raise DataError(f"malformed row at line {lineno}: {exc}")
    if activity < 0:
        raise DataError(f"malformed row at line {lineno}: negative activity {activity}")
    if activity >= MAX_COUNT:
        raise DataError(f"malformed row at line {lineno}: activity {raw!r} out of range")
    return (ts - EPOCH) // MINUTE, activity


def _parse_rows(rows: list[list[str]], linenos: list[int], ts_idx: int, act_idx: int):
    """(minutes, activity) of the non-blank rows of one chunk, row i starting
    on line ``linenos[i]``. Columns are converted in bulk; only the rows the
    bulk conversion rejects are parsed one by one."""
    minutes, ok = _canonical_minutes(_column(rows, ts_idx))
    counts = np.array(_convert(_column(rows, act_idx), float, np.nan), dtype=np.float64)
    ok &= (counts >= 0) & (counts < MAX_COUNT) & (counts == np.floor(counts))
    activity = np.where(ok, counts, 0).astype(np.int64)

    for i in np.flatnonzero(~ok).tolist():
        parsed = _parse_row(rows[i], linenos[i], ts_idx, act_idx)
        if parsed is not None:
            minutes[i], activity[i] = parsed
            ok[i] = True
    return minutes[ok], activity[ok]


def reference_parse_subject_file(stream: TextIO) -> tuple[np.ndarray, np.ndarray]:
    """One subject's recording as (minutes, activity), two int64 arrays in
    file order, split into rows by the ``csv`` module and converted
    READ_CHUNK_ROWS rows at a time.

    This is the parser as it was before recordings were read by
    ``np.loadtxt``, with two changes. A row's line number is the physical
    line it starts on, where it was the count of csv rows before it plus
    one, so a quoted cell that spans lines made every later message name a
    line too early. And on a csv error, the rows read before it are parsed
    first, so the first error in file order is the one reported.

    ``minutes`` holds minutes since 1970-01-01 00:00 on the file's naive
    clock; ``activity`` holds each minute's count. The header must name a
    ``timestamp`` and an ``activity`` column; other columns are ignored.
    Blank rows are skipped; a malformed row is a DataError naming its line.
    """
    reader = csv.reader(stream)
    minutes, activity = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    rows, linenos = [], []
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: no header row")
        header = [h.strip() for h in header]
        try:
            ts_idx = header.index("timestamp")
            act_idx = header.index("activity")
        except ValueError as exc:
            raise ConfigError(f"column missing from header {header}: {exc}")

        while True:
            rows, linenos = [], []
            for _ in range(READ_CHUNK_ROWS):
                lineno = reader.line_num + 1
                row = next(reader, None)
                if row is None:
                    break
                rows.append(row)
                linenos.append(lineno)
            if not rows:
                break
            chunk_minutes, chunk_activity = _parse_rows(rows, linenos, ts_idx, act_idx)
            minutes.append(chunk_minutes)
            activity.append(chunk_activity)
    except csv.Error as exc:
        if rows:  # a bad row before the csv error is reported first
            _parse_rows(rows, linenos, ts_idx, act_idx)
        raise DataError(f"malformed row at line {reader.line_num}: {exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"recording is not UTF-8 text: {exc}")
    return np.concatenate(minutes), np.concatenate(activity)
