"""Random forests of CART trees with Gini impurity, grown in lockstep.

``TreeNode`` is the one node type of all three tree families: CART, the
random forest and gradient boosting (whose nodes hold feature-space
thresholds too, see ``gbdt``). ``predict_tree`` is the one walk that
predicts with a tree and ``sum_gains`` the one walk that totals split gains
per feature. A decision tree is a forest of one tree that draws neither
bootstrap rows nor features, so ``RandomForest`` is the one fitted type and
``build_forest`` the one trainer of both CART families.

Splits maximize the total Gini decrease n*imp(parent) - nL*imp(L) - nR*imp(R)
at midpoints between consecutive distinct values (rows with value <= threshold
go left); ties break on the lowest feature index, then the lowest threshold.
Every tree grows to purity (no depth cap).

``grow_trees`` grows all of a forest's trees together. Each step takes, from
every tree, the next node of that tree's own depth-first order (right child
before left) and draws that node's candidate features from that tree's own
generator. So each generator is consumed in exactly the order of a builder
that grows one tree, one node at a time, and every tree comes out the same
to the bit. A tree that draws no features puts all of its open
nodes into one step: with no draws, node order cannot change the tree.

One step's nodes share one split search. Each (node, candidate feature) pair
is a segment of the node's rows in value order, got from one sort of integer
keys that pack the segment, a per-fit dense rank of the value, the row and
its label. One cumulative count of positives runs down all segments, the gain
is scored at every boundary where the rank changes, and a node's first
maximum, in feature order and then row order, is its split. The rows of
every split node are then stably partitioned, left rows first. A step is
searched in chunks of at most ``SEARCH_CHUNK`` (row, feature) elements,
which bounds the search's temporaries.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, sqrt

import numpy as np

# (row, candidate feature) elements of one batched split search; a step holding
# more is searched in several chunks, a node holding more alone
SEARCH_CHUNK = 1 << 14


@dataclass
class TreeNode:
    n: int  # training rows at the node
    value: float  # the node's output as a leaf
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0  # rows with x[feature] <= threshold go left
    gain: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


def predict_tree(root: TreeNode, X: np.ndarray) -> np.ndarray:
    """The value of the leaf that each row of X reaches."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty(X.shape[0], dtype=np.float64)
    stack = [(root, np.arange(X.shape[0]))]
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


def sum_gains(roots: list[TreeNode], n_features: int) -> np.ndarray:
    """Total split gain per feature in one accumulator, last tree first, each
    tree in preorder with the right child before the left."""
    gains = np.zeros(n_features, dtype=np.float64)
    stack = list(roots)
    while stack:
        node = stack.pop()
        if not node.is_leaf:
            gains[node.feature] += node.gain
            stack.append(node.left)
            stack.append(node.right)
    return gains


@dataclass
class RandomForest:
    trees: list[TreeNode]
    n_features: int

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        scores = np.zeros(np.asarray(X).shape[0], dtype=np.float64)
        for tree in self.trees:
            scores += predict_tree(tree, X)
        return scores / len(self.trees)

    def feature_gains(self) -> np.ndarray:
        gains = np.zeros(self.n_features, dtype=np.float64)
        for tree in self.trees:
            gains += sum_gains([tree], self.n_features)
        return gains


def _ranks(X: np.ndarray) -> np.ndarray:
    """(p, n) rank of each row's value among its column's distinct values."""
    Xt = X.T
    order = np.argsort(Xt, axis=1)
    xs = np.take_along_axis(Xt, order, axis=1)
    dense = np.zeros(Xt.shape, dtype=np.int64)
    np.cumsum(xs[:, 1:] != xs[:, :-1], axis=1, out=dense[:, 1:])
    ranks = np.empty_like(dense)
    np.put_along_axis(ranks, order, dense, axis=1)
    return ranks


# A search key is one integer per (candidate feature, row) of a chunk of m
# nodes. It sorts as (segment, rank, row): segment node*k + j holds the node's
# rows on its j-th candidate in value order, ties in row order, and the
# lowest bit carries the row's label.
def _key_widths(n_rows: int, n_ranks: int, n_segments: int) -> tuple[int, int]:
    """Bit offsets of the rank and segment fields."""
    w_row = 1 + (n_rows - 1).bit_length()
    w_rank = w_row + (n_ranks - 1).bit_length()
    if w_rank + (n_segments - 1).bit_length() > 63:
        raise ValueError(f"a split search over {n_rows} rows and {n_segments} segments does not fit in 63 bits")
    return w_row, w_rank


def _search_key(ranks, y, rows, lens, feats):
    """Sorted search key of the nodes' rows; ranks[f, i] is row i's rank on f."""
    R, m = rows.size, lens.size
    node = np.repeat(np.arange(m), lens)
    if feats is None:
        key = ranks[:, rows]  # (p, R)
    else:
        key = ranks.take(feats[node].T * ranks.shape[1] + rows)  # (k, R)
    k = key.shape[0]
    w_row, w_rank = _key_widths(R, ranks.shape[1], m * k)
    key <<= w_row
    key |= node * k << w_rank | np.arange(R) << 1 | y[rows]
    key += (np.arange(k) << w_rank)[:, None]
    key = key.ravel()
    key.sort()
    return key


def _best_splits(X, key, rows, lens, n_pos, feats):
    """Best split of each of m nodes from their sorted search key.

    rows holds the nodes' rows (ids into X), one node after another; lens and
    n_pos are each node's row and positive counts. feats (m, k) holds each
    node's candidate features in ascending order, or is None for all
    features. Returns (nodes, gain, feature, threshold) of the nodes whose
    best gain exceeds 1e-12.
    """
    R, m = rows.size, lens.size
    k = key.size // R
    w_row, w_rank = _key_widths(R, X.shape[0], m * k)
    seg_len = lens.repeat(k)
    start = seg_len.cumsum() - seg_len
    cum = (key & 1).cumsum()
    ahead = cum[start] - (key[start] & 1)  # positives before each segment
    boundary = key >> w_row  # (segment, rank)
    boundary = boundary[1:] != boundary[:-1]  # position b: split after sorted row b
    boundary[start[1:] - 1] = False  # a segment's last row has none
    b = boundary.nonzero()[0]
    seg = key[b] >> w_rank
    nl = b - (start - 1)[seg]
    nr = seg_len[seg] - nl
    pl = cum[b] - ahead[seg]
    pr = n_pos.repeat(k)[seg] - pl
    frac = n_pos / lens
    # parent n * 2.0 * p * (1.0 - p) less each child's 2.0 * pos * (n - pos) / n,
    # in the one-node search's expression order, so every gain is the same to
    # the bit
    gains = (lens * 2.0 * frac * (1.0 - frac)).repeat(k)[seg]
    side = 2.0 * pl
    side *= nl - pl
    side /= nl
    gains -= side
    np.multiply(2.0, pr, out=side)
    side *= nr - pr
    side /= nr
    gains -= side

    # a node's boundaries run in (feature, threshold) order, so its first
    # maximum is its lowest feature, then its lowest threshold
    first = b.searchsorted(start[::k])
    count = np.append(first[1:], b.size) - first
    nodes = count.nonzero()[0]
    best = np.maximum.reduceat(gains, first[nodes])
    hits = (gains == best.repeat(count[nodes])).nonzero()[0]
    nodes = nodes[best > 1e-12]
    hit = hits[hits.searchsorted(first[nodes])]
    j = seg[hit] - nodes * k
    feature = j if feats is None else feats[nodes, j]
    # the rows either side of each boundary, and their values
    pair = rows[(key[np.add.outer(b[hit], (0, 1))] >> 1) & ((1 << (w_row - 1)) - 1)]
    values = X[pair, feature[:, None]]
    return nodes, gains[hit], feature, (values[:, 0] + values[:, 1]) / 2.0


def _partition(X, y, rows, lens, feature, threshold):
    """Stable split of each node's rows, left rows first.

    Returns the reordered rows and each node's left row and positive counts.
    """
    node = np.arange(lens.size).repeat(lens)
    go_left = X[rows, feature[node]] <= threshold[node]
    starts = lens.cumsum() - lens
    n_left = np.add.reduceat(go_left, starts, dtype=np.int64)
    pos_left = np.add.reduceat(go_left * y[rows], starts, dtype=np.int64)
    return rows[(2 * node + ~go_left).argsort(kind="stable")], n_left, pos_left


def grow_trees(
    X: np.ndarray,
    y: np.ndarray,
    samples: list[np.ndarray],
    min_samples_split: int,
    max_features: int | None,
    rngs: list[np.random.Generator],
) -> list[TreeNode]:
    """Grow one tree per sample (row ids into X, repeats allowed) in lockstep
    and return their roots.

    X is finite and y holds 0/1 labels. A max_features below X's column count
    enables per-split feature subsampling from rngs[t] for tree t; sampled
    feature ids are sorted so the lowest-index tie-break is preserved within
    the sample.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    p = X.shape[1]
    draws = max_features is not None and max_features < p
    k = max_features if draws else p
    ranks = _ranks(X)

    roots, stacks = [], []
    for sample in samples:
        n_pos = int(y[sample].sum())
        roots.append(TreeNode(n=sample.size, value=n_pos / sample.size))
        stacks.append([(roots[-1], sample, n_pos)] if _is_open(sample.size, n_pos, min_samples_split) else [])

    while True:
        # (tree, node, rows, n_pos) of this step: each tree's next node, or all of
        # its open nodes when it draws no features
        step, drawn = [], []
        for t, stack in enumerate(stacks):
            if stack and draws:
                step.append((t, *stack.pop()))
                drawn.append(rngs[t].choice(p, size=k, replace=False))
            elif stack:
                step.extend((t, *entry) for entry in stack)
                stack.clear()
        if not step:
            break
        feats = np.sort(drawn, axis=1) if draws else None
        lo = 0
        while lo < len(step):
            hi, size = lo + 1, step[lo][1].n * k
            while hi < len(step) and size + step[hi][1].n * k <= SEARCH_CHUNK:
                size += step[hi][1].n * k
                hi += 1
            _grow_chunk(X, y, ranks, step[lo:hi], None if feats is None else feats[lo:hi], stacks, min_samples_split)
            lo = hi
    return roots


def _is_open(n, n_pos, min_samples_split):
    """Whether a node of n rows, n_pos of them positive, is searched for a split."""
    return (n >= min_samples_split) & (n_pos > 0) & (n_pos < n)


def _grow_chunk(X, y, ranks, chunk, feats, stacks, min_samples_split):
    """Search and split the nodes of chunk, pushing their open children."""
    rows = np.concatenate([entry[2] for entry in chunk])
    lens = np.array([entry[1].n for entry in chunk], dtype=np.int64)
    n_pos = np.array([entry[3] for entry in chunk], dtype=np.int64)
    key = _search_key(ranks, y, rows, lens, feats)
    nodes, gain, feature, threshold = _best_splits(X, key, rows, lens, n_pos, feats)
    if not nodes.size:
        return
    n, n_pos = lens[nodes], n_pos[nodes]
    split = np.zeros(lens.size, dtype=bool)
    split[nodes] = True
    part, n_left, pos_left = _partition(X, y, rows[split.repeat(lens)], n, feature, threshold)
    part_start = n.cumsum() - n
    n_right, pos_right = n - n_left, n_pos - pos_left
    # n_pos / n equals float(y[rows].mean()) to the bit
    for i, f, thr, g, nl, nr, pl, pr, vl, vr, start in zip(
        nodes.tolist(), feature.tolist(), threshold.tolist(), gain.tolist(), n_left.tolist(), n_right.tolist(),
        pos_left.tolist(), pos_right.tolist(), (pos_left / n_left).tolist(), (pos_right / n_right).tolist(),
        part_start.tolist(),
    ):
        t, node = chunk[i][0], chunk[i][1]
        node.feature, node.threshold, node.gain = f, thr, g
        node.left = TreeNode(n=nl, value=vl)
        node.right = TreeNode(n=nr, value=vr)
        # pushed left then right, so the tree's next pop is the right child
        if _is_open(nl, pl, min_samples_split):
            stacks[t].append((node.left, part[start:start + nl], pl))
        if _is_open(nr, pr, min_samples_split):
            stacks[t].append((node.right, part[start + nl:start + nl + nr], pr))


def build_forest(
    X: np.ndarray,
    y: np.ndarray,
    n_trees: int = 100,
    max_features: int | str | None = "sqrt",
    bootstrap: bool = True,
    min_samples_split: int = 2,
    seed: int = 0,
) -> RandomForest:
    """Grow n_trees trees on bootstrap rows, drawing max_features candidate
    features per split.

    Each tree owns one generator, spawned from the seed, so tree i is stable
    under n_trees changes. The generator draws the tree's bootstrap rows
    first, then the candidate features of each split.
    """
    X = np.asarray(X, dtype=np.float64)
    n, p = X.shape
    if max_features == "sqrt":
        max_features = ceil(sqrt(p))
    rngs = [np.random.default_rng(ss) for ss in np.random.SeedSequence(seed).spawn(n_trees)]
    samples = [rng.integers(0, n, size=n) if bootstrap else np.arange(n) for rng in rngs]
    return RandomForest(grow_trees(X, y, samples, min_samples_split, max_features, rngs), p)


def build_cart(X: np.ndarray, y: np.ndarray, min_samples_split: int = 2) -> RandomForest:
    """Grow one CART tree on all rows of X, with every feature a candidate:
    a forest of one tree without bootstrap or feature draws."""
    return build_forest(X, y, n_trees=1, max_features=None, bootstrap=False, min_samples_split=min_samples_split)
