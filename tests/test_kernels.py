"""The vectorized split searches, the lockstep tree builder, the boosting
engine, the block feature kernel, the logistic fit and the k-NN distances
against their references, and golden digests of a small full matrix recorded
before the searches were vectorized and of the tree presets' gain importance
recorded before the three tree families shared one node type."""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg.cli import DEFAULT_SCHEMES
from chronoseg.evaluation import run_matrix, write_fold_csv, write_report_csv, write_roc_csv
from chronoseg.features import FEATURE_NAMES, block_features, extract_features, featurize_corpus
from chronoseg.models import ModelSpec, default_model_specs, gain_importance, train
from chronoseg.models import tree as tree_module
from chronoseg.models.gbdt import _TreeGrower, fit_binner, serves, train_gbdt
from chronoseg.models.linear import logistic_objective, train_knn, train_logistic
from chronoseg.models.scaler import fit_scaler
from chronoseg.models.tree import (
    _best_splits,
    _partition,
    _ranks,
    _search_key,
    build_cart,
    build_forest,
    predict_tree,
    sum_gains,
)
from chronoseg.segmentation import resolve_scheme
from chronoseg.synth import gen_corpus

from oracles import (
    DEFAULT_PARAMS,
    broadcast_squared_distances,
    dense_gbdt_split,
    loop_cart_split,
    per_segment_features,
    reference_build_cart,
    reference_bin_codes,
    reference_build_forest,
    reference_fit_binner,
    reference_train_gbdt,
    reference_train_logistic,
)


@st.composite
def tie_heavy_matrix(draw, max_rows=30, max_cols=6):
    """Float matrix over at most four distinct values, some columns constant."""
    n = draw(st.integers(2, max_rows))
    p = draw(st.integers(1, max_cols))
    levels = draw(st.integers(1, 4))
    cells = draw(st.lists(st.integers(0, levels - 1), min_size=n * p, max_size=n * p))
    X = np.array(cells, dtype=np.float64).reshape(n, p)
    for col, constant in enumerate(draw(st.lists(st.booleans(), min_size=p, max_size=p))):
        if constant:
            X[:, col] = X[0, col]
    return X


@st.composite
def count_rows(draw):
    """(r, n) activity-like integer rows: tie-heavy, Poisson, sparse or constant,
    mixed within one block, n of 1, 2, 3 or anything up to a day."""
    n = draw(st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, 1440)))
    kinds = draw(st.lists(st.sampled_from(["ties", "poisson", "sparse", "constant"]), min_size=1, max_size=5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for kind in kinds:
        if kind == "ties":
            rows.append(rng.integers(0, draw(st.integers(1, 4)), n))
        elif kind == "poisson":
            rows.append(rng.poisson(rng.uniform(0, 400), n))
        elif kind == "sparse":
            rows.append(rng.integers(0, 60, n) * (rng.random(n) < 0.2))
        else:
            rows.append(np.full(n, draw(st.integers(0, 3))))
    return np.array(rows, dtype=np.int64)


class TestFeatureBlock:
    @given(count_rows())
    @settings(max_examples=300, deadline=None)
    def test_matches_per_segment_code(self, x):
        want = np.array([[per_segment_features(row)[name] for name in FEATURE_NAMES] for row in x])
        assert block_features(x).tobytes() == want.tobytes()
        one = extract_features(x[0])
        assert np.array([one[name] for name in FEATURE_NAMES]).tobytes() == want[0].tobytes()

    @given(count_rows())
    @settings(max_examples=300, deadline=None)
    def test_moments_match_pow_forms(self, x):
        # the kernel takes the third and fourth moments as products, which
        # round differently from the pow forms only in the last bits
        got = block_features(x)
        for row, features in zip(x.astype(np.float64), got):
            centered = row - row.mean()
            m2 = np.mean(centered**2)
            skewness = np.mean(centered**3) / m2**1.5 if m2 > 0 else 0.0
            kurtosis = np.mean(centered**4) / m2**2 - 3.0 if m2 > 0 else 0.0
            for name, want in (("skewness", skewness), ("kurtosis", kurtosis)):
                value = features[FEATURE_NAMES.index(name)]
                assert math.isclose(value, want, rel_tol=1e-9, abs_tol=1e-9), (name, value, want)


class TestSortedMedian:
    @given(st.integers(1, 40), st.integers(1, 3000), st.sampled_from(["counts", "normal", "ties"]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_median_and_mad_match_np_median(self, r, n, kind, seed):
        # the kernel takes both from sorted rows; np.median partitions
        rng = np.random.default_rng(seed)
        x = {"counts": lambda: rng.poisson(rng.uniform(0, 400), (r, n)).astype(np.float64),
             "normal": lambda: rng.normal(rng.uniform(-1e3, 1e3), rng.uniform(1e-3, 1e3), (r, n)),
             "ties": lambda: rng.integers(0, 3, (r, n)) * rng.uniform(0, 10)}[kind]()
        got = block_features(x)
        median = np.median(x, axis=1)
        mad = np.median(np.abs(x - median[:, None]), axis=1)
        assert got[:, FEATURE_NAMES.index("median")].tobytes() == median.tobytes()
        assert got[:, FEATURE_NAMES.index("mad")].tobytes() == mad.tobytes()


class TestCartSplit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_feature_loop(self, data):
        X = data.draw(tie_heavy_matrix())
        n, p = X.shape
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
        # several nodes in one search, each on its own rows (repeats allowed, as in
        # a bootstrap sample) and its own sorted candidates, or all features
        node_rows = data.draw(st.lists(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n),
                                       min_size=1, max_size=5))
        k = data.draw(st.integers(1, p))
        subsets = [sorted(data.draw(st.lists(st.integers(0, p - 1), min_size=k, max_size=k, unique=True)))
                   for _ in node_rows]
        feats = None if data.draw(st.booleans()) else np.array(subsets)
        rows = np.concatenate([np.array(r, dtype=np.int64) for r in node_rows])
        lens = np.array([len(r) for r in node_rows], dtype=np.int64)
        n_pos = np.array([int(y[r].sum()) for r in node_rows], dtype=np.int64)

        key = _search_key(_ranks(X), y, rows, lens, feats)
        nodes, gain, feature, threshold = _best_splits(X, key, rows, lens, n_pos, feats)
        got = {int(i): (g, int(f), t) for i, g, f, t in zip(nodes, gain, feature, threshold)}
        for i, r in enumerate(node_rows):
            features = np.arange(p) if feats is None else feats[i]
            expected = loop_cart_split(X[r], y[r], features)
            if expected is None or expected[0] <= 1e-12:
                assert i not in got
            else:
                assert got[i] == expected

        if not nodes.size:
            return
        # the split nodes' rows, partitioned as idx[go_left] then idx[~go_left]
        part, n_left, pos_left = _partition(X, y, np.concatenate([node_rows[i] for i in nodes]), lens[nodes],
                                            feature, threshold)
        want, start = [], 0
        for i, f, t, nl, pl in zip(nodes, feature, threshold, n_left, pos_left):
            r = np.array(node_rows[i])
            go_left = X[r, f] <= t
            want += [r[go_left], r[~go_left]]
            assert (nl, pl) == (go_left.sum(), y[r][go_left].sum())
        assert part.tolist() == np.concatenate(want).tolist()


def tree_nodes(root):
    """(feature, threshold, gain, value, n) of every node, in preorder."""
    nodes, stack = [], [root]
    while stack:
        node = stack.pop()
        nodes.append((node.feature, node.threshold, node.gain, node.value, node.n))
        if not node.is_leaf:
            stack += [node.right, node.left]
    return nodes


class TestLockstepTrees:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_forest_and_tree_match_one_at_a_time_builders(self, data):
        X = data.draw(tie_heavy_matrix(max_rows=40))
        n, p = X.shape
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
        params = {
            "n_trees": data.draw(st.integers(1, 8)),
            "max_features": data.draw(st.sampled_from([None, 1, "sqrt", p])),
            "bootstrap": data.draw(st.booleans()),
            "min_samples_split": data.draw(st.sampled_from([2, 5])),
            "seed": data.draw(st.integers(0, 2**32 - 1)),
        }
        # a small chunk splits one step over several searches
        chunk = data.draw(st.sampled_from([1, 16, tree_module.SEARCH_CHUNK]))
        saved, tree_module.SEARCH_CHUNK = tree_module.SEARCH_CHUNK, chunk
        try:
            forest = build_forest(X, y, **params)
            cart = build_cart(X, y, min_samples_split=params["min_samples_split"])
        finally:
            tree_module.SEARCH_CHUNK = saved
        want = reference_build_forest(X, y, **params)
        assert [tree_nodes(t) for t in forest.trees] == [tree_nodes(t) for t in want.trees]
        want_cart = reference_build_cart(X, y, min_samples_split=params["min_samples_split"])
        assert [tree_nodes(t) for t in cart.trees] == [tree_nodes(t) for t in want_cart.trees]
        # a decision tree is a forest of one tree: averaging one tree's scores and
        # totalling one tree's gains from zero leave their bytes as they are
        assert cart.predict_proba(X).tobytes() == predict_tree(cart.trees[0], X).tobytes()
        assert cart.feature_gains().tobytes() == sum_gains(cart.trees, p).tobytes()

    def test_threshold_rounded_onto_next_value(self):
        # the midpoint of adjacent floats 1+eps and 1+2eps rounds up to 1+2eps, so
        # the rows at the boundary's right go left too
        a, b = np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)
        X = np.array([[a], [a], [b], [b], [3.0]])
        y = np.array([0, 0, 1, 1, 1])
        cart = build_cart(X, y, min_samples_split=5)
        root = cart.trees[0]
        assert root.threshold == b and (root.left.n, root.right.n) == (4, 1)
        assert tree_nodes(root) == tree_nodes(reference_build_cart(X, y, min_samples_split=5).trees[0])


@st.composite
def wide_matrix(draw, max_cols=5):
    """Float matrix of 129 to 300 rows whose columns take up to 300 distinct
    values, so that a node's histogram can be wider than 128 bins."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(129, 300))
    p = draw(st.integers(1, max_cols))
    return rng.integers(0, draw(st.integers(2, 300)), size=(n, p)).astype(np.float64)


@st.composite
def binner_matrix(draw):
    """Columns of tied values, signed zeros and subnormals, runs of adjacent
    floats, or more distinct values than small bin limits allow; or none."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 300))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["ties", "zeros", "adjacent", "many"]), max_size=6)):
        if kind == "ties":
            col = rng.integers(0, draw(st.integers(1, 4)), n) * draw(st.sampled_from([1.0, 0.1, -1e300]))
        elif kind == "zeros":
            col = rng.choice([-0.0, 0.0, 5e-324, -5e-324, 1.0], n)
        elif kind == "adjacent":
            base = draw(st.sampled_from([1.0, -1.0, 0.1, 1e300, 5e-324, -0.0]))
            col = (np.full(n, base).view(np.int64) + rng.integers(0, draw(st.integers(1, 6)), n)).view(np.float64)
        else:
            col = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, n)
        columns.append(col)
    return np.column_stack(columns) if columns else np.empty((n, 0))


class TestGbdtSplit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_dense_histogram_search(self, data):
        # wide nodes have over 128 bins, where NumPy's pairwise sums split into blocks
        X = data.draw(st.one_of(tie_heavy_matrix(max_rows=40, max_cols=5), wide_matrix()))
        n = X.shape[0]
        binner = fit_binner(X)
        codes, n_bins = reference_bin_codes(binner, X), binner.n_bins
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        y = rng.integers(0, 2, n).astype(np.float64)
        # dyadic probabilities sum exactly and tie often, and 0 and 1 give zero
        # hessians, whose gains are inf or NaN when lambda is 0; random ones round
        if data.draw(st.booleans()):
            prob = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], n)
        else:
            prob = rng.random(n)
        g, h = prob - y, prob * (1 - prob)
        min_child = data.draw(st.integers(1, n))
        reg_lambda = data.draw(st.sampled_from([0.0, 1.0]))

        params = dict(DEFAULT_PARAMS, min_child_samples=min_child, reg_lambda=reg_lambda)
        grower = _TreeGrower(X, binner, "lgbm", params)
        grower.gh.real, grower.gh.imag = g, h
        # nodes of several sizes in turn, so every search reuses the fit's scratch
        # arrays; a share of 1 is the root path
        for share in data.draw(st.lists(st.sampled_from([1.0, 0.9, 0.6, 0.3]), min_size=1, max_size=4)):
            in_node = rng.random(n) < share
            idx = np.flatnonzero(in_node) if share < 1 and in_node.any() else np.arange(n)
            with np.errstate(divide="ignore", invalid="ignore"):
                want = dense_gbdt_split(codes, n_bins, idx, g, h, reg_lambda, min_child)
                assert grower._search(idx) == want

    @settings(max_examples=300, deadline=None)
    @given(X=binner_matrix(), max_bins=st.sampled_from([255, 1, 2, 5, 17]))
    def test_one_sort_binner_matches_per_feature_unique(self, X, max_bins):
        got, want = fit_binner(X, max_bins=max_bins), reference_fit_binner(X, max_bins=max_bins)
        assert len(got.boundaries) == len(want.boundaries) == X.shape[1]
        for a, b in zip(got.boundaries, want.boundaries):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def leaf_counts(roots):
    """Leaf count of each tree."""
    counts = []
    for root in roots:
        count, stack = 0, [root]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack += [node.left, node.right]
        counts.append(count)
    return counts


class TestBoostingTrees:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_two_loop_bin_code_engine(self, data):
        # scaled so that boundaries are also inexact midpoints and huge values
        X = data.draw(tie_heavy_matrix(max_rows=40)) * data.draw(st.sampled_from([1.0, 0.1, -1e300]))
        n, p = X.shape
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64)
        preset = data.draw(st.sampled_from(["lgbm", "xgb"]))
        params = {
            "preset": preset,
            "n_rounds": data.draw(st.integers(1, 5)),
            "min_child_samples": data.draw(st.integers(1, 5)),
            "reg_lambda": data.draw(st.sampled_from([0.0, 1.0])),
        }
        if preset == "lgbm":
            params["num_leaves"] = data.draw(st.integers(2, 8))
        else:
            params["max_depth"] = data.draw(st.integers(1, 4))
        got, want = train_gbdt(X, y, **params), reference_train_gbdt(X, y, **params)
        assert leaf_counts(got.trees) == leaf_counts(want.trees)
        assert got.feature_gains().tobytes() == want.feature_gains().tobytes()
        # every bin boundary and its two float neighbours, column by column
        columns = [np.concatenate([b, np.nextafter(b, -np.inf), np.nextafter(b, np.inf), [-np.inf, np.inf]])
                   for b in want.binner.boundaries]
        edges = np.column_stack([np.resize(c, max(c.size for c in columns)) for c in columns])
        for Z in (X, edges, np.full((1, p), -np.inf), np.full((1, p), np.inf)):
            assert got.predict_proba(Z).tobytes() == want.predict_proba(Z).tobytes()

    def test_tied_leaves_split_in_creation_order(self):
        # the root splits on column 0 into label-flipped halves, whose best splits
        # on column 1 tie; a third leaf goes to the earlier-created left half
        X = np.array([[0, 0], [0, 0], [0, 1], [0, 1], [0, 1], [1, 0], [1, 0], [1, 1], [1, 1], [1, 1]], dtype=float)
        y = np.array([0, 0, 1, 1, 0, 1, 1, 0, 0, 1], dtype=float)
        got = train_gbdt(X, y, n_rounds=1, num_leaves=3, min_child_samples=1)
        want = reference_train_gbdt(X, y, n_rounds=1, num_leaves=3, min_child_samples=1)
        assert got.trees[0].feature == 0 and got.trees[0].right.is_leaf and not got.trees[0].left.is_leaf
        assert got.predict_proba(X).tobytes() == want.predict_proba(X).tobytes()

    def test_equal_boundaries_of_adjacent_floats(self):
        # the midpoints of 1-eps/2 | 1 and of 1 | 1+eps both round onto 1.0, so
        # bins 0 and 1 share a boundary and bin 1 is empty
        lo, hi = np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)
        X = np.array([[lo], [lo], [1.0], [1.0], [hi], [hi]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 1.0, 1.0])
        for preset in ("lgbm", "xgb"):
            got = train_gbdt(X, y, preset=preset, n_rounds=2, min_child_samples=1)
            want = reference_train_gbdt(X, y, preset=preset, n_rounds=2, min_child_samples=1)
            assert want.binner.boundaries[0].tolist() == [1.0, 1.0]
            assert got.trees[0].threshold == lo
            Z = np.array([[lo], [1.0], [hi], [np.nextafter(lo, 0.0)]])
            assert got.predict_proba(Z).tobytes() == want.predict_proba(Z).tobytes()


def boosting_bytes(model, X):
    """Every node of every tree, the base score, the scores of X and the gains, as bytes."""
    nodes = np.array([node for tree in model.trees for node in tree_nodes(tree)], dtype=np.float64)
    return (nodes.tobytes(), [len(tree_nodes(tree)) for tree in model.trees], model.base_score,
            model.predict_proba(X).tobytes(), model.feature_gains().tobytes())


def depths(roots):
    """Depth of each tree: the splits on the path from its root to its deepest leaf."""
    out = []
    for root in roots:
        deepest, stack = 0, [(root, 0)]
        while stack:
            node, depth = stack.pop()
            if node.is_leaf:
                deepest = max(deepest, depth)
            else:
                stack += [(node.left, depth + 1), (node.right, depth + 1)]
        out.append(deepest)
    return out


class TestSharedBoostingFits:
    def test_reused_fit_equals_an_independent_fit(self):
        # a fit serves exactly when no tree reached its own preset's limit, the
        # hyperparameters besides the limits agree and the wanted preset's own
        # fit is the same
        served = []

        @settings(max_examples=300, deadline=None)
        @given(data=st.data())
        def check(data):
            X = data.draw(tie_heavy_matrix(max_rows=40))
            n = X.shape[0]
            y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64)
            shared = {"n_rounds": data.draw(st.integers(1, 5)), "reg_lambda": data.draw(st.sampled_from([0.0, 1.0]))}
            params = {
                "lgbm": {"preset": "lgbm", "num_leaves": data.draw(st.integers(2, 8)), **shared,
                         "min_child_samples": data.draw(st.integers(1, 3))},
                "xgb": {"preset": "xgb", "max_depth": data.draw(st.integers(1, 4)), **shared,
                        "min_child_samples": data.draw(st.integers(1, 3))},
            }
            first, wanted = data.draw(st.sampled_from([("lgbm", "xgb"), ("xgb", "lgbm")]))
            fit = train_gbdt(X, y, **params[first])
            own = train_gbdt(X, y, **params[wanted])
            if first == "lgbm":
                reached = max(leaf_counts(fit.trees)) == params["lgbm"]["num_leaves"]
            else:
                reached = max(depths(fit.trees)) == params["xgb"]["max_depth"]
            got = serves(fit, ModelSpec("gbdt", params[first]).hyperparameters,
                         ModelSpec("gbdt", params[wanted]).hyperparameters)
            same_fit = boosting_bytes(fit, X) == boosting_bytes(own, X)
            same_rest = params[first]["min_child_samples"] == params[wanted]["min_child_samples"]
            assert got == (not reached and same_rest and same_fit)
            served.append(got)

        check()
        assert any(served) and not all(served)

    def test_fit_at_the_wanted_limit_serves(self):
        # one column separates the labels, so every tree is a stump: it stays
        # below its own preset's default limit and reaches the wanted one exactly
        X = np.arange(20, dtype=np.float64)[:, None]
        y = (X[:, 0] >= 10).astype(np.float64)
        shared = {"n_rounds": 5, "min_child_samples": 1}
        for first, wanted in (({"preset": "lgbm"}, {"preset": "xgb", "max_depth": 1}),
                              ({"preset": "xgb"}, {"preset": "lgbm", "num_leaves": 2})):
            first, wanted = {**first, **shared}, {**wanted, **shared}
            fit = train_gbdt(X, y, **first)
            assert leaf_counts(fit.trees) == [2] * 5
            fit_params, params = ModelSpec("gbdt", first).hyperparameters, ModelSpec("gbdt", wanted).hyperparameters
            assert serves(fit, fit_params, params)
            assert boosting_bytes(fit, X) == boosting_bytes(train_gbdt(X, y, **wanted), X)
            # every other keyword of train_gbdt, a later one too, must be equal
            others = params.keys() - {"preset", "num_leaves", "max_depth"}
            assert {"n_rounds", "learning_rate", "max_bins", "min_child_samples", "reg_lambda"} <= others
            for key in others:
                assert not serves(fit, fit_params, {**params, key: params[key] + 1})


class TestLogisticFit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_newton_fit_is_optimal(self, data):
        X = data.draw(tie_heavy_matrix())
        if data.draw(st.booleans()):
            X = fit_scaler(X).transform(X)
        n = X.shape[0]
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64)
        # a low max_iter stops some fits at the cap, a loose tol ends others early
        params = {
            "l2": data.draw(st.sampled_from([0.0, 1.0])),
            "tol": data.draw(st.sampled_from([1e-6, 1e-2])),
            "max_iter": data.draw(st.integers(1, 60)),
        }
        got = train_logistic(X, y, **params)
        _, gw, gb = logistic_objective(got.weights, got.intercept, X, y, params["l2"])
        assert got.grad_norm == pytest.approx(np.sqrt(gw @ gw + gb**2), rel=1e-12)
        assert got.n_iter <= params["max_iter"]
        if got.n_iter < params["max_iter"]:
            assert got.grad_norm <= params["tol"]
        if params["l2"] == 1.0 and params["max_iter"] >= 50:
            assert got.grad_norm <= params["tol"]
            # a fit that stops at tol may sit above a better-converged reference
            # by what tol allows, so the objective is compared at the optimum
            best = train_logistic(X, y, l2=1.0, tol=0.0, max_iter=params["max_iter"])
            want = reference_train_logistic(X, y, l2=1.0, tol=params["tol"], max_iter=1000)
            assert (logistic_objective(best.weights, best.intercept, X, y, 1.0)[0]
                    <= logistic_objective(want.weights, want.intercept, X, y, 1.0)[0] + 1e-12)

    def test_numerically_singular_hessian_takes_least_squares_step(self):
        # four rows and five design columns: with l2=0 the Hessian is singular, yet
        # the direct solve returns a step of order 1e16 instead of failing
        X = np.array([[0, 0, 2, 1], [0, 0, 0, 0], [1, 0, 0, 2], [0, 1, 1, 0]], dtype=float)
        X = fit_scaler(X).transform(X)
        got = train_logistic(X, np.zeros(4), l2=0.0, tol=1e-6, max_iter=60)
        assert got.n_iter < 60 and got.grad_norm <= 1e-6


class TestKnnDistances:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_row_at_a_time_matches_broadcast(self, data):
        # bit for bit, from one column to more than a pairwise-summation block
        n_test, n_train = data.draw(st.integers(0, 5)), data.draw(st.integers(1, 6))
        p = data.draw(st.sampled_from([1, 2, 7, 8, 9, 16, 127, 128, 129, 256, 513]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        scale = data.draw(st.sampled_from([1e-3, 1.0, 1e6]))
        X_train, X = rng.normal(0, scale, size=(n_train, p)), rng.normal(0, scale, size=(n_test, p))
        got = train_knn(X_train, np.zeros(n_train)).squared_distances(X)
        assert got.shape == (n_test, n_train)
        assert got.tobytes() == broadcast_squared_distances(X, X_train).tobytes()


# sha256 of the three CSVs, recorded before the CART, GBDT and logistic fit
# loops were vectorized; every fitted model must stay the same to the bit
GOLDEN = {
    "report.csv": "2f63b937d63eacfe73983a50dbe20819dfa267cf30e62ffdbca82a270bd5a40c",
    "folds.csv": "8d78d799f1d8f23bf1c73649230124492d66d2844266bef1575164c5f002e62f",
    "roc_points.csv": "d2d9e0ca93d8ce2741cb66efd81107a6c0a12cec8fccab9551d269550ea585c6",
}


def test_small_matrix_matches_golden_digests(tmp_path):
    corpus = gen_corpus(10, 10, 2, seed=0)
    specs = default_model_specs(seed=0)
    # k=4 leaves 30 training rows, fewer than the presets' 2 * min_child_samples,
    # so with their default the boosting presets would never split
    for name in ("lightgbm", "xgboost"):
        spec = specs[name]
        specs[name] = ModelSpec(spec.family, {**spec.params, "min_child_samples": 5}, spec.seed)
    reports, _ = run_matrix([featurize_corpus(corpus, resolve_scheme(s)) for s in DEFAULT_SCHEMES], specs, k=4, seed=0)
    assert len(reports) == 8 * 7
    write_report_csv(reports, tmp_path / "report.csv")
    write_fold_csv(reports, tmp_path / "folds.csv")
    write_roc_csv(reports, tmp_path / "roc_points.csv")
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in GOLDEN}
    assert digests == GOLDEN


# sha256 of "scheme,feature,gain" lines of each tree preset's gain importance,
# recorded while boosting had its own node type and bin-code predict walk
GOLDEN_IMPORTANCE = {
    "lightgbm": "7324603d3994b2f3f2cbc4b4ec776cbd21cc279337d770c16e71f715fb4591f5",
    "xgboost": "7324603d3994b2f3f2cbc4b4ec776cbd21cc279337d770c16e71f715fb4591f5",
    "random_forest": "fc248754d77548bfb5a24fe2949796d9435be91e28a4ccccead1ac666404724a",
    "decision_tree": "60872d5b789c2200be09245bfdb577aa90789422994bec02d177a48951331873",
}


def test_gain_importance_matches_golden_digests():
    corpus = gen_corpus(10, 10, 2, seed=0)
    specs = default_model_specs(seed=0)
    for name in ("lightgbm", "xgboost"):
        spec = specs[name]
        specs[name] = ModelSpec(spec.family, {**spec.params, "min_child_samples": 5}, spec.seed)
    tables = [featurize_corpus(corpus, resolve_scheme(s)) for s in ("parts12", "parts2")]
    digests = {}
    for name in GOLDEN_IMPORTANCE:
        text = "".join(
            f"{table.scheme},{feature},{gain:.17g}\n"
            for table in tables
            for feature, gain in gain_importance(train(specs[name], table.X, table.labels, table.columns))
        )
        digests[name] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == GOLDEN_IMPORTANCE
