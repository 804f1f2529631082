"""The vectorized split searches, the block feature kernel and the logistic
fit against their references, and golden digests of a small full matrix
recorded before the searches were vectorized."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg.cli import DEFAULT_SCHEMES
from chronoseg.evaluation import run_matrix, write_fold_csv, write_report_csv, write_roc_csv
from chronoseg.features import FEATURE_NAMES, block_features, extract_features, featurize_corpus
from chronoseg.models import ModelSpec, default_model_specs
from chronoseg.models.gbdt import DEFAULT_PARAMS, _TreeGrower, fit_binner
from chronoseg.models.linear import logistic_objective, train_logistic
from chronoseg.models.scaler import fit_scaler
from chronoseg.models.tree import _best_split as cart_split
from chronoseg.segmentation import resolve_scheme
from chronoseg.synth import gen_corpus

from oracles import dense_gbdt_split, loop_cart_split, per_segment_features, reference_train_logistic


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


class TestCartSplit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_per_feature_loop(self, data):
        X = data.draw(tie_heavy_matrix())
        n, p = X.shape
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.int64)
        subset = data.draw(st.lists(st.integers(0, p - 1), min_size=1, max_size=p, unique=True))
        features = np.array(sorted(subset))

        found = cart_split(X[:, features], y)
        expected = loop_cart_split(X, y, features)
        if expected is None:
            assert found is None
        else:
            gain, col, threshold = found
            assert (gain, int(features[col]), threshold) == expected


class TestGbdtSplit:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_matches_dense_histogram_search(self, data):
        X = data.draw(tie_heavy_matrix(max_rows=40, max_cols=5))
        n = X.shape[0]
        binner = fit_binner(X)
        codes, n_bins = binner.transform(X), binner.n_bins
        y = np.array(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.float64)
        prob = np.array(data.draw(st.lists(st.sampled_from([0.25, 0.5, 0.75]), min_size=n, max_size=n)))
        g, h = prob - y, prob * (1 - prob)
        in_node = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
        idx = np.flatnonzero(in_node) if any(in_node) else np.arange(n)  # all rows: the root path
        min_child = data.draw(st.integers(1, n))
        reg_lambda = data.draw(st.sampled_from([0.0, 1.0]))

        params = dict(DEFAULT_PARAMS, min_child_samples=min_child, reg_lambda=reg_lambda)
        grower = _TreeGrower(codes, n_bins, "lgbm", params)
        grower.g, grower.h = g, h
        assert grower._search(idx) == dense_gbdt_split(codes, n_bins, idx, g, h, reg_lambda, min_child)


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
