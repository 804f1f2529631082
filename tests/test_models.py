import numpy as np
import pytest

from chronoseg.errors import ConfigError, DataError
from chronoseg.evaluation import auc_roc
from chronoseg.models import (
    ModelSpec,
    default_model_specs,
    gain_importance,
    load_model,
    predict_proba,
    save_model,
    train,
)
from chronoseg.models.gbdt import train_gbdt
from chronoseg.models.linear import logistic_objective, train_logistic
from chronoseg.models.scaler import fit_scaler
from chronoseg.synth import gen_corpus


class TestScaler:
    def test_population_std(self):
        s = fit_scaler(np.array([[0.0], [2.0]]))
        assert s.mean[0] == 1.0
        assert s.scale[0] == 1.0  # population std of [0, 2]

    def test_constant_column_passes_through_as_zeros(self):
        s = fit_scaler(np.full((5, 1), 3.0))
        assert s.scale[0] == 1.0
        assert (s.transform(np.full((5, 1), 3.0)) == 0).all()

    def test_transform_centers_training_data(self):
        rng = np.random.default_rng(0)
        X = rng.normal(5, 2, (50, 3))
        s = fit_scaler(X)
        Z = s.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(Z.std(axis=0), 1, atol=1e-12)

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            fit_scaler(np.ones((1, 3)))


class TestModelSpec:
    def test_unknown_family(self):
        with pytest.raises(ConfigError):
            ModelSpec("neural_net")

    def test_bad_hyperparameter(self):
        with pytest.raises(ConfigError):
            ModelSpec("knn", {"k": 0})
        with pytest.raises(ConfigError):
            ModelSpec("gbdt", {"learning_rate": 1.5})

    def test_seven_presets(self):
        specs = default_model_specs()
        assert list(specs) == [
            "lightgbm",
            "xgboost",
            "random_forest",
            "logistic_regression",
            "linear_svm",
            "knn",
            "decision_tree",
        ]


class TestTrainGuards:
    def test_single_class_rejected(self):
        X = np.random.default_rng(0).normal(size=(10, 2))
        with pytest.raises(DataError, match="single class"):
            train(ModelSpec("knn"), X, np.zeros(10, dtype=int))

    def test_non_finite_rejected(self):
        X = np.array([[1.0, np.nan], [2.0, 3.0]])
        with pytest.raises(DataError, match="non-finite"):
            train(ModelSpec("knn"), X, np.array([0, 1]))

    def test_dimensionality_mismatch_on_predict(self, separable_data):
        X, y = separable_data
        model = train(ModelSpec("decision_tree"), X, y)
        with pytest.raises(DataError, match="features"):
            predict_proba(model, X[:, :3])


@pytest.mark.parametrize("name", list(default_model_specs()))
class TestAllFamilies:
    def test_separable_data_fits(self, separable_data, name):
        X, y = separable_data
        spec = default_model_specs()[name]
        model = train(spec, X, y)
        scores = predict_proba(model, X)
        assert scores.shape == (X.shape[0],)
        assert (scores >= 0).all() and (scores <= 1).all()
        assert auc_roc(scores, y) >= 0.99

    def test_deterministic(self, separable_data, name):
        X, y = separable_data
        spec = default_model_specs(seed=11)[name]
        s1 = predict_proba(train(spec, X, y), X)
        s2 = predict_proba(train(spec, X, y), X)
        np.testing.assert_array_equal(s1, s2)

    def test_serialization_round_trip(self, separable_data, tmp_path, name):
        X, y = separable_data
        spec = default_model_specs()[name]
        model = train(spec, X, y)
        path = tmp_path / f"{name}.json"
        save_model(model, path)
        back = load_model(path)
        np.testing.assert_array_equal(predict_proba(model, X), predict_proba(back, X))


class TestKnn:
    def test_k1_memorizes_training_rows(self, separable_data):
        X, y = separable_data
        model = train(ModelSpec("knn", {"k": 1}), X, y)
        np.testing.assert_array_equal(predict_proba(model, X), y.astype(float))

    def test_k3_neighbor_fraction(self):
        X = np.array([[0.0], [0.1], [0.2], [10.0]])
        y = np.array([1, 1, 0, 0])
        model = train(ModelSpec("knn", {"k": 3}), X, y)
        score = predict_proba(model, np.array([[0.05]]))[0]
        assert score == pytest.approx(2 / 3)


class TestLogisticRegression:
    def test_no_signal_gives_prior(self):
        X = np.ones((20, 3))
        y = np.r_[np.zeros(10, dtype=int), np.ones(10, dtype=int)]
        model = train(ModelSpec("logistic_regression"), X, y)
        scores = predict_proba(model, X)
        np.testing.assert_allclose(scores, 0.5, atol=1e-6)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            n, p = rng.integers(5, 30), rng.integers(1, 6)
            X = rng.normal(size=(n, p))
            y = rng.integers(0, 2, n).astype(float)
            w = rng.normal(size=p)
            b = float(rng.normal())
            _, gw, gb = logistic_objective(w, b, X, y, l2=1.0)
            eps = 1e-6
            for j in range(p):
                dw = np.zeros(p)
                dw[j] = eps
                lo, _, _ = logistic_objective(w - dw, b, X, y, 1.0)
                hi, _, _ = logistic_objective(w + dw, b, X, y, 1.0)
                assert gw[j] == pytest.approx((hi - lo) / (2 * eps), rel=1e-5, abs=1e-8)
            lo, _, _ = logistic_objective(w, b - eps, X, y, 1.0)
            hi, _, _ = logistic_objective(w, b + eps, X, y, 1.0)
            assert gb == pytest.approx((hi - lo) / (2 * eps), rel=1e-5, abs=1e-8)

    def test_converges_to_small_gradient(self, separable_data):
        X, y = separable_data
        Xs = fit_scaler(X).transform(X)
        model = train_logistic(Xs, y.astype(float))
        _, gw, gb = logistic_objective(model.weights, model.intercept, Xs, y.astype(float), 1.0)
        assert np.sqrt(gw @ gw + gb**2) <= 1e-5


    @pytest.mark.parametrize("scheme", ["parts2", "parts12"])
    def test_converges_on_cohort_features(self, scheme):
        from chronoseg.features import featurize_corpus
        from chronoseg.segmentation import builtin_scheme

        # the default cohort is separable, so the penalized optimum is far out;
        # Newton steps still reach it in a few steps
        table = featurize_corpus(gen_corpus(10, 10, 14, seed=0), builtin_scheme(scheme))
        Xs = fit_scaler(table.X).transform(table.X)
        y = table.labels.astype(float)
        model = train_logistic(Xs, y, tol=1e-6, max_iter=50)
        assert model.n_iter < 50
        assert model.grad_norm <= 1e-6
        _, gw, gb = logistic_objective(model.weights, model.intercept, Xs, y, 1.0)
        assert model.grad_norm == pytest.approx(np.sqrt(gw @ gw + gb**2), rel=1e-12)

    def test_records_convergence_on_small_problem(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(60, 3))
        y = (X[:, 0] + rng.normal(size=60) > 0).astype(float)
        model = train_logistic(X, y, tol=1e-6, max_iter=1000)
        assert model.n_iter < 1000
        assert model.grad_norm <= 1e-6

    def test_halved_steps_converge_on_unscaled_features(self):
        # from zero, full Newton steps overshoot on these unscaled columns and
        # cycle at a gradient norm of 0.6; halving the step converges
        X = np.array([[300.0, 100.0], [-100.0, 300.0], [100.0, -100.0], [-200.0, 300.0], [300.0, 0.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0, 0.0])
        model = train_logistic(X, y, l2=1.0, tol=1e-6, max_iter=50)
        assert model.n_iter < 50
        assert model.grad_norm <= 1e-6

    def test_unpenalized_separable_fit_stays_finite(self):
        # with l2=0 the optimum of separable data is at infinity; the Hessian
        # vanishes as the probabilities saturate
        X = np.array([[-2.0, 1.0], [-1.0, 1.0], [1.0, 1.0], [2.0, 1.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        for tol in (1e-6, 0.0):
            model = train_logistic(X, y, l2=0.0, tol=tol, max_iter=200)
            assert model.n_iter <= 200
            assert np.isfinite(model.weights).all() and np.isfinite(model.intercept)
            assert np.isfinite(model.grad_norm)
            _, gw, gb = logistic_objective(model.weights, model.intercept, X, y, 0.0)
            assert model.grad_norm == pytest.approx(np.sqrt(gw @ gw + gb**2), rel=1e-12)
            assert (model.decision_function(X) > 0).tolist() == [False, False, True, True]


class TestGbdt:
    def test_loss_monotone_decreasing(self, separable_data):
        X, y = separable_data
        for preset in ("lgbm", "xgb"):
            model = train_gbdt(X, y.astype(float), preset=preset)
            diffs = np.diff(model.train_losses)
            assert (diffs <= 1e-12).all(), f"{preset} loss increased"

    def test_zero_rounds_predicts_prior(self, separable_data):
        X, y = separable_data
        model = train_gbdt(X, y.astype(float), n_rounds=0)
        np.testing.assert_allclose(model.predict_proba(X), y.mean(), atol=1e-12)

    def test_presets_differ(self, tiny_corpus):
        from chronoseg.features import featurize_corpus
        from chronoseg.segmentation import builtin_scheme

        table = featurize_corpus(tiny_corpus, builtin_scheme("parts2"))
        a = train_gbdt(table.X, table.labels.astype(float), preset="lgbm", n_rounds=10, min_child_samples=2)
        b = train_gbdt(table.X, table.labels.astype(float), preset="xgb", n_rounds=10, min_child_samples=2)
        assert a.preset != b.preset


class TestTreesAndForest:
    def test_forest_one_tree_equals_cart(self, separable_data):
        X, y = separable_data
        forest = train(
            ModelSpec("random_forest", {"n_trees": 1, "max_features": None, "bootstrap": False}, seed=3),
            X,
            y,
        )
        cart = train(ModelSpec("decision_tree", seed=3), X, y)
        np.testing.assert_array_equal(predict_proba(forest, X), predict_proba(cart, X))

    def test_tree_tiebreak_prefers_lowest_feature(self):
        # two identical columns: the split must use column 0
        col = np.r_[np.zeros(10), np.ones(10)]
        X = np.c_[col, col]
        y = col.astype(int)
        model = train(ModelSpec("decision_tree"), X, y)
        gains = dict(gain_importance(model))
        assert gains["f0"] > 0
        assert gains["f1"] == 0


class TestGainImportance:
    def test_stump_has_single_nonzero_gain(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(200, 4))
        y = (X[:, 2] > 0).astype(int)
        model = train(ModelSpec("gbdt", {"n_rounds": 1, "num_leaves": 2}), X, y)
        ranking = gain_importance(model)
        assert ranking[0][0] == "f2"
        assert sum(1 for _, g in ranking if g > 0) == 1

    def test_informative_column_ranks_first(self):
        rng = np.random.default_rng(8)
        X = rng.normal(size=(300, 6))
        y = (X[:, 4] + 0.1 * rng.normal(size=300) > 0).astype(int)
        for family in ("gbdt", "random_forest", "decision_tree"):
            model = train(ModelSpec(family, seed=1), X, y)
            assert gain_importance(model)[0][0] == "f4", family

    def test_zero_round_ensemble_all_zero(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, 50)
        model = train(ModelSpec("gbdt", {"n_rounds": 0}), X, y)
        assert all(g == 0 for _, g in gain_importance(model))

    def test_non_tree_family_rejected(self, separable_data):
        X, y = separable_data
        model = train(ModelSpec("knn"), X, y)
        with pytest.raises(ConfigError):
            gain_importance(model)
