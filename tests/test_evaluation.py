import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg.errors import ConfigError, DataError
from chronoseg.evaluation import (
    CV_MODES,
    auc_roc,
    cross_validate,
    f1,
    roc_points,
    run_matrix,
    stratified_kfold,
    write_fold_csv,
    write_report_csv,
)
from chronoseg.features import FeatureTable, featurize_corpus
from chronoseg.models import ModelSpec, default_model_specs, predict_proba, train
from chronoseg.segmentation import builtin_scheme

from oracles import loop_roc_points, naive_auc, naive_f1, reference_stratified_kfold


def make_table(X, y, subjects=None):
    n = X.shape[0]
    subjects = subjects or [f"s{i}" for i in range(n)]
    return FeatureTable(
        scheme="test",
        columns=tuple(f"f{i}" for i in range(X.shape[1])),
        subject_ids=tuple(subjects),
        dates=tuple("2020-01-01" for _ in range(n)),
        labels=np.asarray(y, dtype=np.int64),
        X=np.asarray(X, dtype=np.float64),
    )


class TestAuc:
    def test_perfect_separation(self):
        assert auc_roc([0.9, 0.8, 0.7, 0.6], [1, 1, 0, 0]) == 1.0

    def test_all_ties_is_half(self):
        assert auc_roc([0.5] * 6, [1, 0, 1, 0, 1, 0]) == 0.5

    def test_three_quarters(self):
        assert auc_roc([0.9, 0.8, 0.7, 0.6], [1, 0, 1, 0]) == 0.75

    def test_single_class_rejected(self):
        with pytest.raises(DataError):
            auc_roc([0.1, 0.2], [1, 1])

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 80))
        scores = rng.integers(0, 10, n) / 10.0  # coarse grid forces ties
        labels = np.r_[rng.integers(0, 2, n - 2), 0, 1]
        assert auc_roc(scores, labels) == naive_auc(scores.tolist(), labels.tolist())

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_invariant_under_monotone_transform(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        scores = rng.normal(size=n)
        labels = np.r_[rng.integers(0, 2, n - 2), 0, 1]
        base = auc_roc(scores, labels)
        assert auc_roc(np.exp(scores), labels) == pytest.approx(base, abs=1e-12)
        assert auc_roc(3 * scores + 7, labels) == pytest.approx(base, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_label_flip_complements(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 60))
        scores = rng.normal(size=n)  # continuous, ties almost surely absent
        labels = np.r_[rng.integers(0, 2, n - 2), 0, 1]
        assert auc_roc(scores, 1 - labels) == pytest.approx(1 - auc_roc(scores, labels), abs=1e-12)

    def test_equals_trapezoid_area_under_roc(self):
        rng = np.random.default_rng(4)
        scores = rng.integers(0, 5, 40) / 5.0
        labels = np.r_[rng.integers(0, 2, 38), 0, 1]
        pts = roc_points(scores, labels)
        area = sum(
            (x2 - x1) * (y1 + y2) / 2 for (x1, y1), (x2, y2) in zip(pts, pts[1:])
        )
        assert auc_roc(scores, labels) == pytest.approx(area, abs=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 5, 20, 1000]))
    @settings(max_examples=100, deadline=None)
    def test_roc_points_match_tie_group_loop(self, seed, levels):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 120))
        scores = rng.integers(0, levels, n) / levels  # few levels force long tie runs
        labels = rng.permutation(np.r_[rng.integers(0, 2, n - 2), 0, 1])
        assert roc_points(scores, labels) == loop_roc_points(scores, labels)


class TestF1:
    def test_perfect(self):
        assert f1([0.9, 0.9, 0.1, 0.1], [1, 1, 0, 0]) == 1.0

    def test_all_positive_half_true(self):
        assert f1([0.9, 0.9, 0.9, 0.9], [1, 0, 1, 0]) == pytest.approx(2 / 3)

    def test_no_predicted_positives_is_zero(self):
        assert f1([0.1, 0.2], [1, 0]) == 0.0

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_matches_confusion_matrix_oracle(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        scores = rng.random(n)
        labels = rng.integers(0, 2, n)
        assert f1(scores, labels) == naive_f1(scores.tolist(), labels.tolist())


class TestStratifiedKfold:
    def test_exact_divisibility(self):
        labels = np.array([1] * 6 + [0] * 4)
        plan = stratified_kfold(labels, k=2, seed=0)
        for fold in range(2):
            test = labels[plan.assignments == fold]
            assert (test == 1).sum() == 3
            assert (test == 0).sum() == 2

    def test_k_equals_n(self):
        labels = np.array([0, 1] * 5)
        plan = stratified_kfold(labels, k=10, seed=1)
        assert sorted(np.bincount(plan.assignments, minlength=10)) == [1] * 10

    def test_insufficient_rows_names_class(self):
        with pytest.raises(DataError, match="class 1"):
            stratified_kfold(np.array([0] * 10 + [1] * 2), k=5, seed=0)

    def test_grouped_mode_never_splits_subject(self):
        labels = np.array([1, 1, 1, 0, 0, 1])
        groups = np.array(["A", "A", "A", "B", "B", "C"])
        plan = stratified_kfold(labels, k=3, seed=0, mode="subject_grouped", groups=groups)
        for g in "ABC":
            folds = set(plan.assignments[groups == g].tolist())
            assert len(folds) == 1

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_stratification_within_one_of_proportional(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 10))
        n0 = int(rng.integers(k, 60))
        n1 = int(rng.integers(k, 60))
        labels = rng.permutation(np.r_[np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        plan = stratified_kfold(labels, k=k, seed=seed)
        for cls, total in ((0, n0), (1, n1)):
            for fold in range(k):
                count = int(np.sum((plan.assignments == fold) & (labels == cls)))
                assert abs(count - total / k) < 1.0

    def test_label_outside_binary_is_named(self):
        # a row labelled 2 would belong to no class, so no fold would test it
        labels = np.array([0, 1, 2, 0, 1, 0])
        for mode in CV_MODES:
            with pytest.raises(DataError, match="label must be 0 or 1, got 2"):
                stratified_kfold(labels, k=2, seed=0, mode=mode, groups=np.arange(6))

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_row_plans_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(2, 12))
        n0 = int(rng.integers(k, 60))
        n1 = int(rng.integers(k, 60))
        labels = rng.permutation(np.r_[np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        n = int(rng.integers(2, 12))
        loo = rng.integers(0, 2, n)  # k == n: leave-one-out, whatever the class counts
        for labels, k in ((labels, k), (loo, n)):
            plan = stratified_kfold(labels, k=k, seed=seed)
            reference = reference_stratified_kfold(labels, k=k, seed=seed)
            assert plan.assignments.dtype == reference.assignments.dtype
            np.testing.assert_array_equal(plan.assignments, reference.assignments)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_grouped_plans_match_reference_and_fill_every_fold(self, seed):
        rng = np.random.default_rng(seed)
        n_subjects = int(rng.integers(2, 31))
        k = int(rng.integers(2, min(n_subjects, 11) + 1))
        subjects = np.array([f"s{i:02d}" for i in range(n_subjects)])
        subject_label = dict(zip(subjects.tolist(), rng.integers(0, 2, n_subjects).tolist()))
        groups = rng.permutation(np.repeat(subjects, rng.integers(1, 8, n_subjects)))  # subjects' rows interleaved
        labels = np.array([subject_label[g] for g in groups.tolist()])
        plan = stratified_kfold(labels, k=k, seed=seed, mode="subject_grouped", groups=groups).assignments
        reference = reference_stratified_kfold(labels, k=k, seed=seed, mode="subject_grouped", groups=groups)
        controls = labels == 0
        np.testing.assert_array_equal(plan[controls], reference.assignments[controls])
        for cls in (0, 1):
            rows = labels == cls
            assert sorted(np.bincount(plan[rows], minlength=k)) == sorted(
                np.bincount(reference.assignments[rows], minlength=k))
        for g in subjects:
            assert len(set(plan[groups == g].tolist())) == 1
        assert (np.bincount(plan, minlength=k) > 0).all()

    def test_deterministic(self):
        labels = np.random.default_rng(0).integers(0, 2, 100)
        labels[:10] = 0
        labels[-10:] = 1
        a = stratified_kfold(labels, k=5, seed=42)
        b = stratified_kfold(labels, k=5, seed=42)
        np.testing.assert_array_equal(a.assignments, b.assignments)


class TestCrossValidate:
    def test_oracle_feature_scores_perfectly(self):
        rng = np.random.default_rng(0)
        y = rng.integers(0, 2, 60)
        y[:10], y[-10:] = 0, 1
        X = y[:, None].astype(float)
        table = make_table(X, y)
        for name, spec in default_model_specs().items():
            if name == "lightgbm":
                spec = ModelSpec("gbdt", {"preset": "lgbm", "min_child_samples": 2}, 0)
            if name == "xgboost":
                spec = ModelSpec("gbdt", {"preset": "xgb", "min_child_samples": 2}, 0)
            plan = stratified_kfold(table.labels, k=5, seed=0)
            report = cross_validate(table, spec, plan)
            assert report.auc_mean == 1.0, name
            assert report.f1_mean == 1.0, name

    def test_noise_features_near_chance(self):
        rng = np.random.default_rng(1)
        aucs = []
        for seed in range(20):
            X = rng.normal(size=(80, 4))
            y = rng.permutation(np.r_[np.zeros(40, dtype=int), np.ones(40, dtype=int)])
            table = make_table(X, y)
            plan = stratified_kfold(y, k=5, seed=seed)
            spec = ModelSpec("gbdt", {"preset": "lgbm", "n_rounds": 20}, seed)
            aucs.append(cross_validate(table, spec, plan).auc_mean)
        assert 0.35 <= float(np.mean(aucs)) <= 0.65

    def test_metrics_are_fold_means_not_pooled(self):
        y = np.array([0, 1] * 10)
        X = np.arange(20, dtype=float)[:, None]
        table = make_table(X, y)
        plan = stratified_kfold(y, k=2, seed=0)
        report = cross_validate(table, ModelSpec("knn", {"k": 1}), plan)
        present = [a for a in report.fold_aucs if a is not None]
        assert report.auc_mean == pytest.approx(float(np.mean(present)))
        assert report.f1_mean == pytest.approx(float(np.mean(report.fold_f1s)))

    def test_no_leakage_from_test_rows(self, separable_data):
        X, y = separable_data
        table = make_table(X, y)
        plan = stratified_kfold(y, k=5, seed=0)
        test_idx = np.flatnonzero(plan.assignments == 0)
        train_idx = np.flatnonzero(plan.assignments != 0)

        spec = ModelSpec("logistic_regression")
        m1 = train(spec, X[train_idx], y[train_idx])
        X_mut = X.copy()
        X_mut[test_idx] *= 100  # mutating test rows must not touch the fit
        m2 = train(spec, X_mut[train_idx], y[train_idx])
        np.testing.assert_array_equal(m1.core.weights, m2.core.weights)
        np.testing.assert_array_equal(m1.scaler.mean, m2.scaler.mean)

    def test_single_class_fold_auc_excluded(self):
        # grouped mode with one all-patient subject isolated in its own fold
        y = np.array([1, 1, 1, 1, 0, 0, 1, 0, 0, 0])
        groups = np.array(["A", "A", "A", "A", "B", "B", "C", "D", "D", "D"])
        X = np.random.default_rng(0).normal(size=(10, 2))
        table = make_table(X, y, subjects=groups.tolist())
        plan = stratified_kfold(y, k=2, seed=0, mode="subject_grouped", groups=groups)
        report = cross_validate(table, ModelSpec("knn", {"k": 1}), plan)
        assert len(report.fold_aucs) == 2


def tables(corpus, schemes):
    return [featurize_corpus(corpus, scheme) for scheme in schemes]


def boosting_specs():
    """Both boosting presets, with few rounds and leaves small enough to split."""
    return {name: ModelSpec("gbdt", {"preset": preset, "n_rounds": 10, "min_child_samples": 2})
            for name, preset in (("lightgbm", "lgbm"), ("xgboost", "xgb"))}


@pytest.fixture
def serial_pool(monkeypatch):
    """The process pool replaced by one that maps in this process; the list of its worker counts."""
    started = []

    class SerialPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr("chronoseg.evaluation.ProcessPoolExecutor", SerialPool)
    return started


@pytest.fixture
def model_calls(monkeypatch):
    """The model name of every train and predict_proba call that cross_validate makes."""
    calls = {"train": [], "predict_proba": []}

    def counting(name, fn):
        def counted(spec_or_model, *args, **kwargs):
            calls[name].append(getattr(spec_or_model, "spec", spec_or_model).name)
            return fn(spec_or_model, *args, **kwargs)
        return counted

    monkeypatch.setattr("chronoseg.evaluation.train", counting("train", train))
    monkeypatch.setattr("chronoseg.evaluation.predict_proba", counting("predict_proba", predict_proba))
    return calls


class TestRunMatrix:
    def test_cell_counts_and_order(self, tiny_corpus):
        schemes = [builtin_scheme("parts2"), builtin_scheme("full_day")]
        specs = {
            "knn": ModelSpec("knn"),
            "decision_tree": ModelSpec("decision_tree"),
        }
        reports, grid = run_matrix(tables(tiny_corpus, schemes), specs, k=3, seed=0)
        assert len(reports) == 4
        assert [r.scheme for r in reports] == ["parts2", "parts2", "full_day", "full_day"]
        assert "parts2" in grid and "knn" in grid

    def test_single_cell_matches_direct_call(self, tiny_corpus):
        scheme = builtin_scheme("parts2")
        spec = ModelSpec("knn")
        reports, _ = run_matrix(tables(tiny_corpus, [scheme]), {"knn": spec}, k=3, seed=5)
        table = featurize_corpus(tiny_corpus, scheme)
        plan = stratified_kfold(table.labels, k=3, seed=5)
        direct = cross_validate(table, spec, plan)
        assert reports[0].auc_mean == direct.auc_mean
        assert reports[0].fold_aucs == direct.fold_aucs
        # each row's score comes from the model fitted on the other folds
        for fold in range(3):
            train_idx, test_idx = np.flatnonzero(plan.assignments != fold), np.flatnonzero(plan.assignments == fold)
            model = train(spec, table.X[train_idx], table.labels[train_idx], feature_names=table.columns)
            np.testing.assert_array_equal(reports[0].scores[test_idx], predict_proba(model, table.X[test_idx]))

    def test_empty_inputs_rejected(self, tiny_corpus):
        with pytest.raises(ConfigError):
            run_matrix([], {}, k=2, seed=0)

    def test_deterministic_rendering(self, tiny_corpus, tmp_path):
        schemes = [builtin_scheme("full_day")]
        specs = {"knn": ModelSpec("knn")}
        out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        reports1, grid1 = run_matrix(tables(tiny_corpus, schemes), specs, k=3, seed=0)
        reports2, grid2 = run_matrix(tables(tiny_corpus, schemes), specs, k=3, seed=0)
        assert grid1 == grid2
        write_report_csv(reports1, out1)
        write_report_csv(reports2, out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_parallel_equals_serial(self, tiny_corpus):
        schemes = [builtin_scheme("full_day")]
        specs = {"knn": ModelSpec("knn"), "decision_tree": ModelSpec("decision_tree")}
        serial, _ = run_matrix(tables(tiny_corpus, schemes), specs, k=3, seed=0, workers=1)
        parallel, _ = run_matrix(tables(tiny_corpus, schemes), specs, k=3, seed=0, workers=2)
        for a, b in zip(serial, parallel):
            assert a.fold_aucs == b.fold_aucs
            assert a.digest == b.digest
            np.testing.assert_array_equal(a.scores, b.scores)

    def test_pool_capped_at_cell_count(self, tiny_corpus, serial_pool):
        started = serial_pool
        schemes = [builtin_scheme("full_day")]
        specs = {"knn": ModelSpec("knn"), "decision_tree": ModelSpec("decision_tree")}
        pooled, _ = run_matrix(tables(tiny_corpus, schemes), specs, k=3, seed=0, workers=10_000)
        assert started == [2]
        serial, _ = run_matrix(tables(tiny_corpus, schemes), specs, k=3, seed=0, workers=1)
        assert [r.fold_aucs for r in pooled] == [r.fold_aucs for r in serial]
        for a, b in zip(pooled, serial):
            np.testing.assert_array_equal(a.scores, b.scores)
        run_matrix(tables(tiny_corpus, schemes), {"knn": ModelSpec("knn")}, k=3, seed=0, workers=10_000)
        assert started == [2]  # one cell runs serially
        run_matrix(tables(tiny_corpus, schemes), boosting_specs(), k=3, seed=0, workers=10_000)
        assert started == [2]  # so does one job of both boosting presets

    def test_boosting_presets_score_as_when_run_alone(self, tiny_corpus, serial_pool):
        specs = boosting_specs()
        tabs = tables(tiny_corpus, [builtin_scheme("parts2"), builtin_scheme("full_day")])
        model = train(specs["xgboost"], tabs[0].X, tabs[0].labels)
        assert not model.core.trees[0].is_leaf  # trees that split
        alone = {name: run_matrix(tabs, {name: spec}, k=3, seed=0)[0] for name, spec in specs.items()}
        for order in (["lightgbm", "xgboost"], ["xgboost", "lightgbm"]):
            both = {name: specs[name] for name in order}
            for workers in (1, 2):
                reports, _ = run_matrix(tabs, both, k=3, seed=0, workers=workers)
                assert [(r.scheme, r.model) for r in reports] == [(t.scheme, m) for t in tabs for m in order]
                for r in reports:
                    want = alone[r.model][[t.scheme for t in tabs].index(r.scheme)]
                    assert r.digest == want.digest and r.fold_aucs == want.fold_aucs
                    np.testing.assert_array_equal(r.scores, want.scores)
        assert serial_pool == [2, 2]  # one job per table

    def test_reused_cell_makes_no_train_call(self, tiny_corpus, model_calls):
        tabs = tables(tiny_corpus, [builtin_scheme("parts2"), builtin_scheme("full_day")])
        run_matrix(tabs, boosting_specs(), k=3, seed=0)
        # every xgboost fold copies the scores of its lightgbm fit
        assert model_calls == {"train": ["lightgbm"] * 6, "predict_proba": ["lightgbm"] * 6}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_presets_apart_share_one_job(self, tiny_corpus, model_calls, serial_pool, workers):
        boosting = boosting_specs()
        specs = {"lightgbm": boosting["lightgbm"], "knn": ModelSpec("knn"), "xgboost": boosting["xgboost"]}
        tabs = tables(tiny_corpus, [builtin_scheme("parts2"), builtin_scheme("full_day")])
        reports, _ = run_matrix(tabs, specs, k=3, seed=0, workers=workers)
        assert [(r.scheme, r.model) for r in reports] == [(t.scheme, m) for t in tabs for m in specs]
        # every xgboost fold copies the scores of its lightgbm fit, in the job of the boosting family
        for calls in model_calls.values():
            assert calls.count("lightgbm") == 6 and calls.count("xgboost") == 0
        assert serial_pool == ([2] if workers == 2 else [])  # two jobs per table
        alone, _ = run_matrix(tabs, boosting, k=3, seed=0)
        for r, want in zip([r for r in reports if r.model != "knn"], alone):
            assert (r.scheme, r.model, r.digest, r.fold_aucs) == (want.scheme, want.model, want.digest, want.fold_aucs)
            np.testing.assert_array_equal(r.scores, want.scores)

    def test_other_family_between_presets_keeps_order(self, tiny_corpus):
        defaults = default_model_specs()
        specs = {name: defaults[name] for name in ("lightgbm", "knn", "xgboost")}
        tabs = tables(tiny_corpus, [builtin_scheme("parts2"), builtin_scheme("full_day")])
        reports, _ = run_matrix(tabs, specs, k=3, seed=0)
        assert [(r.scheme, r.model) for r in reports] == [(t.scheme, m) for t in tabs for m in specs]

    def test_fold_csv_includes_all_cells(self, tiny_corpus, tmp_path):
        reports, _ = run_matrix(tables(tiny_corpus, [builtin_scheme("full_day")]), {"knn": ModelSpec("knn")}, k=3, seed=0)
        path = tmp_path / "folds.csv"
        write_fold_csv(reports, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 1 + 3  # header + one line per fold
