"""Acceptance gate: one test per release criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. The two dataset-dependent
checks skip unless the public actigraphy dataset is available (set
CHRONOSEG_PSYKOSE to its root, or place it under data/psykose with patient/
and control/ subdirectories).
"""

import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from chronoseg.cli import main
from chronoseg.errors import DataError
from chronoseg.evaluation import auc_roc, cross_validate, f1, stratified_kfold
from chronoseg.features import FEATURE_NAMES, extract_features, featurize_corpus
from chronoseg.ingest import MINUTES_PER_DAY, load_corpus
from chronoseg.models import ModelSpec, default_model_specs, gain_importance, train, predict_proba
from chronoseg.models.gbdt import train_gbdt
from chronoseg.models.linear import logistic_objective
from chronoseg.segmentation import PRESET_NAMES, MinuteWindow, builtin_scheme, segment_day
from chronoseg.synth import gen_corpus

from oracles import naive_auc, naive_f1, naive_features, training_losses


def _psykose_root():
    candidates = [os.environ.get("CHRONOSEG_PSYKOSE"), "data/psykose"]
    for c in candidates:
        if c and (Path(c) / "patient").is_dir() and (Path(c) / "control").is_dir():
            return Path(c)
    return None


PSYKOSE = _psykose_root()


def _report(criterion, detail=""):
    print(f"\nACCEPTANCE {criterion}: PASS {detail}")


def test_01_feature_oracle_suite():
    start = time.monotonic()
    rng = np.random.default_rng(1001)
    cases = [
        np.full(100, 5),  # constant
        np.zeros(50, dtype=int),  # all zero
        np.array([0, 1]),  # length 2
        np.array([7, 7]),
        np.array([0, 0]),
    ]
    while len(cases) < 1000:
        n = int(rng.integers(2, 1441))
        if rng.random() < 0.3:
            values = rng.integers(0, 51, n) * (rng.random(n) > 0.6)  # zero heavy
        else:
            values = rng.integers(0, 5001, n)
        cases.append(values.astype(np.int64))
    for values in cases:
        got = extract_features(np.asarray(values))
        want = naive_features(values)
        for name in FEATURE_NAMES:
            assert math.isclose(got[name], want[name], rel_tol=1e-9, abs_tol=1e-9), (
                name,
                values[:10],
            )
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"feature oracle suite took {elapsed:.1f}s"
    _report(1, f"(1000 vectors, {elapsed:.1f}s)")


def test_02_auc_and_f1_oracles():
    start = time.monotonic()
    rng = np.random.default_rng(2002)
    for _ in range(500):
        n = int(rng.integers(2, 201))
        scores = rng.integers(0, 12, n) / 11.0  # coarse grid guarantees ties
        labels = np.r_[rng.integers(0, 2, n - 2), 0, 1]
        assert auc_roc(scores, labels) == naive_auc(scores.tolist(), labels.tolist())
        assert f1(scores, labels) == naive_f1(scores.tolist(), labels.tolist())
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"AUC/F1 oracle suite took {elapsed:.1f}s"
    _report(2, f"(500 instances, {elapsed:.1f}s)")


def test_03_logistic_gradient_vs_finite_differences():
    rng = np.random.default_rng(3003)
    eps = 1e-5
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(5, 40))
        p = int(rng.integers(1, 8))
        X = rng.normal(size=(n, p))
        y = np.r_[rng.integers(0, 2, n - 2), 0, 1].astype(float)
        w = rng.normal(size=p)
        b = float(rng.normal())
        _, gw, gb = logistic_objective(w, b, X, y, l2=1.0)
        analytic = np.r_[gw, gb]
        fd = np.empty(p + 1)
        for j in range(p):
            dw = np.zeros(p)
            dw[j] = eps
            lo, _, _ = logistic_objective(w - dw, b, X, y, 1.0)
            hi, _, _ = logistic_objective(w + dw, b, X, y, 1.0)
            fd[j] = (hi - lo) / (2 * eps)
        lo, _, _ = logistic_objective(w, b - eps, X, y, 1.0)
        hi, _, _ = logistic_objective(w, b + eps, X, y, 1.0)
        fd[p] = (hi - lo) / (2 * eps)
        scale = max(float(np.linalg.norm(analytic)), 1e-12)
        worst = max(worst, float(np.max(np.abs(analytic - fd))) / scale)
    assert worst <= 1e-6, f"max relative gradient error {worst:.2e}"
    _report(3, f"(max rel err {worst:.2e})")


def test_04_gbdt_loss_monotone_and_separable_auc(separable_data, tiny_corpus):
    X, y = separable_data
    table = featurize_corpus(tiny_corpus, builtin_scheme("parts2"))
    rng = np.random.default_rng(4004)
    noise_X = rng.normal(size=(100, 6))
    noise_y = np.r_[np.zeros(50, dtype=int), np.ones(50, dtype=int)]
    fixtures = [
        (X, y.astype(float)),
        (table.X, table.labels.astype(float)),
        (noise_X, rng.permutation(noise_y).astype(float)),
    ]
    for preset in ("lgbm", "xgb"):
        for fx, fy in fixtures:
            model = train_gbdt(fx, fy, preset=preset)
            losses = training_losses(model, fx, fy)
            assert len(losses) == 101
            assert (np.diff(losses) <= 1e-12).all(), f"{preset}: training loss increased"
        model = train_gbdt(X, y.astype(float), preset=preset)
        assert auc_roc(model.predict_proba(X), y) == 1.0, preset
    _report(4, "(both presets, 3 fixtures)")


def test_05_stratification_property():
    rng = np.random.default_rng(5005)
    for _ in range(1000):
        k = int(rng.integers(2, 11))
        n0 = int(rng.integers(k, 80))
        n1 = int(rng.integers(k, 80))
        labels = rng.permutation(np.r_[np.zeros(n0, dtype=int), np.ones(n1, dtype=int)])
        plan = stratified_kfold(labels, k=k, seed=int(rng.integers(0, 2**31)))
        for cls, total in ((0, n0), (1, n1)):
            counts = np.bincount(plan.assignments[labels == cls], minlength=k)
            assert (np.abs(counts - total / k) < 1.0).all()
    for _ in range(200):
        n_subj = int(rng.integers(4, 20))
        k = int(rng.integers(2, min(n_subj, 6)))
        groups = np.repeat(np.arange(n_subj), rng.integers(1, 5, n_subj))
        labels = np.array([g % 2 for g in groups])
        plan = stratified_kfold(labels, k=k, seed=int(rng.integers(0, 2**31)), mode="subject_grouped", groups=groups)
        for g in np.unique(groups):
            assert len(set(plan.assignments[groups == g].tolist())) == 1
        assert (np.bincount(plan.assignments, minlength=k) > 0).all()
    _report(5, "(1000 row draws, 200 grouped draws)")


def test_06_segmentation_conservation_and_night_window():
    rng = np.random.default_rng(6006)
    presets = [p for p in PRESET_NAMES if p != "all_days"]
    for i in range(100):
        values = rng.integers(0, 5000, MINUTES_PER_DAY)
        for preset in presets:
            combined = np.concatenate(list(segment_day(values, builtin_scheme(preset)).values()))
            assert combined.sum() == values.sum()
            np.testing.assert_array_equal(np.sort(combined), np.sort(values))
    night = {s.name: s for s in builtin_scheme("parts2").segments}["night"]
    assert night.windows == (MinuteWindow(0, 480), MinuteWindow(1200, 1440))
    _report(6, f"({len(presets)} presets x 100 days)")


def test_07_synthetic_segmentation_effect():
    start = time.monotonic()
    spec = default_model_specs()["lightgbm"]
    schemes = ["parts2", "all_days", "parts4", "parts6", "parts12"]
    means = {s: [] for s in schemes}
    for corpus_seed in range(5):
        corpus = gen_corpus(10, 10, 14, seed=corpus_seed)
        for name in schemes:
            table = featurize_corpus(corpus, builtin_scheme(name))
            plan = stratified_kfold(table.labels, k=10, seed=0)
            means[name].append(cross_validate(table, spec, plan).auc_mean)
    avg = {s: float(np.mean(v)) for s, v in means.items()}
    elapsed = time.monotonic() - start
    assert avg["parts2"] - avg["all_days"] >= 0.02, avg
    for name in ("parts4", "parts6", "parts12"):
        assert abs(avg[name] - avg["parts2"]) <= 0.03, avg
    assert avg["parts2"] >= 0.9, avg  # the generator's own separability smoke signal
    assert elapsed < 300, f"took {elapsed:.0f}s"
    detail = ", ".join(f"{s}={avg[s]:.3f}" for s in schemes)
    _report(7, f"({detail}, {elapsed:.0f}s)")


@pytest.mark.skipif(PSYKOSE is None, reason="public dataset not present")
def test_08_psykose_reproduction():
    start = time.monotonic()
    corpus = load_corpus(PSYKOSE)
    assert len(corpus.subjects) == 54
    spec = default_model_specs()["lightgbm"]
    aucs = {}
    for name in ("all_days", "parts2"):
        table = featurize_corpus(corpus, builtin_scheme(name))
        plan = stratified_kfold(table.labels, k=10, seed=0)
        aucs[name] = cross_validate(table, spec, plan).auc_mean
    assert abs(aucs["all_days"] - 0.93) <= 0.05, aucs
    assert abs(aucs["parts2"] - 0.97) <= 0.05, aucs
    assert aucs["parts2"] > aucs["all_days"], aucs
    assert time.monotonic() - start < 900
    _report(8, f"(all_days={aucs['all_days']:.3f}, parts2={aucs['parts2']:.3f})")


def test_09_importance_concentrates_on_night():
    corpus = gen_corpus(10, 10, 14, seed=0)
    table = featurize_corpus(corpus, builtin_scheme("parts2"))
    model = train(default_model_specs()["lightgbm"], table.X, table.labels, feature_names=table.columns)
    ranking = gain_importance(model)
    assert ranking[0][0].startswith("night_"), ranking[:5]
    if PSYKOSE is not None:
        corpus = load_corpus(PSYKOSE)
        table = featurize_corpus(corpus, builtin_scheme("parts2"))
        model = train(default_model_specs()["lightgbm"], table.X, table.labels, feature_names=table.columns)
        top5 = [name for name, _ in gain_importance(model)[:5]]
        assert sum(1 for n in top5 if n.startswith("night_")) >= 2, top5
    _report(9, f"(top feature: {ranking[0][0]})")


def test_10_end_to_end_determinism(tmp_path):
    corpus_path = tmp_path / "corpus.csv"
    assert main(["synth", "--patients", "3", "--controls", "3", "--days", "3", "--seed", "1", "--out", str(corpus_path)]) == 0
    args = [
        "evaluate",
        "--corpus", str(corpus_path),
        "--schemes", "parts2", "all_days",
        "--models", "lightgbm", "knn",
        "--k", "3",
        "--seed", "0",
    ]
    d1, d2 = tmp_path / "run1", tmp_path / "run2"
    assert main(args + ["--out-dir", str(d1)]) == 0
    assert main(args + ["--out-dir", str(d2)]) == 0
    for name in ("report.csv", "folds.csv", "roc_points.csv"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name
    _report(10, "(byte-identical reports)")
