"""Classifier families behind one train/predict interface.

Seven model presets map onto six families (the two boosting presets share one
engine). Distance/margin/gradient families standardize features internally;
tree families consume raw features. All training is deterministic given
(spec, data, seed).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from math import ceil, sqrt
from pathlib import Path

import numpy as np

from ..errors import ConfigError, DataError
from .forest import RandomForest, build_forest
from .gbdt import GradientBoosting, BoostNode, Binner, train_gbdt
from .linear import KnnModel, LinearSvm, LogisticModel, train_knn, train_linear_svm, train_logistic
from .scaler import StandardScaler, fit_scaler
from .tree import CartTree, TreeNode, build_cart

FAMILIES = ("gbdt", "random_forest", "decision_tree", "logistic_regression", "knn", "linear_svm")
TREE_FAMILIES = ("gbdt", "random_forest", "decision_tree")
STANDARDIZED_FAMILIES = ("logistic_regression", "knn", "linear_svm")

MODEL_FORMAT_VERSION = "chronoseg-model/1"


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}; choose from {FAMILIES}")
        p = self.params
        checks = {
            "n_rounds": lambda v: v >= 0,
            "n_trees": lambda v: v >= 1,
            "learning_rate": lambda v: 0 < v <= 1,
            "num_leaves": lambda v: v >= 2,
            "max_depth": lambda v: v >= 1,
            "min_child_samples": lambda v: v >= 1,
            "reg_lambda": lambda v: v >= 0,
            "k": lambda v: v >= 1,
            "C": lambda v: v > 0,
            "l2": lambda v: v >= 0,
            "epochs": lambda v: v >= 1,
            "max_bins": lambda v: 2 <= v <= 65535,
        }
        for key, value in p.items():
            if key in checks and not checks[key](value):
                raise ConfigError(f"invalid hyperparameter {key}={value!r} for family {self.family}")
        if self.family == "gbdt" and p.get("preset", "lgbm") not in ("lgbm", "xgb"):
            raise ConfigError(f"gbdt preset must be 'lgbm' or 'xgb', got {p.get('preset')!r}")

    @property
    def name(self) -> str:
        if self.family == "gbdt":
            return {"lgbm": "lightgbm", "xgb": "xgboost"}[self.params.get("preset", "lgbm")]
        return self.family


def default_model_specs(seed: int = 0) -> dict[str, ModelSpec]:
    """The seven presets in reporting order."""
    return {
        "lightgbm": ModelSpec("gbdt", {"preset": "lgbm"}, seed),
        "xgboost": ModelSpec("gbdt", {"preset": "xgb"}, seed),
        "random_forest": ModelSpec("random_forest", {}, seed),
        "logistic_regression": ModelSpec("logistic_regression", {}, seed),
        "linear_svm": ModelSpec("linear_svm", {}, seed),
        "knn": ModelSpec("knn", {}, seed),
        "decision_tree": ModelSpec("decision_tree", {}, seed),
    }


@dataclass
class TrainedModel:
    spec: ModelSpec
    feature_names: tuple[str, ...]
    scaler: StandardScaler | None
    core: object

    @property
    def family(self) -> str:
        return self.spec.family

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def train(spec: ModelSpec, X: np.ndarray, y: np.ndarray, feature_names=None) -> TrainedModel:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] < 2:
        raise DataError(f"need at least 2 training rows, got shape {X.shape}")
    if not np.isfinite(X).all():
        raise DataError("non-finite feature values in training data")
    if y.min() == y.max():
        raise DataError(f"training data contains a single class ({int(y[0])})")
    if feature_names is None:
        feature_names = tuple(f"f{i}" for i in range(X.shape[1]))
    feature_names = tuple(feature_names)
    if len(feature_names) != X.shape[1]:
        raise DataError("feature_names length does not match columns")

    scaler = None
    if spec.family in STANDARDIZED_FAMILIES:
        scaler = fit_scaler(X)
        X = scaler.transform(X)

    p = dict(spec.params)
    if spec.family == "gbdt":
        preset = p.pop("preset", "lgbm")
        core = train_gbdt(X, y, preset=preset, **p)
    elif spec.family == "random_forest":
        core = build_forest(
            X,
            y,
            n_trees=p.get("n_trees", 100),
            max_features=p.get("max_features", "sqrt"),
            bootstrap=p.get("bootstrap", True),
            min_samples_split=p.get("min_samples_split", 2),
            seed=spec.seed,
        )
    elif spec.family == "decision_tree":
        core = build_cart(X, y, min_samples_split=p.get("min_samples_split", 2))
    elif spec.family == "logistic_regression":
        core = train_logistic(X, y, l2=p.get("l2", 1.0), tol=p.get("tol", 1e-6), max_iter=p.get("max_iter", 1000))
    elif spec.family == "linear_svm":
        core = train_linear_svm(X, y, C=p.get("C", 1.0), epochs=p.get("epochs", 20), seed=spec.seed)
    elif spec.family == "knn":
        core = train_knn(X, y, k=p.get("k", 5))
    else:  # pragma: no cover - guarded by ModelSpec validation
        raise ConfigError(f"unknown family {spec.family}")
    return TrainedModel(spec=spec, feature_names=feature_names, scaler=scaler, core=core)


def predict_proba(model: TrainedModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.n_features:
        raise DataError(f"expected {model.n_features} features, got shape {X.shape}")
    if model.scaler is not None:
        X = model.scaler.transform(X)
    scores = model.core.predict_proba(X)
    return np.clip(scores, 0.0, 1.0)


def gain_importance(model: TrainedModel) -> list[tuple[str, float]]:
    """Per-feature total split gain, descending; tree families only."""
    if model.family not in TREE_FAMILIES:
        raise ConfigError(f"gain importance is only defined for tree families, not {model.family}")
    gains = model.core.feature_gains()
    order = sorted(range(len(gains)), key=lambda i: (-gains[i], i))
    return [(model.feature_names[i], float(gains[i])) for i in order]


# -- model serialization ------------------------------------------------------

def _core_to_dict(core) -> dict:
    if isinstance(core, GradientBoosting):
        return {
            "kind": "gbdt",
            "preset": core.preset,
            "base_score": core.base_score,
            "boundaries": [b.tolist() for b in core.binner.boundaries],
            "trees": [t.to_dict() for t in core.trees],
            "n_features": core.n_features,
        }
    if isinstance(core, RandomForest):
        return {
            "kind": "forest",
            "n_features": core.n_features,
            "trees": [{"root": t.root.to_dict()} for t in core.trees],
        }
    if isinstance(core, CartTree):
        return {"kind": "cart", "n_features": core.n_features, "root": core.root.to_dict()}
    if isinstance(core, LogisticModel):
        return {"kind": "logistic", "weights": core.weights.tolist(), "intercept": core.intercept,
                "n_iter": core.n_iter, "grad_norm": core.grad_norm}
    if isinstance(core, LinearSvm):
        return {"kind": "svm", "weights": core.weights.tolist(), "intercept": core.intercept}
    if isinstance(core, KnnModel):
        return {"kind": "knn", "k": core.k, "X": core.X_train.tolist(), "y": core.y_train.tolist()}
    raise ConfigError(f"cannot serialize core of type {type(core)}")


def _core_from_dict(d: dict):
    kind = d["kind"]
    if kind == "gbdt":
        return GradientBoosting(
            preset=d["preset"],
            base_score=d["base_score"],
            binner=Binner([np.asarray(b, dtype=np.float64) for b in d["boundaries"]]),
            trees=[BoostNode.from_dict(t) for t in d["trees"]],
            n_features=d["n_features"],
        )
    if kind == "forest":
        return RandomForest(
            trees=[CartTree(root=TreeNode.from_dict(t["root"]), n_features=d["n_features"]) for t in d["trees"]],
            n_features=d["n_features"],
        )
    if kind == "cart":
        return CartTree(root=TreeNode.from_dict(d["root"]), n_features=d["n_features"])
    if kind == "logistic":
        return LogisticModel(weights=np.asarray(d["weights"]), intercept=d["intercept"], n_iter=d["n_iter"],
                             grad_norm=d["grad_norm"])
    if kind == "svm":
        return LinearSvm(weights=np.asarray(d["weights"]), intercept=d["intercept"])
    if kind == "knn":
        return KnnModel(k=d["k"], X_train=np.asarray(d["X"]), y_train=np.asarray(d["y"]))
    raise DataError(f"unknown serialized core kind {kind!r}")


def save_model(model: TrainedModel, path: str | Path) -> None:
    doc = {
        "format": MODEL_FORMAT_VERSION,
        "spec": {"family": model.spec.family, "params": model.spec.params, "seed": model.spec.seed},
        "feature_names": list(model.feature_names),
        "scaler": None
        if model.scaler is None
        else {"mean": model.scaler.mean.tolist(), "scale": model.scaler.scale.tolist()},
        "core": _core_to_dict(model.core),
    }
    Path(path).write_text(json.dumps(doc), encoding="utf-8")


def load_model(path: str | Path) -> TrainedModel:
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if doc.get("format") != MODEL_FORMAT_VERSION:
        raise DataError(f"unsupported model format {doc.get('format')!r}")
    scaler = None
    if doc["scaler"] is not None:
        scaler = StandardScaler(
            mean=np.asarray(doc["scaler"]["mean"]), scale=np.asarray(doc["scaler"]["scale"])
        )
    return TrainedModel(
        spec=ModelSpec(**doc["spec"]),
        feature_names=tuple(doc["feature_names"]),
        scaler=scaler,
        core=_core_from_dict(doc["core"]),
    )
