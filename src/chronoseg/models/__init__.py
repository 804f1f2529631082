"""Classifier families behind one train/predict interface.

Seven model presets map onto six families (the two boosting presets share one
engine). Distance/margin/gradient families standardize features internally;
tree families consume raw features. All training is deterministic given
(spec, data, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ConfigError, DataError
from .forest import build_forest
from .gbdt import DEFAULT_PARAMS, train_gbdt
from .linear import train_knn, train_linear_svm, train_logistic
from .scaler import StandardScaler, fit_scaler
from .tree import build_cart

# the hyperparameters each family accepts; the defaults live in the trainers' signatures
FAMILY_PARAMS = {
    "gbdt": ("preset", *DEFAULT_PARAMS),
    "random_forest": ("n_trees", "max_features", "bootstrap", "min_samples_split"),
    "decision_tree": ("min_samples_split",),
    "logistic_regression": ("l2", "tol", "max_iter"),
    "knn": ("k",),
    "linear_svm": ("C", "epochs"),
}
FAMILIES = tuple(FAMILY_PARAMS)
TREE_FAMILIES = ("gbdt", "random_forest", "decision_tree")
STANDARDIZED_FAMILIES = ("logistic_regression", "knn", "linear_svm")


def _number(kind, ok):
    """Check that a value is of kind (bool excluded) and satisfies ok."""
    return lambda v: isinstance(v, kind) and not isinstance(v, bool) and ok(v)


PARAM_CHECKS = {
    "preset": lambda v: v in ("lgbm", "xgb"),
    "n_rounds": _number(int, lambda v: v >= 0),
    "n_trees": _number(int, lambda v: v >= 1),
    "learning_rate": _number((int, float), lambda v: 0 < v <= 1),
    "num_leaves": _number(int, lambda v: v >= 2),
    "max_depth": _number(int, lambda v: v >= 1),
    "min_child_samples": _number(int, lambda v: v >= 1),
    "reg_lambda": _number((int, float), lambda v: v >= 0),
    "max_bins": _number(int, lambda v: 2 <= v <= 65535),
    "max_features": lambda v: v is None or v == "sqrt" or _number(int, lambda v: v >= 1)(v),
    "bootstrap": lambda v: isinstance(v, bool),
    "min_samples_split": _number(int, lambda v: v >= 1),
    "l2": _number((int, float), lambda v: v >= 0),
    "tol": _number((int, float), lambda v: v >= 0),
    "max_iter": _number(int, lambda v: v >= 0),
    "k": _number(int, lambda v: v >= 1),
    "C": _number((int, float), lambda v: v > 0),
    "epochs": _number(int, lambda v: v >= 1),
}


@dataclass(frozen=True)
class ModelSpec:
    family: str
    params: dict = field(default_factory=dict)
    seed: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigError(f"unknown model family {self.family!r}; choose from {FAMILIES}")
        for key, value in self.params.items():
            if key not in FAMILY_PARAMS[self.family]:
                raise ConfigError(
                    f"unknown hyperparameter {key!r} for family {self.family}; "
                    f"choose from {FAMILY_PARAMS[self.family]}"
                )
            if not PARAM_CHECKS[key](value):
                raise ConfigError(f"invalid hyperparameter {key}={value!r} for family {self.family}")
        if self.family == "gbdt":
            # each preset is stopped by one limit and ignores the other's
            preset = self.params.get("preset", "lgbm")
            ignored = {"lgbm": "max_depth", "xgb": "num_leaves"}[preset]
            if ignored in self.params:
                raise ConfigError(f"hyperparameter {ignored!r} has no effect on gbdt preset {preset} ({self.name})")

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

    p = spec.params
    if spec.family == "gbdt":
        core = train_gbdt(X, y, **p)
    elif spec.family == "random_forest":
        core = build_forest(X, y, seed=spec.seed, **p)
    elif spec.family == "decision_tree":
        core = build_cart(X, y, **p)
    elif spec.family == "logistic_regression":
        core = train_logistic(X, y, **p)
    elif spec.family == "linear_svm":
        core = train_linear_svm(X, y, seed=spec.seed, **p)
    else:
        core = train_knn(X, y, **p)
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
