"""Classifier families behind one train/predict interface.

FAMILIES declares every family once, in reporting order: its trainer and
whether it grows trees on raw features (the others train on standardized
features). A family's hyperparameters, with their defaults, are its trainer's
keyword parameters but seed, which the trainers that take it get from the spec;
PARAM_CHECKS checks each value. The two boosting presets of ``gbdt.PRESETS``
share one family, so seven model presets map onto six families. A decision
tree is a random forest of one tree (see ``tree``), so both families fit a
``tree.RandomForest``. All training is deterministic given (spec, data, seed).
``serves`` tells whether a boosting fit that no limit stopped is also the fit
of the other boosting preset on the same rows (see ``gbdt``).
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from ..errors import ConfigError, DataError
from . import gbdt
from .gbdt import PRESETS, train_gbdt
from .linear import train_knn, train_linear_svm, train_logistic
from .scaler import StandardScaler, fit_scaler
from .tree import build_cart, build_forest


class Family(NamedTuple):
    trainer: Callable
    tree: bool  # trains on raw features; the other families on standardized ones
    params: dict  # hyperparameter name -> default: the trainer's keyword parameters but seed
    seeded: bool  # the trainer takes the spec's seed


def _family(trainer: Callable, tree: bool = False) -> Family:
    signature = inspect.signature(trainer).parameters
    params = {name: p.default for name, p in signature.items() if p.default is not p.empty and name != "seed"}
    return Family(trainer, tree, params, "seed" in signature)


FAMILIES = {
    "gbdt": _family(train_gbdt, tree=True),
    "random_forest": _family(build_forest, tree=True),
    "logistic_regression": _family(train_logistic),
    "linear_svm": _family(train_linear_svm),
    "knn": _family(train_knn),
    "decision_tree": _family(build_cart, tree=True),
}


def _number(kind, ok):
    """Check that a value is of kind (bool excluded) and satisfies ok."""
    return lambda v: isinstance(v, kind) and not isinstance(v, bool) and ok(v)


PARAM_CHECKS = {
    # a list is unhashable, so the type is checked before the lookup
    "preset": lambda v: isinstance(v, str) and v in PRESETS,
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
            raise ConfigError(f"unknown model family {self.family!r}; choose from {tuple(FAMILIES)}")
        accepted = tuple(FAMILIES[self.family].params)
        for key, value in self.params.items():
            if key not in accepted:
                raise ConfigError(f"unknown hyperparameter {key!r} for family {self.family}; choose from {accepted}")
            if not PARAM_CHECKS[key](value):
                raise ConfigError(f"invalid hyperparameter {key}={value!r} for family {self.family}")
        preset = self.preset
        if preset is not None:
            # each preset is stopped by its own limit and ignores the others'
            limit = PRESETS[preset].limit
            for other in PRESETS.values():
                if other.limit != limit and other.limit in self.params:
                    raise ConfigError(
                        f"hyperparameter {other.limit!r} has no effect on gbdt preset {preset} ({self.name})")

    @property
    def hyperparameters(self) -> dict:
        """Every hyperparameter of the family: its defaults overlaid with params."""
        return {**FAMILIES[self.family].params, **self.params}

    @property
    def preset(self) -> str | None:
        """The boosting preset, for a family that has presets; else None."""
        return self.hyperparameters.get("preset")

    @property
    def name(self) -> str:
        preset = self.preset
        return self.family if preset is None else PRESETS[preset].name


def default_model_specs(seed: int = 0) -> dict[str, ModelSpec]:
    """The seven presets in reporting order: one per family, one per boosting preset."""
    specs = {}
    for family, row in FAMILIES.items():
        param_sets = [{"preset": preset} for preset in PRESETS] if "preset" in row.params else [{}]
        for params in param_sets:
            spec = ModelSpec(family, params, seed)
            specs[spec.name] = spec
    return specs


@dataclass
class TrainedModel:
    spec: ModelSpec
    feature_names: tuple[str, ...]
    scaler: StandardScaler | None
    core: object

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

    family = FAMILIES[spec.family]
    scaler = None
    if not family.tree:
        scaler = fit_scaler(X)
        X = scaler.transform(X)
    seed = {"seed": spec.seed} if family.seeded else {}
    core = family.trainer(X, y, **spec.params, **seed)
    return TrainedModel(spec=spec, feature_names=feature_names, scaler=scaler, core=core)


def serves(model: TrainedModel, spec: ModelSpec) -> bool:
    """Whether model is also the fit of spec on model's training rows.

    Only a boosting fit serves another spec, by the rule of ``gbdt.serves``.
    """
    return (spec.family == model.spec.family and isinstance(model.core, gbdt.GradientBoosting)
            and gbdt.serves(model.core, model.spec.hyperparameters, spec.hyperparameters))


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
    if not FAMILIES[model.spec.family].tree:
        raise ConfigError(f"gain importance is only defined for tree families, not {model.spec.family}")
    gains = model.core.feature_gains()
    order = sorted(range(len(gains)), key=lambda i: (-gains[i], i))
    return [(model.feature_names[i], float(gains[i])) for i in order]
