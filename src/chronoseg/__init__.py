"""Temporal segmentation and classification of per-minute motor activity."""

from .errors import ChronosegError, ConfigError, DataError
from .evaluation import CVReport, cross_validate, run_matrix, stratified_kfold
from .features import FEATURE_NAMES, FeatureTable, featurize_corpus
from .ingest import Corpus, load_corpus, load_interchange, save_corpus
from .models import ModelSpec, default_model_specs, gain_importance, predict_proba, train
from .segmentation import SegmentationScheme, builtin_scheme, resolve_scheme
from .synth import gen_corpus

__version__ = "0.1.0"

__all__ = [
    "ChronosegError",
    "ConfigError",
    "DataError",
    "CVReport",
    "cross_validate",
    "run_matrix",
    "stratified_kfold",
    "ModelSpec",
    "default_model_specs",
    "gain_importance",
    "predict_proba",
    "train",
    "resolve_scheme",
    "FEATURE_NAMES",
    "FeatureTable",
    "featurize_corpus",
    "Corpus",
    "load_corpus",
    "load_interchange",
    "save_corpus",
    "SegmentationScheme",
    "builtin_scheme",
    "gen_corpus",
    "__version__",
]
