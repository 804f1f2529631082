"""Command-line pipeline: synth -> featurize -> evaluate -> importance.

Every run is driven by an optional YAML config file; command-line flags
override config keys. Outputs are plain CSV/text files with fixed numeric
formatting so reruns with the same config are byte-identical. Exit codes:
0 ok, 2 config/usage error, 3 data error, 4 internal failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import ChronosegError, ConfigError, DataError
from .evaluation import run_matrix, write_fold_csv, write_report_csv, write_roc_csv
from .features import featurize_corpus, read_feature_table, write_feature_table
from .ingest import Corpus, load_corpus, load_interchange, save_corpus
from .models import ModelSpec, default_model_specs, gain_importance, train, TREE_FAMILIES
from .segmentation import read_yaml, resolve_scheme
from .synth import gen_corpus

# Table II ordering: finest segmentation first, whole-record last
DEFAULT_SCHEMES = ["parts12", "parts8", "parts6", "parts4", "parts3", "parts2", "full_day", "all_days"]
DEFAULT_MODELS = list(default_model_specs())


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file {path} does not exist")
    doc = read_yaml(p)
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"config file {path} must be a key-value document")
    return doc


def _setting(args, config: dict, key: str, default=None):
    value = getattr(args, key, None)
    if value is not None:
        return value
    return config.get(key, default)


def _int_setting(args, config: dict, key: str, default: int, minimum: int | None = None) -> int:
    value = _setting(args, config, key, default)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{key} must be >= {minimum}, got {value}")
    return value


def _str_setting(args, config: dict, key: str, default: str | None = None) -> str | None:
    value = _setting(args, config, key, default)
    if value is not None and not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _str_list_setting(args, config: dict, key: str, default: list[str]) -> list[str]:
    value = _setting(args, config, key)
    if value is None:
        return default
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise ConfigError(f"{key} must be a list of strings, got {value!r}")
    return value or default


def _load_any_corpus(path: str, metadata: str | None = None) -> Corpus:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"corpus path {path} does not exist")
    if p.is_dir():
        return load_corpus(p, metadata=metadata)
    return load_interchange(p)


def _resolve_specs(model_names: list[str], config: dict, seed: int) -> dict[str, ModelSpec]:
    model_params = config.get("model_params", {})
    if not isinstance(model_params, dict) or not all(isinstance(v, dict) for v in model_params.values()):
        raise ConfigError(f"model_params must map model names to hyperparameter mappings, got {model_params!r}")
    available = default_model_specs(seed=seed)
    for name, params in model_params.items():
        if name not in available:
            raise ConfigError(f"model_params key {name!r} names no model; choose from {list(available)}")
        if "preset" in params:
            raise ConfigError(f"model_params key 'preset' of {name!r} is fixed by the model name; remove it")
    # every model_params entry is checked, whether or not its model runs
    resolved = {
        name: ModelSpec(base.family, {**base.params, **model_params.get(name, {})}, seed)
        for name, base in available.items()
    }
    for name in model_names:
        if name not in resolved:
            raise ConfigError(f"unknown model {name!r}; choose from {list(available)}")
    return {name: resolved[name] for name in model_names}


def cmd_synth(args, config: dict) -> int:
    patients = _int_setting(args, config, "patients", 10)
    controls = _int_setting(args, config, "controls", 10)
    days = _int_setting(args, config, "days", 14)
    seed = _int_setting(args, config, "seed", 0, minimum=0)
    out = _str_setting(args, config, "out", "corpus.csv")
    corpus = gen_corpus(patients, controls, days, seed=seed)
    save_corpus(corpus, out)
    print(f"wrote {out}: {len(corpus.subjects)} subjects, {len(corpus.dates)} days")
    return 0


def cmd_featurize(args, config: dict) -> int:
    corpus_path = _str_setting(args, config, "corpus")
    if not corpus_path:
        raise ConfigError("featurize needs a corpus path (--corpus or config key 'corpus')")
    metadata = _str_setting(args, config, "metadata")
    scheme_names = _str_list_setting(args, config, "schemes", DEFAULT_SCHEMES)
    out_dir = Path(_str_setting(args, config, "out_dir", "."))
    schemes = [resolve_scheme(name) for name in scheme_names]
    corpus = _load_any_corpus(corpus_path, metadata)
    out_dir.mkdir(parents=True, exist_ok=True)
    for scheme in schemes:
        table = featurize_corpus(corpus, scheme)
        path = out_dir / f"features_{scheme.name}.csv"
        write_feature_table(table, path)
        print(f"{path}: {table.n_rows} rows x {len(table.columns)} features")
    return 0


def cmd_evaluate(args, config: dict) -> int:
    k = _int_setting(args, config, "k", 10)
    seed = _int_setting(args, config, "seed", 0, minimum=0)
    mode = _str_setting(args, config, "cv_mode", "row_stratified")
    workers = _int_setting(args, config, "workers", 1)
    out_dir = Path(_str_setting(args, config, "out_dir", "."))
    scheme_names = _str_list_setting(args, config, "schemes", DEFAULT_SCHEMES)
    model_names = _str_list_setting(args, config, "models", DEFAULT_MODELS)
    specs = _resolve_specs(model_names, config, seed)

    corpus_path = _str_setting(args, config, "corpus")
    features_dir = _str_setting(args, config, "features_dir")
    metadata = _str_setting(args, config, "metadata")
    if corpus_path:
        corpus = _load_any_corpus(corpus_path, metadata)
        schemes = [resolve_scheme(name) for name in scheme_names]
        tables = [featurize_corpus(corpus, scheme) for scheme in schemes]
    elif features_dir:
        tables = []
        for name in scheme_names:
            # featurize files a scheme file's table under the scheme's name
            if Path(name).is_file():
                name = resolve_scheme(name).name
            path = Path(features_dir) / f"features_{name}.csv"
            if not path.exists():
                raise ConfigError(f"feature table {path} does not exist")
            tables.append(read_feature_table(path, scheme=name))
    else:
        raise ConfigError("evaluate needs --corpus or --features-dir (or config keys)")
    reports, grid = run_matrix(tables, specs, k=k, seed=seed, mode=mode, workers=workers)

    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(reports, out_dir / "report.csv")
    write_fold_csv(reports, out_dir / "folds.csv")
    write_roc_csv(reports, out_dir / "roc_points.csv")
    sys.stdout.write(grid)
    return 0


def cmd_importance(args, config: dict) -> int:
    corpus_path = _str_setting(args, config, "corpus")
    if not corpus_path:
        raise ConfigError("importance needs a corpus path")
    scheme_name = _str_setting(args, config, "scheme", "parts2")
    model_name = _str_setting(args, config, "model", "lightgbm")
    seed = _int_setting(args, config, "seed", 0, minimum=0)
    out = _str_setting(args, config, "out", "importance.csv")
    metadata = _str_setting(args, config, "metadata")

    specs = _resolve_specs([model_name], config, seed)
    spec = specs[model_name]
    if spec.family not in TREE_FAMILIES:
        raise ConfigError(f"model {model_name} is not a tree family; gain importance undefined")

    corpus = _load_any_corpus(corpus_path, metadata)
    table = featurize_corpus(corpus, resolve_scheme(scheme_name))
    model = train(spec, table.X, table.labels, feature_names=table.columns)
    ranking = gain_importance(model)
    with open(out, "w", encoding="utf-8", newline="") as fh:
        fh.write("feature,gain\n")
        for feature, gain in ranking:
            fh.write(f"{feature},{gain:.17g}\n")
    print(f"wrote {out}: top feature {ranking[0][0]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chronoseg", description=__doc__)
    parser.add_argument("--config", help="YAML config file; flags override its keys")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus file")
    p_synth.add_argument("--patients", type=int)
    p_synth.add_argument("--controls", type=int)
    p_synth.add_argument("--days", type=int)
    p_synth.add_argument("--seed", type=int)
    p_synth.add_argument("--out")

    p_feat = sub.add_parser("featurize", help="write one feature table per scheme")
    p_feat.add_argument("--corpus")
    p_feat.add_argument("--metadata", help="subject_id,label table for directory corpora")
    p_feat.add_argument("--schemes", nargs="+", help="preset names or scheme files")
    p_feat.add_argument("--out-dir", dest="out_dir")

    p_eval = sub.add_parser("evaluate", help="run the scheme x model CV matrix")
    p_eval.add_argument("--corpus")
    p_eval.add_argument("--metadata")
    p_eval.add_argument("--features-dir", dest="features_dir")
    p_eval.add_argument("--schemes", nargs="+")
    p_eval.add_argument("--models", nargs="+")
    p_eval.add_argument("--k", type=int)
    p_eval.add_argument("--seed", type=int)
    p_eval.add_argument("--cv-mode", dest="cv_mode", choices=["row_stratified", "subject_grouped"])
    p_eval.add_argument("--workers", type=int)
    p_eval.add_argument("--out-dir", dest="out_dir")

    p_imp = sub.add_parser("importance", help="gain-importance ranking for a tree model")
    p_imp.add_argument("--corpus")
    p_imp.add_argument("--metadata")
    p_imp.add_argument("--scheme")
    p_imp.add_argument("--model")
    p_imp.add_argument("--seed", type=int)
    p_imp.add_argument("--out")

    return parser


COMMANDS = {
    "synth": cmd_synth,
    "featurize": cmd_featurize,
    "evaluate": cmd_evaluate,
    "importance": cmd_importance,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        config = _load_config(args.config)
        return COMMANDS[args.command](args, config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except ChronosegError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
