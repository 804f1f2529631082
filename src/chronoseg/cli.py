"""Command-line pipeline: synth -> featurize -> evaluate -> importance.

Every run is driven by an optional YAML config file; command-line flags
override config keys. Each setting is declared once, in SETTINGS: its config
key, which also names its flag, its kind, its default and, for an integer,
its minimum. Outputs are plain CSV/text files with fixed
numeric formatting so reruns with the same config are byte-identical. Exit
codes: 0 ok, 2 config/usage error, 3 data error, 4 internal failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import NamedTuple

from .errors import ConfigError, DataError
from .evaluation import CV_MODES, run_matrix, write_fold_csv, write_report_csv, write_roc_csv
from .features import featurize_corpus, read_feature_table, write_feature_table
from .ingest import Corpus, load_corpus, load_interchange, save_corpus
from .models import FAMILIES, ModelSpec, default_model_specs, gain_importance, train
from .segmentation import PRESET_NAMES, SegmentationScheme, check_name, read_yaml, resolve_scheme
from .synth import gen_corpus

DEFAULT_SCHEMES = list(PRESET_NAMES)
DEFAULT_MODELS = list(default_model_specs())


class Setting(NamedTuple):
    """One setting of a command, read from its flag or its config key.

    ``kind`` is ``int``, ``str``, ``list`` (of strings) or a tuple of the
    allowed strings, and an integer has a ``minimum``. A ``default`` of None
    lets the setting be unset (YAML null); every other setting rejects null
    as a wrong kind.
    """

    kind: type | tuple[str, ...]
    default: object
    minimum: int | None = None
    help: str | None = None


_CORPUS = Setting(str, None)
_METADATA = Setting(str, None, help="subject_id,label table for directory corpora")
_SCHEMES = Setting(list, DEFAULT_SCHEMES, help="preset names or scheme files")
_SEED = Setting(int, 0, minimum=0)
_OUT_DIR = Setting(str, ".")

# every setting of each command, in --help order; model_params is config-only
SETTINGS = {
    "synth": dict(patients=Setting(int, 10, minimum=1), controls=Setting(int, 10, minimum=1),
                  days=Setting(int, 14, minimum=1), seed=_SEED, out=Setting(str, "corpus.csv")),
    "featurize": dict(corpus=_CORPUS, metadata=_METADATA, schemes=_SCHEMES, out_dir=_OUT_DIR),
    "evaluate": dict(corpus=_CORPUS, metadata=_METADATA, features_dir=Setting(str, None), schemes=_SCHEMES,
                     models=Setting(list, DEFAULT_MODELS), k=Setting(int, 10, minimum=2), seed=_SEED,
                     cv_mode=Setting(CV_MODES, "row_stratified"), workers=Setting(int, 1, minimum=1),
                     out_dir=_OUT_DIR),
    "importance": dict(corpus=_CORPUS, metadata=_METADATA, scheme=Setting(str, "parts2"),
                       model=Setting(str, "lightgbm"), seed=_SEED, out=Setting(str, "importance.csv")),
}
CONFIG_KEYS = {key for table in SETTINGS.values() for key in table} | {"model_params"}


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


def _checked(key: str, setting: Setting, value):
    if value is None and setting.default is None:
        return None
    if setting.kind is int:
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{key} must be an integer, got {value!r}")
        if value < setting.minimum:
            raise ConfigError(f"{key} must be >= {setting.minimum}, got {value}")
    elif setting.kind is list:
        if not value or not isinstance(value, list) or not all(isinstance(item, str) for item in value):
            raise ConfigError(f"{key} must be a non-empty list of strings, got {value!r}")
    elif isinstance(setting.kind, tuple):
        if value not in setting.kind:
            raise ConfigError(f"{key} must be one of {list(setting.kind)}, got {value!r}")
    elif not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def resolve_settings(command: str, args: argparse.Namespace, config: dict) -> dict:
    """Each setting of ``command``: its flag, else its config key, else its default.

    A config value is checked also where a flag overrides it. Keys that only
    other commands read are allowed, so that one config file serves them all.
    """
    for key in config:
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key {key!r}; choose from {sorted(CONFIG_KEYS)}")
    resolved = {}
    for key, setting in SETTINGS[command].items():
        flag = getattr(args, key)
        value = _checked(key, setting, config.get(key, setting.default))
        resolved[key] = value if flag is None else _checked(key, setting, flag)
    return resolved


def _check_output(path: str, is_dir: bool) -> None:
    """Raise ConfigError, before any input is read, when path cannot be written.

    An output directory is created with its missing parents, so its nearest
    existing ancestor must be a directory. An output file is opened in its
    directory, which must exist, and must not be a directory itself.
    """
    p = Path(path)
    if is_dir:
        while not p.exists() and p != p.parent:
            p = p.parent
        if not p.is_dir():
            raise ConfigError(f"cannot create output directory {path}: {p} is not a directory")
    elif p.is_dir():
        raise ConfigError(f"output file {path} is a directory")
    elif not p.parent.is_dir():
        raise ConfigError(f"cannot write output file {path}: {p.parent} is not a directory")


def _load_any_corpus(path: str, metadata: str | None = None) -> Corpus:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"corpus path {path} does not exist")
    if p.is_dir():
        return load_corpus(p, metadata=metadata)
    return load_interchange(p)


def _distinct(names: list[str], kind: str = "scheme") -> list[str]:
    """A run's scheme or model names, each once: a repeated name would write one table or cell twice."""
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ConfigError(f"{kind} {name!r} is given twice; each {kind} of a run needs its own name")
    return names


def _resolve_schemes(names: list[str]) -> list[SegmentationScheme]:
    schemes = [resolve_scheme(name) for name in names]
    _distinct([scheme.name for scheme in schemes])
    return schemes


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
    return {name: resolved[name] for name in _distinct(model_names, "model")}


def cmd_synth(settings: dict, config: dict) -> int:
    """generate a synthetic corpus file"""
    _check_output(settings["out"], is_dir=False)
    corpus = gen_corpus(settings["patients"], settings["controls"], settings["days"], seed=settings["seed"])
    save_corpus(corpus, settings["out"])
    print(f"wrote {settings['out']}: {len(corpus.subjects)} subjects, {len(corpus.dates)} days")
    return 0


def cmd_featurize(settings: dict, config: dict) -> int:
    """write one feature table per scheme"""
    _check_output(settings["out_dir"], is_dir=True)
    if not settings["corpus"]:
        raise ConfigError("featurize needs a corpus path (--corpus or config key 'corpus')")
    out_dir = Path(settings["out_dir"])
    schemes = _resolve_schemes(settings["schemes"])
    corpus = _load_any_corpus(settings["corpus"], settings["metadata"])
    out_dir.mkdir(parents=True, exist_ok=True)
    for scheme in schemes:
        table = featurize_corpus(corpus, scheme)
        path = out_dir / f"features_{scheme.name}.csv"
        write_feature_table(table, path)
        print(f"{path}: {table.n_rows} rows x {len(table.columns)} features")
    return 0


def cmd_evaluate(settings: dict, config: dict) -> int:
    """run the scheme x model CV matrix"""
    _check_output(settings["out_dir"], is_dir=True)
    specs = _resolve_specs(settings["models"], config, settings["seed"])
    if settings["corpus"]:
        schemes = _resolve_schemes(settings["schemes"])
        corpus = _load_any_corpus(settings["corpus"], settings["metadata"])
        tables = [featurize_corpus(corpus, scheme) for scheme in schemes]
    elif settings["features_dir"]:
        # featurize files a scheme file's table under the scheme's name; any
        # other name is checked as a scheme's name is
        names = _distinct([resolve_scheme(name).name if Path(name).is_file() else check_name("scheme", name)
                           for name in settings["schemes"]])
        tables = []
        for name in names:
            path = Path(settings["features_dir"]) / f"features_{name}.csv"
            if not path.exists():
                raise ConfigError(f"feature table {path} does not exist")
            tables.append(read_feature_table(path, scheme=name))
    else:
        raise ConfigError("evaluate needs --corpus or --features-dir (or config keys)")
    if settings["cv_mode"] == "row_stratified" and any(len(set(t.subject_ids)) < t.n_rows for t in tables):
        print("warning: row_stratified CV deals each row on its own, so days of one subject land in both "
              "training and test folds; --cv-mode subject_grouped keeps a subject's days in one fold",
              file=sys.stderr)
    reports, grid = run_matrix(tables, specs, k=settings["k"], seed=settings["seed"], mode=settings["cv_mode"],
                               workers=settings["workers"])

    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    write_report_csv(reports, out_dir / "report.csv")
    write_fold_csv(reports, out_dir / "folds.csv")
    write_roc_csv(reports, out_dir / "roc_points.csv")
    sys.stdout.write(grid)
    return 0


def cmd_importance(settings: dict, config: dict) -> int:
    """gain-importance ranking for a tree model"""
    _check_output(settings["out"], is_dir=False)
    if not settings["corpus"]:
        raise ConfigError("importance needs a corpus path")
    spec = _resolve_specs([settings["model"]], config, settings["seed"])[settings["model"]]
    if not FAMILIES[spec.family].tree:
        raise ConfigError(f"model {settings['model']} is not a tree family; gain importance undefined")

    corpus = _load_any_corpus(settings["corpus"], settings["metadata"])
    table = featurize_corpus(corpus, resolve_scheme(settings["scheme"]))
    model = train(spec, table.X, table.labels, feature_names=table.columns)
    ranking = gain_importance(model)
    with open(settings["out"], "w", encoding="utf-8", newline="") as fh:
        fh.write("feature,gain\n")
        for feature, gain in ranking:
            fh.write(f"{feature},{gain:.17g}\n")
    top_feature, top_gain = ranking[0]
    if top_gain > 0:
        print(f"wrote {settings['out']}: top feature {top_feature}")
    else:
        print(f"wrote {settings['out']}: the model made no split, so every gain is 0")
    return 0


COMMANDS = {
    "synth": cmd_synth,
    "featurize": cmd_featurize,
    "evaluate": cmd_evaluate,
    "importance": cmd_importance,
}
# how argparse reads each kind of setting; a tuple kind becomes choices
FLAG_KIND = {int: {"type": int}, str: {}, list: {"nargs": "+"}}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="chronoseg", description=__doc__)
    parser.add_argument("--config", help="YAML config file; flags override its keys")
    parser.add_argument("--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, run in COMMANDS.items():
        p_cmd = sub.add_parser(command, help=run.__doc__)
        for key, setting in SETTINGS[command].items():
            kind = FLAG_KIND.get(setting.kind, {"choices": setting.kind})
            p_cmd.add_argument("--" + key.replace("_", "-"), help=setting.help, **kind)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        config = _load_config(args.config)
        return COMMANDS[args.command](resolve_settings(args.command, args, config), config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        # a path that cannot be opened or created is bad input; the message names it
        named = exc.filename is not None
        print(f"{'config' if named else 'internal'} error: {exc}", file=sys.stderr)
        return 2 if named else 4
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
