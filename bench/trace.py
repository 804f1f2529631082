"""Run one chronoseg CLI command serially with every layer boundary traced.

    python3 bench/trace.py SPANS.json -- evaluate --corpus corpus.csv ...

Public chronoseg functions are wrapped through the module attributes their
callers look them up by (``chronoseg.evaluation.train`` is what
``cross_validate`` calls, ``chronoseg.features.segment_day`` is what
``featurize_corpus`` calls). Each call becomes one span with its name, layer,
start, end, parent span and a few attributes read from its arguments and
result. Spans stay in memory and are written to SPANS.json when the command
ends. A name that a later refactor removes is skipped and listed under
``missing``; a metric whose function is wrapped nowhere is then absent rather
than the run failing.

The run is serial: spans inside process-pool children are not visible from
here.
"""

import time

START = time.perf_counter()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402

# (module, attribute, layer). "models" spans take the layer of the model
# family they fit or score.
TARGETS = (
    ("chronoseg.cli", "gen_corpus", "synth"),
    ("chronoseg.cli", "save_corpus", "ingest"),
    ("chronoseg.cli", "load_corpus", "ingest"),
    ("chronoseg.cli", "load_interchange", "ingest"),
    ("chronoseg.ingest", "parse_subject_file", "ingest"),
    ("chronoseg.ingest", "filter_complete_days", "ingest"),
    ("chronoseg.cli", "featurize_corpus", "features"),
    ("chronoseg.evaluation", "featurize_corpus", "features"),
    ("chronoseg.cli", "write_feature_table", "features"),
    ("chronoseg.features", "extract_features", "features"),
    ("chronoseg.features", "segment_day", "segmentation"),
    ("chronoseg.features", "validate_scheme", "segmentation"),
    ("chronoseg.segmentation", "validate_scheme", "segmentation"),
    ("chronoseg.cli", "run_matrix", "evaluation"),
    ("chronoseg.evaluation", "cross_validate", "evaluation"),
    ("chronoseg.evaluation", "auc_roc", "evaluation"),
    ("chronoseg.evaluation", "f1", "evaluation"),
    ("chronoseg.cli", "write_report_csv", "evaluation"),
    ("chronoseg.cli", "write_fold_csv", "evaluation"),
    ("chronoseg.cli", "write_roc_csv", "evaluation"),
    ("chronoseg.evaluation", "train", "models"),
    ("chronoseg.evaluation", "predict_proba", "models"),
)

FAMILY_LAYER = {
    "gbdt": "models.gbdt",
    "random_forest": "models.forest",
    "decision_tree": "models.tree",
    "logistic_regression": "models.linear",
    "linear_svm": "models.linear",
    "knn": "models.linear",
}


def _get(obj, *names):
    for name in names:
        obj = getattr(obj, name, None)
    return obj


def _tree_shape(core) -> dict:
    """Leaf count of every boosted tree, read from the fitted model."""
    trees = getattr(core, "trees", None)
    if not isinstance(trees, list) or not all(hasattr(t, "is_leaf") for t in trees):
        return {}
    leaves = []
    for tree in trees:
        count, stack = 0, [tree]
        while stack:
            node = stack.pop()
            if node.is_leaf:
                count += 1
            else:
                stack.extend((node.left, node.right))
        leaves.append(count)
    return {"trees": len(leaves), "leaves": sum(leaves), "zero_split": sum(1 for n in leaves if n == 1)}


def _attributes(name: str, args: tuple, result) -> tuple[str | None, dict]:
    """(layer override, attributes) for one finished call."""
    if name == "train":
        family, model = _get(args[0], "family"), _get(args[0], "name")
        attrs = {"model": model}
        if family == "gbdt":
            attrs.update(_tree_shape(_get(result, "core")))
        return FAMILY_LAYER.get(family), attrs
    if name == "predict_proba":
        return FAMILY_LAYER.get(_get(args[0], "spec", "family")), {"model": _get(args[0], "spec", "name")}
    if name == "cross_validate":
        return None, {"scheme": _get(args[0], "scheme"), "model": _get(args[1], "name")}
    if name == "featurize_corpus":
        return None, {"scheme": _get(args[1], "name"), "rows": _get(result, "n_rows"),
                      "per_subject": _get(args[1], "per_subject")}
    return None, {}


class Tracer:
    """Spans as [name, layer, parent index, start, end, attributes]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []

    def wrap(self, fn, name: str, layer: str):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, layer, self.stack[-1] if self.stack else -1, 0.0, 0.0, {}]
            self.spans.append(span)
            self.stack.append(index)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                self.stack.pop()
            override, span[5] = _attributes(name, args, result)
            span[1] = override or layer
            return result

        return traced


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    out, cli_args = argv[0], argv[2:]
    import chronoseg.cli

    import_s = time.perf_counter() - START
    tracer = Tracer()
    missing, wrapped = [], set()
    for module_name, attr, layer in TARGETS:
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(fn, attr, layer))
        wrapped.add(attr)
    if missing:
        print(f"trace: not found: {', '.join(missing)}", file=sys.stderr)
    rc = tracer.wrap(chronoseg.cli.main, "main", "cli")(cli_args)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "import_s": import_s, "missing": missing, "wrapped": sorted(wrapped),
                   "spans": tracer.spans}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
