#!/usr/bin/env python3
"""Benchmark of the chronoseg pipeline, driven only through its CLI and files.

    python3 bench/run.py --workload matrix_default --seed 0 --seconds 30 --trace 0

Each run builds its inputs from ``--seed`` in a fresh directory under
``.bench_work/`` (set-up, timed several times), then repeats the workload's
pipeline call as a child process for ``--seconds`` seconds, checks every
output and prints one JSON result as its last line. ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` makes one untraced serial call, one
untraced call with the workload's workers and one serial call under
``bench/trace.py``, and reports the per-layer metrics derived from its spans.
``bench/METRICS.md`` says why each workload exists and what each metric
should move.

``--size`` picks the cohort size: ``bench`` (default) fits the run budget,
``full`` is the paper-sized experiment (about a minute per matrix call) and
``tiny`` is for the self-test. Every process it starts runs with one
BLAS/OpenMP thread.
"""

import os

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # before NumPy loads its BLAS

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
PY = sys.executable

ALL_SCHEMES = ("parts12", "parts8", "parts6", "parts4", "parts3", "parts2", "full_day", "all_days")
SEGMENTS = {"parts12": 12, "parts8": 8, "parts6": 6, "parts4": 4, "parts3": 3, "parts2": 2, "full_day": 1,
            "all_days": 1}
PRESETS = ("lightgbm", "xgboost", "random_forest", "logistic_regression", "linear_svm", "knn", "decision_tree")
GBDT_PRESETS = ("lightgbm", "xgboost")
N_FEATURES = 16
K = 10
SETUP_REPS = 5
CHILD_TIMEOUT_S = 170
MATRIX_OUTPUTS = ("report.csv", "folds.csv", "roc_points.csv")
# report.csv sha256 prefixes known before this benchmark existed
KNOWN_REPORTS = {("matrix_default", "full", 0): "d922da8772ace9de"}

# sizes are (patients, controls, calendar days per subject)
WORKLOADS = {
    "matrix_default": {"inputs": "synth", "command": "evaluate", "schemes": ALL_SCHEMES, "workers": 1,
                       "sizes": {"bench": (10, 10, 4), "full": (10, 10, 14), "tiny": (10, 10, 2)}},
    "matrix_hard": {"inputs": "hard", "command": "evaluate", "schemes": ("parts2", "parts4", "all_days"),
                    "workers": 2, "sizes": {"bench": (10, 10, 8), "full": (10, 10, 14), "tiny": (10, 10, 2)}},
    "ingest_raw": {"inputs": "raw", "command": "featurize", "schemes": ALL_SCHEMES, "workers": 1,
                   "sizes": {"bench": (22, 32, 3), "full": (22, 32, 14), "tiny": (3, 3, 2)}},
}
TINY_MATRIX_SCHEMES = ("parts2", "all_days")

END_TO_END = {
    "wall_s": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "auc_mean": ("auc", "higher"),
}


def _per_layer() -> dict:
    m = {}
    for name in ("parse_subject_file_s", "filter_complete_days_s", "load_corpus_s", "load_interchange_s",
                 "save_corpus_s"):
        m[f"ingest.{name}"] = ("s", "lower")
    m["ingest.rows"] = ("count", "higher")
    m["ingest.rows_per_s"] = ("1/s", "higher")
    m["ingest.days_kept"] = ("count", "higher")
    m["ingest.days_discarded"] = ("count", "lower")
    m["ingest.day_keep_ratio"] = ("ratio", "higher")
    m["synth.gen_corpus_s"] = ("s", "lower")
    m["segmentation.segment_day_s"] = ("s", "lower")
    m["segmentation.segment_day_calls"] = ("count", "lower")
    m["segmentation.validate_scheme_calls"] = ("count", "lower")
    for scheme in ALL_SCHEMES:
        m[f"features.featurize_s.{scheme}"] = ("s", "lower")
    m["features.extract_features_calls"] = ("count", "lower")
    m["features.write_feature_table_s"] = ("s", "lower")
    m["features.rows"] = ("count", "higher")
    for preset in PRESETS:
        m[f"models.{preset}.fit_s"] = ("s", "lower")
        m[f"models.{preset}.predict_s"] = ("s", "lower")
        m[f"models.{preset}.fits"] = ("count", "higher")
    for preset in GBDT_PRESETS:
        for scheme in ("parts2", "parts12"):
            m[f"models.{preset}.fit_s.{scheme}"] = ("s", "lower")
        m[f"models.{preset}.leaves_per_tree"] = ("count", "higher")
        m[f"models.{preset}.zero_split_round_frac"] = ("ratio", "lower")
    for name in ("cross_validate_s", "self_s", "metrics_s", "write_s"):
        m[f"evaluation.{name}"] = ("s", "lower")
    m["evaluation.cells"] = ("count", "higher")
    m["evaluation.single_class_folds"] = ("count", "lower")
    m["evaluation.pool_efficiency"] = ("ratio", "higher")
    m["cli.self_s"] = ("s", "lower")
    m["trace_overhead_s"] = ("s", "lower")
    return m


PER_LAYER = _per_layer()


class BenchError(Exception):
    """Set-up could not produce inputs; the run has no result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env.pop("CHRONOSEG_WORKERS", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(argv: list, log: Path) -> tuple[float, int, float]:
    """(wall seconds, exit code, peak RSS MiB of the child and its children)."""
    with open(log, "w", encoding="utf-8") as out:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, proc.returncode, usage.ru_maxrss / 1024.0


def tree_digest(path: Path) -> str:
    """sha256 over every file under path (or of path itself), by relative name."""
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(path.parent)).encode())
        h.update(hashlib.sha256(f.read_bytes()).digest())
    return h.hexdigest()


def file_digests(out: Path, names) -> dict:
    return {n: hashlib.sha256((out / n).read_bytes()).hexdigest() for n in names}


# -- the workload -------------------------------------------------------------

class Workload:
    def __init__(self, name: str, size: str, seed: int, work: Path):
        spec = WORKLOADS[name]
        self.name, self.size, self.seed, self.work = name, size, seed, work
        self.inputs, self.command, self.workers = spec["inputs"], spec["command"], spec["workers"]
        self.patients, self.controls, self.days = spec["sizes"][size]
        self.schemes = spec["schemes"]
        if size == "tiny" and self.command == "evaluate":
            self.schemes = TINY_MATRIX_SCHEMES
        self.outputs = MATRIX_OUTPUTS if self.command == "evaluate" else tuple(
            f"features_{s}.csv" for s in self.schemes)

    def setup_argv(self, d: Path) -> list:
        size = ["--patients", str(self.patients), "--controls", str(self.controls), "--days", str(self.days),
                "--seed", str(self.seed)]
        if self.inputs == "synth":
            return [PY, "-m", "chronoseg.cli", "synth", *size, "--out", str(d / "corpus.csv")]
        return [PY, str(BENCH / "gen.py"), self.inputs, *size, "--out", str(d)]

    def corpus(self, d: Path) -> Path:
        return d / ("corpus" if self.inputs == "raw" else "corpus.csv")

    def manifest(self, d: Path) -> dict:
        path = d / "manifest.json"
        if path.exists():
            return json.loads(path.read_text(encoding="utf-8"))
        n = self.patients + self.controls
        return {"rows": n * self.days * 1440, "subjects": n, "days_total": n * self.days}

    def cli_args(self, corpus: Path, out: Path, workers: int) -> list:
        args = [self.command, "--corpus", str(corpus), "--schemes", *self.schemes, "--out-dir", str(out)]
        if self.command == "evaluate":
            args += ["--k", str(K), "--seed", str(self.seed), "--cv-mode", "row_stratified",
                     "--workers", str(workers)]
        return args

    # -- output checks --------------------------------------------------------

    def check(self, out: Path, manifest: dict) -> list[str]:
        """Problems with one call's outputs; empty when they are correct."""
        missing = [n for n in self.outputs if not (out / n).is_file()]
        if missing:
            return [f"missing outputs {missing}"]
        if self.command == "evaluate":
            return self._check_matrix(out)
        return self._check_features(out, manifest)

    def _check_matrix(self, out: Path) -> list[str]:
        problems = []
        report = read_csv(out / "report.csv")
        cells = {(r["scheme"], r["model"]): float(r["auc_mean"]) for r in report}
        expected = {(s, m) for s in self.schemes for m in PRESETS}
        if len(report) != len(expected) or set(cells) != expected:
            problems.append(f"report.csv cells {sorted(cells)} != {sorted(expected)}")
        folds: dict = {}
        for r in read_csv(out / "folds.csv"):
            folds.setdefault((r["scheme"], r["model"]), []).append(r["auc"])
        for key, auc in cells.items():
            present = [float(a) for a in folds.get(key, []) if a != ""]
            if not 0.0 <= auc <= 1.0 or len(folds.get(key, [])) != K:
                problems.append(f"{key}: auc_mean {auc} or fold count {len(folds.get(key, []))} invalid")
            elif not present or abs(statistics.fmean(present) - auc) > 1e-9:
                problems.append(f"{key}: auc_mean {auc} is not the mean of its fold AUCs")
        if not read_csv(out / "roc_points.csv"):
            problems.append("roc_points.csv is empty")
        known = KNOWN_REPORTS.get((self.name, self.size, self.seed))
        digest = hashlib.sha256((out / "report.csv").read_bytes()).hexdigest()
        if known and not digest.startswith(known):
            problems.append(f"report.csv sha256 {digest[:16]} != known {known}")
        return problems

    def _check_features(self, out: Path, manifest: dict) -> list[str]:
        problems = []
        complete = manifest["complete_days"]
        for scheme in self.schemes:
            with open(out / f"features_{scheme}.csv", newline="", encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
            want_rows = manifest["subjects"] if scheme == "all_days" else len(complete)
            if len(header) != 3 + N_FEATURES * SEGMENTS[scheme] or len(rows) != want_rows:
                problems.append(f"features_{scheme}.csv is {len(rows)} x {len(header)}, expected {want_rows} rows")
        # oracle: the generator's own sum and max of every complete day
        table = read_csv(out / "features_full_day.csv") if "full_day" in self.schemes else []
        for r in table:
            want = complete.get(f"{r['subject_id']}/{r['date']}")
            if want is None:
                problems.append(f"unexpected day {r['subject_id']}/{r['date']}")
            elif abs(float(r["day24h_mean"]) * 1440 - want[0]) > 1e-6 * max(1, want[0]) or \
                    float(r["day24h_max"]) != want[1]:
                problems.append(f"day {r['subject_id']}/{r['date']}: mean/max disagree with its input")
        return problems[:10]

    def auc_mean(self, out: Path) -> float:
        """Matrix: mean auc_mean of report.csv. Featurize (no model runs):
        mean single-column separability max(AUC, 1 - AUC) over every feature
        column of every table, so a change to what the tables say shows."""
        if self.command == "evaluate":
            return statistics.fmean(float(r["auc_mean"]) for r in read_csv(out / "report.csv"))
        seps = []
        for name in self.outputs:
            with open(out / name, newline="", encoding="utf-8") as fh:
                header, *rows = list(csv.reader(fh))
            labels = np.array([int(r[2]) for r in rows])
            X = np.array([[float(v) for v in r[3:]] for r in rows])
            for j in range(X.shape[1]):
                a = rank_auc(X[:, j], labels)
                seps.append(max(a, 1.0 - a))
        return statistics.fmean(seps)


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def rank_auc(scores: np.ndarray, labels: np.ndarray) -> float:
    """Mann-Whitney AUC with tie-averaged ranks."""
    order = np.argsort(scores, kind="stable")
    s = scores[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size]
    ranks = np.empty(s.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    return (ranks[labels == 1].sum() - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


# -- one run ------------------------------------------------------------------

class Run:
    """Counts calls, failures and output digests across one benchmark run."""

    def __init__(self, wl: Workload, manifest: dict):
        self.wl, self.manifest = wl, manifest
        self.attempted = 0
        self.failed = 0
        self.digests: dict | None = None
        self.problems: list[str] = []
        self.walls: list[float] = []
        self.rss: list[float] = []
        self.auc: float | None = None
        self.single_class_folds = 0

    def call(self, argv: list, tag: str) -> tuple[float, Path]:
        """One pipeline call into a fresh output dir; returns (wall, out dir)."""
        out = self.wl.work / tag
        wall, rc, rss = run_child(argv, self.wl.work / f"{tag}.log")
        self.attempted += 1
        problems = [f"exit code {rc}: {tail(self.wl.work / f'{tag}.log')}"] if rc != 0 else self.wl.check(
            out, self.manifest)
        if not problems:
            digests = file_digests(out, self.wl.outputs)
            if self.digests is None:
                self.digests = digests
                self.auc = self.wl.auc_mean(out)
                if self.wl.command == "evaluate":
                    self.single_class_folds = sum(r["auc"] == "" for r in read_csv(out / "folds.csv"))
            elif digests != self.digests:
                changed = sorted(k for k in digests if digests[k] != self.digests[k])
                problems = [f"output digests differ from the first call: {changed}"]
        if problems:
            self.failed += 1
            self.problems.extend(f"{tag}: {p}" for p in problems)
        self.walls.append(wall)
        self.rss.append(rss)
        return wall, out

    def pipeline(self, corpus: Path, tag: str, workers: int, traced: Path | None = None) -> float:
        args = self.wl.cli_args(corpus, self.wl.work / tag, workers)
        prefix = [PY, str(BENCH / "trace.py"), str(traced), "--"] if traced else [PY, "-m", "chronoseg.cli"]
        wall, out = self.call(prefix + args, tag)
        if tag != "call0":
            shutil.rmtree(out, ignore_errors=True)
        return wall


def tail(log: Path, lines: int = 3) -> str:
    return " | ".join(log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-lines:])


def setup(wl: Workload, reps: int) -> tuple[Path, list[float]]:
    """Materialise the inputs reps times; each must be byte-identical."""
    times, digest = [], None
    for i in range(reps):
        d = wl.work / f"setup{i}"
        d.mkdir(parents=True)
        wall, rc, _ = run_child(wl.setup_argv(d), wl.work / f"setup{i}.log")
        if rc != 0:
            raise BenchError(f"set-up exited {rc}: {tail(wl.work / f'setup{i}.log')}")
        got = tree_digest(wl.corpus(d))
        if digest is not None and got != digest:
            raise BenchError("set-up is not deterministic: inputs differ between repetitions")
        digest = got
        times.append(wall)
        if i:
            shutil.rmtree(d)
    return wl.work / "setup0", times


def measure(wl: Workload, seconds: float) -> tuple[Run, dict, dict]:
    inputs, setup_times = setup(wl, SETUP_REPS)
    run = Run(wl, wl.manifest(inputs))
    start = time.perf_counter()
    i = 0
    while True:
        wall = run.pipeline(wl.corpus(inputs), f"call{i}", wl.workers)
        i += 1
        if time.perf_counter() - start + wall > seconds:
            break
    metrics = {
        "wall_s": statistics.median(run.walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": max(run.rss),
        "auc_mean": run.auc or 0.0,
    }
    return run, metrics, {"setup_s": setup_times, "wall_s": run.walls}


def trace(wl: Workload) -> tuple[Run, dict, dict]:
    inputs, _ = setup(wl, 1)
    run = Run(wl, wl.manifest(inputs))
    corpus = wl.corpus(inputs)
    untraced = run.pipeline(corpus, "call0", 1)
    parallel = run.pipeline(corpus, "parallel", wl.workers) if wl.workers > 1 else untraced
    docs = {}
    if wl.inputs == "synth":
        d = wl.work / "synth_traced"
        d.mkdir()
        argv = wl.setup_argv(d)
        argv[:3] = [PY, str(BENCH / "trace.py"), str(wl.work / "synth.json"), "--"]
        _, rc, _ = run_child(argv, wl.work / "synth_traced.log")
        if rc != 0 or tree_digest(d / "corpus.csv") != tree_digest(corpus):
            run.problems.append("traced synth did not reproduce the set-up corpus")
        docs["synth"] = load_spans(wl.work / "synth.json")
    traced = run.pipeline(corpus, "traced", 1, traced=wl.work / "spans.json")
    docs["pipeline"] = load_spans(wl.work / "spans.json")
    metrics, problems = layer_metrics(wl, run, docs, untraced, parallel, traced)
    run.problems.extend(problems)
    return run, metrics, {"untraced_s": untraced, "parallel_s": parallel, "traced_s": traced,
                          "missing": docs["pipeline"].get("missing", [])}


def load_spans(path: Path) -> dict:
    if not path.exists():
        return {"spans": [], "import_s": 0.0, "missing": [], "wrapped": []}
    return json.loads(path.read_text(encoding="utf-8"))


def layer_metrics(wl: Workload, run: Run, docs: dict, untraced: float, parallel: float,
                  traced: float) -> tuple[dict, list]:
    spans = docs["pipeline"]["spans"]
    synth = docs.get("synth", {"spans": []})["spans"]
    dur = [s[4] - s[3] for s in spans]
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[2] >= 0:
            child[s[2]] += dur[i]
    self_s = [d - c for d, c in zip(dur, child)]

    def total(name, pool=spans, pred=lambda s: True):
        return sum(s[4] - s[3] for s in pool if s[0] == name and pred(s))

    def count(name, pred=lambda s: True):
        return sum(1 for s in spans if s[0] == name and pred(s))

    def attr(key, value):
        return lambda s: s[5].get(key) == value

    m = {}
    manifest = run.manifest
    m["ingest.parse_subject_file_s"] = total("parse_subject_file")
    m["ingest.filter_complete_days_s"] = total("filter_complete_days")
    m["ingest.load_corpus_s"] = total("load_corpus")
    m["ingest.load_interchange_s"] = total("load_interchange")
    m["ingest.save_corpus_s"] = total("save_corpus", synth)
    m["ingest.rows"] = manifest["rows"] if count("load_corpus") else 0
    m["ingest.rows_per_s"] = m["ingest.rows"] / m["ingest.load_corpus_s"] if m["ingest.rows"] else 0.0
    per_day = [s[5]["rows"] for s in spans if s[0] == "featurize_corpus" and s[5].get("per_subject") is False]
    if per_day:
        m["ingest.days_kept"] = per_day[0]
        m["ingest.days_discarded"] = manifest["days_total"] - per_day[0]
        m["ingest.day_keep_ratio"] = per_day[0] / manifest["days_total"]
    m["synth.gen_corpus_s"] = total("gen_corpus", synth)
    m["segmentation.segment_day_s"] = total("segment_day")
    m["segmentation.segment_day_calls"] = count("segment_day")
    m["segmentation.validate_scheme_calls"] = count("validate_scheme")
    for scheme in ALL_SCHEMES:
        m[f"features.featurize_s.{scheme}"] = total("featurize_corpus", pred=attr("scheme", scheme))
    m["features.extract_features_calls"] = count("extract_features")
    m["features.write_feature_table_s"] = total("write_feature_table")
    m["features.rows"] = sum(s[5].get("rows") or 0 for s in spans if s[0] == "featurize_corpus")

    scheme_of = {i: s[5].get("scheme") for i, s in enumerate(spans) if s[0] == "cross_validate"}
    for preset in PRESETS:
        m[f"models.{preset}.fit_s"] = total("train", pred=attr("model", preset))
        m[f"models.{preset}.predict_s"] = total("predict_proba", pred=attr("model", preset))
        m[f"models.{preset}.fits"] = count("train", pred=attr("model", preset))
    for preset in GBDT_PRESETS:
        fits = [s for s in spans if s[0] == "train" and s[5].get("model") == preset]
        for scheme in ("parts2", "parts12"):
            times = [s[4] - s[3] for s in fits if scheme_of.get(s[2]) == scheme]
            m[f"models.{preset}.fit_s.{scheme}"] = statistics.median(times) if times else 0.0
        # leaves per tree counts the trees that split at all; the rounds that
        # could not split (one leaf each) are the zero-split fraction
        trees = sum(s[5].get("trees", 0) for s in fits)
        zero = sum(s[5].get("zero_split", 0) for s in fits)
        if trees or not fits:
            grown = trees - zero
            m[f"models.{preset}.leaves_per_tree"] = (
                (sum(s[5].get("leaves", 0) for s in fits) - zero) / grown if grown else 0.0)
            m[f"models.{preset}.zero_split_round_frac"] = zero / trees if trees else 0.0

    cv = [i for i, s in enumerate(spans) if s[0] == "cross_validate"]
    m["evaluation.cross_validate_s"] = sum(dur[i] for i in cv)
    m["evaluation.self_s"] = sum(self_s[i] for i in cv)
    m["evaluation.metrics_s"] = total("auc_roc") + total("f1")
    m["evaluation.write_s"] = sum(total(n) for n in ("write_report_csv", "write_fold_csv", "write_roc_csv"))
    m["evaluation.cells"] = len(cv)
    m["evaluation.single_class_folds"] = run.single_class_folds
    m["evaluation.pool_efficiency"] = m["evaluation.cross_validate_s"] / (wl.workers * parallel) if cv else 0.0
    roots = [i for i, s in enumerate(spans) if s[0] == "main"]
    m["cli.self_s"] = sum(self_s[i] for i in roots)
    m["trace_overhead_s"] = traced - untraced

    # a metric whose function a refactor removed is absent, not zero
    sources = {"ingest.parse_subject_file_s": "parse_subject_file", "ingest.filter_complete_days_s":
               "filter_complete_days", "ingest.load_corpus_s": "load_corpus", "segmentation.segment_day_s":
               "segment_day", "segmentation.segment_day_calls": "segment_day",
               "segmentation.validate_scheme_calls": "validate_scheme", "features.extract_features_calls":
               "extract_features", "features.write_feature_table_s": "write_feature_table"}
    wrapped = set(docs["pipeline"].get("wrapped", []))
    for metric, fn in sources.items():
        if fn not in wrapped:
            m.pop(metric, None)

    problems = []
    if roots:
        layers: dict = {}
        for s, t in zip(spans, self_s):
            layers[s[1]] = layers.get(s[1], 0.0) + t
        # what no span covers is interpreter start-up and exit, well under a second
        covered = sum(layers.values()) + docs["pipeline"]["import_s"]
        if abs(sum(layers.values()) - dur[roots[0]]) > 1e-6 * dur[roots[0]] or not (
                traced - max(0.1 * traced, 0.5) <= covered <= traced):
            problems.append(f"layer self-times {sum(layers.values()):.3f}s + import do not add up to the traced "
                            f"wall time {traced:.3f}s")
    else:
        problems.append("traced run recorded no cli.main span")
    return m, problems


# -- environment and entry point ----------------------------------------------

def environment() -> dict:
    cpu = platform.processor()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        cpu = next((line.split(":", 1)[1].strip() for line in cpuinfo.read_text().splitlines()
                    if line.startswith("model name")), cpu)
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "threads": THREAD_ENV, "commit": commit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=["bench", "full", "tiny"], default="bench")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "chronoseg" / "cli.py").is_file():
        print(f"chronoseg sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        wl = Workload(args.workload, args.size, args.seed, work)
        run, metrics, detail = trace(wl) if args.trace else measure(wl, args.seconds)
    except BenchError as exc:
        print(f"benchmark set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run is using it

    table = PER_LAYER if args.trace else END_TO_END
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    info = {"workload": args.workload, "seed": args.seed, "size": args.size, "trace": args.trace,
            "outputs_sha256": run.digests, "detail": detail, "env": environment()}
    print("info " + json.dumps(info, sort_keys=True))
    result = {
        "correct": not run.problems and run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": table[k][0]} for k, v in metrics.items() if k in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
