"""Stratified cross-validation, ranking metrics, and the experiment matrix.

Both CV modes deal each class's groups of rows (a row, or a subject's rows)
largest first, each to the fold with the fewest rows of that class.
AUC-ROC is the Mann-Whitney pair statistic computed from tie-averaged ranks
(ties count half), identical to the trapezoidal area under the ROC curve. F1
uses a fixed 0.5 probability threshold. Per-fold metrics are averaged, not
pooled. Every cell of the scheme x model matrix reuses the same seed so
differences reflect scheme and model only.
"""

from __future__ import annotations

import hashlib
import json
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .features import FeatureTable
from .models import ModelSpec, predict_proba, serves, train

logger = logging.getLogger(__name__)

CV_MODES = ("row_stratified", "subject_grouped")


@dataclass(frozen=True)
class FoldPlan:
    k: int
    assignments: np.ndarray  # row index -> fold id
    mode: str
    seed: int


def stratified_kfold(
    labels: np.ndarray,
    k: int,
    seed: int = 0,
    mode: str = "row_stratified",
    groups=None,
) -> FoldPlan:
    """Deterministic fold assignment: one dealer for both modes.

    A group is a row (row_stratified) or a subject's rows (subject_grouped),
    labelled by its first row. For class 0, then 1, the class's groups are
    shuffled with the seed, stable-sorted largest first and each dealt to the
    fold with the fewest rows of its class, then the fewest rows overall, then
    the lowest index. With at least k groups, no fold is empty.
    """
    labels = np.asarray(labels, dtype=np.int64)
    n = labels.size
    if k < 2:
        raise ConfigError(f"k must be >= 2, got {k}")
    if mode not in CV_MODES:
        raise ConfigError(f"unknown cv mode {mode!r}; choose from {CV_MODES}")
    bad = labels[(labels != 0) & (labels != 1)]
    if bad.size:
        raise DataError(f"label must be 0 or 1, got {bad[0]}")
    if mode == "subject_grouped":
        if groups is None:
            raise ConfigError("subject_grouped mode requires group ids")
        groups = np.asarray(groups)
        if groups.size != n:
            raise ConfigError("group ids length does not match labels")
    else:
        groups = np.arange(n)
    _, first, inverse, sizes = np.unique(groups, return_index=True, return_inverse=True, return_counts=True)
    if mode == "subject_grouped" and sizes.size < k:
        raise DataError(f"only {sizes.size} subjects, cannot make {k} grouped folds")
    rng = np.random.default_rng(seed)
    fold_of_group = np.empty(sizes.size, dtype=np.int64)
    load = [(0, 0)] * k  # per fold: (rows of the class being dealt, rows overall)
    for cls in (0, 1):
        members = np.flatnonzero(labels[first] == cls)
        # k == n is leave-one-out: one row per fold, always admissible
        if mode == "row_stratified" and members.size < k and k != n:
            raise DataError(f"class {cls} has only {members.size} rows, need at least k={k}")
        members = rng.permutation(members)
        members = members[np.argsort(-sizes[members], kind="stable")]
        load = [(0, rows) for _, rows in load]
        for g, size in zip(members.tolist(), sizes[members].tolist()):
            # fewest class rows, then fewest rows (tuple order), then lowest fold (index)
            fold_of_group[g] = fold = load.index(min(load))
            class_rows, rows = load[fold]
            load[fold] = (class_rows + size, rows + size)
    return FoldPlan(k=k, assignments=fold_of_group[inverse], mode=mode, seed=seed)


def _tie_averaged_ranks(values: np.ndarray) -> np.ndarray:
    order = np.argsort(values, kind="stable")
    s = values[order]
    starts = np.flatnonzero(np.r_[True, s[1:] != s[:-1]])
    ends = np.r_[starts[1:], s.size]
    avg = (starts + ends - 1) / 2.0 + 1.0  # average 1-based rank per tie group
    ranks = np.empty(values.size, dtype=np.float64)
    ranks[order] = np.repeat(avg, ends - starts)
    return ranks


def auc_roc(scores: np.ndarray, labels: np.ndarray) -> float:
    """P(score of random positive > random negative), ties counting half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("AUC needs both classes present")
    ranks = _tie_averaged_ranks(scores)
    rank_sum = float(ranks[labels == 1].sum())
    return (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def f1(scores: np.ndarray, labels: np.ndarray) -> float:
    """F1 for the positive class (patients) at a 0.5 threshold; 0 when there are no true positives."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    predicted = scores >= 0.5
    tp = int(np.sum(predicted & (labels == 1)))
    fp = int(np.sum(predicted & (labels == 0)))
    fn = int(np.sum(~predicted & (labels == 1)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return 2 * precision * recall / (precision + recall)


def roc_points(scores: np.ndarray, labels: np.ndarray) -> list[tuple[float, float]]:
    """Stepwise ROC curve points from (0,0) to (1,1), tie groups merged."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_pos = int((labels == 1).sum())
    n_neg = int((labels == 0).sum())
    if n_pos == 0 or n_neg == 0:
        raise DataError("ROC needs both classes present")
    order = np.argsort(-scores, kind="stable")
    s = scores[order]
    # the last index of each run of equal scores
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), s.size - 1)
    tp = np.cumsum(labels[order])[ends]
    fp = ends + 1 - tp
    return [(0.0, 0.0), *zip((fp / n_neg).tolist(), (tp / n_pos).tolist())]


def config_digest(payload: dict) -> str:
    canonical = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(canonical.encode()).hexdigest()[:12]


@dataclass(frozen=True, eq=False)
class CVReport:
    """One (scheme, model) cell: its fold plan and every row's out-of-fold score.

    ``scores[i]`` is row i's score from the model fitted on every fold but row
    i's own. The constructor derives ``fold_aucs``, ``fold_f1s`` and their
    means and standard deviations once: a fold whose test rows hold a single
    class has AUC None, which the AUC mean and std leave out.
    """

    scheme: str
    model: str
    digest: str
    plan: FoldPlan
    labels: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        fold_aucs: list[float | None] = []
        fold_f1s: list[float] = []
        for fold, (labels, scores) in enumerate(self.folds()):
            if labels.min() == labels.max():
                logger.warning("fold %d of %s/%s has a single test class; AUC excluded from mean",
                               fold, self.scheme, self.model)
                fold_aucs.append(None)
            else:
                fold_aucs.append(auc_roc(scores, labels))
            fold_f1s.append(f1(scores, labels))
        present = [a for a in fold_aucs if a is not None]
        if not present:
            raise DataError("every fold had a single test class; cannot report AUC")
        self.__dict__.update(  # derived once; a frozen instance takes them past __setattr__
            fold_aucs=fold_aucs,
            fold_f1s=fold_f1s,
            auc_mean=float(np.mean(present)),
            auc_std=float(np.std(present)),
            f1_mean=float(np.mean(fold_f1s)),
            f1_std=float(np.std(fold_f1s)),
        )

    def folds(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(labels, scores) of each fold's test rows, in row order."""
        tests = (self.plan.assignments == fold for fold in range(self.plan.k))
        return [(self.labels[test], self.scores[test]) for test in tests]


def cross_validate(table: FeatureTable, spec: ModelSpec, plan: FoldPlan, shared: list | None = None) -> CVReport:
    """Score each fold's rows with a model whose scaler and fit see only the other folds.

    shared, when given, holds one list per fold of the (model, fold scores)
    that earlier calls with this table and plan fitted and scored. A fold
    whose model one of them ``serves`` copies its scores; otherwise it trains
    and predicts, and adds both to the list.
    """
    if plan.assignments.size != table.n_rows:
        raise ConfigError("fold plan does not match table rows")
    X, y = table.X, table.labels
    scores = np.full(table.n_rows, np.nan)  # a row outside every fold keeps NaN
    for fold in range(plan.k):
        test = plan.assignments == fold
        kept = shared[fold] if shared is not None else []
        fold_scores = next((fit_scores for model, fit_scores in kept if serves(model, spec)), None)
        if fold_scores is None:
            model = train(spec, X[~test], y[~test], feature_names=table.columns)
            fold_scores = predict_proba(model, X[test])
            kept.append((model, fold_scores))
        scores[test] = fold_scores
    digest = config_digest(
        {
            "scheme": table.scheme,
            "model": spec.name,
            "family": spec.family,
            "params": spec.params,
            "model_seed": spec.seed,
            "k": plan.k,
            "mode": plan.mode,
            "cv_seed": plan.seed,
        }
    )
    return CVReport(table.scheme, spec.name, digest, plan, y, scores)


def _run_job(job) -> list[CVReport]:
    """The cells of one table and one model family's specs, which share each fold's fits and scores."""
    table, specs, plan = job
    shared = [[] for _ in range(plan.k)] if len(specs) > 1 else None
    return [cross_validate(table, spec, plan, shared) for spec in specs]


def run_matrix(
    tables: list[FeatureTable],
    specs: dict[str, ModelSpec],
    k: int = 10,
    seed: int = 0,
    mode: str = "row_stratified",
    workers: int = 1,
) -> tuple[list[CVReport], str]:
    """One CVReport per (table, model) cell plus a rendered results grid.

    The tables come from ``featurize_corpus`` or ``read_feature_table``, one
    per scheme. Each table's fold plan is drawn once and shared by its cells.
    A job is one table's cells of one model family (families in order of
    first appearance), so a fold's boosting fit and its scores serve the
    other boosting preset whenever ``serves`` allows, in any order of specs.
    Jobs are independent: with workers > 1 they run in a process pool of at
    most one process per job. Reports come in (table, specs) order, so output
    is deterministic.
    """
    if not tables or not specs:
        raise ConfigError("need at least one scheme and one model")
    cells = list(specs.values())
    families: dict[str, list[int]] = {}  # each family's positions in cells
    for position, spec in enumerate(cells):
        families.setdefault(spec.family, []).append(position)
    jobs = []
    for table in tables:
        groups = table.subject_ids if mode == "subject_grouped" else None
        plan = stratified_kfold(table.labels, k=k, seed=seed, mode=mode, groups=groups)
        jobs += [(table, [cells[p] for p in positions], plan) for positions in families.values()]
    # the fork start method starts every worker at the first submit
    workers = min(workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = [report for job in pool.map(_run_job, jobs) for report in job]
    else:
        done = [report for job in jobs for report in _run_job(job)]
    # each table's reports come family by family; put them back in specs order
    order = [position for positions in families.values() for position in positions]
    reports = [done[t + order.index(p)] for t in range(0, len(done), len(cells)) for p in range(len(cells))]
    return reports, render_grid(reports)


def render_grid(reports: list[CVReport]) -> str:
    """Text grid: one row per (scheme, model) with metrics at 2 decimals."""
    lines = [f"{'scheme':<12} {'model':<20} {'auc':>6} {'f1':>6}"]
    for r in reports:
        lines.append(f"{r.scheme:<12} {r.model:<20} {r.auc_mean:>6.2f} {r.f1_mean:>6.2f}")
    return "\n".join(lines) + "\n"


def write_report_csv(reports: list[CVReport], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("scheme,model,auc_mean,auc_std,f1_mean,f1_std,seed,config_digest\n")
        for r in reports:
            fh.write(
                f"{r.scheme},{r.model},{r.auc_mean:.17g},{r.auc_std:.17g},"
                f"{r.f1_mean:.17g},{r.f1_std:.17g},{r.plan.seed},{r.digest}\n"
            )


def write_fold_csv(reports: list[CVReport], path) -> None:
    """Long-format per-fold metrics; missing AUC rendered as empty field."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("scheme,model,fold,auc,f1\n")
        for r in reports:
            for fold, (auc, f1_val) in enumerate(zip(r.fold_aucs, r.fold_f1s)):
                auc_txt = "" if auc is None else f"{auc:.17g}"
                fh.write(f"{r.scheme},{r.model},{fold},{auc_txt},{f1_val:.17g}\n")


def write_roc_csv(reports: list[CVReport], path) -> None:
    """ROC points per fold for external plotting."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("scheme,model,fold,fpr,tpr\n")
        for r in reports:
            for fold, (auc, (labels, scores)) in enumerate(zip(r.fold_aucs, r.folds())):
                if auc is None:
                    continue
                for fpr, tpr in roc_points(scores, labels):
                    fh.write(f"{r.scheme},{r.model},{fold},{fpr:.17g},{tpr:.17g}\n")
