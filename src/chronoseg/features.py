"""Per-segment statistical features and feature-table assembly.

Sixteen features are computed for every segment of every record: a day, or
all of a subject's days in date order under a per-subject scheme. Degenerate
inputs (zero variance, zero mean) map to 0 rather than NaN so tables stay
rectangular. The minimum is deliberately not a feature: it separates the
classes poorly and is dropped from the set.

All sixteen are computed along ``axis=1`` of a block of equal-length rows
(:func:`block_features`), each row on its own, the third and fourth moments
as products of the squared deviations; :func:`extract_features` is its
one-row case. A block takes consecutive records of d days each, as many as
fit in :data:`FEATURE_CHUNK_ROWS` days but at least one: all of a scheme's
segments of one length (``scheme.minutes``) are gathered out of those rows
of the corpus day matrix as one (records x segments, d x length) block.
Windows cover each day once, so only a record of more days makes a block of
over :data:`FEATURE_CHUNK_ROWS` x 1440 values. That bounds the kernel's
temporaries (about ten arrays of the block's size), and with them peak RSS,
whatever the cohort size.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .ingest import Corpus, _numbered_rows
from .segmentation import SegmentationScheme, segment_day  # noqa: F401 (bench/trace.py wraps it here)

FEATURE_NAMES = (
    "mean",
    "median",
    "std_dev",
    "prop_zeros",
    "skewness",
    "kurtosis",
    "max",
    "mad",
    "iqr",
    "cv",
    "entropy",
    "autocorr_lag1",
    "n_peaks",
    "n_troughs",
    "semivariance",
    "rms",
)

MAX_ENTROPY_BINS = 16

# Days per block of records, which holds all the segments of one length of
# those days. Each of the kernel's temporaries is then at most
# 16 x 1440 float64 (184 kB). Featurizing a 162-day cohort under all eight
# presets raised peak RSS by 3 MB with 16-day blocks and by 12 MB with the
# whole cohort in one block, which was only about 10% faster.
FEATURE_CHUNK_ROWS = 16


def _masked_row_sums(values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """``np.sum(values[i][mask[i]])`` for every row i, rounded the same way.

    np.sum adds the pairwise sum of the selected values to 0.0, while
    ``np.add.reduceat`` starts from a segment's first value, so every row's
    segment is given a leading 0.0.
    """
    sizes = np.count_nonzero(mask, axis=1) + 1
    starts = np.cumsum(sizes) - sizes
    flat = np.zeros(int(sizes.sum()))
    selected = np.ones(flat.size, dtype=bool)
    selected[starts] = False
    flat[selected] = values[mask]
    return np.add.reduceat(flat, starts)


def _sorted_median(ordered: np.ndarray) -> np.ndarray:
    """The median of each sorted row, as ``np.median`` takes it: the middle
    value, or the mean of the middle two."""
    half = ordered.shape[1] // 2
    if ordered.shape[1] % 2:
        return ordered[:, half]
    return (ordered[:, half - 1] + ordered[:, half]) / 2


def block_features(x: np.ndarray) -> np.ndarray:
    """The sixteen statistics of each row of an (r, n) block, as (r, 16).

    Conventions: population moments throughout; skewness/kurtosis/cv/
    autocorrelation are 0 for degenerate inputs; entropy is over at most 16
    equal-width histogram bins spanning [0, max] (values are non-negative);
    peaks/troughs are strict interior local extrema. Each row's values equal
    those of the same statistics computed on that row alone, bit for bit.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    r, n = x.shape
    if n == 0:
        raise DataError("cannot extract features from an empty vector")
    out = np.zeros((r, len(FEATURE_NAMES)))
    (mean, median, std, prop_zeros, skewness, kurtosis, maximum, mad, iqr, cv, entropy, autocorr,
     n_peaks, n_troughs, semivariance, rms) = out.T

    # order statistics read the sorted rows: the same values, without a partition
    ordered = np.sort(x, axis=1)
    mean[:] = x.mean(axis=1)
    median[:] = _sorted_median(ordered)
    centered = x - mean[:, None]
    squares = centered**2
    m2 = squares.mean(axis=1)
    std[:] = np.sqrt(m2)

    spread = m2 > 0
    # third and fourth moments as products, several times faster than NumPy's
    # array pow; the divisors by Python float pow, which can differ from the
    # array pow in the last bit
    np.divide((squares * centered).mean(axis=1), [v**1.5 for v in m2.tolist()], out=skewness, where=spread)
    np.divide((squares * squares).mean(axis=1), [v**2 for v in m2.tolist()], out=kurtosis, where=spread)
    np.subtract(kurtosis, 3.0, out=kurtosis, where=spread)

    prop_zeros[:] = np.count_nonzero(x == 0, axis=1) / n
    maximum[:] = ordered[:, -1]
    mad[:] = _sorted_median(np.sort(np.abs(x - median[:, None]), axis=1))
    q1, q3 = np.quantile(ordered, [0.25, 0.75], axis=1)  # linear interpolation at h=(n-1)p
    iqr[:] = q3 - q1
    np.divide(std, mean, out=cv, where=mean != 0)

    # equal-width bins over [0, max], left-closed, last bin closed; a row
    # with one distinct value has entropy 0 and needs no bins
    distinct = 1 + np.count_nonzero(ordered[:, 1:] != ordered[:, :-1], axis=1)
    varied = distinct > 1
    bins = np.minimum(MAX_ENTROPY_BINS, distinct)[:, None]
    idx = np.clip((x * bins / np.where(varied, maximum, 1.0)[:, None]).astype(np.int64), 0, bins - 1)
    idx += MAX_ENTROPY_BINS * np.arange(r)[:, None]
    counts = np.bincount(idx.ravel(), minlength=r * MAX_ENTROPY_BINS).reshape(r, MAX_ENTROPY_BINS)
    occupied = counts > 0
    p = np.where(occupied, counts / n, 1.0)
    np.negative(_masked_row_sums(p * np.log(p), occupied), out=entropy, where=varied)

    denom = squares.sum(axis=1)
    if n > 1:
        np.divide((centered[:, :-1] * centered[:, 1:]).sum(axis=1), denom, out=autocorr, where=denom > 0)

    if n >= 3:
        inner = x[:, 1:-1]
        n_peaks[:] = np.count_nonzero((x[:, :-2] < inner) & (inner > x[:, 2:]), axis=1)
        n_troughs[:] = np.count_nonzero((x[:, :-2] > inner) & (inner < x[:, 2:]), axis=1)

    semivariance[:] = _masked_row_sums(squares, centered < 0) / n
    rms[:] = np.sqrt(np.mean(x**2, axis=1))
    return out


def extract_features(values: np.ndarray) -> dict[str, float]:
    """Compute the sixteen statistics of one segment's values (see block_features)."""
    x = np.asarray(values, dtype=np.float64).reshape(1, -1)
    return dict(zip(FEATURE_NAMES, block_features(x)[0].tolist()))


@dataclass(frozen=True)
class FeatureTable:
    """Rectangular feature matrix with row identity and labels.

    Rows are (subject_id, date) for per-day schemes or (subject_id, "all")
    for per-subject schemes such as all_days. Subject-grouped
    cross-validation folds on subject_ids.
    """

    scheme: str
    columns: tuple[str, ...]
    subject_ids: tuple[str, ...]
    dates: tuple[str, ...]
    labels: np.ndarray  # shape (n,), int
    X: np.ndarray  # shape (n, len(columns)), float64

    def __post_init__(self):
        if self.X.shape != (len(self.subject_ids), len(self.columns)):
            raise DataError(f"feature matrix shape {self.X.shape} inconsistent with row/column names")
        if not np.isfinite(self.X).all():
            raise DataError("non-finite feature values in table")

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


def featurize_corpus(corpus: Corpus, scheme: SegmentationScheme) -> FeatureTable:
    """Build the feature table for one corpus under one scheme.

    One row per record: a complete (subject, date), or, when
    ``scheme.per_subject``, a subject's days in date order, dated "all", each
    segment's minutes of those days concatenated. Column order is segments in
    scheme order x features in canonical order; rows sorted by (subject_id, date).
    """
    if not corpus.dates:
        raise DataError("cannot featurize an empty corpus")
    width = len(FEATURE_NAMES)
    columns = tuple(f"{seg}_{feat}" for seg in scheme.segment_names() for feat in FEATURE_NAMES)
    # one block per segment length: its segments' minutes, and the columns they fill
    by_length = {}
    for s, gather in enumerate(scheme.minutes):
        by_length.setdefault(gather.size, []).append(s)
    gathers = [(np.stack([scheme.minutes[s] for s in segments]),
                (width * np.array(segments)[:, None] + np.arange(width)).ravel())
               for segments in by_length.values()]

    sizes = [n for _, n in corpus.subjects.values()] if scheme.per_subject else [1] * len(corpus.dates)
    firsts = np.cumsum([0, *sizes[:-1]]).tolist()
    X = np.empty((len(sizes), width * len(scheme.minutes)))
    # a block: consecutive records of d days, FEATURE_CHUNK_ROWS days at most but one record at least
    rec = 0
    while rec < len(sizes):
        d, r = sizes[rec], 1
        while rec + r < len(sizes) and sizes[rec + r] == d and (r + 1) * d <= FEATURE_CHUNK_ROWS:
            r += 1
        days = corpus.values[firsts[rec]:firsts[rec] + r * d].reshape(r, d, -1)
        for gather, cols in gathers:
            block = days[:, :, gather].transpose(0, 2, 1, 3).reshape(r * len(gather), -1)
            X[rec:rec + r, cols] = block_features(block).reshape(r, -1)
        rec += r

    return FeatureTable(
        scheme=scheme.name,
        columns=columns,
        subject_ids=tuple(corpus.subject_ids[i] for i in firsts),
        dates=tuple("all" if scheme.per_subject else corpus.dates[i].isoformat() for i in firsts),
        labels=corpus.labels[firsts],
        X=X,
    )


def write_feature_table(table: FeatureTable, path: str | Path) -> None:
    """Serialize with 17 significant digits for lossless float round-trip."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "date", "label", *table.columns])
        # the key cells as csv writes them, quoting an id that holds a comma,
        # a quote or a line break; then the values as Python floats, one row
        # at a time (NumPy scalars format slower, and the whole table as
        # Python floats would raise peak RSS with its size), by one %-format
        keys = io.StringIO()
        key_writer = csv.writer(keys, lineterminator="\n")
        values = ",%.17g" * len(table.columns) + "\n"
        for subject_id, day, label, row in zip(table.subject_ids, table.dates, table.labels.tolist(), table.X):
            keys.seek(0)
            keys.truncate()
            key_writer.writerow([subject_id, day, label])
            fh.write(keys.getvalue()[:-1] + values % tuple(row.tolist()))


def read_feature_table(path: str | Path, scheme: str) -> FeatureTable:
    """Read a table written by write_feature_table as the table of scheme.
    Blank rows are skipped; a malformed row is a DataError naming the line it
    starts on.

    As in a Corpus, each (subject_id, date) appears once and each subject has
    one label; the header names at least one feature column.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        subject_ids, dates, labels, rows = [], [], [], []
        seen: set[tuple[str, str]] = set()
        subject_labels: dict[str, int] = {}
        try:
            header = next(reader, None)
            if header is None or header[:3] != ["subject_id", "date", "label"]:
                raise DataError(f"feature table {path} missing subject_id,date,label header")
            columns = tuple(header[3:])
            if not columns:
                raise DataError(f"feature table {path} has no feature columns")
            for lineno, row in _numbered_rows(reader):
                if len(row) != len(header):
                    raise DataError(
                        f"feature table {path}: malformed row at line {lineno}: "
                        f"{len(row)} cells, expected {len(header)}"
                    )
                try:
                    label = int(row[2])
                    values = [float(v) for v in row[3:]]
                except ValueError as exc:
                    raise DataError(f"feature table {path}: malformed row at line {lineno}: {exc}")
                if not np.isfinite(values).all():
                    raise DataError(f"feature table {path}: malformed row at line {lineno}: non-finite value")
                if label not in (0, 1):
                    raise DataError(f"feature table {path}: malformed row at line {lineno}: label {label}")
                if (row[0], row[1]) in seen:
                    raise DataError(f"feature table {path}: subject {row[0]} repeats date {row[1]} at line {lineno}")
                if subject_labels.setdefault(row[0], label) != label:
                    raise DataError(
                        f"feature table {path}: subject {row[0]} has label {label} at line {lineno}, "
                        f"but {subject_labels[row[0]]} on an earlier line"
                    )
                seen.add((row[0], row[1]))
                subject_ids.append(row[0])
                dates.append(row[1])
                labels.append(label)
                rows.append(values)
        except csv.Error as exc:
            raise DataError(f"feature table {path}: malformed row at line {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise DataError(f"feature table {path} is not UTF-8 text: {exc}")
    if not rows:
        raise DataError(f"feature table {path} has no rows")
    return FeatureTable(
        scheme=scheme,
        columns=columns,
        subject_ids=tuple(subject_ids),
        dates=tuple(dates),
        labels=np.asarray(labels, dtype=np.int64),
        X=np.asarray(rows, dtype=np.float64),
    )
