"""Loading and cleaning of per-minute motor activity recordings.

Raw recordings are delimited text files with one row per minute. Subjects are
split into calendar days (midnight to midnight on the file's naive clock) and
only days with all 1440 minutes present are retained. Missing minutes are
never imputed; incomplete days are discarded and counted.

Parsing is columnar. The ``csv`` module splits a file into rows, which are
converted :data:`READ_CHUNK_ROWS` at a time, one column at a time:

- Timestamps of the two zero-padded forms ``YYYY-MM-DD HH:MM`` and
  ``YYYY-MM-DD HH:MM:SS`` take the bulk path: digits and separators are
  checked at fixed positions, month, hour, minute and second against their
  ranges, the day against the month's length from NumPy ``datetime64``
  arithmetic, and the stamp becomes minutes since 1970-01-01 on the file's
  naive clock. Seconds are truncated.
  Every other form (no zero padding, surrounding spaces, a ``T`` separator,
  an impossible date such as 2021-02-30) falls back to
  :func:`_parse_timestamp` one row at a time, which accepts what
  ``datetime.strptime`` accepts for those two formats; a row it cannot read
  is a DataError naming its line.
- Counts are parsed as float64 with Python's ``float``. A count must be a
  finite, non-negative whole number below 2**63: ``143.0`` and ``1e3`` are
  read as 143 and 1000, while ``1.5``, ``nan``, ``inf``, ``-3`` and ``1e300``
  are DataErrors naming their line.

Days are cut from the minute and count arrays with ``minutes // 1440``.
Chunking bounds the Python row objects alive at once (about 300 bytes a
row), so peak memory stays near that of the parsed arrays however long a
recording or an interchange file is.

A :class:`Corpus` is one read-only int64 day matrix of shape (n_days, 1440),
one row per complete subject-day, with the subject id, date and label of
each row. Its constructor sorts the rows by (subject_id, date) and validates
them once; ``load_corpus``, ``load_interchange`` and the synthetic generator
all build that matrix directly.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from itertools import groupby, islice, repeat
from pathlib import Path
from typing import Callable, Mapping, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

MINUTES_PER_DAY = 1440

# Rows converted per bulk step by both readers. Larger chunks are no faster
# and raise peak RSS; 1024 rows of Python row objects are about 0.3 MB.
READ_CHUNK_ROWS = 1024

DEFAULT_COLUMNS = {"timestamp": "timestamp", "activity": "activity"}

TIMESTAMP_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M")

EPOCH = datetime(1970, 1, 1)
MINUTE = timedelta(minutes=1)
MAX_COUNT = 2.0**63

# the zero-padded stamp: digits where the template has 0, the separators elsewhere
_STAMP_TEMPLATE = np.array([ord(c) for c in "0000-00-00 00:00:00"])
_STAMP_DIGITS = np.flatnonzero(_STAMP_TEMPLATE[:16] == ord("0"))
_STAMP_SEPARATORS = np.flatnonzero(_STAMP_TEMPLATE[:16] != ord("0"))


def _clock(minute: int) -> datetime:
    return EPOCH + int(minute) * MINUTE


@dataclass(frozen=True, eq=False)
class LabeledSeries:
    """A subject's full recording with its binary class label (1=patient).

    ``minutes`` holds minutes since 1970-01-01 00:00 on the file's naive
    clock, strictly increasing; ``activity`` holds each minute's count.
    """

    subject_id: str
    label: int
    minutes: np.ndarray
    activity: np.ndarray

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label}")
        minutes = np.asarray(self.minutes, dtype=np.int64)
        activity = np.asarray(self.activity, dtype=np.int64)
        if minutes.ndim != 1 or minutes.shape != activity.shape:
            raise DataError(f"series {self.subject_id} has {minutes.shape} minutes but {activity.shape} counts")
        negative = np.flatnonzero(activity < 0)
        if negative.size:
            i = negative[0]
            raise DataError(f"negative activity {activity[i]} at {_clock(minutes[i])}")
        step = np.flatnonzero(np.diff(minutes) <= 0)
        if step.size:
            i = step[0]
            raise DataError(
                f"samples not strictly increasing for {self.subject_id}: "
                f"{_clock(minutes[i])} followed by {_clock(minutes[i + 1])}"
            )
        for name, values in (("minutes", minutes), ("activity", activity)):
            values.setflags(write=False)
            object.__setattr__(self, name, values)


@dataclass(frozen=True, eq=False)
class Corpus:
    """All complete days of all subjects as one day x minute matrix.

    Row i of ``values`` holds the 1440 per-minute counts of subject
    ``subject_ids[i]`` on ``dates[i]``, whose class is ``labels[i]``
    (1=patient). The constructor sorts the rows by (subject_id, date), so a
    subject's days are contiguous and in date order, and checks them: the
    (n, 1440) shape, non-negative counts, labels in {0, 1}, no duplicate
    (subject, date) and one label per subject. ``subjects`` maps each id to
    (label, n_days), in row order.
    """

    values: np.ndarray
    subject_ids: Sequence[str]
    dates: Sequence[date]
    labels: np.ndarray
    subjects: dict[str, tuple[int, int]] = field(init=False)

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        labels = np.asarray(self.labels, dtype=np.int64)
        n = len(self.subject_ids)
        if values.shape != (n, MINUTES_PER_DAY) or labels.shape != (n,) or len(self.dates) != n:
            raise DataError(f"corpus of {n} subject ids has {values.shape} values, {labels.shape} labels "
                            f"and {len(self.dates)} dates; expected ({n}, {MINUTES_PER_DAY}) values")
        order = sorted(range(n), key=lambda i: (self.subject_ids[i], self.dates[i]))
        if order != list(range(n)):
            values, labels = values[order], labels[order]
        subject_ids = tuple(self.subject_ids[i] for i in order)
        dates = tuple(self.dates[i] for i in order)

        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise DataError(f"label must be 0 or 1, got {labels[bad[0]]}")
        negative = np.flatnonzero(values.min(axis=1) < 0)
        if negative.size:
            i = negative[0]
            raise DataError(f"negative activity in day {subject_ids[i]}/{dates[i]}")
        subjects: dict[str, tuple[int, int]] = {}
        for i, (subject_id, day, label) in enumerate(zip(subject_ids, dates, labels.tolist())):
            if i and (subject_id, day) == (subject_ids[i - 1], dates[i - 1]):
                raise DataError(f"duplicate day {(subject_id, day)}")
            first, count = subjects.get(subject_id, (label, 0))
            if label != first:
                raise DataError(f"label mismatch for subject {subject_id}")
            subjects[subject_id] = (first, count + 1)

        values.setflags(write=False)
        labels.setflags(write=False)
        for name, value in (("values", values), ("labels", labels), ("subject_ids", subject_ids),
                            ("dates", dates), ("subjects", subjects)):
            object.__setattr__(self, name, value)


def _parse_timestamp(text: str) -> datetime:
    for fmt in TIMESTAMP_FORMATS:
        try:
            ts = datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
        return ts.replace(second=0, microsecond=0)
    raise ValueError(f"unparseable timestamp {text!r}")


def _canonical_minutes(stamps: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """Minutes since the epoch of each zero-padded ``YYYY-MM-DD HH:MM[:SS]``
    stamp, and a mask of the stamps that have that form and a valid date and
    time. Values where the mask is False are meaningless."""
    length = np.fromiter(map(len, stamps), dtype=np.int64, count=len(stamps))
    # longer stamps are cut to 19 characters here and rejected by their length
    code = np.array(stamps, dtype="<U19").view(np.uint32).reshape(len(stamps), 19)
    is_digit = (code >= ord("0")) & (code <= ord("9"))
    with_seconds = (length == 19) & (code[:, 16] == ord(":")) & is_digit[:, 17] & is_digit[:, 18]
    ok = (
        ((length == 16) | with_seconds)
        & is_digit[:, _STAMP_DIGITS].all(axis=1)
        & (code[:, _STAMP_SEPARATORS] == _STAMP_TEMPLATE[_STAMP_SEPARATORS]).all(axis=1)
    )

    def two(i):  # the two-digit number at position i; garbage where ok is False
        return (code[:, i].astype(np.int64) - ord("0")) * 10 + code[:, i + 1].astype(np.int64) - ord("0")

    year = two(0) * 100 + two(2)
    month, day, hour, minute, second = two(5), two(8), two(11), two(14), two(17)
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour <= 23) & (minute <= 59)
    ok &= (length == 16) | (second <= 59)
    month_start = np.where(ok, (year - 1970) * 12 + month - 1, 0).astype("datetime64[M]")
    first_day = month_start.astype("datetime64[D]").astype(np.int64)
    ok &= day <= (month_start + 1).astype("datetime64[D]").astype(np.int64) - first_day
    return (first_day + day - 1) * MINUTES_PER_DAY + hour * 60 + minute, ok


def _convert(cells: list[str], convert: Callable, failed):
    """``convert`` applied to every cell, with ``failed`` where it raises ValueError."""
    try:
        return list(map(convert, cells))
    except ValueError:
        pass
    out = []
    for cell in cells:
        try:
            out.append(convert(cell))
        except ValueError:
            out.append(failed)
    return out


def _column(rows: list[list[str]], index: int) -> list[str]:
    try:
        return [row[index] for row in rows]
    except IndexError:  # short or blank rows; the per-row parse reports them
        return [row[index] if index < len(row) else "" for row in rows]


def _parse_row(row: list[str], lineno: int, ts_idx: int, act_idx: int, label_idx: int | None):
    """One row the bulk conversion did not accept, parsed on its own.

    Returns None for a blank row, else (minute, activity, label or None);
    raises DataError naming the line for a malformed row.
    """
    if not row or all(not cell.strip() for cell in row):
        return None
    try:
        ts = _parse_timestamp(row[ts_idx])
        raw = row[act_idx].strip()
        # activity counts occasionally appear as "143.0"; accept integral floats
        activity = int(float(raw))
        if float(raw) != activity:
            raise ValueError(f"non-integer activity {raw!r}")
    except OverflowError:  # inf, -inf, or a count beyond float range such as 1e400
        raise DataError(f"malformed row at line {lineno}: non-finite activity {raw!r}")
    except (ValueError, IndexError) as exc:
        raise DataError(f"malformed row at line {lineno}: {exc}")
    if activity < 0:
        raise DataError(f"malformed row at line {lineno}: negative activity {activity}")
    if activity >= MAX_COUNT:
        raise DataError(f"malformed row at line {lineno}: activity {raw!r} out of range")
    label = None
    if label_idx is not None:
        try:
            label = int(row[label_idx])
        except (ValueError, IndexError) as exc:
            raise DataError(f"malformed row at line {lineno}: {exc}")
    return (ts - EPOCH) // MINUTE, activity, label


def _parse_rows(rows: list[list[str]], lineno: int, ts_idx: int, act_idx: int, label_idx: int | None):
    """(minutes, activity) of the non-blank rows of one chunk whose first row
    is on line ``lineno``, and the label of the last of them (None without a
    label column or such a row). Columns are converted in bulk; only the rows
    the bulk conversion rejects are parsed one by one."""
    minutes, ok = _canonical_minutes(_column(rows, ts_idx))
    counts = np.array(_convert(_column(rows, act_idx), float, np.nan), dtype=np.float64)
    ok &= (counts >= 0) & (counts < MAX_COUNT) & (counts == np.floor(counts))
    activity = np.where(ok, counts, 0).astype(np.int64)
    labels = [None] * len(rows)
    if label_idx is not None:
        labels = _convert(_column(rows, label_idx), int, None)
        ok &= np.array([v is not None for v in labels], dtype=bool)

    for i in np.flatnonzero(~ok).tolist():
        parsed = _parse_row(rows[i], lineno + i, ts_idx, act_idx, label_idx)
        if parsed is not None:
            minutes[i], activity[i], labels[i] = parsed
            ok[i] = True
    kept = np.flatnonzero(ok)
    return minutes[kept], activity[kept], labels[kept[-1]] if kept.size else None


def parse_subject_file(
    stream: TextIO | io.BufferedIOBase,
    column_map: Mapping[str, str] | None = None,
    subject_id: str = "",
    label: int = 0,
) -> LabeledSeries:
    """Parse one subject's delimited activity file into a LabeledSeries.

    ``column_map`` maps logical names ("timestamp", "activity", optionally
    "label") to header names in the file. When no "label" column is mapped
    the ``label`` argument is used (labels normally come from metadata, not
    file content); otherwise the label of the last row wins. Blank rows are
    skipped; a malformed row is a DataError naming its line. Rows are read
    :data:`READ_CHUNK_ROWS` at a time.
    """
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        columns.update(column_map)

    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(stream, "read") and isinstance(getattr(stream, "mode", ""), str) and "b" in getattr(stream, "mode", "")
    ):
        stream = io.TextIOWrapper(stream, encoding="utf-8")

    reader = csv.reader(stream)
    minutes, activity = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    file_label = None
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: no header row")
        header = [h.strip() for h in header]
        try:
            ts_idx = header.index(columns["timestamp"])
            act_idx = header.index(columns["activity"])
        except ValueError as exc:
            raise ConfigError(f"mapped column missing from header {header}: {exc}")
        label_idx = header.index(columns["label"]) if "label" in columns and columns["label"] in header else None

        lineno = 2
        while rows := list(islice(reader, READ_CHUNK_ROWS)):
            chunk_minutes, chunk_activity, chunk_label = _parse_rows(rows, lineno, ts_idx, act_idx, label_idx)
            minutes.append(chunk_minutes)
            activity.append(chunk_activity)
            file_label = chunk_label if chunk_minutes.size else file_label
            lineno += len(rows)
    except csv.Error as exc:
        raise DataError(f"malformed row at line {reader.line_num}: {exc}")
    except UnicodeDecodeError as exc:
        raise DataError(f"recording is not UTF-8 text: {exc}")
    minutes, activity = np.concatenate(minutes), np.concatenate(activity)

    step = np.flatnonzero(np.diff(minutes) <= 0)
    if step.size:
        i = int(step[0])
        raise DataError(
            f"non-monotonic timestamps: {_clock(minutes[i])} followed by "
            f"{_clock(minutes[i + 1])} (samples {i} and {i + 1})"
        )

    return LabeledSeries(
        subject_id=subject_id,
        label=file_label if file_label is not None else label,
        minutes=minutes,
        activity=activity,
    )


def filter_complete_days(series: LabeledSeries) -> tuple[list[date], np.ndarray, int]:
    """The dates and the (n_kept, 1440) counts of the days with all 1440
    minutes present, and the number of days discarded.

    Minutes are strictly increasing, so a day with 1440 samples holds every
    minute of that day, in order.
    """
    day = series.minutes // MINUTES_PER_DAY
    days, first, count = np.unique(day, return_index=True, return_counts=True)
    complete = count == MINUTES_PER_DAY
    kept = [EPOCH.date() + timedelta(days=d) for d in days[complete].tolist()]
    values = series.activity[first[complete][:, None] + np.arange(MINUTES_PER_DAY)]
    return kept, values, int(np.count_nonzero(~complete))


def _read_metadata(path: Path) -> dict[str, int]:
    """Metadata table: CSV with columns subject_id,label."""
    table: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "subject_id" not in reader.fieldnames or "label" not in reader.fieldnames:
                raise ConfigError(f"metadata file {path} needs subject_id and label columns")
            for row in reader:
                table[row["subject_id"]] = _metadata_label(row, path)
        except csv.Error as exc:
            raise ConfigError(f"metadata file {path}: malformed line {reader.reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"metadata file {path} is not UTF-8 text: {exc}")
    return table


def _metadata_label(row: dict, path: Path) -> int:
    """The label of one metadata row, which must read as 0 or 1."""
    try:
        label = int(row["label"])
    except (TypeError, ValueError):
        label = None
    if label not in (0, 1):
        raise ConfigError(f"metadata file {path}: subject {row['subject_id']!r} has label {row['label']!r}, "
                          "expected 0 or 1")
    return label


def load_corpus(
    root: str | Path,
    metadata: str | Path | Mapping[str, int] | None = None,
    column_map: Mapping[str, str] | None = None,
) -> Corpus:
    """Load every subject file under ``root`` and keep all complete days.

    Labels come either from ``patient/`` and ``control/`` subdirectories or
    from a metadata table mapping subject_id -> label. File stems are the
    subject ids.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigError(f"corpus root {root} is not a directory")

    label_table: Mapping[str, int] | None = None
    if metadata is not None:
        label_table = metadata if isinstance(metadata, Mapping) else _read_metadata(Path(metadata))

    entries: list[tuple[Path, int | None]] = []
    for sub, lab in (("patient", 1), ("control", 0)):
        subdir = root / sub
        if subdir.is_dir():
            entries.extend((p, lab) for p in sorted(subdir.glob("*.csv")))
    if not entries:
        entries = [(p, None) for p in sorted(root.glob("*.csv"))]

    # one (subject_id, label, dates, values) per subject, sorted by id below
    # so that the matrix is built in row order
    kept = []
    stats: dict[int, list[int]] = {0: [0, 0], 1: [0, 0]}  # label -> [kept, discarded]
    for path, dir_label in entries:
        subject_id = path.stem
        if dir_label is not None:
            label = dir_label
        elif label_table is not None and subject_id in label_table:
            label = label_table[subject_id]
        else:
            raise ConfigError(f"subject {subject_id} has no label (no class directory, not in metadata)")
        with open(path, newline="", encoding="utf-8") as fh:
            series = parse_subject_file(fh, column_map=column_map, subject_id=subject_id, label=label)
        dates, values, discarded = filter_complete_days(series)
        stats[label][0] += len(dates)
        stats[label][1] += discarded
        kept.append((subject_id, label, dates, values))

    if not any(dates for _, _, dates, _ in kept):
        raise DataError(f"empty corpus under {root}")

    kept.sort(key=lambda subject: subject[0])
    corpus = Corpus(
        values=np.concatenate([values for *_, values in kept]),
        subject_ids=[subject_id for subject_id, _, dates, _ in kept for _ in dates],
        dates=[day for *_, dates, _ in kept for day in dates],
        labels=[label for _, label, dates, _ in kept for _ in dates],
    )
    logger.info(
        "loaded corpus: %d subjects, %d days (control kept/discarded %d/%d, patient %d/%d)",
        len(corpus.subjects), len(corpus.dates), stats[0][0], stats[0][1], stats[1][0], stats[1][1],
    )
    return corpus


# -- corpus interchange format ------------------------------------------------
# One CSV: subject_id,label,date,minute,activity sorted by (subject_id, date,
# minute). Bit-exact sort order makes rewrites byte-identical.

INTERCHANGE_COLUMNS = ["subject_id", "label", "date", "minute", "activity"]


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(INTERCHANGE_COLUMNS)
        for subject_id, label, day, row in zip(corpus.subject_ids, corpus.labels.tolist(), corpus.dates,
                                               corpus.values):
            writer.writerows(zip(repeat(subject_id), repeat(label), repeat(day.isoformat()),
                                 range(MINUTES_PER_DAY), row.tolist()))


def _store_row(buffers: dict, row: list[str], lineno: int) -> None:
    """Store one interchange row; a short row reads as missing values."""
    subject_id, label, day, minute, activity = (row + [None] * 5)[:5]
    try:
        key = (subject_id, int(label), date.fromisoformat(day))
        minute = int(minute)
        activity = int(activity)
    except (ValueError, TypeError) as exc:
        raise DataError(f"malformed row at line {lineno}: {exc}")
    if key[1] not in (0, 1):
        raise DataError(f"malformed row at line {lineno}: label must be 0 or 1, got {key[1]}")
    buf = buffers.setdefault(key, np.full(MINUTES_PER_DAY, -1, dtype=np.int64))
    if not 0 <= minute < MINUTES_PER_DAY:
        raise DataError(f"minute {minute} out of range at line {lineno}")
    if buf[minute] >= 0:
        raise DataError(f"duplicate minute {minute} for {key[0]} on {key[2]}")
    # -1 marks a missing minute in the buffer, so a negative count cannot be stored
    if activity < 0:
        raise DataError(f"malformed row at line {lineno}: negative activity {activity}")
    try:
        buf[minute] = activity
    except OverflowError:
        raise DataError(f"malformed row at line {lineno}: activity {activity} out of range")


def _store_bulk(buffers: dict, rows: list[list[str]]) -> bool:
    """Store a chunk of rows in bulk; False, with nothing stored, when any row
    needs the per-row checks to report it."""
    if set(map(len, rows)) != {5}:
        return False
    subject_ids, labels, days, minutes, counts = zip(*rows)
    try:
        minute = np.fromiter(map(int, minutes), dtype=np.int64, count=len(rows))
        activity = np.fromiter(map(int, counts), dtype=np.int64, count=len(rows))
        runs = [
            ((subject_id, int(label), date.fromisoformat(day)), sum(1 for _ in run))
            for (subject_id, label, day), run in groupby(zip(subject_ids, labels, days))
        ]
    except (ValueError, OverflowError):
        return False
    if (len({key for key, _ in runs}) != len(runs) or minute.min() < 0 or minute.max() >= MINUTES_PER_DAY
            or activity.min() < 0 or any(key[1] not in (0, 1) for key, _ in runs)):
        return False
    bounds = np.cumsum([0] + [size for _, size in runs]).tolist()
    for (key, _), a, b in zip(runs, bounds, bounds[1:]):
        taken = np.bincount(minute[a:b], minlength=MINUTES_PER_DAY)
        if taken.max() > 1 or (key in buffers and (buffers[key][minute[a:b]] >= 0).any()):
            return False
    for (key, _), a, b in zip(runs, bounds, bounds[1:]):
        buffers.setdefault(key, np.full(MINUTES_PER_DAY, -1, dtype=np.int64))[minute[a:b]] = activity[a:b]
    return True


def load_interchange(path: str | Path) -> Corpus:
    """Load a corpus previously written by save_corpus.

    Rows are read :data:`READ_CHUNK_ROWS` at a time. A chunk whose rows are
    all well formed is stored with one array write per subject-day; any other
    chunk is stored row by row, which reports the first bad row by its line.
    """
    buffers: dict[tuple[str, int, date], np.ndarray] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != INTERCHANGE_COLUMNS:
                raise DataError(
                    f"interchange file {path} has columns {header}, expected {INTERCHANGE_COLUMNS}"
                )
            lineno = 2  # line numbers count non-blank rows
            while chunk := list(islice(reader, READ_CHUNK_ROWS)):
                rows = [row for row in chunk if row]
                if not _store_bulk(buffers, rows):
                    for offset, row in enumerate(rows):
                        _store_row(buffers, row, lineno + offset)
                lineno += len(rows)
        except csv.Error as exc:
            raise DataError(f"interchange file {path}: malformed line {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise DataError(f"interchange file {path} is not UTF-8 text: {exc}")
    for (subject_id, _, d), buf in buffers.items():
        if (buf < 0).any():
            raise DataError(f"incomplete day {subject_id}/{d} in interchange file")
    if not buffers:
        raise DataError(f"empty corpus in {path}")
    keys = list(buffers)
    values = np.empty((len(keys), MINUTES_PER_DAY), dtype=np.int64)
    for row, key in zip(values, keys):
        row[:] = buffers.pop(key)  # each day's buffer is freed once copied
    return Corpus(
        values=values,
        subject_ids=[subject_id for subject_id, _, _ in keys],
        dates=[d for _, _, d in keys],
        labels=[label for _, label, _ in keys],
    )
