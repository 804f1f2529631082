"""Loading and cleaning of per-minute motor activity recordings.

Raw recordings are delimited text files with one row per minute. Subjects are
split into calendar days (midnight to midnight on the file's naive clock) and
only days with all 1440 minutes present are retained. Missing minutes are
never imputed; incomplete days are discarded and counted.
"""

from __future__ import annotations

import csv
import io
import logging
from dataclasses import dataclass, field
from datetime import date, datetime
from pathlib import Path
from typing import Iterable, Mapping, TextIO

import numpy as np

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

MINUTES_PER_DAY = 1440

DEFAULT_COLUMNS = {"timestamp": "timestamp", "activity": "activity"}

TIMESTAMP_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M")


@dataclass(frozen=True)
class ActivitySample:
    """One per-minute activity measurement."""

    timestamp: datetime
    activity: int

    def __post_init__(self):
        if self.activity < 0:
            raise DataError(f"negative activity {self.activity} at {self.timestamp}")
        if self.timestamp.second != 0 or self.timestamp.microsecond != 0:
            raise DataError(f"timestamp {self.timestamp} not normalized to minute resolution")


@dataclass(frozen=True)
class LabeledSeries:
    """A subject's full recording with its binary class label (1=patient)."""

    subject_id: str
    label: int
    samples: tuple[ActivitySample, ...]

    def __post_init__(self):
        if self.label not in (0, 1):
            raise DataError(f"label must be 0 or 1, got {self.label}")
        for prev, cur in zip(self.samples, self.samples[1:]):
            if cur.timestamp <= prev.timestamp:
                raise DataError(
                    f"samples not strictly increasing for {self.subject_id}: "
                    f"{prev.timestamp} followed by {cur.timestamp}"
                )


@dataclass(frozen=True)
class DaySeries:
    """One complete subject-day: exactly 1440 per-minute counts."""

    subject_id: str
    label: int
    date: date
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.int64)
        if values.shape != (MINUTES_PER_DAY,):
            raise DataError(
                f"day {self.subject_id}/{self.date} has {values.shape} values, "
                f"expected ({MINUTES_PER_DAY},)"
            )
        if (values < 0).any():
            raise DataError(f"negative activity in day {self.subject_id}/{self.date}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class Corpus:
    """All complete days of all subjects plus a per-subject summary."""

    days: tuple[DaySeries, ...]
    subjects: dict[str, tuple[int, int]] = field(default_factory=dict)  # id -> (label, n_days)

    def __post_init__(self):
        seen = set()
        for d in self.days:
            key = (d.subject_id, d.date)
            if key in seen:
                raise DataError(f"duplicate day {key}")
            seen.add(key)
            label, _ = self.subjects.get(d.subject_id, (d.label, 0))
            if label != d.label:
                raise DataError(f"label mismatch for subject {d.subject_id}")

    @classmethod
    def from_days(cls, days: Iterable[DaySeries]) -> "Corpus":
        days = tuple(sorted(days, key=lambda d: (d.subject_id, d.date)))
        subjects: dict[str, tuple[int, int]] = {}
        for d in days:
            label, count = subjects.get(d.subject_id, (d.label, 0))
            subjects[d.subject_id] = (label, count + 1)
        return cls(days=days, subjects=subjects)

    def days_of(self, subject_id: str) -> list[DaySeries]:
        return [d for d in self.days if d.subject_id == subject_id]


def _parse_timestamp(text: str) -> datetime:
    for fmt in TIMESTAMP_FORMATS:
        try:
            ts = datetime.strptime(text.strip(), fmt)
        except ValueError:
            continue
        return ts.replace(second=0, microsecond=0)
    raise ValueError(f"unparseable timestamp {text!r}")


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
    file content).
    """
    columns = dict(DEFAULT_COLUMNS)
    if column_map:
        columns.update(column_map)

    if isinstance(stream, (io.RawIOBase, io.BufferedIOBase)) or (
        hasattr(stream, "read") and isinstance(getattr(stream, "mode", ""), str) and "b" in getattr(stream, "mode", "")
    ):
        stream = io.TextIOWrapper(stream, encoding="utf-8")

    reader = csv.reader(stream)
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

    samples: list[ActivitySample] = []
    file_label = None
    for lineno, row in enumerate(reader, start=2):
        if not row or all(not cell.strip() for cell in row):
            continue
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
        if label_idx is not None:
            try:
                file_label = int(row[label_idx])
            except ValueError as exc:
                raise DataError(f"malformed row at line {lineno}: {exc}")
        samples.append(ActivitySample(timestamp=ts, activity=activity))

    for i, (prev, cur) in enumerate(zip(samples, samples[1:])):
        if cur.timestamp <= prev.timestamp:
            raise DataError(
                f"non-monotonic timestamps: {prev.timestamp} followed by "
                f"{cur.timestamp} (samples {i} and {i + 1})"
            )

    return LabeledSeries(
        subject_id=subject_id,
        label=file_label if file_label is not None else label,
        samples=tuple(samples),
    )


def split_into_days(series: LabeledSeries) -> list[tuple[date, dict[int, int]]]:
    """Group samples by calendar date; each group maps minute-of-day -> value.

    Minutes with no sample are simply absent from the group (never zero
    filled). A duplicate minute within one date is a hard error.
    """
    groups: dict[date, dict[int, int]] = {}
    for s in series.samples:
        d = s.timestamp.date()
        minute = s.timestamp.hour * 60 + s.timestamp.minute
        day = groups.setdefault(d, {})
        if minute in day:
            raise DataError(f"duplicate minute {minute} for {series.subject_id} on {d}")
        day[minute] = s.activity
    return sorted(groups.items())


def filter_complete_days(
    series: LabeledSeries,
    groups: list[tuple[date, dict[int, int]]] | None = None,
) -> tuple[list[DaySeries], int]:
    """Keep only days with all 1440 minutes present; return (kept, n_discarded)."""
    if groups is None:
        groups = split_into_days(series)
    kept: list[DaySeries] = []
    discarded = 0
    for d, minutes in groups:
        if len(minutes) == MINUTES_PER_DAY:
            values = np.empty(MINUTES_PER_DAY, dtype=np.int64)
            for minute, v in minutes.items():
                values[minute] = v
            kept.append(DaySeries(subject_id=series.subject_id, label=series.label, date=d, values=values))
        else:
            discarded += 1
    return kept, discarded


def _read_metadata(path: Path) -> dict[str, int]:
    """Metadata table: CSV with columns subject_id,label."""
    table: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None or "subject_id" not in reader.fieldnames or "label" not in reader.fieldnames:
            raise ConfigError(f"metadata file {path} needs subject_id and label columns")
        for row in reader:
            table[row["subject_id"]] = int(row["label"])
    return table


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

    days: list[DaySeries] = []
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
        kept, discarded = filter_complete_days(series)
        stats[label][0] += len(kept)
        stats[label][1] += discarded
        days.extend(kept)

    if not days:
        raise DataError(f"empty corpus under {root}")

    corpus = Corpus.from_days(days)
    logger.info(
        "loaded corpus: %d subjects, %d days (control kept/discarded %d/%d, patient %d/%d)",
        len(corpus.subjects), len(corpus.days), stats[0][0], stats[0][1], stats[1][0], stats[1][1],
    )
    return corpus


# -- corpus interchange format ------------------------------------------------
# One CSV: subject_id,label,date,minute,activity sorted by (subject_id, date,
# minute). Bit-exact sort order makes rewrites byte-identical.

def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["subject_id", "label", "date", "minute", "activity"])
        for day in sorted(corpus.days, key=lambda d: (d.subject_id, d.date)):
            for minute in range(MINUTES_PER_DAY):
                writer.writerow([day.subject_id, day.label, day.date.isoformat(), minute, int(day.values[minute])])


def load_interchange(path: str | Path) -> Corpus:
    """Load a corpus previously written by save_corpus."""
    buffers: dict[tuple[str, int, date], np.ndarray] = {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        expected = ["subject_id", "label", "date", "minute", "activity"]
        if reader.fieldnames != expected:
            raise DataError(f"interchange file {path} has columns {reader.fieldnames}, expected {expected}")
        for lineno, row in enumerate(reader, start=2):
            try:
                key = (row["subject_id"], int(row["label"]), date.fromisoformat(row["date"]))
                minute = int(row["minute"])
                activity = int(row["activity"])
            except (ValueError, TypeError) as exc:
                raise DataError(f"malformed row at line {lineno}: {exc}")
            buf = buffers.setdefault(key, np.full(MINUTES_PER_DAY, -1, dtype=np.int64))
            if not 0 <= minute < MINUTES_PER_DAY:
                raise DataError(f"minute {minute} out of range at line {lineno}")
            if buf[minute] >= 0:
                raise DataError(f"duplicate minute {minute} for {key[0]} on {key[2]}")
            buf[minute] = activity
    days = []
    for (subject_id, label, d), buf in buffers.items():
        if (buf < 0).any():
            raise DataError(f"incomplete day {subject_id}/{d} in interchange file")
        days.append(DaySeries(subject_id=subject_id, label=label, date=d, values=buf))
    if not days:
        raise DataError(f"empty corpus in {path}")
    return Corpus.from_days(days)
