"""Loading and cleaning of per-minute motor activity recordings.

Raw recordings are delimited text files with one row per minute, one file
per subject. The header must name a ``timestamp`` and an ``activity``
column; any other column, such as the ``date`` of the PSYKOSE layout
(``timestamp,date,activity``), is ignored. A recording holds no label: the
class comes only from its ``patient/`` or ``control/`` directory or, in a
flat root, from a metadata table. A table given with class directories must
agree with them, and each subject (file stem) has one recording. Subjects
are split into calendar days (midnight to midnight on the file's naive
clock), and a day is kept only when its rows are its 1440 minutes,
consecutive and in order. Missing minutes are never imputed: a day
with a gap, a repeated minute (as in the autumn DST fall-back) or rows out of
order is discarded and counted, and the rest of the recording is kept. Each
CSV reader (recordings, metadata, interchange files, feature tables) reads
UTF-8 and skips a leading byte-order mark, as Excel's "CSV UTF-8" writes.

Parsing follows one rule. The lines after the header are read
:data:`READ_CHUNK_ROWS` at a time, and a chunk is read in bulk or row by row:

- ``np.loadtxt`` splits a chunk in C, quoted cells as the ``csv`` module
  splits them, each row's stamp as bytes and its count as float64. It takes
  the chunk when the two splits agree (no quoted cell spanning lines, NUL,
  carriage return other than in a CRLF line end, whitespace-only line or
  line longer than the csv field limit; every row holds both cells and every
  count is in a form NumPy reads, not ``1_000`` nor non-ASCII digits) and
  every stamp and count passes the bulk checks below. That is how recordings
  usually look, CRLF files and files with every cell quoted included.
- Any other chunk is split into rows by the ``csv`` module and every row goes
  to :func:`_parse_row`, at about 13 us a row against 0.5 us in bulk (2-vCPU
  host): one such row per chunk makes parsing about ten times slower.

The bulk checks:

- Timestamps of the two zero-padded forms ``YYYY-MM-DD HH:MM`` and
  ``YYYY-MM-DD HH:MM:SS`` are checked at fixed positions: digits and
  separators, month, hour, minute and second against their ranges, the day
  against the month's length from NumPy ``datetime64`` arithmetic. The stamp
  becomes minutes since 1970-01-01 on the file's naive clock. Seconds are
  truncated.
- A count must be a finite, non-negative whole number below 2**63:
  ``143.0`` and ``1e3`` are read as 143 and 1000.

:func:`_parse_row` also accepts every other stamp that ``datetime.strptime``
reads with those two formats (no zero padding, surrounding spaces) and counts
as Python's ``float`` reads them; ``1.5``, ``nan``, ``inf``, ``-3`` and
``1e300`` are DataErrors naming their line. Blank rows are skipped. Messages
name the physical line a row starts on, blank lines and the lines of a quoted
line break included, and report the first malformed row in file order.

Days are cut from the minute and count arrays with ``minutes // 1440``.
Chunking bounds the Python strings alive at once, so peak memory stays near
that of the parsed arrays however long a recording is; the interchange
reader holds one day's rows at a time.

The interchange file that ``save_corpus`` writes and ``load_interchange``
reads is one CSV with the header ``subject_id,label,date,minute,activity``,
then each subject-day as 1440 consecutive rows holding its minutes 0 to 1439
in order; days may come in any order and blank rows are skipped. The reader
takes one day at a time and checks each row once, in file order: it has five
cells that convert, the day's first row has a label of 0 or 1 and a
``YYYY-MM-DD`` date, each row repeats that key and holds the next minute,
and its count is at least 0 and below 2**63. A row that breaks a rule is a
DataError naming its line.

A :class:`Corpus` is one read-only int64 day matrix of shape (n_days, 1440),
one row per complete subject-day, with the subject id, date and label of
each row. Its constructor sorts the rows by (subject_id, date) and validates
them once; ``load_corpus``, ``load_interchange`` and the synthetic generator
all build that matrix directly.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from datetime import date, datetime, timedelta
from itertools import chain, islice, repeat
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import ConfigError, DataError

logger = logging.getLogger(__name__)

MINUTES_PER_DAY = 1440

# Lines of a recording read per chunk. The 54 bench-size raw recordings
# (about 4,300 lines each) parsed in 0.082 s in chunks of 1024 lines, 0.071 s
# of 4096 and 0.062 s of 16384 (fastest of 7 in-process runs, 2-vCPU host),
# but featurizing 14-day recordings (about 20,000 lines each) peaked at
# 55.2 MB RSS with 4096 lines against 57.2 MB with 16384.
READ_CHUNK_ROWS = 4096

TIMESTAMP_FORMATS = ("%Y-%m-%d %H:%M:%S", "%Y-%m-%d %H:%M")

EPOCH = datetime(1970, 1, 1)
MINUTE = timedelta(minutes=1)
MAX_COUNT = 2.0**63

# the zero-padded stamp: digits where the template has 0, the separators elsewhere
_STAMP_TEMPLATE = np.array([ord(c) for c in "0000-00-00 00:00:00"])
_STAMP_DIGITS = np.flatnonzero(_STAMP_TEMPLATE == ord("0"))
_STAMP_SEPARATORS = np.flatnonzero(_STAMP_TEMPLATE[:16] != ord("0"))
# np.loadtxt reads each row's stamp as bytes and its count as float64
_LOADTXT_STAMP_BYTES = 20
_LOADTXT_DTYPE = np.dtype([("t", f"S{_LOADTXT_STAMP_BYTES}"), ("a", "f8")])


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


# checks the calendar itself: NumPy 2.4.6 can segfault casting bytes stamps with one bad entry to datetime64
def _canonical_minutes(code: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minutes since the epoch of each zero-padded ``YYYY-MM-DD HH:MM[:SS]``
    stamp, and a mask of the stamps that have that form and a valid date and
    time. Row i of ``code`` holds stamp i's bytes, zero-padded to
    :data:`_LOADTXT_STAMP_BYTES` and cut there; a stamp ends at its first zero
    byte. Values where the mask is False are meaningless."""
    length = np.where((code[:, 15] != 0) & (code[:, 16] == 0), 16,
                      np.where((code[:, 18] != 0) & (code[:, 19] == 0), 19, 0))
    digit = code[:, _STAMP_DIGITS] - np.uint8(ord("0"))  # unsigned, so any other byte wraps past 9
    is_digit = digit < 10  # the last two are the seconds
    ok = (
        ((length == 16) | (length == 19) & (code[:, 16] == ord(":")) & is_digit[:, 12:].all(axis=1))
        & is_digit[:, :12].all(axis=1)
        & (code[:, _STAMP_SEPARATORS] == _STAMP_TEMPLATE[_STAMP_SEPARATORS]).all(axis=1)
    )
    # the seven two-digit numbers; garbage where ok is False
    pairs = digit.astype(np.int32)
    century, year, month, day, hour, minute, second = (pairs[:, 0::2] * 10 + pairs[:, 1::2]).T
    year += century * 100
    ok &= (year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (hour <= 23) & (minute <= 59)
    ok &= (length == 16) | (second <= 59)
    # the first day of each month the stamps name, from NumPy datetime64
    # arithmetic over the range of those months, and the month's length
    month = np.where(ok, (year - 1970) * 12 + month - 1, 0)  # months since 1970-01
    lo = month.min(initial=0)
    first = np.arange(lo, month.max(initial=0) + 2).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    month -= lo
    first_day = first[month]
    ok &= day <= first[month + 1] - first_day
    return (first_day + day - 1) * MINUTES_PER_DAY + hour * 60 + minute, ok


def _parse_row(row: list[str], lineno: int, ts_idx: int, act_idx: int):
    """One row of a chunk the bulk reader did not take, parsed on its own.

    Returns None for a blank row, else (minute, activity); raises DataError
    naming the line for a malformed row.
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
    return (ts - EPOCH) // MINUTE, activity


def _parse_rows(rows: list[list[str]], starts: list[int], ts_idx: int, act_idx: int):
    """(minutes, activity) of rows parsed one by one, row i starting on line
    ``starts[i]``; the first malformed row raises its DataError."""
    parsed = [row for row in map(_parse_row, rows, starts, repeat(ts_idx), repeat(act_idx)) if row is not None]
    return tuple(np.array(parsed, dtype=np.int64).reshape(-1, 2).T)


def _numbered_rows(reader) -> Iterator[tuple[int, list[str]]]:
    """(line, row) for each non-blank row of a ``csv`` reader, numbered by the
    physical line the row starts on, as the reader counts lines."""
    start = reader.line_num + 1
    for row in reader:
        if row:
            yield start, row
        start = reader.line_num + 1


def _loadtxt_chunk(lines: list[str], ts_idx: int, act_idx: int):
    """(minutes, activity) of a chunk of lines read by ``np.loadtxt``, which
    splits quoted cells as the ``csv`` module does, empty lines skipped; or
    None unless the module docstring's bulk rule takes the chunk. A quoted
    cell that spans lines is refused: cut at the chunk's end it would be read
    short, and the field-limit check measures single lines."""
    text = "".join(lines)
    limit = csv.field_size_limit()
    if ("\0" in text or text.isspace()
            or "\r" in text and text.count("\r") != text.count("\r\n")
            or len(text) > limit and max(map(len, lines)) > limit
            # read alone, the last line ends in a cell that holds its line end: a quoted cell is still open
            or '"' in lines[-1] and "\n" in "".join(next(csv.reader(lines[-1:]), []))):
        return None
    try:
        table = np.loadtxt(lines, delimiter=",", usecols=(ts_idx, act_idx), dtype=_LOADTXT_DTYPE,
                           comments=None, quotechar='"', ndmin=1)
    except ValueError:
        return None
    if '"' in text and len(table) != len(lines) - lines.count("\n") - lines.count("\r\n"):
        return None  # fewer rows than non-empty lines: a quoted cell spans lines
    # each stamp's bytes, zero-padded; a longer stamp is cut and fails the length rule
    minutes, ok = _canonical_minutes(table.view(np.uint8).reshape(len(table), -1)[:, :_LOADTXT_STAMP_BYTES])
    counts = table["a"]
    if not (ok & (counts >= 0) & (counts < MAX_COUNT) & (counts == np.floor(counts))).all():
        return None
    return minutes, counts.astype(np.int64)


def _csv_chunk(lines: list[str], rest: Iterator[str], lineno: int, ts_idx: int, act_idx: int):
    """(minutes, activity) of the rows that start on a chunk's lines, split by
    the ``csv`` module and parsed one by one by :func:`_parse_row`, and the
    number of lines they take. The chunk's first line is line ``lineno``; a
    quoted cell that spans lines reads on into ``rest``."""
    reader = csv.reader(chain(lines, rest))
    rows, starts = [], []
    try:
        for start, row in _numbered_rows(reader):
            rows.append(row)
            starts.append(lineno - 1 + start)
            if reader.line_num >= len(lines):
                break
    except csv.Error as exc:
        _parse_rows(rows, starts, ts_idx, act_idx)  # a bad row before the csv error is reported first
        raise DataError(f"malformed row at line {lineno - 1 + reader.line_num}: {exc}")
    return _parse_rows(rows, starts, ts_idx, act_idx), reader.line_num


def parse_subject_file(stream: TextIO) -> tuple[np.ndarray, np.ndarray]:
    """One subject's recording as (minutes, activity), two int64 arrays in
    file order.

    ``minutes`` holds minutes since 1970-01-01 00:00 on the file's naive
    clock; ``activity`` holds each minute's count. The header must name a
    ``timestamp`` and an ``activity`` column; other columns are ignored.
    Blank rows are skipped; a malformed row is a DataError naming the line it
    starts on. Lines are read :data:`READ_CHUNK_ROWS` at a time.
    """
    lines_in = iter(stream)
    reader = csv.reader(lines_in)
    minutes, activity = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
    try:
        try:
            header = next(reader)
        except StopIteration:
            raise DataError("empty file: no header row")
        except csv.Error as exc:
            raise DataError(f"malformed row at line {reader.line_num}: {exc}")
        header = [h.strip() for h in header]
        try:
            ts_idx = header.index("timestamp")
            act_idx = header.index("activity")
        except ValueError as exc:
            raise ConfigError(f"column missing from header {header}: {exc}")

        lineno = reader.line_num + 1
        while lines := list(islice(lines_in, READ_CHUNK_ROWS)):
            n_lines = len(lines)
            chunk = _loadtxt_chunk(lines, ts_idx, act_idx)
            if chunk is None:
                chunk, n_lines = _csv_chunk(lines, lines_in, lineno, ts_idx, act_idx)
            minutes.append(chunk[0])
            activity.append(chunk[1])
            lineno += n_lines
    except UnicodeDecodeError as exc:
        raise DataError(f"recording is not UTF-8 text: {exc}")
    return np.concatenate(minutes), np.concatenate(activity)


def filter_complete_days(minutes: np.ndarray, activity: np.ndarray) -> tuple[list[date], np.ndarray, int]:
    """The dates and the (n_kept, 1440) counts of the complete days, in date
    order, and the number of days discarded.

    A day is complete when its rows are its 1440 minutes, consecutive and in
    order. A day with a gap, a repeated minute (as in the autumn DST
    fall-back) or rows out of order is discarded.
    """
    days, first, count = np.unique(minutes // MINUTES_PER_DAY, return_index=True, return_counts=True)
    days, first = days[count == MINUTES_PER_DAY], first[count == MINUTES_PER_DAY]
    rows = first[:, None] + np.arange(MINUTES_PER_DAY)
    # a day of 1440 rows is complete when the 1440 rows from its first hold its minutes in order
    complete = (minutes[rows] == days[:, None] * MINUTES_PER_DAY + np.arange(MINUTES_PER_DAY)).all(axis=1)
    kept = [EPOCH.date() + timedelta(days=d) for d in days[complete].tolist()]
    return kept, activity[rows[complete]], int(count.size - np.count_nonzero(complete))


def _read_metadata(path: Path) -> dict[str, int]:
    """Metadata table: CSV with columns subject_id,label, one row per subject
    and a label that reads as 0 or 1."""
    table: dict[str, int] = {}
    with open(path, newline="", encoding="utf-8-sig") as fh:
        try:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or "subject_id" not in reader.fieldnames or "label" not in reader.fieldnames:
                raise ConfigError(f"metadata file {path} needs subject_id and label columns")
            for row in reader:
                subject_id, cell = row["subject_id"], row["label"]
                if subject_id in table:
                    raise ConfigError(f"metadata file {path}: subject {subject_id!r} listed again "
                                      f"on line {reader.line_num}")
                try:
                    label = int(cell)
                except (TypeError, ValueError):
                    label = None
                if label not in (0, 1):
                    raise ConfigError(f"metadata file {path}: subject {subject_id!r} has label {cell!r}, "
                                      "expected 0 or 1")
                table[subject_id] = label
        except csv.Error as exc:
            raise ConfigError(f"metadata file {path}: malformed line {reader.reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"metadata file {path} is not UTF-8 text: {exc}")
    return table


def load_corpus(
    root: str | Path,
    metadata: str | Path | None = None,
) -> Corpus:
    """Load every subject file under ``root`` and keep all complete days.

    File stems are the subject ids, and each subject has one recording. Its
    label comes from its ``patient/`` (1) or ``control/`` (0) directory or,
    in a flat root, from a metadata table mapping subject_id -> label, which
    the root may hold. A table given with class directories must agree with
    them. Recordings are read once, in subject-id order, and their complete
    days appended as they are read, so the rows come in (subject, date)
    order. A DataError or ConfigError from one recording names its file.
    """
    root = Path(root)
    if not root.is_dir():
        raise ConfigError(f"corpus root {root} is not a directory")

    table = _read_metadata(Path(metadata)) if metadata is not None else {}
    entries = [(path, label) for sub, label in (("patient", 1), ("control", 0)) for path in (root / sub).glob("*.csv")]
    if not entries:  # a flat root, which may hold the metadata table itself
        skip = Path(metadata).resolve() if metadata is not None else None
        entries = [(path, table.get(path.stem)) for path in root.glob("*.csv") if path.resolve() != skip]
    entries.sort(key=lambda entry: entry[0].stem)

    values, subject_ids, dates, labels = [], [], [], []
    stats: dict[int, list[int]] = {0: [0, 0], 1: [0, 0]}  # label -> [kept, discarded]
    for i, (path, label) in enumerate(entries):
        subject_id = path.stem
        if label is None:
            raise ConfigError(f"subject {subject_id} has no label (no class directory, not in metadata)")
        if table.get(subject_id, label) != label:
            raise ConfigError(f"metadata file {metadata}: subject {subject_id!r} has label {table[subject_id]}, "
                              f"but its recording is {path}")
        if i and entries[i - 1][0].stem == subject_id:
            raise DataError(f"subject {subject_id} has two recordings: {entries[i - 1][0]} and {path}")
        try:
            with open(path, newline="", encoding="utf-8-sig") as fh:
                minutes, activity = parse_subject_file(fh)
        except (DataError, ConfigError) as exc:
            raise type(exc)(f"{path}: {exc}") from None
        days, counts, discarded = filter_complete_days(minutes, activity)
        stats[label][0] += len(days)
        stats[label][1] += discarded
        values.append(counts)
        subject_ids += [subject_id] * len(days)
        dates += days
        labels += [label] * len(days)

    if not dates:
        raise DataError(f"empty corpus under {root}")
    corpus = Corpus(np.concatenate(values), subject_ids, dates, labels)
    logger.info(
        "loaded corpus: %d subjects, %d days (control kept/discarded %d/%d, patient %d/%d)",
        len(corpus.subjects), len(corpus.dates), stats[0][0], stats[0][1], stats[1][0], stats[1][1],
    )
    return corpus


# -- corpus interchange format (see the module docstring) ---------------------
# save_corpus writes the days sorted by (subject_id, date), so rewrites are
# byte-identical.

INTERCHANGE_COLUMNS = ["subject_id", "label", "date", "minute", "activity"]

# each minute cell as save_corpus writes it; a cell that differs is compared by value
_MINUTE_CELLS = [str(m) for m in range(MINUTES_PER_DAY)]


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(INTERCHANGE_COLUMNS)
        for subject_id, label, day, row in zip(corpus.subject_ids, corpus.labels.tolist(), corpus.dates,
                                               corpus.values):
            writer.writerows(zip(repeat(subject_id), repeat(label), repeat(day.isoformat()),
                                 _MINUTE_CELLS, row.tolist()))


def _cells(row: list[str]) -> tuple[str, int, date, int, int]:
    """An interchange row's five cells, converted; ValueError if it has
    another number of cells or one does not convert."""
    if len(row) != 5:
        raise ValueError(f"expected 5 cells, got {len(row)}")
    when = date.fromisoformat(row[2])
    if row[2] != when.isoformat():  # Python 3.11 also reads forms such as 20200301
        raise ValueError(f"date {row[2]!r} is not YYYY-MM-DD")
    return row[0], int(row[1]), when, int(row[3]), int(row[4])


def _read_day(path: str | Path, lineno: int, first: list[str],
              rows: Iterator[tuple[int, list[str]]]) -> tuple[tuple[str, int, date], np.ndarray]:
    """The (subject_id, label, date) key and the 1440 counts of the subject-day
    whose first row ``first`` is on line ``lineno`` of the interchange file
    ``path``; its other rows are taken from ``rows``, numbered non-blank rows,
    and each row is checked in order."""
    counts = []
    try:
        subject_id, label, when, _, _ = _cells(first)
        if label not in (0, 1):
            raise ValueError(f"label must be 0 or 1, got {label}")
        label_cell, date_cell = first[1:3]
        for minute, (lineno, row) in zip(_MINUTE_CELLS, chain([(lineno, first)], rows)):
            if (len(row) != 5 or row[3] != minute or row[0] != subject_id or row[1] != label_cell
                    or row[2] != date_cell):
                got = _cells(row)
                if got[:4] != (subject_id, label, when, int(minute)):
                    raise ValueError(f"expected minute {minute} of {subject_id}/{when} with label {label}, "
                                     f"got minute {got[3]} of {got[0]}/{got[2]} with label {got[1]}")
            count = int(row[4])
            if not 0 <= count < MAX_COUNT:
                raise ValueError(f"negative activity {count}" if count < 0 else f"activity {count} out of range")
            counts.append(count)
    except UnicodeDecodeError:  # a ValueError from reading the file, not from a row
        raise
    except ValueError as exc:
        raise DataError(f"interchange file {path}: malformed row at line {lineno}: {exc}")
    if len(counts) < MINUTES_PER_DAY:
        raise DataError(f"interchange file {path}: incomplete day {subject_id}/{when}: "
                        f"the file ends after its minute {len(counts) - 1}, on line {lineno}")
    return (subject_id, label, when), np.array(counts, dtype=np.int64)


def load_interchange(path: str | Path) -> Corpus:
    """Load an interchange file, one subject-day at a time.

    Blank rows are skipped but count towards line numbers. A repeated
    subject-day or a subject with two labels is a DataError from the Corpus
    constructor.
    """
    keys, days = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header != INTERCHANGE_COLUMNS:
                found = "no header row" if header is None else f"columns {header}"
                raise DataError(f"interchange file {path} has {found}, expected {INTERCHANGE_COLUMNS}")
            rows = _numbered_rows(reader)
            for lineno, first in rows:
                key, counts = _read_day(path, lineno, first, rows)
                keys.append(key)
                days.append(counts)
        except csv.Error as exc:
            raise DataError(f"interchange file {path}: malformed line {reader.line_num}: {exc}")
        except UnicodeDecodeError as exc:
            raise DataError(f"interchange file {path} is not UTF-8 text: {exc}")
    if not days:
        raise DataError(f"empty corpus in {path}")
    values = np.empty((len(days), MINUTES_PER_DAY), dtype=np.int64)
    for i, row in enumerate(values):
        row[:] = days[i]
        days[i] = None  # each day's counts are freed once copied
    subject_ids, labels, dates = zip(*keys)
    return Corpus(values, subject_ids, dates, labels)
