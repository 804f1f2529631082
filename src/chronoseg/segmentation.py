"""Temporal partitions of the 1440-minute day.

A scheme is an ordered list of named segments; each segment is a union of
half-open minute windows so a "night" covering 20:00-08:00 can live inside a
single calendar day as [0,480) U [1200,1440). Presets cover the standard
divisions (full day, 2/3/4/6/8/12 parts) plus all_days, one segment over a
subject's whole record. Under ``per_subject`` each segment is gathered over
all of a subject's days in date order, one row per subject.

A scheme is valid by construction. Building a :class:`SegmentationScheme`
checks its names and runs :func:`validate_scheme` once, then stores each
segment's minutes as ``scheme.minutes``: its windows in start order, as an
index into a day's 1440 counts. Presets and scheme files go through that one
constructor. Feature tables gather each segment from the corpus day matrix
with that index, and :func:`segment_day` is its one-day view.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .ingest import MINUTES_PER_DAY

_NAME = re.compile(r"[A-Za-z0-9_-]+")


def read_yaml(path: str | Path):
    """The document of a YAML file, a scheme file or a config file; a file that
    cannot be read, decoded or parsed is a ConfigError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            return yaml.safe_load(fh)
    except (OSError, UnicodeDecodeError, yaml.YAMLError) as exc:
        raise ConfigError(f"cannot read YAML file {path}: {exc}") from None


def check_name(kind: str, name: str) -> str:
    """name, when it may name a scheme or segment; names reach file names and unquoted CSV cells."""
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise ConfigError(f"{kind} name {name!r} must be non-empty and use only letters, digits, '_' and '-'")
    return name


@dataclass(frozen=True)
class MinuteWindow:
    """Half-open minute range [start, end) within a day."""

    start: int
    end: int

    def __post_init__(self):
        if not (0 <= self.start < self.end <= MINUTES_PER_DAY):
            raise ConfigError(f"invalid window [{self.start}, {self.end})")


@dataclass(frozen=True)
class SegmentDef:
    name: str
    windows: tuple[MinuteWindow, ...]

    def __post_init__(self):
        check_name("segment", self.name)
        if not self.windows:
            raise ConfigError(f"segment {self.name!r} has no windows")


@dataclass(frozen=True)
class SegmentationScheme:
    name: str
    segments: tuple[SegmentDef, ...]
    per_subject: bool = False  # one row per subject, each segment over all its days
    # each segment's minutes of the day (int64), its windows in start order
    minutes: tuple[np.ndarray, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_name("scheme", self.name)
        validate_scheme(self)
        object.__setattr__(self, "minutes", tuple(
            np.concatenate([np.arange(w.start, w.end, dtype=np.int64)
                            for w in sorted(seg.windows, key=lambda w: w.start)])
            for seg in self.segments
        ))

    def segment_names(self) -> list[str]:
        return [s.name for s in self.segments]


def validate_scheme(scheme: SegmentationScheme) -> None:
    """Raise a ConfigError unless segment names are unique and the windows
    cover [0, 1440) exactly once; it names duplicate names first, then the
    first overlapping run of minutes, then the first uncovered run."""
    names = scheme.segment_names()
    if len(set(names)) != len(names):
        raise ConfigError(f"scheme {scheme.name!r} invalid: segment names not unique: {names}")
    coverage = np.zeros(MINUTES_PER_DAY, dtype=np.int32)
    for seg in scheme.segments:
        for w in seg.windows:
            coverage[w.start:w.end] += 1
    for kind, mask in (("overlap", coverage > 1), ("gap", coverage == 0)):
        if mask.any():
            start = int(np.argmax(mask))
            end = start + int(np.argmin(np.append(mask[start:], False)))
            raise ConfigError(f"scheme {scheme.name!r} invalid: {kind} over minutes [{start}, {end})")


def segment_day(values: np.ndarray, scheme: SegmentationScheme) -> dict[str, np.ndarray]:
    """One day's 1440 counts cut into the scheme's segments, by segment name."""
    values = np.asarray(values)
    return {seg.name: values[minutes] for seg, minutes in zip(scheme.segments, scheme.minutes)}


def _uniform(n: int, names: tuple[str, ...] | None = None) -> list:
    width = MINUTES_PER_DAY // n
    return [(names[i] if names else f"seg{i:02d}", [(i * width, (i + 1) * width)]) for i in range(n)]


# each preset's segments as (name, [(start, end) minute windows]), in Table II
# order: finest segmentation first, whole-record last
PRESET_SEGMENTS = {
    "parts12": _uniform(12),
    "parts8": _uniform(8),
    "parts6": _uniform(6),
    "parts4": _uniform(4, ("night", "morning", "afternoon", "evening")),
    "parts3": _uniform(3),
    # day 08:00-20:00, night 20:00-08:00 realized as within-day union
    "parts2": [("day", [(480, 1200)]), ("night", [(0, 480), (1200, MINUTES_PER_DAY)])],
    "full_day": [("day24h", [(0, MINUTES_PER_DAY)])],
    "all_days": [("all", [(0, MINUTES_PER_DAY)])],
}
PRESET_NAMES = tuple(PRESET_SEGMENTS)


def builtin_scheme(pattern: str) -> SegmentationScheme:
    """Return one of the preset schemes by name."""
    if pattern not in PRESET_SEGMENTS:
        raise ConfigError(f"unknown scheme preset {pattern!r}; choose from {PRESET_NAMES}")
    segments = tuple(SegmentDef(name, tuple(MinuteWindow(*w) for w in windows))
                     for name, windows in PRESET_SEGMENTS[pattern])
    return SegmentationScheme(pattern, segments, per_subject=pattern == "all_days")


def _parse_range(text) -> MinuteWindow:
    """Parse a half-open 'HH:MM-HH:MM' range; '24:00' means end of day."""
    try:
        lo, hi = str(text).split("-")
        h1, m1 = (int(x) for x in lo.split(":"))
        h2, m2 = (int(x) for x in hi.split(":"))
    except ValueError:
        raise ConfigError(f"cannot parse time range {text!r}, expected 'HH:MM-HH:MM'")
    if not (0 <= m1 < 60 and 0 <= m2 < 60):
        raise ConfigError(f"time range {text!r} has a minute outside 00-59")
    return MinuteWindow(h1 * 60 + m1, h2 * 60 + m2)


def scheme_from_config(path: str | Path) -> SegmentationScheme:
    """Load a custom scheme from a YAML file; a ConfigError about its document names the file.

    Layout::

        name: my_scheme
        segments:
          - name: night
            windows: ["20:00-24:00", "00:00-08:00"]
          - name: day
            windows: ["08:00-20:00"]
    """
    doc = read_yaml(path)
    try:
        if not isinstance(doc, dict) or "name" not in doc or "segments" not in doc:
            raise ConfigError("scheme config needs 'name' and 'segments' keys")
        entries = doc["segments"]
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and "name" in e and isinstance(e.get("windows"), list) for e in entries
        ):
            raise ConfigError(f"scheme config 'segments' must list mappings with 'name' and a 'windows' list, "
                              f"got {entries!r}")
        segments = tuple(SegmentDef(e["name"], tuple(_parse_range(r) for r in e["windows"])) for e in entries)
        return SegmentationScheme(name=doc["name"], segments=segments)
    except ConfigError as exc:
        raise ConfigError(f"scheme file {path}: {exc}") from None


def resolve_scheme(name_or_path: str) -> SegmentationScheme:
    """Resolve a preset name or a path to a custom scheme file."""
    if name_or_path in PRESET_NAMES:
        return builtin_scheme(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return scheme_from_config(path)
    raise ConfigError(f"{name_or_path!r} is neither a preset ({PRESET_NAMES}) nor a scheme file")
