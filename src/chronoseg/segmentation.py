"""Temporal partitions of the 1440-minute day.

A scheme is an ordered list of named segments; each segment is a union of
half-open minute windows so a "night" covering 20:00-08:00 can live inside a
single calendar day as [0,480) U [1200,1440). Presets cover the standard
divisions (full day, 2/3/4/6/8/12 parts) plus the all_days sentinel where
features are computed once over a subject's whole record.

A segment's minutes have one definition, :func:`segment_minutes`: the
minutes of its windows in start order, as an index into a day's 1440 counts.
Feature tables gather each segment from the corpus day matrix with that
index, and :func:`segment_day` is its one-day view.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import ConfigError
from .ingest import MINUTES_PER_DAY

PRESET_NAMES = ("full_day", "parts2", "parts3", "parts4", "parts6", "parts8", "parts12", "all_days")


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
        if not self.windows:
            raise ConfigError(f"segment {self.name!r} has no windows")


@dataclass(frozen=True)
class SegmentationScheme:
    name: str
    segments: tuple[SegmentDef, ...]
    per_subject: bool = False  # all_days sentinel: one row per subject

    def segment_names(self) -> list[str]:
        return [s.name for s in self.segments]


@dataclass(frozen=True)
class SchemeViolation:
    kind: str  # "overlap" | "gap" | "duplicate_name"
    detail: str
    start: int = 0
    end: int = 0


def _uniform_parts(n: int) -> tuple[SegmentDef, ...]:
    width = MINUTES_PER_DAY // n
    return tuple(
        SegmentDef(name=f"seg{i:02d}", windows=(MinuteWindow(i * width, (i + 1) * width),))
        for i in range(n)
    )


def builtin_scheme(pattern: str) -> SegmentationScheme:
    """Return one of the preset schemes by name."""
    if pattern == "full_day":
        return SegmentationScheme("full_day", (SegmentDef("day24h", (MinuteWindow(0, MINUTES_PER_DAY),)),))
    if pattern == "parts2":
        # day 08:00-20:00, night 20:00-08:00 realized as within-day union
        return SegmentationScheme(
            "parts2",
            (
                SegmentDef("day", (MinuteWindow(480, 1200),)),
                SegmentDef("night", (MinuteWindow(0, 480), MinuteWindow(1200, MINUTES_PER_DAY))),
            ),
        )
    if pattern == "parts4":
        names = ("night", "morning", "afternoon", "evening")
        return SegmentationScheme(
            "parts4",
            tuple(SegmentDef(names[i], (MinuteWindow(i * 360, (i + 1) * 360),)) for i in range(4)),
        )
    if pattern == "parts3":
        return SegmentationScheme("parts3", _uniform_parts(3))
    if pattern == "parts6":
        return SegmentationScheme("parts6", _uniform_parts(6))
    if pattern == "parts8":
        return SegmentationScheme("parts8", _uniform_parts(8))
    if pattern == "parts12":
        return SegmentationScheme("parts12", _uniform_parts(12))
    if pattern == "all_days":
        return SegmentationScheme(
            "all_days", (SegmentDef("all", (MinuteWindow(0, MINUTES_PER_DAY),)),), per_subject=True
        )
    raise ConfigError(f"unknown scheme preset {pattern!r}; choose from {PRESET_NAMES}")


def validate_scheme(scheme: SegmentationScheme) -> list[SchemeViolation]:
    """Check disjointness and exact cover of [0, 1440); empty list means ok."""
    violations: list[SchemeViolation] = []
    names = scheme.segment_names()
    if len(set(names)) != len(names):
        violations.append(SchemeViolation("duplicate_name", f"segment names not unique: {names}"))

    coverage = np.zeros(MINUTES_PER_DAY, dtype=np.int32)
    for seg in scheme.segments:
        for w in seg.windows:
            coverage[w.start:w.end] += 1

    for kind, mask in (("overlap", coverage > 1), ("gap", coverage == 0)):
        idx = np.flatnonzero(mask)
        if idx.size:
            # report the first contiguous run only
            start = int(idx[0])
            end = start
            while end < MINUTES_PER_DAY and mask[end]:
                end += 1
            violations.append(SchemeViolation(kind, f"{kind} over minutes [{start}, {end})", start, end))
    return violations


def segment_minutes(scheme: SegmentationScheme) -> list[np.ndarray]:
    """Each segment's minutes of the day, its windows in start order, in
    scheme order; a scheme that is not an exact partition is a ConfigError."""
    violations = validate_scheme(scheme)
    if violations:
        raise ConfigError(f"scheme {scheme.name!r} invalid: {violations[0].detail}")
    return [
        np.concatenate([np.arange(w.start, w.end) for w in sorted(seg.windows, key=lambda w: w.start)])
        for seg in scheme.segments
    ]


def segment_day(values: np.ndarray, scheme: SegmentationScheme) -> dict[str, np.ndarray]:
    """One day's 1440 counts cut into the scheme's segments, by segment name."""
    values = np.asarray(values)
    return {seg.name: values[minutes] for seg, minutes in zip(scheme.segments, segment_minutes(scheme))}


def _parse_range(text: str) -> MinuteWindow:
    """Parse a half-open 'HH:MM-HH:MM' range; '24:00' means end of day."""
    try:
        lo, hi = text.split("-")
        h1, m1 = (int(x) for x in lo.strip().split(":"))
        h2, m2 = (int(x) for x in hi.strip().split(":"))
    except ValueError:
        raise ConfigError(f"cannot parse time range {text!r}, expected 'HH:MM-HH:MM'")
    return MinuteWindow(h1 * 60 + m1, h2 * 60 + m2)


def scheme_from_config(source: str | Path | dict) -> SegmentationScheme:
    """Load a custom scheme from a YAML document.

    Layout::

        name: my_scheme
        segments:
          - name: night
            windows: ["20:00-24:00", "00:00-08:00"]
          - name: day
            windows: ["08:00-20:00"]
    """
    if isinstance(source, (str, Path)):
        with open(source, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    else:
        doc = source
    if not isinstance(doc, dict) or "name" not in doc or "segments" not in doc:
        raise ConfigError("scheme config needs 'name' and 'segments' keys")
    segments = []
    for entry in doc["segments"]:
        windows = tuple(_parse_range(r) for r in entry["windows"])
        segments.append(SegmentDef(name=str(entry["name"]), windows=windows))
    scheme = SegmentationScheme(name=str(doc["name"]), segments=tuple(segments))
    violations = validate_scheme(scheme)
    if violations:
        raise ConfigError(f"scheme {scheme.name!r} invalid: {violations[0].detail}")
    return scheme


def resolve_scheme(name_or_path: str) -> SegmentationScheme:
    """Resolve a preset name or a path to a custom scheme file."""
    if name_or_path in PRESET_NAMES:
        return builtin_scheme(name_or_path)
    path = Path(name_or_path)
    if path.exists():
        return scheme_from_config(path)
    raise ConfigError(f"{name_or_path!r} is neither a preset ({PRESET_NAMES}) nor a scheme file")
