"""Seeded input generators for the chronoseg benchmark.

Two writers share one cohort model and use only the documented file formats:

- ``hard``: a weak-contrast cohort in the interchange CSV format
  (``subject_id,label,date,minute,activity``, sorted by subject, date, minute).
  Both groups get nocturnal bursts, controls at a lower rate; patients also
  get damped mornings; every subject gets lognormal jitter on its base and
  night rates. Every day also varies in level, burst rate and damping, so
  days of one subject differ as much as subjects do: trees must grow past
  stumps to separate it and AUC does not saturate. Subject jitter is kept
  small so that the cohort is about as hard for every seed.
- ``raw``: per-subject raw CSVs (``timestamp,activity``) under ``patient/``
  and ``control/`` with the real-recording quirks today's ingest policy
  accepts: both timestamp formats, float-formatted counts such as ``143.0``
  and one incomplete day per subject (a 30-minute gap).

The autumn DST fall-back (one repeated wall-clock minute) is deliberately
left out of ``raw``: today a single repeated minute aborts the whole corpus
load with exit code 3, so every run would fail. Add the repeat here once
ingest discards such a day like any other defective day.

Run as a script it is the benchmark's set-up step::

    python3 bench/gen.py {hard,raw} --patients 10 --controls 10 --days 14 --seed 0 --out DIR

It imports chronoseg first so that set-up time covers the package import on
every workload, as ``chronoseg synth`` does for the default cohort.
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import date, timedelta
from pathlib import Path

import numpy as np

MINUTES_PER_DAY = 1440
DAY_START, DAY_END = 480, 1200  # 08:00-20:00
MORNING_START, MORNING_END = 360, 720  # 06:00-12:00
NIGHT = np.r_[np.arange(0, DAY_START), np.arange(DAY_END, MINUTES_PER_DAY)]
BURST_MEAN_MINUTES = 8
BURST_RATE_FACTOR = 0.5
GAP_MINUTES = 30  # missing minutes on each subject's incomplete raw day
FLOAT_COUNT_SHARE = 0.03  # share of raw rows written as "143.0"
EPOCH = date(2021, 1, 4)

SUBJECT_SIGMA = 0.1  # lognormal jitter of each subject's base and night rates
DAY_RATE_SIGMA = 0.3  # day-to-day lognormal jitter of the activity level
DAY_SPREAD = 0.6  # day-to-day factor on burst probability, in [1 - s, 1 + s]; s / 4 on morning damping

# (burst probability per night minute, morning damping) for each group
CONTRAST = {
    "paper": {"control": (0.0, 1.0), "patient": (0.15, 0.5)},
    "weak": {"control": (0.07, 1.0), "patient": (0.12, 0.7)},
}


def cohort(n_patients: int, n_controls: int, days: int, seed: int, contrast: str):
    """Subjects as (subject_id, label, values[days, 1440] int64), sorted by id."""
    rng = np.random.default_rng(seed)
    minutes = np.arange(MINUTES_PER_DAY)
    day_mask = (minutes >= DAY_START) & (minutes < DAY_END)
    phase = (minutes[day_mask] - DAY_START) / (DAY_END - DAY_START)
    morning = (minutes >= MORNING_START) & (minutes < MORNING_END)
    subjects = []
    for i in range(n_patients + n_controls):
        is_patient = i < n_patients
        subject_id = f"P{i:03d}" if is_patient else f"C{i - n_patients:03d}"
        burst_prob, damping = CONTRAST[contrast]["patient" if is_patient else "control"]
        base_rate = 300.0 * rng.lognormal(0.0, SUBJECT_SIGMA)
        night_rate = 5.0 * rng.lognormal(0.0, SUBJECT_SIGMA)
        curve = np.full(MINUTES_PER_DAY, night_rate)
        curve[day_mask] += base_rate * (0.3 + 0.7 * np.sin(np.pi * phase))
        values = np.empty((days, MINUTES_PER_DAY), dtype=np.int64)
        for d in range(days):
            intensity = curve * rng.lognormal(0.0, DAY_RATE_SIGMA)
            intensity[morning] *= min(1.0, damping * rng.uniform(1 - DAY_SPREAD / 4, 1 + DAY_SPREAD / 4))
            day_burst_prob = burst_prob * rng.uniform(1 - DAY_SPREAD, 1 + DAY_SPREAD)
            in_burst = np.zeros(NIGHT.size, dtype=bool)
            starts = np.flatnonzero(rng.random(NIGHT.size) < day_burst_prob)
            lengths = rng.geometric(1.0 / BURST_MEAN_MINUTES, size=starts.size)
            for s, n in zip(starts, lengths):
                in_burst[s:s + n] = True
            intensity[NIGHT[in_burst]] += BURST_RATE_FACTOR * base_rate
            values[d] = rng.poisson(intensity)
        subjects.append((subject_id, int(is_patient), values))
    return sorted(subjects, key=lambda s: s[0])


def write_interchange(subjects, path: Path) -> dict:
    """One interchange CSV; returns the manifest of what was written."""
    minute_text = [str(m) for m in range(MINUTES_PER_DAY)]
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("subject_id,label,date,minute,activity\n")
        for subject_id, label, values in subjects:
            for d, day in enumerate(values):
                prefix = f"{subject_id},{label},{(EPOCH + timedelta(days=d)).isoformat()},"
                fh.write("".join(f"{prefix}{m},{v}\n" for m, v in zip(minute_text, day.tolist())))
                rows += MINUTES_PER_DAY
    return {"rows": rows, "subjects": len(subjects), "days_total": sum(len(v) for _, _, v in subjects)}


def write_raw(subjects, root: Path, seed: int) -> dict:
    """Per-subject raw CSVs with the quirks listed in the module docstring."""
    rng = np.random.default_rng([seed, 1])
    clock = {
        True: [f"{m // 60:02d}:{m % 60:02d}:00" for m in range(MINUTES_PER_DAY)],
        False: [f"{m // 60:02d}:{m % 60:02d}" for m in range(MINUTES_PER_DAY)],
    }
    for sub in ("patient", "control"):
        (root / sub).mkdir(parents=True, exist_ok=True)
    rows = 0
    incomplete: dict[str, int] = {}
    for i, (subject_id, label, values) in enumerate(subjects):
        with_seconds = i % 2 == 0
        days = len(values)
        gap_day = int(rng.integers(days))
        gap_start = int(rng.integers(MINUTES_PER_DAY - GAP_MINUTES))
        incomplete[subject_id] = gap_day
        as_float = rng.random((days, MINUTES_PER_DAY)) < FLOAT_COUNT_SHARE
        lines = ["timestamp,activity\n"]
        for d, day in enumerate(values):
            stamp = (EPOCH + timedelta(days=d)).isoformat()
            keep = np.ones(MINUTES_PER_DAY, dtype=bool)
            if d == gap_day:
                keep[gap_start:gap_start + GAP_MINUTES] = False
            for m in np.flatnonzero(keep).tolist():
                v = int(day[m])
                lines.append(f"{stamp} {clock[with_seconds][m]},{v}.0\n" if as_float[d, m] else
                             f"{stamp} {clock[with_seconds][m]},{v}\n")
            rows += int(keep.sum())
        path = root / ("patient" if label else "control") / f"{subject_id}.csv"
        path.write_text("".join(lines), encoding="utf-8")
    return {"rows": rows, "subjects": len(subjects), "days_total": sum(len(v) for _, _, v in subjects),
            "complete_days": complete_day_stats(subjects, incomplete)}


def complete_day_stats(subjects, incomplete: dict[str, int]) -> dict:
    """Sum and max of every complete day, keyed "subject_id/date": the oracle
    that the full_day feature table is checked against."""
    stats = {}
    for subject_id, _, values in subjects:
        for d, day in enumerate(values):
            if incomplete.get(subject_id) != d:
                key = f"{subject_id}/{(EPOCH + timedelta(days=d)).isoformat()}"
                stats[key] = [int(day.sum()), int(day.max())]
    return stats


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=["hard", "raw"])
    parser.add_argument("--patients", type=int, required=True)
    parser.add_argument("--controls", type=int, required=True)
    parser.add_argument("--days", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    import chronoseg  # noqa: F401  (set-up time includes the package import)

    args.out.mkdir(parents=True, exist_ok=True)
    if args.kind == "hard":
        subjects = cohort(args.patients, args.controls, args.days, args.seed, "weak")
        manifest = write_interchange(subjects, args.out / "corpus.csv")
    else:
        subjects = cohort(args.patients, args.controls, args.days, args.seed, "paper")
        manifest = write_raw(subjects, args.out / "corpus", args.seed)
    (args.out / "manifest.json").write_text(json.dumps(manifest, sort_keys=True), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
