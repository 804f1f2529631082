"""Seeded synthetic actigraphy corpora for testing without clinical data.

Controls follow a smooth diurnal intensity curve (near-zero nights); patients
additionally show fragmented nocturnal activity (Bernoulli-triggered bursts
of geometric duration) and damped morning activity. Counts are Poisson draws
around the intensity curve, so all values are non-negative integers and every
generated day is complete. All numeric defaults are artifact choices tuned
once for class separability; none come from the study being modeled.

:func:`gen_corpus` writes each subject's days, in date order, straight into
the corpus day matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from datetime import date, timedelta

import numpy as np

from .errors import ConfigError
from .ingest import MINUTES_PER_DAY, Corpus

DAY_START, DAY_END = 480, 1200  # 08:00-20:00
MORNING_START, MORNING_END = 360, 720  # 06:00-12:00
BURST_MEAN_MINUTES = 8
BURST_RATE_FACTOR = 0.5

EPOCH = date(2020, 3, 1)


@dataclass(frozen=True)
class SubjectProfile:
    is_patient: bool
    base_rate: float = 300.0
    night_rate: float = 5.0
    burst_prob: float = 0.15
    morning_damping: float = 0.5

    def __post_init__(self):
        if self.base_rate < 0 or self.night_rate < 0:
            raise ConfigError("rates must be non-negative")
        if not 0 <= self.burst_prob <= 1:
            raise ConfigError("burst_prob must be in [0, 1]")
        if not 0 < self.morning_damping <= 1:
            raise ConfigError("morning_damping must be in (0, 1]")


def control_profile() -> SubjectProfile:
    return SubjectProfile(is_patient=False, burst_prob=0.0, morning_damping=1.0)


def patient_profile() -> SubjectProfile:
    return SubjectProfile(is_patient=True)


def _diurnal_curve(profile: SubjectProfile) -> np.ndarray:
    minutes = np.arange(MINUTES_PER_DAY)
    intensity = np.full(MINUTES_PER_DAY, profile.night_rate, dtype=np.float64)
    day_mask = (minutes >= DAY_START) & (minutes < DAY_END)
    phase = (minutes[day_mask] - DAY_START) / (DAY_END - DAY_START)
    intensity[day_mask] = profile.night_rate + profile.base_rate * (0.3 + 0.7 * np.sin(np.pi * phase))
    if profile.is_patient:
        morning = (minutes >= MORNING_START) & (minutes < MORNING_END)
        intensity[morning] *= profile.morning_damping
    return intensity


def _gen_day_values(profile: SubjectProfile, rng: np.random.Generator) -> np.ndarray:
    intensity = _diurnal_curve(profile).copy()
    if profile.is_patient and profile.burst_prob > 0:
        night = np.flatnonzero((np.arange(MINUTES_PER_DAY) < DAY_START) | (np.arange(MINUTES_PER_DAY) >= DAY_END))
        remaining = 0
        for m in night:
            if remaining > 0:
                intensity[m] += BURST_RATE_FACTOR * profile.base_rate
                remaining -= 1
            elif rng.random() < profile.burst_prob:
                remaining = int(rng.geometric(1.0 / BURST_MEAN_MINUTES))
                intensity[m] += BURST_RATE_FACTOR * profile.base_rate
                remaining -= 1
    return rng.poisson(intensity).astype(np.int64)


def gen_corpus(n_patients: int, n_controls: int, days: int, seed: int = 0) -> Corpus:
    """Corpus with ids P000.../C000...; per-subject randomness comes from
    child streams of the master seed (SeedSequence spawn), and per-subject
    rate jitter keeps subjects from being clones."""
    if n_patients < 1 or n_controls < 1 or days < 1:
        raise ConfigError("n_patients, n_controls and days must all be >= 1")
    master = np.random.SeedSequence(seed)
    streams = master.spawn(n_patients + n_controls)
    jitter_rng = np.random.default_rng(master.spawn(1)[0])

    subject_ids = [f"P{i:03d}" for i in range(n_patients)] + [f"C{i:03d}" for i in range(n_controls)]
    values = np.empty((len(subject_ids) * days, MINUTES_PER_DAY), dtype=np.int64)
    for i, stream in enumerate(streams):
        is_patient = i < n_patients
        base = patient_profile() if is_patient else control_profile()
        profile = replace(
            base,
            base_rate=base.base_rate * jitter_rng.lognormal(0.0, 0.25),
            night_rate=base.night_rate * jitter_rng.lognormal(0.0, 0.3),
            burst_prob=min(1.0, base.burst_prob * jitter_rng.uniform(0.6, 1.4)) if is_patient else 0.0,
        )
        rng = np.random.default_rng(stream)
        for row in values[i * days:(i + 1) * days]:
            row[:] = _gen_day_values(profile, rng)
    return Corpus(
        values=values,
        subject_ids=[subject_id for subject_id in subject_ids for _ in range(days)],
        dates=[EPOCH + timedelta(days=d) for d in range(days)] * len(subject_ids),
        labels=np.repeat([1, 0], [n_patients * days, n_controls * days]),
    )
