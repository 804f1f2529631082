"""Seeded synthetic actigraphy corpora for testing without clinical data.

Controls follow a smooth diurnal intensity curve (near-zero nights); patients
additionally show fragmented nocturnal activity (Bernoulli-triggered bursts
of geometric duration) and damped morning activity. Counts are Poisson draws
around the intensity curve, so all values are non-negative integers and every
generated day is complete. All numeric defaults are artifact choices tuned
once for class separability; none come from the study being modeled.

Each subject's day rate is ``BASE_RATE`` and night rate ``NIGHT_RATE``, each
times a lognormal jitter; a patient's burst probability is
``PATIENT_BURST_PROB`` times a uniform jitter in (0.6, 1.4), and its morning
intensity is multiplied by ``PATIENT_MORNING_DAMPING``. Bursts walk the
night minutes in ``NIGHT_MINUTES`` order, 00:00-08:00 then 20:00-24:00, so a
burst still running at 08:00 continues at 20:00.

:func:`gen_corpus` builds each subject's diurnal curve once and writes the
subject's days, in date order, straight into the corpus day matrix.
"""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np

from .errors import ConfigError
from .ingest import MINUTES_PER_DAY, Corpus

DAY_START, DAY_END = 480, 1200  # 08:00-20:00
MORNING_START, MORNING_END = 360, 720  # 06:00-12:00
NIGHT_MINUTES = (*range(DAY_START), *range(DAY_END, MINUTES_PER_DAY))
BASE_RATE = 300.0
NIGHT_RATE = 5.0
PATIENT_BURST_PROB = 0.15
PATIENT_MORNING_DAMPING = 0.5
BURST_MEAN_MINUTES = 8
BURST_RATE_FACTOR = 0.5

EPOCH = date(2020, 3, 1)


def _diurnal_curve(base_rate: float, night_rate: float, morning_damping: float) -> np.ndarray:
    minutes = np.arange(MINUTES_PER_DAY)
    intensity = np.full(MINUTES_PER_DAY, night_rate, dtype=np.float64)
    day_mask = (minutes >= DAY_START) & (minutes < DAY_END)
    phase = (minutes[day_mask] - DAY_START) / (DAY_END - DAY_START)
    intensity[day_mask] = night_rate + base_rate * (0.3 + 0.7 * np.sin(np.pi * phase))
    intensity[(minutes >= MORNING_START) & (minutes < MORNING_END)] *= morning_damping
    return intensity


def _add_bursts(intensity: np.ndarray, burst_prob: float, burst_rate: float, rng: np.random.Generator) -> None:
    """One ``rng.random()`` per night minute outside a burst and one
    ``rng.geometric`` per burst start; a burst adds ``burst_rate`` to each
    minute it covers."""
    remaining = 0
    for m in NIGHT_MINUTES:
        if remaining > 0:
            intensity[m] += burst_rate
            remaining -= 1
        elif rng.random() < burst_prob:
            remaining = int(rng.geometric(1.0 / BURST_MEAN_MINUTES))
            intensity[m] += burst_rate
            remaining -= 1


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
        base_rate = BASE_RATE * jitter_rng.lognormal(0.0, 0.25)
        night_rate = NIGHT_RATE * jitter_rng.lognormal(0.0, 0.3)
        burst_prob = PATIENT_BURST_PROB * jitter_rng.uniform(0.6, 1.4) if is_patient else 0.0
        curve = _diurnal_curve(base_rate, night_rate, PATIENT_MORNING_DAMPING if is_patient else 1.0)
        rng = np.random.default_rng(stream)
        for row in values[i * days:(i + 1) * days]:
            intensity = curve.copy()
            if is_patient:
                _add_bursts(intensity, burst_prob, BURST_RATE_FACTOR * base_rate, rng)
            row[:] = rng.poisson(intensity)
    return Corpus(
        values=values,
        subject_ids=[subject_id for subject_id in subject_ids for _ in range(days)],
        dates=[EPOCH + timedelta(days=d) for d in range(days)] * len(subject_ids),
        labels=np.repeat([1, 0], [n_patients * days, n_controls * days]),
    )
