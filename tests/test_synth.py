import numpy as np
import pytest

from chronoseg.errors import ConfigError
from chronoseg.ingest import MINUTES_PER_DAY, filter_complete_days
from chronoseg.synth import (
    SubjectProfile,
    control_profile,
    gen_corpus,
    gen_subject,
    patient_profile,
)

NIGHT = np.r_[np.arange(480), np.arange(1200, 1440)]
DAY = np.arange(480, 1200)


class TestProfiles:
    def test_invalid_parameters_rejected(self):
        with pytest.raises(ConfigError):
            SubjectProfile(is_patient=True, burst_prob=1.5)
        with pytest.raises(ConfigError):
            SubjectProfile(is_patient=True, morning_damping=0.0)
        with pytest.raises(ConfigError):
            SubjectProfile(is_patient=False, base_rate=-1)
        with pytest.raises(ConfigError):
            SubjectProfile(is_patient=False, days=0)


class TestGenSubject:
    def test_control_two_days_shape_and_diurnal_contrast(self):
        series = gen_subject(control_profile(days=2, seed=1))
        assert series.activity.size == 2 * MINUTES_PER_DAY
        kept, discarded = filter_complete_days(series)
        assert len(kept) == 2 and discarded == 0
        day0 = kept[0].values
        assert day0[NIGHT].mean() < day0[DAY].mean()

    def test_deterministic_per_seed(self):
        a = gen_subject(patient_profile(days=1, seed=5))
        b = gen_subject(patient_profile(days=1, seed=5))
        assert a == b
        c = gen_subject(patient_profile(days=1, seed=6))
        assert a != c

    def test_patient_nights_less_quiet_than_control(self):
        # Monte-Carlo: patients' nocturnal bursts reduce night zero-proportion
        patient_zeros, control_zeros = [], []
        for seed in range(100):
            p = gen_subject(SubjectProfile(is_patient=True, burst_prob=0.2, days=1, seed=seed))
            c = gen_subject(control_profile(days=1, seed=seed))
            p_vals = p.activity[NIGHT]
            c_vals = c.activity[NIGHT]
            patient_zeros.append(np.mean(p_vals == 0))
            control_zeros.append(np.mean(c_vals == 0))
        assert np.mean(patient_zeros) < np.mean(control_zeros)


class TestGenCorpus:
    def test_cohort_sized_corpus(self):
        corpus = gen_corpus(22, 32, 13, seed=0)
        assert len(corpus.subjects) == 54
        assert len(corpus.days) == 702
        assert sum(1 for label, _ in corpus.subjects.values() if label == 1) == 22

    def test_minimal_corpus(self):
        corpus = gen_corpus(1, 1, 1, seed=0)
        assert len(corpus.days) == 2
        assert set(corpus.subjects) == {"P000", "C000"}

    def test_all_generated_days_complete(self):
        corpus = gen_corpus(2, 2, 3, seed=4)
        for day in corpus.days:
            assert day.values.shape == (MINUTES_PER_DAY,)
            assert (day.values >= 0).all()

    def test_different_seeds_differ(self):
        a = gen_corpus(1, 1, 1, seed=0)
        b = gen_corpus(1, 1, 1, seed=1)
        assert any((x.values != y.values).any() for x, y in zip(a.days, b.days))

    def test_same_seed_identical(self):
        a = gen_corpus(2, 2, 2, seed=3)
        b = gen_corpus(2, 2, 2, seed=3)
        for x, y in zip(a.days, b.days):
            np.testing.assert_array_equal(x.values, y.values)

    def test_counts_validated(self):
        with pytest.raises(ConfigError):
            gen_corpus(0, 1, 1, seed=0)
