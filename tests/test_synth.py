import numpy as np
import pytest

from chronoseg.errors import ConfigError
from chronoseg.ingest import MINUTES_PER_DAY
from chronoseg.synth import SubjectProfile, gen_corpus

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


class TestGenCorpus:
    def test_cohort_sized_corpus(self):
        corpus = gen_corpus(22, 32, 13, seed=0)
        assert len(corpus.subjects) == 54
        assert corpus.values.shape == (702, MINUTES_PER_DAY)
        assert sum(1 for label, _ in corpus.subjects.values() if label == 1) == 22

    def test_minimal_corpus(self):
        corpus = gen_corpus(1, 1, 1, seed=0)
        assert len(corpus.dates) == 2
        assert set(corpus.subjects) == {"P000", "C000"}

    def test_all_generated_days_complete(self):
        corpus = gen_corpus(2, 2, 3, seed=4)
        assert corpus.values.shape == (12, MINUTES_PER_DAY)
        assert (corpus.values >= 0).all()

    def test_different_seeds_differ(self):
        a = gen_corpus(1, 1, 1, seed=0)
        b = gen_corpus(1, 1, 1, seed=1)
        assert (a.values != b.values).any()

    def test_same_seed_identical(self):
        a = gen_corpus(2, 2, 2, seed=3)
        b = gen_corpus(2, 2, 2, seed=3)
        np.testing.assert_array_equal(a.values, b.values)

    def test_diurnal_contrast_every_day(self):
        corpus = gen_corpus(1, 1, 2, seed=1)
        for subject_id, day in zip(corpus.subject_ids, corpus.values):
            assert day[NIGHT].mean() < day[DAY].mean(), subject_id

    def test_patient_nights_less_quiet_than_control(self):
        # patients' nocturnal bursts reduce the night zero-proportion
        corpus = gen_corpus(20, 20, 5, seed=0)
        zeros = (corpus.values[:, NIGHT] == 0).mean(axis=1)
        assert zeros[corpus.labels == 1].mean() < zeros[corpus.labels == 0].mean()

    def test_counts_validated(self):
        with pytest.raises(ConfigError):
            gen_corpus(0, 1, 1, seed=0)
        with pytest.raises(ConfigError):
            gen_corpus(1, 1, 0, seed=0)
