import hashlib

import numpy as np
import pytest

from chronoseg.errors import ConfigError
from chronoseg.ingest import MINUTES_PER_DAY
from chronoseg.synth import gen_corpus

NIGHT = np.r_[np.arange(480), np.arange(1200, 1440)]
DAY = np.arange(480, 1200)


class TestGenCorpus:
    def test_cohort_sized_corpus(self):
        corpus = gen_corpus(22, 32, 13, seed=0)
        assert len(corpus.subjects) == 54
        assert corpus.values.shape == (702, MINUTES_PER_DAY)
        assert sum(1 for label, _ in corpus.subjects.values() if label == 1) == 22
        # recorded with NumPy 2.4.6; pins every draw of the generator
        assert hashlib.sha256(corpus.values.tobytes()).hexdigest() == (
            "2db3f6d4677a7b9cbeda4067fb02c3c2b8ca4a64218442c268bc532d491e4443"
        )

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
        assert hashlib.sha256(gen_corpus(3, 2, 2, seed=5).values.tobytes()).hexdigest() == (
            "dc1095b1dc8178a212fc457ed7f9c8d0c93d229c91a57dd4d0f817165be2b0fa"
        )

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
