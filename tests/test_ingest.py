import io
from datetime import date, datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg.errors import ConfigError, DataError
from chronoseg.ingest import (
    MINUTES_PER_DAY,
    ActivitySample,
    Corpus,
    DaySeries,
    LabeledSeries,
    filter_complete_days,
    load_corpus,
    load_interchange,
    parse_subject_file,
    save_corpus,
    split_into_days,
)
from chronoseg.synth import gen_corpus


def make_series(minutes, start="2004-05-07", subject="s1", label=0):
    y, m, d = (int(p) for p in start.split("-"))
    base = datetime(y, m, d)
    samples = tuple(
        ActivitySample(timestamp=base.replace(hour=0, minute=0) + _dt(mi), activity=5) for mi in minutes
    )
    return LabeledSeries(subject_id=subject, label=label, samples=samples)


def _dt(minutes):
    from datetime import timedelta

    return timedelta(minutes=minutes)


class TestParseSubjectFile:
    def test_single_row(self):
        body = "timestamp,date,activity\n2004-05-07 12:00:00,2004-05-07,143\n"
        series = parse_subject_file(io.StringIO(body))
        assert len(series.samples) == 1
        s = series.samples[0]
        assert s.timestamp == datetime(2004, 5, 7, 12, 0)
        assert s.activity == 143

    def test_empty_body(self):
        series = parse_subject_file(io.StringIO("timestamp,date,activity\n"))
        assert series.samples == ()

    def test_negative_activity_names_line(self):
        body = "timestamp,date,activity\n2004-05-07 12:00:00,2004-05-07,143\n2004-05-07 12:01:00,2004-05-07,-3\n"
        with pytest.raises(DataError, match="line 3"):
            parse_subject_file(io.StringIO(body))

    @pytest.mark.parametrize("raw", ["inf", "-inf", "1e400"])
    def test_non_finite_activity_names_line(self, raw):
        body = f"timestamp,date,activity\n2004-05-07 12:00:00,2004-05-07,143\n2004-05-07 12:01:00,2004-05-07,{raw}\n"
        with pytest.raises(DataError, match=f"line 3: non-finite activity '{raw}'"):
            parse_subject_file(io.StringIO(body))

    def test_malformed_row_names_line(self):
        body = "timestamp,date,activity\nnot-a-time,2004-05-07,1\n"
        with pytest.raises(DataError, match="line 2"):
            parse_subject_file(io.StringIO(body))

    def test_missing_column_is_config_error(self):
        body = "time,value\n2004-05-07 12:00:00,3\n"
        with pytest.raises(ConfigError):
            parse_subject_file(io.StringIO(body))

    def test_custom_column_map(self):
        body = "ts,count\n2004-05-07 12:00:00,9\n"
        series = parse_subject_file(io.StringIO(body), column_map={"timestamp": "ts", "activity": "count"})
        assert series.samples[0].activity == 9

    def test_non_monotonic_rejected(self):
        body = (
            "timestamp,date,activity\n"
            "2004-05-07 12:01:00,2004-05-07,1\n"
            "2004-05-07 12:00:00,2004-05-07,2\n"
        )
        with pytest.raises(DataError, match="non-monotonic"):
            parse_subject_file(io.StringIO(body))

    def test_seconds_truncated_to_minute(self):
        body = "timestamp,date,activity\n2004-05-07 12:00:30,2004-05-07,4\n"
        series = parse_subject_file(io.StringIO(body))
        assert series.samples[0].timestamp.second == 0


class TestSplitIntoDays:
    def test_two_exact_days(self):
        groups = split_into_days(make_series(range(2880)))
        assert [len(g[1]) for g in groups] == [1440, 1440]

    def test_partial_second_day(self):
        groups = split_into_days(make_series(range(1500)))
        assert [len(g[1]) for g in groups] == [1440, 60]

    def test_two_hour_window(self):
        groups = split_into_days(make_series(range(600, 720)))
        assert len(groups) == 1
        assert len(groups[0][1]) == 120


class TestFilterCompleteDays:
    def test_keeps_only_complete(self):
        series = make_series(range(1500))
        kept, discarded = filter_complete_days(series)
        assert len(kept) == 1
        assert discarded == 1
        assert kept[0].values.shape == (MINUTES_PER_DAY,)

    def test_both_days_complete(self):
        kept, discarded = filter_complete_days(make_series(range(2880)))
        assert len(kept) == 2
        assert discarded == 0

    def test_single_missing_minute_discards_day(self):
        minutes = [m for m in range(1440) if m != 777]
        kept, discarded = filter_complete_days(make_series(minutes))
        assert kept == []
        assert discarded == 1

    @given(st.sets(st.integers(min_value=0, max_value=1439), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_random_missing_masks(self, missing):
        minutes = [m for m in range(1440) if m not in missing]
        kept, discarded = filter_complete_days(make_series(minutes))
        if missing:
            assert kept == [] and discarded == 1
        else:
            assert len(kept) == 1 and discarded == 0


class TestLoadCorpus:
    def _write_subject(self, path, n_days, start_day=1):
        lines = ["timestamp,date,activity"]
        for d in range(n_days):
            day = f"2004-05-{start_day + d:02d}"
            for m in range(1440):
                lines.append(f"{day} {m // 60:02d}:{m % 60:02d}:00,{day},{(m * 7) % 40}")
        path.write_text("\n".join(lines) + "\n")

    def test_directory_layout(self, tmp_path):
        (tmp_path / "control").mkdir()
        (tmp_path / "patient").mkdir()
        self._write_subject(tmp_path / "control" / "c1.csv", 3)
        self._write_subject(tmp_path / "control" / "c2.csv", 3)
        self._write_subject(tmp_path / "patient" / "p1.csv", 2)
        corpus = load_corpus(tmp_path)
        assert len(corpus.days) == 8
        assert len(corpus.subjects) == 3
        assert corpus.subjects["p1"][0] == 1
        assert corpus.subjects["c1"][0] == 0

    def test_empty_corpus_is_error(self, tmp_path):
        with pytest.raises(DataError, match="empty corpus"):
            load_corpus(tmp_path)

    def test_subject_without_label_is_error(self, tmp_path):
        self._write_subject(tmp_path / "s1.csv", 1)
        with pytest.raises(ConfigError, match="no label"):
            load_corpus(tmp_path)

    def test_metadata_labels(self, tmp_path):
        self._write_subject(tmp_path / "s1.csv", 1)
        corpus = load_corpus(tmp_path, metadata={"s1": 1})
        assert corpus.subjects["s1"][0] == 1


class TestInterchange:
    def test_round_trip(self, tmp_path):
        corpus = gen_corpus(2, 2, 2, seed=3)
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        back = load_interchange(path)
        assert back.subjects == corpus.subjects
        assert len(back.days) == len(corpus.days)
        for a, b in zip(corpus.days, back.days):
            assert (a.subject_id, a.label, a.date) == (b.subject_id, b.label, b.date)
            np.testing.assert_array_equal(a.values, b.values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        corpus = gen_corpus(1, 1, 1, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_corpus(corpus, p1)
        save_corpus(load_interchange(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestCorpusInvariants:
    def test_label_integrity(self, tiny_corpus):
        for day in tiny_corpus.days:
            assert day.label == tiny_corpus.subjects[day.subject_id][0]

    def test_duplicate_day_rejected(self):
        day = DaySeries("s1", 0, date(2004, 5, 7), np.zeros(1440, dtype=int))
        with pytest.raises(DataError, match="duplicate"):
            Corpus(days=(day, day), subjects={"s1": (0, 2)})

    def test_wrong_length_rejected(self):
        with pytest.raises(DataError):
            DaySeries("s1", 0, date(2004, 5, 7), np.zeros(1439, dtype=int))
