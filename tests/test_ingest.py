import io
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg.errors import ConfigError, DataError
from chronoseg.ingest import (
    MINUTES_PER_DAY,
    Corpus,
    LabeledSeries,
    filter_complete_days,
    load_corpus,
    load_interchange,
    parse_subject_file,
    save_corpus,
)
from chronoseg.synth import gen_corpus

from oracles import per_minute_save_corpus, per_row_days


def make_series(minutes, start="2004-05-07", subject="s1", label=0):
    base = minute_of(datetime.fromisoformat(start))
    minutes = base + np.asarray(list(minutes), dtype=np.int64)
    return LabeledSeries(subject_id=subject, label=label, minutes=minutes, activity=np.full(minutes.size, 5))


def minute_of(ts):
    """Minutes since 1970-01-01 00:00 of a naive datetime."""
    return (ts - datetime(1970, 1, 1)) // timedelta(minutes=1)


class TestParseSubjectFile:
    def test_single_row(self):
        body = "timestamp,date,activity\n2004-05-07 12:00:00,2004-05-07,143\n"
        series = parse_subject_file(io.StringIO(body))
        assert series.minutes.size == 1
        assert series.minutes[0] == minute_of(datetime(2004, 5, 7, 12, 0))
        assert series.activity[0] == 143

    def test_empty_body(self):
        series = parse_subject_file(io.StringIO("timestamp,date,activity\n"))
        assert series.minutes.size == 0 and series.activity.size == 0

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
        assert series.activity[0] == 9

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
        assert series.minutes[0] == minute_of(datetime(2004, 5, 7, 12, 0))


class TestFilterCompleteDays:
    def test_keeps_only_complete(self):
        series = make_series(range(1500))
        dates, values, discarded = filter_complete_days(series)
        assert len(dates) == 1
        assert discarded == 1
        assert values.shape == (1, MINUTES_PER_DAY)

    def test_both_days_complete(self):
        dates, values, discarded = filter_complete_days(make_series(range(2880)))
        assert len(dates) == 2 and values.shape == (2, MINUTES_PER_DAY)
        assert discarded == 0

    def test_partial_day_is_discarded(self):
        dates, values, discarded = filter_complete_days(make_series(range(600, 720)))
        assert dates == [] and values.shape == (0, MINUTES_PER_DAY) and discarded == 1

    def test_single_missing_minute_discards_day(self):
        minutes = [m for m in range(1440) if m != 777]
        dates, _, discarded = filter_complete_days(make_series(minutes))
        assert dates == []
        assert discarded == 1

    @given(st.sets(st.integers(min_value=0, max_value=1439), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_random_missing_masks(self, missing):
        minutes = [m for m in range(1440) if m not in missing]
        dates, _, discarded = filter_complete_days(make_series(minutes))
        if missing:
            assert dates == [] and discarded == 1
        else:
            assert len(dates) == 1 and discarded == 0


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
        assert corpus.values.shape == (8, MINUTES_PER_DAY)
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

    @pytest.mark.parametrize("content, message", [
        (b"subject_id,label\n\xff\xfe,1\n", "is not UTF-8 text"),
        (b"subject_id,label\ns1," + b"1" * 200_000 + b"\n", "malformed line 2: field larger than field limit"),
    ], ids=["not_utf8", "oversized_field"])
    def test_unreadable_metadata_is_config_error(self, tmp_path, content, message):
        self._write_subject(tmp_path / "s1.csv", 1)
        (tmp_path.parent / "meta.csv").write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            load_corpus(tmp_path, metadata=tmp_path.parent / "meta.csv")

    @pytest.mark.parametrize("row", ["s1,patient", "s1,2", "s1,", "s1"])
    def test_metadata_label_must_be_binary(self, tmp_path, row):
        (tmp_path / "data").mkdir()
        self._write_subject(tmp_path / "data" / "s1.csv", 1)
        (tmp_path / "meta.csv").write_text(f"subject_id,label\n{row}\n")
        with pytest.raises(ConfigError, match=r"metadata file .*meta\.csv: subject 's1' has label"):
            load_corpus(tmp_path / "data", metadata=tmp_path / "meta.csv")


class TestInterchange:
    def test_round_trip(self, tmp_path):
        corpus = gen_corpus(2, 2, 2, seed=3)
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        back = load_interchange(path)
        assert back.subjects == corpus.subjects
        assert (back.subject_ids, back.dates) == (corpus.subject_ids, corpus.dates)
        np.testing.assert_array_equal(back.labels, corpus.labels)
        np.testing.assert_array_equal(back.values, corpus.values)

    def test_rewrite_is_byte_identical(self, tmp_path):
        corpus = gen_corpus(1, 1, 1, seed=9)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_corpus(corpus, p1)
        save_corpus(load_interchange(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @staticmethod
    def _two_days(tmp_path, replace=None, blank_every=None):
        """Interchange text of one subject's two days, rows sorted; row i (0-based
        among data rows) replaced by ``replace[i]``, a blank line after every
        ``blank_every`` rows."""
        rows = [f"s1,1,2004-05-0{7 + m // 1440},{m % 1440},{m % 9}" for m in range(2880)]
        for i, row in (replace or {}).items():
            rows[i] = row
        lines = ["subject_id,label,date,minute,activity"]
        for i, row in enumerate(rows):
            lines.append(row)
            if blank_every and i % blank_every == blank_every - 1:
                lines.append("")
        path = tmp_path / "corpus.csv"
        path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("blank_every", [None, 700])
    @pytest.mark.parametrize("at", [3, 2000])
    def test_malformed_row_names_line_across_chunks(self, tmp_path, at, blank_every):
        # blank lines are skipped and do not count towards line numbers
        path = self._two_days(tmp_path, {at: "s1,1,2004-05-08,five,3"}, blank_every)
        with pytest.raises(DataError, match=f"malformed row at line {at + 2}: invalid literal"):
            load_interchange(path)

    def test_duplicate_and_out_of_range_minutes(self, tmp_path):
        with pytest.raises(DataError, match="duplicate minute 5 for s1 on 2004-05-08"):
            load_interchange(self._two_days(tmp_path, {2000: "s1,1,2004-05-08,5,0"}))
        with pytest.raises(DataError, match="minute 1440 out of range at line 2002"):
            load_interchange(self._two_days(tmp_path, {2000: "s1,1,2004-05-08,1440,0"}))
        with pytest.raises(DataError, match="incomplete day s1/2004-05-08"):
            load_interchange(self._two_days(tmp_path, {2000: "s1,1,2004-05-09,560,0"}))

    @pytest.mark.parametrize("at", [3, 2000])
    def test_negative_count_names_line(self, tmp_path, at):
        # -1 marks a missing minute while a file is read, so -3 must not be stored
        path = self._two_days(tmp_path, {at: f"s1,1,2004-05-0{7 + at // 1440},{at % 1440},-3"})
        with pytest.raises(DataError, match=f"malformed row at line {at + 2}: negative activity -3"):
            load_interchange(path)

    def test_duplicate_after_negative_count(self, tmp_path):
        path = self._two_days(tmp_path, {5: "s1,1,2004-05-07,5,-3"})
        path.write_text(path.read_text() + "s1,1,2004-05-07,5,4\n")
        with pytest.raises(DataError, match="malformed row at line 7: negative activity -3"):
            load_interchange(path)

    def test_writer_matches_per_minute_writer(self, tmp_path):
        # csv quotes an id holding a comma and a quote; rows are written sorted
        values = np.arange(3 * 1440).reshape(3, 1440) % 50
        corpus = Corpus(values, ['a,"b', 'a,"b', "c"], [date(2004, 5, 8), date(2004, 5, 7), date(2004, 5, 7)],
                        [1, 1, 0])
        save_corpus(corpus, tmp_path / "bulk.csv")
        per_minute_save_corpus(corpus, tmp_path / "per_minute.csv")
        assert (tmp_path / "bulk.csv").read_bytes() == (tmp_path / "per_minute.csv").read_bytes()
        back = load_interchange(tmp_path / "bulk.csv")
        assert (back.subject_ids, back.dates, back.subjects) == (corpus.subject_ids, corpus.dates, corpus.subjects)
        np.testing.assert_array_equal(back.values, corpus.values)

    def test_blank_lines_and_unsorted_days_load(self, tmp_path):
        path = self._two_days(tmp_path, blank_every=500)
        lines = path.read_text().splitlines()
        path.write_text("\n".join([lines[0], *reversed(lines[1:])]) + "\n")
        corpus = load_interchange(path)
        assert corpus.dates == (date(2004, 5, 7), date(2004, 5, 8))
        assert corpus.values[1].tolist() == [m % 9 for m in range(1440, 2880)]


class TestCorpusInvariants:
    def test_label_integrity(self, tiny_corpus):
        for subject_id, label in zip(tiny_corpus.subject_ids, tiny_corpus.labels.tolist()):
            assert label == tiny_corpus.subjects[subject_id][0]

    def test_duplicate_day_rejected(self):
        day = date(2004, 5, 7)
        with pytest.raises(DataError, match="duplicate"):
            Corpus(np.zeros((2, 1440), dtype=int), ["s1", "s1"], [day, day], [0, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(DataError):
            Corpus(np.zeros((1, 1439), dtype=int), ["s1"], [date(2004, 5, 7)], [0])

    def test_rows_sorted_and_read_only(self):
        values = np.arange(3 * 1440).reshape(3, 1440)
        corpus = Corpus(values, ["s2", "s1", "s1"], [date(2004, 5, 7), date(2004, 5, 9), date(2004, 5, 8)], [1, 0, 0])
        assert corpus.subject_ids == ("s1", "s1", "s2")
        assert corpus.dates == (date(2004, 5, 8), date(2004, 5, 9), date(2004, 5, 7))
        assert corpus.labels.tolist() == [0, 0, 1]
        assert corpus.values[:, 0].tolist() == [2880, 1440, 0]
        assert corpus.subjects == {"s1": (0, 2), "s2": (1, 1)}
        with pytest.raises(ValueError):
            corpus.values[0, 0] = 1

    # the interchange reader names the line of a bad row: the second day's
    # rows start at line 1442, in the second 1024-row chunk
    @pytest.mark.parametrize("labels, cells, message, interchange_message", [
        ([0, 2], {}, "label must be 0 or 1, got 2", "malformed row at line 1442: label must be 0 or 1, got 2"),
        ([1, 0], {}, "label mismatch for subject s1", "label mismatch for subject s1"),
        ([0, 0], {(1, 7): -1}, "negative activity in day s1/2004-05-08",
         "malformed row at line 1449: negative activity -1"),
    ])
    def test_bad_rows_rejected(self, tmp_path, labels, cells, message, interchange_message):
        values = np.zeros((2, 1440), dtype=int)
        for cell, value in cells.items():
            values[cell] = value
        days = [date(2004, 5, 7), date(2004, 5, 8)]
        with pytest.raises(DataError, match=message):
            Corpus(values, ["s1", "s1"], days, labels)
        path = tmp_path / "corpus.csv"
        path.write_text("subject_id,label,date,minute,activity\n" + "".join(
            f"s1,{label},{day.isoformat()},{m},{row[m]}\n" for label, day, row in zip(labels, days, values)
            for m in range(1440)))
        with pytest.raises(DataError, match=interchange_message):
            load_interchange(path)


# -- the columnar parser against the per-row parser ---------------------------

STAMP_FORMS = {
    "seconds": lambda t: t.strftime("%Y-%m-%d %H:%M:%S"),
    "minutes": lambda t: t.strftime("%Y-%m-%d %H:%M"),
    "odd_seconds": lambda t: t.strftime("%Y-%m-%d %H:%M:37"),
    "unpadded": lambda t: f"{t.year}-{t.month}-{t.day} {t.hour}:{t.minute}",
    "spaced": lambda t: t.strftime(" %Y-%m-%d %H:%M:37 "),
}

# what a mutation does to one row's (stamp, count) cells, or to the row
MUTATIONS = {
    "blank": lambda stamp, count: "",
    "spaces": lambda stamp, count: "  ,  ",
    "float": lambda stamp, count: f"{stamp},{count}.0",
    "exponent": lambda stamp, count: f"{stamp},{count}e0",
    "fraction": lambda stamp, count: f"{stamp},{count}.5",
    "negative": lambda stamp, count: f"{stamp},-{count}",
    "nan": lambda stamp, count: f"{stamp},nan",
    "inf": lambda stamp, count: f"{stamp},inf",
    "word": lambda stamp, count: f"{stamp},many",
    "no_count": lambda stamp, count: stamp,
    "extra_cell": lambda stamp, count: f"{stamp},{count},x",
    "bad_stamp": lambda stamp, count: f"{stamp.replace(' ', 'T')},{count}",
    "feb_30": lambda stamp, count: f"2021-02-30 00:00,{count}",
    "hour_24": lambda stamp, count: f"{stamp[:10]} 24:00,{count}",
    "second_60": lambda stamp, count: f"{stamp.strip()[:16]}:60,{count}",
}


@st.composite
def recordings(draw):
    """Raw recording text: up to three days, each complete or with a gap, each
    in one stamp form, with counts from a seeded generator, then a few
    mutated rows, repeated or swapped stamps and blank lines."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    start = datetime.combine(draw(st.dates(date(1960, 1, 1), date(2040, 12, 31))), datetime.min.time())
    rows = []
    for d in range(draw(st.integers(1, 3))):
        form = STAMP_FORMS[draw(st.sampled_from(sorted(STAMP_FORMS)))]
        minutes = np.arange(MINUTES_PER_DAY)
        if draw(st.booleans()):
            gap = draw(st.integers(0, MINUTES_PER_DAY - 1))
            minutes = np.delete(minutes, np.s_[gap:gap + draw(st.integers(1, 30))])
        for m, count in zip(minutes.tolist(), rng.poisson(40, minutes.size).tolist()):
            rows.append((form(start + timedelta(days=d, minutes=m)), str(count)))
    lines = [f"{stamp},{count}" for stamp, count in rows]
    for kind, at in draw(st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS) + ["repeat", "swap"]),
                                            st.integers(0, len(rows) - 1)), max_size=3)):
        if kind == "repeat":
            lines.insert(at, lines[at])
        elif kind == "swap" and at + 1 < len(lines):
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        elif kind in MUTATIONS:
            lines[at] = MUTATIONS[kind](*rows[at])
    return "\n".join(["timestamp,activity", *lines]) + "\n"


def _outcome(run):
    try:
        return run()
    except (DataError, ConfigError) as exc:
        return type(exc).__name__, str(exc)


class TestAgainstPerRowParser:
    @given(recordings())
    @settings(max_examples=60, deadline=None)
    def test_same_days_or_same_error(self, text):
        def columnar():
            series = parse_subject_file(io.StringIO(text))
            dates, values, discarded = filter_complete_days(series)
            return series.label, list(zip(dates, values.tolist())), discarded

        assert _outcome(columnar) == _outcome(lambda: per_row_days(text))

    def test_label_column_and_extra_columns(self):
        day = [f"2004-05-07 {m // 60:02d}:{m % 60:02d},2004-05-07,{m % 7},{1 - m % 2}" for m in range(1440)]
        text = "\n".join(["timestamp,date,activity,group", *day, "2004-05-08 00:00,2004-05-08,3,0"]) + "\n"
        columns = {"label": "group"}
        series = parse_subject_file(io.StringIO(text), column_map=columns, label=1)
        dates, values, discarded = filter_complete_days(series)
        assert (series.label, list(zip(dates, values.tolist())), discarded) == per_row_days(
            text, column_map=columns, label=1)
        assert series.label == 0 and len(dates) == 1 and discarded == 1
