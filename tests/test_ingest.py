import codecs
import io
from datetime import date, datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg import ingest
from chronoseg.errors import ConfigError, DataError
from chronoseg.ingest import (
    MINUTES_PER_DAY,
    Corpus,
    filter_complete_days,
    load_corpus,
    load_interchange,
    parse_subject_file,
    save_corpus,
)
from chronoseg.synth import gen_corpus

from oracles import per_minute_save_corpus, per_row_days, reference_parse_subject_file
from test_fuzz import MUTATIONS as FUZZ_MUTATIONS


def make_series(minutes, start="2004-05-07"):
    base = minute_of(datetime.fromisoformat(start))
    minutes = base + np.asarray(list(minutes), dtype=np.int64)
    return minutes, np.full(minutes.size, 5, dtype=np.int64)


def minute_of(ts):
    """Minutes since 1970-01-01 00:00 of a naive datetime."""
    return (ts - datetime(1970, 1, 1)) // timedelta(minutes=1)


class TestParseSubjectFile:
    def test_single_row(self):
        body = "timestamp,date,activity\n2004-05-07 12:00:00,2004-05-07,143\n"
        minutes, activity = parse_subject_file(io.StringIO(body))
        assert minutes.size == 1
        assert minutes[0] == minute_of(datetime(2004, 5, 7, 12, 0))
        assert activity[0] == 143

    def test_empty_body(self):
        minutes, activity = parse_subject_file(io.StringIO("timestamp,date,activity\n"))
        assert minutes.size == 0 and activity.size == 0

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

    def test_seconds_truncated_to_minute(self):
        body = "timestamp,date,activity\n2004-05-07 12:00:30,2004-05-07,4\n"
        minutes, _ = parse_subject_file(io.StringIO(body))
        assert minutes[0] == minute_of(datetime(2004, 5, 7, 12, 0))

    @pytest.mark.parametrize("body", [
        # a quoted cell that spans two lines: the row after it starts on line 4
        'timestamp,note,activity\n2021-01-04 00:00,"a\nb",1\n2021-01-04 00:01,x,1\n2021-01-04 00:02,x,-5\n',
        # blank lines count too
        "timestamp,note,activity\n\n2021-01-04 00:00,a,1\r\n\r\n2021-01-04 00:02,x,-5\n",
    ], ids=["quoted-line-break", "blank-lines"])
    def test_errors_name_physical_lines(self, body):
        with pytest.raises(DataError, match="^malformed row at line 5: negative activity -5$"):
            parse_subject_file(io.StringIO(body, newline=""))

    def test_bad_row_before_a_csv_error_is_reported_first(self):
        rows = [f"2021-01-04 00:{m:02d},{'-5' if m == 1 else '1' * 140_000 if m == 50 else 7}" for m in range(60)]
        body = "\n".join(["timestamp,activity", *rows]) + "\n"
        with pytest.raises(DataError, match="^malformed row at line 3: negative activity -5$"):
            parse_subject_file(io.StringIO(body))

    @pytest.mark.parametrize("i, cells", [
        # the first chunk's last line: a literal quote in one ignored cell, a quoted cell opened in the next;
        # the line after closes it, and each line holds two quotes
        (ingest.READ_CHUNK_ROWS - 1, ',a"b,"c\ny"q",z'),
        # an ignored cell of 140,000 characters, quoted over lines that are each below the field limit
        (10, ',"' + "\n".join(["a" * 999] * 140) + '",y'),
    ], ids=["open-at-chunk-end", "long-cell-over-lines"])
    def test_quoted_cell_over_lines_reads_as_csv(self, i, cells):
        rows = [f"{datetime(2004, 5, 7) + timedelta(minutes=m):%Y-%m-%d %H:%M},{m % 7},x,y"
                for m in range(ingest.READ_CHUNK_ROWS + 10)]
        rows[i] = rows[i].replace(",x,y", cells)
        text = "\n".join(["timestamp,activity,note,extra", *rows]) + "\n"
        assert _parsed(parse_subject_file, text, "") == _parsed(reference_parse_subject_file, text, "")

    @staticmethod
    def _quirky_recording():
        """Three days of minutes with the quirks of real recordings: stamps
        with seconds on some days and without on others, counts such as
        ``143.0`` and a 30-minute gap; and the (minutes, activity) it holds."""
        start = minute_of(datetime(2004, 5, 7))
        minutes = start + np.delete(np.arange(3 * MINUTES_PER_DAY), np.arange(2000, 2030))
        activity = (minutes * 37) % 301
        lines = ["timestamp,activity"]
        for minute, count in zip(minutes.tolist(), activity.tolist()):
            stamp = datetime(1970, 1, 1) + timedelta(minutes=minute)
            lines.append(f"{stamp:%Y-%m-%d %H:%M}{':00' if stamp.day % 2 else ''},{count}{'.0' if count % 7 else ''}")
        return "\n".join(lines) + "\n", minutes, activity

    @pytest.mark.parametrize("quoted", [False, True], ids=["plain", "every-cell-quoted"])
    def test_quirky_recording_is_read_in_bulk(self, monkeypatch, quoted):
        # such recordings are the common case, and reading them row by row is about ten times slower
        text, minutes, activity = self._quirky_recording()
        if quoted:
            text = "".join(",".join(f'"{cell}"' for cell in line.split(",")) + "\n" for line in text.splitlines())
        assert len(text.splitlines()) > ingest.READ_CHUNK_ROWS + 1

        def per_row(*args):
            raise AssertionError("a row was parsed on its own")

        def csv_split(*args):
            raise AssertionError("a chunk was split by the csv module")

        monkeypatch.setattr(ingest, "_parse_row", per_row)
        monkeypatch.setattr(ingest, "_csv_chunk", csv_split)
        got = parse_subject_file(io.StringIO(text))
        np.testing.assert_array_equal(got[0], minutes)
        np.testing.assert_array_equal(got[1], activity)


class TestFilterCompleteDays:
    def test_keeps_only_complete(self):
        dates, values, discarded = filter_complete_days(*make_series(range(1500)))
        assert len(dates) == 1
        assert discarded == 1
        assert values.shape == (1, MINUTES_PER_DAY)

    def test_both_days_complete(self):
        dates, values, discarded = filter_complete_days(*make_series(range(2880)))
        assert len(dates) == 2 and values.shape == (2, MINUTES_PER_DAY)
        assert discarded == 0

    def test_partial_day_is_discarded(self):
        dates, values, discarded = filter_complete_days(*make_series(range(600, 720)))
        assert dates == [] and values.shape == (0, MINUTES_PER_DAY) and discarded == 1

    def test_single_missing_minute_discards_day(self):
        minutes = [m for m in range(1440) if m != 777]
        dates, _, discarded = filter_complete_days(*make_series(minutes))
        assert dates == []
        assert discarded == 1

    @pytest.mark.parametrize("defect", ["repeat", "swap"])
    def test_misordered_minute_discards_its_day(self, defect):
        # the autumn DST fall-back repeats wall-clock minutes; the days around it are kept
        start = datetime(2004, 5, 7)
        lines = [f"{start + timedelta(minutes=m):%Y-%m-%d %H:%M},{m % 7}" for m in range(3 * 1440)]
        at = 1440 + 120
        if defect == "repeat":
            lines.insert(at + 1, lines[at])
        else:
            lines[at], lines[at + 1] = lines[at + 1], lines[at]
        text = "\n".join(["timestamp,activity", *lines]) + "\n"
        dates, values, discarded = filter_complete_days(*parse_subject_file(io.StringIO(text)))
        assert dates == [date(2004, 5, 7), date(2004, 5, 9)] and discarded == 1
        assert values.tolist() == [[m % 7 for m in range(d * 1440, (d + 1) * 1440)] for d in (0, 2)]
        assert (list(zip(dates, values.tolist())), discarded) == per_row_days(text)

    @given(st.sets(st.integers(min_value=0, max_value=1439), max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_random_missing_masks(self, missing):
        minutes = [m for m in range(1440) if m not in missing]
        dates, _, discarded = filter_complete_days(*make_series(minutes))
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

    def test_recording_with_byte_order_mark(self, tmp_path):
        # Excel's "CSV UTF-8" starts the file with a byte-order mark
        for corpus in ("plain", "bom"):
            (tmp_path / corpus / "patient").mkdir(parents=True)
            self._write_subject(tmp_path / corpus / "patient" / "p1.csv", 2)
        path = tmp_path / "bom" / "patient" / "p1.csv"
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        plain, bom = load_corpus(tmp_path / "plain"), load_corpus(tmp_path / "bom")
        assert bom.subjects == plain.subjects == {"p1": (1, 2)}
        np.testing.assert_array_equal(bom.values, plain.values)

    def test_metadata_with_byte_order_mark(self, tmp_path):
        (tmp_path / "data").mkdir()
        self._write_subject(tmp_path / "data" / "s1.csv", 1)
        (tmp_path / "meta.csv").write_bytes(codecs.BOM_UTF8 + b"subject_id,label\ns1,1\n")
        assert load_corpus(tmp_path / "data", metadata=tmp_path / "meta.csv").subjects == {"s1": (1, 1)}

    def test_empty_corpus_is_error(self, tmp_path):
        with pytest.raises(DataError, match="empty corpus"):
            load_corpus(tmp_path)

    def test_subject_without_label_is_error(self, tmp_path):
        self._write_subject(tmp_path / "s1.csv", 1)
        with pytest.raises(ConfigError, match="no label"):
            load_corpus(tmp_path)

    def test_metadata_labels(self, tmp_path):
        (tmp_path / "data").mkdir()
        self._write_subject(tmp_path / "data" / "s1.csv", 1)
        (tmp_path / "meta.csv").write_text("subject_id,label\ns1,1\n")
        corpus = load_corpus(tmp_path / "data", metadata=tmp_path / "meta.csv")
        assert corpus.subjects["s1"][0] == 1

    def test_metadata_table_inside_flat_root_is_not_a_recording(self, tmp_path, monkeypatch):
        self._write_subject(tmp_path / "s1.csv", 1)
        (tmp_path / "meta.csv").write_text("subject_id,label\ns1,1\n")
        monkeypatch.chdir(tmp_path)  # the same file, named by a relative path
        assert load_corpus(tmp_path, metadata="meta.csv").subjects == {"s1": (1, 1)}

    @pytest.mark.parametrize("content, message", [
        (b"subject_id,label\n\xff\xfe,1\n", "is not UTF-8 text"),
        (b"subject_id,label\ns1," + b"1" * 200_000 + b"\n", "malformed line 2: field larger than field limit"),
        (b"subject_id,label\ns1,1\ns2,0\ns1,0\n", r"meta\.csv: subject 's1' listed again on line 4"),
    ], ids=["not_utf8", "oversized_field", "repeated_subject"])
    def test_unreadable_metadata_is_config_error(self, tmp_path, content, message):
        self._write_subject(tmp_path / "s1.csv", 1)
        (tmp_path.parent / "meta.csv").write_bytes(content)
        with pytest.raises(ConfigError, match=message):
            load_corpus(tmp_path, metadata=tmp_path.parent / "meta.csv")

    def test_subject_in_both_class_directories_is_data_error(self, tmp_path):
        for sub in ("patient", "control"):
            (tmp_path / sub).mkdir()
            self._write_subject(tmp_path / sub / "s1.csv", 1)
        with pytest.raises(DataError) as both:
            load_corpus(tmp_path)
        assert str(both.value) == (f"subject s1 has two recordings: {tmp_path / 'patient' / 's1.csv'} "
                                   f"and {tmp_path / 'control' / 's1.csv'}")

    def _classes_and_table(self, tmp_path, rows):
        """Class directories holding c1, c2 (controls) and p1, and a metadata table of ``rows``."""
        for sub, name in (("control", "c1"), ("control", "c2"), ("patient", "p1")):
            (tmp_path / "data" / sub).mkdir(parents=True, exist_ok=True)
            self._write_subject(tmp_path / "data" / sub / f"{name}.csv", 1)
        (tmp_path / "meta.csv").write_text("subject_id,label\n" + rows)
        return tmp_path / "data", tmp_path / "meta.csv"

    @pytest.mark.parametrize("rows", ["c1,0\nc2,0\np1,1\n", "c2,0\nabsent,1\n"],
                             ids=["agrees", "lists_absent_subjects"])
    def test_metadata_agreeing_with_class_directories_loads(self, tmp_path, rows):
        corpus = load_corpus(*self._classes_and_table(tmp_path, rows))
        assert corpus.subjects == {"c1": (0, 1), "c2": (0, 1), "p1": (1, 1)}

    def test_metadata_contradicting_a_class_directory_is_config_error(self, tmp_path):
        root, table = self._classes_and_table(tmp_path, "c2,1\n")
        with pytest.raises(ConfigError) as contradicts:
            load_corpus(root, metadata=table)
        assert str(contradicts.value) == (f"metadata file {table}: subject 'c2' has label 1, "
                                          f"but its recording is {root / 'control' / 'c2.csv'}")

    @pytest.mark.parametrize("row", ["s1,patient", "s1,2", "s1,", "s1"])
    def test_metadata_label_must_be_binary(self, tmp_path, row):
        (tmp_path / "data").mkdir()
        self._write_subject(tmp_path / "data" / "s1.csv", 1)
        (tmp_path / "meta.csv").write_text(f"subject_id,label\n{row}\n")
        with pytest.raises(ConfigError, match=r"metadata file .*meta\.csv: subject 's1' has label"):
            load_corpus(tmp_path / "data", metadata=tmp_path / "meta.csv")


@st.composite
def corpora(draw):
    """A small corpus whose ids hold commas and quotes."""
    ids = draw(st.lists(st.text(alphabet="ab,\"' ", max_size=4), min_size=1, max_size=3, unique=True))
    keys = [(subject_id, date(2004, 5, 7) + timedelta(days=d), label) for subject_id in ids
            for label in [draw(st.integers(0, 1))] for d in range(draw(st.integers(1, 2)))]
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # counts of every magnitude up to 2**63 - 1
    values = rng.integers(0, 2**63 - 1, size=(len(keys), MINUTES_PER_DAY)) >> rng.integers(0, 63, size=(len(keys), 1))
    return Corpus(values, *(list(column) for column in zip(*keys)))


class TestInterchange:
    @given(corpus=corpora(), data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_round_trip_of_shuffled_days(self, tmp_path_factory, corpus, data):
        path = tmp_path_factory.mktemp("interchange") / "corpus.csv"
        save_corpus(corpus, path)
        # the day blocks in a drawn order, with blank lines drawn among them
        header, *rows = path.read_text(encoding="utf-8").splitlines()
        order = data.draw(st.permutations(range(len(corpus.dates))))
        lines = [header, *(row for i in order for row in rows[i * MINUTES_PER_DAY:(i + 1) * MINUTES_PER_DAY])]
        for at in sorted(data.draw(st.lists(st.integers(1, len(lines)), max_size=5)), reverse=True):
            lines.insert(at, "")
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        back = load_interchange(path)
        assert (back.subject_ids, back.dates, back.subjects) == (corpus.subject_ids, corpus.dates, corpus.subjects)
        np.testing.assert_array_equal(back.labels, corpus.labels)
        np.testing.assert_array_equal(back.values, corpus.values)

    def test_round_trip(self, tmp_path):
        corpus = gen_corpus(2, 2, 2, seed=3)
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        back = load_interchange(path)
        assert back.subjects == corpus.subjects
        assert (back.subject_ids, back.dates) == (corpus.subject_ids, corpus.dates)
        np.testing.assert_array_equal(back.labels, corpus.labels)
        np.testing.assert_array_equal(back.values, corpus.values)

    def test_byte_order_mark_skipped(self, tmp_path):
        corpus = gen_corpus(2, 2, 2, seed=3)
        path = tmp_path / "corpus.csv"
        save_corpus(corpus, path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        back = load_interchange(path)
        assert (back.subject_ids, back.dates, back.subjects) == (corpus.subject_ids, corpus.dates, corpus.subjects)
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
        # blank lines are skipped but count towards line numbers, as in the file
        path = self._two_days(tmp_path, {at: "s1,1,2004-05-08,five,3"}, blank_every)
        line = at + 2 + (at // blank_every if blank_every else 0)
        with pytest.raises(DataError, match=f"malformed row at line {line}: invalid literal"):
            load_interchange(path)

    @pytest.mark.parametrize("cell", ["20040508", "2004-W19-6"])
    @pytest.mark.parametrize("at", [1440, 2000])
    def test_non_canonical_date_names_line(self, tmp_path, at, cell):
        # a day's first row (1440) and a later row (2000); Python 3.11's
        # date.fromisoformat reads these forms, 3.10's does not
        path = self._two_days(tmp_path, {at: f"s1,1,{cell},{at % 1440},0"})
        with pytest.raises(DataError, match=f"malformed row at line {at + 2}: .*'{cell}'"):
            load_interchange(path)

    def test_duplicate_and_out_of_range_minutes(self, tmp_path):
        # row 2000 of the file holds minute 560 of the second day
        expected = "malformed row at line 2002: expected minute 560 of s1/2004-05-08 with label 1, got minute"
        with pytest.raises(DataError, match=f"{expected} 5 of s1/2004-05-08 with label 1$"):
            load_interchange(self._two_days(tmp_path, {2000: "s1,1,2004-05-08,5,0"}))
        with pytest.raises(DataError, match=f"{expected} 1440 of s1/2004-05-08 with label 1$"):
            load_interchange(self._two_days(tmp_path, {2000: "s1,1,2004-05-08,1440,0"}))
        with pytest.raises(DataError, match=f"{expected} 560 of s1/2004-05-09 with label 1$"):
            load_interchange(self._two_days(tmp_path, {2000: "s1,1,2004-05-09,560,0"}))
        with pytest.raises(DataError, match=f"{expected} 560 of s1/2004-05-08 with label 0$"):
            load_interchange(self._two_days(tmp_path, {2000: "s1,0,2004-05-08,560,0"}))
        path = self._two_days(tmp_path)
        path.write_text(path.read_text().removesuffix("s1,1,2004-05-08,1439,8\n"))
        with pytest.raises(DataError, match="incomplete day s1/2004-05-08: "
                                            "the file ends after its minute 1438, on line 2880"):
            load_interchange(path)

    @pytest.mark.parametrize("defect, line, minute, got", [
        ("reversed", 1442, 0, 1439), ("swapped", 2002, 560, 561), ("missing", 2002, 560, 561),
        ("repeated", 2003, 561, 560),
    ])
    def test_misplaced_row_names_first_bad_line(self, tmp_path, defect, line, minute, got):
        header, *rows = self._two_days(tmp_path).read_text().splitlines()
        day = rows[1440:]
        if defect == "reversed":
            day.reverse()
        elif defect == "swapped":
            day[560], day[561] = day[561], day[560]
        elif defect == "missing":
            del day[560]
        else:
            day.insert(561, day[560])
        path = tmp_path / "corpus.csv"
        path.write_text("\n".join([header, *rows[:1440], *day]) + "\n")
        with pytest.raises(DataError, match=f"malformed row at line {line}: expected minute {minute} of "
                                            f"s1/2004-05-08 with label 1, got minute {got} of s1/2004-05-08"):
            load_interchange(path)

    def test_row_errors_name_the_file(self, tmp_path):
        path = self._two_days(tmp_path, {2000: "s1,1,2004-05-08,5,0"})
        with pytest.raises(DataError) as bad_row:
            load_interchange(path)
        path = self._two_days(tmp_path)
        path.write_text(path.read_text().removesuffix("s1,1,2004-05-08,1439,8\n"))
        with pytest.raises(DataError) as short_day:
            load_interchange(path)
        assert str(bad_row.value).startswith(f"interchange file {path}: malformed row at line 2002: ")
        assert str(short_day.value).startswith(f"interchange file {path}: incomplete day s1/2004-05-08: ")

    @pytest.mark.parametrize("at", [3, 2000])
    def test_negative_count_names_line(self, tmp_path, at):
        # -1 marks a missing minute while a file is read, so -3 must not be stored
        path = self._two_days(tmp_path, {at: f"s1,1,2004-05-0{7 + at // 1440},{at % 1440},-3"})
        with pytest.raises(DataError, match=f"malformed row at line {at + 2}: negative activity -3"):
            load_interchange(path)

    def test_count_beyond_int64_names_line(self, tmp_path):
        path = self._two_days(tmp_path, {2000: f"s1,1,2004-05-08,560,{2**63}"})
        with pytest.raises(DataError, match=f"malformed row at line 2002: activity {2**63} out of range"):
            load_interchange(path)
        load_interchange(self._two_days(tmp_path, {2000: f"s1,1,2004-05-08,560,{2**63 - 1}"}))

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

    def test_errors_name_physical_lines(self, tmp_path):
        # a subject id holding a line break, which save_corpus quotes: each row takes two lines
        rows = [f'"a\nb",1,2004-05-07,{m},{-1 if m == 3 else 5}' for m in range(MINUTES_PER_DAY)]
        path = tmp_path / "corpus.csv"
        path.write_text("\n".join(["subject_id,label,date,minute,activity", *rows]) + "\n")
        with pytest.raises(DataError, match="malformed row at line 8: negative activity -1$"):
            load_interchange(path)

    def test_blank_lines_and_unsorted_days_load(self, tmp_path):
        path = self._two_days(tmp_path)
        lines = path.read_text().splitlines()
        # the second day first, blank lines inside and between the days
        days = [lines[1441:], lines[1:1441]]
        path.write_text("\n".join([lines[0], *days[0][:500], "", *days[0][500:], "", "", *days[1], ""]) + "\n")
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
            dates, values, discarded = filter_complete_days(*parse_subject_file(io.StringIO(text)))
            return list(zip(dates, values.tolist())), discarded

        assert _outcome(columnar) == _outcome(lambda: per_row_days(text))

    def test_extra_columns(self):
        day = [f"2004-05-07 {m // 60:02d}:{m % 60:02d},2004-05-07,{m % 7},{1 - m % 2}" for m in range(1440)]
        text = "\n".join(["timestamp,date,activity,group", *day, "2004-05-08 00:00,2004-05-08,3,0"]) + "\n"
        dates, values, discarded = filter_complete_days(*parse_subject_file(io.StringIO(text)))
        assert (list(zip(dates, values.tolist())), discarded) == per_row_days(text)
        assert len(dates) == 1 and discarded == 1


# -- the np.loadtxt parser against the row-chunked csv parser -----------------

LAYOUTS = {  # header, then where the timestamp, activity and an ignored cell go
    "timestamp,activity": (0, 1, None),
    "timestamp,date,activity": (0, 2, 1),
    "activity,note,timestamp": (2, 0, 1),
}

# what an edit does to one row's stamp, count or ignored cell
CELL_EDITS = {
    "stamp": {
        "quoted": lambda cell: f'"{cell}"',
        "spaced": lambda cell: f" {cell} ",
        "minutes": lambda cell: cell[:16],
        "long": lambda cell: cell[:16] + ":00.5",
        "seconds": lambda cell: cell[:16] + ":59",
        "text_after_quote": lambda cell: f'"{cell}"x',
        "unpadded": lambda cell: cell.replace("-0", "-").replace(" 0", " "),
        "t_separator": lambda cell: cell.replace(" ", "T"),
        "non_ascii_digit": lambda cell: cell.replace("0", "\u0660", 1),
        "byte_order_mark": lambda cell: "\ufeff" + cell,
        "latin1": lambda cell: cell[:15] + "\xe9",
    },
    "count": {
        "quoted": lambda cell: f'"{cell}"',
        "spaced": lambda cell: f" {cell}\t",
        "underscore": lambda cell: "1_000",
        "float": lambda cell: f"{cell}.0",
        "exponent": lambda cell: "1e400",
        "non_ascii_digit": lambda cell: "\u0663",
        "fraction": lambda cell: f"{cell}.5",
        "negative": lambda cell: f"-{cell}",
        "empty": lambda cell: "",
        "oversized": lambda cell: "1" * 140_000,
        "unclosed_quote": lambda cell: f'"{cell}',
    },
    "other": {
        "quoted_comma": lambda cell: '"a,b"',
        "quoted_line_break": lambda cell: '"a\nb"',
        "quoted_crlf": lambda cell: '"a\r\nb"',
        "doubled_quote": lambda cell: '"a""b"',
        "spaced_quote": lambda cell: ' "a"',
        "inner_quote": lambda cell: 'a"b',
        "text_after_quote": lambda cell: '"a"b',
    },
}

CELL_EDIT_NAMES = [(cell, edit) for cell in sorted(CELL_EDITS) for edit in sorted(CELL_EDITS[cell])]

# what an edit does to a whole line
LINE_EDITS = {
    **{f"fuzz_{kind}": mutate for kind, mutate in FUZZ_MUTATIONS.items()},
    "whitespace_only": lambda line, k: " \t"[: k % 2 + 1],
    "crlf": lambda line, k: line + "\r",
    "bare_cr": lambda line, k: line + "\r" + line,
}


@st.composite
def edited_recordings(draw):
    """Raw recording text of one or three days in either zero-padded stamp
    form, with a few cells or lines edited, some of them at the first chunk's
    edge, and maybe every cell quoted, CRLF line ends, a byte-order mark or
    trailing blank lines."""
    header = draw(st.sampled_from(sorted(LAYOUTS)))
    ts_idx, act_idx, other_idx = LAYOUTS[header]
    start = draw(st.dates(date(1960, 1, 1), date(2040, 12, 31)))
    seconds = draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = []
    for d in range(draw(st.sampled_from([1, 3]))):
        day = (start + timedelta(days=d)).isoformat()
        for m, count in enumerate(rng.poisson(40, MINUTES_PER_DAY).tolist()):
            row = [day, str(count), day]
            row[ts_idx] = f"{day} {m // 60:02d}:{m % 60:02d}" + (":00" if seconds else "")
            row[act_idx] = str(count)
            rows.append(row)
    # any row, or the rows on lines READ_CHUNK_ROWS + 1 and + 2, the last of
    # the first chunk and the first of the second
    edge = [i for i in (ingest.READ_CHUNK_ROWS - 1, ingest.READ_CHUNK_ROWS) if i < len(rows)]
    at = st.one_of(st.integers(0, len(rows) - 1), st.sampled_from(edge or [0]))
    for (cell, edit), i in draw(st.lists(st.tuples(st.sampled_from(CELL_EDIT_NAMES), at), max_size=3)):
        idx = {"stamp": ts_idx, "count": act_idx, "other": other_idx}[cell]
        if idx is not None:
            rows[i][idx] = CELL_EDITS[cell][edit](rows[i][idx])
    if draw(st.booleans()):  # every cell quoted, so whole quoted chunks reach the bulk reader
        header = ",".join(f'"{cell}"' for cell in header.split(","))
        rows = [['"' + cell.replace('"', '""') + '"' for cell in row] for row in rows]
    lines = [",".join(row) for row in rows]
    for kind, i, k in draw(st.lists(st.tuples(st.sampled_from(sorted(LINE_EDITS)), at, st.integers(0, 1000)),
                                    max_size=3)):
        lines[i] = LINE_EDITS[kind](lines[i], k)
    end = "\r\n" if draw(st.booleans()) else "\n"
    text = end.join([header, *lines]) + end + end * draw(st.integers(0, 2))
    return draw(st.sampled_from([""] * 7 + ["\ufeff"])) + text


def _parsed(parse, text, newline):
    try:
        minutes, activity = parse(io.StringIO(text, newline=newline))
    except (DataError, ConfigError) as exc:
        return type(exc).__name__, str(exc)
    return minutes.dtype.str, minutes.tobytes(), activity.dtype.str, activity.tobytes()


class TestAgainstCsvParser:
    @given(edited_recordings(), st.sampled_from(["", "\n"]))
    @settings(max_examples=200, deadline=None)
    def test_same_arrays_or_same_error(self, text, newline):
        assert _parsed(parse_subject_file, text, newline) == _parsed(reference_parse_subject_file, text, newline)
