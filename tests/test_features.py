import codecs
import csv
import io
import math
from datetime import date, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg.errors import DataError
from chronoseg.features import (
    FEATURE_CHUNK_ROWS,
    FEATURE_NAMES,
    FeatureTable,
    block_features,
    extract_features,
    featurize_corpus,
    read_feature_table,
    write_feature_table,
)
from chronoseg.ingest import Corpus
from chronoseg.segmentation import PRESET_NAMES, SegmentationScheme, builtin_scheme, resolve_scheme, segment_day

from oracles import naive_features

int_vectors = st.lists(st.integers(min_value=0, max_value=5000), min_size=2, max_size=200)
zero_heavy = st.lists(
    st.one_of(st.just(0), st.integers(min_value=0, max_value=50)), min_size=2, max_size=200
)


def assert_close(name, got, want):
    assert math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-9), f"{name}: {got} != {want}"


def test_feature_set_is_sixteen():
    assert len(FEATURE_NAMES) == 16
    assert len(set(FEATURE_NAMES)) == 16
    assert "min" not in FEATURE_NAMES  # minimum is discarded by design


def test_hand_computed_example():
    f = extract_features(np.array([0, 2, 4]))
    assert_close("mean", f["mean"], 2.0)
    assert_close("prop_zeros", f["prop_zeros"], 1 / 3)
    assert_close("std_dev", f["std_dev"], math.sqrt(8 / 3))
    assert_close("semivariance", f["semivariance"], 4 / 3)
    assert_close("rms", f["rms"], math.sqrt(20 / 3))


def test_autocorr_and_iqr_example():
    f = extract_features(np.array([1, 2, 3, 4]))
    assert_close("autocorr_lag1", f["autocorr_lag1"], 0.25)
    assert_close("iqr", f["iqr"], 3.25 - 1.75)


def test_peak_trough_example():
    f = extract_features(np.array([0, 1, 0, 2, 0]))
    assert f["n_peaks"] == 2
    assert f["n_troughs"] == 1


def test_constant_vector_degeneracies():
    f = extract_features(np.full(100, 5))
    for name in ("skewness", "kurtosis", "cv", "entropy", "autocorr_lag1", "n_peaks", "iqr", "mad"):
        assert f[name] == 0.0, name


def test_empty_vector_rejected():
    with pytest.raises(DataError):
        extract_features(np.array([]))


@given(int_vectors)
@settings(max_examples=200, deadline=None)
def test_matches_naive_oracle(values):
    got = extract_features(np.array(values))
    want = naive_features(values)
    for name in FEATURE_NAMES:
        assert math.isclose(got[name], want[name], rel_tol=1e-9, abs_tol=1e-9), name


@given(zero_heavy)
@settings(max_examples=100, deadline=None)
def test_matches_naive_oracle_zero_heavy(values):
    got = extract_features(np.array(values))
    want = naive_features(values)
    for name in FEATURE_NAMES:
        assert math.isclose(got[name], want[name], rel_tol=1e-9, abs_tol=1e-9), name


@given(int_vectors, st.integers(min_value=1, max_value=500))
@settings(max_examples=100, deadline=None)
def test_shift_equivariance_of_location(values, shift):
    base = extract_features(np.array(values))
    shifted = extract_features(np.array(values) + shift)
    assert math.isclose(shifted["mean"], base["mean"] + shift, rel_tol=1e-9, abs_tol=1e-9)
    assert math.isclose(shifted["median"], base["median"] + shift, rel_tol=1e-9, abs_tol=1e-9)


@given(int_vectors, st.integers(min_value=2, max_value=20))
@settings(max_examples=100, deadline=None)
def test_scale_invariants(values, factor):
    base = extract_features(np.array(values))
    scaled = extract_features(np.array(values) * factor)
    for name in ("prop_zeros", "n_peaks", "n_troughs", "autocorr_lag1", "skewness", "kurtosis", "cv"):
        assert math.isclose(scaled[name], base[name], rel_tol=1e-9, abs_tol=1e-9), name


@given(int_vectors)
@settings(max_examples=100, deadline=None)
def test_entropy_bounds(values):
    f = extract_features(np.array(values))
    distinct = len(set(values))
    upper = math.log(min(16, distinct)) if distinct > 1 else 0.0
    assert -1e-12 <= f["entropy"] <= upper + 1e-12


@given(int_vectors)
@settings(max_examples=100, deadline=None)
def test_all_values_finite_and_signed_correctly(values):
    f = extract_features(np.array(values))
    assert all(math.isfinite(v) for v in f.values())
    assert 0 <= f["prop_zeros"] <= 1
    assert -1 <= f["autocorr_lag1"] <= 1 + 1e-12
    for name in ("std_dev", "mad", "iqr", "semivariance", "rms", "entropy", "n_peaks", "n_troughs"):
        assert f[name] >= 0, name


# segments of three lengths (360, 240, 360, 480 minutes), the second 360 of
# two windows, so one length's columns are not adjacent
THREE_LENGTHS = """\
name: three_lengths
segments:
  - {name: early, windows: ["00:00-06:00"]}
  - {name: morning, windows: ["08:00-12:00"]}
  - {name: edges, windows: ["20:00-24:00", "06:00-08:00"]}
  - {name: late, windows: ["12:00-20:00"]}
"""


@pytest.fixture(scope="module")
def uneven_corpus():
    """Twelve subjects, one with 1 day, nine with 2, one with 3 and one with
    17: per-subject records of four lengths, a run of 2-day records whose 18
    days cross a block of FEATURE_CHUNK_ROWS days, and 39 days in all."""
    rng = np.random.default_rng(5)
    subject_ids, dates, labels, rows = [], [], [], []
    for i, n_days in enumerate((1, *[2] * 9, 3, 17)):
        for d in range(n_days):
            subject_ids.append(f"s{i:02d}")
            dates.append(date(2021, 3, 1) + timedelta(days=d))
            labels.append(i % 2)
            rows.append(rng.poisson(rng.uniform(0, 300), 1440) * (rng.random(1440) < rng.uniform(0.2, 1)))
    return Corpus(np.array(rows), subject_ids, dates, labels)


def per_segment_table(corpus, scheme):
    """block_features once per segment over all days, or, for a per-subject
    scheme, once per segment of each subject, over its minutes of each day."""
    if scheme.per_subject:
        ids = np.array(corpus.subject_ids)
        return np.array([np.concatenate([block_features(corpus.values[ids == s][:, minutes].reshape(1, -1))[0]
                                         for minutes in scheme.minutes]) for s in corpus.subjects])
    return np.hstack([block_features(corpus.values[:, minutes]) for minutes in scheme.minutes])


@pytest.mark.parametrize("name", [*PRESET_NAMES, "three_lengths", "parts2_subject"])
def test_length_blocks_match_per_segment_blocks(uneven_corpus, name, tmp_path):
    assert len(uneven_corpus.dates) > FEATURE_CHUNK_ROWS
    if name == "three_lengths":
        (tmp_path / "three.yaml").write_text(THREE_LENGTHS)
        scheme = resolve_scheme(str(tmp_path / "three.yaml"))
    elif name == "parts2_subject":
        scheme = SegmentationScheme(name, builtin_scheme("parts2").segments, per_subject=True)
    else:
        scheme = resolve_scheme(name)
    table = featurize_corpus(uneven_corpus, scheme)
    want = per_segment_table(uneven_corpus, scheme)
    assert table.X.shape == want.shape
    assert table.X.tobytes() == want.tobytes()


class TestFeaturizeCorpus:
    def test_parts2_dimensions(self, tiny_corpus):
        table = featurize_corpus(tiny_corpus, builtin_scheme("parts2"))
        assert table.X.shape == (len(tiny_corpus.dates), 32)
        assert table.columns[:2] == ("day_mean", "day_median")

    def test_parts12_has_192_columns(self, tiny_corpus):
        table = featurize_corpus(tiny_corpus, builtin_scheme("parts12"))
        assert len(table.columns) == 192

    def test_all_days_one_row_per_subject(self, tiny_corpus):
        table = featurize_corpus(tiny_corpus, builtin_scheme("all_days"))
        assert table.n_rows == len(tiny_corpus.subjects)
        assert len(table.columns) == 16
        assert all(d == "all" for d in table.dates)

    def test_row_order_independent_of_input_order(self, tiny_corpus):
        from chronoseg.ingest import Corpus

        shuffled = Corpus(tiny_corpus.values[::-1], tiny_corpus.subject_ids[::-1], tiny_corpus.dates[::-1],
                          tiny_corpus.labels[::-1])
        a = featurize_corpus(tiny_corpus, builtin_scheme("parts2"))
        b = featurize_corpus(shuffled, builtin_scheme("parts2"))
        assert a.subject_ids == b.subject_ids
        np.testing.assert_array_equal(a.X, b.X)

    @pytest.mark.parametrize("preset", ["parts2", "parts6"])
    def test_row_is_features_of_segment_day(self, tiny_corpus, preset):
        scheme = builtin_scheme(preset)
        table = featurize_corpus(tiny_corpus, scheme)
        for i in (0, len(tiny_corpus.dates) - 1):
            segments = segment_day(tiny_corpus.values[i], scheme)
            row = [f for values in segments.values() for f in extract_features(values).values()]
            assert table.X[i].tobytes() == np.array(row).tobytes()

    def test_all_days_row_is_features_of_subject_record(self, tiny_corpus):
        table = featurize_corpus(tiny_corpus, builtin_scheme("all_days"))
        ids = np.array(tiny_corpus.subject_ids)
        for i, subject_id in enumerate(table.subject_ids):
            record = tiny_corpus.values[ids == subject_id].ravel()
            assert table.X[i].tobytes() == np.array(list(extract_features(record).values())).tobytes()

    def test_csv_round_trip_lossless(self, tiny_corpus, tmp_path):
        table = featurize_corpus(tiny_corpus, builtin_scheme("parts3"))
        path = tmp_path / "features_parts3.csv"
        write_feature_table(table, path)
        back = read_feature_table(path, scheme="parts3")
        assert back.scheme == "parts3"
        assert back.columns == table.columns
        assert back.subject_ids == table.subject_ids
        np.testing.assert_array_equal(back.X, table.X)
        np.testing.assert_array_equal(back.labels, table.labels)

    def test_ids_that_need_quoting_keep_csv_bytes(self, tmp_path):
        # subject ids are file stems, which may hold a comma, a quote or a line break
        ids = ("a,b", 'q"x', "line\nbreak", "plain")
        X = np.array([[0.1, -0.0, 1e300, 28.03593730164812], [1.0, 2.5, 5e-324, -7.0]] * 2)
        table = FeatureTable(scheme="t", columns=("c,1", "c2", "c3", "c4"), subject_ids=ids,
                             dates=("2020-01-01", "all", "2020-01-02", "2020-01-03"),
                             labels=np.array([1, 0, 1, 0]), X=X)
        path = tmp_path / "table.csv"
        write_feature_table(table, path)
        want = io.StringIO()
        writer = csv.writer(want, lineterminator="\n")
        writer.writerow(["subject_id", "date", "label", *table.columns])
        for subject_id, day, label, row in zip(ids, table.dates, table.labels.tolist(), X.tolist()):
            writer.writerow([subject_id, day, label, *[format(v, ".17g") for v in row]])
        assert path.read_bytes() == want.getvalue().encode()
        back = read_feature_table(path, scheme="t")
        assert (back.subject_ids, back.dates, back.columns) == (ids, table.dates, table.columns)
        assert back.X.tobytes() == X.tobytes()

    def test_errors_name_physical_lines(self, tmp_path):
        # a subject id holding a line break, which write_feature_table quotes
        path = tmp_path / "table.csv"
        path.write_text('subject_id,date,label,c1\n"a\nb",2020-01-01,1,0.5\nplain,2020-01-01,0,nan\n')
        with pytest.raises(DataError, match="malformed row at line 4: non-finite value$"):
            read_feature_table(path, scheme="t")

    def test_blank_rows_skipped(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text("subject_id,date,label,c1\n\na,2020-01-01,1,0.5\n\n\nb,2020-01-01,0,1.5\n\n")
        back = read_feature_table(path, scheme="t")
        assert back.subject_ids == ("a", "b")
        assert back.X.tolist() == [[0.5], [1.5]]

    def test_byte_order_mark_skipped(self, tiny_corpus, tmp_path):
        table = featurize_corpus(tiny_corpus, builtin_scheme("parts2"))
        path = tmp_path / "table.csv"
        write_feature_table(table, path)
        path.write_bytes(codecs.BOM_UTF8 + path.read_bytes())
        back = read_feature_table(path, scheme="parts2")
        assert back.columns == table.columns
        assert back.subject_ids == table.subject_ids
        np.testing.assert_array_equal(back.X, table.X)
        np.testing.assert_array_equal(back.labels, table.labels)
