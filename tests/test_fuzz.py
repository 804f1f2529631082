"""Mutated CSV input to every reader may end only in DataError or ConfigError,
which the CLI maps to exit codes 3 and 2; anything else would be exit 4."""

import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg.errors import ConfigError, DataError
from chronoseg.features import read_feature_table
from chronoseg.ingest import filter_complete_days, load_corpus, load_interchange, parse_subject_file

RAW = "timestamp,date,activity\n" + "".join(
    f"2004-05-07 {m // 60:02d}:{m % 60:02d}:00,2004-05-07,{m % 13}\n" for m in range(1440)
) + "2004-05-08 00:00,2004-05-08,4\n"
INTERCHANGE = "subject_id,label,date,minute,activity\n" + "".join(
    f"s1,1,2004-05-07,{m},{m % 11}\n" for m in range(1440)
)
METADATA = "subject_id,label\ns1,1\ns2,0\n"
FEATURES = "subject_id,date,label,day24h_mean,day24h_max\n" + "".join(
    f"s{i},2004-05-0{i},{i % 2},{i}.25,{i}\n" for i in range(1, 6)
)


def _single_digit_time(line):
    head, _, rest = line.partition(" 0")
    return f"{head} {rest.replace(':0', ':', 1)}" if rest else line


MUTATIONS = {
    "truncate": lambda line, k: line[: k % (len(line) + 1)],
    "extra_cell": lambda line, k: line + ",7",
    "missing_cell": lambda line, k: line.rpartition(",")[0],
    "blank": lambda line, k: "",
    "hash": lambda line, k: line[: k % (len(line) + 1)] + "#" + line[k % (len(line) + 1):],
    "quote": lambda line, k: line[: k % (len(line) + 1)] + '"' + line[k % (len(line) + 1):],
    "nan": lambda line, k: line.rpartition(",")[0] + ",nan",
    "inf": lambda line, k: line.rpartition(",")[0] + (",-inf" if k % 2 else ",inf"),
    "huge": lambda line, k: line.rpartition(",")[0] + ",1" + "0" * (k % 400),
    "single_digit_time": lambda line, k: _single_digit_time(line),
    "nul": lambda line, k: line[: k % (len(line) + 1)] + "\x00" + line[k % (len(line) + 1):],
}


@st.composite
def mutated(draw, text):
    lines = text.split("\n")
    for kind, at, k in draw(st.lists(st.tuples(st.sampled_from(sorted(MUTATIONS)), st.integers(0, len(lines) - 1),
                                               st.integers(0, 1000)), min_size=1, max_size=4)):
        lines[at] = MUTATIONS[kind](lines[at], k)
    return "\n".join(lines)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.csv"


def _only_documented_errors(run):
    try:
        run()
    except (DataError, ConfigError):
        pass


@given(mutated(RAW))
@settings(max_examples=200, deadline=None)
def test_parse_subject_file(text):
    _only_documented_errors(lambda: filter_complete_days(*parse_subject_file(io.StringIO(text, newline=""))))


@given(text=mutated(INTERCHANGE))
@settings(max_examples=200, deadline=None)
def test_load_interchange(scratch, text):
    scratch.write_text(text, encoding="utf-8", newline="")
    _only_documented_errors(lambda: load_interchange(scratch))


@pytest.fixture(scope="module")
def subject_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("subjects")
    for subject_id in ("s1", "s2"):
        (root / f"{subject_id}.csv").write_text(RAW, encoding="utf-8", newline="")
    return root


@given(text=mutated(METADATA))
@settings(max_examples=200, deadline=None)
def test_load_corpus_metadata(scratch, subject_dir, text):
    scratch.write_text(text, encoding="utf-8", newline="")
    _only_documented_errors(lambda: load_corpus(subject_dir, metadata=scratch))


@given(text=mutated(FEATURES))
@settings(max_examples=200, deadline=None)
def test_read_feature_table(scratch, text):
    scratch.write_text(text, encoding="utf-8", newline="")
    _only_documented_errors(lambda: read_feature_table(scratch, scheme="fuzzed"))
