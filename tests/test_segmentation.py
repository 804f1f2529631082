import re

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from chronoseg.errors import ConfigError
from chronoseg.ingest import MINUTES_PER_DAY
from chronoseg.segmentation import (
    PRESET_NAMES,
    MinuteWindow,
    SegmentDef,
    SegmentationScheme,
    builtin_scheme,
    resolve_scheme,
    scheme_from_config,
    segment_day,
    validate_scheme,
)

from oracles import UncheckedScheme, reference_segment_minutes


class TestPresets:
    def test_parts2_windows_match_day_night_split(self):
        scheme = builtin_scheme("parts2")
        by_name = {s.name: s for s in scheme.segments}
        assert by_name["day"].windows == (MinuteWindow(480, 1200),)
        assert by_name["night"].windows == (MinuteWindow(0, 480), MinuteWindow(1200, 1440))

    def test_parts3_boundaries(self):
        scheme = builtin_scheme("parts3")
        bounds = [(w.start, w.end) for s in scheme.segments for w in s.windows]
        assert bounds == [(0, 480), (480, 960), (960, 1440)]

    def test_parts12_twelve_contiguous_two_hour_windows(self):
        scheme = builtin_scheme("parts12")
        assert len(scheme.segments) == 12
        for i, seg in enumerate(scheme.segments):
            assert seg.windows == (MinuteWindow(i * 120, (i + 1) * 120),)

    def test_parts4_period_names(self):
        assert builtin_scheme("parts4").segment_names() == ["night", "morning", "afternoon", "evening"]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_all_presets_validate(self, name):
        scheme = builtin_scheme(name)  # an invalid scheme raises on construction
        assert validate_scheme(scheme) is None
        np.testing.assert_array_equal(np.sort(np.concatenate(scheme.minutes)), np.arange(MINUTES_PER_DAY))

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            builtin_scheme("parts5")

    def test_all_days_is_per_subject(self):
        assert builtin_scheme("all_days").per_subject


@st.composite
def segment_lists(draw):
    """(names, windows) of a random exact partition of the day, cut at random
    points and dealt to segments, then perhaps broken by an extra window (an
    overlap), a shortened window (a gap) or a repeated name."""
    n_pieces = draw(st.integers(1, 12))
    cuts = draw(st.sets(st.integers(1, MINUTES_PER_DAY - 1), min_size=n_pieces - 1, max_size=n_pieces - 1))
    bounds = [0, *sorted(cuts), MINUTES_PER_DAY]
    n_segments = draw(st.integers(1, n_pieces))
    extra = n_pieces - n_segments
    rest = draw(st.lists(st.integers(0, n_segments - 1), min_size=extra, max_size=extra))
    owners = draw(st.permutations([*range(n_segments), *rest]))
    windows = [[] for _ in range(n_segments)]
    for i, owner in enumerate(owners):
        windows[owner].append([bounds[i], bounds[i + 1]])
    names = [f"s{i}" for i in range(n_segments)]
    for fault in draw(st.lists(st.sampled_from(["overlap", "gap", "duplicate_name"]), max_size=2)):
        s = draw(st.integers(0, n_segments - 1))
        if fault == "overlap":
            start = draw(st.integers(0, MINUTES_PER_DAY - 1))
            windows[s].append([start, draw(st.integers(start + 1, MINUTES_PER_DAY))])
        elif fault == "gap":
            w = draw(st.sampled_from(windows[s]))
            if w[1] - w[0] > 1:
                w[draw(st.integers(0, 1))] = draw(st.integers(w[0] + 1, w[1] - 1))
        else:
            names[s] = names[draw(st.integers(0, n_segments - 1))]
    return names, [draw(st.permutations(ws)) for ws in windows]


class TestValidateScheme:
    def test_overlap_reported(self):
        with pytest.raises(ConfigError, match=re.escape("scheme 'bad' invalid: overlap over minutes [700, 720)")):
            SegmentationScheme(
                "bad",
                (
                    SegmentDef("a", (MinuteWindow(0, 720),)),
                    SegmentDef("b", (MinuteWindow(700, 1440),)),
                ),
            )

    def test_gap_reported(self):
        with pytest.raises(ConfigError, match=re.escape("scheme 'bad' invalid: gap over minutes [700, 720)")):
            SegmentationScheme(
                "bad",
                (
                    SegmentDef("a", (MinuteWindow(0, 700),)),
                    SegmentDef("b", (MinuteWindow(720, 1440),)),
                ),
            )

    def test_duplicate_names_reported(self):
        with pytest.raises(ConfigError, match=re.escape("scheme 'bad' invalid: segment names not unique: ['a', 'a']")):
            SegmentationScheme(
                "bad",
                (
                    SegmentDef("a", (MinuteWindow(0, 720),)),
                    SegmentDef("a", (MinuteWindow(720, 1440),)),
                ),
            )

    @given(segment_lists())
    @settings(max_examples=300, deadline=None)
    def test_constructor_matches_reference(self, case):
        # the stored minutes, or the error, of the earlier list-returning check
        names, windows = case
        segments = tuple(SegmentDef(n, tuple(MinuteWindow(*w) for w in ws)) for n, ws in zip(names, windows))
        try:
            expected = reference_segment_minutes(UncheckedScheme("random", segments))
        except ConfigError as exc:
            with pytest.raises(ConfigError) as raised:
                SegmentationScheme("random", segments)
            assert str(raised.value) == str(exc)
            return
        minutes = SegmentationScheme("random", segments).minutes
        assert len(minutes) == len(expected)
        for got, want in zip(minutes, expected):
            assert got.dtype == np.int64 and want.dtype == np.int64
            np.testing.assert_array_equal(got, want)

    def test_minutes_do_not_enter_equality(self):
        a, b = builtin_scheme("parts2"), builtin_scheme("parts2")
        assert a.minutes is not b.minutes
        assert a == b and hash(a) == hash(b)
        assert a != builtin_scheme("parts3")

    @pytest.mark.parametrize("name", ["", "a/b", "a,b", "a b", "a\n"])
    def test_names_limited_to_file_safe_characters(self, name):
        whole_day = (MinuteWindow(0, MINUTES_PER_DAY),)
        with pytest.raises(ConfigError, match=f"segment name {re.escape(repr(name))} must be non-empty"):
            SegmentDef(name, whole_day)
        with pytest.raises(ConfigError, match=f"scheme name {re.escape(repr(name))} must be non-empty"):
            SegmentationScheme(name, (SegmentDef("all", whole_day),))


class TestSegmentDay:
    def test_constant_day_parts4(self):
        segments = segment_day(np.full(1440, 7), builtin_scheme("parts4"))
        assert list(segments) == ["night", "morning", "afternoon", "evening"]
        for values in segments.values():
            assert values.shape == (360,)
            assert (values == 7).all()

    def test_minute_identity_parts2(self):
        by_name = segment_day(np.arange(1440), builtin_scheme("parts2"))
        np.testing.assert_array_equal(by_name["day"], np.arange(480, 1200))
        np.testing.assert_array_equal(by_name["night"], np.r_[np.arange(480), np.arange(1200, 1440)])

    def test_windows_gathered_in_start_order(self, tmp_path):
        path = tmp_path / "wrapped.yaml"
        path.write_text(yaml.safe_dump(
            {"name": "wrapped", "segments": [{"name": "night", "windows": ["20:00-24:00", "00:00-08:00"]},
                                             {"name": "day", "windows": ["08:00-20:00"]}]}
        ))
        scheme = scheme_from_config(path)
        night = segment_day(np.arange(1440), scheme)["night"]
        np.testing.assert_array_equal(night, np.r_[np.arange(480), np.arange(1200, 1440)])

    def test_full_day_is_identity(self):
        values = np.arange(1440) % 97
        (segment,) = segment_day(values, builtin_scheme("full_day")).values()
        np.testing.assert_array_equal(segment, values)

    def test_invalid_scheme_raises(self):
        with pytest.raises(ConfigError, match=re.escape("scheme 'bad' invalid: gap over minutes [700, 1440)")):
            SegmentationScheme("bad", (SegmentDef("a", (MinuteWindow(0, 700),)),))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([p for p in PRESET_NAMES if p != "all_days"]))
    @settings(max_examples=60, deadline=None)
    def test_partition_conserves_values(self, seed, preset):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 5000, MINUTES_PER_DAY)
        combined = np.concatenate(list(segment_day(values, builtin_scheme(preset)).values()))
        assert combined.size == MINUTES_PER_DAY
        assert combined.sum() == values.sum()
        np.testing.assert_array_equal(np.sort(combined), np.sort(values))


class TestCustomSchemes:
    def test_scheme_from_config(self, tmp_path):
        doc = {
            "name": "custom_daynight",
            "segments": [
                {"name": "night", "windows": ["20:00-24:00", "00:00-08:00"]},
                {"name": "day", "windows": ["08:00-20:00"]},
            ],
        }
        path = tmp_path / "custom.yaml"
        path.write_text(yaml.safe_dump(doc))
        scheme = scheme_from_config(path)
        np.testing.assert_array_equal(scheme.minutes[0], np.r_[np.arange(480), np.arange(1200, 1440)])
        night = scheme.segments[0]
        assert night.windows == (MinuteWindow(1200, 1440), MinuteWindow(0, 480))

    def test_bad_range_text(self, tmp_path):
        path = tmp_path / "x.yaml"
        path.write_text(yaml.safe_dump({"name": "x", "segments": [{"name": "a", "windows": ["8am-8pm"]}]}))
        with pytest.raises(ConfigError):
            scheme_from_config(path)

    @pytest.mark.parametrize("text, message", [
        ("name: x\nsegments:\n  - name: a\n    windows: ['20:00-08:00']\n", "invalid window [1200, 480)"),
        ("name: x\nsegments:\n  - name: a\n    windows: []\n", "segment 'a' has no windows"),
        ("segments: []\n", "scheme config needs 'name' and 'segments' keys"),
    ], ids=["backwards-window", "no-windows", "no-name"])
    def test_document_error_names_file(self, tmp_path, text, message):
        path = tmp_path / "bad.yaml"
        path.write_text(text)
        with pytest.raises(ConfigError, match=re.escape(f"scheme file {path}: {message}")):
            scheme_from_config(path)

    def test_unreadable_file_named_once(self, tmp_path):
        # read_yaml names the file itself
        path = tmp_path / "bad.yaml"
        path.write_bytes(b"name: \xff\n")
        with pytest.raises(ConfigError, match=f"^cannot read YAML file {re.escape(str(path))}: "):
            scheme_from_config(path)

    def test_incomplete_config_rejected(self, tmp_path):
        path = tmp_path / "scheme.yaml"
        path.write_text("name: gappy\nsegments:\n  - name: a\n    windows: ['00:00-10:00']\n")
        with pytest.raises(ConfigError, match="gap"):
            scheme_from_config(path)

    def test_resolve_scheme_preset_and_file(self, tmp_path):
        assert resolve_scheme("parts6").name == "parts6"
        path = tmp_path / "s.yaml"
        path.write_text(
            "name: halves\nsegments:\n"
            "  - name: first\n    windows: ['00:00-12:00']\n"
            "  - name: second\n    windows: ['12:00-24:00']\n"
        )
        assert resolve_scheme(str(path)).name == "halves"
        with pytest.raises(ConfigError):
            resolve_scheme("no_such_scheme")
