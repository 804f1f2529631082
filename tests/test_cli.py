import hashlib
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from chronoseg import cli
from chronoseg.cli import DEFAULT_SCHEMES, SETTINGS, build_parser, main, resolve_settings


@pytest.fixture(scope="module")
def corpus_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("corpus") / "corpus.csv"
    code = main(["synth", "--patients", "3", "--controls", "3", "--days", "3", "--seed", "1", "--out", str(path)])
    assert code == 0
    return path


class TestSynthCommand:
    def test_same_seed_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["synth", "--patients", "1", "--controls", "1", "--days", "1", "--seed", "2", "--out", str(a)]) == 0
        assert main(["synth", "--patients", "1", "--controls", "1", "--days", "1", "--seed", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_output_is_interchange_format(self, corpus_file):
        header = corpus_file.read_text().splitlines()[0]
        assert header == "subject_id,label,date,minute,activity"


class TestFeaturizeCommand:
    def test_writes_one_file_per_scheme(self, corpus_file, tmp_path, capsys):
        code = main(
            ["featurize", "--corpus", str(corpus_file), "--schemes", "parts2", "all_days", "--out-dir", str(tmp_path)]
        )
        assert code == 0
        parts2 = tmp_path / "features_parts2.csv"
        all_days = tmp_path / "features_all_days.csv"
        assert parts2.exists() and all_days.exists()
        assert len(parts2.read_text().splitlines()) == 1 + 18  # header + 18 days
        assert len(all_days.read_text().splitlines()) == 1 + 6  # header + 6 subjects
        out = capsys.readouterr().out
        assert "32 features" in out and "16 features" in out

    def test_missing_corpus_is_exit_2(self, tmp_path, capsys):
        code = main(["featurize", "--corpus", str(tmp_path / "nope.csv"), "--schemes", "parts2"])
        assert code == 2
        assert "error" in capsys.readouterr().err
        assert not (tmp_path / "features_parts2.csv").exists()

    def test_raw_cohort_matches_golden_digests(self, tmp_path):
        write_raw_cohort(tmp_path / "raw")
        out = tmp_path / "features"
        assert main(["featurize", "--corpus", str(tmp_path / "raw"), "--schemes", *DEFAULT_SCHEMES,
                     "--out-dir", str(out)]) == 0
        digests = {name: hashlib.sha256((out / f"features_{name}.csv").read_bytes()).hexdigest()
                   for name in DEFAULT_SCHEMES}
        assert digests == RAW_COHORT_GOLDEN


def write_raw_cohort(root: Path) -> None:
    """Two patients and two controls with three days of per-minute raw CSV each.

    P000 and C000 stamp rows as HH:MM:SS, P001 and C001 as HH:MM; every
    stamp of C000's second day ends in :30 seconds, to be truncated, and
    C001's last day is written without zero padding (2021-1-6 8:5). About 3% of counts are
    written as "143.0", and P001 misses minutes 600-629 of its second day, so
    that day is discarded.
    """
    rng = np.random.default_rng(2021)
    minutes = np.arange(1440)
    curve = 5.0 + 300.0 * ((minutes >= 480) & (minutes < 1200)) * np.sin(np.pi * (minutes - 480) / 720).clip(0)
    for sid, label, seconds in (("P000", 1, True), ("P001", 1, False), ("C000", 0, True), ("C001", 0, False)):
        lines = ["timestamp,activity"]
        for d in range(3):
            day = date(2021, 1, 4) + timedelta(days=d)
            counts = rng.poisson(curve * (0.6 if label and d == 1 else 1.0))
            as_float = rng.random(1440) < 0.03
            for m in minutes.tolist():
                if sid == "P001" and d == 1 and 600 <= m < 630:
                    continue
                if sid == "C001" and d == 2:
                    stamp = f"{day.year}-{day.month}-{day.day} {m // 60}:{m % 60}"
                else:
                    stamp = f"{day.isoformat()} {m // 60:02d}:{m % 60:02d}"
                    if seconds:
                        stamp += ":30" if sid == "C000" and d == 1 else ":00"
                count = f"{counts[m]}.0" if as_float[m] else str(counts[m])
                lines.append(f"{stamp},{count}")
        sub = root / ("patient" if label else "control")
        sub.mkdir(parents=True, exist_ok=True)
        (sub / f"{sid}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")


# sha256 of each features_<scheme>.csv written from write_raw_cohort, recorded
# when the feature kernel began to take the third and fourth moments as
# products (the earlier digests were recorded with the per-row parser and the
# per-segment feature code)
RAW_COHORT_GOLDEN = {
    "parts12": "0f6137c0be0ecbfcee52d01a6cc68727bb1b3830bd8ad8807e4b32e3d1ddc51c",
    "parts8": "651b4c9a4e59ce167cda697c039e5711d09b8e42545f945561613354dff253e1",
    "parts6": "4ab2b74dbf85201e23927d3c6fdc01836410b35f45d585c4b01890250392a151",
    "parts4": "4ec200034cd788b87e6aff5a44fb63132ac5f936ac7f754478d22b3b9e7c2d24",
    "parts3": "b82f24f41079e4ff0ed34400e03b866409d0ee2c79c7e4f24ebacaf61f9a3d92",
    "parts2": "f21eb39a6d58627cf7a09b71ca54735b4d3a7292d51d46430372ee4861ac36bf",
    "full_day": "55782bc3892188faa632fc5348c5041a8d391bc040cbec146f17a2bd69529691",
    "all_days": "43b3e47ad1a19570c42ac10b8e6954b83631715bb6769a1a80778196a2042555",
}


class TestEvaluateCommand:
    def test_single_cell_run(self, corpus_file, tmp_path, capsys):
        code = main(
            [
                "evaluate",
                "--corpus", str(corpus_file),
                "--schemes", "full_day",
                "--models", "knn",
                "--k", "3",
                "--out-dir", str(tmp_path),
            ]
        )
        assert code == 0
        report = (tmp_path / "report.csv").read_text().splitlines()
        assert report[0] == "scheme,model,auc_mean,auc_std,f1_mean,f1_std,seed,config_digest"
        assert len(report) == 2
        assert (tmp_path / "folds.csv").exists()
        assert (tmp_path / "roc_points.csv").exists()
        assert "full_day" in capsys.readouterr().out

    def test_reruns_byte_identical(self, corpus_file, tmp_path):
        args = [
            "evaluate",
            "--corpus", str(corpus_file),
            "--schemes", "parts2", "full_day",
            "--models", "knn", "decision_tree",
            "--k", "3",
            "--seed", "7",
        ]
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        assert main(args + ["--out-dir", str(d1)]) == 0
        assert main(args + ["--out-dir", str(d2)]) == 0
        for name in ("report.csv", "folds.csv", "roc_points.csv"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    def test_row_level_cv_on_day_rows_warns_once(self, corpus_file, tmp_path, capsys):
        cells = ["evaluate", "--corpus", str(corpus_file), "--models", "knn", "--k", "3"]
        assert main([*cells, "--schemes", "parts2", "full_day", "--out-dir", str(tmp_path / "days")]) == 0
        err = capsys.readouterr().err
        assert err.count("warning:") == 1
        assert "days of one subject land in both training and test folds" in err
        assert "--cv-mode subject_grouped" in err
        # one row per subject, or a subject's days kept in one fold: no warning
        for name, flags in (("subjects", ["--schemes", "all_days"]),
                            ("grouped", ["--schemes", "parts2", "--cv-mode", "subject_grouped"])):
            assert main([*cells, *flags, "--out-dir", str(tmp_path / name)]) == 0
            assert "warning:" not in capsys.readouterr().err

    @staticmethod
    def _grouped_run(tmp_path, patients, controls):
        corpus = tmp_path / "c.csv"
        assert main(["synth", "--patients", str(patients), "--controls", str(controls), "--days", "2",
                     "--out", str(corpus)]) == 0
        return main(["evaluate", "--corpus", str(corpus), "--schemes", "parts2", "--models", "knn", "--k", "5",
                     "--cv-mode", "subject_grouped", "--out-dir", str(tmp_path / "r")])

    def test_grouped_cv_with_fewer_subjects_per_class_than_k(self, tmp_path):
        # 3 patients and 4 controls in 5 folds: patients go to the folds with the fewest rows
        assert self._grouped_run(tmp_path, patients=3, controls=4) == 0
        folds = [line.split(",")[2] for line in (tmp_path / "r" / "folds.csv").read_text().splitlines()[1:]]
        assert folds == ["0", "1", "2", "3", "4"]

    def test_grouped_cv_with_one_subject_per_fold_exits_3(self, tmp_path, capsys):
        # 5 subjects in 5 folds: no fold is empty, but none holds both classes
        assert self._grouped_run(tmp_path, patients=2, controls=3) == 3
        assert "every fold had a single test class" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_features_dir_path(self, corpus_file, tmp_path):
        feat_dir = tmp_path / "features"
        assert main(["featurize", "--corpus", str(corpus_file), "--schemes", "full_day", "--out-dir", str(feat_dir)]) == 0
        code = main(
            [
                "evaluate",
                "--features-dir", str(feat_dir),
                "--schemes", "full_day",
                "--models", "knn",
                "--k", "3",
                "--out-dir", str(tmp_path / "out"),
            ]
        )
        assert code == 0

    def test_features_dir_name_checked_as_scheme_name(self, corpus_file, tmp_path, capsys, monkeypatch):
        # a comma in the name would add a cell to every report.csv row
        feat_dir = tmp_path / "features"
        assert main(["featurize", "--corpus", str(corpus_file), "--schemes", "full_day", "--out-dir", str(feat_dir)]) == 0
        (feat_dir / "features_a,b.csv").write_bytes((feat_dir / "features_full_day.csv").read_bytes())
        read = []
        monkeypatch.setattr(cli, "read_feature_table", lambda path, scheme: read.append(path))
        code = main(["evaluate", "--features-dir", str(feat_dir), "--schemes", "full_day", "a,b", "--models", "knn",
                     "--k", "3", "--out-dir", str(tmp_path / "out")])
        assert code == 2 and "scheme name 'a,b'" in capsys.readouterr().err
        assert read == [] and not (tmp_path / "out").exists()

    def test_features_dir_with_scheme_file(self, corpus_file, tmp_path):
        (tmp_path / "sch").mkdir()
        (tmp_path / "sch" / "dn.yaml").write_text(
            "name: dn\nsegments:\n  - name: night\n    windows: ['20:00-24:00', '00:00-08:00']\n"
            "  - name: day\n    windows: ['08:00-20:00']\n"
        )
        scheme_file = str(tmp_path / "sch" / "dn.yaml")
        feat_dir = tmp_path / "features"
        assert main(["featurize", "--corpus", str(corpus_file), "--schemes", scheme_file, "--out-dir", str(feat_dir)]) == 0
        assert (feat_dir / "features_dn.csv").exists()
        cells = ["--models", "knn", "--k", "3"]
        assert main(["evaluate", "--corpus", str(corpus_file), "--schemes", scheme_file, *cells,
                     "--out-dir", str(tmp_path / "corpus")]) == 0
        for scheme in (scheme_file, "dn"):
            out = tmp_path / ("file" if scheme == scheme_file else "name")
            assert main(["evaluate", "--features-dir", str(feat_dir), "--schemes", scheme, *cells,
                         "--out-dir", str(out)]) == 0, scheme
            assert (out / "report.csv").read_text().splitlines()[1].startswith("dn,knn,")
            for name in ("report.csv", "folds.csv", "roc_points.csv"):
                assert (out / name).read_bytes() == (tmp_path / "corpus" / name).read_bytes(), (scheme, name)

    def test_features_dir_with_workers_matches_corpus(self, corpus_file, tmp_path):
        schemes = ["--schemes", "parts2", "all_days"]
        cells = ["--models", "knn", "decision_tree", "logistic_regression", "--k", "3", "--seed", "4"]
        assert main(["featurize", "--corpus", str(corpus_file), *schemes, "--out-dir", str(tmp_path / "f")]) == 0
        assert main(["evaluate", "--corpus", str(corpus_file), *schemes, *cells,
                     "--out-dir", str(tmp_path / "corpus")]) == 0
        assert main(["evaluate", "--features-dir", str(tmp_path / "f"), *schemes, *cells, "--workers", "2",
                     "--out-dir", str(tmp_path / "tables")]) == 0
        for name in ("report.csv", "folds.csv", "roc_points.csv"):
            assert (tmp_path / "corpus" / name).read_bytes() == (tmp_path / "tables" / name).read_bytes(), name

    def test_config_file_with_flag_override(self, corpus_file, tmp_path):
        config = tmp_path / "config.yaml"
        config.write_text(
            f"corpus: {corpus_file}\nschemes: [full_day]\nmodels: [knn]\nk: 3\nout_dir: {tmp_path / 'from_config'}\n"
        )
        assert main(["--config", str(config), "evaluate"]) == 0
        assert (tmp_path / "from_config" / "report.csv").exists()
        # flag overrides config key
        assert main(["--config", str(config), "evaluate", "--out-dir", str(tmp_path / "flagged")]) == 0
        assert (tmp_path / "flagged" / "report.csv").exists()

    def test_missing_inputs_exit_2(self, capsys):
        assert main(["evaluate", "--schemes", "parts2"]) == 2


    def test_every_reported_model_name_is_accepted(self, corpus_file, tmp_path):
        base = ["evaluate", "--corpus", str(corpus_file), "--schemes", "full_day", "--k", "3"]
        assert main(base + ["--out-dir", str(tmp_path / "all")]) == 0
        lines = (tmp_path / "all" / "report.csv").read_text().splitlines()[1:]
        names = [line.split(",")[1] for line in lines]
        assert len(names) == 7
        for name in names:
            out = tmp_path / name
            assert main(base + ["--models", name, "--out-dir", str(out)]) == 0, name
            assert (out / "report.csv").read_text().splitlines()[1].split(",")[1] == name


class TestImportanceCommand:
    def test_importance_output(self, corpus_file, tmp_path):
        out = tmp_path / "imp.csv"
        code = main(
            [
                "importance",
                "--corpus", str(corpus_file),
                "--scheme", "parts2",
                "--model", "lightgbm",
                "--out", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "feature,gain"
        assert len(lines) == 1 + 32  # all features listed, zeros included
        gains = [float(line.split(",")[1]) for line in lines[1:]]
        assert gains == sorted(gains, reverse=True)

    def test_model_without_split_names_no_top_feature(self, corpus_file, tmp_path, capsys):
        # 6 all_days rows are fewer than 2 * min_child_samples, so no split is possible
        out = tmp_path / "imp.csv"
        code = main(["importance", "--corpus", str(corpus_file), "--scheme", "all_days", "--model", "lightgbm",
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().out == f"wrote {out}: the model made no split, so every gain is 0\n"
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 16
        assert all(float(line.split(",")[1]) == 0 for line in lines[1:])

    def test_non_tree_model_exit_2(self, corpus_file, tmp_path):
        code = main(
            ["importance", "--corpus", str(corpus_file), "--scheme", "parts2", "--model", "knn",
             "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestDataErrors:
    def test_overflowing_activity_exits_3(self, tmp_path, capsys):
        (tmp_path / "control").mkdir()
        (tmp_path / "control" / "c1.csv").write_text("timestamp,activity\n2004-05-07 12:00:00,1e400\n")
        code = main(["featurize", "--corpus", str(tmp_path), "--schemes", "parts2", "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "line 2: non-finite activity" in capsys.readouterr().err

    def test_malformed_recording_names_file(self, tmp_path, capsys):
        for sub, name, count in (("patient", "p1", "3"), ("control", "c1", "x")):
            (tmp_path / sub).mkdir()
            (tmp_path / sub / f"{name}.csv").write_text(f"timestamp,activity\n2004-05-07 12:00:00,{count}\n")
        code = main(["featurize", "--corpus", str(tmp_path), "--schemes", "parts2", "--out-dir", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert "c1.csv" in err and "line 2" in err, err
        assert not (tmp_path / "out").exists()

    def _evaluate_table(self, tmp_path, bad_row):
        rows = [f"s{i},2020-03-0{i},{i % 2},{i}.5,{i}" for i in range(1, 5)]
        rows.insert(2, bad_row)
        (tmp_path / "features_full_day.csv").write_text(
            "\n".join(["subject_id,date,label,day24h_mean,day24h_max", *rows]) + "\n"
        )
        return main(["evaluate", "--features-dir", str(tmp_path), "--schemes", "full_day", "--models", "knn",
                     "--k", "2", "--out-dir", str(tmp_path / "out")])

    def test_ragged_feature_row_exits_3(self, tmp_path, capsys):
        assert self._evaluate_table(tmp_path, "s9,2020-03-09,1,3.5") == 3
        assert "line 4: 4 cells, expected 5" in capsys.readouterr().err

    def test_non_integer_feature_label_exits_3(self, tmp_path, capsys):
        assert self._evaluate_table(tmp_path, "s9,2020-03-09,patient,3.5,3") == 3
        assert "line 4" in capsys.readouterr().err

    def test_non_numeric_feature_value_exits_3(self, tmp_path, capsys):
        assert self._evaluate_table(tmp_path, "s9,2020-03-09,1,high,3") == 3
        assert "line 4" in capsys.readouterr().err

    def test_repeated_feature_row_exits_3(self, tmp_path, capsys):
        # under row_stratified CV a copy could land in both train and test
        assert self._evaluate_table(tmp_path, "s1,2020-03-01,1,1.5,1") == 3
        err = capsys.readouterr().err
        assert "features_full_day.csv" in err and "subject s1 repeats date 2020-03-01 at line 4" in err, err

    def test_subject_with_two_labels_exits_3(self, tmp_path, capsys):
        # subject_grouped CV would take the label of the subject's first row
        assert self._evaluate_table(tmp_path, "s1,2020-03-09,0,3.5,3") == 3
        err = capsys.readouterr().err
        assert "features_full_day.csv" in err and "subject s1 has label 0 at line 4" in err, err

    def test_feature_table_without_feature_columns_exits_3(self, tmp_path, capsys):
        rows = [f"s{i},2020-03-0{i},{i % 2}" for i in range(1, 5)]
        (tmp_path / "features_z.csv").write_text("\n".join(["subject_id,date,label", *rows]) + "\n")
        code = main(["evaluate", "--features-dir", str(tmp_path), "--schemes", "z", "--k", "2",
                     "--out-dir", str(tmp_path / "out")])
        assert code == 3
        assert "features_z.csv has no feature columns" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


def _write_bad_inputs(root: Path, corpus_file: Path) -> None:
    """The input files of the documented error paths, each under its own name."""
    header = b"timestamp,activity\n"
    recordings = {
        "empty_rec": b"",
        "latin_rec": header + b"2004-05-07 12:00:00,3\xff\n",
        "huge_rec": header + b"2004-05-07 12:00:00," + b"1" * 200_000 + b"\n",
    }
    for corpus, content in recordings.items():
        (root / corpus / "patient").mkdir(parents=True)
        (root / corpus / "patient" / "p1.csv").write_bytes(content)
    # a bad byte past the first read buffer: the header and the first rows decode
    rows = corpus_file.read_bytes().splitlines(keepends=True)[:1000]
    (root / "latin_days.csv").write_bytes(b"".join(rows) + b"s\xff,1,2004-05-07,999,3\n")
    (root / "header_only.csv").write_bytes(rows[0])
    (root / "no_header.csv").write_bytes(b"")
    for table, content in (("fd_empty", b"subject_id,date,label,day_mean\n"),
                           ("fd_latin", b"subject_id,date,label,day_mean\ns\xff,2004-05-07,1,3\n"),
                           ("fd_nan", b"subject_id,date,label,day_mean\ns1,2004-05-07,1,3\ns1,2004-05-08,1,nan\n")):
        (root / table).mkdir()
        (root / table / "features_parts2.csv").write_bytes(content)
    (root / "fd_missing").mkdir()
    (root / "list.yaml").write_text("- synth\n- featurize\n")


@pytest.mark.parametrize(
    "argv, code, fragment",
    [
        pytest.param(["featurize", "--corpus", "empty_rec"], 3, "p1.csv: empty file: no header row",
                     id="empty-recording"),
        pytest.param(["featurize", "--corpus", "latin_rec"], 3, "p1.csv: recording is not UTF-8 text",
                     id="non-utf8-recording"),
        pytest.param(["featurize", "--corpus", "huge_rec"], 3, "p1.csv: malformed row at line 2: field larger",
                     id="oversized-recording-field"),
        pytest.param(["featurize", "--corpus", "latin_days.csv"], 3, "latin_days.csv is not UTF-8 text",
                     id="non-utf8-interchange-after-header"),
        pytest.param(["featurize", "--corpus", "header_only.csv"], 3, "empty corpus in header_only.csv",
                     id="interchange-header-only"),
        pytest.param(["featurize", "--corpus", "no_header.csv"], 3, "no_header.csv has no header row",
                     id="interchange-empty"),
        pytest.param(["evaluate", "--features-dir", "fd_empty", "--schemes", "parts2"], 3,
                     "features_parts2.csv has no rows", id="feature-table-header-only"),
        pytest.param(["evaluate", "--features-dir", "fd_latin", "--schemes", "parts2"], 3,
                     "features_parts2.csv is not UTF-8 text", id="non-utf8-feature-table"),
        pytest.param(["evaluate", "--features-dir", "fd_nan", "--schemes", "parts2"], 3,
                     "features_parts2.csv: malformed row at line 3: non-finite value", id="non-finite-feature-cell"),
        pytest.param(["--config", "nope.yaml", "featurize", "--corpus", "header_only.csv"], 2,
                     "config file nope.yaml does not exist", id="missing-config"),
        pytest.param(["--config", "list.yaml", "featurize", "--corpus", "header_only.csv"], 2,
                     "config file list.yaml must be a key-value document", id="config-is-list"),
        pytest.param(["featurize"], 2, "featurize needs a corpus path", id="featurize-without-corpus"),
        pytest.param(["importance"], 2, "importance needs a corpus path", id="importance-without-corpus"),
        pytest.param(["evaluate", "--features-dir", "fd_missing", "--schemes", "parts2"], 2,
                     "features_parts2.csv does not exist", id="feature-table-missing"),
    ],
)
def test_documented_error_exits_and_writes_nothing(corpus_file, tmp_path, monkeypatch, capsys, argv, code, fragment):
    monkeypatch.chdir(tmp_path)
    _write_bad_inputs(tmp_path, corpus_file)
    out = ["--out", "out.csv"] if "importance" in argv else ["--out-dir", "out"]
    before = sorted(tmp_path.rglob("*"))
    assert main([*argv, *out]) == code
    err = capsys.readouterr().err
    assert ("config error:" if code == 2 else "data error:") in err and fragment in err, err
    assert sorted(tmp_path.rglob("*")) == before


class TestConfigErrors:
    @pytest.mark.parametrize(
        "config, flags",
        [
            ("k: ten", []),
            ("k: 2.9", []),
            ("seed: [1]", []),
            ("workers: two", []),
            ("seed: -1", []),
            ("", ["--seed", "-1"]),
            ("model_params: [1, 2]", []),
            ("model_params: {knn: 3}", []),
            ("model_params: {knn: {C: 1}}", []),
            ("model_params: {knn: {k: x}}", []),
            ("model_params: {lightgbm: {max_depth: 1}}", []),
            ("model_params: {xgboost: {num_leaves: 4}}", []),
            ("model_params: {lightgmb: {n_rounds: 1}}", []),
            ("model_params: {lightgbm: {preset: xgb}}", []),
            ("wrokers: 2", []),
            ("workers: 0", []),
            ("k: 1", []),
            ("out_dir:", []),
            ("schemes: []", []),
            ("models: []", []),
            ("", ["--models", "knn", "knn"]),
        ],
    )
    def test_bad_evaluate_setting_exits_2(self, corpus_file, tmp_path, capsys, config, flags):
        path = tmp_path / "config.yaml"
        path.write_text(config + "\n")
        code = main(["--config", str(path), "evaluate", "--corpus", str(corpus_file), "--schemes", "parts2",
                     "--models", "knn", *flags, "--out-dir", str(tmp_path / "out")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "config, flags",
        [("patients: lots", []), ("seed: -1", []), ("", ["--seed", "-1"]), ("days: 1.5", []), ("patients: 0", [])],
    )
    def test_bad_synth_setting_exits_2(self, tmp_path, capsys, config, flags):
        path = tmp_path / "config.yaml"
        path.write_text(config + "\n")
        code = main(["--config", str(path), "synth", *flags, "--out", str(tmp_path / "c.csv")])
        assert code == 2
        assert "config error:" in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "command, config, flags, key",
        [
            ("synth", "out: 5", [], "out"),
            ("featurize", "out_dir: 5", ["--corpus", "CORPUS", "--schemes", "parts2"], "out_dir"),
            ("featurize", "corpus: 5", ["--schemes", "parts2"], "corpus"),
            ("featurize", "metadata: 5", ["--corpus", "CORPUS", "--schemes", "parts2"], "metadata"),
            ("featurize", "schemes: parts2", ["--corpus", "CORPUS"], "schemes"),
            ("evaluate", "out_dir: 5", ["--corpus", "CORPUS", "--schemes", "parts2", "--models", "knn"], "out_dir"),
            ("evaluate", "corpus: 5", ["--schemes", "parts2", "--models", "knn"], "corpus"),
            ("evaluate", "features_dir: 5", ["--schemes", "parts2", "--models", "knn"], "features_dir"),
            ("evaluate", "cv_mode: 5", ["--corpus", "CORPUS", "--schemes", "parts2", "--models", "knn"], "cv_mode"),
            ("evaluate", "schemes: parts2", ["--corpus", "CORPUS", "--models", "knn"], "schemes"),
            ("evaluate", "schemes: [parts2, 3]", ["--corpus", "CORPUS", "--models", "knn"], "schemes"),
            ("evaluate", "models: knn", ["--corpus", "CORPUS", "--schemes", "parts2"], "models"),
            ("evaluate", "models: [knn, [1]]", ["--corpus", "CORPUS", "--schemes", "parts2"], "models"),
            ("importance", "scheme: 7", ["--corpus", "CORPUS", "--model", "decision_tree"], "scheme"),
            ("importance", "model: [1]", ["--corpus", "CORPUS"], "model"),
            ("importance", "out: 5", ["--corpus", "CORPUS", "--model", "decision_tree"], "out"),
            ("synth", "out:", [], "out"),
        ],
    )
    def test_non_string_setting_exits_2(self, corpus_file, tmp_path, monkeypatch, capsys, command, config, flags, key):
        # an integer path would reach open() as a file descriptor; run in an empty
        # directory so that a default output name would show up there
        monkeypatch.chdir(tmp_path)
        (tmp_path / "config.yaml").write_text(config + "\n")
        flags = [str(corpus_file) if flag == "CORPUS" else flag for flag in flags]
        assert main(["--config", "config.yaml", command, *flags]) == 2
        assert f"config error: {key} must be " in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.yaml"]

    @pytest.mark.parametrize(
        "config, named",
        [
            ("model_params: {lightgbm: {max_depth: 1}}", ("'max_depth'", "preset lgbm")),
            ("model_params: {xgboost: {num_leaves: 4}}", ("'num_leaves'", "preset xgb")),
            ("model_params: {lightgmb: {n_rounds: 1}}", ("'lightgmb'",)),
            ("model_params: {lightgbm: {preset: xgb}}", ("'preset'", "'lightgbm'")),
        ],
    )
    def test_model_params_error_names_key(self, corpus_file, tmp_path, capsys, config, named):
        # checked although the importance model is another one
        path = tmp_path / "config.yaml"
        path.write_text(config + "\n")
        code = main(["--config", str(path), "importance", "--corpus", str(corpus_file), "--model", "decision_tree",
                     "--out", str(tmp_path / "imp.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert all(word in err for word in named), err
        assert not (tmp_path / "imp.csv").exists()

    @pytest.mark.parametrize(
        "content",
        [
            pytest.param("a: [1\n", id="invalid-yaml"),
            pytest.param(b"seed: \xff\n", id="not-utf8"),
            pytest.param(None, id="directory"),
        ],
    )
    def test_unreadable_config_file_exits_2(self, tmp_path, capsys, content):
        path = tmp_path / "config.yaml"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        assert main(["--config", str(path), "synth", "--out", str(tmp_path / "c.csv")]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and "config.yaml" in err, err
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize(
        "content, named",
        [
            pytest.param("name: s\nsegments: 5\n", "'segments'", id="segments-not-a-list"),
            pytest.param("name: s\nsegments:\n  - name: a\n", "'windows'", id="no-windows"),
            pytest.param("name: s\nsegments:\n  - windows: ['00:00-24:00']\n", "'name'", id="no-segment-name"),
            pytest.param("name: s\nsegments:\n  - name: a\n    windows: [800]\n", "800", id="window-not-text"),
            pytest.param("name: s\nsegments: [\n", "scheme.yaml", id="invalid-yaml"),
            pytest.param(b"name: s\xff\n", "scheme.yaml", id="not-utf8"),
            pytest.param(None, "scheme.yaml", id="directory"),
            pytest.param("name: a/b\nsegments:\n  - name: a\n    windows: ['00:00-24:00']\n", "'a/b'",
                         id="scheme-name-with-slash"),
            pytest.param("name: a,b\nsegments:\n  - name: a\n    windows: ['00:00-24:00']\n", "'a,b'",
                         id="scheme-name-with-comma"),
            pytest.param("name: ''\nsegments:\n  - name: a\n    windows: ['00:00-24:00']\n", "name ''",
                         id="empty-scheme-name"),
            pytest.param("name: s\nsegments:\n  - name: a,b\n    windows: ['00:00-24:00']\n", "'a,b'",
                         id="segment-name-with-comma"),
            pytest.param("name: s\nsegments:\n  - name: a\n    windows: ['00:00-08:70', '08:70-24:00']\n",
                         "'00:00-08:70'", id="minute-over-59"),
            pytest.param("name: 5\nsegments:\n  - name: a\n    windows: ['00:00-24:00']\n", "scheme name 5",
                         id="scheme-name-int"),
            pytest.param("name: null\nsegments:\n  - name: a\n    windows: ['00:00-24:00']\n", "scheme name None",
                         id="scheme-name-null"),
            pytest.param("name: true\nsegments:\n  - name: a\n    windows: ['00:00-24:00']\n", "scheme name True",
                         id="scheme-name-bool"),
            pytest.param("name: s\nsegments:\n  - name: 5\n    windows: ['00:00-24:00']\n", "segment name 5",
                         id="segment-name-int"),
            pytest.param("name: s\nsegments:\n  - name: null\n    windows: ['00:00-24:00']\n", "segment name None",
                         id="segment-name-null"),
            pytest.param("name: s\nsegments:\n  - name: true\n    windows: ['00:00-24:00']\n", "segment name True",
                         id="segment-name-bool"),
        ],
    )
    def test_bad_scheme_file_exits_2(self, corpus_file, tmp_path, capsys, content, named):
        path = tmp_path / "scheme.yaml"
        if content is None:
            path.mkdir()
        elif isinstance(content, bytes):
            path.write_bytes(content)
        else:
            path.write_text(content)
        out = tmp_path / "out"
        assert main(["featurize", "--corpus", str(corpus_file), "--schemes", str(path), "--out-dir", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and named in err, err
        assert not out.exists()

    @pytest.mark.parametrize(
        "command, source, schemes",
        [
            ("featurize", "--corpus", ["parts2", "p.yaml"]),
            ("evaluate", "--corpus", ["parts2", "parts2"]),
            ("evaluate", "--features-dir", ["parts2", "p.yaml"]),
        ],
        ids=["featurize", "evaluate-corpus", "evaluate-features-dir"],
    )
    def test_repeated_scheme_name_writes_nothing(self, corpus_file, tmp_path, capsys, command, source, schemes):
        # a scheme file named parts2 would write, or report, the parts2 table twice
        (tmp_path / "p.yaml").write_text('name: parts2\nsegments:\n  - name: day\n    windows: ["00:00-24:00"]\n')
        schemes = [str(tmp_path / name) if name.endswith(".yaml") else name for name in schemes]
        inputs = str(corpus_file) if source == "--corpus" else str(tmp_path)
        out = tmp_path / "out"
        assert main([command, source, inputs, "--schemes", *schemes, "--out-dir", str(out)]) == 2
        assert "scheme 'parts2' is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_repeated_model_named_before_input_is_read(self, tmp_path, capsys):
        # one cell per model: a repeat would have been dropped, and the run reported one row
        out = tmp_path / "out"
        code = main(["evaluate", "--corpus", str(tmp_path / "missing.csv"), "--schemes", "parts2",
                     "--models", "knn", "lightgbm", "knn", "--out-dir", str(out)])
        assert code == 2
        assert "model 'knn' is given twice" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_scheme_after_good_one_writes_nothing(self, corpus_file, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("name: bad\nsegments:\n  - name: a\n    windows: [800]\n")
        out = tmp_path / "out"
        code = main(["featurize", "--corpus", str(corpus_file), "--schemes", "parts2", str(path), "--out-dir", str(out)])
        assert code == 2
        assert "800" in capsys.readouterr().err
        assert not (out / "features_parts2.csv").exists() and not out.exists()

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(["featurize", "--corpus", "raw_dir", "--schemes", "parts2", "--out-dir", "out"], "c1.csv",
                         id="recording-is-directory"),
            pytest.param(["featurize", "--corpus", "raw", "--metadata", "nope.csv", "--schemes", "parts2",
                          "--out-dir", "out"], "nope.csv", id="metadata-missing"),
            pytest.param(["featurize", "--corpus", "raw", "--metadata", "empty", "--schemes", "parts2",
                          "--out-dir", "out"], "empty", id="metadata-is-directory"),
            pytest.param(["evaluate", "--features-dir", "fd", "--schemes", "parts2", "--models", "knn",
                          "--out-dir", "out"], "features_parts2.csv", id="feature-table-is-directory"),
            pytest.param(["synth", "--patients", "1", "--controls", "1", "--days", "1", "--out", "empty"], "empty",
                         id="synth-out-is-directory"),
            pytest.param(["featurize", "--corpus", "CORPUS", "--schemes", "parts2", "--out-dir", "file.txt"],
                         "file.txt", id="out-dir-is-file"),
        ],
    )
    def test_unusable_path_exits_2(self, corpus_file, tmp_path, monkeypatch, capsys, argv, named):
        monkeypatch.chdir(tmp_path)
        recording = "timestamp,activity\n2004-05-07 12:00:00,3\n"
        for corpus in ("raw", "raw_dir"):
            (tmp_path / corpus / "patient").mkdir(parents=True)
            (tmp_path / corpus / "patient" / "p1.csv").write_text(recording)
            (tmp_path / corpus / "control").mkdir()
        (tmp_path / "raw" / "control" / "c1.csv").write_text(recording)
        (tmp_path / "raw_dir" / "control" / "c1.csv").mkdir()
        (tmp_path / "empty").mkdir()
        (tmp_path / "fd" / "features_parts2.csv").mkdir(parents=True)
        (tmp_path / "file.txt").write_text("")
        before = sorted(tmp_path.rglob("*"))
        assert main([str(corpus_file) if arg == "CORPUS" else arg for arg in argv]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and named in err, err
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "file.txt").read_text() == ""

    @pytest.mark.parametrize(
        "argv, named",
        [
            pytest.param(["evaluate", "--schemes", "parts2", "--out-dir", "file.txt"], "file.txt",
                         id="evaluate-out-dir-is-file"),
            pytest.param(["evaluate", "--schemes", "parts2", "--out-dir", "file.txt/sub"], "file.txt",
                         id="evaluate-out-dir-under-file"),
            pytest.param(["featurize", "--schemes", "parts2", "--out-dir", "file.txt"], "file.txt",
                         id="featurize-out-dir-is-file"),
            pytest.param(["importance", "--model", "decision_tree", "--out", "empty"], "empty",
                         id="importance-out-is-directory"),
            pytest.param(["importance", "--model", "decision_tree", "--out", "missing/imp.csv"], "missing",
                         id="importance-out-in-missing-directory"),
        ],
    )
    def test_unusable_output_exits_2_before_reading_input(self, corpus_file, tmp_path, monkeypatch, capsys, argv,
                                                           named):
        def never(*args, **kwargs):
            raise AssertionError("input read before the output path was checked")

        for name in ("_load_any_corpus", "featurize_corpus", "run_matrix", "train"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        (tmp_path / "file.txt").write_text("")
        before = sorted(tmp_path.rglob("*"))
        assert main([argv[0], "--corpus", str(corpus_file), *argv[1:]]) == 2
        err = capsys.readouterr().err
        assert "config error:" in err and named in err, err
        assert sorted(tmp_path.rglob("*")) == before

    def test_non_integer_metadata_label_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "s1.csv").write_text("timestamp,activity\n2004-05-07 12:00:00,3\n")
        (tmp_path / "meta.csv").write_text("subject_id,label\ns1,patient\n")
        code = main(["featurize", "--corpus", str(corpus), "--metadata", str(tmp_path / "meta.csv"),
                     "--schemes", "parts2", "--out-dir", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "meta.csv" in err and "subject 's1' has label 'patient'" in err


@pytest.mark.parametrize("command, key", [(command, key) for command in SETTINGS for key in SETTINGS[command]])
def test_flag_and_config_key_agree(command, key):
    setting = SETTINGS[command][key]
    samples = {int: 3, str: "x", list: ["a", "b"]}
    value = setting.kind[-1] if isinstance(setting.kind, tuple) else samples[setting.kind]
    flag = ["--" + key.replace("_", "-"), *map(str, value if isinstance(value, list) else [value])]
    parser = build_parser()
    by_flag = resolve_settings(command, parser.parse_args([command, *flag]), {})
    by_config = resolve_settings(command, parser.parse_args([command]), {key: value})
    assert by_flag == by_config
    assert by_flag[key] == value


class TestUsageErrors:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--no-such-flag"])
        assert exc.value.code == 2

    def test_help_mentions_all_subcommands(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        for cmd in ("synth", "featurize", "evaluate", "importance"):
            assert cmd in out

    def test_unknown_model_exit_2(self, corpus_file):
        assert main(["evaluate", "--corpus", str(corpus_file), "--models", "resnet"]) == 2
