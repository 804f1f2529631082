import hashlib
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest

from chronoseg.cli import DEFAULT_SCHEMES, main


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
# with the per-row parser and the per-segment feature code
RAW_COHORT_GOLDEN = {
    "parts12": "b9c5d9ec02aa4a5efd043707f6e74c122ebb3ae9ea3f8816a6391d5ef9eddbc5",
    "parts8": "c5082134615202f752a4fa980efb44a02f76dc983e1907b5cee6586bbae51afd",
    "parts6": "4b736769506bf9a6ef81bc701e9027052093549b95c41d0b7550d736400f897e",
    "parts4": "e121d9d2613396bbbda9047f944cd2d81e19c401c133b33b13ebc9c461a8abde",
    "parts3": "a81048eac06745271aac8d5b6526103ae267baef5367169fa499e8f0af0c095d",
    "parts2": "b4fd2faf8e527ea2f0b537e811a1d48171f890028d9d5e9330f6f9e36bfcfeaf",
    "full_day": "1657dae56fe6bf05b7321f86a0547acc2ce56c13cd1e3cb8aa9749978579e747",
    "all_days": "e518348163b24c9e4abe4dad5ade4ffd4e34ff7786072b4f11daf13bc8cd5b2c",
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


class TestConfigErrors:
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
