"""Command-line surface: exit codes, file outputs, config plumbing, and the
end-to-end pipeline on a small synthetic dataset."""

import ast
import contextlib
import csv
import inspect
import io
import json
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from motorclass import classifiers, cli, dataset, dsp, evaluation, features, stats


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def ds_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "ds"
    code = cli.main(["synth", "--out", str(out), "--n-per-side", "6",
                     "--asymmetry-db", "6", "--seed", "3"])
    assert code == cli.EXIT_OK
    return out


def manifest(ds_dir):
    return str(ds_dir / "manifest.json")


def edited_manifest(ds_dir, tmp_path, mutate=lambda trials: None, **fields):
    """A copy of the dataset's manifest in tmp_path, trial files referenced by
    absolute path, after mutate(trials) has edited its trial list and fields
    have replaced its top-level fields."""
    blob = json.loads((ds_dir / "manifest.json").read_text())
    for entry in blob["trials"]:
        entry["file"] = str(ds_dir / entry["file"])
    mutate(blob["trials"])
    blob.update(fields)
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(blob))
    return str(path)


class TestExitCodes:
    def test_no_subcommand(self, capsys):
        code, _, err = run([], capsys)
        assert code == 1
        assert "subcommand" in err

    def test_unknown_flag(self, capsys):
        code, _, _ = run(["synth", "--bogus"], capsys)
        assert code == 1

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": {"lo": 1.0}}))
        code, _, err = run(["synth", "--config", str(cfg), "--out",
                            str(tmp_path / "o")], capsys)
        assert code == 1
        assert "filter.lo" in err

    def test_missing_out(self, capsys):
        code, _, err = run(["synth"], capsys)
        assert code == 1
        assert "output" in err

    def test_missing_manifest_file(self, tmp_path, capsys):
        code, _, err = run(["features", str(tmp_path / "nope.json"),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 2
        assert "data error" in err

    def test_bad_band(self, tmp_path, capsys):
        code, _, err = run(["synth", "--band", "gamma", "--out",
                            str(tmp_path / "o")], capsys)
        assert code == 1
        assert "gamma" in err

    def test_even_taps_is_usage_error(self, tmp_path, capsys, ds_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"filter": {"taps": 1690}}))
        code, _, err = run(["features", manifest(ds_dir), "--config", str(cfg),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "usage error" in err

    def test_bad_threads(self, capsys):
        code, _, _ = run(["synth", "--threads", "0", "--out", "x"], capsys)
        assert code == 1

    @pytest.mark.parametrize("section,key,value,prefix", [
        ("filter", "taps", "abc", "usage error: filter.taps must be an integer"),
        ("filter", "low_hz", "1", "usage error: filter.low_hz must be a number"),
        ("stats", "alpha", "0.05", "usage error: stats.alpha must be a number"),
        ("train", "svm_c", "1", "usage error: train.svm_c must be a number"),
        ("train", "seed", 1.5, "usage error: train.seed must be an integer"),
        ("train", "knn_k", 4, "usage error: train: knn_k must be a positive odd integer"),
        ("train", "svm_epochs", 0, "usage error: train: svm_c, svm_epochs, boost_rounds"),
        ("cv", "seed", "x", "usage error: cv.seed must be an integer"),
        ("cv", "seed", 1.5, "usage error: cv.seed must be an integer"),
        ("synth", "n_trials_per_side", "abc",
         "usage error: synth.n_trials_per_side must be an integer"),
        ("synth", "n_trials_per_side", 1.7,
         "usage error: synth.n_trials_per_side must be an integer"),
        ("synth", "asymmetry_db", -1, "usage error: synth: BadConfig: asymmetry_db must be >= 0"),
        ("synth", "target_channels", "C3",
         "usage error: synth.target_channels must be a list of strings"),
        ("io", "output", 5, "usage error: io.output must be a string or null"),
        ("synth", None, {"asymmetry_db": 6, "target_channels": ["FCz"]},
         "usage error: synth: BadConfig: asymmetry_db > 0 needs a lateral channel"),
    ], ids=["taps_string", "low_hz_string", "alpha_string", "svm_c_string", "train_seed_float",
            "knn_k_even", "svm_epochs_zero", "cv_seed_string", "cv_seed_float",
            "n_trials_string", "n_trials_float", "asymmetry_negative", "channels_string",
            "output_int", "asymmetry_midline_only"])
    def test_wrong_typed_config_is_usage_error(self, tmp_path, capsys, ds_dir,
                                               section, key, value, prefix):
        # no --out, so io.output is the only output directory there is; a row
        # whose key is None gives several keys of its section at once
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: value if key is None else {key: value}}))
        code, _, err = run(["ttest", manifest(ds_dir), "--config", str(cfg)], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith(prefix)
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("make,message", [
        (lambda path: None, "config file not found: "),
        (lambda path: path.write_text("{"), " is not valid JSON: "),
        (lambda path: path.mkdir(), ": [Errno 21] Is a directory: "),
        (lambda path: path.write_bytes(b"\xff{}"), ": 'utf-8' codec can't decode byte 0xff"),
    ], ids=["missing", "invalid_json", "directory", "not_utf8"])
    def test_unreadable_config_is_usage_error(self, tmp_path, capsys, make, message):
        cfg = tmp_path / "cfg"
        make(cfg)
        code, _, err = run(["synth", "--config", str(cfg), "--out", str(tmp_path / "o")],
                           capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: config file ")
        assert message in err and str(cfg) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("out", ["afile", "afile/sub"])
    def test_out_naming_a_file_is_usage_error(self, tmp_path, capsys, ds_dir, out):
        (tmp_path / "afile").write_text("")
        code, _, err = run(["features", manifest(ds_dir), "--out", str(tmp_path / out)],
                           capsys)
        assert code == cli.EXIT_USAGE
        assert err == f"usage error: output directory {str(tmp_path / out)!r} is not a directory\n"

    def test_unsupported_fold_count(self, tmp_path, capsys, ds_dir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"cv": {"k": 5}}))
        code, _, err = run(["evaluate", manifest(ds_dir), "--config", str(cfg),
                            "--out", str(tmp_path / "o")], capsys)
        assert code == 1
        assert "cv.k" in err


class TestSynth:
    def test_writes_trials_and_manifest(self, ds_dir, capsys):
        assert (ds_dir / "manifest.json").exists()
        assert (ds_dir / "effective_config.json").exists()
        assert len(list(ds_dir.glob("trial_*.csv"))) == 12

    def test_default_size(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code, out_text, _ = run(["synth", "--out", str(out), "--seed", "7"], capsys)
        assert code == 0
        assert len(list(out.glob("trial_*.csv"))) == 80
        code, _, _ = run(["validate", str(out / "manifest.json")], capsys)
        assert code == 0

    def test_deterministic_for_seed(self, tmp_path, capsys):
        a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
        for out, seed in ((a, "3"), (b, "3"), (c, "4")):
            run(["synth", "--out", str(out), "--n-per-side", "2", "--seed", seed],
                capsys)
        name = "trial_0000.csv"
        assert (a / name).read_bytes() == (b / name).read_bytes()
        assert (a / name).read_bytes() != (c / name).read_bytes()

    def test_rerun_removes_unlisted_trial_files(self, tmp_path, capsys):
        out = tmp_path / "ds"
        out.mkdir()
        (out / "notes.txt").write_text("kept\n")
        for n in ("2", "1"):
            code, _, _ = run(["synth", "--out", str(out), "--n-per-side", n], capsys)
            assert code == 0
        assert sorted(p.name for p in out.glob("trial_*.csv")) == ["trial_0000.csv",
                                                                  "trial_0001.csv"]
        assert (out / "notes.txt").read_text() == "kept\n"

    def test_effective_config_echoes_overrides(self, ds_dir):
        cfg = json.loads((ds_dir / "effective_config.json").read_text())
        assert cfg["synth"]["n_trials_per_side"] == 6
        assert cfg["synth"]["asymmetry_db"] == 6.0
        assert cfg["synth"]["seed"] == 3


class TestValidate:
    def test_clean_dataset(self, ds_dir, capsys):
        code, out_text, _ = run(["validate", manifest(ds_dir)], capsys)
        assert code == 0
        assert "ok: 12 trials (6 right, 6 left)" in out_text

    def test_amplitude_check(self, ds_dir, capsys):
        code, out_text, _ = run(["validate", manifest(ds_dir),
                                 "--amplitude-check"], capsys)
        assert code == 0
        assert "above" in out_text

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-5"])
    def test_bad_amplitude_threshold_is_usage_error(self, ds_dir, capsys, threshold):
        code, out_text, err = run(["validate", manifest(ds_dir), "--amplitude-check",
                                   "--amplitude-threshold", threshold], capsys)
        assert code == cli.EXIT_USAGE
        assert out_text == ""
        assert err.startswith("usage error: --amplitude-threshold must be a finite number > 0")
        assert len(err.strip().splitlines()) == 1

    def test_corrupted_trial(self, tmp_path, capsys):
        src = tmp_path / "ds"
        run(["synth", "--out", str(src), "--n-per-side", "2", "--seed", "0"], capsys)
        trial = src / "trial_0001.csv"
        lines = trial.read_text().splitlines()
        cells = lines[1].split(",")
        cells[0] = "nan"
        lines[1] = ",".join(cells)
        trial.write_text("\n".join(lines) + "\n")
        code, _, err = run(["validate", str(src / "manifest.json")], capsys)
        assert code == 2

    def test_imbalance_is_one_warning_line(self, ds_dir, tmp_path, capsys):
        def three_right_two_left(trials):
            trials[:] = ([e for e in trials if e["label"] == 1][:3]
                         + [e for e in trials if e["label"] == 2][:2])

        bad = edited_manifest(ds_dir, tmp_path, three_right_two_left)
        code, out_text, err = run(["validate", bad], capsys)
        assert code == 0
        assert "ok: 5 trials (3 right, 2 left)" in out_text
        assert err == "warning: imbalanced dataset: 3 right vs 2 left\n"

    @pytest.mark.parametrize("command", ["validate", "ttest"])
    def test_imbalance_warns_before_a_corrupt_trial_fails(self, ds_dir, tmp_path, capsys,
                                                          command):
        # the warning comes when the manifest is read, before any trial file is
        corrupt = tmp_path / "corrupt.csv"
        lines = (ds_dir / "trial_0001.csv").read_text().splitlines()
        lines[1] = "abc," + lines[1].split(",", 1)[1]
        corrupt.write_text("\n".join(lines) + "\n")

        def three_right_two_left(trials):
            trials[:] = ([e for e in trials if e["label"] == 1][:3]
                         + [e for e in trials if e["label"] == 2][:2])
            trials[1]["file"] = str(corrupt)

        bad = edited_manifest(ds_dir, tmp_path, three_right_two_left)
        argv = [command, bad] + (["--out", str(tmp_path / "o")] if command == "ttest" else [])
        code, _, err = run(argv, capsys)
        assert code == cli.EXIT_DATA
        warning, error = err.splitlines()
        assert warning == "warning: imbalanced dataset: 3 right vs 2 left"
        assert error.startswith("data error: BadTrialFile (trial 1): 'corrupt.csv': ")


class TestFeatures:
    def test_csv_shape(self, ds_dir, tmp_path, capsys):
        out = tmp_path / "feat"
        code, _, _ = run(["features", manifest(ds_dir), "--out", str(out)], capsys)
        assert code == 0
        with open(out / "features.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][:3] == ["trial_id", "epoch", "label"]
        assert len(rows[0]) == 3 + 300
        assert len(rows) == 1 + 12 * 8

    def test_db_scale_changes_values(self, ds_dir, tmp_path, capsys):
        lin, db = tmp_path / "lin", tmp_path / "db"
        run(["features", manifest(ds_dir), "--out", str(lin)], capsys)
        run(["features", manifest(ds_dir), "--out", str(db), "--scale", "db"], capsys)
        a = np.loadtxt(lin / "features.csv", delimiter=",", skiprows=1)
        b = np.loadtxt(db / "features.csv", delimiter=",", skiprows=1)
        assert np.array_equal(a[:, :3], b[:, :3])
        assert np.allclose(10.0 ** (b[:, 3:] / 10.0), a[:, 3:], rtol=1e-9)


class TestTtest:
    def _significant(self, path):
        with open(path) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 300
        return {(r["channel"], r["freq_hz"]) for r in rows if r["significant"] == "1"}

    def test_outputs_and_alpha_nesting(self, ds_dir, tmp_path, capsys):
        loose, strict = tmp_path / "a05", tmp_path / "a01"
        code, out_text, _ = run(["ttest", manifest(ds_dir), "--out", str(loose)],
                                capsys)
        assert code == 0
        assert "significant cells" in out_text
        run(["ttest", manifest(ds_dir), "--out", str(strict), "--alpha", "0.01"],
            capsys)
        sig05 = self._significant(loose / "ttest_map.csv")
        sig01 = self._significant(strict / "ttest_map.csv")
        assert sig01 <= sig05
        with open(loose / "ttest_bands.csv") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["band", "channel", "mean_delta", "mean_delta_significant"]
        assert len(rows) == 1 + 4 * 12
        assert (loose / "psd_curves.csv").exists()

    def test_planted_channels_dominate(self, ds_dir, tmp_path, capsys):
        out = tmp_path / "map"
        run(["ttest", manifest(ds_dir), "--out", str(out)], capsys)
        with open(out / "ttest_map.csv") as fh:
            rows = list(csv.DictReader(fh))
        best = max(rows, key=lambda r: abs(float(r["t"])))
        assert best["channel"] in ("C3", "C4")

    def test_unbalanced_manifest_is_data_error(self, ds_dir, tmp_path, capsys):
        bad = edited_manifest(ds_dir, tmp_path, lambda trials: trials.remove(
            next(entry for entry in trials if entry["label"] == 2)))
        code, _, err = run(["ttest", bad, "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith("warning: imbalanced dataset: 6 right vs 5 left\n")
        assert "equal right/left counts, got 48 right and 40 left" in err
        assert "allow_truncate" not in err
        assert "Traceback" not in err


class TestEvaluate:
    def test_full_run(self, ds_dir, tmp_path, capsys):
        out = tmp_path / "eval"
        code, out_text, _ = run(["evaluate", manifest(ds_dir), "--out", str(out)],
                                capsys)
        assert code == 0
        lines = out_text.strip().splitlines()
        assert len(lines) == 1 + 6
        assert lines[1].startswith("SVM")
        report = json.loads((out / "report.json").read_text())
        assert [e["kind"] for e in report["classifiers"]] == \
            ["SVM", "KNN", "NaiveBayes", "Boosting", "LDA", "Rule"]
        assert report["config"]["cv"]["seed"] == 0
        assert (out / "report.csv").exists()
        assert (out / "effective_config.json").exists()

    def test_byte_identical_reports(self, ds_dir, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            code, _, _ = run(["evaluate", manifest(ds_dir), "--out", str(out)],
                             capsys)
            assert code == 0
        assert (a / "report.json").read_bytes() == (b / "report.json").read_bytes()

    def test_classifier_subset_drops_rule(self, ds_dir, tmp_path, capsys):
        out = tmp_path / "pair"
        code, out_text, err = run(["evaluate", manifest(ds_dir), "--out", str(out),
                                   "--classifiers", "svm,lda"], capsys)
        assert code == 0
        assert "rule row omitted" in err
        report = json.loads((out / "report.json").read_text())
        assert [e["kind"] for e in report["classifiers"]] == ["SVM", "LDA"]
        assert "rule_error" in report

    def test_unknown_classifier(self, ds_dir, tmp_path, capsys):
        code, _, err = run(["evaluate", manifest(ds_dir), "--out",
                            str(tmp_path / "o"), "--classifiers", "svm,tree"],
                           capsys)
        assert code == 1
        assert "tree" in err

    @pytest.mark.parametrize("selection", ["", "svm,,lda"], ids=["empty", "empty_token"])
    def test_empty_classifier_is_usage_error(self, ds_dir, tmp_path, capsys, selection):
        code, _, err = run(["evaluate", manifest(ds_dir), "--out", str(tmp_path / "o"),
                            "--classifiers", selection], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: unknown classifier ''; choose from ")
        assert not (tmp_path / "o" / "report.json").exists()

    def test_epoch_granularity_and_train_ranking(self, ds_dir, tmp_path, capsys):
        out = tmp_path / "alt"
        code, _, _ = run(["evaluate", manifest(ds_dir), "--out", str(out),
                          "--granularity", "epoch", "--ranking", "train"], capsys)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["cv"]["granularity"] == "epoch"
        assert report["config"]["fusion"]["ranking_source"] == "train"


class TestFilterSection:
    """A valid non-default filter section sets the filter every feature is made under."""

    FILTER = {"low_hz": 8, "high_hz": 30, "taps": 1001}

    def _config(self, tmp_path):
        path = tmp_path / "filter.json"
        path.write_text(json.dumps({"filter": self.FILTER}))
        return str(path)

    def test_features(self, ds_dir, tmp_path, capsys):
        out = tmp_path / "feat"
        code, _, _ = run(["features", manifest(ds_dir), "--config", self._config(tmp_path),
                          "--out", str(out)], capsys)
        assert code == 0
        fm = features.build_feature_matrix(dataset.load_dataset(manifest(ds_dir)),
                                           dsp.design_bandpass(dataset.FS, **self.FILTER))
        expected = features.save_features_csv(fm, tmp_path / "expected.csv")
        assert (out / "features.csv").read_bytes() == expected.read_bytes()

    @pytest.mark.parametrize("flags,scale", [([], "linear"), (["--scale", "db"], "db")])
    def test_evaluate(self, ds_dir, tmp_path, capsys, flags, scale):
        out = tmp_path / "eval"
        code, _, _ = run(["evaluate", manifest(ds_dir), "--config", self._config(tmp_path),
                          "--out", str(out), *flags], capsys)
        assert code == 0
        filt = dsp.design_bandpass(dataset.FS, **self.FILTER)
        expected = evaluation.run_cv(dataset.load_dataset(manifest(ds_dir)),
                                     classifiers.TrainConfig(), seed=0, scale=scale, filt=filt)
        report = json.loads((out / "report.json").read_text())
        assert report["classifiers"] == json.loads(json.dumps(expected["classifiers"]))


class TestManifestEntries:
    @pytest.mark.parametrize("mutate,prefix", [
        (lambda trials: trials[1].pop("file"), "data error: BadManifest (trial 1)"),
        (lambda trials: trials[1].pop("trial_id"), "data error: BadTrialId"),
        (lambda trials: trials[1].update(trial_id=0),
         "data error: DuplicateTrialId (trial 0)"),
        (lambda trials: trials.__setitem__(1, 1),
         "data error: BadManifest: trial entry must be a JSON object"),
        (lambda trials: trials[1].update(file=7),
         "data error: BadManifest (trial 1): file=7, expected a string"),
        (lambda trials: trials[1].update(label=True), "data error: BadLabel (trial 1): label=True"),
    ], ids=["no_file", "no_trial_id", "duplicate_trial_id", "not_an_object", "file_not_a_string",
            "label_bool"])
    def test_rejected_as_data_error(self, ds_dir, tmp_path, capsys, mutate, prefix):
        bad = edited_manifest(ds_dir, tmp_path, mutate)
        code, _, err = run(["evaluate", bad, "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith(prefix)
        assert "Traceback" not in err

    @pytest.mark.parametrize("field,value,message", [
        ("subject_id", [1], "BadManifest: subject_id must be a str, got list"),
        ("fs", "512", "BadSampleRate: manifest fs='512', expected 512"),
        ("channels", 5, "BadChannels: manifest channels 5 != expected montage"),
        ("trials", {"a": 1}, "BadManifest: trials must be a list, got dict"),
    ], ids=["subject_id_list", "fs_string", "channels_int", "trials_object"])
    def test_bad_field_is_data_error(self, ds_dir, tmp_path, capsys, field, value, message):
        bad = edited_manifest(ds_dir, tmp_path, **{field: value})
        code, _, err = run(["validate", bad], capsys)
        assert code == cli.EXIT_DATA
        assert err == f"data error: {message}\n"

    def test_root_not_an_object(self, tmp_path, capsys):
        bad = tmp_path / "manifest.json"
        bad.write_text(json.dumps(["subject_id", "fs", "channels", "trials"]))
        code, _, err = run(["validate", str(bad)], capsys)
        assert code == cli.EXIT_DATA
        assert err == "data error: BadManifest: manifest must be an object, got list\n"

    @staticmethod
    def _broken_manifest(ds_dir, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"subject_id": "s", oops}')
        return str(path), f"data error: BadManifest: {str(path)!r}: Expecting property name"

    @staticmethod
    def _broken_trial(ds_dir, tmp_path):
        lines = (ds_dir / "trial_0001.csv").read_text().splitlines(keepends=True)
        lines[4] = "abc" + lines[4][lines[4].index(","):]
        (tmp_path / "bad.csv").write_text("".join(lines))
        bad = edited_manifest(ds_dir, tmp_path,
                              lambda trials: trials[1].update(file=str(tmp_path / "bad.csv")))
        return bad, "data error: BadTrialFile (trial 1): 'bad.csv': could not convert string 'abc'"

    @staticmethod
    def _missing_manifest(ds_dir, tmp_path):
        path = str(tmp_path / "no\nsuch" / "manifest.json")
        return path, f"data error: MissingFile: {path!r}"

    @pytest.mark.parametrize("make", [_broken_manifest, _broken_trial, _missing_manifest],
                             ids=["manifest_not_json", "trial_value_not_a_number",
                                  "manifest_missing_newline_in_path"])
    def test_load_error_names_its_file(self, ds_dir, tmp_path, capsys, make):
        bad, prefix = make(ds_dir, tmp_path)
        code, _, err = run(["validate", bad], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith(prefix)
        assert len(err.splitlines()) == 1

    @staticmethod
    def _reversed_columns(ds_dir, path):
        lines = (ds_dir / "trial_0001.csv").read_text().splitlines()
        path.write_text("".join(",".join(line.split(",")[::-1]) + "\n" for line in lines))
        return str(path)

    def test_reversed_channel_columns(self, ds_dir, tmp_path, capsys):
        reversed_csv = self._reversed_columns(ds_dir, tmp_path / "reversed.csv")
        bad = edited_manifest(ds_dir, tmp_path,
                              lambda trials: trials[1].update(file=reversed_csv))
        code, _, err = run(["evaluate", bad, "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith("data error: BadChannels (trial 1): 'reversed.csv': header ['P4',")
        assert len(err.strip().splitlines()) == 1

    def test_file_name_with_newline_is_one_line(self, ds_dir, tmp_path, capsys):
        odd = self._reversed_columns(ds_dir, tmp_path / "odd\nname.csv")
        bad = edited_manifest(ds_dir, tmp_path, lambda trials: trials[1].update(file=odd))
        code, _, err = run(["validate", bad], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith("data error: BadChannels (trial 1): 'odd\\nname.csv': header")
        assert len(err.splitlines()) == 1


JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text()),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(st.text(), inner, max_size=3)),
    max_leaves=5)


class TestManifestFuzz:
    TOP = ("subject_id", "fs", "channels", "trials")
    ENTRY = ("trial_id", "label", "file")

    @settings(max_examples=150, deadline=None)
    @given(field=st.sampled_from(TOP + ENTRY + ("entry",)), value=JSON_VALUES,
           drop=st.booleans())
    def test_any_field_value_is_ok_or_data_error(self, ds_dir, field, value, drop):
        # one right and one left trial; field is dropped or set to value
        blob = json.loads((ds_dir / "manifest.json").read_text())
        blob["trials"] = [blob["trials"][0], blob["trials"][-1]]
        for entry in blob["trials"]:
            entry["file"] = str(ds_dir / entry["file"])
        target = blob if field in self.TOP else blob["trials"][0]
        if field == "entry":
            blob["trials"][0] = value
        elif drop:
            del target[field]
        else:
            target[field] = value
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "manifest.json"
            path.write_text(json.dumps(blob))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(["validate", str(path)])
        assert code in (cli.EXIT_OK, cli.EXIT_DATA)
        for line in err.getvalue().splitlines():
            assert line.startswith(("data error:", "warning:")), line


class TestReport:
    def test_combines_two_seeds(self, ds_dir, tmp_path, capsys):
        a, b, out = tmp_path / "s0", tmp_path / "s1", tmp_path / "combined"
        run(["evaluate", manifest(ds_dir), "--out", str(a)], capsys)
        run(["evaluate", manifest(ds_dir), "--out", str(b), "--seed", "1"], capsys)
        code, out_text, _ = run(["report", str(a / "report.json"),
                                 str(b / "report.json"), "--out", str(out)], capsys)
        assert code == 0
        combined = json.loads((out / "combined_report.json").read_text())
        assert combined["n_subjects"] == 2
        entry = combined["classifiers"][0]
        assert "accuracy_std_folds" in entry and "accuracy_std_subjects" in entry
        header = (out / "combined_report.csv").read_text().splitlines()[0]
        assert "accuracy_std_folds" in header and "accuracy_std_subjects" in header
        assert "+/-" in out_text

    @pytest.mark.parametrize("blob", [{}, [1], {"subject_id": "s", "classifiers": 5}],
                             ids=["empty_object", "list", "classifiers_int"])
    def test_non_report_is_data_error(self, tmp_path, capsys, blob):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(blob))
        code, _, err = run(["report", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith(f"data error: BadReport: {str(bad)!r} is not an evaluate report")
        assert len(err.splitlines()) == 1

    def test_combined_report_fed_back_is_data_error(self, ds_dir, tmp_path, capsys):
        a, out = tmp_path / "s0", tmp_path / "combined"
        run(["evaluate", manifest(ds_dir), "--out", str(a), "--classifiers", "svm,lda"], capsys)
        run(["report", str(a / "report.json"), "--out", str(out)], capsys)
        combined = out / "combined_report.json"
        code, _, err = run(["report", str(a / "report.json"), str(combined), "--out",
                            str(tmp_path / "again")], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith(f"data error: BadReport: {str(combined)!r} is not an evaluate "
                              "report")
        assert len(err.splitlines()) == 1

    def test_empty_fold_cell_is_data_error(self, ds_dir, tmp_path, capsys):
        a = tmp_path / "s0"
        run(["evaluate", manifest(ds_dir), "--out", str(a), "--classifiers", "svm,lda"], capsys)
        blob = json.loads((a / "report.json").read_text())
        blob["classifiers"][1]["per_fold"][2] = {"tp": 0, "fp": 0, "fn": 0, "tn": 0}
        bad = tmp_path / "zero_cell.json"
        bad.write_text(json.dumps(blob))
        code, _, err = run(["report", str(bad), "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith(f"data error: BadReport: {str(bad)!r} is not an evaluate report")
        assert len(err.splitlines()) == 1

    def test_missing_report_file(self, tmp_path, capsys):
        code, _, _ = run(["report", str(tmp_path / "none.json"), "--out",
                          str(tmp_path / "o")], capsys)
        assert code == 2


class TestFailedCommandOut:
    @staticmethod
    def _empty_classifiers(ds_dir, tmp_path, out):
        return ["evaluate", manifest(ds_dir), "--out", str(out), "--classifiers", ""], \
            cli.EXIT_USAGE

    @staticmethod
    def _mismatched_reports(ds_dir, tmp_path, out):
        paths = []
        for i, kinds in enumerate((["SVM", "KNN", "LDA"], ["SVM", "LDA"])):
            cell = {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
            path = tmp_path / f"report{i}.json"
            path.write_text(json.dumps({"subject_id": "s", "classifiers": [
                {"kind": kind, "per_fold": [cell]} for kind in kinds]}))
            paths.append(str(path))
        return ["report", *paths, "--out", str(out)], cli.EXIT_DATA

    @pytest.mark.parametrize("make", [_empty_classifiers, _mismatched_reports],
                             ids=["evaluate_empty_classifiers", "report_mismatch"])
    def test_removes_the_directories_it_made(self, ds_dir, tmp_path, capsys, make):
        argv, expected = make(ds_dir, tmp_path, tmp_path / "new" / "out")
        code, _, err = run(argv, capsys)
        assert code == expected
        assert len(err.splitlines()) == 1
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize("make", [_empty_classifiers, _mismatched_reports],
                             ids=["evaluate_empty_classifiers", "report_mismatch"])
    def test_keeps_a_directory_that_was_there(self, ds_dir, tmp_path, capsys, make):
        out = tmp_path / "out"
        out.mkdir()
        argv, expected = make(ds_dir, tmp_path, out)
        code, _, _ = run(argv, capsys)
        assert code == expected
        assert out.is_dir()


class TestCheckFirst:
    """Every usage error is found before any input is read, and --out is made
    only by the command's first write."""

    def test_bad_classifier_reads_nothing(self, ds_dir, tmp_path, capsys, monkeypatch):
        calls = []
        files = dataset.TrialFiles
        monkeypatch.setattr(dataset, "TrialFiles",
                            lambda *a, **k: calls.append(a) or files(*a, **k))
        code, _, err = run(["evaluate", manifest(ds_dir), "--classifiers", "bogus",
                            "--out", str(tmp_path / "o")], capsys)
        assert code == cli.EXIT_USAGE
        assert err.startswith("usage error: unknown classifier 'bogus'")
        assert calls == []

    def test_missing_manifest_never_makes_out(self, tmp_path, capsys, monkeypatch):
        new, seen = tmp_path / "new", []
        files = dataset.TrialFiles
        monkeypatch.setattr(dataset, "TrialFiles",
                            lambda *a, **k: seen.append(new.exists()) or files(*a, **k))
        code, _, err = run(["ttest", str(tmp_path / "missing.json"),
                            "--out", str(new / "o")], capsys)
        assert code == cli.EXIT_DATA
        assert err.startswith("data error: MissingFile")
        assert seen == [False]
        assert not new.exists()

    def test_no_command_raises_usage_error(self):
        tree = ast.parse(inspect.getsource(cli))
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and node.name.startswith("cmd_"):
                names = {getattr(n, "id", None) or getattr(n, "attr", None)
                         for n in ast.walk(node)}
                assert "UsageError" not in names, node.name


class TestConfigSchema:
    def test_readme_configuration_block_is_defaults(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        assert json.loads(block) == cli.DEFAULTS

    @settings(max_examples=200, deadline=None)
    @given(path=st.sampled_from([(section, key) for section, keys in cli.DEFAULTS.items()
                                 for key in keys]),
           value=st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
                           st.lists(st.one_of(st.text(), st.integers(), st.none()),
                                    max_size=3),
                           st.dictionaries(st.text(), st.integers(), max_size=2)))
    def test_any_config_value_is_usage_or_data_error(self, path, value):
        # with the manifest missing nothing loads: a bad value exits 1, a good one 2
        section, key = path
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({section: {key: value}}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                code = cli.main(["evaluate", str(Path(tmp) / "missing.json"),
                                 "--config", str(cfg), "--out", str(Path(tmp) / "o")])
        assert code in (cli.EXIT_USAGE, cli.EXIT_DATA)
        assert len(err.getvalue().splitlines()) == 1
        # a value of another JSON type than the default's is always rejected
        default = cli.DEFAULTS[section][key]
        takes = {type(default)} | ({str} if default is None else
                                   {int} if isinstance(default, float) else set())
        if isinstance(value, bool) or type(value) not in takes:
            assert code == cli.EXIT_USAGE


    def test_library_modules_own_choices_and_defaults(self):
        # the CLI reads each choice list and default from the module that uses it
        assert cli.CHOICES["features", "scale"] is features.SCALES
        assert cli.CHOICES["stats", "level"] is stats.LEVELS
        assert cli.CHOICES["cv", "granularity"] is evaluation.GRANULARITIES
        assert cli.CHOICES["fusion", "ranking_source"] is evaluation.RANKING_SOURCES
        for fn, keys in (
                (stats.significance_map, {"alpha": ("stats", "alpha"),
                                          "level": ("stats", "level")}),
                (features.build_feature_matrix, {"scale": ("features", "scale")}),
                (evaluation.run_cv, {"ranking_source": ("fusion", "ranking_source"),
                                     "scale": ("features", "scale"),
                                     "granularity": ("cv", "granularity")})):
            params = inspect.signature(fn).parameters
            for name, (section, key) in keys.items():
                assert params[name].default == cli.DEFAULTS[section][key], (fn.__name__, name)


class TestCommandList:
    """The README command table and --help name exactly the commands main
    dispatches, so a command added or removed without its docs fails here."""

    def test_readme_table_names_every_command(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Commands", 1)[1].split("\n## ", 1)[0]
        names = [line.split("`")[1] for line in section.splitlines() if line.startswith("| `")]
        assert sorted(names) == sorted(cli.COMMANDS)

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--help"])
        assert exc.value.code == 0
        choices = capsys.readouterr().out.split("{", 1)[1].split("}", 1)[0]
        assert sorted(choices.split(",")) == sorted(cli.COMMANDS)


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(["motorclass", "--help"], capture_output=True,
                              text=True)
        assert proc.returncode == 0
        for name in ("synth", "validate", "features", "ttest",
                     "evaluate", "report"):
            assert name in proc.stdout

    def test_module_equivalent(self):
        proc = subprocess.run([sys.executable, "-c",
                               "import sys; from motorclass.cli import main; "
                               "sys.exit(main(['--help']))"],
                              capture_output=True, text=True)
        assert proc.returncode == 0
