"""One exit code per kind of fault: each row of the README exit-code table, and
each data fault a user can cause, ends the CLI with its code and one stderr
line (besides warnings) that names the fault, never with a traceback; a
usage error makes no output directory; a worker pool that cannot start or
loses a worker is exit 4; an exception of any other kind is a bug and
propagates out of cli.main."""

import concurrent.futures
import errno
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motorclass
from motorclass import cli, dataset

SRC = str(Path(motorclass.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def ds(tmp_path_factory):
    """Three trials per side at 6 dB."""
    out = tmp_path_factory.mktemp("exit") / "ds"
    assert cli.main(["synth", "--out", str(out), "--n-per-side", "3",
                     "--asymmetry-db", "6", "--seed", "1"]) == cli.EXIT_OK
    return out


@pytest.fixture(scope="module")
def zeros(tmp_path_factory):
    """Three trials per side whose samples are all 0."""
    trials = [dataset.Trial(i, dataset.RIGHT if i < 3 else dataset.LEFT,
                            np.zeros((len(dataset.CHANNELS), dataset.TRIAL_SAMPLES)))
              for i in range(6)]
    return dataset.save_dataset(dataset.Dataset("zeros", trials),
                                tmp_path_factory.mktemp("exit") / "zeros").parent


def _manifest(ds, tmp, keep=None, **entry_fields):
    """A copy of ds's manifest in tmp, trial files by absolute path, keeping the
    trial entries keep(entries) and updating entry i with entry_fields["t<i>"]."""
    blob = json.loads((ds / "manifest.json").read_text())
    for entry in blob["trials"]:
        entry["file"] = str(ds / entry["file"])
    for key, fields in entry_fields.items():
        blob["trials"][int(key[1:])].update(fields)
    if keep is not None:
        blob["trials"] = keep(blob["trials"])
    path = tmp / "manifest.json"
    path.write_text(json.dumps(blob))
    return str(path)


def _per_side(n):
    return lambda trials: ([e for e in trials if e["label"] == 1][:n]
                           + [e for e in trials if e["label"] == 2][:n])


def _json(tmp, blob):
    path = tmp / "blob.json"
    path.write_text(json.dumps(blob))
    return str(path)


def _reports(tmp, *kind_lists):
    cell = {"tp": 1, "fp": 0, "fn": 0, "tn": 1}
    paths = []
    for i, kinds in enumerate(kind_lists):
        path = tmp / f"report{i}.json"
        path.write_text(json.dumps({"subject_id": "s", "classifiers": [
            {"kind": kind, "per_fold": [cell]} for kind in kinds]}))
        paths.append(str(path))
    return paths


def _not_utf8_header(ds, tmp):
    bad = tmp / "bad.csv"
    bad.write_bytes(b"\xff" + (ds / "trial_0002.csv").read_bytes())
    return ["validate", _manifest(ds, tmp, t2={"file": str(bad)})]


def _not_utf8_report(ds, tmp):
    bad = tmp / "bad.json"
    bad.write_bytes(b"\xff{}")
    return ["report", str(bad), "--out", str(tmp / "o")]


def _report_at_newline_path(ds, tmp):
    bad = tmp / "bad\nreport.json"
    bad.write_text("{}")
    return ["report", str(bad), "--out", str(tmp / "o")]


def _config_at_newline_path(ds, tmp):
    bad = tmp / "bad\ncfg.json"
    bad.write_text("{")
    return ["synth", "--config", str(bad), "--out", str(tmp / "o")]


def _out_under_newline_file(ds, tmp):
    (tmp / "f\nile").write_text("")
    return ["features", str(ds / "manifest.json"), "--out", str(tmp / "f\nile" / "o")]


def _nested(tmp):
    """A JSON file that nests deeper than the parser's stack."""
    path = tmp / "deep.json"
    path.write_text("[" * 100_000)
    return str(path)


def _unwritable_trial_file(ds, tmp):
    (tmp / "o" / "trial_0003.csv").mkdir(parents=True)
    return ["synth", "--n-per-side", "3", "--out", str(tmp / "o")]


def _out_is_a_file(ds, tmp):
    (tmp / "afile").write_text("")
    return ["features", str(ds / "manifest.json"), "--out", str(tmp / "afile")]


# (argv builder taking the dataset and a scratch directory, exit code, prefix
# of the one error line; None for success, which prints no error line)
ROWS = {
    # README: 0 success
    "success": (lambda ds, tmp: ["validate", str(ds / "manifest.json")], 0, None),
    # README: 1 usage error
    "bad_flag": (lambda ds, tmp: ["synth", "--bogus"], 1, "usage error: unrecognized arguments"),
    "bad_config_file": (lambda ds, tmp: ["synth", "--config", str(tmp / "none.json"),
                                         "--out", str(tmp / "o")],
                        1, "usage error: config file not found: "),
    "bad_config_key": (lambda ds, tmp: ["synth", "--config", _json(tmp, {"cv": {"k": 5}}),
                                        "--out", str(tmp / "o")],
                       1, "usage error: unknown config key cv.k"),
    "bad_config_value": (lambda ds, tmp: ["synth", "--config",
                                          _json(tmp, {"cv": {"seed": "x"}}),
                                          "--out", str(tmp / "o")],
                         1, "usage error: cv.seed must be an integer"),
    "out_is_a_file": (_out_is_a_file, 1, "usage error: output directory "),
    # a path is quoted, so a newline in it keeps the message on one line
    "config_missing_newline_in_path": (lambda ds, tmp: ["synth", "--config",
                                                        str(tmp / "no\ncfg.json"),
                                                        "--out", str(tmp / "o")],
                                       1, "usage error: config file not found: "
                                          "'{tmp}/no\\ncfg.json'"),
    "config_not_json_newline_in_path": (_config_at_newline_path, 1,
                                        "usage error: config file '{tmp}/bad\\ncfg.json' is "
                                        "not valid JSON: "),
    "nested_config": (lambda ds, tmp: ["synth", "--config", _nested(tmp),
                                       "--out", str(tmp / "o")],
                      1, "usage error: config file '{tmp}/deep.json' is not valid JSON: "
                         "maximum recursion depth exceeded"),
    "out_under_newline_file": (_out_under_newline_file, 1,
                               "usage error: output directory '{tmp}/f\\nile/o' is not a "
                               "directory"),
    "bad_classifier_missing_manifest": (lambda ds, tmp: ["evaluate", str(tmp / "none.json"),
                                                         "--classifiers", "bogus",
                                                         "--out", str(tmp / "o")],
                                        1, "usage error: unknown classifier 'bogus'"),
    "threshold_without_check": (lambda ds, tmp: ["validate", str(ds / "manifest.json"),
                                                 "--amplitude-threshold", "5"],
                                1, "usage error: --amplitude-threshold is used only with "
                                   "--amplitude-check"),
    # a command takes only the flags it reads: --out where it writes, --seed
    # where it draws random numbers
    "validate_takes_no_out": (lambda ds, tmp: ["validate", str(ds / "manifest.json"),
                                               "--out", str(tmp / "o")],
                              1, "usage error: unrecognized arguments: --out "),
    "features_takes_no_seed": (lambda ds, tmp: ["features", str(ds / "manifest.json"),
                                                "--seed", "1", "--out", str(tmp / "o")],
                               1, "usage error: unrecognized arguments: --seed 1"),
    "ttest_takes_no_seed": (lambda ds, tmp: ["ttest", str(ds / "manifest.json"),
                                             "--seed", "1", "--out", str(tmp / "o")],
                            1, "usage error: unrecognized arguments: --seed 1"),
    "report_takes_no_seed": (lambda ds, tmp: ["report", *_reports(tmp, ["SVM", "KNN", "LDA"]),
                                              "--seed", "1", "--out", str(tmp / "o")],
                             1, "usage error: unrecognized arguments: --seed 1"),
    "no_bands_command": (lambda ds, tmp: ["bands", str(ds / "manifest.json"),
                                          "--out", str(tmp / "o")],
                         1, "usage error: argument command: invalid choice: 'bands'"),
    "nul_in_out_path": (lambda ds, tmp: ["synth", "--config",
                                         _json(tmp, {"io": {"output": "a\0b"}})],
                        1, "usage error: io.output must be a string or null, got 'a\\x00b'"),
    "even_taps": (lambda ds, tmp: ["features", str(ds / "manifest.json"), "--config",
                                   _json(tmp, {"filter": {"taps": 1690}}),
                                   "--out", str(tmp / "o")],
                  1, "usage error: filter: tap count must be odd and in [3, 4096], got 1690"),
    "inverted_band": (lambda ds, tmp: ["features", str(ds / "manifest.json"), "--config",
                                       _json(tmp, {"filter": {"low_hz": 50, "high_hz": 1}}),
                                       "--out", str(tmp / "o")],
                      1, "usage error: filter: invalid band (50, 1) for fs=512"),
    # README: 2 data error, missing or malformed dataset files and bad labels
    "missing_manifest": (lambda ds, tmp: ["validate", str(tmp / "none.json")],
                         2, "data error: MissingFile: "),
    "malformed_manifest": (lambda ds, tmp: ["validate", _json(tmp, [1])],
                           2, "data error: BadManifest: manifest must be an object"),
    "bad_label": (lambda ds, tmp: ["validate", _manifest(ds, tmp, t1={"label": 3})],
                  2, "data error: BadLabel (trial 1): label=3"),
    "nested_manifest": (lambda ds, tmp: ["validate", _nested(tmp)],
                        2, "data error: BadManifest: '{tmp}/deep.json': maximum recursion "
                           "depth exceeded"),
    "nested_report": (lambda ds, tmp: ["report", _nested(tmp), "--out", str(tmp / "o")],
                      2, "data error: BadReport: '{tmp}/deep.json': maximum recursion depth "
                         "exceeded"),
    # data faults raised where they arise
    "too_few_trials_per_side": (lambda ds, tmp: ["evaluate", _manifest(ds, tmp, _per_side(2)),
                                                 "--out", str(tmp / "o")],
                                2, "data error: TooFewTrials: need >= 3 units of label 1, got 2"),
    "one_label_evaluate": (lambda ds, tmp: ["evaluate",
                                            _manifest(ds, tmp, lambda t: t[:3]),
                                            "--out", str(tmp / "o")],
                           2, "data error: TooFewTrials: need >= 3 units of label 2, got 0"),
    "one_label_ttest": (lambda ds, tmp: ["ttest", _manifest(ds, tmp, lambda t: t[:3]),
                                         "--out", str(tmp / "o")],
                        2, "data error: OneLabel: significance_map needs rows of both labels"),
    "unequal_counts": (lambda ds, tmp: ["ttest", _manifest(ds, tmp, lambda t: t[:5]),
                                        "--out", str(tmp / "o")],
                       2, "data error: UnequalCounts: the rank-paired t-test needs equal "
                          "right/left counts, got 24 right and 16 left"),
    "one_pair_trial_level": (lambda ds, tmp: ["ttest", _manifest(ds, tmp, _per_side(1)),
                                              "--level", "trial", "--out", str(tmp / "o")],
                             2, "data error: TooFewPairs: paired_t needs at least 2 pairs, got 1"),
    "knn_k_above_rows": (lambda ds, tmp: ["evaluate", str(ds / "manifest.json"), "--config",
                                          _json(tmp, {"train": {"knn_k": 10001}}),
                                          "--out", str(tmp / "o")],
                         2, "data error: TooFewRows: KNN needs at least k=10001 training rows, "
                            "got 32"),
    "classifier_mismatch": (lambda ds, tmp: ["report", *_reports(tmp, ["SVM", "KNN", "LDA"],
                                                                 ["SVM", "LDA"]),
                                             "--out", str(tmp / "o")],
                            2, "data error: ClassifierMismatch: reports disagree on classifier "
                               "sets: report 2 has ['SVM', 'LDA'], report 1 has "),
    "not_utf8_trial_header": (_not_utf8_header, 2,
                              "data error: BadTrialFile (trial 2): 'bad.csv': 'utf-8' codec "
                              "can't decode byte 0xff in position 0"),
    "not_utf8_report": (_not_utf8_report, 2,
                        "data error: BadReport: '{tmp}/bad.json': 'utf-8' codec can't decode "
                        "byte 0xff in position 0"),
    "report_missing_newline_in_path": (lambda ds, tmp: ["report", str(tmp / "no\nsuch.json"),
                                                        "--out", str(tmp / "o")],
                                       2, "data error: MissingFile: '{tmp}/no\\nsuch.json'"),
    "not_a_report_newline_in_path": (_report_at_newline_path, 2,
                                     "data error: BadReport: '{tmp}/bad\\nreport.json' is not "
                                     "an evaluate report"),
    # an OS error reading inputs or writing outputs gives the OS's text
    "unwritable_trial_file": (_unwritable_trial_file, 2,
                              "data error: [Errno 21] Is a directory: '{tmp}/o/trial_0003.csv'"),
    # README: 3 numeric error
    "constant_features": (lambda zeros, tmp: ["evaluate", str(zeros / "manifest.json"),
                                              "--out", str(tmp / "o")],
                          3, "numeric error: no usable stump: every feature is constant"),
    "singular_covariance": (lambda zeros, tmp: ["evaluate", str(zeros / "manifest.json"),
                                                "--classifiers", "svm,knn,lda",
                                                "--out", str(tmp / "o")],
                            3, "numeric error: pooled covariance is not positive definite"),
}
ON_ZEROS = {"constant_features", "singular_covariance"}


@pytest.mark.parametrize("row", ROWS, ids=ROWS)
def test_exit_code_and_one_line(request, tmp_path, capsys, row):
    make, code, prefix = ROWS[row]
    data = request.getfixturevalue("zeros" if row in ON_ZEROS else "ds")
    assert cli.main(make(data, tmp_path)) == code
    err = capsys.readouterr().err
    assert "Traceback" not in err
    errors = [line for line in err.splitlines() if not line.startswith("warning: ")]
    if prefix is None:
        assert errors == []
    else:
        assert len(errors) == 1, err
        assert errors[0].startswith(prefix.format(tmp=tmp_path)), err
    if code == cli.EXIT_USAGE:   # found before the first write, so no --out is made
        assert not (tmp_path / "o").exists()


# README: 4 system error, a worker process that could not start or died
@pytest.mark.parametrize("command", ["validate", "ttest"])
@pytest.mark.parametrize("fault", ["cannot_start", "worker_killed"])
def test_pool_fault_is_exit_4_and_one_line(ds, tmp_path, capsys, pool_on, monkeypatch, fault,
                                           command):
    if fault == "cannot_start":
        def no_pool(*args, **kwargs):
            raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        prefix = "system error: could not start 2 worker processes: [Errno 11] "
    else:
        parent, read = os.getpid(), dataset._read_trial

        def read_or_die(entry):
            if entry[0] == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)   # as the out-of-memory killer would
            return read(entry)
        monkeypatch.setattr(dataset, "_read_trial", read_or_die)
        prefix = "system error: a worker process died before it finished"
    pool_on(2)
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert cli.main([command, str(ds / "manifest.json"), *out]) == cli.EXIT_SYSTEM
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith(prefix), err
    assert multiprocessing.active_children() == []
    assert not (tmp_path / "o").exists()


def test_bare_value_error_is_a_bug_that_propagates(ds, tmp_path, monkeypatch):
    def broken(args, cfg, out):
        raise ValueError("a bug, not a data fault")

    monkeypatch.setitem(cli.COMMANDS, "features", broken)
    with pytest.raises(ValueError, match="a bug, not a data fault"):
        cli.main(["features", str(ds / "manifest.json"), "--out", str(tmp_path / "new" / "o")])
    # the output directory it created goes too, as for any failed command
    assert not (tmp_path / "new").exists()


@pytest.mark.parametrize("command", ["validate", "ttest"])
def test_header_only_trial_is_one_line(ds, tmp_path, command):
    # a child process, so a warning printed by a pool worker is seen too
    head = tmp_path / "head.csv"
    head.write_text((ds / "trial_0002.csv").read_text().split("\n", 1)[0] + "\n")
    argv = [command, _manifest(ds, tmp_path, t2={"file": str(head)})]
    argv += ["--out", str(tmp_path / "o")] if command == "ttest" else []
    proc = subprocess.run([sys.executable, "-m", "motorclass.cli", *argv],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == cli.EXIT_DATA
    assert proc.stderr == ("data error: BadSampleCount (trial 2): 'head.csv': 0 rows x 1 cols, "
                           f"expected {dataset.TRIAL_SAMPLES} x {len(dataset.CHANNELS)}\n")
