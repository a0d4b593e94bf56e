"""load_dataset parses trial files in a pool of forked processes: it must give
the samples and the first error of the sequential loop kept as
oracles.load_dataset_reference, on one CPU or several, and no worker may
outlive the call. Built from TrialFiles, the feature matrix reads each trial
in the worker that filters and PSDs it: it must equal the one the sequential
loops give, bit for bit, only each trial's rows may come back, and the
commands that featurize never read a trial file in the calling process."""

import concurrent.futures
import json
import multiprocessing
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import motorclass
from motorclass import cli, dataset, features
from motorclass.dataset import DataError, SynthConfig, generate_synthetic, save_dataset
from conftest import _RecordingPool
from oracles import build_feature_matrix_reference, load_dataset_reference

SRC = str(Path(motorclass.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """Six trials, three per side, saved once; cases edit copies of them."""
    ds = generate_synthetic(SynthConfig(n_trials_per_side=3, asymmetry_db=6.0, seed=2))
    return save_dataset(ds, tmp_path_factory.mktemp("pool") / "d").parent


def _lines(edit):
    """A file edit that rewrites the list of the file's byte lines in place."""
    def apply(data):
        lines = data.split(b"\n")
        edit(lines)
        return b"\n".join(lines)
    return apply


def _set_cell(line_no, cell):
    def edit(lines):
        lines[line_no] = cell + b"," + lines[line_no].split(b",", 1)[1]
    return _lines(edit)


TEXT_CELL = _set_cell(1, b"abc")
NAN_CELL = _set_cell(2, b"nan")
NOT_UTF8_BODY = _set_cell(3000, b"\xff1.0")
DROP_ROW = _lines(lambda lines: lines.pop(-2))
REVERSED_HEADER = _lines(
    lambda lines: lines.__setitem__(0, b",".join(lines[0].split(b",")[::-1])))
NOT_UTF8_HEADER = _lines(lambda lines: lines.__setitem__(0, b"\xff" + lines[0]))
HEADER_ONLY = _lines(lambda lines: lines.__delitem__(slice(1, None)))


def _file(edit):
    """An entry edit that points the entry at an edited copy of its file."""
    def apply(entry, folder):
        src = Path(entry["file"])
        dst = folder / f"edited_{src.name}"
        dst.write_bytes(edit(src.read_bytes()))
        entry["file"] = str(dst)
    return apply


def _field(**fields):
    return lambda entry, folder: entry.update(fields)


# manifest cases: (trial position, entry edit) pairs, applied in order
CASES = {
    "clean": [],
    "corrupt_file_before_bad_label": [(1, _file(TEXT_CELL)), (3, _field(label=3))],
    "bad_label_before_corrupt_file": [(1, _field(label=3)), (3, _file(TEXT_CELL))],
    "two_corrupt_files": [(1, _file(DROP_ROW)), (4, _file(TEXT_CELL))],
    "duplicate_id_after_bad_header": [(1, _file(REVERSED_HEADER)), (3, _field(trial_id=0))],
    "not_utf8_header": [(2, _file(NOT_UTF8_HEADER))],
    "not_utf8_body": [(2, _file(NOT_UTF8_BODY))],
    "nan_cell": [(2, _file(NAN_CELL))],
    "nan_cell_before_missing_file": [(2, _file(NAN_CELL)), (4, _field(file="nope.csv"))],
    "header_only": [(2, _file(HEADER_ONLY))],
}


def _manifest(base, folder, edits) -> Path:
    blob = json.loads((base / "manifest.json").read_text())
    for entry in blob["trials"]:
        entry["file"] = str(base / entry["file"])
    for position, edit in edits:
        edit(blob["trials"][position], folder)
    path = folder / "manifest.json"
    path.write_text(json.dumps(blob))
    return path


def _outcome(load, path):
    """What a loader gives: every trial's id, label and sample bytes, or the
    error's type, message and trial id."""
    try:
        ds = load(path)
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "trial_id", None))
    return ("ok", ds.subject_id,
            [(t.trial_id, t.label, t.samples.dtype, t.samples.shape,
              t.samples.flags.c_contiguous, t.samples.tobytes()) for t in ds.trials])


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("edits", CASES.values(), ids=CASES.keys())
def test_matches_sequential_reference(base, tmp_path, monkeypatch, edits, cpus):
    path = _manifest(base, tmp_path, edits)
    expected = _outcome(load_dataset_reference, path)
    _cpus(monkeypatch, cpus)
    assert _outcome(dataset.load_dataset, path) == expected
    assert expected[0] == ("ok" if not edits else "error")


class _SizingPool(_RecordingPool):
    """Records the pickled size of every result a pool hands back, which is
    what its workers sent through the pipe."""
    result_bytes = []

    def map(self, fn, *iterables, **kwargs):
        for result in super().map(fn, *iterables, **kwargs):
            self.result_bytes.append(len(pickle.dumps(result)))
            yield result


def _fm_outcome(build):
    """What a feature-matrix build gives: its arrays' bytes, or the error's
    type, message and trial id."""
    try:
        fms = build()
    except Exception as exc:
        return ("error", type(exc), str(exc), getattr(exc, "trial_id", None))
    return ("ok", [[(a.dtype, a.shape, a.tobytes()) for a in (fm.X, fm.y, fm.trial_ids, fm.epochs)]
                   for fm in fms])


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("edits", CASES.values(), ids=CASES.keys())
def test_fused_load_matches_sequential_reference(base, bp_filter, tmp_path, pool_on, edits,
                                                 cpus):
    path = _manifest(base, tmp_path, edits)

    def reference():
        ds = load_dataset_reference(path)
        return [build_feature_matrix_reference(ds, bp_filter, scale) for scale in features.SCALES]

    def fused():
        files = dataset.TrialFiles(path)
        ds = dataset.Dataset(files.subject_id, files)
        return [features.build_feature_matrix(ds, bp_filter, scale) for scale in features.SCALES]

    expected = _fm_outcome(reference)
    pool_on(cpus)
    assert _fm_outcome(fused) == expected
    assert expected[0] == ("ok" if not edits else "error")
    # one pool per build, each reading the files again; the first fault ends
    # the first build; none on one CPU
    builds = 2 if expected[0] == "ok" else 1
    assert _RecordingPool.sizes == ([2] * builds if cpus == 2 else [])
    assert multiprocessing.active_children() == []


def test_fused_trials_send_back_rows_only(base, bp_filter, pool_on, monkeypatch):
    pool_on(2)
    monkeypatch.setattr(_SizingPool, "result_bytes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _SizingPool)
    files = dataset.TrialFiles(base / "manifest.json")
    fm = features.build_feature_matrix(dataset.Dataset(files.subject_id, files), bp_filter)
    assert fm.X.shape == (6 * dataset.EPOCHS_PER_TRIAL, features.N_FEATURES)
    # a trial's samples are 393,216 bytes and its rows 19,200
    assert len(_SizingPool.result_bytes) == 6
    assert max(_SizingPool.result_bytes) < 2 * fm.X[:dataset.EPOCHS_PER_TRIAL].nbytes


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("command", ["validate", "features", "ttest", "evaluate"])
def test_each_file_is_read_once_and_by_a_worker(base, tmp_path, pool_on, monkeypatch, command,
                                                cpus):
    """A loop over TrialFiles in the calling process (a label count,
    make_folds) would read every file again there."""
    log, read = tmp_path / "reads.log", dataset._read_trial

    def spy(entry):
        with open(log, "a") as fh:
            fh.write(f"{os.getpid()} {entry[2].name}\n")
        return read(entry)

    monkeypatch.setattr(dataset, "_read_trial", spy)
    pool_on(cpus)
    out = [] if command == "validate" else ["--out", str(tmp_path / "o")]
    assert cli.main([command, str(base / "manifest.json"), *out]) == 0
    reads = [line.split(" ") for line in log.read_text().splitlines()]
    assert sorted(name for _, name in reads) == [f"trial_{i:04d}.csv" for i in range(6)]
    callers = {int(pid) for pid, _ in reads}
    assert (callers == {os.getpid()}) if cpus == 1 else (os.getpid() not in callers)


def test_reference_reads_the_saved_samples(base):
    ds = generate_synthetic(SynthConfig(n_trials_per_side=3, asymmetry_db=6.0, seed=2))
    loaded = load_dataset_reference(base / "manifest.json")
    assert [t.samples.tobytes() for t in loaded.trials] == [t.samples.tobytes() for t in ds.trials]


@pytest.mark.parametrize("edits", [[], [(3, _file(TEXT_CELL))]],
                         ids=["success", "fault_mid_list"])
def test_no_worker_outlives_the_call(base, tmp_path, pool_on, edits):
    path = _manifest(base, tmp_path, edits)
    pool_on(2)
    if edits:
        with pytest.raises(DataError) as err:
            dataset.load_dataset(path)
        assert (err.value.code, err.value.trial_id) == ("BadTrialFile", 3)
    else:
        assert len(dataset.load_dataset(path).trials) == 6
    assert _RecordingPool.sizes == [2]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("error", [DataError("BadLabel", "label=3", trial_id=4),
                                   DataError("EmptyDataset", "manifest lists zero trials")],
                         ids=["with_trial", "without_trial"])
def test_data_error_survives_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is DataError
    assert (copy.code, copy.message, copy.trial_id, str(copy)) == \
        (error.code, error.message, error.trial_id, str(error))


def test_cli_import_leaves_out_the_pool_modules():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, motorclass.cli; "
         "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": SRC})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_corrupt_trial_is_one_line_and_leaves_no_process(base, tmp_path):
    path = _manifest(base, tmp_path, [(2, _file(TEXT_CELL))])
    out = tmp_path / "out"
    # a new session makes the command and any worker it forks one process group
    proc = subprocess.Popen([sys.executable, "-m", "motorclass.cli", "ttest", str(path),
                             "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True, env={**os.environ, "PYTHONPATH": SRC})
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 2
    assert err.startswith("data error: BadTrialFile (trial 2): 'edited_trial_0002.csv': ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert not out.exists()
