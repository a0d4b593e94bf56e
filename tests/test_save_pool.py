"""save_dataset writes trial files in dataset.fork_map's pool of forked
processes: on one CPU or several it must leave the directory, or raise the
error, of the sequential loop kept as oracles.save_dataset_reference, and no
worker may outlive the call or the synth command."""

import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

import motorclass
from motorclass import dataset
from motorclass.dataset import Dataset, SynthConfig, generate_synthetic, save_dataset
from conftest import _RecordingPool
from oracles import save_dataset_reference

SRC = str(Path(motorclass.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def six():
    """Six trials, three per side, with a 6 dB alpha asymmetry."""
    return generate_synthetic(SynthConfig(n_trials_per_side=3, asymmetry_db=6.0, seed=3))


def _two(six):
    return Dataset(subject_id=six.subject_id, trials=six.trials[:1] + six.trials[3:4])


def _stale(out):
    """An --out that already holds trial files the new manifest does not list,
    one it does, and a file that is no trial's."""
    out.mkdir()
    (out / "trial_0099.csv").write_text("stale\n")
    (out / "trial_0001.csv").write_text("overwritten\n")
    (out / "notes.txt").write_text("kept\n")


# each case: a set-up of the empty --out, then the datasets saved into it in order
CASES = {
    "fresh": (lambda out: None, lambda six: [six]),
    "stale_files": (_stale, lambda six: [six]),
    "six_then_two": (lambda out: None, lambda six: [six, _two(six)]),
}


def _contents(folder):
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("case", CASES.values(), ids=CASES.keys())
def test_matches_sequential_reference(six, tmp_path, pool_on, case, cpus):
    setup, make = case
    datasets = make(six)
    for name, save in (("reference", save_dataset_reference), ("pool", save_dataset)):
        setup(tmp_path / name)
        if name == "pool":
            pool_on(cpus)
        for ds in datasets:
            assert save(ds, tmp_path / name) == tmp_path / name / "manifest.json"
    want = _contents(tmp_path / "reference")
    assert _contents(tmp_path / "pool") == want
    assert len([name for name in want if name.startswith("trial_")]) == len(datasets[-1].trials)
    assert _RecordingPool.sizes == ([2] * len(datasets) if cpus == 2 else [])
    assert dataset._JOB is None
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
def test_first_failing_write_wins(six, tmp_path, pool_on, cpus):
    out = tmp_path / "out"
    (out / "trial_0003.csv").mkdir(parents=True)
    with pytest.raises(OSError) as want:
        save_dataset_reference(six, out)
    assert not (out / "manifest.json").exists()
    pool_on(cpus)
    with pytest.raises(OSError) as got:
        save_dataset(six, out)
    assert type(want.value) is IsADirectoryError
    assert (type(got.value), str(got.value)) == (type(want.value), str(want.value))
    assert not (out / "manifest.json").exists()
    assert _RecordingPool.sizes == ([2] if cpus == 2 else [])
    assert dataset._JOB is None
    assert multiprocessing.active_children() == []


def test_cli_synth_leaves_no_process(tmp_path):
    out = tmp_path / "out"
    # a new session makes the command and any worker it forks one process group
    proc = subprocess.Popen([sys.executable, "-m", "motorclass.cli", "synth", "--n-per-side", "4",
                             "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True, env={**os.environ, "PYTHONPATH": SRC})
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert "Traceback" not in err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert len(list(out.glob("trial_*.csv"))) == 8
