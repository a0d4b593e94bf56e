"""Shared fixtures. The Monte-Carlo style results (multi-seed generation runs,
cross-validation sweeps) are computed once per session and reused by both the
module tests and the acceptance gate. pool_on and its _RecordingPool are the
one spy on the process pools that dataset.fork_map makes; cli_peak_mib reads
a CLI child's peak memory."""

import concurrent.futures
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import motorclass
from motorclass import classifiers, dataset, dsp, evaluation, features, stats

SRC = str(Path(motorclass.__file__).resolve().parents[1])

# spawned from a fresh, small interpreter: Linux starts a program's peak-RSS
# count at that of the process that spawns it, and pytest's can be far larger
_PEAK = """
import os, sys
argv = [sys.executable, "-m", "motorclass.cli", *sys.argv[1:]]
actions = [(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)]
pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=actions)
_, status, usage = os.wait4(pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def cli_peak_mib(argv) -> float:
    """Peak RSS in MiB, read with wait4, of one `motorclass` CLI child that
    must exit 0."""
    done = subprocess.run([sys.executable, "-c", _PEAK, *map(str, argv)],
                          capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": SRC})
    code, peak_kib = map(int, done.stdout.split())
    assert code == 0, done.stderr
    return peak_kib / 1024


class _RecordingPool(concurrent.futures.ProcessPoolExecutor):
    sizes = []

    def __init__(self, max_workers, **kwargs):
        self.sizes.append(max_workers)
        super().__init__(max_workers, **kwargs)


@pytest.fixture
def pool_on(monkeypatch):
    """Sets the CPUs the process may run on and records every pool made."""
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _RecordingPool)

    def cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return cpus


@pytest.fixture(scope="session")
def bp_filter():
    return dsp.design_bandpass(512, 1.0, 50.0, 1691)


@pytest.fixture(scope="session")
def ds80():
    """80-trial separable dataset (6 dB alpha asymmetry on C3/C4), seed 0."""
    return dataset.generate_synthetic(dataset.SynthConfig(asymmetry_db=6.0, seed=0))


@pytest.fixture(scope="session")
def fm80(ds80, bp_filter):
    return features.build_feature_matrix(ds80, bp_filter)


@pytest.fixture(scope="session")
def null_fractions(bp_filter):
    """Significant-cell fraction at alpha=0.05 on 0 dB data, seeds 0..19."""
    out = []
    for seed in range(20):
        ds = dataset.generate_synthetic(dataset.SynthConfig(asymmetry_db=0.0, seed=seed))
        fm = features.build_feature_matrix(ds, bp_filter)
        out.append(float(stats.significance_map(fm, alpha=0.05).significant.mean()))
    return out


@pytest.fixture(scope="session")
def recovery_reports():
    """Cross-validation reports on 6 dB alpha C3/C4 datasets, seeds 0..4."""
    reports = []
    for seed in range(5):
        ds = dataset.generate_synthetic(dataset.SynthConfig(asymmetry_db=6.0, seed=seed))
        reports.append(evaluation.run_cv(ds, classifiers.TrainConfig(seed=seed), seed=seed))
    return reports


@pytest.fixture(scope="session")
def randomized_reports():
    """Cross-validation reports after a seeded label shuffle, seeds 0..4."""
    reports = []
    for seed in range(5):
        ds = dataset.generate_synthetic(dataset.SynthConfig(asymmetry_db=6.0, seed=seed))
        rng = np.random.default_rng(1000 + seed)
        labels = np.array([t.label for t in ds.trials])
        rng.shuffle(labels)
        for trial, label in zip(ds.trials, labels):
            trial.label = int(label)
        reports.append(evaluation.run_cv(ds, classifiers.TrainConfig(seed=seed), seed=seed))
    return reports


def accuracy_of(report: dict, kind: str) -> float:
    entry = next(e for e in report["classifiers"] if e["kind"] == kind)
    return entry["accuracy_mean"]
