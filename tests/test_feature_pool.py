"""build_feature_matrix filters and PSDs trials in dataset.fork_map's pool of
forked processes: it must give the bytes of the sequential loop kept as
oracles.build_feature_matrix_reference on one CPU or several, and drop each
trial's rows once they are written into the matrix; fork_map must keep item
order, pickle neither its function nor its items, raise the first failing
item's exception, turn a pool that cannot start or a worker that dies into
one PoolError, and leave no worker or job behind, also when its consumer
stops early."""

import concurrent.futures
import contextlib
import errno
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import time
import weakref
from multiprocessing.process import BaseProcess
from pathlib import Path

import pytest

import motorclass
from motorclass import dataset, dsp
from motorclass.dataset import (DataError, PoolError, SynthConfig, fork_map, generate_synthetic,
                                save_dataset)
from motorclass.features import build_feature_matrix
from conftest import _RecordingPool
from oracles import build_feature_matrix_reference

SRC = str(Path(motorclass.__file__).resolve().parents[1])


@pytest.fixture(scope="module")
def six():
    """Six trials, three per side, with a 6 dB alpha asymmetry."""
    return generate_synthetic(SynthConfig(n_trials_per_side=3, asymmetry_db=6.0, seed=5))


def _arrays(fm):
    return [(a.dtype, a.shape, a.tobytes()) for a in (fm.X, fm.y, fm.trial_ids, fm.epochs)]


@pytest.mark.parametrize("scale", ["linear", "db"])
@pytest.mark.parametrize("n_trials", [1, 3, 6])
@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
def test_matches_sequential_reference(six, bp_filter, pool_on, cpus, n_trials, scale):
    ds = dataset.Dataset(subject_id=six.subject_id, trials=six.trials[:n_trials])
    expected = _arrays(build_feature_matrix_reference(ds, bp_filter, scale=scale))
    pool_on(cpus)
    assert _arrays(build_feature_matrix(ds, bp_filter, scale=scale)) == expected
    assert _RecordingPool.sizes == ([2] if cpus == 2 and n_trials > 1 else [])
    assert multiprocessing.active_children() == []


class _AlivePool(_RecordingPool):
    """Counts, as each result is handed back, the earlier results' rows that
    are still alive."""
    alive = []

    def map(self, fn, *iterables, **kwargs):
        refs = []
        for result in super().map(fn, *iterables, **kwargs):
            refs.append(weakref.ref(result[2]))
            self.alive.append(sum(ref() is not None for ref in refs[:-1]))
            yield result


def test_each_trials_rows_are_dropped_once_written(six, bp_filter, pool_on, monkeypatch):
    pool_on(2)
    monkeypatch.setattr(_AlivePool, "alive", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _AlivePool)
    fm = build_feature_matrix(six, bp_filter)
    assert fm.n_rows == 6 * dataset.EPOCHS_PER_TRIAL
    # only the previous trial's rows, still bound to the loop's variables
    assert _AlivePool.alive == [0] + [1] * 5


class TestForkMap:
    @pytest.mark.parametrize("cpus", [1, 2, 3], ids=["one_cpu", "two_cpus", "three_cpus"])
    def test_keeps_item_order(self, pool_on, cpus):
        pool_on(cpus)
        for n in (9, 50):  # chunks of 1 or 2 items, then of 5 or 7
            assert list(fork_map(lambda x: x * x, list(range(n)))) == [x * x for x in range(n)]
        assert _RecordingPool.sizes == ([] if cpus == 1 else [cpus, cpus])

    def test_single_item_runs_in_the_calling_process(self, pool_on):
        pool_on(2)
        assert list(fork_map(lambda x: os.getpid(), [0])) == [os.getpid()]
        assert _RecordingPool.sizes == []

    def test_runs_a_closure_it_cannot_pickle(self, six, bp_filter, pool_on):
        def fn(samples):
            return dsp._filter_rows(bp_filter, samples)

        with pytest.raises((pickle.PicklingError, AttributeError)):
            pickle.dumps(fn)
        items = [t.samples for t in six.trials[:4]]
        pool_on(2)
        got = list(fork_map(fn, items))
        assert [a.tobytes() for a in got] == [fn(x).tobytes() for x in items]
        assert os.getpid() not in list(fork_map(lambda x: os.getpid(), items))
        assert _RecordingPool.sizes == [2, 2]
        assert dataset._JOB is None
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("n_items", [6, 24])  # chunks of 1, then of 3
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
    def test_first_failing_item_wins(self, pool_on, cpus, n_items):
        def fn(x):
            if x == 2:
                time.sleep(0.3)  # item 4 fails first in time, item 2 first in order
                raise DataError("BadItem", "item 2 is bad", trial_id=2)
            if x == 4:
                raise ZeroDivisionError("item 4 is bad")
            return x

        pool_on(cpus)
        with pytest.raises(DataError) as err:
            list(fork_map(fn, list(range(n_items))))
        assert (type(err.value), str(err.value)) == (DataError, "BadItem (trial 2): item 2 is bad")
        assert dataset._JOB is None
        assert multiprocessing.active_children() == []
        assert _RecordingPool.sizes == ([] if cpus == 1 else [2])

    def test_job_is_cleared_after_success(self, pool_on):
        pool_on(2)
        assert list(fork_map(lambda x: x + 1, [1, 2, 3])) == [2, 3, 4]
        assert dataset._JOB is None
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("stop", ["break", "raise"])
    def test_consumer_that_stops_early_leaves_no_process(self, pool_on, stop):
        pool_on(2)
        got = []
        with contextlib.suppress(KeyError):
            for x in fork_map(lambda x: x, list(range(24))):
                got.append(x)
                if x == 2 and stop == "break":
                    break
                if x == 2:
                    raise KeyError(x)
        assert got == [0, 1, 2]
        assert _RecordingPool.sizes == [2]
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_a_pool_error(self, pool_on):
        parent = os.getpid()

        def fn(x):
            if x == 3 and os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)   # as the out-of-memory killer would
            return x

        pool_on(2)
        with pytest.raises(PoolError, match="^a worker process died before it finished"):
            list(fork_map(fn, list(range(8))))
        assert _RecordingPool.sizes == [2]
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fails", ["pool", "second_fork"])
    def test_pool_that_cannot_start_is_a_pool_error(self, pool_on, monkeypatch, fails):
        eagain = OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        if fails == "pool":
            def no_pool(*args, **kwargs):
                raise eagain
            monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        else:   # the first worker is forked and waits for a task
            start = BaseProcess.start

            def start_one(process):
                if multiprocessing.active_children():
                    raise eagain
                start(process)
            monkeypatch.setattr(BaseProcess, "start", start_one)
        pool_on(2)
        with pytest.raises(PoolError) as err:
            list(fork_map(lambda x: x, list(range(8))))
        assert str(err.value) == f"could not start 2 worker processes: {eagain}"
        assert multiprocessing.active_children() == []


def test_cli_ttest_leaves_no_process(six, tmp_path):
    manifest = save_dataset(six, tmp_path / "data")
    out = tmp_path / "out"
    # a new session makes the command and any worker it forks one process group
    proc = subprocess.Popen([sys.executable, "-m", "motorclass.cli", "ttest", str(manifest),
                             "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                            start_new_session=True, env={**os.environ, "PYTHONPATH": SRC})
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    assert "Traceback" not in err
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    assert (out / "ttest_map.csv").is_file()
