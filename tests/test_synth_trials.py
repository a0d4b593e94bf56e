"""SyntheticTrials makes each trial on its own, from the generator advanced past
the draws of the trials before it: every trial, and generate_synthetic, must
equal oracles.generate_synthetic_reference bit for bit. The synth command
makes each trial in the worker that writes it, so its directory must equal
the reference's, its calling process makes no trial when it has workers, and
its peak memory does not grow with the trial count."""

import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from motorclass import cli, dataset
from motorclass.dataset import (CHANNELS, GEN_BAND_HZ, DataError, SynthConfig, SyntheticTrials,
                                generate_synthetic)
from conftest import _RecordingPool, cli_peak_mib
from oracles import generate_synthetic_reference, save_dataset_reference


def _bits(trials):
    return [(t.trial_id, t.label, t.samples.dtype, t.samples.shape, t.samples.tobytes())
            for t in trials]


@st.composite
def configs(draw):
    asymmetry = draw(st.one_of(st.just(0.0), st.floats(0.1, 12.0)))
    targets = draw(st.lists(st.sampled_from(CHANNELS), min_size=1, max_size=4, unique=True))
    try:
        return SynthConfig(n_trials_per_side=draw(st.integers(1, 4)), asymmetry_db=asymmetry,
                           target_band=draw(st.sampled_from(sorted(GEN_BAND_HZ))),
                           target_channels=tuple(targets),
                           noise_model=draw(st.floats(0.3, 2.5)),
                           seed=draw(st.integers(0, 2 ** 32 - 1)))
    except DataError:   # midline-only targets with an asymmetry
        assume(False)


@settings(max_examples=25, deadline=None)
@given(configs())
def test_each_trial_equals_the_sequential_generator(config):
    want = _bits(generate_synthetic_reference(config).trials)
    assert _bits(generate_synthetic(config).trials) == want
    trials = SyntheticTrials(config)
    assert len(trials) == len(want)
    # made one at a time, last first, each from a fresh generator
    assert _bits(trials[tt] for tt in reversed(range(len(trials)))) == want[::-1]
    with pytest.raises(IndexError):
        trials[len(trials)]


def test_targets_cover_midline_and_one_hemisphere():
    # C3 and P3 share the left group and FCz is never boosted, so each trial
    # advances past two boosted channels' draws
    config = SynthConfig(n_trials_per_side=2, asymmetry_db=3.0,
                         target_channels=("C3", "P3", "FCz"), seed=11)
    assert [len(SyntheticTrials(config).boosted[label])
            for label in (dataset.RIGHT, dataset.LEFT)] == [2, 2]
    assert (_bits(generate_synthetic(config).trials)
            == _bits(generate_synthetic_reference(config).trials))


CONFIG = SynthConfig(n_trials_per_side=3, asymmetry_db=6.0, seed=7)
ARGV = ["synth", "--n-per-side", "3", "--asymmetry-db", "6", "--seed", "7"]


def _stale(out):
    """An --out that already holds trial files the new manifest does not list,
    one it does, and a file that is no trial's."""
    out.mkdir()
    (out / "trial_0099.csv").write_text("stale\n")
    (out / "trial_0001.csv").write_text("overwritten\n")
    (out / "notes.txt").write_text("kept\n")


def _contents(folder):
    return {path.name: path.read_bytes() for path in sorted(folder.iterdir())}


@pytest.fixture
def made(monkeypatch):
    """The indices of the trials SyntheticTrials makes in this process."""
    indices = []
    make = SyntheticTrials.__getitem__

    def spy(self, tt):
        trial = make(self, tt)   # iteration ends at the IndexError of len(self)
        indices.append(tt)
        return trial
    monkeypatch.setattr(SyntheticTrials, "__getitem__", spy)
    return indices


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
def test_cli_synth_writes_the_reference_bytes(tmp_path, pool_on, made, capsys, cpus):
    for folder in (tmp_path / "want", tmp_path / "got"):
        _stale(folder)
    save_dataset_reference(generate_synthetic_reference(CONFIG), tmp_path / "want")
    made.clear()
    pool_on(cpus)
    assert cli.main([*ARGV, "--out", str(tmp_path / "got")]) == 0
    got = _contents(tmp_path / "got")
    assert json.loads(got.pop("effective_config.json"))["synth"]["seed"] == 7
    assert got == _contents(tmp_path / "want")
    assert "trial_0099.csv" not in got and got["notes.txt"] == b"kept\n"
    assert capsys.readouterr().out == f"{tmp_path / 'got' / 'manifest.json'}\n"
    # with workers, the calling process makes no trial; alone, it makes each once
    assert made == ([] if cpus == 2 else list(range(6)))
    assert _RecordingPool.sizes == ([2] if cpus == 2 else [])


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
def test_cli_synth_reports_the_first_failing_trial(tmp_path, pool_on, capsys, cpus):
    want_dir, got_dir = tmp_path / "want", tmp_path / "got"
    for folder in (want_dir, got_dir):
        (folder / "trial_0003.csv").mkdir(parents=True)
        (folder / "trial_0005.csv").mkdir()
    with pytest.raises(OSError) as want:
        save_dataset_reference(generate_synthetic_reference(CONFIG), want_dir)
    assert type(want.value) is IsADirectoryError and "trial_0003.csv" in str(want.value)
    pool_on(cpus)
    assert cli.main([*ARGV, "--out", str(got_dir)]) == 2
    assert capsys.readouterr().err == f"data error: {want.value}".replace(
        str(want_dir), str(got_dir)) + "\n"
    assert not (got_dir / "manifest.json").exists()
    assert not (got_dir / "effective_config.json").exists()


def _synth_peak_mib(n_per_side, out):
    peak = cli_peak_mib(["synth", "--n-per-side", n_per_side, "--asymmetry-db", "6",
                         "--out", out])
    assert len(list(out.glob("trial_*.csv"))) == 2 * n_per_side
    return peak


def test_synth_memory_does_not_grow_with_trials(tmp_path):
    # the parent held each trial's 0.375 MiB of samples: 15 MiB more at 20
    # trials per side than at 2
    small, large = (_synth_peak_mib(n, tmp_path / str(n)) for n in (2, 20))
    assert abs(large - small) < 5.0, (small, large)
