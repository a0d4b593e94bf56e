"""validate reads and sums up each trial in dataset.fork_map's workers: its
line must be the one the load-everything loop printed
(oracles.validate_reference), with and without --amplitude-check, on one CPU
or several, and its peak memory does not grow with the trial count."""

import multiprocessing

import pytest

from motorclass import cli
from motorclass.dataset import EPOCHS_PER_TRIAL, SynthConfig, generate_synthetic, save_dataset
from conftest import _RecordingPool, cli_peak_mib
from oracles import validate_reference


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Saved datasets at 6 dB, by trials per side."""
    root = tmp_path_factory.mktemp("validate")
    return {n: save_dataset(generate_synthetic(SynthConfig(n_trials_per_side=n,
                                                           asymmetry_db=6.0, seed=3)),
                            root / str(n))
            for n in (2, 3, 20)}


# (flags, the limit validate_reference takes): the flags flag some epochs,
# at 30 uV, and none, at the default 200 uV
CHECKS = {
    "no_check": ([], None),
    "default_limit": (["--amplitude-check"], 200.0),
    "limit_30": (["--amplitude-check", "--amplitude-threshold", "30"], 30.0),
}


@pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
@pytest.mark.parametrize("check", CHECKS.values(), ids=CHECKS.keys())
def test_line_matches_reference(saved, capsys, pool_on, check, cpus):
    flags, limit = check
    want = validate_reference(saved[3], limit) + "\n"
    pool_on(cpus)
    assert cli.main(["validate", str(saved[3]), *flags]) == cli.EXIT_OK
    assert capsys.readouterr().out == want
    assert _RecordingPool.sizes == ([2] if cpus == 2 else [])
    assert multiprocessing.active_children() == []
    if limit == 30.0:   # the count is neither none nor all of the 48 epochs
        flagged = int(want.split(", ")[-1].split(" ")[0])
        assert 0 < flagged < 6 * EPOCHS_PER_TRIAL


@pytest.mark.parametrize("flags", [[], ["--amplitude-check"]], ids=["no_check", "check"])
def test_validate_memory_does_not_grow_with_trials(saved, flags):
    # the parent held each trial's 0.375 MiB of samples: 15 MiB more at 20
    # trials per side than at 2; the bound is the synth test's
    small, large = (cli_peak_mib(["validate", saved[n], *flags]) for n in (2, 20))
    assert abs(large - small) < 5.0, (small, large)
