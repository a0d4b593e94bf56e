"""Dataset types, manifest/CSV I/O, validation, and the synthetic EEG generator.

The generator substitutes for clinical recordings: each channel is a 1/f^alpha
background, and a configurable band-power asymmetry between hemispheres is
planted per trial label so the downstream pipeline has a known ground truth
to recover.
"""

from __future__ import annotations

import json
import os
import warnings
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .dsp import EPOCH_SAMPLES, EPOCHS_PER_TRIAL, FS, TRIAL_SAMPLES

RIGHT = 1
LEFT = 2

CHANNELS = ("F3", "FC3", "C3", "CP3", "P3", "FCz", "CPz",
            "F4", "FC4", "C4", "CP4", "P4")
LEFT_GROUP = (0, 1, 2, 3, 4)
MIDLINE = (5, 6)
RIGHT_GROUP = (7, 8, 9, 10, 11)
CHANNEL_INDEX = {name: i for i, name in enumerate(CHANNELS)}

# integer generation-frequency intervals (Hz) per band, paper edges rounded
# to the 1 Hz synthesis grid
GEN_BAND_HZ = {
    "delta": (1, 3),
    "theta": (4, 7),
    "alpha": (7, 13),
    "beta": (14, 50),
}

_MICROVOLT_SCALE = 50.0


class DataError(ValueError):
    """A fault in the input data that a user can cause, with a machine-readable
    code; the CLI's exit 2."""

    def __init__(self, code: str, message: str, trial_id: int | None = None):
        self.code = code
        self.message = message
        self.trial_id = trial_id
        super().__init__(f"{code}: {message}" if trial_id is None
                         else f"{code} (trial {trial_id}): {message}")

    def __reduce__(self):
        # so an error raised in a worker process reaches the caller intact
        return type(self), (self.code, self.message, self.trial_id)


class PoolError(RuntimeError):
    """fork_map's worker processes could not start, or one of them died before
    it finished, as when the system kills it for lack of memory; the CLI's exit 4."""


@dataclass
class Trial:
    trial_id: int
    label: int
    samples: np.ndarray  # (12 channels, 4096 samples), microvolts


@dataclass
class Dataset:
    subject_id: str
    trials: Sequence  # a list, or SyntheticTrials or TrialFiles, which make trial i when indexed


@dataclass(frozen=True)
class SynthConfig:
    n_trials_per_side: int = 40
    asymmetry_db: float = 0.0
    target_band: str = "alpha"
    target_channels: tuple = ("C3", "C4")
    noise_model: float = 1.0  # pink-noise exponent alpha, power ~ 1/f^alpha
    seed: int = 0

    def __post_init__(self):
        object.__setattr__(self, "target_channels", tuple(self.target_channels))
        self.validate()

    def validate(self) -> None:
        if self.n_trials_per_side < 1:
            raise DataError("BadConfig", "n_trials_per_side must be >= 1")
        if self.asymmetry_db < 0:
            raise DataError("BadConfig", "asymmetry_db must be >= 0")
        if self.target_band not in GEN_BAND_HZ:
            raise DataError("BadConfig",
                            f"target_band must be one of {sorted(GEN_BAND_HZ)}, "
                            f"got {self.target_band!r}")
        for name in self.target_channels:
            if name not in CHANNEL_INDEX:
                raise DataError("BadConfig", f"unknown channel in target_channels: {name!r}")
        if self.asymmetry_db > 0 and all(CHANNEL_INDEX[name] in MIDLINE
                                         for name in self.target_channels):
            raise DataError("BadConfig", "asymmetry_db > 0 needs a lateral channel in "
                            "target_channels (midline channels are never boosted)")
        if self.noise_model <= 0:
            raise DataError("BadConfig", "noise_model (pink exponent) must be > 0")


def stratified_positions(labels, seed) -> np.ndarray:
    """Each unit's position in its label's seeded permutation (Right units are
    permuted first, then Left). labels lists one label per unit, trial or
    epoch row, in ascending unit-id order. Folds are pos % k and the
    calibration side is pos < n_calib, so every split is stratified per side."""
    labels = np.asarray(labels)
    rng = np.random.default_rng(seed)
    pos = np.zeros(len(labels), dtype=int)
    for label in (RIGHT, LEFT):
        members = np.nonzero(labels == label)[0]
        pos[members[rng.permutation(len(members))]] = np.arange(len(members))
    return pos


def _line_shares(n_lines: int) -> np.ndarray:
    # rhythm power split: band-edge lines dominate because their spectral bins
    # must stand above the out-of-band background; interior lines sit in bins
    # whose in-band background is replaced, so a small share suffices
    if n_lines == 1:
        return np.array([1.0])
    if n_lines == 2:
        return np.array([0.5, 0.5])
    shares = np.full(n_lines, 0.10 / (n_lines - 2))
    shares[0] = shares[-1] = 0.45
    return shares


def _mirror_boost_channels(config: SynthConfig, label: int) -> list:
    """Channels actually boosted for one trial: each lateral target, moved to
    the same position in the label's hemisphere (right-labeled trials on the
    right group, left on the left); midline targets are dropped."""
    group = RIGHT_GROUP if label == RIGHT else LEFT_GROUP
    lateral = LEFT_GROUP + RIGHT_GROUP
    return sorted({group[lateral.index(i) % len(group)]
                   for i in map(CHANNEL_INDEX.get, config.target_channels) if i not in MIDLINE})


class SyntheticTrials(Sequence):
    """The trials of generate_synthetic(config), trial tt made when it is
    indexed. Its draws come from PCG64(config.seed) advanced past those of
    trials 0..tt-1: one 64-bit draw per uniform double, 8 x 12 x 255 phases
    per trial plus one per boosted channel. So each trial is bitwise the one
    a sequential loop over one generator makes, in any process and order."""

    def __init__(self, config: SynthConfig):
        self.config = config
        freqs = np.arange(1, EPOCH_SAMPLES // 2)  # 1..255 Hz synthesis grid
        amp = _MICROVOLT_SCALE * freqs.astype(float) ** (-config.noise_model / 2.0)
        self.scaled_amp = np.sqrt(2.0) * amp
        lo, hi = GEN_BAND_HZ[config.target_band]
        self.band_mask = (freqs >= lo) & (freqs <= hi)
        band_power = float((2.0 * amp ** 2 / EPOCH_SAMPLES)[self.band_mask].sum())
        lines = np.arange(lo + (lo % 2), hi + 1, 2)
        ratio = 10.0 ** (config.asymmetry_db / 10.0)
        # each line's signed amplitude (alternating polarity) and 2 pi f t
        self.line_amp = ((-1.0) ** np.arange(len(lines))
                         * np.sqrt(2.0 * ratio * band_power * _line_shares(len(lines))))
        self.line_arg = 2.0 * np.pi * lines[:, None] * (np.arange(TRIAL_SAMPLES) / FS)[None, :]
        self.boosted = {label: _mirror_boost_channels(config, label)
                        if config.asymmetry_db > 0 else [] for label in (RIGHT, LEFT)}
        self.draws = {label: EPOCHS_PER_TRIAL * len(CHANNELS) * len(freqs) + len(boosted)
                      for label, boosted in self.boosted.items()}

    def __len__(self) -> int:
        return 2 * self.config.n_trials_per_side

    def __getitem__(self, tt: int) -> Trial:
        n = self.config.n_trials_per_side
        if not 0 <= tt < 2 * n:
            raise IndexError(tt)
        label = RIGHT if tt < n else LEFT
        boosted = self.boosted[label]
        skip = min(tt, n) * self.draws[RIGHT] + max(tt - n, 0) * self.draws[LEFT]
        rng = np.random.Generator(np.random.PCG64(self.config.seed).advance(skip))
        full = np.zeros((EPOCHS_PER_TRIAL, len(CHANNELS), EPOCH_SAMPLES), dtype=np.complex128)
        spectra = full[:, :, 1:EPOCH_SAMPLES // 2]
        for epoch in spectra:  # one epoch at a time, which keeps exp's operands in cache
            epoch[:] = self.scaled_amp * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, epoch.shape))
        if boosted:
            spectra[:, np.array(boosted)[:, None], self.band_mask] = 0.0
        full[:, :, EPOCH_SAMPLES // 2 + 1:] = np.conj(spectra[:, :, ::-1])
        # the unnormalized inverse DFT over sqrt(2N), so frequency f carries 2 amp_f^2 / N
        epochs = dsp._fft_last_axis(full, inverse=True).real / np.sqrt(2.0 * EPOCH_SAMPLES)
        samples = epochs.transpose(1, 0, 2).reshape(len(CHANNELS), TRIAL_SAMPLES)
        for ch in boosted:
            phi = rng.uniform(0.0, 2.0 * np.pi)
            samples[ch] += (self.line_amp[:, None] * np.cos(self.line_arg + phi)).sum(axis=0)
        return Trial(trial_id=tt, label=label, samples=samples)


def generate_synthetic(config: SynthConfig) -> Dataset:
    """Deterministic synthetic dataset: 2 x n_trials_per_side trials of 1/f^alpha
    background with a planted band-power asymmetry, all held in memory.

    Background: per-epoch random-phase Fourier surrogate with fixed coefficient
    magnitudes (power exactly proportional to 1/f^alpha on the 1 Hz synthesis
    grid), independent across epochs and channels.

    Boost (asymmetry_db > 0): on each trial's hemisphere-matched target
    channels, the in-band background is replaced by a synchronized rhythm:
    cosine lines at the even in-band frequencies, one shared random phase per
    (trial, channel), alternating polarity, total power = 10^(db/10) times the
    band's baseline power. Replacing rather than adding keeps the planted band
    power exact per trial.
    """
    return Dataset(subject_id="synthetic", trials=list(SyntheticTrials(config)))


def write_csv(path, header, fmt, rows) -> Path:
    """The package's one CSV writer: the header names joined by commas, then
    one line per row, ",".join(fmt) % tuple(row). rows is consumed once, so a
    generator keeps one row in memory; missing directories above path are made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    line = ",".join(fmt) + "\n"
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % tuple(row) for row in rows)
    return path


def write_json(path, obj) -> Path:
    """The package's one JSON writer: indented by 2, keys sorted, newline-terminated;
    missing directories above path are made."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return path


def read_json(path, code: str):
    """The package's one JSON reader: the value in the file at path. A file
    that is not UTF-8, is not JSON, or nests deeper than the parser's stack
    is one DataError(code) that names the file; OSError passes through."""
    try:
        return json.loads(Path(path).read_text())
    except (ValueError, RecursionError) as exc:
        raise DataError(code, f"{str(path)!r}: {exc}") from exc


def _write_trial(out: Path, trial: Trial) -> dict:
    """Write one trial's samples to out/trial_XXXX.csv; returns its manifest entry."""
    name = f"trial_{trial.trial_id:04d}.csv"
    write_csv(out / name, CHANNELS, ["%.17g"] * len(CHANNELS),
              (row.tolist() for row in trial.samples.T))
    return {"trial_id": trial.trial_id, "label": trial.label, "file": name}


def save_dataset(dataset: Dataset, out_dir) -> Path:
    """Write one CSV per trial and manifest.json, then delete the trial_*.csv
    files in out_dir that the manifest does not list; returns the manifest path.

    The trial files are written through fork_map and only their manifest
    entries come back, so SyntheticTrials makes each trial in the worker that
    writes it and the caller never holds one. If a trial's write raises
    OSError, the first failing trial's error is raised, in trial order, as a
    sequential loop would raise it; manifest.json is then neither written nor
    updated, and files for later trials may exist where the loop would not
    have written them."""
    out = Path(out_dir)
    entries = list(fork_map(lambda trial: _write_trial(out, trial), dataset.trials))
    manifest = write_json(out / "manifest.json", {
        "subject_id": dataset.subject_id,
        "fs": FS,
        "channels": list(CHANNELS),
        "trials": entries,
    })
    listed = {entry["file"] for entry in entries}
    for stale in out.glob("trial_*.csv"):
        if stale.name not in listed:
            stale.unlink()
    return manifest


def _checked_entries(entries, folder):
    """(trial_id, label, file path) of each manifest trial entry, in order;
    raises DataError at the first entry that is malformed or names no file."""
    seen = set()
    for entry in entries:
        if not isinstance(entry, dict):
            raise DataError("BadManifest", f"trial entry must be a JSON object, got {entry!r}")
        tid = entry.get("trial_id")
        if not isinstance(tid, int) or isinstance(tid, bool):
            raise DataError("BadTrialId", f"trial_id must be an integer, got {tid!r}")
        if tid in seen:
            raise DataError("DuplicateTrialId", "listed more than once", trial_id=tid)
        seen.add(tid)
        label = entry.get("label")
        if type(label) is not int or label not in (RIGHT, LEFT):
            raise DataError("BadLabel", f"label={label!r}", trial_id=tid)
        fname = entry.get("file")
        if not isinstance(fname, str):
            raise DataError("BadManifest", f"file={fname!r}, expected a string", trial_id=tid)
        fpath = folder / fname
        if not fpath.is_file():
            raise DataError("MissingFile", repr(str(fpath)), trial_id=tid)
        yield tid, label, fpath


def _read_trial(entry) -> Trial:
    """The trial of one checked entry, (trial_id, label, file path), with its
    samples C-contiguous; raises DataError if the file's header, cells, shape
    or values are bad."""
    tid, label, fpath = entry
    with open(fpath) as fh, warnings.catch_warnings():
        # a header-only file is one BadSampleCount, without numpy's no-data warning
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        # the header is read in the try, so a non-UTF-8 byte there is a
        # BadTrialFile too; BadChannels, a ValueError, is raised after the try
        try:
            header = [name.strip() for name in fh.readline().split(",")]
            if header == list(CHANNELS):
                table = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DataError("BadTrialFile", f"{fpath.name!r}: {exc}", trial_id=tid) from exc
    if header != list(CHANNELS):
        raise DataError("BadChannels", f"{fpath.name!r}: header {header}", trial_id=tid)
    if table.shape != (TRIAL_SAMPLES, len(CHANNELS)):
        raise DataError("BadSampleCount",
                        f"{fpath.name!r}: {table.shape[0]} rows x {table.shape[1]} cols, "
                        f"expected {TRIAL_SAMPLES} x {len(CHANNELS)}", trial_id=tid)
    if not np.all(np.isfinite(table)):
        raise DataError("NonFinite", f"{fpath.name!r} contains non-finite samples",
                        trial_id=tid)
    return Trial(trial_id=tid, label=label, samples=np.ascontiguousarray(table.T))


# (fn, items) of the fork_map call a worker serves; set in each worker only
_JOB = None


def _set_job(fn, items):
    global _JOB
    _JOB = (fn, items)


def _run_job(i):
    fn, items = _JOB
    return fn(items[i])


def fork_map(fn, items):
    """Yields fn(x) for each x in items, in item order, computed in up to one
    forked process per available CPU; with fewer than 2 workers it is the
    builtin map in the calling process. Callers consume the results in order
    as they arrive, so one that stores each result and drops it never holds
    them all; one that needs a list calls list(). Workers read items only by
    index, so a sequence that makes each item when indexed (SyntheticTrials,
    TrialFiles) makes it where it is used; the builtin map makes one at a
    time. The first failing item's exception is raised, as a sequential loop
    would raise it; a pool that cannot start, or a worker that dies, raises
    PoolError. Once the generator is exhausted or closed, as when its consumer
    stops early, its pending items are cancelled and its workers have exited.
    Items go in chunks of about a quarter of each worker's share, as Pool.map
    sends them, because one task per item costs the parent a wake-up per
    result.

    Neither fn nor the items are pickled, so fn may be a closure: each forked
    worker inherits the pair as its initializer's arguments, puts it in its
    own _JOB, and is sent item indices; only the results cross the pipe. The
    pool modules are imported here because importing them would slow every
    command's start-up. Workers are forked, not spawned, so they do not
    import numpy and the package again; fn, and the making of an item, must
    call no BLAS routine (the synthetic generator calls none: its inverse FFT
    is the package's own), and the pool forks all its workers before it
    starts its own thread."""
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers < 2:
        yield from map(fn, items)
        return
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    pool = None
    try:
        pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_set_job, initargs=(fn, items))
        # the first chunk's submit forks every worker
        results = pool.map(_run_job, range(len(items)),
                           chunksize=-(-len(items) // (4 * workers)))
    except OSError as exc:   # no pipe or no fork, as at the process limit
        # the workers forked before the failure wait for a task that never
        # comes, and no shutdown reaches them
        for proc in getattr(pool, "_processes", {}).values():
            proc.kill()
            proc.join()
        raise PoolError(f"could not start {workers} worker processes: {exc}") from exc
    with pool:
        try:
            yield from results
        except BrokenProcessPool as exc:
            raise PoolError("a worker process died before it finished, as when the system "
                            "kills it for lack of memory") from exc


def _manifest(path: Path) -> dict:
    """The manifest at path, checked up to its trial entries."""
    if not path.exists():
        raise DataError("MissingFile", repr(str(path)))
    manifest = read_json(path, "BadManifest")
    if not isinstance(manifest, dict):
        raise DataError("BadManifest", f"manifest must be an object, got {type(manifest).__name__}")
    for key in ("subject_id", "fs", "channels", "trials"):
        if key not in manifest:
            raise DataError("BadManifest", f"missing key {key!r}")
    for key, kind in (("subject_id", str), ("trials", list)):
        if not isinstance(manifest[key], kind):
            raise DataError("BadManifest", f"{key} must be a {kind.__name__}, "
                            f"got {type(manifest[key]).__name__}")
    if manifest["fs"] != FS:
        raise DataError("BadSampleRate", f"manifest fs={manifest['fs']!r}, expected {FS}")
    if manifest["channels"] != list(CHANNELS):
        raise DataError("BadChannels",
                        f"manifest channels {manifest['channels']!r} != expected montage")
    if not manifest["trials"]:
        raise DataError("EmptyDataset", "manifest lists zero trials")
    return manifest


class TrialFiles(Sequence):
    """A manifest's trials, trial i read from its file when it is indexed.
    Making it checks the manifest, then its entries up to the first bad one,
    which ends the sequence: indexing it raises the entry's DataError, so
    fork_map raises a file fault listed before it first. Else a left/right imbalance warns."""

    def __init__(self, manifest_path):
        path = Path(manifest_path)
        manifest = _manifest(path)
        self.subject_id = manifest["subject_id"]
        self.entries, self.fault = [], None
        try:
            for entry in _checked_entries(manifest["trials"], path.parent):
                self.entries.append(entry)
        except DataError as exc:
            self.fault = exc
            return
        right = sum(label == RIGHT for _, label, _ in self.entries)
        if 2 * right != len(self.entries):
            warnings.warn(f"imbalanced dataset: {right} right vs {len(self.entries) - right} left")

    def __len__(self) -> int:
        return len(self.entries) + (self.fault is not None)

    def __getitem__(self, i: int) -> Trial:
        if i == len(self.entries) and self.fault is not None:
            raise self.fault
        return _read_trial(self.entries[i])


def load_dataset(manifest_path) -> Dataset:
    """The dataset a manifest lists, every trial read through fork_map and
    held in memory; raises the DataError that TrialFiles reports first."""
    files = TrialFiles(manifest_path)
    return Dataset(files.subject_id, list(fork_map(lambda trial: trial, files)))
