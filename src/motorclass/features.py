"""Feature extraction: filtered trials to labeled (epoch x 300) power rows,
plus train-fitted standardization."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .dataset import CHANNELS, EPOCHS_PER_TRIAL, Dataset, fork_map, write_csv

N_FEATURES = len(CHANNELS) * dsp.PSD_BINS  # 12 * 25 = 300
# power scales of the feature values; the first is the default
SCALES = ("linear", "db")


@dataclass
class Scaler:
    mean: np.ndarray      # (300,)
    std: np.ndarray       # (300,)
    constant: np.ndarray  # (300,) bool, columns that z-score to 0


@dataclass
class FeatureMatrix:
    X: np.ndarray          # (n_rows, 300)
    y: np.ndarray          # (n_rows,) labels
    trial_ids: np.ndarray  # (n_rows,)
    epochs: np.ndarray     # (n_rows,) epoch index 0..7

    @property
    def n_rows(self) -> int:
        return self.X.shape[0]


def feature_names() -> list:
    """Column names in matrix order: channel-major, 25 bins of 2 Hz each."""
    freqs = dsp.bin_frequencies()
    return [f"{ch}_{int(f)}Hz" for ch in CHANNELS for f in freqs]


def build_feature_matrix(dataset: Dataset, filt: dsp.FirFilter,
                         scale: str = SCALES[0]) -> FeatureMatrix:
    """Filter each full trial, epoch it, and compute per-channel spectral rows.

    Each trial goes through dsp._trial_rows in dataset.fork_map, and only its
    id, label and rows come back from a worker; a sequence that makes trial i
    when indexed (TrialFiles, SyntheticTrials) makes it in that worker. Each
    trial's rows are written into X as they arrive, so the caller holds one
    copy of them. Row order is (trial order in the dataset, epoch index). With
    scale="db" the 300 values are reported as dB (10 log10) rather than linear
    density.
    """
    if scale not in SCALES:
        raise ValueError(f"scale must be one of {SCALES}, got {scale!r}")
    n_rows = len(dataset.trials) * EPOCHS_PER_TRIAL
    X = np.empty((n_rows, N_FEATURES))
    y = np.empty(n_rows, dtype=int)
    trial_ids = np.empty_like(y)
    epoch_idx = np.empty_like(y)
    results = fork_map(lambda t: (t.trial_id, t.label, dsp._trial_rows(filt, t.samples)),
                       dataset.trials)
    for i, (trial_id, label, rows) in enumerate(results):
        sl = slice(i * EPOCHS_PER_TRIAL, (i + 1) * EPOCHS_PER_TRIAL)
        X[sl] = rows
        y[sl] = label
        trial_ids[sl] = trial_id
        epoch_idx[sl] = np.arange(EPOCHS_PER_TRIAL)
    if scale == "db":
        X = 10.0 * np.log10(np.maximum(X, 1e-20))
    if not np.all(np.isfinite(X)):
        raise dsp.DspError("feature matrix contains non-finite values")
    return FeatureMatrix(X=X, y=y, trial_ids=trial_ids, epochs=epoch_idx)


def scaled_moments(X: np.ndarray, ddof: int = 0):
    """Mean and standard deviation along axis 0 of X * scale, and scale: the
    per-column power of two that brings the column's largest magnitude into
    [0.5, 1), so the squares neither overflow nor underflow."""
    scale = np.ldexp(1.0, -np.frexp(np.abs(X).max(axis=0))[1])
    S = X * scale
    return S.mean(axis=0), S.std(axis=0, ddof=ddof), scale


def moments(X: np.ndarray, ddof: int = 0):
    """Mean and standard deviation along axis 0, from scaled_moments;
    power-of-two scaling is exact, so both equal X.mean(axis=0) and
    X.std(axis=0, ddof=ddof) bit for bit wherever those stay finite and
    normal."""
    mean, std, scale = scaled_moments(X, ddof)
    return mean / scale, std / scale


def fit_scaler(X: np.ndarray) -> Scaler:
    """Per-column mean/stddev from training rows only. A column is constant
    when its stddev is at most 1e-12 of its largest magnitude, so the choice
    does not depend on the unit of the samples."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[0] < 2:
        raise ValueError("scaler needs at least 2 training rows")
    mean, std = moments(X)
    return Scaler(mean=mean, std=std, constant=std <= 1e-12 * np.abs(X).max(axis=0))


def apply_scaler(scaler: Scaler, X: np.ndarray) -> np.ndarray:
    """Z-score with the fitted statistics; constant columns come out identically 0."""
    X = np.asarray(X, dtype=float)
    safe = np.where(scaler.constant, 1.0, scaler.std)
    Z = (X - scaler.mean) / safe
    Z[:, scaler.constant] = 0.0
    return Z


def save_features_csv(fm: FeatureMatrix, path) -> Path:
    table = np.column_stack([fm.trial_ids, fm.epochs, fm.y, fm.X])
    return write_csv(path, ["trial_id", "epoch", "label", *feature_names()],
                     ["%d", "%d", "%d"] + ["%.17g"] * N_FEATURES,
                     (row.tolist() for row in table))
