"""Paired t-tests per (channel, bin), two-tailed p-values from first
principles, the masked power-difference map, and band-level aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp
from .dataset import CHANNELS, EPOCHS_PER_TRIAL, GEN_BAND_HZ, LEFT, RIGHT, DataError, write_csv
from .features import FeatureMatrix, scaled_moments

# PSD bins (1-based, center 2k Hz) assigned to the classical bands: bin k
# goes to the band whose generation interval holds 2k Hz; together the four
# bands partition bins 1..25
BAND_BINS = {band: tuple(k for k in range(1, dsp.PSD_BINS + 1) if lo <= 2 * k <= hi)
             for band, (lo, hi) in GEN_BAND_HZ.items()}
BAND_ORDER = tuple(BAND_BINS)

DEFAULT_ALPHA = 0.05
# what the t-test pairs: epoch rows or per-trial means; the first is the default
LEVELS = ("epoch", "trial")


@dataclass
class TTestResult:
    t: float
    df: int
    p: float


@dataclass
class SignificanceMap:
    t: np.ndarray            # (12, 25)
    p: np.ndarray            # (12, 25)
    delta: np.ndarray        # (12, 25) mean right power minus mean left power
    significant: np.ndarray  # (12, 25) bool, p < alpha
    alpha: float
    mean_right: np.ndarray   # (12, 25)
    mean_left: np.ndarray    # (12, 25)


@dataclass
class BandMap:
    bands: tuple                        # band names in order
    mean_delta: np.ndarray              # (4, 12)
    mean_delta_significant: np.ndarray  # (4, 12), NaN where a band has no significant bins


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 301):
        m2 = 2 * m
        # the even then the odd coefficient of step m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise ArithmeticError("incomplete beta continued fraction did not converge")


def _betainc_reg(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                     + a * math.log(x) + b * math.log1p(-x))
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def t_pvalue(t: float, df: int) -> float:
    """Two-tailed p-value for a t statistic: I_{df/(df+t^2)}(df/2, 1/2)."""
    if df < 1:
        raise ValueError(f"df must be >= 1, got {df}")
    if math.isnan(t):
        raise ValueError("t is NaN")
    if math.isinf(t):
        return 0.0
    if t == 0.0:
        return 1.0
    x = df / (df + t * t)
    return min(1.0, max(0.0, _betainc_reg(df / 2.0, 0.5, x)))


def paired_t(x, y) -> TTestResult:
    """Paired two-sided t-test of x against y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("paired_t expects two equal-length vectors")
    n = len(x)
    if n < 2:
        raise DataError("TooFewPairs", f"paired_t needs at least 2 pairs, got {n}")
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
        raise ValueError("paired_t inputs must be finite")
    with np.errstate(over="ignore"):
        d = x - y
    if not np.all(np.isfinite(d)):
        raise ArithmeticError("paired_t: a difference x - y overflows the float range")
    # t is scale-free, so it is formed from the scaled moments: their
    # unscaled std can overflow where the differences themselves do not
    mean, sd, _ = scaled_moments(d, ddof=1)
    if sd == 0.0:
        if mean == 0.0:
            return TTestResult(t=0.0, df=n - 1, p=1.0)
        t = math.inf if mean > 0 else -math.inf
        return TTestResult(t=t, df=n - 1, p=0.0)
    t = mean / (sd / math.sqrt(n))
    return TTestResult(t=t, df=n - 1, p=t_pvalue(t, n - 1))


def _ranked_rows(fm: FeatureMatrix, label: int) -> np.ndarray:
    """Positions in fm.X of one label's rows, sorted by (trial_id, epoch):
    acquisition-rank order."""
    rows = np.flatnonzero(fm.y == label)
    return rows[np.lexsort((fm.epochs[rows], fm.trial_ids[rows]))]


def _trial_means(rows: np.ndarray) -> np.ndarray:
    return rows.reshape(-1, EPOCHS_PER_TRIAL, rows.shape[1]).mean(axis=1)


def significance_map(fm: FeatureMatrix, alpha: float = DEFAULT_ALPHA,
                     level: str = LEVELS[0]) -> SignificanceMap:
    """Per-(channel, bin) paired t-test of right-label rows against left-label
    rows, paired by acquisition rank.

    level="epoch" pairs individual epoch rows (the default); level="trial"
    first averages each trial's 8 epochs. Unequal per-label counts are an
    error: every right row needs a left partner of the same rank.

    The rows are read from fm.X by position, a column or one side at a time,
    so no full copy of either side is held; the trial means, an eighth of the
    rows, are held as a table of their own.
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    X, right, left = fm.X, _ranked_rows(fm, RIGHT), _ranked_rows(fm, LEFT)
    if len(right) == 0 or len(left) == 0:
        raise DataError("OneLabel", "significance_map needs rows of both labels")
    if level == "trial":
        X = np.concatenate([_trial_means(X[right]), _trial_means(X[left])])
        n_right = len(right) // EPOCHS_PER_TRIAL
        right, left = np.arange(n_right), np.arange(n_right, len(X))
    if len(right) != len(left):
        raise DataError("UnequalCounts", "the rank-paired t-test needs equal right/left "
                        f"counts, got {len(right)} right and {len(left)} left")

    n_ch, n_bins = len(CHANNELS), dsp.PSD_BINS
    t = np.empty((n_ch, n_bins))
    p = np.empty((n_ch, n_bins))
    for j in range(X.shape[1]):
        res = paired_t(X[right, j], X[left, j])
        t[j // n_bins, j % n_bins] = res.t
        p[j // n_bins, j % n_bins] = res.p
    mean_r = X[right].mean(axis=0).reshape(n_ch, n_bins)
    mean_l = X[left].mean(axis=0).reshape(n_ch, n_bins)
    return SignificanceMap(t=t, p=p, delta=mean_r - mean_l,
                           significant=p < alpha, alpha=alpha,
                           mean_right=mean_r, mean_left=mean_l)


def band_aggregate(smap: SignificanceMap) -> BandMap:
    """Mean delta per band x channel, plus the mean over significant bins only
    (NaN when a band has no significant bin on a channel)."""
    n_ch = len(CHANNELS)
    mean_delta = np.empty((len(BAND_ORDER), n_ch))
    mean_sig = np.full((len(BAND_ORDER), n_ch), np.nan)
    for bi, band in enumerate(BAND_ORDER):
        cols = np.array(BAND_BINS[band]) - 1
        mean_delta[bi] = smap.delta[:, cols].mean(axis=1)
        for ch in range(n_ch):
            sig = smap.significant[ch, cols]
            if sig.any():
                mean_sig[bi, ch] = smap.delta[ch, cols][sig].mean()
    return BandMap(bands=BAND_ORDER, mean_delta=mean_delta,
                   mean_delta_significant=mean_sig)


def _cell_rows(*maps):
    """(channel, freq_hz, one value per map) for each (channel, bin), channel-major."""
    freqs = dsp.bin_frequencies().tolist()
    for ch, name in enumerate(CHANNELS):
        for freq, *cells in zip(freqs, *(m[ch].tolist() for m in maps)):
            yield (name, freq, *cells)


def save_map_csv(smap: SignificanceMap, path) -> Path:
    return write_csv(path, ("channel", "freq_hz", "t", "p", "delta", "significant"),
                     ("%s", "%d", "%.17g", "%.17g", "%.17g", "%d"),
                     _cell_rows(smap.t, smap.p, smap.delta, smap.significant))


def save_band_csv(bmap: BandMap, path) -> Path:
    """The significant-bins mean is an empty cell where a band has no significant bin."""
    rows = ((band, name, mean, "" if math.isnan(sig) else "%.17g" % sig)
            for band, means, sigs in zip(bmap.bands, bmap.mean_delta.tolist(),
                                         bmap.mean_delta_significant.tolist())
            for name, mean, sig in zip(CHANNELS, means, sigs))
    return write_csv(path, ("band", "channel", "mean_delta", "mean_delta_significant"),
                     ("%s", "%s", "%.17g", "%s"), rows)


def save_psd_curves_csv(smap: SignificanceMap, path) -> Path:
    """Per-side mean power density per (channel, bin), companion to the map."""
    return write_csv(path, ("channel", "freq_hz", "mean_left", "mean_right"),
                     ("%s", "%d", "%.17g", "%.17g"),
                     _cell_rows(smap.mean_left, smap.mean_right))
