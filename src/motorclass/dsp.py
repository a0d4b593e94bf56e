"""Numerical kernels: radix-2 FFT, windowed-sinc FIR band-pass, per-epoch PSD,
and the recording geometry they assume (FS, EPOCH_SAMPLES, EPOCHS_PER_TRIAL).

Everything here is pure, deterministic and batched: _filter_rows filters a
trial's rows and _psd_epoch_rows gives every epoch's PSD, both on
_fft_last_axis, a self-sorting (Stockham) radix-2 FFT with cached twiddles
(the inverse uses conjugate twiddles); fft is its checked 1-D form.
_trial_rows chains them into one trial's feature rows. Real signals ride two
to a complex transform: two filter rows, or an epoch's two PSD segments, as
the real and imaginary parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

FS = 512               # recording sample rate, Hz
EPOCH_SAMPLES = FS     # 1 s epochs
EPOCHS_PER_TRIAL = 8
TRIAL_SAMPLES = EPOCHS_PER_TRIAL * EPOCH_SAMPLES
PSD_BINS = 25          # retained bins 1..25, centers 2..50 Hz at 2 Hz spacing
PSD_SEGMENT = 256      # FFT window length inside one epoch


class DspError(ValueError):
    pass


@lru_cache(maxsize=None)
def _stage_twiddles(n: int, inverse: bool) -> tuple:
    """Per-stage twiddle columns for length n: exp(+-i*pi*k/p), k < p, for
    p = 1, 2, 4, ..., n/2; read-only, shape (p, 1)."""
    sign = 1.0 if inverse else -1.0
    stages = []
    half = 1
    while half < n:
        tw = np.exp(sign * 2j * np.pi * np.arange(half) / (2 * half))[:, None]
        tw.flags.writeable = False
        stages.append(tw)
        half *= 2
    return tuple(stages)


def _fft_last_axis(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Radix-2 FFT along the last axis of an array (length a power of two).

    The work array has shape (rows, p, q) with p * q = n: column c of a row
    holds the p-point DFT of the samples c, c + q, c + 2q, ... Each stage pairs
    column c with column c + q/2 (the odd samples of the same sub-sequence)
    and writes the 2p-point DFT, so after log2(n) stages the (rows, n, 1)
    result is in natural order.
    """
    n = a.shape[-1]
    if n == 0 or n & (n - 1):
        raise DspError(f"FFT length must be a power of two, got {n}")
    src = np.asarray(a, dtype=np.complex128).reshape(-1, 1, n)
    if n == 1:
        return src.reshape(a.shape).copy()
    rows = src.shape[0]
    buffers = (np.empty(rows * n, dtype=np.complex128),
               np.empty(rows * n, dtype=np.complex128))
    odd = np.empty(rows * n // 2, dtype=np.complex128)
    for stage, tw in enumerate(_stage_twiddles(n, inverse)):
        p, h = tw.shape[0], n // (2 * tw.shape[0])
        lo, hi = src[..., :h], src[..., h:]
        dst = buffers[stage % 2].reshape(rows, 2, p, h)
        if p > 1:
            hi = np.multiply(hi, tw, out=odd.reshape(rows, p, h))
        np.add(lo, hi, out=dst[:, 0])
        np.subtract(lo, hi, out=dst[:, 1])
        src = dst.reshape(rows, 2 * p, h)
    return src.reshape(a.shape)


def fft(x) -> np.ndarray:
    """Discrete Fourier transform of a 1-D vector whose length is a power of two."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise DspError("fft expects a 1-D vector")
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise DspError("fft input contains non-finite values")
    return _fft_last_axis(x)


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR band-pass filter.

    taps are symmetric about the center; group_delay = (len(taps) - 1) // 2
    samples, compensated by _filter_rows so output stays time-aligned.
    """

    taps: np.ndarray
    _spectra: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def group_delay(self) -> int:
        return (len(self.taps) - 1) // 2

    def spectrum(self, nfft: int) -> np.ndarray:
        """FFT of the taps zero-padded to nfft, divided by nfft (exact for a
        power of two) so the inverse transform needs no rescaling; computed
        once per length and kept on the filter, read-only."""
        spec = self._spectra.get(nfft)
        if spec is None:
            padded = np.zeros(nfft)
            padded[:len(self.taps)] = self.taps
            spec = _fft_last_axis(padded) / nfft
            spec.flags.writeable = False
            self._spectra[nfft] = spec
        return spec


def design_bandpass(fs: float, low_hz: float, high_hz: float, taps: int) -> FirFilter:
    """Windowed-sinc (Hamming) band-pass with half-amplitude points at low_hz
    and high_hz. Raises DspError unless the band lies inside (0, fs/2) and
    taps is odd, at least 3 and at most the samples of one trial, so the
    filter is never longer than the signal it filters."""
    if not (0.0 < low_hz < high_hz < fs / 2.0):
        raise DspError(f"invalid band ({low_hz}, {high_hz}) for fs={fs}")
    if not (3 <= taps <= TRIAL_SAMPLES and taps % 2 == 1):
        raise DspError(f"tap count must be odd and in [3, {TRIAL_SAMPLES}], got {taps}")
    m = np.arange(taps) - (taps - 1) / 2.0
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(taps) / (taps - 1))

    def lowpass(fc):
        return (2.0 * fc / fs) * np.sinc(2.0 * fc * m / fs)

    h = (lowpass(high_hz) - lowpass(low_hz)) * window
    return FirFilter(taps=h)


def _next_pow2(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


def _filter_rows(filt: FirFilter, rows: np.ndarray) -> np.ndarray:
    """Apply the filter along the last axis of a 2-D array: reflection padding,
    output group-delay aligned and the same length as the input.

    Rows ride two to a complex transform: the taps are real, so
    IFFT(FFT(x1 + i*x2) * H) = x1*h + i*(x2*h), and the real and imaginary
    parts are the two filtered rows. With an odd row count the last imaginary
    part stays zero.
    """
    gd = filt.group_delay
    n_rows, length = rows.shape
    padded = np.pad(rows, [(0, 0), (gd, gd)], mode="reflect")
    nfft = _next_pow2(padded.shape[-1] + len(filt.taps) - 1)
    packed = np.zeros(((n_rows + 1) // 2, nfft), dtype=np.complex128)
    packed.real[:, :padded.shape[-1]] = padded[0::2]
    packed.imag[:n_rows // 2, :padded.shape[-1]] = padded[1::2]
    spec = _fft_last_axis(packed)
    spec *= filt.spectrum(nfft)
    full = _fft_last_axis(spec, inverse=True)[:, 2 * gd: 2 * gd + length]
    out = np.empty((n_rows, length))
    out[0::2] = full.real
    out[1::2] = full.imag[:n_rows // 2]
    return out


def _psd_window() -> np.ndarray:
    # periodic Hamming: integer-offset leakage vanishes beyond one bin
    n = np.arange(PSD_SEGMENT)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / PSD_SEGMENT)


_WINDOW = _psd_window()
_WINDOW_ENERGY = float(np.sum(_WINDOW ** 2))


def _psd_epoch_rows(epochs: np.ndarray) -> np.ndarray:
    """One-sided PSD of each 1 s epoch along the last axis of a (..., 512)
    array; returns (..., 25). Two Hamming-windowed 256-point periodograms are
    averaged, the density is normalized by FS and window energy, and bins
    1..25 are retained (bin k centered at 2k Hz). Segment means are removed so
    a constant offset cannot leak into the retained bins.

    The two segments a, b of an epoch ride as one complex row z = a + i*b.
    With Z = FFT(z), the conjugate-symmetric split gives
    A[k] = (Z[k] + conj Z[-k]) / 2 and B[k] = (Z[k] - conj Z[-k]) / 2i, so
    |A[k]|^2 + |B[k]|^2 = (|Z[k]|^2 + |Z[-k]|^2) / 2.
    """
    first, second = epochs[..., :PSD_SEGMENT], epochs[..., PSD_SEGMENT:]
    packed = np.empty(first.shape, dtype=np.complex128)
    packed.real = (first - first.mean(axis=-1, keepdims=True)) * _WINDOW
    packed.imag = (second - second.mean(axis=-1, keepdims=True)) * _WINDOW
    spec = _fft_last_axis(packed)
    sq = spec.real ** 2 + spec.imag ** 2
    both = sq[..., 1:PSD_BINS + 1] + sq[..., PSD_SEGMENT - 1:PSD_SEGMENT - PSD_BINS - 1:-1]
    return both / (2.0 * FS * _WINDOW_ENERGY)


def epoch_trial(samples: np.ndarray) -> np.ndarray:
    """Split (channels, 4096) samples into (8, channels, 512) contiguous 1 s epochs."""
    n_ch, n = samples.shape
    if n != TRIAL_SAMPLES:
        raise ValueError(f"expected {TRIAL_SAMPLES} samples, got {n}")
    return samples.reshape(n_ch, EPOCHS_PER_TRIAL, EPOCH_SAMPLES).transpose(1, 0, 2)


def _trial_rows(filt: FirFilter, samples: np.ndarray) -> np.ndarray:
    """One trial's (8, channels * 25) feature rows: the full trial filtered,
    epoched, and each epoch's per-channel PSD laid out channel-major."""
    filtered = _filter_rows(filt, np.asarray(samples, dtype=float))
    epochs = epoch_trial(filtered)  # (8, channels, 512)
    psd = _psd_epoch_rows(epochs.reshape(-1, EPOCH_SAMPLES))
    return psd.reshape(EPOCHS_PER_TRIAL, -1)


def bin_frequencies() -> np.ndarray:
    """Center frequencies of the 25 retained bins, Hz."""
    return 2.0 * np.arange(1, PSD_BINS + 1)
