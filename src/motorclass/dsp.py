"""Numerical kernels: radix-2 FFT, windowed-sinc FIR band-pass, per-epoch PSD.

Everything here is pure and deterministic. The FFT is implemented directly
(iterative radix-2 with bit reversal); the inverse runs the same butterflies
with conjugate twiddles, and filtering runs through the same FFT via
overlap-free block convolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PSD_BINS = 25          # retained bins 1..25, centers 2..50 Hz at 2 Hz spacing
PSD_SEGMENT = 256      # FFT window length inside one epoch
EPOCH_SAMPLES = 512


class DspError(ValueError):
    pass


def _bit_reversal(n: int) -> np.ndarray:
    idx = np.arange(n)
    rev = np.zeros(n, dtype=np.intp)
    bits = n.bit_length() - 1
    for _ in range(bits):
        rev = (rev << 1) | (idx & 1)
        idx >>= 1
    return rev


def _fft_last_axis(a: np.ndarray, inverse: bool = False) -> np.ndarray:
    """Radix-2 FFT along the last axis of a complex array (length power of two)."""
    n = a.shape[-1]
    if n == 0 or n & (n - 1):
        raise DspError(f"FFT length must be a power of two, got {n}")
    out = np.ascontiguousarray(a[..., _bit_reversal(n)]).astype(np.complex128, copy=True)
    half = 1
    sign = 1.0 if inverse else -1.0
    while half < n:
        step = half * 2
        tw = np.exp(sign * 2j * np.pi * np.arange(half) / step)
        blocks = out.reshape(*out.shape[:-1], n // step, step)
        even = blocks[..., :half].copy()
        odd = blocks[..., half:] * tw
        blocks[..., :half] = even + odd
        blocks[..., half:] = even - odd
        half = step
    return out


def fft(x) -> np.ndarray:
    """Discrete Fourier transform of a 1-D vector whose length is a power of two."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise DspError("fft expects a 1-D vector")
    if not (np.all(np.isfinite(x.real)) and np.all(np.isfinite(x.imag))):
        raise DspError("fft input contains non-finite values")
    return _fft_last_axis(x)


def ifft(x) -> np.ndarray:
    """Inverse DFT: the forward butterflies with conjugate twiddles, over N."""
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim != 1:
        raise DspError("ifft expects a 1-D vector")
    return _fft_last_axis(x, inverse=True) / x.shape[-1]


@dataclass(frozen=True)
class FirFilter:
    """Linear-phase FIR band-pass filter.

    taps are symmetric about the center; group_delay = (len(taps) - 1) // 2
    samples, compensated by apply_filter so output stays time-aligned.
    """

    taps: np.ndarray
    fs: float
    band: tuple = (1.0, 50.0)

    @property
    def group_delay(self) -> int:
        return (len(self.taps) - 1) // 2


def design_bandpass(fs: float, low: float, high: float, taps: int) -> FirFilter:
    """Windowed-sinc (Hamming) band-pass with half-amplitude points at low/high."""
    if not (0.0 < low < high < fs / 2.0):
        raise DspError(f"invalid band ({low}, {high}) for fs={fs}")
    if taps < 3 or taps % 2 == 0:
        raise DspError(f"tap count must be odd and >= 3, got {taps}")
    m = np.arange(taps) - (taps - 1) / 2.0
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(taps) / (taps - 1))

    def lowpass(fc):
        return (2.0 * fc / fs) * np.sinc(2.0 * fc * m / fs)

    h = (lowpass(high) - lowpass(low)) * window
    return FirFilter(taps=h, fs=float(fs), band=(float(low), float(high)))


def _next_pow2(n: int) -> int:
    return 1 << max(1, (n - 1).bit_length())


def _filter_rows(filt: FirFilter, rows: np.ndarray) -> np.ndarray:
    """Apply the filter along the last axis of a 2-D array, group-delay aligned."""
    gd = filt.group_delay
    length = rows.shape[-1]
    padded = np.pad(rows, [(0, 0)] * (rows.ndim - 1) + [(gd, gd)], mode="reflect")
    nfft = _next_pow2(padded.shape[-1] + len(filt.taps) - 1)
    spec = _fft_last_axis(np.concatenate(
        [padded, np.zeros(padded.shape[:-1] + (nfft - padded.shape[-1],))],
        axis=-1).astype(np.complex128))
    hspec = _fft_last_axis(np.concatenate(
        [filt.taps, np.zeros(nfft - len(filt.taps))]).astype(np.complex128))
    full = _fft_last_axis(spec * hspec, inverse=True) / nfft
    y = full.real[..., 2 * gd: 2 * gd + length]
    return np.ascontiguousarray(y)


def apply_filter(filt: FirFilter, signal) -> np.ndarray:
    """Filter a 1-D signal; reflection padding, output aligned and same length."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise DspError("apply_filter expects a non-empty 1-D signal")
    if not np.all(np.isfinite(x)):
        raise DspError("apply_filter input contains non-finite values")
    return _filter_rows(filt, x[None, :])[0]


def _psd_window() -> np.ndarray:
    # periodic Hamming: integer-offset leakage vanishes beyond one bin
    n = np.arange(PSD_SEGMENT)
    return 0.54 - 0.46 * np.cos(2.0 * np.pi * n / PSD_SEGMENT)


_WINDOW = _psd_window()
_WINDOW_ENERGY = float(np.sum(_WINDOW ** 2))


def _psd_epoch_rows(epochs: np.ndarray, fs: float) -> np.ndarray:
    """PSD along the last axis for (..., 512) arrays; returns (..., 25)."""
    segs = np.stack([epochs[..., :PSD_SEGMENT], epochs[..., PSD_SEGMENT:]], axis=0)
    segs = segs - segs.mean(axis=-1, keepdims=True)
    spec = _fft_last_axis((segs * _WINDOW).astype(np.complex128))
    power = 2.0 * (spec.real ** 2 + spec.imag ** 2) / (fs * _WINDOW_ENERGY)
    return power.mean(axis=0)[..., 1:PSD_BINS + 1]


def psd_epoch(epoch, fs: float = 512.0) -> np.ndarray:
    """One-sided PSD of a 1 s epoch: two Hamming-windowed 256-point periodograms
    averaged, density normalized by fs and window energy, bins 1..25 retained
    (2..50 Hz, bin k centered at 2k Hz). Segment means are removed so a constant
    offset cannot leak into the retained bins."""
    x = np.asarray(epoch, dtype=np.float64)
    if x.shape != (EPOCH_SAMPLES,):
        raise DspError(f"psd_epoch expects exactly {EPOCH_SAMPLES} samples, got {x.shape}")
    return _psd_epoch_rows(x[None, :], fs)[0]


def bin_frequencies() -> np.ndarray:
    """Center frequencies of the 25 retained bins, Hz."""
    return 2.0 * np.arange(1, PSD_BINS + 1)
