"""FFT, FIR design/application, and PSD kernels against oracles and analytic
cases."""

import numpy as np
import pytest

from motorclass import dsp
from oracles import brute_dft, direct_fir, freq_response, periodogram_psd


def db(x):
    return 20.0 * np.log10(max(abs(x), 1e-300))


def filter_one(filt, x):
    # the pipeline's batched filter on a single row
    return dsp._filter_rows(filt, x[None])[0]


def psd_one(epoch):
    # the pipeline's batched PSD on a single epoch
    return dsp._psd_epoch_rows(epoch[None])[0]


class TestFft:
    def test_impulse_all_ones(self):
        x = np.zeros(256)
        x[0] = 1.0
        assert np.allclose(dsp.fft(x), np.ones(256), atol=1e-12)

    def test_constant_ones(self):
        spec = dsp.fft(np.ones(256))
        assert spec[0] == pytest.approx(256.0)
        assert np.max(np.abs(spec[1:])) < 1e-9

    def test_matches_brute_dft(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n = 2 ** rng.integers(3, 7)  # 8..64
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            got = dsp.fft(x)
            want = brute_dft(x)
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))

    def test_round_trip(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=512) + 1j * rng.normal(size=512)
        back = dsp._fft_last_axis(dsp.fft(x), inverse=True) / 512
        assert np.max(np.abs(back - x)) <= 1e-9 * np.max(np.abs(x))

    def test_parseval(self):
        rng = np.random.default_rng(13)
        n = 2
        while n <= 1024:
            x = rng.normal(size=n) + 1j * rng.normal(size=n)
            time_energy = np.sum(np.abs(x) ** 2)
            freq_energy = np.sum(np.abs(dsp.fft(x)) ** 2) / n
            assert abs(time_energy - freq_energy) <= 1e-9 * time_energy
            n *= 2

    def test_rejects_non_power_of_two(self):
        with pytest.raises(dsp.DspError):
            dsp.fft(np.zeros(100))

    def test_rejects_non_finite(self):
        x = np.zeros(16)
        x[3] = np.nan
        with pytest.raises(dsp.DspError):
            dsp.fft(x)

    @pytest.mark.parametrize("n", [2 ** k for k in range(14)])  # 1..8192
    def test_batched_kernel_matches_brute_dft(self, n):
        rng = np.random.default_rng(100 + n)
        shape = (2, 3, n) if n <= 2048 else (2, n)  # the oracle is O(n^2) per row
        x = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for inverse in (False, True):
            got = dsp._fft_last_axis(x, inverse=inverse)
            want = brute_dft(x, inverse=inverse)
            assert got.shape == x.shape
            assert np.max(np.abs(got - want)) <= 1e-9 * max(1.0, np.max(np.abs(want)))


class TestDesignBandpass:
    def test_passband_at_25hz(self, bp_filter):
        assert abs(db(freq_response(bp_filter.taps, 512.0, 25.0))) <= 0.5

    def test_stopband_attenuation(self, bp_filter):
        for f in (0.1, 56.0):
            assert db(freq_response(bp_filter.taps, 512.0, f)) <= -40.0

    def test_taps_symmetric(self, bp_filter):
        taps = bp_filter.taps
        scale = np.max(np.abs(taps))
        assert np.max(np.abs(taps - taps[::-1])) <= 1e-12 * scale

    def test_metadata(self, bp_filter):
        assert len(bp_filter.taps) == 1691
        assert bp_filter.group_delay == 845

    def test_rejects_bad_args(self):
        with pytest.raises(dsp.DspError):
            dsp.design_bandpass(512, 1.0, 50.0, 1690)  # even tap count
        with pytest.raises(dsp.DspError):
            dsp.design_bandpass(512, 50.0, 1.0, 11)    # inverted band
        with pytest.raises(dsp.DspError):
            dsp.design_bandpass(512, 1.0, 300.0, 11)   # above Nyquist


class TestApplyFilter:
    def test_zero_in_zero_out(self, bp_filter):
        out = filter_one(bp_filter, np.zeros(4096))
        assert np.all(out == 0.0)

    def test_passband_sinusoid_amplitude(self, bp_filter):
        t = np.arange(4096) / 512.0
        out = filter_one(bp_filter, np.sin(2.0 * np.pi * 25.0 * t))
        central = out[1024:3072]
        assert abs(central.max() - 1.0) <= 0.05
        assert abs(central.min() + 1.0) <= 0.05

    def test_dc_suppression(self, bp_filter):
        out = filter_one(bp_filter, np.full(4096, 100.0))
        assert np.max(np.abs(out[1024:3072])) <= 1.0

    def test_scaling_commutes(self, bp_filter):
        rng = np.random.default_rng(21)
        x = rng.normal(size=2048)
        a = 7.25
        y1 = filter_one(bp_filter, a * x)
        y2 = a * filter_one(bp_filter, x)
        assert np.max(np.abs(y1 - y2)) <= 1e-12 * max(1.0, np.max(np.abs(y2)))

    @pytest.mark.parametrize("n_rows", [1, 3, 12])
    def test_packed_rows_match_direct_convolution(self, bp_filter, n_rows):
        # two rows share each complex transform; odd counts leave one half empty
        rng = np.random.default_rng(40 + n_rows)
        rows = rng.normal(size=(n_rows, 4096))
        got = dsp._filter_rows(bp_filter, rows)
        want = np.array([direct_fir(bp_filter.taps, row) for row in rows])
        assert got.shape == rows.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

    def test_cached_spectrum_stays_with_its_filter(self, bp_filter):
        narrow = dsp.design_bandpass(512, 8.0, 30.0, 1691)  # same nfft as bp_filter
        rows = np.random.default_rng(44).normal(size=(2, 4096))
        wide_out = dsp._filter_rows(bp_filter, rows)
        narrow_out = dsp._filter_rows(narrow, rows)
        assert np.array_equal(dsp._filter_rows(bp_filter, rows), wide_out)
        for filt, out in ((bp_filter, wide_out), (narrow, narrow_out)):
            want = np.array([direct_fir(filt.taps, row) for row in rows])
            assert np.max(np.abs(out - want)) <= 1e-12 * np.max(np.abs(want))


class TestPsdEpoch:
    def test_zero_epoch(self):
        assert np.all(psd_one(np.zeros(512)) == 0.0)

    def test_shape_and_bin_centers(self):
        p = psd_one(np.ones(512))
        assert p.shape == (25,)
        assert np.array_equal(dsp.bin_frequencies(), np.arange(2, 51, 2))

    def test_sinusoid_concentration(self):
        t = np.arange(512) / 512.0
        p = psd_one(np.sin(2.0 * np.pi * 10.0 * t))
        assert int(np.argmax(p)) == 4  # bin 5, 10 Hz
        assert p[3:6].sum() >= 0.85 * p.sum()

    def test_white_noise_density_scale(self):
        rng = np.random.default_rng(31)
        sigma2 = 2.5
        total = 0.0
        for _ in range(100):
            x = rng.normal(scale=np.sqrt(sigma2), size=512)
            total += psd_one(x).sum() * 2.0
        got = total / 100.0
        want = sigma2 * 50.0 / 256.0  # retained 2-50 Hz share of a flat spectrum
        assert abs(got - want) <= 0.2 * want

    def test_offset_invariance(self):
        rng = np.random.default_rng(32)
        x = rng.normal(size=512)
        p1 = psd_one(x)
        p2 = psd_one(x + 123.456)
        assert np.max(np.abs(p1 - p2)) <= 1e-9 * max(1.0, p1.max())

    def test_values_nonnegative_finite(self):
        rng = np.random.default_rng(33)
        p = psd_one(rng.normal(size=512))
        assert np.all(p >= 0.0) and np.all(np.isfinite(p))

    def test_matches_direct_periodogram(self):
        rng = np.random.default_rng(34)
        epochs = 5.0 * rng.normal(size=(3, 4, 512)) + 2.0
        batched = dsp._psd_epoch_rows(epochs)
        assert batched.shape == (3, 4, 25)
        for epoch, got in zip(epochs.reshape(-1, 512), batched.reshape(-1, 25)):
            want = periodogram_psd(epoch, 512.0)
            assert np.max(np.abs(got - want)) <= 1e-12 * want.max()
