"""Self-tests for the reference oracles: each is checked against an analytic
closed form or an independent library routine before anything else trusts it."""

import math

import numpy as np
import pytest

from motorclass.classifiers import TrainConfig
from motorclass.dataset import CHANNEL_INDEX, LEFT, RIGHT, SynthConfig
from motorclass.features import FeatureMatrix
from motorclass.stats import paired_t
from oracles import (brute_dft, direct_fir, freq_response, generate_synthetic_reference,
                     pegasos_reference, periodogram_psd, significance_map_reference,
                     t_two_tailed_p)


def test_brute_dft_impulse():
    assert np.allclose(brute_dft([1, 0, 0, 0]), np.ones(4), atol=1e-12)


def test_brute_dft_single_tone():
    n = 16
    x = np.exp(2j * np.pi * 3 * np.arange(n) / n)
    spec = brute_dft(x)
    expected = np.zeros(n, dtype=complex)
    expected[3] = n
    assert np.allclose(spec, expected, atol=1e-9)


def test_brute_dft_matches_library():
    rng = np.random.default_rng(7)
    x = rng.normal(size=33) + 1j * rng.normal(size=33)
    assert np.allclose(brute_dft(x), np.fft.fft(x), atol=1e-9)


def test_brute_dft_inverse_and_batch_match_library():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 3, 16)) + 1j * rng.normal(size=(2, 3, 16))
    assert np.allclose(brute_dft(x), np.fft.fft(x), atol=1e-9)
    assert np.allclose(brute_dft(x, inverse=True), 16 * np.fft.ifft(x), atol=1e-9)


def test_synthetic_reference_spectrum():
    """Each background bin of an epoch has DFT magnitude sqrt(N) * amp, amp the
    1/f^(alpha/2) magnitude; a boosted channel's band holds 10^(db/10) times
    the power the background puts there."""
    trial = generate_synthetic_reference(
        SynthConfig(n_trials_per_side=1, asymmetry_db=6.0, noise_model=1.5, seed=4)).trials[0]
    assert trial.label == RIGHT   # so C4 alone is boosted, in the alpha band
    n = 512
    freqs = np.arange(1, n // 2)
    background = np.sqrt(n) * 50.0 * freqs ** -0.75
    band = (freqs >= 7) & (freqs <= 13)
    c4 = CHANNEL_INDEX["C4"]
    for start in (0, 7 * n):
        spec = np.abs(brute_dft(trial.samples[:, start:start + n]))[:, 1:n // 2]
        assert np.allclose(np.delete(spec, c4, axis=0), background, rtol=1e-9, atol=0)
        assert np.allclose(spec[c4, ~band], background[~band], rtol=1e-9, atol=0)
        assert (spec[c4, band] ** 2).sum() == pytest.approx(
            10 ** 0.6 * (background[band] ** 2).sum(), rel=1e-9)


def test_direct_fir_identity_and_library():
    rng = np.random.default_rng(9)
    x = rng.normal(size=40)
    assert np.allclose(direct_fir([0.0, 1.0, 0.0], x), x, atol=0.0)
    taps = rng.normal(size=7)
    padded = np.pad(x, 3, mode="reflect")
    assert np.allclose(direct_fir(taps, x), np.convolve(padded, taps, mode="valid"),
                       atol=1e-12)


def test_periodogram_on_bin_centered_tone():
    # a 10 Hz cosine sits on bin 5 of each 256-point segment; a periodic
    # Hamming window spreads it over bins 4..6 with weights -0.23, 0.54, -0.23
    fs, amp = 512.0, 3.0
    x = amp * np.cos(2.0 * np.pi * 10.0 * np.arange(512) / fs)
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(256) / 256)
    scale = 2.0 / (fs * np.sum(window ** 2))
    p = periodogram_psd(x, fs)
    assert p[4] == pytest.approx(scale * (amp / 2 * 0.54 * 256) ** 2, rel=1e-9)
    assert p[3] == pytest.approx(scale * (amp / 2 * 0.23 * 256) ** 2, rel=1e-9)
    assert np.max(np.abs(p[6:])) <= 1e-18 * p[4]


def test_freq_response_identity_and_delay():
    assert freq_response([1.0], 512.0, 25.0) == pytest.approx(1.0)
    # a pure delay has unit magnitude at every frequency
    for f in (0.5, 10.0, 100.0):
        assert freq_response([0.0, 1.0, 0.0], 512.0, f) == pytest.approx(1.0)


def test_freq_response_moving_average_null():
    # 2-tap average nulls at fs/2
    assert freq_response([0.5, 0.5], 512.0, 256.0) == pytest.approx(0.0, abs=1e-12)


def test_t_p_analytic_anchors():
    assert t_two_tailed_p(0.0, 5) == 1.0
    # df=1 is Cauchy: p = 1 - (2/pi) * arctan(t)
    for t in (0.5, 1.0, 2.0, 5.0):
        assert t_two_tailed_p(t, 1) == pytest.approx(1.0 - 2.0 / math.pi * math.atan(t),
                                                     abs=1e-8)


def test_t_p_large_df_normal_limit():
    # for df -> inf the t distribution approaches the standard normal
    p_normal = 2.0 * (1.0 - 0.5 * (1.0 + math.erf(1.96 / math.sqrt(2.0))))
    assert t_two_tailed_p(1.96, 100000) == pytest.approx(p_normal, abs=1e-4)


def test_t_p_monotone_in_t():
    ps = [t_two_tailed_p(t, 7) for t in np.linspace(0.0, 6.0, 25)]
    assert all(a > b for a, b in zip(ps, ps[1:]))


@pytest.mark.parametrize("seed,b", [(0, -0.5), (3, 0.5)])
def test_pegasos_two_steps_by_hand(seed, b):
    # rows x = 1 (Right, y = +1) and x = -0.5 (Left, y = -1); the canonical
    # order puts the Left row first (sign-canonical values 0.5 < 1), and
    # lambda = 1 / (C n) = 0.5. Seed 0 draws the order [Left, Right]:
    #   t = 1: margin 0 < 1, so v = (-1)(-0.5) = 0.5 and b = -1 / 1 = -1;
    #   t = 2: margin (+1)(1 * 0.5 / (0.5 * 1) - 1) = 0 < 1, so v = 1.5 and
    #          b = -1 + 1 / 2 = -0.5.
    # Seed 3 draws [Right, Left]:
    #   t = 1: v = 1, b = 1;
    #   t = 2: margin (-1)(-0.5 * 1 / 0.5 + 1) = 0 < 1, so v = 1.5, b = 1 - 1 / 2 = 0.5.
    # Either way w = v / (lambda T) = 1.5 / (0.5 * 2) = 1.5.
    assert list(np.random.default_rng(seed).permutation(2)) == ([0, 1] if seed == 0 else [1, 0])
    w, got_b = pegasos_reference([[1.0], [-0.5]], [RIGHT, LEFT],
                                 TrainConfig(svm_epochs=1, seed=seed))
    assert list(w) == [1.5]
    assert got_b == b


def test_significance_map_reference_pairs_by_rank():
    """Rows given in any order pair by (trial_id, epoch): each cell's t is
    paired_t of the two sides' columns sorted by hand, and each side's mean
    is its column mean."""
    rng = np.random.default_rng(21)
    keys = [(label, tid, ep) for label, tids in ((RIGHT, (4, 1)), (LEFT, (3, 0)))
            for tid in tids for ep in range(8)]
    X = rng.normal(size=(len(keys), 300)) ** 2
    perm = rng.permutation(len(keys))
    fm = FeatureMatrix(X=X[perm], y=np.array([keys[i][0] for i in perm]),
                       trial_ids=np.array([keys[i][1] for i in perm]),
                       epochs=np.array([keys[i][2] for i in perm]))
    smap = significance_map_reference(fm)
    def ranked(label):
        order = sorted((tid, ep, i) for i, (lab, tid, ep) in enumerate(keys) if lab == label)
        return X[[i for _, _, i in order]]

    side = {label: ranked(label) for label in (RIGHT, LEFT)}
    for j in (0, 137, 299):
        assert smap.t.flat[j] == paired_t(side[RIGHT][:, j], side[LEFT][:, j]).t
    assert np.allclose(smap.mean_right.ravel(), side[RIGHT].mean(axis=0), rtol=1e-12, atol=0)
    assert np.allclose(smap.delta.ravel(), side[RIGHT].mean(axis=0) - side[LEFT].mean(axis=0),
                       rtol=1e-12, atol=1e-15)
