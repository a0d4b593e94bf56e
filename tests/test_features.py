"""Feature extraction and standardization."""

import numpy as np
import pytest

from motorclass import dataset, features
from motorclass.dataset import LEFT, RIGHT, SynthConfig, generate_synthetic
from motorclass.dsp import epoch_trial
from motorclass.features import (apply_scaler, build_feature_matrix, feature_names, fit_scaler,
                                 moments, save_features_csv)
from oracles import direct_fir, periodogram_psd


class TestEpochTrial:
    def test_eight_epochs(self):
        epochs = epoch_trial(np.zeros((12, 4096)))
        assert epochs.shape == (8, 12, 512)

    def test_concatenation_identity(self):
        rng = np.random.default_rng(1)
        samples = rng.normal(size=(12, 4096))
        epochs = epoch_trial(samples)
        rebuilt = epochs.transpose(1, 0, 2).reshape(12, 4096)
        assert np.array_equal(rebuilt, samples)

    def test_indexing_identity(self):
        samples = np.zeros((12, 4096))
        samples[0, 0] = 42.0  # F3, first sample
        assert epoch_trial(samples)[0, 0, 0] == 42.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            epoch_trial(np.zeros((12, 4000)))


class TestBuildFeatureMatrix:
    def test_row_counts_80_trials(self, fm80):
        assert fm80.X.shape == (640, 300)
        assert int((fm80.y == RIGHT).sum()) == 320
        assert int((fm80.y == LEFT).sum()) == 320

    def test_single_trial(self, bp_filter):
        ds = generate_synthetic(SynthConfig(n_trials_per_side=1, seed=4))
        one = dataset.Dataset(subject_id=ds.subject_id, trials=ds.trials[:1])
        fm = build_feature_matrix(one, bp_filter)
        assert fm.X.shape == (8, 300)
        assert np.all(fm.y == ds.trials[0].label)

    def test_cell_recomputation(self, ds80, fm80, bp_filter):
        # row 0 epoch 0, channel FCz at 10 Hz recomputed by the reference oracles
        filtered = direct_fir(bp_filter.taps, ds80.trials[0].samples[5])
        expected = periodogram_psd(filtered[:512], 512.0)[4]
        col = feature_names().index("FCz_10Hz")
        assert fm80.X[0, col] == pytest.approx(expected, rel=1e-9)

    def test_row_order(self, ds80, fm80):
        assert list(fm80.trial_ids[:16]) == [ds80.trials[0].trial_id] * 8 + \
            [ds80.trials[1].trial_id] * 8
        assert list(fm80.epochs[:8]) == list(range(8))

    def test_deterministic(self, ds80, bp_filter, fm80):
        again = build_feature_matrix(ds80, bp_filter)
        assert np.array_equal(again.X, fm80.X)

    def test_log_power_view(self, ds80, bp_filter, fm80):
        fm_db = build_feature_matrix(ds80, bp_filter, scale="db")
        assert np.allclose(fm_db.X, 10.0 * np.log10(np.maximum(fm80.X, 1e-20)))
        with pytest.raises(ValueError, match="scale must be one of"):
            build_feature_matrix(ds80, bp_filter, scale="log")


class TestScaler:
    def test_zscore_identity(self):
        rng = np.random.default_rng(6)
        X = rng.normal(loc=3.0, scale=2.0, size=(200, 7))
        Z = apply_scaler(fit_scaler(X), X)
        assert np.max(np.abs(Z.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(Z.std(axis=0) - 1.0)) <= 1e-9

    def test_constant_column_zeroed(self):
        X = np.column_stack([np.arange(10.0), np.full(10, 4.2)])
        Z = apply_scaler(fit_scaler(X), X)
        assert np.all(Z[:, 1] == 0.0)
        assert np.std(Z[:, 0]) == pytest.approx(1.0)

    def test_train_statistics_only(self):
        rng = np.random.default_rng(7)
        train = rng.normal(size=(50, 3))
        test_a = rng.normal(size=(20, 3))
        test_b = test_a + 100.0
        scaler = fit_scaler(train)
        za = apply_scaler(scaler, test_a)
        zb = apply_scaler(scaler, test_b)
        # the scaler did not move: shifted rows come out shifted, not re-centered
        assert np.allclose(zb - za, 100.0 / scaler.std)

    def test_constant_rule_is_relative(self):
        # a column wobbling by one ulp of 1e8 is constant; one in units of 1e-14 is not
        big = np.where(np.arange(10) % 2 == 0, 1e8, np.nextafter(1e8, 2e8))
        small = np.arange(10.0) * 1e-14
        X = np.column_stack([big, small])
        scaler = fit_scaler(X)
        assert scaler.std[0] > 1e-12 and scaler.std[1] < 1e-12
        assert scaler.constant.tolist() == [True, False]
        Z = apply_scaler(scaler, X)
        assert np.all(Z[:, 0] == 0.0)
        assert np.std(Z[:, 1]) == pytest.approx(1.0)

    def test_huge_features_keep_their_spread(self):
        # squares of 1e160 overflow; the z-scores must not notice the unit
        rng = np.random.default_rng(8)
        X = rng.normal(loc=3.0, scale=2.0, size=(50, 4))
        big = X * 2.0 ** 540
        with np.errstate(over="ignore"):
            assert not np.isfinite(big.std(axis=0)).any()
        assert np.array_equal(apply_scaler(fit_scaler(big), big), apply_scaler(fit_scaler(X), X))

    def test_fit_needs_two_rows(self):
        with pytest.raises(ValueError):
            fit_scaler(np.zeros((1, 3)))



class TestMoments:
    def test_bitwise_equal_to_numpy_where_finite(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            n = int(rng.integers(2, 40))
            x = rng.normal(size=n) * 10.0 ** rng.uniform(-30, 30)
            for ddof in (0, 1):
                mean, std = moments(x, ddof=ddof)
                assert mean == x.mean() and std == x.std(ddof=ddof)
        X = rng.normal(size=(60, 5)) * 10.0 ** rng.uniform(-30, 30, size=5)
        mean, std = moments(X)
        assert np.array_equal(mean, X.mean(axis=0)) and np.array_equal(std, X.std(axis=0))

    def test_no_overflow_or_underflow(self):
        x = np.array([1.0, 2.0, 4.0, 7.0])
        for factor in (2.0 ** 600, 2.0 ** -600):
            mean, std = moments(x * factor, ddof=1)
            assert mean == x.mean() * factor and std == x.std(ddof=1) * factor

    def test_zero_column(self):
        mean, std = moments(np.zeros((3, 2)))
        assert mean.tolist() == [0.0, 0.0] and std.tolist() == [0.0, 0.0]


class TestCsvExport:
    def test_header_and_round_trip(self, tmp_path, bp_filter):
        ds = generate_synthetic(SynthConfig(n_trials_per_side=1, seed=9))
        fm = build_feature_matrix(ds, bp_filter)
        path = save_features_csv(fm, tmp_path / "features.csv")
        lines = path.read_text().splitlines()
        names = feature_names()
        assert lines[0] == "trial_id,epoch,label," + ",".join(names)
        assert names[0] == "F3_2Hz" and names[-1] == "P4_50Hz"
        assert len(names) == 300
        table = np.loadtxt(path, delimiter=",", skiprows=1)
        assert table.shape == (16, 303)
        assert np.array_equal(table[:, 3:], fm.X)
