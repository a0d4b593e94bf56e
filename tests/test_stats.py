"""Paired t-tests, p-values, the significance map, and band aggregation."""

import json
import math

import numpy as np
import pytest

from motorclass import dsp, features, stats
from motorclass.dataset import (CHANNELS, EPOCHS_PER_TRIAL, LEFT, RIGHT, DataError, Dataset,
                                SynthConfig, TrialFiles, generate_synthetic, save_dataset)
from motorclass.features import FeatureMatrix
from motorclass.stats import (BAND_BINS, band_aggregate, paired_t, significance_map,
                              t_pvalue)
from oracles import significance_map_reference, t_two_tailed_p


class TestTPvalue:
    def test_zero_t(self):
        for df in (1, 5, 100):
            assert t_pvalue(0.0, df) == 1.0

    def test_cauchy_anchor(self):
        assert t_pvalue(1.0, 1) == pytest.approx(0.5, abs=1e-10)

    def test_tabulated_anchor(self):
        assert t_pvalue(2.228, 10) == pytest.approx(0.05, abs=5e-4)

    def test_matches_quadrature_oracle(self):
        for df in (1, 3, 10, 100, 639):
            for t in (0.0, 0.5, 1.0, 2.0, 3.0, 5.0):
                assert t_pvalue(t, df) == pytest.approx(
                    t_two_tailed_p(t, df), abs=5e-4), (t, df)

    def test_symmetry(self):
        for df in (2, 9, 50):
            for t in (0.3, 1.7, 4.0):
                assert t_pvalue(t, df) == t_pvalue(-t, df)

    def test_monotone_in_abs_t(self):
        ts = np.linspace(0.0, 8.0, 100)
        ps = [t_pvalue(t, 7) for t in ts]
        assert all(a > b for a, b in zip(ps, ps[1:]))

    def test_infinite_t(self):
        assert t_pvalue(math.inf, 4) == 0.0
        assert t_pvalue(-math.inf, 4) == 0.0

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            t_pvalue(1.0, 0)


class TestPairedT:
    def test_zero_mean_difference(self):
        res = paired_t([2.0, 0.0, 2.0, 0.0], [1.0, 1.0, 1.0, 1.0])
        assert res.t == 0.0 and res.p == 1.0

    def test_constant_nonzero_difference(self):
        res = paired_t([2.0, 3.0, 4.0, 5.0], [1.0, 2.0, 3.0, 4.0])
        assert res.p == 0.0 and res.t == math.inf

    def test_hand_computed_case(self):
        # differences [2, 0, 2, 0]: mean 1, sd 2/sqrt(3), t = sqrt(3)
        res = paired_t([3.0, 1.0, 3.0, 1.0], [1.0, 1.0, 1.0, 1.0])
        assert res.t == pytest.approx(math.sqrt(3.0), abs=1e-6)
        assert res.df == 3
        assert res.p == pytest.approx(t_two_tailed_p(math.sqrt(3.0), 3), abs=5e-4)
        assert res.p == pytest.approx(0.1817, abs=5e-4)

    def test_antisymmetry(self):
        rng = np.random.default_rng(3)
        x, y = rng.normal(size=30), rng.normal(size=30)
        a, b = paired_t(x, y), paired_t(y, x)
        assert a.t == pytest.approx(-b.t) and a.p == pytest.approx(b.p)

    def test_scale_free(self):
        # d.std() of differences near 1e160 overflows; t and p must not move
        rng = np.random.default_rng(4)
        x, y = rng.normal(loc=0.5, size=12), rng.normal(size=12)
        want = paired_t(x, y)
        for factor in (2.0 ** 540, 2.0 ** -540):
            got = paired_t(x * factor, y * factor)
            assert (got.t, got.p) == (want.t, want.p)

    def test_overflowing_std_keeps_t(self):
        # d = [a, -a, a]: t = 0.5 and p = 2/3 at df 2, though the unscaled
        # sample std of a = 1.6e308 overflows; the 2^-1024 copy gives the same bits
        x = np.array([1.6e308, -1.6e308, 1.6e308])
        res = paired_t(x, np.zeros(3))
        assert res.t == pytest.approx(0.5, abs=1e-12)
        assert res.p == pytest.approx(2.0 / 3.0, abs=1e-9)
        scaled = paired_t(np.ldexp(x, -1024), np.zeros(3))
        assert (scaled.t, scaled.p) == (res.t, res.p)

    def test_overflowing_difference_is_a_numeric_error(self):
        # finite inputs whose difference is not: an ArithmeticError (exit 3), not a NaN t
        with pytest.raises(ArithmeticError, match="overflows"):
            paired_t([1e308, 1e308, 0.0], [-1e308, 0.0, 0.0])

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            paired_t([1.0], [2.0])
        with pytest.raises(ValueError):
            paired_t([1.0, 2.0], [1.0, 2.0, 3.0])


def tiny_fm(right_rows, left_rows):
    """FeatureMatrix with one 300-wide row per entry, trial per 8 epochs."""
    X = np.vstack([right_rows, left_rows])
    n_r, n_l = len(right_rows), len(left_rows)
    y = np.array([RIGHT] * n_r + [LEFT] * n_l)
    right_ids = np.repeat(np.arange(-(-n_r // 8)), 8)[:n_r]
    left_ids = 100 + np.repeat(np.arange(-(-n_l // 8)), 8)[:n_l]
    epochs = np.concatenate([np.arange(n_r) % 8, np.arange(n_l) % 8])
    return FeatureMatrix(X=X, y=y, trial_ids=np.concatenate([right_ids, left_ids]),
                         epochs=epochs)


class TestSignificanceMap:
    def test_identical_sides_nothing_significant(self):
        rng = np.random.default_rng(8)
        rows = rng.normal(size=(16, 300)) ** 2
        fm = tiny_fm(rows, rows.copy())
        smap = significance_map(fm, alpha=0.05)
        assert np.all(smap.t == 0.0) and np.all(smap.p == 1.0)
        assert not smap.significant.any()
        assert np.allclose(smap.delta, 0.0)

    def test_alpha_zero_marks_nothing(self):
        rng = np.random.default_rng(9)
        fm = tiny_fm(rng.normal(size=(16, 300)) ** 2, rng.normal(size=(16, 300)) ** 2)
        assert not significance_map(fm, alpha=0.0).significant.any()

    def test_planted_c4_alpha(self, bp_filter):
        # +3 dB alpha targeted at C4 only: right trials boosted on C4
        ds = generate_synthetic(SynthConfig(asymmetry_db=3.0, target_channels=("C4",),
                                            seed=12))
        fm = features.build_feature_matrix(ds, bp_filter)
        smap = significance_map(fm, alpha=0.05)
        c4 = CHANNELS.index("C4")
        for b in BAND_BINS["alpha"]:
            assert smap.significant[c4, b - 1]
            assert smap.delta[c4, b - 1] > 0.0

    def test_label_swap_flips_delta_keeps_p(self):
        rng = np.random.default_rng(10)
        a, b = rng.normal(size=(16, 300)) ** 2, rng.normal(size=(16, 300)) ** 2
        m1 = significance_map(tiny_fm(a, b))
        m2 = significance_map(tiny_fm(b, a))
        assert np.allclose(m1.delta, -m2.delta)
        assert np.allclose(m1.p, m2.p)

    def test_unequal_counts(self):
        rng = np.random.default_rng(11)
        a, b = rng.normal(size=(16, 300)) ** 2, rng.normal(size=(24, 300)) ** 2
        with pytest.raises(ValueError, match="equal right/left counts, got 16 right and 24 left"):
            significance_map(tiny_fm(a, b))

    def test_missing_label_rejected(self):
        rng = np.random.default_rng(12)
        rows = rng.normal(size=(16, 300)) ** 2
        fm = tiny_fm(rows, rows)
        fm.y[:] = RIGHT
        with pytest.raises(ValueError):
            significance_map(fm)

    def test_trial_level(self, fm80):
        smap = significance_map(fm80, level="trial")
        assert smap.t.shape == (12, 25)
        # trial-level averaging uses 40 pairs per cell, epoch-level 320
        epoch_map = significance_map(fm80, level="epoch")
        assert not np.allclose(smap.t, epoch_map.t)


def _map_bytes(smap):
    return [a.tobytes() for a in (smap.t, smap.p, smap.delta, smap.significant,
                                  smap.mean_right, smap.mean_left)]


@pytest.fixture(scope="module")
def unsorted_manifest(tmp_path_factory):
    """Four trials per side at 6 dB, saved with the manifest's entries out of
    trial-id order."""
    ds = generate_synthetic(SynthConfig(n_trials_per_side=4, asymmetry_db=6.0, seed=9))
    path = save_dataset(ds, tmp_path_factory.mktemp("unsorted") / "d")
    blob = json.loads(path.read_text())
    blob["trials"] = [blob["trials"][i] for i in (5, 2, 7, 0, 3, 6, 1, 4)]
    path.write_text(json.dumps(blob))
    return path


class TestMatchesCopyingReference:
    """significance_map reads rows by position; oracles.significance_map_reference
    is the map as it was when it sorted copies of each side's rows."""

    @pytest.mark.parametrize("level", stats.LEVELS)
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_cpu", "two_cpus"])
    def test_unsorted_manifest(self, unsorted_manifest, bp_filter, pool_on, cpus, level):
        pool_on(cpus)
        files = TrialFiles(unsorted_manifest)
        fm = features.build_feature_matrix(Dataset(files.subject_id, files), bp_filter)
        assert fm.trial_ids[::EPOCHS_PER_TRIAL].tolist() == [5, 2, 7, 0, 3, 6, 1, 4]
        want = _map_bytes(significance_map_reference(fm, level=level))
        assert _map_bytes(significance_map(fm, level=level)) == want
        # rows in any order pair by (trial_id, epoch) alike
        perm = np.random.default_rng(cpus).permutation(fm.n_rows)
        shuffled = FeatureMatrix(X=fm.X[perm], y=fm.y[perm], trial_ids=fm.trial_ids[perm],
                                 epochs=fm.epochs[perm])
        assert _map_bytes(significance_map(shuffled, level=level)) == want

    @pytest.mark.parametrize("level", stats.LEVELS)
    @pytest.mark.parametrize("n_trials,n_left", [(3, 0), (5, 1), (6, 3)],
                             ids=["one_label", "unequal", "equal"])
    def test_same_outcome_on_relabeled_trials(self, fm80, n_trials, n_left, level):
        # fm80's first trials are all right-labeled; the last n_left of the
        # first n_trials become left-labeled
        rows = slice(0, n_trials * EPOCHS_PER_TRIAL)
        y = fm80.y[rows].copy()
        y[len(y) - n_left * EPOCHS_PER_TRIAL:] = LEFT
        part = FeatureMatrix(X=fm80.X[rows], y=y, trial_ids=fm80.trial_ids[rows],
                             epochs=fm80.epochs[rows])

        def outcome(smap_of):
            try:
                return _map_bytes(smap_of(part, level=level))
            except DataError as exc:
                return str(exc)
        want = outcome(significance_map_reference)
        assert isinstance(want, list) == (2 * n_left == n_trials)
        assert outcome(significance_map) == want


class TestBandAggregate:
    def test_partition_covers_all_bins(self):
        seen = sorted(b for bins in BAND_BINS.values() for b in bins)
        assert seen == list(range(1, 26))

    def test_uniform_delta(self):
        smap = stats.SignificanceMap(
            t=np.ones((12, 25)), p=np.zeros((12, 25)), delta=np.ones((12, 25)),
            significant=np.ones((12, 25), dtype=bool), alpha=0.05,
            mean_right=np.ones((12, 25)), mean_left=np.zeros((12, 25)))
        bmap = band_aggregate(smap)
        assert np.allclose(bmap.mean_delta, 1.0)
        assert np.allclose(bmap.mean_delta_significant, 1.0)

    def test_single_significant_cell(self):
        sig = np.zeros((12, 25), dtype=bool)
        delta = np.zeros((12, 25))
        c4 = CHANNELS.index("C4")
        sig[c4, 0] = True     # bin 1 = 2 Hz, the delta band
        delta[c4, 0] = 2.0
        smap = stats.SignificanceMap(
            t=np.zeros((12, 25)), p=np.ones((12, 25)), delta=delta,
            significant=sig, alpha=0.05,
            mean_right=delta, mean_left=np.zeros((12, 25)))
        bmap = band_aggregate(smap)
        d_band = bmap.bands.index("delta")
        assert bmap.mean_delta_significant[d_band, c4] == 2.0
        mask = np.zeros_like(bmap.mean_delta_significant, dtype=bool)
        mask[d_band, c4] = True
        assert np.all(np.isnan(bmap.mean_delta_significant[~mask]))


class TestCsvExports:
    def test_map_csv(self, tmp_path, fm80):
        smap = significance_map(fm80)
        path = stats.save_map_csv(smap, tmp_path / "map.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "channel,freq_hz,t,p,delta,significant"
        assert len(lines) == 1 + 300
        assert lines[1].startswith("F3,2,")

    def test_band_csv_nullable(self, tmp_path, fm80):
        smap = significance_map(fm80)
        path = stats.save_band_csv(band_aggregate(smap), tmp_path / "bands.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "band,channel,mean_delta,mean_delta_significant"
        assert len(lines) == 1 + 4 * 12

    def test_psd_curves_csv(self, tmp_path, fm80):
        smap = significance_map(fm80)
        path = stats.save_psd_curves_csv(smap, tmp_path / "curves.csv")
        lines = path.read_text().splitlines()
        assert lines[0] == "channel,freq_hz,mean_left,mean_right"
        assert len(lines) == 1 + 300
