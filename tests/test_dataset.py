"""Dataset generation, manifest I/O, and validation."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from motorclass import dataset, features, fusion, stats
from motorclass.dataset import (CHANNELS, LEFT, RIGHT, DataError, SynthConfig,
                                generate_synthetic, load_dataset, save_dataset,
                                stratified_positions)


def small_config(**kw):
    base = dict(n_trials_per_side=2, asymmetry_db=0.0, seed=5)
    base.update(kw)
    return SynthConfig(**base)


class TestGenerate:
    def test_deterministic_bit_for_bit(self):
        a = generate_synthetic(small_config())
        b = generate_synthetic(small_config())
        assert len(a.trials) == len(b.trials)
        for ta, tb in zip(a.trials, b.trials):
            assert ta.label == tb.label
            assert np.array_equal(ta.samples, tb.samples)

    def test_counts_and_labels(self):
        ds = generate_synthetic(SynthConfig(n_trials_per_side=3, seed=1))
        assert len(ds.trials) == 6
        labels = [t.label for t in ds.trials]
        assert labels.count(RIGHT) == labels.count(LEFT) == 3

    def test_single_trial_per_side(self):
        ds = generate_synthetic(SynthConfig(n_trials_per_side=1, seed=2))
        assert len(ds.trials) == 2

    def test_invalid_config_rejected(self):
        with pytest.raises(DataError):
            SynthConfig(target_band="gamma").validate()
        with pytest.raises(DataError):
            SynthConfig(n_trials_per_side=0).validate()
        with pytest.raises(DataError):
            SynthConfig(asymmetry_db=-1.0).validate()
        with pytest.raises(DataError):
            SynthConfig(target_channels=("C3", "XX")).validate()
        # midline targets are never boosted, so an asymmetry needs a lateral one
        for targets in ((), ("FCz", "CPz")):
            with pytest.raises(DataError, match="lateral"):
                SynthConfig(asymmetry_db=3.0, target_channels=targets)
        SynthConfig(asymmetry_db=0.0, target_channels=())

    def test_null_false_positive_rate(self, null_fractions):
        # asymmetry 0 -> about 5% of cells significant at p < 0.05
        mean_frac = float(np.mean(null_fractions))
        assert abs(mean_frac - 0.05) <= 0.03

    def test_planted_asymmetry_recovered(self, bp_filter):
        # +3 dB alpha on C3/C4: those cells dominate every other cell's |t|
        target = np.zeros((12, 25), dtype=bool)
        for ch in (CHANNELS.index("C3"), CHANNELS.index("C4")):
            for b in stats.BAND_BINS["alpha"]:
                target[ch, b - 1] = True
        hits = 0
        for seed in range(20):
            ds = generate_synthetic(SynthConfig(asymmetry_db=3.0, seed=seed))
            fm = features.build_feature_matrix(ds, bp_filter)
            smap = stats.significance_map(fm, alpha=0.05)
            ok = (smap.significant[target].all()
                  and np.abs(smap.t[target]).min() > np.median(np.abs(smap.t[~target])))
            hits += int(ok)
        assert hits >= 18

    def test_boost_is_contralateral(self, bp_filter):
        # right-labeled trials carry the alpha boost on C4, left-labeled on C3
        ds = generate_synthetic(SynthConfig(n_trials_per_side=4, asymmetry_db=6.0, seed=3))
        fm = features.build_feature_matrix(ds, bp_filter)
        alpha_cols = [features.feature_names().index(f"{ch}_10Hz") for ch in ("C3", "C4")]
        c3, c4 = (fm.X[:, c] for c in alpha_cols)
        right = fm.y == RIGHT
        assert c4[right].mean() > 3.0 * c4[~right].mean()
        assert c3[~right].mean() > 3.0 * c3[right].mean()


class TestRoundTrip:
    def test_save_load_equality(self, tmp_path):
        ds = generate_synthetic(small_config(asymmetry_db=6.0))
        manifest = save_dataset(ds, tmp_path / "d")
        loaded = load_dataset(manifest)
        assert loaded.subject_id == ds.subject_id
        assert len(loaded.trials) == len(ds.trials)
        for a, b in zip(ds.trials, loaded.trials):
            assert a.trial_id == b.trial_id and a.label == b.label
            assert np.array_equal(a.samples, b.samples)

    def test_manifest_schema(self, tmp_path):
        manifest = save_dataset(generate_synthetic(small_config()), tmp_path / "d")
        blob = json.loads(manifest.read_text())
        assert blob["fs"] == 512
        assert blob["channels"] == list(CHANNELS)
        assert all(set(e) == {"trial_id", "label", "file"} for e in blob["trials"])


class TestLoadErrors:
    def _write(self, tmp_path, mutate):
        ds = generate_synthetic(small_config())
        manifest = save_dataset(ds, tmp_path / "d")
        blob = json.loads(manifest.read_text())
        mutate(blob, manifest.parent)
        manifest.write_text(json.dumps(blob))
        return manifest

    def test_empty_dataset(self, tmp_path):
        manifest = self._write(tmp_path, lambda b, d: b.update(trials=[]))
        with pytest.raises(DataError) as err:
            load_dataset(manifest)
        assert err.value.code == "EmptyDataset"

    def test_bad_sample_count_names_trial(self, tmp_path):
        def chop(blob, folder):
            f = folder / blob["trials"][1]["file"]
            lines = f.read_text().splitlines()
            f.write_text("\n".join(lines[:-1]) + "\n")  # drop one data row -> 4095
        manifest = self._write(tmp_path, chop)
        with pytest.raises(DataError) as err:
            load_dataset(manifest)
        assert err.value.code == "BadSampleCount"
        assert err.value.trial_id == 1

    def test_non_finite_sample(self, tmp_path):
        def poison(blob, folder):
            f = folder / blob["trials"][0]["file"]
            lines = f.read_text().splitlines()
            cells = lines[1].split(",")
            cells[3] = "nan"
            lines[1] = ",".join(cells)
            f.write_text("\n".join(lines) + "\n")
        manifest = self._write(tmp_path, poison)
        with pytest.raises(DataError) as err:
            load_dataset(manifest)
        assert err.value.code == "NonFinite"

    def test_bad_label(self, tmp_path):
        manifest = self._write(
            tmp_path, lambda b, d: b["trials"][0].update(label=3))
        with pytest.raises(DataError) as err:
            load_dataset(manifest)
        assert err.value.code == "BadLabel"

    def test_missing_trial_file(self, tmp_path):
        manifest = self._write(
            tmp_path, lambda b, d: b["trials"][0].update(file="nope.csv"))
        with pytest.raises(DataError) as err:
            load_dataset(manifest)
        assert err.value.code == "MissingFile"

    def test_imbalance_warns_not_rejects(self, tmp_path):
        manifest = self._write(
            tmp_path, lambda b, d: b.update(trials=b["trials"][:3]))
        with pytest.warns(UserWarning, match="imbalanced"):
            ds = load_dataset(manifest)
        assert len(ds.trials) == 3


class TestStratifiedPositions:
    @given(st.lists(st.sampled_from([RIGHT, LEFT]), max_size=60),
           st.integers(0, 2 ** 32 - 1))
    def test_split_properties(self, labels, seed):
        labels = np.array(labels, dtype=int)
        pos = stratified_positions(labels, seed)
        assert np.array_equal(pos, stratified_positions(labels, seed))
        for label in (RIGHT, LEFT):
            side = pos[labels == label]
            # a permutation of 0..n-1 per side, so folds and the calibration
            # holdout partition the side's units
            assert sorted(side.tolist()) == list(range(len(side)))
            fold_sizes = np.bincount(side % 3, minlength=3)
            assert fold_sizes.max() - fold_sizes.min() <= 1
        ids = np.arange(len(labels)) * 7
        if min((labels == RIGHT).sum(), (labels == LEFT).sum()) >= 2:
            fit, calib = fusion.make_calibration_split(ids, labels, seed)
            assert sorted(np.concatenate([fit, calib]).tolist()) == ids.tolist()
            for label in (RIGHT, LEFT):
                n = int((labels == label).sum())
                assert int(np.isin(ids[labels == label], calib).sum()) == max(1, n // 4)
