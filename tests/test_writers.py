"""Every table goes through dataset.write_csv and every JSON file through
dataset.write_json; their bytes are the ones np.savetxt and the former
f-string loops wrote, special floats included."""

import json

import numpy as np
import pytest

from motorclass import dsp, evaluation, stats
from motorclass.dataset import (CHANNELS, TRIAL_SAMPLES, Dataset, Trial, save_dataset,
                                write_csv, write_json)
from motorclass.features import N_FEATURES, FeatureMatrix, feature_names, save_features_csv
from oracles import band_csv_text, map_csv_text, psd_curves_csv_text, report_csv_text

# NaN, signed zero, both infinities, the smallest subnormal, a float whose
# %.17g has no exponent, and values that need all 17 digits
SPECIAL = np.array([np.nan, -0.0, 0.0, np.inf, -np.inf, 5e-324, 1e16, -1e16,
                    0.1, 1.0 / 3.0, -2.5e-300, 1.7976931348623157e308])


def special_table(shape, seed=0):
    """Normal draws with SPECIAL spread over the cells."""
    rng = np.random.default_rng(seed)
    table = rng.normal(scale=50.0, size=shape)
    flat = table.reshape(-1)
    flat[rng.choice(flat.size, 3 * len(SPECIAL), replace=False)] = np.tile(SPECIAL, 3)
    return table


def savetxt_bytes(tmp_path, table, fmt, header):
    ref = tmp_path / "savetxt.csv"
    np.savetxt(ref, table, fmt=fmt, delimiter=",", header=header, comments="")
    return ref.read_bytes()


def test_trial_csv_matches_savetxt(tmp_path):
    samples = special_table((len(CHANNELS), TRIAL_SAMPLES))
    ds = Dataset(subject_id="s", trials=[Trial(3, 1, samples)])
    save_dataset(ds, tmp_path / "ds")
    got = (tmp_path / "ds" / "trial_0003.csv").read_bytes()
    assert got == savetxt_bytes(tmp_path, samples.T, "%.17g", ",".join(CHANNELS))
    cells = set(got.decode().replace("\n", ",").split(","))
    assert {"nan", "-0", "inf", "-inf", "4.9406564584124654e-324", "10000000000000000"} <= cells


def test_features_csv_matches_savetxt(tmp_path):
    n = 16
    fm = FeatureMatrix(X=special_table((n, N_FEATURES), seed=1),
                       y=np.tile([1, 2], n // 2), trial_ids=np.repeat(np.arange(n // 8), 8),
                       epochs=np.tile(np.arange(8), n // 8))
    got = save_features_csv(fm, tmp_path / "features.csv").read_bytes()
    table = np.column_stack([fm.trial_ids, fm.epochs, fm.y, fm.X])
    want = savetxt_bytes(tmp_path, table, ["%d"] * 3 + ["%.17g"] * N_FEATURES,
                         "trial_id,epoch,label," + ",".join(feature_names()))
    assert got == want


@pytest.fixture
def special_maps():
    shape = (len(CHANNELS), dsp.PSD_BINS)
    t, p, delta, right, left = (special_table(shape, seed) for seed in range(2, 7))
    smap = stats.SignificanceMap(t=t, p=p, delta=delta, significant=np.isnan(t) | (p > 0),
                                 alpha=0.05, mean_right=right, mean_left=left)
    bands = len(stats.BAND_ORDER)
    sig = special_table((bands, len(CHANNELS)), seed=8)
    sig[0, :3] = np.nan
    bmap = stats.BandMap(bands=stats.BAND_ORDER,
                         mean_delta=special_table((bands, len(CHANNELS)), seed=7),
                         mean_delta_significant=sig)
    return smap, bmap


def test_stats_csvs_match_former_loops(tmp_path, special_maps):
    smap, bmap = special_maps
    freqs = dsp.bin_frequencies()
    assert (stats.save_map_csv(smap, tmp_path / "m.csv").read_text()
            == map_csv_text(CHANNELS, freqs, smap))
    assert (stats.save_psd_curves_csv(smap, tmp_path / "c.csv").read_text()
            == psd_curves_csv_text(CHANNELS, freqs, smap))
    text = stats.save_band_csv(bmap, tmp_path / "b.csv").read_text()
    assert text == band_csv_text(CHANNELS, bmap)
    # NaN, no significant bin, is an empty last cell
    assert text.splitlines()[1].endswith(",")


@pytest.mark.parametrize("std_keys", [("_std",), ("_std_folds", "_std_subjects")],
                         ids=["evaluate", "combined"])
def test_report_csv_matches_former_loop(tmp_path, std_keys):
    values = iter(np.tile(SPECIAL, 20).tolist())
    report = {"classifiers": [
        {"kind": kind, **{f"{name}{suffix}": next(values)
                          for name in evaluation.METRIC_NAMES
                          for suffix in ("_mean", *std_keys)}}
        for kind in evaluation.REPORT_ORDER]}
    got = evaluation.report_to_csv(report, tmp_path / "r.csv").read_text()
    assert got == report_csv_text(evaluation.METRIC_NAMES, report)


def test_write_csv_header_and_rows(tmp_path):
    path = write_csv(tmp_path / "t.csv", ("a", "b"), ("%s", "%.17g"),
                     iter([("x", -0.0), ("", 5e-324)]))
    assert path == tmp_path / "t.csv"
    assert path.read_text() == "a,b\nx,-0\n,4.9406564584124654e-324\n"


def test_write_json_is_indented_sorted_and_terminated(tmp_path):
    obj = {"b": [1, 2.5, None], "a": {"z": "s", "y": True}}
    path = write_json(tmp_path / "x.json", obj)
    assert path.read_text() == json.dumps(obj, indent=2, sort_keys=True) + "\n"
    assert path.read_text().endswith("]\n}\n")
