"""The traced run's layer map: which program functions get a span or a
counter, and the per-layer metrics computed from them.

Every span is named after the per-layer time metric it feeds, and a time
metric is the sum of the self times of its spans. A metric whose functions
are all missing from the program (renamed or removed) is reported as None,
never as 0; a function that exists but was not called reports 0.
"""

from __future__ import annotations

import json
from pathlib import Path

KINDS = ("SVM", "KNN", "NaiveBayes", "Boosting", "LDA")
ROOT_SPAN = "cli.self_s"

# (metric, unit, better); the order is the print order
PER_LAYER = [
    ("cli.self_s", "s", "lower"),
    ("dataset.load_dataset_s", "s", "lower"),
    ("dataset.load_dataset_bytes", "bytes", "lower"),
    ("dataset.save_dataset_s", "s", "lower"),
    ("dataset.save_dataset_bytes", "bytes", "lower"),
    ("dataset.generate_synthetic_s", "s", "lower"),
    ("dsp.design_bandpass_s", "s", "lower"),
    ("dsp.filter_s", "s", "lower"),
    ("dsp.filter_calls", "count", "lower"),
    ("dsp.psd_s", "s", "lower"),
    ("dsp.psd_rows", "count", "higher"),
    ("dsp.fft_s", "s", "lower"),
    ("dsp.fft_calls", "count", "lower"),
    ("dsp.fft_points", "count", "lower"),
    ("features.build_self_s", "s", "lower"),
    ("features.rows", "count", "higher"),
    ("features.scaler_s", "s", "lower"),
    ("stats.significance_map_s", "s", "lower"),
    ("stats.t_pvalue_calls", "count", "lower"),
    ("stats.band_aggregate_s", "s", "lower"),
    ("stats.csv_write_s", "s", "lower"),
    *[(f"classifiers.{kind}.{what}", unit, better)
      for kind in KINDS
      for what, unit, better in (("train_s", "s", "lower"), ("train_rows", "count", "higher"),
                                 ("predict_s", "s", "lower"), ("predict_rows", "count", "higher"))],
    ("fusion.rank_models_s", "s", "lower"),
    ("fusion.rule_predict_s", "s", "lower"),
    ("evaluation.run_cv_self_s", "s", "lower"),
    ("proc.cpu_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.coverage_pct", "%", "higher"),
]


def _dataset_bytes(manifest_path) -> int:
    """Bytes of a saved dataset: the manifest plus every trial file it lists."""
    path = Path(manifest_path)
    files = [path] + [path.parent / e["file"] for e in json.loads(path.read_text())["trials"]]
    return sum(f.stat().st_size for f in files)


def targets(mc) -> list:
    """(owner, attribute, span, count, metrics it feeds) for each wrapped
    function; `mc` has the program's modules as attributes."""
    ds, dsp, features, stats = mc.dataset, mc.dsp, mc.features, mc.stats
    csv_writers = [(stats, name, "stats.csv_write_s", None, ("stats.csv_write_s",))
                   for name in ("save_map_csv", "save_band_csv", "save_psd_curves_csv")]
    trainers = getattr(mc.classifiers, "TRAINERS", {})
    train = [(trainers, kind, f"classifiers.{kind}.train_s",
              lambda a, r, k=kind: {f"classifiers.{k}.train_rows": len(a[0])},
              (f"classifiers.{kind}.train_s", f"classifiers.{kind}.train_rows"))
             for kind in KINDS]
    predict_metrics = tuple(f"classifiers.{kind}.{what}" for kind in KINDS
                            for what in ("predict_s", "predict_rows"))
    return [
        (ds, "load_dataset", "dataset.load_dataset_s",
         lambda a, r: {"dataset.load_dataset_bytes": _dataset_bytes(a[0])},
         ("dataset.load_dataset_s", "dataset.load_dataset_bytes")),
        (ds, "save_dataset", "dataset.save_dataset_s",
         lambda a, r: {"dataset.save_dataset_bytes": _dataset_bytes(r)},
         ("dataset.save_dataset_s", "dataset.save_dataset_bytes")),
        (ds, "generate_synthetic", "dataset.generate_synthetic_s", None,
         ("dataset.generate_synthetic_s",)),
        (dsp, "design_bandpass", "dsp.design_bandpass_s", None, ("dsp.design_bandpass_s",)),
        (dsp, "_filter_rows", "dsp.filter_s", lambda a, r: {"dsp.filter_calls": 1},
         ("dsp.filter_s", "dsp.filter_calls")),
        (dsp, "_psd_epoch_rows", "dsp.psd_s",
         lambda a, r: {"dsp.psd_rows": a[0].size // a[0].shape[-1]},
         ("dsp.psd_s", "dsp.psd_rows")),
        (dsp, "_fft_last_axis", "dsp.fft_s",
         lambda a, r: {"dsp.fft_calls": 1, "dsp.fft_points": a[0].size},
         ("dsp.fft_s", "dsp.fft_calls", "dsp.fft_points")),
        (features, "build_feature_matrix", "features.build_self_s",
         lambda a, r: {"features.rows": r.X.shape[0]},
         ("features.build_self_s", "features.rows")),
        (features, "fit_scaler", "features.scaler_s", None, ("features.scaler_s",)),
        (features, "apply_scaler", "features.scaler_s", None, ("features.scaler_s",)),
        (stats, "significance_map", "stats.significance_map_s", None,
         ("stats.significance_map_s",)),
        (stats, "t_pvalue", None, lambda a, r: {"stats.t_pvalue_calls": 1},
         ("stats.t_pvalue_calls",)),
        (stats, "band_aggregate", "stats.band_aggregate_s", None, ("stats.band_aggregate_s",)),
        *csv_writers,
        *train,
        (mc.classifiers, "_predict_rows", lambda a: f"classifiers.{a[0].kind}.predict_s",
         lambda a, r: {f"classifiers.{a[0].kind}.predict_rows": len(a[1])},
         predict_metrics),
        (mc.fusion, "rank_models", "fusion.rank_models_s", None, ("fusion.rank_models_s",)),
        (mc.fusion, "rule_predict", "fusion.rule_predict_s", None, ("fusion.rule_predict_s",)),
        (mc.evaluation, "run_cv", "evaluation.run_cv_self_s", None,
         ("evaluation.run_cv_self_s",)),
    ]


def install(tracer, mc) -> set:
    """Wrap every target that exists; returns the metrics none of whose
    functions exist."""
    fed, absent = set(), set()
    for owner, key, span, count, metrics in targets(mc):
        (fed if tracer.patch(owner, key, span, count) else absent).update(metrics)
    return absent - fed


def layer_values(tracer, absent: set) -> dict:
    """Span and counter metrics of one traced call, None for absent ones."""
    values = {name: 0 for name, unit, _ in PER_LAYER if unit != "s"}
    values.update({name: 0.0 for name, unit, _ in PER_LAYER if unit == "s"})
    values.update(tracer.self_times())
    values.update(tracer.counts)
    values.update({name: None for name in absent})
    return values
