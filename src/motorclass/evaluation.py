"""Stratified 3-fold cross-validation at trial or epoch granularity,
confusion-matrix metrics, and per-classifier mean/std reports."""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from . import classifiers, dsp, features, fusion
from .dataset import (FS, LEFT, RIGHT, DataError, Dataset, read_json, stratified_positions,
                      write_csv)

FOLD_K = 3
REPORT_ORDER = (*classifiers.MODEL_KINDS, "Rule")
METRIC_NAMES = ("accuracy", "precision", "recall", "f_score")

DEFAULT_FILTER = (1.0, 50.0, 1691)
# what ranks the models for the top-3 rule; the first is the default
RANKING_SOURCES = ("holdout", "train")
# the units folds are drawn over; the first is the default
GRANULARITIES = ("trial", "epoch")


@dataclass
class FoldPlan:
    folds: list   # 3 sorted arrays of trial ids, each mixing both sides


@dataclass
class ConfusionMatrix:
    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn


@dataclass
class Metrics:
    accuracy: float
    precision: float
    recall: float
    f_score: float
    degenerate: tuple = ()


def make_folds(dataset: Dataset, seed: int) -> FoldPlan:
    """Per-side seeded shuffle, then round-robin assignment to 3 folds, so all
    8 epochs of a trial land in one fold and per-side sizes differ by <= 1."""
    trials = sorted(dataset.trials, key=lambda t: t.trial_id)
    ids = np.array([t.trial_id for t in trials])
    fold = _assign_folds(np.array([t.label for t in trials]), seed)
    return FoldPlan(folds=[ids[fold == f] for f in range(FOLD_K)])


def _assign_folds(unit_labels: np.ndarray, seed) -> np.ndarray:
    """Fold index of each unit (labels in ascending unit-id order)."""
    for label in (RIGHT, LEFT):
        n = int((unit_labels == label).sum())
        if n < FOLD_K:
            raise DataError("TooFewTrials", f"need >= {FOLD_K} units of label {label}, got {n}")
    return stratified_positions(unit_labels, seed) % FOLD_K


def compute_metrics(cm: ConfusionMatrix) -> Metrics:
    """Accuracy, precision, recall, F-score with Positive = Right; any 0/0
    ratio is defined as 0 and the metric name is recorded as degenerate."""
    if cm.total == 0:
        raise ValueError("empty confusion matrix")
    degenerate = []

    def ratio(name, num, den):
        if den == 0:
            degenerate.append(name)
            return 0.0
        return num / den

    precision = ratio("precision", cm.tp, cm.tp + cm.fp)
    recall = ratio("recall", cm.tp, cm.tp + cm.fn)
    f_score = ratio("f_score", 2.0 * precision * recall, precision + recall)
    return Metrics((cm.tp + cm.tn) / cm.total, precision, recall, f_score, tuple(degenerate))


def _confusion(y_true: np.ndarray, y_pred: np.ndarray) -> ConfusionMatrix:
    return ConfusionMatrix(
        tp=int(((y_true == RIGHT) & (y_pred == RIGHT)).sum()),
        fp=int(((y_true == LEFT) & (y_pred == RIGHT)).sum()),
        fn=int(((y_true == RIGHT) & (y_pred == LEFT)).sum()),
        tn=int(((y_true == LEFT) & (y_pred == LEFT)).sum()),
    )


def run_cv(dataset: Dataset, cfg: classifiers.TrainConfig, seed: int,
           kinds=None, ranking_source: str = RANKING_SOURCES[0],
           scale: str = features.SCALES[0], granularity: str = GRANULARITIES[0],
           filt: dsp.FirFilter | None = None) -> dict:
    """Full cross-validated evaluation of the requested models (default all
    five); returns the report as a plain dict. Folds split trials, or epoch
    rows with granularity="epoch"; features are made under filt, or DEFAULT_FILTER."""
    if ranking_source not in RANKING_SOURCES:
        raise ValueError(f"ranking_source must be one of {RANKING_SOURCES}, got {ranking_source!r}")
    if granularity not in GRANULARITIES:
        raise ValueError(f"granularity must be one of {GRANULARITIES}, got {granularity!r}")
    kinds = classifiers.MODEL_KINDS if kinds is None else tuple(kinds)
    fm = features.build_feature_matrix(
        dataset, filt or dsp.design_bandpass(FS, *DEFAULT_FILTER), scale=scale)

    # folds and calibration holdouts are drawn per unit, then broadcast to rows
    units = fm.trial_ids if granularity == "trial" else np.arange(fm.n_rows)
    unit_ids, first_row, row_unit = np.unique(units, return_index=True, return_inverse=True)
    unit_y = fm.y[first_row]
    unit_fold = _assign_folds(unit_y, seed)
    row_fold = unit_fold[row_unit]

    folds = []
    for f in range(FOLD_K):
        train, train_units = row_fold != f, unit_fold != f
        calib = None
        if ranking_source == "holdout":
            _, calib_ids = fusion.make_calibration_split(
                unit_ids[train_units], unit_y[train_units], [seed, f])
            calib = np.isin(units[train], calib_ids)
        folds.append(_score_fold(fm.X[train], fm.y[train], fm.X[~train], fm.y[~train],
                                 calib, cfg, kinds))

    report = {
        "subject_id": dataset.subject_id,
        "seed": seed,
        "classifiers": [_summarize(kind, [cms[kind] for cms in folds])
                        for kind in REPORT_ORDER if kind in folds[0]],
    }
    if "Rule" not in folds[0]:
        report["rule_error"] = "rule fusion needs >= 3 classifiers"
    return report


def _score_fold(X_train, y_train, X_test, y_test, calib, cfg, kinds) -> dict:
    """One fold, from two fits that share nothing. The outer fit (scaler and
    models on the whole training fold) predicts each held-out row once per
    model. With >= 3 kinds, an inner fit on the training rows calib does not
    mark ranks the models on the rows it does mark; with calib None the outer
    models rank on their own training rows. The Rule row is the rule_votes of
    the top three's outer predictions. Returns {kind: ConfusionMatrix}, plus
    "Rule" with >= 3 kinds."""
    scaler, Z_train, models = _fit(X_train, y_train, cfg, kinds)
    Z_test = features.apply_scaler(scaler, X_test)
    preds = {kind: classifiers.predict(models[kind], Z_test) for kind in kinds}
    cms = {kind: _confusion(y_test, preds[kind]) for kind in kinds}
    if len(kinds) < 3:
        return cms
    if calib is None:
        ensemble = fusion.rank_models(models, Z_train, y_train)
    else:
        inner_scaler, _, inner_models = _fit(X_train[~calib], y_train[~calib], cfg, kinds)
        ensemble = fusion.rank_models(inner_models, features.apply_scaler(
            inner_scaler, X_train[calib]), y_train[calib])
    cms["Rule"] = _confusion(y_test, fusion.rule_votes(
        *(preds[kind] for kind in ensemble.ranked_kinds)))
    return cms


def _fit(X, y, cfg, kinds):
    """Z-score X on its own statistics and train the models on it."""
    scaler = features.fit_scaler(X)
    Z = features.apply_scaler(scaler, X)
    return scaler, Z, classifiers.train_all(Z, y, cfg, kinds=kinds)


def _percents(cells: list) -> dict:
    """Each metric's percent per fold cell, from the cells' tp/fp/fn/tn counts."""
    metrics = [compute_metrics(ConfusionMatrix(**cm)) for cm in cells]
    return {name: np.array([getattr(m, name) * 100.0 for m in metrics])
            for name in METRIC_NAMES}


def _std(values) -> float:
    """Sample standard deviation (ddof=1); 0 for a single value."""
    return float(np.std(values, ddof=1)) if len(values) > 1 else 0.0


def _summarize(kind: str, cms: list) -> dict:
    entry = {"kind": kind, "per_fold": [asdict(cm) for cm in cms]}
    for name, values in _percents(entry["per_fold"]).items():
        entry[f"{name}_mean"] = float(values.mean())
        entry[f"{name}_std"] = _std(values)
    return entry


def load_report(path) -> dict:
    """Read an evaluate report.json, checking every field batch_report reads;
    each fold cell must count at least one row."""
    path = Path(path)
    if not path.exists():
        raise DataError("MissingFile", repr(str(path)))
    report = read_json(path, "BadReport")
    counts = {f.name for f in fields(ConfusionMatrix)}

    def is_row(entry):
        folds = entry.get("per_fold") if isinstance(entry, dict) else None
        return (isinstance(folds, list) and folds and isinstance(entry.get("kind"), str)
                and all(isinstance(cm, dict) and set(cm) == counts
                        and all(type(n) is int and n >= 0 for n in cm.values())
                        and sum(cm.values()) > 0
                        for cm in folds))

    rows = report.get("classifiers") if isinstance(report, dict) else None
    if not (isinstance(rows, list) and rows and isinstance(report.get("subject_id"), str)
            and all(map(is_row, rows))):
        raise DataError("BadReport", f"{str(path)!r} is not an evaluate report")
    return report


def batch_report(reports: list) -> dict:
    """Combine per-subject reports: per classifier, mean over all subject-fold
    cells plus standard deviations at both granularities (over cells and over
    per-subject means)."""
    if not reports:
        raise ValueError("no reports to combine")
    kinds = [[e["kind"] for e in rep["classifiers"]] for rep in reports]
    for pos, other in enumerate(kinds[1:], start=2):
        if other != kinds[0]:
            raise DataError("ClassifierMismatch", f"reports disagree on classifier sets: "
                            f"report {pos} has {other}, report 1 has {kinds[0]}")
    combined = {"subjects": [rep["subject_id"] for rep in reports],
                "n_subjects": len(reports), "classifiers": []}
    for i, kind in enumerate(kinds[0]):
        per_subject = [_percents(rep["classifiers"][i]["per_fold"]) for rep in reports]
        entry = {"kind": kind}
        for name in METRIC_NAMES:
            cells = np.concatenate([p[name] for p in per_subject])
            entry[f"{name}_mean"] = float(cells.mean())
            entry[f"{name}_std_folds"] = _std(cells)
            entry[f"{name}_std_subjects"] = _std([float(p[name].mean()) for p in per_subject])
        combined["classifiers"].append(entry)
    return combined


def report_to_csv(report: dict, path) -> Path:
    """Table-shaped CSV: one row per classifier, mean and std per metric."""
    std_suffixes = [k[len("accuracy"):] for k in report["classifiers"][0]
                    if k.startswith("accuracy_std")]
    cols = [name + suffix for name in METRIC_NAMES for suffix in ("_mean", *std_suffixes)]
    return write_csv(path, ["classifier", *cols], ["%s"] + ["%.17g"] * len(cols),
                     ([entry["kind"], *(entry[col] for col in cols)]
                      for entry in report["classifiers"]))


def format_table(report: dict) -> str:
    """Human-readable summary: classifier rows, mean +/- std percent."""
    std_suffix = "_std" if "accuracy_std" in report["classifiers"][0] else "_std_folds"
    lines = [f"{'classifier':<12}" + "".join(f"{n:>22}" for n in METRIC_NAMES)]
    for entry in report["classifiers"]:
        cells = [f"{entry[n + '_mean']:.2f} +/- {entry[n + std_suffix]:.2f}"
                 for n in METRIC_NAMES]
        lines.append(f"{entry['kind']:<12}" + "".join(f"{c:>22}" for c in cells))
    return "\n".join(lines)
