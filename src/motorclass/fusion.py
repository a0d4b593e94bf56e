"""Rule-based fusion: rank trained models by calibration accuracy, keep the
top three, and combine the labels they predict with the fixed positive-gated
rule (1st positive AND (2nd OR 3rd positive))."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import classifiers
from .dataset import LEFT, RIGHT, stratified_positions

TIE_PRECEDENCE = ("SVM", "LDA", "Boosting", "KNN", "NaiveBayes")
# share of each side's training units held out to rank the models
CALIB_FRACTION = 0.25


@dataclass
class RuleEnsemble:
    ranked: list                 # exactly 3 TrainedModel, best calibration accuracy first
    ranked_kinds: tuple
    calibration_accuracy: dict   # kind -> accuracy on the calibration rows, all candidates


def rank_models(models: dict, calib_X, calib_y) -> RuleEnsemble:
    """Rank candidate models (>= 3, keyed by kind) by accuracy on labeled
    calibration rows; equal accuracies fall back to the fixed precedence."""
    calib_X = np.asarray(calib_X, dtype=float)
    calib_y = np.asarray(calib_y, dtype=int)
    if len(calib_X) == 0:
        raise ValueError("calibration set is empty")
    if len(models) < 3:
        raise ValueError(f"rule fusion needs >= 3 models, got {len(models)}")
    acc = {kind: float((classifiers.predict(m, calib_X) == calib_y).mean())
           for kind, m in models.items()}
    order = sorted(models, key=lambda k: (-acc[k], TIE_PRECEDENCE.index(k)))
    top = order[:3]
    return RuleEnsemble(ranked=[models[k] for k in top], ranked_kinds=tuple(top),
                        calibration_accuracy=acc)


def rule_votes(first, second, third):
    """Positive iff the 1st-ranked model's label is positive and at least one
    of the 2nd's and 3rd's is; every other triple is negative. Takes the three
    ranked models' predicted labels for the same rows."""
    return np.where((first == RIGHT) & ((second == RIGHT) | (third == RIGHT)), RIGHT, LEFT)


def rule_predict(ensemble: RuleEnsemble, rows):
    """The rule_votes of the ranked models on rows, one row or a matrix."""
    rows = np.asarray(rows, dtype=float)
    single = rows.ndim == 1
    X = rows[None, :] if single else rows
    out = rule_votes(*(classifiers.predict(m, X) for m in ensemble.ranked))
    return int(out[0]) if single else out


def make_calibration_split(unit_ids, unit_labels, seed):
    """Deterministic stratified split of units (trials or epoch rows): per label,
    a seeded shuffle of the sorted unit ids sends floor(CALIB_FRACTION * n)
    units (at least 1) to calibration. Returns (fit_ids, calib_ids), sorted."""
    unit_ids = np.asarray(unit_ids)
    unit_labels = np.asarray(unit_labels)
    if len(unit_ids) != len(unit_labels):
        raise ValueError("unit_ids and unit_labels must align")
    order = np.argsort(unit_ids, kind="stable")
    ids, labels = unit_ids[order], unit_labels[order]
    n_calib = np.zeros(len(ids), dtype=int)
    for label in (RIGHT, LEFT):
        n = int((labels == label).sum())
        if n < 2:
            raise ValueError(f"need >= 2 units of label {label} to split")
        n_calib[labels == label] = max(1, int(CALIB_FRACTION * n))
    calib = stratified_positions(labels, seed) < n_calib
    return ids[~calib], ids[calib]
