"""Rank-and-rule fusion: ranking order, tie precedence, the gating rule's
truth table, and calibration splitting."""

import itertools
import math

import numpy as np
import pytest

from motorclass import classifiers as cl
from motorclass import fusion
from motorclass.dataset import LEFT, RIGHT

GRID = np.arange(100.0)[:, None]
GRID_Y = np.where(np.arange(100) >= 50, RIGHT, LEFT)


def threshold_model(kind, thr):
    """A model of the given kind predicting Right iff x >= thr on integers."""
    thr = float(thr)
    if kind == "SVM":
        return cl.TrainedModel("SVM", {"w": np.array([1.0]), "b": -thr})
    if kind == "LDA":
        return cl.TrainedModel("LDA", {"w": np.array([1.0]), "c": thr})
    if kind == "Boosting":
        return cl.TrainedModel("Boosting", {
            "features": np.array([0]), "thresholds": np.array([thr - 0.5]),
            "polarities": np.array([1.0]), "alphas": np.array([1.0])})
    if kind == "KNN":
        return cl.TrainedModel("KNN", {"X": np.array([[thr - 1.0], [thr]]),
                                       "y": np.array([LEFT, RIGHT]), "k": 1})
    if kind == "NaiveBayes":
        half = math.log(0.5)
        return cl.TrainedModel("NaiveBayes", {
            "mean_r": np.array([2.0 * thr]), "var_r": np.array([1.0]), "logprior_r": half,
            "mean_l": np.array([0.0]), "var_l": np.array([1.0]), "logprior_l": half})
    raise AssertionError(kind)


def constant_model(vote_positive):
    b = 1.0 if vote_positive else -1.0
    return cl.TrainedModel("SVM", {"w": np.array([0.0]), "b": b})


class TestThresholdModels:
    def test_every_kind_realizes_the_threshold(self):
        for kind in fusion.TIE_PRECEDENCE:
            m = threshold_model(kind, 50)
            assert np.array_equal(cl.predict(m, GRID), GRID_Y), kind


class TestRankModels:
    def test_orders_by_calibration_accuracy(self):
        models = {"LDA": threshold_model("LDA", 51),
                  "KNN": threshold_model("KNN", 52),
                  "Boosting": threshold_model("Boosting", 53),
                  "SVM": threshold_model("SVM", 54),
                  "NaiveBayes": threshold_model("NaiveBayes", 70)}
        ens = fusion.rank_models(models, GRID, GRID_Y)
        assert ens.ranked_kinds == ("LDA", "KNN", "Boosting")
        acc = ens.calibration_accuracy
        assert acc["LDA"] == pytest.approx(0.99, abs=1e-12)
        assert acc["KNN"] == pytest.approx(0.98, abs=1e-12)
        assert acc["Boosting"] == pytest.approx(0.97, abs=1e-12)
        assert acc["SVM"] == pytest.approx(0.96, abs=1e-12)
        assert acc["NaiveBayes"] == pytest.approx(0.80, abs=1e-12)
        assert len(ens.ranked) == 3

    def test_exact_ties_follow_precedence(self):
        models = {k: threshold_model(k, 50) for k in fusion.TIE_PRECEDENCE}
        ens = fusion.rank_models(models, GRID, GRID_Y)
        assert ens.ranked_kinds == ("SVM", "LDA", "Boosting")

    def test_best_model_leads_regardless_of_kind(self):
        models = {"NaiveBayes": threshold_model("NaiveBayes", 50),
                  "SVM": threshold_model("SVM", 51),
                  "LDA": threshold_model("LDA", 52),
                  "Boosting": threshold_model("Boosting", 53),
                  "KNN": threshold_model("KNN", 54)}
        ens = fusion.rank_models(models, GRID, GRID_Y)
        assert ens.ranked_kinds == ("NaiveBayes", "SVM", "LDA")

    def test_three_models_all_kept(self):
        models = {"SVM": threshold_model("SVM", 53),
                  "KNN": threshold_model("KNN", 51),
                  "LDA": threshold_model("LDA", 52)}
        ens = fusion.rank_models(models, GRID, GRID_Y)
        assert ens.ranked_kinds == ("KNN", "LDA", "SVM")

    def test_rejects_bad_input(self):
        models = {k: threshold_model(k, 50) for k in ("SVM", "LDA", "KNN")}
        with pytest.raises(ValueError):
            fusion.rank_models(models, np.empty((0, 1)), np.empty(0, dtype=int))
        with pytest.raises(ValueError):
            fusion.rank_models({k: models[k] for k in ("SVM", "LDA")}, GRID, GRID_Y)
        with pytest.raises(ValueError):
            fusion.rank_models({**models, "Tree": models["SVM"]}, GRID, GRID_Y)


class TestRulePredict:
    def _ensemble(self, a, b, c):
        return fusion.RuleEnsemble(
            ranked=[constant_model(a), constant_model(b), constant_model(c)],
            ranked_kinds=("SVM", "LDA", "Boosting"),
            calibration_accuracy={})

    def test_full_truth_table(self):
        row = np.array([0.0])
        for a, b, c in itertools.product((True, False), repeat=3):
            want = RIGHT if (a and (b or c)) else LEFT
            assert fusion.rule_predict(self._ensemble(a, b, c), row) == want, (a, b, c)

    def test_named_cases(self):
        row = np.array([0.0])
        assert fusion.rule_predict(self._ensemble(True, True, False), row) == RIGHT
        assert fusion.rule_predict(self._ensemble(True, False, False), row) == LEFT
        assert fusion.rule_predict(self._ensemble(False, True, True), row) == LEFT

    def test_vectorized_matches_elementwise(self):
        ens = fusion.RuleEnsemble(
            ranked=[threshold_model("SVM", 51), threshold_model("LDA", 60),
                    threshold_model("KNN", 40)],
            ranked_kinds=("SVM", "LDA", "KNN"),
            calibration_accuracy={})
        got = fusion.rule_predict(ens, GRID)
        x = GRID[:, 0]
        want = np.where((x >= 51) & ((x >= 60) | (x >= 40)), RIGHT, LEFT)
        assert np.array_equal(got, want)
        singles = [fusion.rule_predict(ens, GRID[i]) for i in range(len(GRID))]
        assert np.array_equal(np.array(singles), want)

    def test_rule_votes_truth_table(self):
        for a, b, c in itertools.product((True, False), repeat=3):
            first, second, third = (np.array([RIGHT if v else LEFT]) for v in (a, b, c))
            want = RIGHT if (a and (b or c)) else LEFT
            assert fusion.rule_votes(first, second, third).tolist() == [want], (a, b, c)

    def test_rule_predict_is_rule_votes_of_the_ranked_models(self):
        models = {k: threshold_model(k, 40 + 7 * i)
                  for i, k in enumerate(fusion.TIE_PRECEDENCE)}
        ens = fusion.rank_models(models, GRID, GRID_Y)
        votes = fusion.rule_votes(*(cl.predict(m, GRID) for m in ens.ranked))
        assert np.array_equal(fusion.rule_predict(ens, GRID), votes)

    def test_excluded_models_do_not_matter(self):
        models = {k: threshold_model(k, 50 + i)
                  for i, k in enumerate(fusion.TIE_PRECEDENCE)}
        ens = fusion.rank_models(models, GRID, GRID_Y)
        before = fusion.rule_predict(ens, GRID)
        for kind in set(models) - set(ens.ranked_kinds):
            models[kind].params["b" if kind == "SVM" else "k"] = 999
        assert np.array_equal(fusion.rule_predict(ens, GRID), before)


class TestCalibrationSplit:
    IDS = np.arange(80)
    LABELS = np.array([RIGHT] * 40 + [LEFT] * 40)

    def test_sizes_and_partition(self):
        fit, calib = fusion.make_calibration_split(self.IDS, self.LABELS, seed=0)
        assert len(calib) == 20 and len(fit) == 60
        assert not set(fit) & set(calib)
        assert set(fit) | set(calib) == set(self.IDS)

    def test_stratified(self):
        _, calib = fusion.make_calibration_split(self.IDS, self.LABELS, seed=3)
        assert int((self.LABELS[calib] == RIGHT).sum()) == 10
        assert int((self.LABELS[calib] == LEFT).sum()) == 10

    def test_deterministic_and_seed_sensitive(self):
        a = fusion.make_calibration_split(self.IDS, self.LABELS, seed=5)
        b = fusion.make_calibration_split(self.IDS, self.LABELS, seed=5)
        c = fusion.make_calibration_split(self.IDS, self.LABELS, seed=6)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])
        assert not np.array_equal(a[1], c[1])

    def test_small_groups_keep_one_calibration_trial(self):
        ids = np.arange(6)
        labels = np.array([RIGHT, RIGHT, RIGHT, LEFT, LEFT, LEFT])
        fit, calib = fusion.make_calibration_split(ids, labels, seed=0)
        assert int((labels[calib] == RIGHT).sum()) == 1
        assert int((labels[calib] == LEFT).sum()) == 1
        assert len(fit) == 4

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            fusion.make_calibration_split(np.arange(3), np.array([RIGHT, RIGHT, LEFT]), 0)
        with pytest.raises(ValueError):
            fusion.make_calibration_split(np.arange(4), np.array([RIGHT, LEFT]), 0)
