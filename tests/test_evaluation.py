"""Cross-validation machinery: fold planning, metric identities, report
structure, determinism, and report combination."""

import json
from dataclasses import replace

import numpy as np
import pytest

from motorclass import evaluation as ev
from motorclass.classifiers import TrainConfig
from motorclass.features import build_feature_matrix
from motorclass.stats import significance_map
from motorclass.dataset import LEFT, RIGHT, SynthConfig, generate_synthetic


# per-fold (tp, fp, fn, tn) of every report row of run_cv(ds6, seed 0), pinned
# so that a change to fold or calibration assignment cannot move any count
GOLDEN_PER_FOLD = {
    ("trial", "holdout"): {
        "SVM": [(10, 0, 6, 16), (13, 0, 3, 16), (15, 0, 1, 16)],
        "KNN": [(16, 1, 0, 15), (16, 3, 0, 13), (14, 2, 2, 14)],
        "NaiveBayes": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
        "Boosting": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
        "LDA": [(16, 0, 0, 16), (16, 0, 0, 16), (15, 1, 1, 15)],
        "Rule": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
    },
    ("trial", "train"): {
        "SVM": [(10, 0, 6, 16), (13, 0, 3, 16), (15, 0, 1, 16)],
        "KNN": [(16, 1, 0, 15), (16, 3, 0, 13), (14, 2, 2, 14)],
        "NaiveBayes": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
        "Boosting": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
        "LDA": [(16, 0, 0, 16), (16, 0, 0, 16), (15, 1, 1, 15)],
        "Rule": [(10, 0, 6, 16), (13, 0, 3, 16), (15, 0, 1, 16)],
    },
    ("epoch", "holdout"): {
        "SVM": [(8, 0, 8, 16), (16, 0, 0, 16), (16, 6, 0, 10)],
        "KNN": [(15, 3, 1, 13), (16, 1, 0, 15), (15, 1, 1, 15)],
        "NaiveBayes": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
        "Boosting": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
        "LDA": [(16, 1, 0, 15), (16, 1, 0, 15), (16, 0, 0, 16)],
        "Rule": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
    },
    ("epoch", "train"): {
        "SVM": [(8, 0, 8, 16), (16, 0, 0, 16), (16, 6, 0, 10)],
        "KNN": [(15, 3, 1, 13), (16, 1, 0, 15), (15, 1, 1, 15)],
        "NaiveBayes": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
        "Boosting": [(16, 0, 0, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
        "LDA": [(16, 1, 0, 15), (16, 1, 0, 15), (16, 0, 0, 16)],
        "Rule": [(8, 0, 8, 16), (16, 0, 0, 16), (16, 0, 0, 16)],
    },
}


@pytest.fixture(scope="module")
def ds6():
    return generate_synthetic(SynthConfig(n_trials_per_side=6, asymmetry_db=6.0, seed=3))


@pytest.fixture(scope="module")
def report6(ds6):
    return ev.run_cv(ds6, TrainConfig(seed=0), seed=0)


class TestMakeFolds:
    def test_sizes_and_partition(self, ds80):
        plan = ev.make_folds(ds80, seed=0)
        assert len(plan.folds) == 3
        right = {t.trial_id for t in ds80.trials if t.label == RIGHT}
        per_side = sorted((len(right & set(f.tolist())) for f in plan.folds),
                          reverse=True)
        assert per_side == [14, 13, 13]
        per_side_l = sorted((len(set(f.tolist()) - right) for f in plan.folds),
                            reverse=True)
        assert per_side_l == [14, 13, 13]
        all_ids = np.concatenate(plan.folds)
        assert len(all_ids) == len(set(all_ids.tolist())) == 80

    def test_deterministic_and_seed_sensitive(self, ds80):
        a = ev.make_folds(ds80, seed=4)
        b = ev.make_folds(ds80, seed=4)
        c = ev.make_folds(ds80, seed=5)
        assert all(np.array_equal(x, y) for x, y in zip(a.folds, b.folds))
        assert not all(np.array_equal(x, y) for x, y in zip(a.folds, c.folds))

    def test_too_few_trials(self):
        tiny = generate_synthetic(SynthConfig(n_trials_per_side=2, seed=0))
        with pytest.raises(ValueError):
            ev.make_folds(tiny, seed=0)


class TestComputeMetrics:
    def test_perfect(self):
        m = ev.compute_metrics(ev.ConfusionMatrix(tp=10, fp=0, fn=0, tn=10))
        assert (m.accuracy, m.precision, m.recall, m.f_score) == (1.0, 1.0, 1.0, 1.0)
        assert m.degenerate == ()

    def test_hand_worked(self):
        m = ev.compute_metrics(ev.ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
        assert m.accuracy == 0.7
        assert m.precision == 0.75
        assert m.recall == 0.6
        assert abs(m.f_score - 2.0 / 3.0) < 1e-12
        assert m.degenerate == ()

    def test_degenerate_ratios_are_zero(self):
        m = ev.compute_metrics(ev.ConfusionMatrix(tp=0, fp=0, fn=2, tn=8))
        assert m.precision == 0.0
        assert m.recall == 0.0
        assert m.f_score == 0.0
        assert "precision" in m.degenerate and "f_score" in m.degenerate
        assert m.accuracy == 0.8

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ev.compute_metrics(ev.ConfusionMatrix())

    def test_class_swap_transposes_roles(self):
        m = ev.compute_metrics(ev.ConfusionMatrix(tp=3, fp=1, fn=2, tn=4))
        s = ev.compute_metrics(ev.ConfusionMatrix(tp=4, fp=2, fn=1, tn=3))
        assert s.accuracy == m.accuracy
        assert s.recall == 4 / 5      # specificity of the original
        assert s.precision == 4 / 6   # negative predictive value of the original


class TestRunCv:
    def test_report_structure(self, ds6, report6):
        assert report6["subject_id"] == ds6.subject_id
        assert report6["seed"] == 0
        kinds = [e["kind"] for e in report6["classifiers"]]
        assert kinds == list(ev.REPORT_ORDER)
        assert "rule_error" not in report6
        for entry in report6["classifiers"]:
            for name in ev.METRIC_NAMES:
                assert 0.0 <= entry[f"{name}_mean"] <= 100.0
                assert entry[f"{name}_std"] >= 0.0
            assert len(entry["per_fold"]) == 3
            for cm in entry["per_fold"]:
                assert cm["tp"] + cm["fp"] + cm["fn"] + cm["tn"] == 32

    def test_summary_matches_per_fold_counts(self, report6):
        for entry in report6["classifiers"]:
            for name in ev.METRIC_NAMES:
                vals = np.array([
                    getattr(ev.compute_metrics(ev.ConfusionMatrix(**cm)), name) * 100.0
                    for cm in entry["per_fold"]])
                assert entry[f"{name}_mean"] == pytest.approx(vals.mean(), rel=1e-12)
                assert entry[f"{name}_std"] == pytest.approx(vals.std(ddof=1), rel=1e-12)

    def test_deterministic(self, ds6, report6):
        again = ev.run_cv(ds6, TrainConfig(seed=0), seed=0)
        assert json.dumps(again, sort_keys=True) == json.dumps(report6, sort_keys=True)

    def test_fold_rows_match_fold_plan(self, ds6, report6):
        # each fold's confusion counts must cover exactly the planned trials
        plan = ev.make_folds(ds6, seed=0)
        label = {t.trial_id: t.label for t in ds6.trials}
        for f, fold in enumerate(plan.folds):
            n_right = sum(1 for tid in fold if label[int(tid)] == RIGHT)
            cm = report6["classifiers"][0]["per_fold"][f]
            assert cm["tp"] + cm["fn"] == n_right * 8
            assert cm["fp"] + cm["tn"] == (len(fold) - n_right) * 8

    def test_two_kinds_skip_rule(self, ds6):
        report = ev.run_cv(ds6, TrainConfig(seed=0), seed=0, kinds=("SVM", "LDA"))
        assert [e["kind"] for e in report["classifiers"]] == ["SVM", "LDA"]
        assert "rule_error" in report

    def test_three_kinds_keep_rule(self, ds6):
        report = ev.run_cv(ds6, TrainConfig(seed=0), seed=0,
                           kinds=("SVM", "KNN", "LDA"))
        assert [e["kind"] for e in report["classifiers"]] == ["SVM", "KNN", "LDA", "Rule"]
        assert "rule_error" not in report

    def test_train_ranking_source(self, ds6):
        report = ev.run_cv(ds6, TrainConfig(seed=0), seed=0, ranking_source="train")
        assert [e["kind"] for e in report["classifiers"]] == list(ev.REPORT_ORDER)
        with pytest.raises(ValueError):
            ev.run_cv(ds6, TrainConfig(seed=0), seed=0, ranking_source="oracle")

    def test_epoch_fold_granularity(self, ds6):
        report = ev.run_cv(ds6, TrainConfig(seed=0), seed=0, granularity="epoch")
        totals = [cm["tp"] + cm["fp"] + cm["fn"] + cm["tn"]
                  for cm in report["classifiers"][0]["per_fold"]]
        assert sum(totals) == 96
        assert max(totals) - min(totals) <= 8
        with pytest.raises(ValueError, match="granularity must be one of"):
            ev.run_cv(ds6, TrainConfig(seed=0), seed=0, granularity="subject")

    @pytest.mark.parametrize("granularity,ranking", sorted(GOLDEN_PER_FOLD))
    def test_golden_per_fold_counts(self, ds6, granularity, ranking):
        report = ev.run_cv(ds6, TrainConfig(seed=0), seed=0, ranking_source=ranking,
                           granularity=granularity)
        got = {e["kind"]: [(cm["tp"], cm["fp"], cm["fn"], cm["tn"]) for cm in e["per_fold"]]
               for e in report["classifiers"]}
        assert got == GOLDEN_PER_FOLD[(granularity, ranking)]



class TestSampleUnit:
    """A power-of-two factor on every sample scales each feature column
    exactly, so the z-scores, the t map and every count must come out bitwise
    unchanged: the unit the samples are recorded in (uV or V) moves no result."""

    @pytest.fixture(scope="class")
    def ds_seed1(self):
        return generate_synthetic(SynthConfig(n_trials_per_side=6, asymmetry_db=6.0, seed=1))

    @staticmethod
    def results(ds, bp_filter):
        report = ev.run_cv(ds, TrainConfig(seed=0), seed=0)
        smap = significance_map(build_feature_matrix(ds, bp_filter))
        return [(e["kind"], e["per_fold"]) for e in report["classifiers"]], smap

    @pytest.fixture(scope="class")
    def unscaled(self, ds_seed1, bp_filter):
        return self.results(ds_seed1, bp_filter)

    @pytest.mark.parametrize("factor", [2.0 ** -20, 2.0 ** 256], ids=["2^-20", "2^256"])
    def test_results_bitwise_unchanged(self, ds_seed1, bp_filter, unscaled, factor):
        scaled = replace(ds_seed1, trials=[replace(t, samples=t.samples * factor)
                                           for t in ds_seed1.trials])
        cells, smap = self.results(scaled, bp_filter)
        want_cells, want = unscaled
        assert want.significant.sum() == 20
        assert cells == want_cells
        assert np.array_equal(smap.t, want.t) and np.array_equal(smap.p, want.p)


class TestBatchReport:
    def test_combines_two_runs(self, ds6, report6):
        other = ev.run_cv(ds6, TrainConfig(seed=0), seed=1)
        combined = ev.batch_report([report6, other])
        assert combined["n_subjects"] == 2
        assert [e["kind"] for e in combined["classifiers"]] == list(ev.REPORT_ORDER)
        for entry in combined["classifiers"]:
            for name in ev.METRIC_NAMES:
                assert f"{name}_std_folds" in entry
                assert f"{name}_std_subjects" in entry
        cells = []
        for rep in (report6, other):
            for cm in rep["classifiers"][0]["per_fold"]:
                cells.append(ev.compute_metrics(ev.ConfusionMatrix(**cm)).accuracy * 100)
        assert combined["classifiers"][0]["accuracy_mean"] == pytest.approx(
            np.mean(cells), rel=1e-12)
        assert combined["classifiers"][0]["accuracy_std_folds"] == pytest.approx(
            np.std(cells, ddof=1), rel=1e-12)

    def test_mismatched_sets_rejected(self, ds6, report6):
        subset = ev.run_cv(ds6, TrainConfig(seed=0), seed=0, kinds=("SVM", "KNN", "LDA"))
        with pytest.raises(ValueError):
            ev.batch_report([report6, subset])
        with pytest.raises(ValueError):
            ev.batch_report([])

    def test_mismatch_names_the_report_and_kinds(self, ds6, report6):
        subset = ev.run_cv(ds6, TrainConfig(seed=0), seed=0, kinds=("SVM", "KNN", "LDA"))
        with pytest.raises(ValueError) as info:
            ev.batch_report([report6, report6, subset])
        assert str(info.value) == (
            "ClassifierMismatch: reports disagree on classifier sets: report 3 has ['SVM', 'KNN', 'LDA', 'Rule'], "
            "report 1 has ['SVM', 'KNN', 'NaiveBayes', 'Boosting', 'LDA', 'Rule']")


class TestReportOutput:
    def test_csv(self, tmp_path, report6):
        path = ev.report_to_csv(report6, tmp_path / "report.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("classifier,accuracy_mean,accuracy_std")
        assert len(lines) == 1 + len(ev.REPORT_ORDER)
        assert lines[1].split(",")[0] == "SVM"

    def test_batch_csv_has_both_stds(self, tmp_path, ds6, report6):
        other = ev.run_cv(ds6, TrainConfig(seed=0), seed=1)
        combined = ev.batch_report([report6, other])
        path = ev.report_to_csv(combined, tmp_path / "combined.csv")
        header = path.read_text().splitlines()[0]
        assert "accuracy_std_folds" in header
        assert "accuracy_std_subjects" in header

    def test_table(self, ds6, report6):
        text = ev.format_table(report6)
        lines = text.splitlines()
        assert len(lines) == 1 + len(ev.REPORT_ORDER)
        assert "SVM" in text and "+/-" in text
        other = ev.run_cv(ds6, TrainConfig(seed=0), seed=1)
        assert "+/-" in ev.format_table(ev.batch_report([report6, other]))
