"""Each fold is two independent fits, and every model predicts each held-out
row once: the Rule row is formed from the outer fit's test predictions. run_cv
must write the report bytes of oracles.score_fold_reference, which has the
three ranked models predict the test rows a second time."""

import collections

import pytest

from motorclass import classifiers, dataset, evaluation, fusion
from motorclass.classifiers import TrainConfig
from motorclass.dataset import SynthConfig, generate_synthetic

import oracles

# short training keeps the 24 run_cv calls of the byte comparison to about 10 s;
# how a fold is scored does not depend on it
CFG = TrainConfig(svm_epochs=20, boost_rounds=10, seed=1)
# run_cv keyword arguments: both ranking sources at both granularities, and a
# 3-kind and a 2-kind subset (the latter has no Rule row)
CASES = {
    **{f"{ranking}-{granularity}": {"ranking_source": ranking, "granularity": granularity}
       for ranking in evaluation.RANKING_SOURCES for granularity in evaluation.GRANULARITIES},
    "three-kinds": {"kinds": ("SVM", "KNN", "LDA")},
    "two-kinds": {"kinds": ("NaiveBayes", "Boosting")},
}


@pytest.fixture(scope="module", params=[6.0, 0.0], ids=["6dB", "0dB"])
def ds(request):
    """Four trials per side, with the asymmetry planted or none at all."""
    return generate_synthetic(SynthConfig(n_trials_per_side=4, asymmetry_db=request.param,
                                          seed=2))


def _report_bytes(ds, tmp_path, name, **kwargs) -> bytes:
    report = evaluation.run_cv(ds, CFG, seed=1, **kwargs)
    return dataset.write_json(tmp_path / f"{name}.json", report).read_bytes()


@pytest.mark.parametrize("case", CASES, ids=CASES)
def test_report_bytes_match_the_oracle(ds, tmp_path, monkeypatch, case):
    got = _report_bytes(ds, tmp_path, "got", **CASES[case])
    monkeypatch.setattr(evaluation, "_score_fold", oracles.score_fold_reference)
    assert got == _report_bytes(ds, tmp_path, "want", **CASES[case])


@pytest.mark.parametrize("ranking", evaluation.RANKING_SOURCES)
def test_every_kind_predicts_test_and_ranking_rows_once(ds, monkeypatch, ranking):
    predicted = collections.Counter()
    ranked_rows = []
    real_predict, real_rank = classifiers._predict_rows, fusion.rank_models

    def spy_predict(model, X):
        predicted[model.kind] += len(X)
        return real_predict(model, X)

    def spy_rank(models, calib_X, calib_y):
        ranked_rows.append(len(calib_X))
        return real_rank(models, calib_X, calib_y)

    monkeypatch.setattr(classifiers, "_predict_rows", spy_predict)
    monkeypatch.setattr(fusion, "rank_models", spy_rank)
    evaluation.run_cv(ds, CFG, seed=1, ranking_source=ranking)
    test_rows = len(ds.trials) * dataset.EPOCHS_PER_TRIAL   # every row is tested once
    assert len(ranked_rows) == evaluation.FOLD_K
    assert predicted == {kind: test_rows + sum(ranked_rows) for kind in classifiers.MODEL_KINDS}
