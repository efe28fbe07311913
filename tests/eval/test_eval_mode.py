"""Every evaluator scores in eval mode and hands the caller's mode back.

The mode is restored on every exit: after a normal evaluation, after a
scoring error, and for a caller already in eval mode (every model
``load_model`` returns), which must not be switched to train mode.
"""

import numpy as np
import pytest

from repro.eval import FullRankingEvaluator, LeaveOneOutEvaluator
from repro.eval.beyond_accuracy import average_recommendation_popularity, catalog_coverage
from repro.models import build_model
from repro.persist import load_model, save_model


def _evaluations(split):
    users = sorted(split.test)[:6]
    full = FullRankingEvaluator(split, batch_size=16)
    sampled = LeaveOneOutEvaluator(split, num_negatives=20, seed=0)
    return {
        "full-ranking batched": full.evaluate_test,
        "full-ranking loop": full.evaluate_test_loop,
        "leave-one-out": sampled.evaluate_test,
        "catalog coverage": lambda model: catalog_coverage(model, users, split.train.num_items, k=5),
        "recommendation popularity": lambda model: average_recommendation_popularity(
            model, users, split.train, k=5
        ),
    }


EVALUATIONS = [
    "full-ranking batched",
    "full-ranking loop",
    "leave-one-out",
    "catalog coverage",
    "recommendation popularity",
]


def _modes(model):
    return {module.training for _, module in model.named_modules()}


@pytest.fixture()
def gbgcn(small_split):
    return build_model("GBGCN", small_split.train, rng=np.random.default_rng(41))


@pytest.mark.parametrize("evaluation", EVALUATIONS)
@pytest.mark.parametrize("training", [True, False], ids=["train-mode", "eval-mode"])
def test_the_callers_mode_comes_back(small_split, gbgcn, evaluation, training):
    gbgcn.train() if training else gbgcn.eval()
    seen = []
    prepare = gbgcn.prepare_for_evaluation

    def spying_prepare():
        seen.append(_modes(gbgcn))
        prepare()

    gbgcn.prepare_for_evaluation = spying_prepare
    _evaluations(small_split)[evaluation](gbgcn)
    assert seen == [{False}]
    assert _modes(gbgcn) == {training}


@pytest.mark.parametrize("evaluation", EVALUATIONS)
@pytest.mark.parametrize("training", [True, False], ids=["train-mode", "eval-mode"])
def test_the_callers_mode_comes_back_when_scoring_raises(small_split, gbgcn, evaluation, training):
    gbgcn.train() if training else gbgcn.eval()

    def failing(*args, **kwargs):
        raise RuntimeError("scoring failed")

    gbgcn.score_batch = failing
    gbgcn.rank_scores = failing
    with pytest.raises(RuntimeError, match="scoring failed"):
        _evaluations(small_split)[evaluation](gbgcn)
    assert _modes(gbgcn) == {training}


def test_a_loaded_model_stays_in_eval_mode(small_split, tmp_path):
    model = build_model("MF", small_split.train, rng=np.random.default_rng(42))
    save_model(model, tmp_path / "mf.npz")
    loaded = load_model(tmp_path / "mf.npz", small_split.train)
    assert _modes(loaded) == {False}
    FullRankingEvaluator(small_split).evaluate_test(loaded)
    LeaveOneOutEvaluator(small_split, num_negatives=20).evaluate_test(loaded)
    assert _modes(loaded) == {False}
