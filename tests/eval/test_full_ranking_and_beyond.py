"""Full-ranking protocol and beyond-accuracy metrics."""

import numpy as np
import pytest

from repro.eval import (
    FullRankingEvaluator,
    auc_from_rank,
    average_recommendation_popularity,
    catalog_coverage,
    top_k_items,
)
from repro.models import ItemPopularity, MatrixFactorization, build_model
from repro.data import to_user_item_interactions


@pytest.fixture(scope="module")
def mf_model(small_split):
    train = small_split.train
    return MatrixFactorization(train.num_users, train.num_items, 8, rng=np.random.default_rng(0))


class TestAucFromRank:
    def test_perfect_ranking(self):
        assert auc_from_rank(0, 1000) == pytest.approx(1.0)

    def test_worst_ranking(self):
        assert auc_from_rank(999, 1000) == pytest.approx(0.0)

    def test_middle(self):
        assert auc_from_rank(50, 101) == pytest.approx(0.5)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            auc_from_rank(0, 1)
        with pytest.raises(ValueError):
            auc_from_rank(10, 5)


class TestFullRankingEvaluator:
    def test_metrics_keys_and_ranges(self, small_split, mf_model):
        evaluator = FullRankingEvaluator(small_split, cutoffs=(5, 10))
        result = evaluator.evaluate_test(mf_model)
        assert set(result.metrics) == {"Recall@5", "Recall@10", "NDCG@5", "NDCG@10", "MRR"}
        assert all(0.0 <= value <= 1.0 for value in result.metrics.values())
        assert result.num_users == small_split.num_test_users

    def test_full_ranking_not_easier_than_sampled(self, small_split, small_evaluator, mf_model):
        sampled = small_evaluator.evaluate_test(mf_model)
        full = FullRankingEvaluator(small_split, cutoffs=(3, 5, 10, 20)).evaluate_test(mf_model)
        # Ranking against the whole catalog can only add competitors.
        assert full.metrics["Recall@10"] <= sampled.metrics["Recall@10"] + 1e-9

    def test_validation_holdout(self, small_split, mf_model):
        evaluator = FullRankingEvaluator(small_split)
        result = evaluator.evaluate_validation(mf_model)
        assert result.num_users == small_split.num_validation_users

class TestTopKAndCoverage:
    def test_top_k_items_shape_and_order(self, small_split, mf_model):
        train = small_split.train
        items = top_k_items(mf_model, 0, 5, train.num_items)
        assert items.shape == (5,)
        scores = mf_model.rank_scores(0, items)
        assert (np.diff(scores) <= 1e-12).all()

    def test_top_k_respects_exclusions(self, small_split, mf_model):
        train = small_split.train
        full = top_k_items(mf_model, 0, 5, train.num_items)
        excluded = {int(full[0])}
        filtered = top_k_items(mf_model, 0, 5, train.num_items, exclude=excluded)
        assert full[0] not in filtered

    def test_invalid_k(self, small_split, mf_model):
        with pytest.raises(ValueError):
            top_k_items(mf_model, 0, 0, small_split.train.num_items)

    def test_popularity_model_has_minimal_coverage(self, small_split):
        train = small_split.train
        model = ItemPopularity(
            train.num_users, train.num_items, to_user_item_interactions(train, mode="both")
        )
        users = list(range(0, train.num_users, 5))
        coverage = catalog_coverage(model, users, train.num_items, k=10)
        # A non-personalized model recommends the same 10 items to everyone.
        assert coverage == pytest.approx(10 / train.num_items)

    def test_personalized_model_covers_more(self, small_split, mf_model):
        train = small_split.train
        users = list(range(0, train.num_users, 5))
        mf_coverage = catalog_coverage(mf_model, users, train.num_items, k=10)
        pop_model = ItemPopularity(
            train.num_users, train.num_items, to_user_item_interactions(train, mode="both")
        )
        pop_coverage = catalog_coverage(pop_model, users, train.num_items, k=10)
        assert mf_coverage >= pop_coverage

    def test_average_recommendation_popularity(self, small_split):
        train = small_split.train
        pop_model = ItemPopularity(
            train.num_users, train.num_items, to_user_item_interactions(train, mode="both")
        )
        users = list(range(0, train.num_users, 10))
        pop_bias = average_recommendation_popularity(pop_model, users, train, k=10)
        catalog_mean = np.mean(
            [1.0 + len(b.participants) for b in train.behaviors]
        ) * train.num_behaviors / train.num_items
        # The popularity model's recommendations are far above catalog average.
        assert pop_bias > catalog_mean
