"""Significance tests and the timing harness."""

import numpy as np
import pytest

from repro.data import TrainingNegativeSampler
from repro.eval import (
    LeaveOneOutEvaluator,
    improvement,
    measure_time_efficiency,
    paired_t_test,
    wilcoxon_test,
)
from repro.models import MatrixFactorization
from repro.optim import Adam
from repro.training import Trainer, build_batch_iterator


class TestSignificance:
    def test_clear_difference_is_significant(self):
        rng = np.random.default_rng(0)
        baseline = rng.normal(0.0, 0.1, size=200)
        better = baseline + 0.5
        assert paired_t_test(better, baseline).significant
        assert wilcoxon_test(better, baseline).significant

    def test_identical_samples_not_significant(self):
        sample = np.ones(50)
        assert not paired_t_test(sample, sample).significant
        assert not wilcoxon_test(sample, sample).significant

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            paired_t_test(np.ones(3), np.ones(4))

    def test_too_few_observations_raises(self):
        with pytest.raises(ValueError):
            wilcoxon_test(np.ones(1), np.zeros(1))

    def test_improvement_percentage(self):
        assert np.isclose(improvement(0.12, 0.10), 20.0)
        assert improvement(0.1, 0.0) == float("inf")
        assert improvement(0.0, 0.0) == 0.0


class TestTiming:
    def test_measures_positive_times(self, small_split, small_evaluator):
        model = MatrixFactorization(small_split.train.num_users, small_split.train.num_items, 4,
                                    rng=np.random.default_rng(1))
        iterator = build_batch_iterator(model, small_split.train, batch_size=256, seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), iterator)
        result = measure_time_efficiency(trainer, small_evaluator, num_epochs=1)
        assert result.train_seconds_per_epoch > 0
        assert result.test_seconds_per_epoch > 0
        assert result.model_name == "MF"

    def test_invalid_epoch_count(self, small_split, small_evaluator):
        model = MatrixFactorization(small_split.train.num_users, small_split.train.num_items, 4)
        iterator = build_batch_iterator(model, small_split.train, batch_size=256, seed=0)
        trainer = Trainer(model, Adam(model.parameters(), lr=0.01), iterator)
        with pytest.raises(ValueError):
            measure_time_efficiency(trainer, small_evaluator, num_epochs=0)
