"""Evaluation protocol, ranking metrics, significance tests and timing."""

from .metrics import (
    MetricAccumulator,
    ndcg_at_k,
    rank_of_positive,
    recall_at_k,
    reciprocal_rank,
)
from .protocol import EvaluationResult, FullRankingEvaluator, LeaveOneOutEvaluator
from .significance import SignificanceResult, improvement, paired_t_test, wilcoxon_test
from .timing import TimingResult, measure_time_efficiency
from .bootstrap import ConfidenceInterval, bootstrap_confidence_interval, bootstrap_metric_table
from .beyond_accuracy import (
    auc_from_rank,
    average_recommendation_popularity,
    catalog_coverage,
    top_k_items,
)

__all__ = [
    "MetricAccumulator",
    "ndcg_at_k",
    "rank_of_positive",
    "recall_at_k",
    "reciprocal_rank",
    "EvaluationResult",
    "LeaveOneOutEvaluator",
    "FullRankingEvaluator",
    "SignificanceResult",
    "improvement",
    "paired_t_test",
    "wilcoxon_test",
    "TimingResult",
    "measure_time_efficiency",
    "ConfidenceInterval",
    "bootstrap_confidence_interval",
    "bootstrap_metric_table",
    "auc_from_rank",
    "average_recommendation_popularity",
    "catalog_coverage",
    "top_k_items",
]
