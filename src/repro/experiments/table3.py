"""Experiment: Table III — overall performance of GBGCN vs. all baselines.

Trains every method of the paper on the same workload, evaluates it with
the leave-one-out protocol, and prints the same rows as Table III:
Recall@{3,5,10,20} and NDCG@{3,5,10,20} per method plus the relative
improvement of GBGCN over the best baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..eval.metrics import MetricAccumulator
from ..eval.protocol import EvaluationResult
from ..eval.significance import improvement, paired_t_test
from ..models.registry import MODEL_NAMES, build_model
from ..training.pipeline import train_gbgcn_with_pretraining, train_model
from ..utils.logging import get_logger
from ..utils.tables import format_table
from .config import ExperimentConfig, ExperimentWorkload, prepare_workload

__all__ = ["Table3Result", "run_table3", "PAPER_TABLE3"]

logger = get_logger("experiments.table3")

#: Metric columns in the paper's order.
METRIC_COLUMNS = (
    "Recall@3",
    "Recall@5",
    "Recall@10",
    "Recall@20",
    "NDCG@3",
    "NDCG@5",
    "NDCG@10",
    "NDCG@20",
)

#: The numbers reported in the paper's Table III (Beibei dataset).
PAPER_TABLE3: Dict[str, Dict[str, float]] = {
    "MF(oi)": {"Recall@3": 0.0762, "Recall@5": 0.1055, "Recall@10": 0.1567, "Recall@20": 0.2219,
               "NDCG@3": 0.0590, "NDCG@5": 0.0710, "NDCG@10": 0.0875, "NDCG@20": 0.1039},
    "MF": {"Recall@3": 0.1086, "Recall@5": 0.1456, "Recall@10": 0.2106, "Recall@20": 0.2886,
           "NDCG@3": 0.0847, "NDCG@5": 0.0999, "NDCG@10": 0.1208, "NDCG@20": 0.1405},
    "NCF": {"Recall@3": 0.1231, "Recall@5": 0.1640, "Recall@10": 0.2327, "Recall@20": 0.3142,
            "NDCG@3": 0.0961, "NDCG@5": 0.1129, "NDCG@10": 0.1351, "NDCG@20": 0.1556},
    "NGCF": {"Recall@3": 0.1171, "Recall@5": 0.1556, "Recall@10": 0.2190, "Recall@20": 0.2958,
             "NDCG@3": 0.0922, "NDCG@5": 0.1080, "NDCG@10": 0.1284, "NDCG@20": 0.1478},
    "SocialMF": {"Recall@3": 0.1135, "Recall@5": 0.1532, "Recall@10": 0.2202, "Recall@20": 0.3013,
                 "NDCG@3": 0.0889, "NDCG@5": 0.1051, "NDCG@10": 0.1268, "NDCG@20": 0.1472},
    "DiffNet": {"Recall@3": 0.1249, "Recall@5": 0.1664, "Recall@10": 0.2332, "Recall@20": 0.3153,
                "NDCG@3": 0.0981, "NDCG@5": 0.1151, "NDCG@10": 0.1366, "NDCG@20": 0.1573},
    "AGREE": {"Recall@3": 0.1036, "Recall@5": 0.1441, "Recall@10": 0.2097, "Recall@20": 0.2806,
              "NDCG@3": 0.0798, "NDCG@5": 0.0964, "NDCG@10": 0.1175, "NDCG@20": 0.1355},
    "SIGR": {"Recall@3": 0.1038, "Recall@5": 0.1405, "Recall@10": 0.2034, "Recall@20": 0.2809,
             "NDCG@3": 0.0806, "NDCG@5": 0.0956, "NDCG@10": 0.1159, "NDCG@20": 0.1354},
    "GBMF": {"Recall@3": 0.1262, "Recall@5": 0.1678, "Recall@10": 0.2350, "Recall@20": 0.3141,
             "NDCG@3": 0.0991, "NDCG@5": 0.1162, "NDCG@10": 0.1379, "NDCG@20": 0.1578},
    "GBGCN": {"Recall@3": 0.1341, "Recall@5": 0.1756, "Recall@10": 0.2444, "Recall@20": 0.3237,
              "NDCG@3": 0.1064, "NDCG@5": 0.1234, "NDCG@10": 0.1456, "NDCG@20": 0.1656},
}


@dataclass
class Table3Result:
    """Per-model metrics, the GBGCN-vs-best-baseline improvements, and p-value."""

    metrics: Dict[str, Dict[str, float]]
    per_user_ranks: Dict[str, np.ndarray] = field(default_factory=dict)

    def best_baseline(self, metric: str) -> str:
        """Name of the best non-GBGCN method for ``metric``."""
        candidates = {name: values[metric] for name, values in self.metrics.items() if name != "GBGCN"}
        return max(candidates, key=candidates.get)

    def improvements(self) -> Dict[str, float]:
        """Relative improvement (%) of GBGCN over the best baseline, per metric."""
        output: Dict[str, float] = {}
        for metric in METRIC_COLUMNS:
            baseline = self.metrics[self.best_baseline(metric)][metric]
            output[metric] = improvement(self.metrics["GBGCN"][metric], baseline)
        return output

    def significance_p_value(self, metric: str = "NDCG@10") -> Optional[float]:
        """Paired t-test p-value of GBGCN vs. the best baseline (if ranks stored).

        Each user is scored with ``metric`` itself, by
        :meth:`MetricAccumulator.per_user_metric`, which rejects any metric
        but ``Recall@k``, ``NDCG@k`` and ``MRR``.
        """
        per_user = {
            name: MetricAccumulator(ranks=list(ranks)).per_user_metric(metric)
            for name, ranks in self.per_user_ranks.items()
        }
        best = self.best_baseline(metric)
        if "GBGCN" not in per_user or best not in per_user:
            return None
        return paired_t_test(per_user["GBGCN"], per_user[best]).p_value

    def format(self) -> str:
        """The Table III layout: one row per method, plus the improvement row."""
        rows: List[Sequence] = []
        for name in MODEL_NAMES:
            if name not in self.metrics:
                continue
            values = self.metrics[name]
            rows.append([name] + [values[m] for m in METRIC_COLUMNS])
        improvements = self.improvements()
        rows.append(["Improvement (%)"] + [round(improvements[m], 2) for m in METRIC_COLUMNS])
        return format_table(["Method", *METRIC_COLUMNS], rows)


def _train_and_evaluate(name: str, workload: ExperimentWorkload) -> EvaluationResult:
    config = workload.config
    if name == "GBGCN":
        model, _, _ = train_gbgcn_with_pretraining(
            workload.split,
            config=config.model_settings.gbgcn_config(),
            settings=config.training,
            evaluator=workload.evaluator,
        )
    else:
        model = build_model(name, workload.split.train, config.model_settings)
        train_model(model, workload.split.train, evaluator=workload.evaluator, settings=config.training)
    return workload.evaluator.evaluate_test(model)


def run_table3(
    config: Optional[ExperimentConfig] = None,
    workload: Optional[ExperimentWorkload] = None,
    model_names: Sequence[str] = tuple(MODEL_NAMES),
) -> Table3Result:
    """Train and evaluate every requested method on one shared workload."""
    workload = workload or prepare_workload(config)
    metrics: Dict[str, Dict[str, float]] = {}
    ranks: Dict[str, np.ndarray] = {}
    for name in model_names:
        logger.info("training %s", name)
        result = _train_and_evaluate(name, workload)
        metrics[name] = result.metrics
        ranks[name] = result.ranks
        logger.info("%s: Recall@10=%.4f NDCG@10=%.4f", name, result["Recall@10"], result["NDCG@10"])
    return Table3Result(metrics=metrics, per_user_ranks=ranks)


if __name__ == "__main__":
    print(run_table3().format())
