"""Experiment: Table IV — training/testing time efficiency of every method.

The paper measures wall-clock seconds per training epoch and per testing
pass on one machine.  This experiment repeats that measurement for every
method on the shared workload; absolute numbers depend on the host, but the
ordering (CF/social models fast, group and group-buying models slower,
GBGCN the slowest) is the reproducible shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..eval.timing import TimingResult, measure_time_efficiency
from ..models.registry import MODEL_NAMES, build_model
from ..optim import Adam
from ..training.factory import build_batch_iterator
from ..training.trainer import Trainer
from ..utils.logging import get_logger
from ..utils.tables import format_table
from .config import ExperimentConfig, ExperimentWorkload, prepare_workload

__all__ = ["Table4Result", "run_table4", "PAPER_TABLE4"]

logger = get_logger("experiments.table4")

#: Seconds per epoch reported in the paper (TITAN Xp + DGL).
PAPER_TABLE4: Dict[str, Dict[str, float]] = {
    "MF(oi)": {"train": 2.99, "test": 4.74},
    "MF": {"train": 3.65, "test": 4.75},
    "NCF": {"train": 3.83, "test": 4.47},
    "NGCF": {"train": 5.68, "test": 4.87},
    "SocialMF": {"train": 5.27, "test": 4.83},
    "DiffNet": {"train": 4.77, "test": 4.55},
    "AGREE": {"train": 17.25, "test": 15.25},
    "SIGR": {"train": 58.29, "test": 8.56},
    "GBMF": {"train": 31.68, "test": 54.34},
    "GBGCN": {"train": 56.28, "test": 88.36},
}


@dataclass
class Table4Result:
    """Measured per-epoch times for every method."""

    timings: Dict[str, TimingResult]

    def format(self) -> str:
        rows: List[Sequence] = []
        for name in MODEL_NAMES:
            if name not in self.timings:
                continue
            timing = self.timings[name]
            paper = PAPER_TABLE4.get(name, {})
            rows.append(
                (
                    name,
                    timing.train_seconds_per_epoch,
                    timing.test_seconds_per_epoch,
                    paper.get("train", float("nan")),
                    paper.get("test", float("nan")),
                )
            )
        return format_table(
            ["Method", "Train (s/epoch)", "Test (s/epoch)", "Paper train", "Paper test"], rows
        )


def run_table4(
    config: Optional[ExperimentConfig] = None,
    workload: Optional[ExperimentWorkload] = None,
    model_names: Sequence[str] = tuple(MODEL_NAMES),
    num_epochs: int = 1,
) -> Table4Result:
    """Measure training and testing time for every requested method."""
    workload = workload or prepare_workload(config)
    settings = workload.config
    timings: Dict[str, TimingResult] = {}
    for name in model_names:
        logger.info("timing %s", name)
        model = build_model(name, workload.split.train, settings.model_settings)
        iterator = build_batch_iterator(
            model,
            workload.split.train,
            batch_size=settings.training.batch_size,
            seed=settings.training.seed,
        )
        trainer = Trainer(model, Adam(model.parameters(), lr=settings.training.learning_rate), iterator)
        timings[name] = measure_time_efficiency(trainer, workload.evaluator, num_epochs=num_epochs)
    return Table4Result(timings=timings)


if __name__ == "__main__":
    print(run_table4().format())
