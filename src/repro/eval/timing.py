"""Training/testing time measurement (Table IV of the paper).

The paper reports per-epoch wall-clock training and testing time for every
method on the same machine.  :func:`measure_time_efficiency` times one (or
more) full training epochs and one full pass of the evaluation protocol
for a given model; the benchmark harness calls it for every method.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..models.base import RecommenderModel
from ..optim import Optimizer
from ..utils.timer import Timer
from .protocol import LeaveOneOutEvaluator

__all__ = ["TimingResult", "measure_time_efficiency"]


@dataclass(frozen=True)
class TimingResult:
    """Per-epoch training and testing time, in seconds."""

    model_name: str
    train_seconds_per_epoch: float
    test_seconds_per_epoch: float


def measure_time_efficiency(
    model: RecommenderModel,
    optimizer: Optimizer,
    batch_iterator,
    evaluator: LeaveOneOutEvaluator,
    num_epochs: int = 1,
) -> TimingResult:
    """Time ``num_epochs`` of training and evaluation for ``model``."""
    if num_epochs < 1:
        raise ValueError("num_epochs must be at least 1")
    timer = Timer()

    for _ in range(num_epochs):
        with timer.time("train_epoch"):
            for batch in batch_iterator:
                optimizer.zero_grad()
                loss = model.batch_loss(batch)
                loss.backward()
                optimizer.step()
            model.invalidate_cache()
        with timer.time("test_epoch"):
            evaluator.evaluate_test(model)

    return TimingResult(
        model_name=model.name,
        train_seconds_per_epoch=timer.mean("train_epoch"),
        test_seconds_per_epoch=timer.mean("test_epoch"),
    )
