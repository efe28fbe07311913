"""Training/testing time measurement (Table IV of the paper).

The paper reports per-epoch wall-clock training and testing time for every
method on the same machine.  :func:`measure_time_efficiency` times one (or
more) epochs of a :class:`~repro.training.Trainer` — the training step
itself, not a copy of it — and one full pass of the evaluation protocol;
the benchmark harness calls it for every method.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..utils.timer import Timer
from .protocol import LeaveOneOutEvaluator

__all__ = ["TimingResult", "measure_time_efficiency"]


@dataclass(frozen=True)
class TimingResult:
    """Per-epoch training and testing time, in seconds."""

    model_name: str
    train_seconds_per_epoch: float
    test_seconds_per_epoch: float


def measure_time_efficiency(trainer, evaluator: LeaveOneOutEvaluator, num_epochs: int = 1) -> TimingResult:
    """Time ``num_epochs`` of ``trainer.train_epoch()`` and of evaluation.

    ``trainer`` is a :class:`~repro.training.Trainer`; this module takes it
    as given because ``training`` imports ``eval``, never the reverse.
    """
    if num_epochs < 1:
        raise ValueError("num_epochs must be at least 1")
    timer = Timer()

    for _ in range(num_epochs):
        with timer.time("train_epoch"):
            trainer.train_epoch()
        with timer.time("test_epoch"):
            evaluator.evaluate_test(trainer.model)

    return TimingResult(
        model_name=trainer.model.name,
        train_seconds_per_epoch=timer.mean("train_epoch"),
        test_seconds_per_epoch=timer.mean("test_epoch"),
    )
