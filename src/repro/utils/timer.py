"""Wall-clock timing helpers for the time-efficiency experiment (Table IV)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List

__all__ = ["Timer", "TimingRecord"]


@dataclass
class TimingRecord:
    """Accumulated wall-clock statistics for one named phase."""

    name: str
    total_seconds: float = 0.0
    calls: int = 0
    #: Duration of the most recent call (not the running mean).
    last_seconds: float = 0.0

    @property
    def mean_seconds(self) -> float:
        return self.total_seconds / self.calls if self.calls else 0.0


class Timer:
    """Collects named timing records, e.g. ``train_epoch`` and ``test_epoch``."""

    def __init__(self) -> None:
        self.records: Dict[str, TimingRecord] = {}

    def time(self, name: str):
        """Context manager measuring one call of phase ``name``."""
        timer = self

        class _Context:
            def __enter__(self_inner):
                self_inner._start = time.perf_counter()
                return self_inner

            def __exit__(self_inner, *exc_info):
                elapsed = time.perf_counter() - self_inner._start
                record = timer.records.setdefault(name, TimingRecord(name))
                record.total_seconds += elapsed
                record.calls += 1
                record.last_seconds = elapsed

        return _Context()

    def mean(self, name: str) -> float:
        """Mean seconds per call for phase ``name`` (0 if never timed)."""
        record = self.records.get(name)
        return record.mean_seconds if record else 0.0

    def last(self, name: str) -> float:
        """Seconds of the most recent call of phase ``name`` (0 if never timed)."""
        record = self.records.get(name)
        return record.last_seconds if record else 0.0

    def summary(self) -> List[TimingRecord]:
        """All records sorted by name."""
        return [self.records[key] for key in sorted(self.records)]
