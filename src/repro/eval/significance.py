"""Paired significance tests for metric comparisons (used for Table III).

The paper reports that GBGCN's improvement over the best baseline is
significant with p < 0.05; this module provides the paired t-test and the
Wilcoxon signed-rank test over per-user metric values.

Both tests import ``scipy.stats`` when called, not at module level: every
process that imports ``repro`` (spawn workers, benchmark runs) would
otherwise load it, about 0.6 s and 50 MiB, for tests only reports run
(``tests/test_import_closure.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["SignificanceResult", "paired_t_test", "wilcoxon_test", "improvement"]


@dataclass(frozen=True)
class SignificanceResult:
    """Statistic and p-value of a paired test."""

    statistic: float
    p_value: float

    @property
    def significant(self) -> bool:
        """Significance at the paper's 0.05 level."""
        return self.p_value < 0.05


def _validate(sample_a: np.ndarray, sample_b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    sample_a = np.asarray(sample_a, dtype=np.float64)
    sample_b = np.asarray(sample_b, dtype=np.float64)
    if sample_a.shape != sample_b.shape:
        raise ValueError("paired samples must have the same shape")
    if sample_a.size < 2:
        raise ValueError("need at least two paired observations")
    return sample_a, sample_b


def paired_t_test(sample_a: np.ndarray, sample_b: np.ndarray) -> SignificanceResult:
    """Paired t-test of per-user metric values of two models."""
    from scipy import stats

    sample_a, sample_b = _validate(sample_a, sample_b)
    statistic, p_value = stats.ttest_rel(sample_a, sample_b)
    if np.isnan(p_value):
        # Identical samples: no evidence of a difference.
        return SignificanceResult(statistic=0.0, p_value=1.0)
    return SignificanceResult(statistic=float(statistic), p_value=float(p_value))


def wilcoxon_test(sample_a: np.ndarray, sample_b: np.ndarray) -> SignificanceResult:
    """Wilcoxon signed-rank test of per-user metric values of two models."""
    sample_a, sample_b = _validate(sample_a, sample_b)
    differences = sample_a - sample_b
    if np.allclose(differences, 0.0):
        return SignificanceResult(statistic=0.0, p_value=1.0)
    from scipy import stats

    statistic, p_value = stats.wilcoxon(sample_a, sample_b)
    return SignificanceResult(statistic=float(statistic), p_value=float(p_value))


def improvement(candidate: float, baseline: float) -> float:
    """Relative improvement in percent, as reported in the paper's tables."""
    if baseline == 0:
        return float("inf") if candidate > 0 else 0.0
    return 100.0 * (candidate - baseline) / abs(baseline)
