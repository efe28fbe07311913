#!/usr/bin/env python
"""Scenario: recommending launch items for low-activity ("cold") initiators.

The paper motivates group buying as a user-acquisition channel: many
initiators are new users with few of their own interactions, and their
friends' preferences plus social influence carry most of the signal.  This
example splits the test users by their training-time activity and compares
GBGCN with a plain MF baseline on each segment, showing that the
social/multi-view machinery matters most exactly where the paper says it
does — for sparse initiators.

    python examples/cold_start_initiators.py
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Dict, List

import numpy as np

from repro.core import GBGCNConfig
from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
from repro.eval import LeaveOneOutEvaluator, recall_at_k
from repro.models import build_model, ModelSettings
from repro.training import TrainingSettings, train_gbgcn_with_pretraining, train_model
from repro.utils import configure_logging, format_table

#: ``REPRO_EXAMPLE_SCALE=tiny`` shrinks every example to smoke-test size
#: (used by tests/test_examples_smoke.py); the default is demo-sized.
TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() == "tiny"


def per_segment_recall(model, split, evaluator, segments: Dict[str, List[int]], k: int = 10) -> Dict[str, float]:
    """Recall@k of ``model`` separately for each user segment."""
    # The evaluator's ranks follow the test users in sorted order.
    ranks = dict(zip(sorted(split.test), evaluator.evaluate_test(model).ranks))
    return {
        segment: float(np.mean([recall_at_k(ranks[user], k) for user in users])) if users else 0.0
        for segment, users in segments.items()
    }


def main() -> None:
    configure_logging()
    dataset = generate_dataset(
        BeibeiLikeConfig(num_users=70, num_items=30, num_behaviors=320, seed=17)
        if TINY
        else BeibeiLikeConfig(num_users=350, num_items=130, num_behaviors=1800, seed=17)
    )
    split = leave_one_out_split(dataset, seed=2)
    evaluator = LeaveOneOutEvaluator(split, num_negatives=20 if TINY else 199, seed=5)
    settings = (
        TrainingSettings(num_epochs=2, pretrain_epochs=1, batch_size=512, validate_every=1)
        if TINY
        else TrainingSettings(num_epochs=8, pretrain_epochs=3, batch_size=512, validate_every=2)
    )

    # Segment test users by how many behaviors they initiated in training.
    initiated = defaultdict(int)
    for behavior in split.train.behaviors:
        initiated[behavior.initiator] += 1
    segments: Dict[str, List[int]] = {"cold (<=2 launches)": [], "warm (>2 launches)": []}
    for user in split.test:
        key = "cold (<=2 launches)" if initiated[user] <= 2 else "warm (>2 launches)"
        segments[key].append(user)
    print({segment: len(users) for segment, users in segments.items()})

    # Baseline: plain MF on flattened interactions.
    mf = build_model("MF", split.train, ModelSettings(embedding_dim=16))
    train_model(mf, split.train, evaluator=evaluator, settings=settings)
    mf_recall = per_segment_recall(mf, split, evaluator, segments)

    # GBGCN with the full two-stage pipeline.
    gbgcn, _, _ = train_gbgcn_with_pretraining(
        split, config=GBGCNConfig(embedding_dim=16), settings=settings, evaluator=evaluator
    )
    gbgcn_recall = per_segment_recall(gbgcn, split, evaluator, segments)

    rows = []
    for segment in segments:
        base = mf_recall[segment]
        ours = gbgcn_recall[segment]
        lift = (ours - base) / base * 100 if base > 0 else float("inf")
        rows.append((segment, base, ours, f"{lift:+.1f}%"))
    print(format_table(["Initiator segment", "MF Recall@10", "GBGCN Recall@10", "Lift"], rows))


if __name__ == "__main__":
    main()
