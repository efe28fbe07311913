#!/usr/bin/env python
"""Serving example: train GBGCN, then answer top-K requests from an
:class:`~repro.serving.EmbeddingStore` at batch-scoring speed.

Demonstrates the four pieces the serving and persistence layers add:

1. ``EmbeddingStore`` — propagate once after training, then serve every
   request from the cached embeddings (the model's own cache, which every
   training epoch drops, so the store never serves stale factors);
2. ``TopKRecommender`` — batched top-K with observed-item exclusion via
   ``np.argpartition`` partial sort;
3. ``repro.persist`` model artifacts — save the trained model once, then
   cold-start an identical serving store from disk in a fresh process,
   with no training in-process;
4. full-ranking evaluation (``LeaveOneOutEvaluator(num_negatives=None)``)
   in user blocks — identical metrics to the per-user reference loop,
   and faster (the example prints the ratio).

Runs in well under a minute on a laptop CPU:

    python examples/serving_topk.py
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core import GBGCNConfig
from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
from repro.eval import LeaveOneOutEvaluator
from repro.persist import save_model
from repro.serving import EmbeddingStore, TopKRecommender
from repro.training import TrainingSettings, train_gbgcn_with_pretraining
from repro.utils import configure_logging

#: ``REPRO_EXAMPLE_SCALE=tiny`` shrinks every example to smoke-test size
#: (used by tests/test_examples_smoke.py); the default is demo-sized.
TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() == "tiny"


def main() -> None:
    configure_logging()

    # 1. Data + a briefly trained GBGCN.
    dataset = generate_dataset(
        BeibeiLikeConfig(num_users=60, num_items=30, num_behaviors=280, seed=7)
        if TINY
        else BeibeiLikeConfig(num_users=300, num_items=120, num_behaviors=1600, seed=7)
    )
    split = leave_one_out_split(dataset, seed=1)
    evaluator = LeaveOneOutEvaluator(split, num_negatives=20 if TINY else 199, seed=3)
    settings = (
        TrainingSettings(num_epochs=2, pretrain_epochs=1, batch_size=512, validate_every=1)
        if TINY
        else TrainingSettings(num_epochs=8, pretrain_epochs=4, batch_size=512, validate_every=2)
    )
    config = GBGCNConfig(embedding_dim=16, num_layers=2, alpha=0.6, beta=0.05)
    model, history, _ = train_gbgcn_with_pretraining(split, config=config, settings=settings, evaluator=evaluator)
    print(f"Trained GBGCN for {history.num_epochs} epochs (best epoch: {history.best_epoch})")

    # 2. Precompute the serving cache: one propagation, many requests.
    store = EmbeddingStore(model)
    started = time.perf_counter()
    store.refresh()
    print(f"Embedding store refreshed in {time.perf_counter() - started:.3f}s")

    # 3. Serve top-10 recommendations for every test initiator in one batch.
    recommender = TopKRecommender(store, k=10, dataset=split.full)
    users = np.asarray(sorted(split.test), dtype=np.int64)
    started = time.perf_counter()
    result = recommender.recommend(users)
    elapsed = time.perf_counter() - started
    print(f"Served top-10 lists for {users.size} users in {elapsed * 1000:.1f} ms")

    first_user = int(users[0])
    print(f"Top-10 items for initiator {first_user}: {result.for_user(first_user).tolist()}")
    print(f"(Held-out item the user actually launched: {split.test[first_user].item})")
    print()

    # 4. Train once, serve anywhere: persist the model as a versioned
    #    artifact, then cold-start an identical serving store from disk —
    #    what a fresh serving process does instead of retraining.
    with tempfile.TemporaryDirectory() as artifact_dir:
        artifact_path = Path(artifact_dir) / "gbgcn.npz"
        save_model(model, artifact_path, dataset=split.train)
        print(f"Artifact written: {artifact_path.stat().st_size / 1024:.1f} KiB")

        started = time.perf_counter()
        cold_store = EmbeddingStore.from_artifact(artifact_path, split.train)
        cold_start_seconds = time.perf_counter() - started
        cold_result = TopKRecommender(cold_store, k=10, dataset=split.full).recommend(users)
        assert np.array_equal(cold_result.items, result.items)
        print(
            f"Cold-started serving from disk in {cold_start_seconds:.3f}s — "
            f"top-10 lists identical to the in-process model"
        )
    print()

    # 5. Batched full-ranking evaluation: same metrics as the per-user
    #    reference loop, and faster.
    full_evaluator = LeaveOneOutEvaluator(split, num_negatives=None)
    started = time.perf_counter()
    batched = full_evaluator.evaluate_test(model)
    batched_seconds = time.perf_counter() - started
    started = time.perf_counter()
    reference = full_evaluator.evaluate_test_loop(model)
    loop_seconds = time.perf_counter() - started
    assert np.array_equal(batched.ranks, reference.ranks)
    print(
        f"Full-ranking evaluation: batched {batched_seconds:.3f}s vs per-user {loop_seconds:.3f}s "
        f"({loop_seconds / max(batched_seconds, 1e-9):.1f}x), identical metrics"
    )
    print("Recall@10 (full catalog):", round(batched.metrics["Recall@10"], 4))


if __name__ == "__main__":
    main()
