"""Retrieval vs dense top-k scaling: 15k → 100k → 1M item catalogs.

The scaling claim behind ``repro.serving.retrieval``: a dense top-k request
is O(num_items · dim) per user, so per-request latency grows linearly with
the catalog; the IVF shortlist + exact-rescore path probes
``O(num_cells · dim)`` centroids and rescores a ~5% shortlist, so it pulls
ahead as the catalog grows.  This benchmark measures both paths on the same
MF model at three catalog sizes, records recall@10 against exact search at
each point, and writes the curve into ``BENCH_serving.json``
(``results.retrieval_scaling``, schema ``repro-serving-bench/v6``) next to
the catalog-serving numbers, with the ``host`` it was measured on.

Run with ``REPRO_RUN_SLOW=1`` (the 1M point builds a 1000-cell k-means
index over a million item vectors — tens of seconds, off the tier-1 path).
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import GroupBuyingDataset, leave_one_out_split
from repro.data.schema import GroupBuyingBehavior, SocialEdge
from repro.models import ModelSettings, build_model
from repro.serving import EmbeddingStore, TopKRecommender, build_index_for_model

from _bench import SERVING_SCHEMA, host_block, write_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"

NUM_USERS = 2000
NUM_BEHAVIORS = 4000
EMBEDDING_DIM = 16
TOP_K = 10
#: (num_items, k-means iterations): fewer Lloyd iterations at the largest
#: scale keep the build inside a slow-lane budget without moving recall.
SCALES = [(15_000, 8), (100_000, 8), (1_000_000, 4)]
#: Users sampled for latency/recall measurement at each scale.
SAMPLE_USERS = 64

_CURVE = []


def _split_with_catalog(num_items, seed=23):
    rng = np.random.default_rng(seed)
    behaviors = [
        GroupBuyingBehavior(
            initiator=int(initiator),
            item=int(item),
            participants=(int((initiator + 1) % NUM_USERS),),
            threshold=1,
        )
        for initiator, item in zip(
            rng.integers(0, NUM_USERS, size=NUM_BEHAVIORS),
            rng.integers(0, num_items, size=NUM_BEHAVIORS),
        )
    ]
    edges = [
        SocialEdge(int(a), int(b))
        for a, b in rng.integers(0, NUM_USERS, size=(NUM_USERS, 2))
        if a != b
    ]
    dataset = GroupBuyingDataset(
        NUM_USERS, num_items, behaviors, edges, name=f"retrieval-scale-{num_items}"
    )
    return leave_one_out_split(dataset, seed=1)


def _per_request_ms(recommender, users, repeats=3):
    """Median per-request latency (ms) over single-user requests."""
    timings = []
    for _ in range(repeats):
        started = time.perf_counter()
        for user in users:
            recommender.recommend(np.asarray([user], dtype=np.int64), k=TOP_K)
        timings.append((time.perf_counter() - started) / users.size)
    return float(np.median(timings) * 1000.0)


def _recall_at_k(exact, approx, k=TOP_K):
    hits = 0
    for row in range(exact.items.shape[0]):
        threshold = exact.scores[row, k - 1]
        tolerance = 1e-9 * max(1.0, abs(threshold)) if np.isfinite(threshold) else 0.0
        hits += int(np.sum(approx.scores[row, :k] >= threshold - tolerance))
    return hits / (k * exact.items.shape[0])


def _plant_item_structure(model, num_items, seed=42):
    """Give the untrained MF model *clustered* item factors.

    Trained item embeddings carry category/popularity cluster structure —
    that structure is exactly what an IVF index exploits.  Freshly
    initialized i.i.d. Gaussian embeddings are the degenerate no-structure
    case (every direction's top items scatter uniformly over cells), so
    benchmarking on them would measure the wrong workload.  A Gaussian
    mixture (a few hundred "categories", tight within-category spread)
    matches the geometry retrieval sees in production.
    """
    rng = np.random.default_rng(seed)
    num_centers = max(50, int(round(num_items ** 0.5)) // 2)
    centers = rng.normal(size=(num_centers, EMBEDDING_DIM))
    assignment = rng.integers(0, num_centers, size=num_items)
    model.item_embedding.weight.data[:] = centers[assignment] + 0.15 * rng.normal(
        size=(num_items, EMBEDDING_DIM)
    )


@pytest.mark.slow
@pytest.mark.parametrize("num_items,iterations", SCALES)
def test_retrieval_scaling_point(num_items, iterations):
    split = _split_with_catalog(num_items)
    model = build_model(
        "MF", split.train, ModelSettings(embedding_dim=EMBEDDING_DIM), rng=np.random.default_rng(0)
    )
    _plant_item_structure(model, num_items)
    store = EmbeddingStore(model)

    build_started = time.perf_counter()
    from repro.serving.retrieval import RetrievalIndex

    item_factors = model.scoring_factors()[1]
    index = RetrievalIndex.build(item_factors, seed=0, iterations=iterations)
    build_seconds = time.perf_counter() - build_started

    users = np.random.default_rng(3).choice(NUM_USERS, size=SAMPLE_USERS, replace=False)
    dense = TopKRecommender(store, k=TOP_K, dataset=split.full)
    fast = TopKRecommender(store, k=TOP_K, dataset=split.full, retriever=index)

    exact = dense.recommend(users)
    approx = fast.recommend(users)
    recall = _recall_at_k(exact, approx)

    dense_ms = _per_request_ms(dense, users)
    retrieval_ms = _per_request_ms(fast, users)
    shortlist_fraction = float(
        np.mean([c.size for c in index.shortlist(model.scoring_factors()[0][users[:8]])])
        / num_items
    )

    point = {
        "num_items": num_items,
        "num_cells": index.num_cells,
        "nprobe": index.nprobe,
        "index_build_seconds": round(build_seconds, 3),
        "shortlist_fraction": round(shortlist_fraction, 4),
        "recall_at_10": round(recall, 4),
        "dense_request_ms": round(dense_ms, 4),
        "retrieval_request_ms": round(retrieval_ms, 4),
        "speedup": round(dense_ms / retrieval_ms, 2),
    }
    _CURVE.append(point)
    print(
        f"\nBENCH retrieval scaling {num_items:,} items: dense {dense_ms:.3f} ms vs "
        f"retrieval {retrieval_ms:.3f} ms per request "
        f"({point['speedup']}x, recall@10 {recall:.3f}, build {build_seconds:.1f}s)"
    )

    assert recall >= 0.95, f"recall@10 {recall:.3f} below the 0.95 gate at {num_items:,} items"
    if num_items >= 100_000:
        # The headline claim: past 100k items, shortlist-then-rescore beats
        # a dense per-request scan.
        assert retrieval_ms < dense_ms, (
            f"retrieval ({retrieval_ms:.3f} ms) should beat dense ({dense_ms:.3f} ms) "
            f"at {num_items:,} items"
        )


@pytest.mark.slow
def test_write_retrieval_scaling_into_bench_json():
    """Merge the curve into BENCH_serving.json (runs after the points)."""
    if not _CURVE:
        pytest.skip("no scaling points collected in this run")
    retrieval_scaling = {
        "embedding_dim": EMBEDDING_DIM,
        "num_users": NUM_USERS,
        "top_k": TOP_K,
        "sample_users": SAMPLE_USERS,
        "model": "MF",
        "host": host_block(),
        "points": sorted(_CURVE, key=lambda point: point["num_items"]),
    }
    write_sections(OUTPUT_PATH, SERVING_SCHEMA, {"retrieval_scaling": retrieval_scaling})
