#!/usr/bin/env python
"""Multi-model serving: a directory of artifacts behind one catalog + gateway.

The single-model story (``examples/serving_topk.py``) trains one model and
cold-starts one store.  Production serves a *fleet* — several GBGCN
variants and baselines side by side for comparison or A/B rollout.  This
example walks the whole multi-model lifecycle:

1. train three registry models briefly and save each as a ``repro.persist``
   artifact into one catalog directory;
2. point a ``ModelCatalog`` at the directory — a header-only scan (no
   weights loaded), schema-fingerprint validation, lazy cold-start on first
   request, and an LRU residency budget;
3. serve named, A/B-split and mixed-model traffic through a
   ``ServingGateway`` (each model computes one dense block per batch);
4. hot-swap: republish one artifact (as ``ModelCheckpoint`` does with
   ``catalog_dir=``) and watch the catalog reload it, version-stamped;
5. run a ``CatalogWarmer`` so the *next* hot-swap is absorbed off the
   request path (zero in-request reload latency), and read the per-model
   ``MetricsRegistry`` snapshot — request counts, cold starts, latency
   percentiles — that the whole serving stack records as it runs.

Runs in well under a minute on a laptop CPU:

    python examples/serving_catalog.py
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path

import numpy as np

from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
from repro.models import ModelSettings, build_model
from repro.persist import save_model
from repro.serving import (
    CatalogWarmer,
    EmbeddingStore,
    ModelCatalog,
    ServingGateway,
    TopKRecommender,
    TrafficSplit,
)
from repro.training import TrainingSettings, train_model
from repro.utils import configure_logging

#: ``REPRO_EXAMPLE_SCALE=tiny`` shrinks every example to smoke-test size
#: (used by tests/test_examples_smoke.py); the default is demo-sized.
TINY = os.environ.get("REPRO_EXAMPLE_SCALE", "").lower() == "tiny"

CATALOG_MODELS = {"gbgcn": "GBGCN", "gbgcn-pretrain": "GBGCN-pretrain", "mf": "MF"}


def main() -> None:
    configure_logging()

    dataset = generate_dataset(
        BeibeiLikeConfig(num_users=60, num_items=30, num_behaviors=280, seed=7)
        if TINY
        else BeibeiLikeConfig(num_users=300, num_items=120, num_behaviors=1600, seed=7)
    )
    split = leave_one_out_split(dataset, seed=1)
    settings = ModelSettings(embedding_dim=8 if TINY else 16)
    training = TrainingSettings(num_epochs=1 if TINY else 4, batch_size=512)

    with tempfile.TemporaryDirectory() as tmp:
        directory = Path(tmp) / "fleet"

        # 1. Train each variant briefly and publish it into the catalog dir.
        for stem, model_name in CATALOG_MODELS.items():
            model = build_model(model_name, split.train, settings)
            train_model(model, split.train, settings=training)
            header = save_model(model, directory / f"{stem}.npz")
            size_kib = (directory / f"{stem}.npz").stat().st_size / 1024
            print(f"published {stem!r} ({header.model_name}, {size_kib:.0f} KiB)")
        print()

        # 2. The catalog scans headers only -- no weights are loaded yet.
        catalog = ModelCatalog(directory, split.train, serving_dataset=split.full, resident_budget=2)
        print(f"catalog: {catalog.names} (resident: {catalog.resident_names})")

        users = np.asarray(sorted(split.test), dtype=np.int64)[: 8 if TINY else 64]

        # First request per model pays the cold start, lazily.
        for name in catalog.names:
            seconds = catalog.warm(name)
            print(f"  cold-started {name!r} in {seconds * 1000:.1f} ms"
                  if seconds else f"  {name!r} already resident")
        print(f"resident after warm-up (budget 2, LRU): {catalog.resident_names}")
        print(f"stats: {catalog.stats.as_dict()}")
        print()

        # Catalog serving is bitwise-identical to a hand-wired per-model store.
        result = catalog.recommender("mf", k=10).recommend(users)
        reference = TopKRecommender(
            EmbeddingStore.from_artifact(directory / "mf.npz", split.train),
            k=10,
            dataset=split.full,
        ).recommend(users)
        assert np.array_equal(result.items, reference.items)
        print("catalog top-10 lists identical to a dedicated EmbeddingStore.from_artifact store")
        print()

        # 3. One gateway in front of the fleet.
        gateway = ServingGateway(catalog, default_model="gbgcn")
        gateway.top_k(users, k=10)  # unnamed traffic -> default model

        ab = TrafficSplit({"gbgcn": 0.8, "mf": 0.2}, seed=11)
        ab_result = gateway.top_k_split(ab, users, k=10)
        served = {name: ab_result.models.count(name) for name in sorted(set(ab_result.models))}
        print(f"A/B split {ab}: served {served}")

        mixed = gateway.top_k_mixed(
            [("mf", int(users[0])), ("gbgcn", int(users[1])), ("mf", int(users[2]))], k=5
        )
        print(f"mixed batch served by {mixed.models}; "
              f"request 0 got items {mixed.for_request(0).tolist()}")
        models = gateway.metrics.snapshot()["models"]
        served_rows = {name: model["rows_served"] for name, model in models.items()}
        print(f"gateway rows served: {served_rows}")
        print()

        # 4. Hot-swap: republish 'mf' (atomic replace) and serve again.
        retrained = build_model("MF", split.train, settings, rng=np.random.default_rng(99))
        train_model(retrained, split.train, settings=training)
        save_model(retrained, directory / "mf.npz")
        swapped = catalog.recommender("mf", k=10).recommend(users)
        print(f"hot-swapped 'mf' (entry version {catalog.entry('mf').version}, "
              f"reloads {catalog.stats.reloads}); "
              f"lists changed: {not np.array_equal(swapped.items, result.items)}")
        print()

        # 5. Background warming: the next republish is absorbed by the
        # warmer cycle, so no request pays the reload.  (run_once() is the
        # deterministic form; in a server you'd leave the context manager
        # running: `with CatalogWarmer(catalog, interval_seconds=5.0): ...`)
        warmer = CatalogWarmer(catalog, names=["mf", "gbgcn"])
        retrained_again = build_model("MF", split.train, settings, rng=np.random.default_rng(7))
        train_model(retrained_again, split.train, settings=training)
        save_model(retrained_again, directory / "mf.npz")
        warmer.run_once()                       # swap taken off the request path
        reloads_before_request = catalog.stats.reloads
        catalog.recommender("mf", k=10).recommend(users)   # plain residency hit
        print(f"warmer absorbed the republish (version {catalog.entry('mf').version}); "
              f"the request itself reloaded nothing: "
              f"{catalog.stats.reloads == reloads_before_request}")

        # Per-model observability, collected as the fleet served all along.
        snapshot = catalog.metrics.snapshot()
        for name in sorted(snapshot["models"]):
            model = snapshot["models"][name]
            print(f"  metrics[{name}]: requests={model['requests']} "
                  f"rows={model['rows_served']} cold_starts={model['cold_starts']} "
                  f"reloads={model['reloads']} "
                  f"p99={model['request_latency']['p99'] * 1000:.2f} ms")
        print(f"totals: {snapshot['totals']}")


if __name__ == "__main__":
    main()
