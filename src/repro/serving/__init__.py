"""Online serving layer: cached scoring, top-K lists, and multi-model routing.

This package turns trained :class:`~repro.models.base.RecommenderModel`
instances into a request-serving system, one layer at a time:

* :class:`EmbeddingStore` owns one model's propagate-once / serve-many
  lifecycle (precompute after training, cold-start from a
  ``repro.persist`` artifact); the model's own factor cache decides
  freshness, so training needs no serving hook;
* :class:`TopKRecommender` answers batched top-``k`` requests with one
  matrix product plus an ``np.argpartition`` partial sort — or, given a
  :class:`RetrievalIndex`, from an IVF shortlist rescored through the
  exact score path (sub-linear in catalog size; see
  ``repro.serving.retrieval``);
* :class:`ModelCatalog` manages a *directory* of artifacts as a model
  fleet — header-only scans, lazy cold-starts, an LRU residency budget,
  and hot-swap when an artifact file is republished; safe under
  concurrent traffic from any number of threads;
* :class:`ServingGateway` routes named, A/B-split and mixed-model traffic
  onto the catalog, grouping batches so each model scores once;
* :class:`CatalogWarmer` is the background thread that rescans the
  artifact directory and pre-warms/hot-swaps models *off* the request
  path, so requests never pay cold-start or reload latency;
* :class:`MetricsRegistry` collects per-model request counts, served
  rows, cold-start/reload/eviction counters and latency histograms
  (p50/p95/p99), exported as a plain dict via ``snapshot()`` — snapshots
  carry raw bucket counts, so ``MetricsRegistry.merge_snapshots`` can
  fold many processes' metrics into one fleet-wide view;
* :class:`WorkerPool` (``repro.serving.workers``) scales past one
  process: N spawn-context workers, each a full catalog+gateway stack
  over the same artifact directory, sharing mmap-loaded ``layout="dir"``
  artifact weights through the page cache, with crash respawn and merged
  fleet metrics;
* :mod:`repro.serving.forksafe` keeps all of the above safe under
  ``os.fork``: locks and daemon-thread state are re-initialized inside
  forked children via ``os.register_at_fork`` hooks;
* :mod:`repro.serving.resilience` keeps serving *bounded under failure*:
  per-request :class:`Deadline` propagation (gateway → catalog cold-start
  → worker pool), :class:`AdmissionController` load shedding,
  per-model :class:`CircuitBreaker` state machines with degraded
  fallbacks (last-good resident version, then cheap fallback models), all
  configured through one :class:`ResiliencePolicy` and all counted —
  every shed, deadline miss, breaker trip and fallback serve lands in the
  metrics, never silent;
* :mod:`repro.serving.faults` is the seeded, deterministic
  fault-injection harness the chaos tests drive all of the above with:
  a :class:`FaultPlan` of :class:`FaultRule` triggers (errors, stalls,
  worker SIGKILLs) armed at named hook points across persist, catalog,
  gateway and workers;
* :mod:`repro.serving.loadgen` is the scenario engine's traffic half:
  :class:`TrafficModel` expands a seeded :class:`TrafficConfig` (diurnal
  cycles, flash-sale bursts, hot-key item skew, per-request routing and
  deadline budgets) into a deterministic :class:`RequestStream`, and
  :class:`ReplayHarness` replays it open-loop against a gateway or
  worker pool, ledgering per-phase SLO percentiles through
  :class:`MetricsRegistry` (pairs with ``repro.data.scenario`` for the
  million-user populations).

Requests are validated at every public boundary: user IDs outside
``[0, num_users)`` raise a typed :class:`ServingError` naming the model
and the offending IDs, instead of wrapping around (negative numpy
indexing) or crashing with a raw ``IndexError`` deep in the score path.

Single-model wiring::

    store = EmbeddingStore(model)
    Trainer(model, optimizer, batches).fit(num_epochs)   # served fresh, no callback
    recommender = TopKRecommender(store, k=10, dataset=split.full)
    result = recommender.recommend(user_batch)

Multi-model wiring (see ``examples/serving_catalog.py``)::

    catalog = ModelCatalog("artifacts/", split.train, resident_budget=2)
    gateway = ServingGateway(catalog, default_model="gbgcn")
    with CatalogWarmer(catalog, interval_seconds=5.0):       # hot off-path
        gateway.top_k(user_batch, k=10)                      # named routing
        gateway.top_k_split(TrafficSplit({"gbgcn": 0.9, "mf": 0.1}), user_batch)
        print(catalog.metrics.snapshot()["totals"])
"""

from .catalog import (
    CatalogEntry,
    CatalogError,
    ModelCatalog,
    RetrievalPolicy,
    UnknownCatalogModelError,
)
from .errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    ServingError,
    ServingUnavailableError,
    validate_user_ids,
)
from .faults import (
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    corrupt_artifact,
    inject,
)
from .gateway import GatewayResult, ServingGateway, TrafficSplit
from .loadgen import (
    BASELINE_PHASE,
    FlashBurst,
    ReplayHarness,
    ReplayReport,
    RequestStream,
    TrafficConfig,
    TrafficModel,
)
from .metrics import LatencyHistogram, MetricsRegistry, ModelMetrics
from .resilience import (
    AdmissionController,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    ResilienceState,
)
from .retrieval import RetrievalIndex, RetrievalIndexError, build_index_for_model
from .store import EmbeddingStore
from .topk import TopKRecommender, TopKResult
from .warmer import CatalogWarmer, CatalogWarmerError
from .workers import WorkerCrashError, WorkerPool, WorkerPoolError

__all__ = [
    "EmbeddingStore",
    "TopKRecommender",
    "TopKResult",
    "ModelCatalog",
    "CatalogEntry",
    "CatalogError",
    "UnknownCatalogModelError",
    "RetrievalPolicy",
    "RetrievalIndex",
    "RetrievalIndexError",
    "build_index_for_model",
    "ServingError",
    "ServingUnavailableError",
    "DeadlineExceededError",
    "OverloadedError",
    "CircuitOpenError",
    "validate_user_ids",
    "Deadline",
    "AdmissionController",
    "CircuitBreaker",
    "ResiliencePolicy",
    "ResilienceState",
    "FaultPlan",
    "FaultRule",
    "InjectedFaultError",
    "inject",
    "corrupt_artifact",
    "CatalogWarmer",
    "CatalogWarmerError",
    "ServingGateway",
    "GatewayResult",
    "TrafficSplit",
    "LatencyHistogram",
    "MetricsRegistry",
    "ModelMetrics",
    "WorkerPool",
    "WorkerPoolError",
    "WorkerCrashError",
    "BASELINE_PHASE",
    "FlashBurst",
    "TrafficConfig",
    "TrafficModel",
    "RequestStream",
    "ReplayHarness",
    "ReplayReport",
]
