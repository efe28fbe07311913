"""The :class:`ModelCatalog`: a directory of model artifacts as a serving fleet.

One :class:`~repro.serving.store.EmbeddingStore` serves one model.  The
catalog scales that to *many* models — every GBGCN variant and baseline of
the paper's Table II/III comparison, or the candidates of an A/B rollout —
behind one object pointed at a directory of ``repro.persist`` artifacts:

* **header-only scan** — :meth:`ModelCatalog.scan` indexes the directory
  with :func:`~repro.persist.read_artifact_header` (no weight array is
  decompressed), validates each artifact's dataset-schema fingerprint
  against the serving dataset and its model name against the registry, and
  records unloadable files in :attr:`ModelCatalog.rejected` with a
  diagnosable reason;
* **lazy cold-start** — weights are loaded and embeddings propagated only
  on a model's first request (or an explicit :meth:`warm`);
* **LRU residency budget** — at most ``resident_budget`` models keep their
  weights and propagated embeddings in memory; the least recently used is
  evicted when the budget would overflow (explicit :meth:`evict` works
  too);
* **hot-swap** — every access re-checks the artifact file (stat identity
  plus the content token that catches same-size replacements within one
  mtime tick); when a trainer (e.g.
  :class:`~repro.training.callbacks.ModelCheckpoint` publishing into the
  catalog directory) atomically replaces it, the catalog reloads the new
  bytes and bumps the entry's ``version``;
* **thread safety** — any number of threads may call
  :meth:`store`/:meth:`recommender`/:meth:`warm`/:meth:`evict`/:meth:`scan`
  concurrently.  Catalog state is guarded by one internal lock, and each
  entry carries a load lock so two threads racing on the same cold model
  perform exactly one cold start (the loser waits and reuses the winner's
  resident).  Model loads and propagation run *outside* the catalog lock,
  so one model's cold start never blocks another model's requests;
* **observability** — lifecycle counters (:attr:`stats`) plus a per-model
  :class:`~repro.serving.metrics.MetricsRegistry` (:attr:`metrics`)
  recording cold-start latency histograms, reloads and evictions.

Example — three artifacts, a budget of two residents, bitwise-identical
results to a hand-wired per-model store:

>>> import tempfile
>>> import numpy as np
>>> from pathlib import Path
>>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
>>> from repro.models import build_model
>>> from repro.persist import save_model
>>> from repro.serving import EmbeddingStore, ModelCatalog, TopKRecommender
>>> split = leave_one_out_split(generate_dataset(
...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
>>> directory = Path(tempfile.mkdtemp())
>>> for spec in ("MF", "ItemPop", "LightGCN"):
...     _ = save_model(build_model(spec, split.train), directory / f"{spec.lower()}.npz")
>>> catalog = ModelCatalog(directory, split.train, resident_budget=2)
>>> sorted(catalog.names)
['itempop', 'lightgcn', 'mf']
>>> catalog.resident_names  # nothing loaded yet: cold-start is lazy
[]
>>> users = np.asarray([0, 1, 2])
>>> result = catalog.recommender("mf", k=5).recommend(users)   # first request loads
>>> catalog.resident_names
['mf']
>>> reference = TopKRecommender(
...     EmbeddingStore.from_artifact(directory / "mf.npz", split.train),
...     k=5, dataset=split.train)
>>> bool(np.array_equal(result.items, reference.recommend(users).items))
True
>>> _ = catalog.warm("itempop"); _ = catalog.warm("lightgcn")
>>> catalog.resident_names     # budget is 2: 'mf' (least recent) was evicted
['itempop', 'lightgcn']
>>> catalog.metrics.snapshot()["totals"]["cold_starts"]
3
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

import scipy.sparse as sp

from ..data.dataset import GroupBuyingDataset, observed_item_matrix
from ..persist.errors import ArtifactError
from ..persist.fingerprint import dataset_fingerprint, fingerprint_mismatch
from ..persist.index import (
    ArtifactInfo,
    artifact_content_token,
    artifact_stat,
    read_artifact_header,
    scan_artifact_directory,
)
from . import forksafe
from .errors import DeadlineExceededError
from .faults import InjectedFaultError, fault_point
from .metrics import MetricsRegistry
from .retrieval import RetrievalIndex, build_index_for_model
from .store import EmbeddingStore
from .topk import TopKRecommender

__all__ = [
    "CatalogError",
    "UnknownCatalogModelError",
    "CatalogEntry",
    "ModelCatalog",
    "RetrievalPolicy",
]


class CatalogError(Exception):
    """Base class for model-catalog failures (unknown names, vanished files)."""


class UnknownCatalogModelError(CatalogError, KeyError):
    """The requested name is not a servable entry of the catalog."""


@dataclass
# repro: allow(FORK-001) -- entries never live outside a ModelCatalog; the catalog's _reinit_after_fork_in_child replaces every entry's load_lock in the child
class CatalogEntry:
    """One servable artifact of the catalog (metadata only — never weights).

    ``version`` starts at 1 and is bumped on every hot-swap reload, so
    callers can detect "same name, new model" across requests.  Entry
    fields are only read/written under the owning catalog's lock; the
    ``load_lock`` serializes cold starts of this entry across threads.
    """

    info: ArtifactInfo
    version: int = 1
    #: Wall-clock seconds of the most recent cold start (0.0 until loaded once).
    last_cold_start_seconds: float = 0.0
    #: ``time.time_ns()`` of the last content-token verification (0 forces
    #: one on first access), driving the periodic idle-tail re-check.
    last_content_check_ns: int = 0

    def __post_init__(self) -> None:
        self.load_lock = threading.Lock()

    @property
    def name(self) -> str:
        return self.info.name

    @property
    def model_name(self) -> str:
        return self.info.model_name

    @property
    def path(self) -> Path:
        return self.info.path


@dataclass(frozen=True)
class RetrievalPolicy:
    """How a catalog builds candidate-generation indexes for its residents.

    Passing a policy to :class:`ModelCatalog` turns shortlist-then-rescore
    retrieval on for every model that exposes
    :meth:`~repro.models.base.RecommenderModel.scoring_factors`; models
    without factors keep exact brute-force serving.  The index and its
    cell-ordered item table are built from the served item factors during
    cold start — off the request path when a
    :class:`~repro.serving.warmer.CatalogWarmer` drives warming — and a
    hot-swapped artifact automatically gets a fresh index because a reload
    is a new cold start.  A retired resident's cell table is dropped, so
    only live residents hold one.

    ``num_cells`` / ``nprobe`` / ``seed`` are forwarded to
    :meth:`~repro.serving.retrieval.RetrievalIndex.build` (``None`` picks
    the scale-aware defaults); a ``num_cells`` or ``nprobe`` below 1 is
    refused here, and a ``num_cells`` above the catalog's item count by
    :class:`ModelCatalog`, so an unbuildable policy fails at construction
    rather than on every request.  ``min_items`` skips index construction
    for catalogs where brute force is already cheap.
    """

    num_cells: Optional[int] = None
    nprobe: Optional[int] = None
    seed: int = 0
    min_items: int = 0

    def __post_init__(self) -> None:
        for field_name in ("num_cells", "nprobe"):
            value = getattr(self, field_name)
            if value is not None and value < 1:
                raise ValueError(
                    f"RetrievalPolicy.{field_name} must be at least 1 (or None for the "
                    f"scale-aware default), got {value}"
                )


@dataclass
class _Resident:
    """A loaded model: its store plus the lazily built recommender."""

    store: EmbeddingStore
    version: int
    recommender: Optional[TopKRecommender] = None
    retriever: Optional[RetrievalIndex] = None


@dataclass
class CatalogStats:
    """Lifecycle counters since catalog construction (monotonic).

    Mutated only under the catalog lock, so concurrent traffic never
    drops an increment; read access needs no lock (ints are snapshots).
    """

    cold_starts: int = 0
    hits: int = 0
    evictions: int = 0
    reloads: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "cold_starts": self.cold_starts,
            "hits": self.hits,
            "evictions": self.evictions,
            "reloads": self.reloads,
        }


class ModelCatalog:
    """Artifact-backed multi-model catalog with lazy cold-start and LRU residency.

    Safe for concurrent use from any number of threads; see the module
    docstring for the locking discipline.

    ``content_check_grace_seconds`` (class attribute, overridable per
    instance) bounds how long after a file's mtime the content token is
    re-verified on every access, and the cadence of the periodic re-check
    past that.

    Parameters
    ----------
    directory:
        The artifact directory to scan: every ``*.npz`` file and every
        ``*.npyd`` (``dir``-layout) subdirectory in it is an entry.
    train_dataset:
        The dataset every artifact must have been trained on; each header's
        schema fingerprint is verified against it at scan time, so a model
        trained on a different universe can never be served by accident.
    serving_dataset:
        The dataset supplying observed interactions for top-k exclusion
        (defaults to ``train_dataset``; pass the *full* dataset when the
        training split should also be excluded).
    resident_budget:
        Maximum number of models kept loaded at once (``None`` = unbounded).
    default_k, exclude_observed:
        Defaults for recommenders built by :meth:`recommender`.
    metrics:
        The :class:`~repro.serving.metrics.MetricsRegistry` to record
        into; a fresh enabled registry by default (pass
        ``MetricsRegistry(enabled=False)`` to disable collection).
    retrieval:
        A :class:`RetrievalPolicy` enabling shortlist-then-rescore top-k
        for factor-exposing models (``None`` — the default — serves every
        model with exact brute force).  Indexes are built at cold start and
        rebuilt on hot-swap, so a warmer-driven catalog never pays the
        build on the request path.  Raises ``ValueError`` when the policy's
        ``num_cells`` exceeds the item count of a catalog at or above its
        ``min_items``: every artifact shares ``train_dataset``'s item
        universe, so no index build could succeed.
    """

    #: How long after an artifact's mtime the content token is re-verified
    #: on every access (the stat identity's blind window is a replacement
    #: inside the still-current mtime tick), and how often it is
    #: re-verified thereafter (one periodic check per grace period, so an
    #: idle model's hidden swap is found at most this late).  Generous:
    #: any mtime granularity coarser than this would be pathological.
    content_check_grace_seconds: float = 60.0

    def __init__(
        self,
        directory: Union[str, Path],
        train_dataset: GroupBuyingDataset,
        *,
        serving_dataset: Optional[GroupBuyingDataset] = None,
        resident_budget: Optional[int] = None,
        default_k: int = 10,
        exclude_observed: bool = True,
        metrics: Optional[MetricsRegistry] = None,
        retrieval: Optional[RetrievalPolicy] = None,
    ) -> None:
        if resident_budget is not None and resident_budget < 1:
            raise ValueError("resident_budget must be at least 1 (or None for unbounded)")
        num_items = train_dataset.num_items
        if (
            retrieval is not None
            and retrieval.num_cells is not None
            and retrieval.num_cells > num_items >= retrieval.min_items
        ):
            raise ValueError(
                f"RetrievalPolicy.num_cells={retrieval.num_cells} exceeds the {num_items} "
                f"items every artifact of this catalog serves; no index could be built"
            )
        self.directory = Path(directory)
        self.train_dataset = train_dataset
        self.serving_dataset = serving_dataset if serving_dataset is not None else train_dataset
        self.resident_budget = resident_budget
        self.default_k = default_k
        self.exclude_observed = exclude_observed
        self.retrieval = retrieval
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        #: Servable entries by catalog name (file stem), filled by :meth:`scan`.
        self.entries: Dict[str, CatalogEntry] = {}
        #: Artifacts in the directory that cannot be served, with the reason.
        self.rejected: Dict[str, str] = {}
        self.stats = CatalogStats()
        # Lock hierarchy (acquire outer before inner, never the reverse):
        #   entry.load_lock  →  self._lock  →  MetricsRegistry._lock
        # self._lock guards entries/rejected/_residents/stats/_observed and
        # is held only for in-memory bookkeeping plus cheap freshness IO
        # (stat + content-token read), never for a model load.
        self._lock = threading.RLock()
        self._residents: "OrderedDict[str, _Resident]" = OrderedDict()
        # Built eagerly: the serving dataset is fixed for the catalog's
        # lifetime, and building it lazily would put an O(dataset) scan
        # inside the catalog lock on the first request.
        self._observed: Optional[sp.csr_matrix] = (
            self._build_observed_matrix() if exclude_observed else None
        )
        # A fork()ed child inherits this catalog with whatever locks some
        # other thread held mid-fork; re-initialize them there (forksafe
        # module docstring has the full story).
        forksafe.protect(self)
        self.scan()

    def _reinit_after_fork_in_child(self) -> None:
        """Replace locks a fork may have copied in a held state (child only)."""
        self._lock = threading.RLock()
        for entry in self.entries.values():
            entry.load_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Directory scanning & validation
    # ------------------------------------------------------------------
    def scan(self) -> List[str]:
        """(Re-)index the artifact directory via header-only reads.

        Returns the sorted servable names.  Entries whose file vanished are
        dropped (and evicted); replaced files are *detected* here (version
        bump — including stat-identical replacements, caught by the content
        token) but the new bytes are loaded lazily on next access, so a
        scan never pays a cold start.  Invalid files land in
        :attr:`rejected` with a message that names the path and the
        failure, never in :attr:`entries`.  Safe to call concurrently with
        serving traffic — this is what a background
        :class:`~repro.serving.warmer.CatalogWarmer` cycle does.
        """
        scan = scan_artifact_directory(self.directory)
        scanned_at = time.time_ns()  # every scanned header carried a fresh token
        with self._lock:
            self.rejected = dict(scan.failures)
            fresh: Dict[str, CatalogEntry] = {}
            for name, info in scan.entries.items():
                reason = self._validate(info)
                if reason is not None:
                    self.rejected[info.path.name] = reason
                    continue
                previous = self.entries.get(name)
                if previous is None:
                    fresh[name] = CatalogEntry(info=info, last_content_check_ns=scanned_at)
                    continue
                # Keep the previous entry object (same load lock, same
                # version history).  A changed file — by stat identity *or*
                # content token — bumps the version now, so the next access
                # (or warm) reloads the new bytes without re-reading the
                # header itself.
                if previous.info.differs(info):
                    previous.info = info
                    previous.version += 1
                previous.last_content_check_ns = scanned_at
                fresh[name] = previous
            for name in list(self._residents):
                if name not in fresh:
                    self._evict_locked(name)
            self.entries = fresh
            return sorted(self.entries)

    def _validate(self, info: ArtifactInfo) -> Optional[str]:
        """Reason the artifact cannot be served here, or ``None`` if it can."""
        from ..models.registry import SERVABLE_MODEL_NAMES

        if info.model_name not in SERVABLE_MODEL_NAMES:
            return (
                f"{info.path}: unknown model {info.model_name!r}; "
                f"this registry serves {SERVABLE_MODEL_NAMES}"
            )
        if info.header.schema is None:
            return (
                f"{info.path}: artifact records no dataset-schema fingerprint, so it cannot "
                f"be verified against the serving dataset"
            )
        differences = fingerprint_mismatch(info.header.schema, dataset_fingerprint(self.train_dataset))
        if differences:
            return (
                f"{info.path}: artifact was trained on a different dataset than this catalog "
                f"serves ({'; '.join(differences)})"
            )
        return None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def names(self) -> List[str]:
        """Sorted servable catalog names."""
        with self._lock:
            return sorted(self.entries)

    @property
    def num_users(self) -> int:
        """Size of the user universe every cataloged model serves.

        Fixed for the catalog's lifetime (every artifact's schema
        fingerprint is validated against ``train_dataset``), so the gateway
        can validate request user IDs without touching any model.
        """
        return self.train_dataset.num_users

    def retriever(self, name: str) -> Optional[RetrievalIndex]:
        """The resident retrieval index serving ``name`` (None when disabled,
        not resident, or the model exposes no scoring factors)."""
        self.store(name)  # ensure residency & freshness
        with self._lock:
            resident = self._residents.get(name)
            return None if resident is None else resident.retriever

    @property
    def resident_names(self) -> List[str]:
        """Loaded models, least recently used first."""
        with self._lock:
            return list(self._residents)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self.entries

    def __len__(self) -> int:
        with self._lock:
            return len(self.entries)

    def entry(self, name: str) -> CatalogEntry:
        """The catalog entry called ``name`` (metadata only, no load)."""
        with self._lock:
            try:
                return self.entries[name]
            except KeyError:
                raise UnknownCatalogModelError(
                    f"unknown model {name!r}; catalog at {self.directory} serves {self.names}"
                    + (f" (rejected files: {sorted(self.rejected)})" if self.rejected else "")
                ) from None

    # ------------------------------------------------------------------
    # Lifecycle: cold-start, LRU, hot-swap
    # ------------------------------------------------------------------
    def store(self, name: str, deadline=None) -> EmbeddingStore:
        """The serving store for ``name``, cold-starting or reloading as needed.

        Every call re-checks the artifact file (stat identity, plus content
        token): a replaced file triggers a reload of the new bytes
        (version bump), a vanished file raises :class:`CatalogError`.
        Access marks the model most recently used.
        Thread-safe; concurrent requests for the same cold model perform a
        single load.

        ``deadline`` (a :class:`~repro.serving.resilience.Deadline`, or
        None) bounds how long this call may *wait*: behind another
        thread's in-flight cold start, or before starting a load of its
        own.  A request that would otherwise block indefinitely behind a
        stalled load raises a typed
        :class:`~repro.serving.errors.DeadlineExceededError` instead.  An
        already-running load is never interrupted (its result serves later
        requests); residency hits are never deadline-checked — they are
        the fast path.
        """
        return self._acquire(name, deadline)[0]

    def _acquire(self, name: str, deadline=None) -> Tuple[EmbeddingStore, float]:
        """``(store, cold_start_seconds)`` — 0.0 when served from residency."""
        # A load runs outside the catalog lock, so the artifact can be
        # swapped *again* mid-load; when that happens the loaded bytes are
        # discarded and the loop retries against the newest version.
        for _ in range(16):
            with self._lock:
                entry = self.entry(name)
                self._refresh_entry(entry)
                resident = self._hit_locked(name, entry.version)
                if resident is not None:
                    return resident.store, 0.0
                target_version = entry.version
                path = entry.path
                load_lock = entry.load_lock
            # The deadline governs the *wait* for the load lock (another
            # thread may be mid-cold-start behind it, stalled on slow IO);
            # an expired deadline fails typed instead of parking forever.
            if deadline is None:
                load_lock.acquire()
            else:
                remaining = deadline.remaining()
                if remaining <= 0.0 or not load_lock.acquire(timeout=remaining):
                    raise DeadlineExceededError(
                        f"deadline exceeded waiting for the cold start of {name!r} "
                        f"(another load holds the lock or none could begin in time)"
                    )
            try:
                with self._lock:
                    current = self.entries.get(name)
                    if current is None or current.version != target_version:
                        continue  # dropped or swapped while we waited; retry
                    # The thread we waited on may have loaded exactly this
                    # version — then this is a hit, not a second cold start.
                    resident = self._hit_locked(name, target_version)
                    if resident is not None:
                        return resident.store, 0.0
                if deadline is not None:
                    # About to pay the load in-line: don't start work the
                    # request can no longer use.
                    deadline.check(f"cold start of {name!r}")
                loaded = self._cold_start(name, path, target_version)
                if loaded is not None:
                    return loaded
            finally:
                load_lock.release()
        raise CatalogError(
            f"artifact for {name!r} at {path} kept being replaced while loading; giving up"
        )

    def _hit_locked(self, name: str, version: int) -> Optional[_Resident]:
        """The resident serving ``version``, recency-bumped — or None.  Lock held."""
        resident = self._residents.get(name)
        if resident is not None and resident.version == version:
            self._residents.move_to_end(name)
            self.stats.hits += 1
            return resident
        if resident is not None:
            # Stale bytes: retire the old resident; caller cold-starts.
            self._retire_locked(name)
            self.stats.reloads += 1
            self.metrics.record(name, "reloads")
        return None

    def recommender(
        self, name: str, k: Optional[int] = None, deadline=None
    ) -> TopKRecommender:
        """A ready top-k recommender for ``name`` (built once per residency).

        The recommender shares the catalog-wide observed-item matrix, so
        loading the tenth model costs one model load, not one model load
        plus one interaction-matrix rebuild.  The cached recommender always
        carries the catalog's ``default_k``; passing ``k`` returns a one-off
        recommender with that default (sharing the same store and matrix)
        and never alters what later ``k``-less calls see.  Per-request ``k``
        belongs to ``recommend(users, k)``.  ``deadline`` bounds any
        cold-start wait exactly as in :meth:`store`.
        """
        store = self.store(name, deadline)  # ensures residency & freshness
        with self._lock:
            resident = self._residents.get(name)
            if resident is None or resident.store is not store:
                # Evicted or hot-swapped by a concurrent thread between the
                # two calls: serve a one-off recommender over the store we
                # already hold (its arrays are immutable) rather than racing.
                # No retriever here — brute force is always correct, and the
                # race window is not worth an in-line index build.
                return self._build_recommender(store, self.default_k if k is None else k)
            retriever = resident.retriever
            if resident.recommender is None:
                resident.recommender = self._build_recommender(store, self.default_k, retriever)
            cached = resident.recommender
        if k is None or k == cached.k:
            return cached
        return self._build_recommender(store, k, retriever)

    def _build_recommender(
        self, store: EmbeddingStore, k: int, retriever: Optional[RetrievalIndex] = None
    ) -> TopKRecommender:
        return TopKRecommender(
            store,
            k=k,
            exclude_observed=self.exclude_observed,
            dataset=self.serving_dataset if self.exclude_observed else None,
            observed_matrix=self._observed_matrix() if self.exclude_observed else None,
            retriever=retriever,
        )

    def warm(self, name: str) -> float:
        """Load ``name`` now; returns the cold-start seconds (0.0 if already resident)."""
        return self._acquire(name)[1]

    def warm_all(self) -> Dict[str, float]:
        """Load every servable model (subject to the LRU budget); name → seconds."""
        return {name: self.warm(name) for name in self.names}

    def evict(self, name: str) -> bool:
        """Release ``name``'s weights and embeddings; returns whether it was resident."""
        with self._lock:
            return self._evict_locked(name)

    def _evict_locked(self, name: str) -> bool:
        if self._retire_locked(name) is None:
            return False
        self.stats.evictions += 1
        self.metrics.record(name, "evictions")
        return True

    def evict_all(self) -> None:
        with self._lock:
            for name in list(self._residents):
                self._evict_locked(name)

    def reload(self, name: str, force: bool = False) -> int:
        """Re-check ``name``'s artifact now; returns the entry's version.

        The escape hatch around every staleness heuristic: with
        ``force=True`` the header is unconditionally re-read and the
        version bumped — even when stat identity *and* content token look
        unchanged — so the next access reloads the bytes from disk.  Use it
        when a publisher bypasses the detectable channels entirely (e.g.
        in-place writes through a cache that preserves CRCs).  Without
        ``force`` this runs the ordinary freshness check (useful to take a
        hot-swap *now* rather than on the next request).

        A name the catalog has never indexed triggers a :meth:`scan` first
        (directory IO outside the catalog lock, like any scan), so
        ``reload`` works as a ``ModelCheckpoint(on_publish=...)`` hook even
        for a model's very first publish into the directory.
        """
        if name not in self:
            self.scan()
        with self._lock:
            entry = self.entry(name)
            if not force:
                self._refresh_entry(entry)
                return entry.version
            info = self._reread_entry(entry)
            entry.info = info
            entry.version += 1
            entry.last_content_check_ns = time.time_ns()
            if self._retire_locked(name) is not None:
                self.stats.reloads += 1
                self.metrics.record(name, "reloads")
            return entry.version

    def _retire_locked(self, name: str) -> Optional[_Resident]:
        """Remove ``name``'s resident and drop its index's cell table (lock held).

        A retired recommender can outlive its residency (the gateway keeps
        the last good one for stale fallback); without the table it pins
        one copy of the item factors, not two, and rebuilds the table only
        if it serves again.
        """
        resident = self._residents.pop(name, None)
        if resident is not None and resident.retriever is not None:
            resident.retriever.release_table()
        return resident

    def _reread_entry(self, entry: CatalogEntry) -> ArtifactInfo:
        """Fresh validated ``ArtifactInfo`` for the entry's path (lock held).

        Drops the entry and raises :class:`CatalogError` when the file on
        disk is gone or no longer servable.
        """
        try:
            info = read_artifact_header(entry.path)
            reason = self._validate(info)
        except (ArtifactError, FileNotFoundError) as error:
            if not entry.path.exists():
                self._vanished(entry)
            info, reason = None, f"{entry.path}: {error}"
        if reason is not None:
            # The replacement is unservable: drop the entry so requests fail
            # loudly instead of silently serving the previous version.
            self._evict_locked(entry.name)
            self.entries.pop(entry.name, None)
            self.rejected[entry.path.name] = reason
            self.metrics.record(entry.name, "errors")
            raise CatalogError(f"hot-swapped artifact is not servable: {reason}")
        return info

    def _vanished(self, entry: CatalogEntry) -> None:
        """Drop a disappeared entry and raise (lock held)."""
        self._evict_locked(entry.name)
        self.entries.pop(entry.name, None)
        self.metrics.record(entry.name, "errors")
        raise CatalogError(
            f"artifact file for {entry.name!r} disappeared: {entry.path} "
            f"(entry dropped; re-publish the artifact or rescan)"
        ) from None

    def _refresh_entry(self, entry: CatalogEntry) -> None:
        """Hot-swap detection (lock held): stat + content token, reload header if replaced."""
        try:
            # artifact_stat: the file itself for npz artifacts, the
            # header.json (rewritten every publish) for dir artifacts.
            stat = artifact_stat(entry.path)
        except FileNotFoundError:
            self._vanished(entry)
        except OSError as error:
            # Transient IO/permission trouble (NFS hiccup, mid-sync EACCES):
            # fail this request but keep the entry — the file is still there.
            raise CatalogError(
                f"artifact file for {entry.name!r} is temporarily unreadable: "
                f"{entry.path} ({error})"
            ) from error
        if (stat.st_size, stat.st_mtime_ns) == (entry.info.size_bytes, entry.info.mtime_ns):
            # Stat identity unchanged — but a same-size replacement within
            # one mtime tick is invisible to stat.  The content token (a
            # digest of member CRCs, no decompression) closes that hole.
            # Reading it on *every* access would put file IO on the
            # steady-state hot path, so it runs only when the swap could
            # actually be hiding:
            # while the file's mtime is recent (a same-tick replacement can
            # only happen inside the still-current tick), or once per grace
            # period as a periodic re-check — which bounds the detection
            # delay for a swap whose first access comes much later (idle
            # tail models) to one grace period instead of "forever".
            now = time.time_ns()
            grace_ns = int(self.content_check_grace_seconds * 1e9)
            if now - stat.st_mtime_ns > grace_ns and now - entry.last_content_check_ns < grace_ns:
                return
            try:
                token = artifact_content_token(entry.path)
            except ArtifactError as error:
                if not entry.path.exists():
                    self._vanished(entry)
                raise CatalogError(
                    f"artifact file for {entry.name!r} is temporarily unreadable: "
                    f"{entry.path} ({error})"
                ) from error
            if token == entry.info.content_token:
                entry.last_content_check_ns = now
                return
        info = self._reread_entry(entry)
        entry.info = info
        entry.version += 1
        entry.last_content_check_ns = time.time_ns()

    def _cold_start(self, name: str, path: Path, version: int) -> Optional[Tuple[EmbeddingStore, float]]:
        """Load ``path`` and register the resident for ``version``.

        Called with the entry's load lock held but *not* the catalog lock —
        the expensive part (artifact read + propagation) must never block
        unrelated requests.  Returns ``None`` when the loaded bytes are
        already outdated (entry swapped again mid-load) so the caller
        retries.
        """
        from ..persist import load_model

        started = time.perf_counter()
        try:
            # Chaos hook: an injected cold-start fault degrades exactly like
            # a real unloadable artifact (dropped entry, typed CatalogError).
            fault_point("catalog.cold_start", name)
            model = load_model(path, self.train_dataset)
        except (ArtifactError, FileNotFoundError, InjectedFaultError) as error:
            # TOCTOU: the freshness check passed, then the file vanished or
            # turned unservable before the weights were read.  Degrade to a
            # dropped entry with a diagnosable CatalogError — never leak
            # FileNotFoundError into a serving request.
            with self._lock:
                self._evict_locked(name)
                self.entries.pop(name, None)
                self.metrics.record(name, "errors")
                if path.exists():
                    self.rejected[path.name] = f"{path}: {error}"
            if not path.exists():
                raise CatalogError(
                    f"artifact file for {name!r} disappeared: {path} "
                    f"(entry dropped; re-publish the artifact or rescan)"
                ) from error
            raise CatalogError(
                f"artifact for {name!r} became unloadable during cold start: {error}"
            ) from error
        try:
            store = EmbeddingStore(model)
            store.refresh()
            # Retrieval-index and cell-table construction are part of the
            # cold start: they run here, outside the catalog lock (and off
            # the request path when a CatalogWarmer drives warming), and a
            # hot-swap reload — which is a new cold start — therefore
            # rebuilds both for the new bytes.
            retriever = self._build_retriever(store)
        except Exception as error:
            # The artifact loaded, so the entry stays; the failure is typed
            # and counted so a circuit breaker stops the retries.
            self.metrics.record(name, "errors")
            raise CatalogError(
                f"cold start of {name!r} failed after loading its artifact: {error!r}"
            ) from error
        seconds = time.perf_counter() - started
        with self._lock:
            entry = self.entries.get(name)
            if entry is None or entry.version != version:
                return None  # swapped again while loading; retry with new bytes
            entry.last_cold_start_seconds = seconds
            self.stats.cold_starts += 1
            self.metrics.record_cold_start(name, seconds)
            self._residents[name] = _Resident(store=store, version=version, retriever=retriever)
            self._residents.move_to_end(name)
            self._enforce_budget(keep=name)
        return store, seconds

    def _build_retriever(self, store: EmbeddingStore) -> Optional[RetrievalIndex]:
        """The resident's retrieval index per :attr:`retrieval` policy (or None).

        Built from the served item factors, through the module-level
        ``build_index_for_model`` that perfbench's ``retrieval.build`` span
        patches.  The index's cell table is built here too, so the first
        request does not pay for it.
        """
        policy = self.retrieval
        if policy is None or store.model.num_items < policy.min_items:
            return None
        factors = store.scoring_factors()
        if factors is None:
            return None
        index = build_index_for_model(
            store.model, num_cells=policy.num_cells, nprobe=policy.nprobe, seed=policy.seed
        )
        index.cell_table(factors[1], store.model.factor_version)
        return index

    def _enforce_budget(self, keep: str) -> None:
        if self.resident_budget is None:
            return
        while len(self._residents) > self.resident_budget:
            victim = next(name for name in self._residents if name != keep)
            self._evict_locked(victim)

    def _build_observed_matrix(self) -> sp.csr_matrix:
        dataset = self.serving_dataset
        return observed_item_matrix(
            dataset.user_item_set(include_participants=True),
            dataset.num_users,
            dataset.num_items,
        )

    def _observed_matrix(self) -> sp.csr_matrix:
        return self._observed

    def __repr__(self) -> str:
        budget = "unbounded" if self.resident_budget is None else str(self.resident_budget)
        return (
            f"ModelCatalog({self.directory}, models={self.names}, "
            f"resident={self.resident_names}, budget={budget})"
        )
