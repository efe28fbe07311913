"""The :class:`ServingGateway`: one front door for a catalog of models.

The gateway is the request-routing layer on top of a
:class:`~repro.serving.catalog.ModelCatalog`.  It adds what a multi-model
deployment needs beyond "give me model X":

* **named routing** — every scoring / top-k request names a catalog model
  (or falls back to the gateway's default), and the underlying
  per-model :class:`~repro.serving.topk.TopKRecommender` is reused across
  requests instead of rebuilt;
* **weighted traffic splits** — :class:`TrafficSplit` deterministically
  buckets users into variants by hash (sticky: the same user always sees
  the same model for a given split seed), so A/B experiments need no
  session state;
* **mixed-model batching** — a batch whose rows target different models is
  grouped per model and each model computes *one* dense score block for
  all of its rows, instead of one block per request;
* **one request path** — every request, with or without a
  :class:`~repro.serving.resilience.ResiliencePolicy`, runs admission,
  deadline, breaker gate, one attempt at the named model and then the
  degraded fallback chain; without a policy there is simply no admission
  control and no breaker.

Example — route, split, and batch across two artifacts:

>>> import tempfile
>>> import numpy as np
>>> from pathlib import Path
>>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
>>> from repro.models import build_model
>>> from repro.persist import save_model
>>> from repro.serving import ModelCatalog, ServingGateway, TrafficSplit
>>> split = leave_one_out_split(generate_dataset(
...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
>>> directory = Path(tempfile.mkdtemp())
>>> for spec in ("MF", "ItemPop"):
...     _ = save_model(build_model(spec, split.train), directory / f"{spec.lower()}.npz")
>>> gateway = ServingGateway(ModelCatalog(directory, split.train), default_model="mf")
>>> users = np.arange(8)
>>> gateway.top_k(users, k=3).items.shape      # routed to the default model
(8, 3)
>>> ab = gateway.top_k_split(TrafficSplit({"mf": 0.5, "itempop": 0.5}, seed=1), users, k=3)
>>> sorted(set(ab.models))                     # both variants served this batch
['itempop', 'mf']
>>> mixed = gateway.top_k_mixed([("mf", 3), ("itempop", 3), ("mf", 5)], k=3)
>>> mixed.models
['mf', 'itempop', 'mf']
>>> bool(np.array_equal(mixed.users, np.asarray([3, 3, 5])))
True
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..persist.errors import ArtifactError
from .catalog import CatalogError, ModelCatalog
from .errors import (
    CircuitOpenError,
    DeadlineExceededError,
    OverloadedError,
    validate_user_ids,
)
from .faults import InjectedFaultError, fault_point
from .metrics import MetricsRegistry
from .resilience import (
    ADMIT_ALLOW,
    ADMIT_PROBE,
    ADMIT_REJECT,
    CircuitBreaker,
    Deadline,
    ResiliencePolicy,
    ResilienceState,
    request_deadline,
)
from .topk import TopKResult

__all__ = ["TrafficSplit", "GatewayResult", "ServingGateway"]

#: Exceptions that indicate the *model* (artifact, cold start, injected
#: fault, IO) failed — the ones a circuit breaker should count.  Client
#: faults (``ServingError``) and resilience outcomes (deadline, shed) are
#: deliberately absent: they say nothing about the model's health.
_MODEL_FAULTS = (CatalogError, ArtifactError, InjectedFaultError, OSError)


def _noop_release() -> None:
    """Stands in for an admission release when no policy is configured."""


def _hash_unit_interval(users: np.ndarray, seed: int) -> np.ndarray:
    """Deterministic per-user points in ``[0, 1)`` (SplitMix64 finalizer).

    Stable across processes and numpy versions — unlike ``np.random`` —
    so a user's A/B assignment never changes between serving restarts.
    """
    with np.errstate(over="ignore"):
        x = users.astype(np.uint64) + np.uint64(seed) * np.uint64(0x9E3779B97F4A7C15)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    return x.astype(np.float64) / float(2**64)


class TrafficSplit:
    """A weighted, sticky assignment of users to model variants.

    ``weights`` maps catalog model names to non-negative weights (any
    scale; they are normalized).  Assignment hashes the user id with the
    split's ``seed``: deterministic, stateless, and independent across
    seeds — two concurrent experiments with different seeds decorrelate.

    Zero-weight arms are legal (the idiomatic way to ramp a variant down
    to 0% without rewriting call sites) and receive **exactly** zero
    traffic: they are excluded from the bucket edges entirely, so not even
    the floating-point boundary at hash 1.0 can route a user to a
    zero-weight model.

    >>> split = TrafficSplit({"control": 0.8, "treatment": 0.2}, seed=7)
    >>> import numpy as np
    >>> assignments = split.assign(np.arange(1000))
    >>> bool(0.75 < np.mean(assignments == "control") < 0.85)
    True
    >>> bool((split.assign(np.arange(1000)) == assignments).all())  # sticky
    True
    >>> ramped_down = TrafficSplit({"control": 1.0, "treatment": 0.0}, seed=7)
    >>> bool((ramped_down.assign(np.arange(1000)) == "control").all())
    True
    """

    def __init__(self, weights: Mapping[str, float], seed: int = 0) -> None:
        if not weights:
            raise ValueError("a traffic split needs at least one model")
        total = float(sum(weights.values()))
        if total <= 0 or any(weight < 0 for weight in weights.values()):
            raise ValueError(f"weights must be non-negative with a positive sum, got {dict(weights)}")
        self.models: List[str] = list(weights)
        self.weights = {name: float(weight) / total for name, weight in weights.items()}
        self.seed = seed
        # Only positive-weight arms own an interval.  Keeping zero-weight
        # arms out of the edges is what makes "exactly zero traffic" hold:
        # with them in, the fp guard clamping bucket == len(edges) down to
        # the last arm could hand the hash ≈ 1.0 boundary to a 0% model.
        self._active: List[str] = [name for name in self.models if self.weights[name] > 0.0]
        self._edges = np.cumsum([self.weights[name] for name in self._active])

    def assign(self, users: np.ndarray) -> np.ndarray:
        """Model name per user (object array aligned with ``users``)."""
        users = np.asarray(users, dtype=np.int64)
        buckets = np.searchsorted(self._edges, _hash_unit_interval(users, self.seed), side="right")
        buckets = np.minimum(buckets, len(self._active) - 1)  # guard fp edge at 1.0
        return np.asarray(self._active, dtype=object)[buckets]

    def __repr__(self) -> str:
        shares = ", ".join(f"{name}={share:.0%}" for name, share in self.weights.items())
        return f"TrafficSplit({shares}, seed={self.seed})"


@dataclass(frozen=True)
class GatewayResult:
    """Per-request recommendation lists from a multi-model batch.

    Row ``i`` answers request ``i``: ``models[i]`` served ``users[i]`` and
    produced ``items[i]`` / ``scores[i]`` (padded with -1 / ``-inf`` like
    :class:`~repro.serving.topk.TopKResult`).
    """

    users: np.ndarray
    models: List[str]
    items: np.ndarray
    scores: np.ndarray

    def for_request(self, index: int) -> np.ndarray:
        """Recommended items of request ``index`` (padding stripped)."""
        items = self.items[index]
        return items[items >= 0]


class ServingGateway:
    """Routes scoring and top-k traffic onto a :class:`ModelCatalog`.

    ``default_model`` answers requests that name no model; per-model
    recommenders (and their LRU residency) live in the catalog, so every
    gateway sharing a catalog shares warm models.  Thread-safe: requests
    may arrive from any number of threads.  The gateway itself owns no
    lock; the catalog, the metrics registry and the resilience state each
    serialize their own.

    Every request takes one path (:meth:`_serve`): admission, entry
    deadline, breaker gate, one :meth:`_attempt` at the named model, then
    the fallback chain (top-k) or a typed failure (raw scores).  Without
    a :class:`~repro.serving.resilience.ResiliencePolicy` the same path
    runs with no admission control and no breakers.

    Observability: every request's row count and latency land in
    :attr:`metrics` — a :class:`~repro.serving.metrics.MetricsRegistry`
    shared with the catalog by default, so one ``metrics.snapshot()``
    covers routing, latency percentiles, cold starts, reloads and
    evictions together.  Per-model ``rows_served`` is the tally A/B
    analysis reads.  ``request_latency`` times the score call alone, with
    or without a policy; a cold start lands in ``cold_start_latency``.
    ``errors`` is the gateway's: one per request that fails on a model
    fault or an unavailable model, none for a request a fallback serves;
    the catalog raises typed errors and counts none.
    """

    def __init__(
        self,
        catalog: ModelCatalog,
        default_model: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        policy: Optional[ResiliencePolicy] = None,
        record_deadline_metrics: bool = True,
    ) -> None:
        if default_model is not None:
            catalog.entry(default_model)  # fail fast on typos
        self.catalog = catalog
        self.default_model = default_model
        self.metrics = metrics if metrics is not None else catalog.metrics
        # ``record_deadline_metrics=False`` suppresses this gateway's own
        # ``deadline_exceeded`` counting (deadlines are still *enforced*).
        # The WorkerPool sets it for its worker-side gateways: the parent
        # owns the pool's deadline counter, so a request whose deadline
        # expires mid-serve inside a worker is counted exactly once
        # fleet-wide instead of once by the worker and once by the parent.
        self._record_deadline_metrics = record_deadline_metrics
        self._policy = policy
        # ``resilience`` is None without a policy: requests then skip
        # admission and breakers, though deadlines still work.
        self.resilience = ResilienceState(policy) if policy is not None else None

    def _resolve(self, model: Optional[str]) -> str:
        if model is not None:
            return model
        if self.default_model is None:
            raise ValueError(
                "request names no model and the gateway has no default_model; "
                f"catalog serves {self.catalog.names}"
            )
        return self.default_model

    # ------------------------------------------------------------------
    # Resilience plumbing
    # ------------------------------------------------------------------
    def _count_deadline(self, name: str) -> None:
        """Record a deadline expiry — unless the pool parent owns the counter."""
        if self._record_deadline_metrics:
            self.metrics.record(name, "deadline_exceeded")

    def _check_deadline(self, name: str, deadline: Optional[Deadline], where: str) -> None:
        """Typed, *counted* deadline enforcement at a request milestone."""
        if deadline is not None and deadline.expired:
            self._count_deadline(name)
            raise DeadlineExceededError(f"deadline exceeded {where} for model {name!r}")

    def _admit(self, name: str) -> Callable[[], None]:
        """Admission-control gate; a shed is counted before it raises."""
        if self.resilience is None:
            return _noop_release
        try:
            return self.resilience.admission.acquire(name)
        except OverloadedError:
            self.metrics.record(name, "sheds")
            raise

    def _entry_version(self, name: str) -> int:
        try:
            return self.catalog.entry(name).version
        except Exception:  # noqa: BLE001 — version is diagnostic only
            return -1

    # ------------------------------------------------------------------
    # Single-model entry points
    # ------------------------------------------------------------------
    def top_k(
        self,
        users: np.ndarray,
        k: Optional[int] = None,
        model: Optional[str] = None,
        deadline=None,
    ) -> TopKResult:
        """Top-k lists for ``users`` from one catalog model (or the default).

        User IDs are validated at this boundary: anything outside
        ``[0, num_users)`` raises a typed
        :class:`~repro.serving.errors.ServingError` naming the model and
        the offending IDs, instead of wrapping around (negative IDs) or
        surfacing a raw ``IndexError`` from deep in the score path.

        ``deadline`` — seconds (a float) or a
        :class:`~repro.serving.resilience.Deadline` — bounds the whole
        request: gateway entry, any cold-start wait, and the scoring
        itself all check it, and an expired request fails with a typed
        :class:`~repro.serving.errors.DeadlineExceededError` rather than
        blocking.  When the gateway was built with a
        :class:`~repro.serving.resilience.ResiliencePolicy`, requests are
        additionally subject to admission control
        (:class:`~repro.serving.errors.OverloadedError`), per-model
        circuit breakers, and the degraded fallback chain (last-good
        resident version, then ``policy.fallback_models``); every shed,
        deadline miss, breaker trip and fallback serve is counted in
        :attr:`metrics`.
        """
        name = self._resolve(model)
        users = validate_user_ids(users, self.catalog.num_users, model=name)
        return self._serve_top_k(name, users, k, request_deadline(deadline, self._policy))

    def scores(
        self,
        users: np.ndarray,
        item_ids: np.ndarray,
        model: Optional[str] = None,
        deadline=None,
    ) -> np.ndarray:
        """Raw ``(users, items)`` score block from one catalog model.

        Deadlines, admission control and the per-model breaker apply as
        in :meth:`top_k`, but raw score blocks have **no fallback
        chain** — a stale or substitute model's raw scores are not
        interchangeable the way top-k lists are, so an open breaker fails
        fast with :class:`~repro.serving.errors.CircuitOpenError`.
        """
        name = self._resolve(model)
        users = validate_user_ids(users, self.catalog.num_users, model=name)
        deadline = request_deadline(deadline, self._policy)
        item_ids = np.asarray(item_ids, dtype=np.int64)
        return self._serve(
            name, int(users.size), deadline, self.catalog.store,
            lambda store: store.scores(users, item_ids), fallback=False,
        )

    def _serve_top_k(
        self, name: str, users: np.ndarray, k: Optional[int], deadline: Optional[Deadline]
    ) -> TopKResult:
        return self._serve(
            name, int(users.size), deadline, self.catalog.recommender,
            lambda recommender: recommender.recommend(users, k=k), fallback=True,
        )

    def _serve(
        self,
        name: str,
        rows: int,
        deadline: Optional[Deadline],
        acquire: Callable,
        serve: Callable,
        fallback: bool,
    ):
        """One request for model ``name``: the gateway's single request path.

        Order of defenses: admission (shed fast) → deadline at entry →
        breaker gate → primary :meth:`_attempt` → on a model fault or an
        open breaker, the fallback chain when ``fallback`` (top-k lists)
        or a typed failure (raw score blocks).  Without a policy there is
        no breaker, so a model fault is counted and re-raised.  A request
        that finishes *after* its deadline still fails typed — "result or
        typed error within the deadline" is the invariant the chaos suite
        asserts, with no silent late answers.
        """
        release = self._admit(name)
        try:
            self._check_deadline(name, deadline, "at gateway entry")
            breaker = self.resilience.breaker(name) if self.resilience is not None else None
            verdict = breaker.admit() if breaker is not None else ADMIT_ALLOW
            primary_error: Optional[BaseException] = None
            if verdict != ADMIT_REJECT:
                try:
                    model, result, seconds = self._attempt(
                        name, name, breaker, verdict == ADMIT_PROBE, deadline, acquire, serve
                    )
                except _MODEL_FAULTS as error:
                    if breaker is None or not fallback:
                        self.metrics.record(name, "errors")
                        raise
                    primary_error = error
                else:
                    if fallback and breaker is not None:
                        self.resilience.remember_last_good(name, self._entry_version(name), model)
                    self._check_deadline(name, deadline, "after scoring")
                    self.metrics.record_request(name, rows, seconds)
                    return result
            if fallback:
                return self._fallback(name, rows, deadline, serve, primary_error)
            self.metrics.record(name, "errors")
            raise CircuitOpenError(
                f"breaker for model {name!r} is {breaker.state} and raw score "
                f"blocks have no fallback chain"
            )
        finally:
            release()

    def _attempt(
        self,
        requested: str,
        target: str,
        breaker: Optional[CircuitBreaker],
        probing: bool,
        deadline: Optional[Deadline],
        acquire: Callable,
        serve: Callable,
    ) -> Tuple[object, object, float]:
        """Try model ``target`` once for a request naming ``requested``.

        Fires the ``gateway.score`` fault hook, gets the model from the
        catalog with ``acquire`` (a cold start honors ``deadline``) and
        times only ``serve(model)``; returns ``(model, result, seconds)``.
        A claimed half-open probe (``probing``) owes its breaker a verdict
        on *every* exit, or the breaker wedges half-open until its own leak
        backstop fires (resilience module):

        * a deadline miss is a failed probe — the very slowness that
          opened the breaker — and counts against ``requested``;
        * a model fault charges the breaker and is re-raised;
        * any other exception (client error, interrupt) hands the probe
          slot back;
        * success closes the loop before any deadline enforcement: the
          model is healthy even if the request is late.
        """
        try:
            fault_point("gateway.score", target)
            model = acquire(target, deadline=deadline)
            started = time.perf_counter()
            result = serve(model)
            seconds = time.perf_counter() - started
        except DeadlineExceededError:
            if probing and breaker.record_failure():
                self.metrics.record(target, "breaker_opens")
            self._count_deadline(requested)
            raise
        except _MODEL_FAULTS:
            if breaker is not None and breaker.record_failure():
                self.metrics.record(target, "breaker_opens")
            raise
        except BaseException:
            if probing:
                breaker.release_probe()
            raise
        if breaker is not None:
            breaker.record_success()
        return model, result, seconds

    def _fallback(
        self,
        name: str,
        rows: int,
        deadline: Optional[Deadline],
        serve: Callable,
        primary_error: Optional[BaseException],
    ) -> TopKResult:
        """The degraded chain: last-good resident version, then cheap models.

        Every fallback serve is counted against the *primary* model
        (``fallbacks_served``) — the model that needed rescuing — while
        rows and latency land on the model that actually served.  The
        stale serve fires no fault hook and meets no breaker.  A fallback
        model is one more :meth:`_attempt` behind its own breaker, and it
        books that model's *per-model* admission share (the total-budget
        slot is already held under the primary), so
        ``max_inflight_per_model`` meters the fallback's real concurrency
        during an outage; a fallback whose own budget is full is skipped,
        not shed.  When the chain is exhausted the request fails with a
        typed :class:`~repro.serving.errors.CircuitOpenError` naming
        everything that was tried, chained to the primary failure.
        """
        state = self.resilience
        tried: List[str] = []
        stale = state.last_good(name) if state.policy.serve_stale_on_failure else None
        if stale is not None:
            version, recommender = stale
            label = f"last-good {name!r} v{version}"
            try:
                started = time.perf_counter()
                result = serve(recommender)
                seconds = time.perf_counter() - started
            except Exception as error:  # noqa: BLE001 — fall through the chain
                tried.append(f"{label} (failed: {error})")
            else:
                self.metrics.record(name, "fallbacks_served")
                self._check_deadline(name, deadline, f"after {label}")
                self.metrics.record_request(name, rows, seconds)
                return result
        for fallback_name in state.policy.fallback_models:
            if fallback_name == name:
                continue
            label = f"fallback model {fallback_name!r}"
            breaker = state.breaker(fallback_name)
            verdict = breaker.admit()
            if verdict == ADMIT_REJECT:
                tried.append(f"{label} (breaker {breaker.state})")
                continue
            probing = verdict == ADMIT_PROBE
            try:
                release = state.admission.acquire(fallback_name, count_total=False)
            except OverloadedError:
                if probing:
                    breaker.release_probe()
                tried.append(f"{label} (per-model budget full)")
                continue
            try:
                model, result, seconds = self._attempt(
                    name, fallback_name, breaker, probing, deadline, self.catalog.recommender, serve
                )
            except _MODEL_FAULTS as error:
                tried.append(f"{label} (failed: {error})")
            else:
                state.remember_last_good(fallback_name, self._entry_version(fallback_name), model)
                self.metrics.record(name, "fallbacks_served")
                self._check_deadline(name, deadline, f"after {label}")
                self.metrics.record_request(fallback_name, rows, seconds)
                return result
            finally:
                release()
        self.metrics.record(name, "errors")
        detail = "; tried " + ", ".join(tried) if tried else "; no fallbacks configured"
        raise CircuitOpenError(
            f"model {name!r} unavailable (breaker {state.breaker(name).state}){detail}"
        ) from primary_error

    # ------------------------------------------------------------------
    # Multi-model entry points
    # ------------------------------------------------------------------
    def top_k_split(
        self, split: TrafficSplit, users: np.ndarray, k: Optional[int] = None, deadline=None
    ) -> GatewayResult:
        """A/B-serve ``users``: assign each to a variant, score grouped per model."""
        users = np.asarray(users, dtype=np.int64)
        models = [str(name) for name in split.assign(users)]
        return self._grouped_top_k(users, models, k, request_deadline(deadline, self._policy))

    def top_k_mixed(
        self, requests: Sequence[Tuple[str, int]], k: Optional[int] = None, deadline=None
    ) -> GatewayResult:
        """Serve a batch of ``(model_name, user)`` requests, grouped per model.

        All rows targeting the same model are answered by a single
        ``recommend`` call (one dense score block per model, not per row);
        results come back aligned with ``requests``.
        """
        if not requests:
            raise ValueError("top_k_mixed needs at least one (model, user) request")
        models = [name for name, _ in requests]
        users = np.asarray([user for _, user in requests], dtype=np.int64)
        return self._grouped_top_k(users, models, k, request_deadline(deadline, self._policy))

    def _grouped_top_k(
        self,
        users: np.ndarray,
        models: List[str],
        k: Optional[int],
        deadline: Optional[Deadline] = None,
    ) -> GatewayResult:
        if not models:
            width = self.catalog.default_k if k is None else k
            empty = np.zeros((0, width), dtype=np.int64)
            return GatewayResult(users=users, models=[], items=empty, scores=empty.astype(np.float64))
        # Validate every name before scoring anything: a bad row should fail
        # the batch up front, not after half the models already computed.
        for name in dict.fromkeys(models):
            self.catalog.entry(name)
        order = {}
        for index, name in enumerate(models):
            order.setdefault(name, []).append(index)
        # Same up-front rule for user IDs: reject the whole batch (naming
        # the model whose rows are bad) before any model scores.
        for name, indices in order.items():
            validate_user_ids(users[np.asarray(indices, dtype=np.int64)], self.catalog.num_users, model=name)
        items_out: Optional[np.ndarray] = None
        scores_out: Optional[np.ndarray] = None
        group_errors: List[Tuple[str, Exception]] = []
        for name, indices in order.items():
            rows = np.asarray(indices, dtype=np.int64)
            # Each model group runs the full resilience flow independently,
            # and every group is *attempted* even when an earlier group
            # failed: per-model counters always reflect exactly one attempt
            # per group, instead of skewing toward whichever groups happened
            # to be ordered first.  If any group failed, the batch raises
            # the first group's error after all groups ran — the served
            # groups' results are discarded, but their serve was real and
            # stays counted.  A deadline expiry is the exception: once the
            # request's budget is gone every remaining group would fail the
            # same way, so it aborts the batch immediately.
            try:
                result = self._serve_top_k(name, users[rows], k, deadline)
            except DeadlineExceededError:
                raise
            except Exception as error:  # noqa: BLE001 — typed per-group failure
                group_errors.append((name, error))
                continue
            if items_out is None:
                width = result.items.shape[1]
                items_out = np.full((len(models), width), -1, dtype=np.int64)
                scores_out = np.full((len(models), width), -np.inf, dtype=np.float64)
            items_out[rows] = result.items
            scores_out[rows] = result.scores
        if group_errors:
            raise group_errors[0][1]
        assert items_out is not None and scores_out is not None
        return GatewayResult(users=users, models=models, items=items_out, scores=scores_out)

    def __repr__(self) -> str:
        return (
            f"ServingGateway(default={self.default_model!r}, "
            f"models={self.catalog.names}, resilience={self.resilience is not None})"
        )
