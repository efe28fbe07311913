"""Multi-process serving tier: a pool of gateway worker processes.

One Python process can only push numpy's GIL-free matmuls so far; the
next scaling axis is processes.  :class:`WorkerPool` runs N **spawn**-
context worker processes, each owning a full single-process serving stack
(:class:`~repro.serving.catalog.ModelCatalog` +
:class:`~repro.serving.gateway.ServingGateway`) over one shared artifact
directory.  Publish ``layout="dir"`` artifacts
(:func:`repro.persist.save_model`) into that directory and every worker
memory-maps the same weight files — one page-cache copy for the whole
fleet instead of N private heaps.

Design notes:

* **spawn, not fork.**  Workers are started from a clean interpreter, so
  they inherit no locks, no daemon threads, and no partially-initialized
  serving state.  (The ``fork`` path is *also* made safe by
  :mod:`repro.serving.forksafe` — but safety-after-fork is a recovery
  mechanism, not an architecture.)
* **Per-worker queues in both directions — no lock shared between
  siblings.**  Every ``multiprocessing`` queue hides an IPC lock, and a
  worker SIGKILLed while holding one (mid-``put`` on a reply, or parked
  in ``get`` — which holds the reader lock *while waiting*) leaves that
  lock held forever.  With a shared reply queue one crash therefore
  wedges the whole fleet; with per-worker queues a crash can only
  corrupt the dead worker's own pair.  The parent round-robins requests
  to per-worker request queues (so it always knows which worker owns
  which request) and waits on all reply-queue pipes at once via
  ``multiprocessing.connection.wait`` — the same pattern
  ``concurrent.futures.process`` uses.
* **Crash respawn replaces the queues, not just the process.**  A
  crashed worker is detected (its process dies) and its slot gets a
  fresh process *and* fresh queues (the old pair may hold dead locks or
  half-written pickles); everything outstanding on the slot — taken or
  still queued — is resubmitted under new request ids.  A request whose
  resubmission *also* crashes the replacement is declared poison and
  fails with :class:`WorkerCrashError` instead of crash-looping the
  slot; duplicate replies after a resubmission race are ignored.
* **Fleet-wide metrics.**  Each worker snapshots its own
  :class:`~repro.serving.metrics.MetricsRegistry`;
  :meth:`WorkerPool.fleet_metrics` merges them through the histograms'
  raw bucket counts (:meth:`MetricsRegistry.merge_snapshots`), so the
  pool reports one true p50/p95/p99, not an average of averages.

Usage (see also ``examples/serving_workers.py``) — publish mmap-able
artifacts, start the pool, serve, read one fleet-wide metrics view:

>>> import tempfile
>>> import numpy as np
>>> from pathlib import Path
>>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
>>> from repro.models import build_model
>>> from repro.persist import save_model
>>> from repro.serving import WorkerPool
>>> split = leave_one_out_split(generate_dataset(
...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
>>> directory = Path(tempfile.mkdtemp())
>>> _ = save_model(build_model("MF", split.train), directory / "mf.npyd", layout="dir")
>>> with WorkerPool(directory, split.train, workers=2, default_model="mf") as pool:
...     result = pool.top_k(np.arange(4), k=3)
...     fleet = pool.fleet_metrics()
>>> result.items.shape
(4, 3)
>>> fleet["workers"], fleet["totals"]["requests"]
(2, 1)

The parent-side API is intentionally synchronous and serialized (one
internal lock): the pool is a throughput device — parallelism comes from
the workers overlapping *execution*, pipelined via :meth:`top_k_many` —
not a concurrency device for parent threads.

``simulate_io_seconds`` makes every worker sleep that long per request
before scoring.  It exists for load testing: it emulates a downstream
stall (feature-store fetch, remote storage read) that a real deployment
would have, which is exactly the component of request time that worker
processes overlap.  The scaling benchmark records curves with and
without it, labeled as such; it is never on by default.
"""

from __future__ import annotations

import multiprocessing
import multiprocessing.connection
import threading
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..data.dataset import GroupBuyingDataset
from . import forksafe
from .errors import DeadlineExceededError, OverloadedError
from .faults import FaultPlan
from .metrics import MetricsRegistry
from .resilience import Deadline, ResiliencePolicy, request_deadline
from .topk import TopKResult

__all__ = ["WorkerPool", "WorkerPoolError", "WorkerCrashError"]


class WorkerPoolError(RuntimeError):
    """The pool cannot serve: startup failure, shutdown state, or timeout."""


class WorkerCrashError(WorkerPoolError):
    """A worker process died and the request could not be completed."""


@dataclass
class _WorkerConfig:
    """Everything a spawn worker needs to build its serving stack (picklable)."""

    directory: str
    dataset: GroupBuyingDataset
    default_model: Optional[str]
    default_k: int
    resident_budget: Optional[int]
    warm: bool
    simulate_io_seconds: float
    policy: Optional[ResiliencePolicy] = None
    fault_plan: Optional[FaultPlan] = None


def _worker_main(index: int, config: _WorkerConfig, request_queue, reply_queue) -> None:
    """Worker process body: build a serving stack, answer until sentinel.

    Module-level (not a closure) because the spawn context imports and
    pickles it.  Every reply is tagged: lifecycle messages carry the
    worker index, request replies carry the request id.
    """
    from .catalog import ModelCatalog
    from .faults import fault_point, install_plan
    from .gateway import ServingGateway

    try:
        catalog = ModelCatalog(
            config.directory,
            config.dataset,
            default_k=config.default_k,
            resident_budget=config.resident_budget,
        )
        gateway = ServingGateway(
            catalog,
            default_model=config.default_model,
            policy=config.policy,
            # The parent owns the pool's deadline_exceeded counter: it
            # counts every expiry exactly once when it raises — whether it
            # noticed the expiry itself or a worker's typed reply told it.
            # The worker gateway still *enforces* deadlines, silently.
            record_deadline_metrics=False,
        )
        if config.warm:
            catalog.warm_all()
        reply_queue.put(("ready", index, list(catalog.names)))
    except BaseException:
        reply_queue.put(("init_error", index, traceback.format_exc()))
        return
    # The fault plan arms only after startup succeeded: chaos targets the
    # *serving* phase deterministically, not a racy mix with warm-up IO.
    if config.fault_plan is not None:
        install_plan(config.fault_plan)
    while True:
        message = request_queue.get()
        if message is None:
            reply_queue.put(("stopped", index, None))
            return
        kind, rid, payload = message
        try:
            # Chaos hook: "error" rules reply typed, "stall" rules emulate
            # a hung worker (the parent's deadline/timeout must cope), and
            # "kill" rules SIGKILL this process mid-request (the parent's
            # crash respawn must cope).
            fault_point("worker.request", kind)
            if kind == "top_k":
                users, k, model, deadline = payload
                if deadline is not None and deadline.expired:
                    # The parent has abandoned (or is about to abandon)
                    # this request; reply typed without the cost of a
                    # pointless serve.  The parent owns the deadline
                    # counter, so the fleet view counts it exactly once.
                    raise DeadlineExceededError(
                        "deadline expired before the worker dequeued the request"
                    )
                if config.simulate_io_seconds > 0.0:
                    # Emulated downstream stall (see module docstring).
                    time.sleep(config.simulate_io_seconds)
                result = gateway.top_k(np.asarray(users), k=k, model=model, deadline=deadline)
                reply_queue.put(("result", rid, result))
            elif kind == "metrics":
                reply_queue.put(("metrics", rid, gateway.metrics.snapshot()))
            else:
                reply_queue.put(("error", rid, ValueError(f"unknown request kind {kind!r}")))
        except Exception as error:
            reply_queue.put(("error", rid, error))


class _WorkerHandle:
    """Parent-side bookkeeping for one worker slot.

    The slot outlives any single process: a crash replaces ``process``
    *and* both queues (module docstring), but the slot keeps its index,
    its respawn count, and its place in the round-robin.
    """

    __slots__ = ("index", "process", "request_queue", "reply_queue", "respawns", "stopped")

    def __init__(self, index: int, request_queue, reply_queue) -> None:
        self.index = index
        self.process = None
        self.request_queue = request_queue
        self.reply_queue = reply_queue
        self.respawns = 0
        self.stopped = False


class WorkerPool:
    """N spawn-context serving processes over one artifact directory.

    Parameters mirror the single-process stack where they overlap:
    ``directory``/``dataset``/``default_model``/``default_k``/
    ``resident_budget`` are forwarded to each worker's
    :class:`~repro.serving.catalog.ModelCatalog` and
    :class:`~repro.serving.gateway.ServingGateway`.  Pool-specific knobs:

    ``workers``
        Process count.  On a machine with C cores, CPU-bound throughput
        tops out near C workers; IO-stalled workloads scale past it.
    ``warm``
        Cold-start every model during worker startup (default), so the
        first request never pays a load.
    ``start_timeout`` / ``request_timeout``
        Seconds to wait for all workers to report ready / for one
        request's reply before raising :class:`WorkerPoolError`.
    ``max_respawns``
        Per-slot crash budget.  A dying worker is replaced and its
        in-flight requests are resubmitted; a slot that keeps dying
        exhausts the budget and the pool fails loudly.
    ``simulate_io_seconds``
        Per-request emulated downstream stall inside each worker — load
        testing only (module docstring).

    The pool is a context manager: ``with WorkerPool(...) as pool:``
    starts the workers and guarantees :meth:`stop` on exit.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        dataset: GroupBuyingDataset,
        *,
        workers: int = 2,
        default_model: Optional[str] = None,
        default_k: int = 10,
        resident_budget: Optional[int] = None,
        warm: bool = True,
        start_timeout: float = 120.0,
        request_timeout: float = 60.0,
        max_respawns: int = 3,
        simulate_io_seconds: float = 0.0,
        policy: Optional[ResiliencePolicy] = None,
        max_inflight: Optional[int] = None,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be at least 1, got {workers}")
        if simulate_io_seconds < 0.0:
            raise ValueError(f"simulate_io_seconds must be >= 0, got {simulate_io_seconds}")
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1 (or None), got {max_inflight}")
        self.directory = Path(directory)
        self.workers = workers
        self.start_timeout = float(start_timeout)
        self.request_timeout = float(request_timeout)
        self.max_respawns = max_respawns
        #: Parent-side queue-depth budget: more than this many outstanding
        #: requests (pipelined via :meth:`top_k_many`) sheds the excess
        #: with a typed ``OverloadedError`` instead of queueing unboundedly.
        self.max_inflight = max_inflight
        #: Parent-side registry: sheds at the pool boundary, plus *every*
        #: deadline expiry — the parent owns the pool's deadline counter
        #: (worker gateways enforce deadlines without counting them), so
        #: the fleet view counts each expired request exactly once.
        #: Folded into :meth:`fleet_metrics`.
        self.metrics = MetricsRegistry()
        self._config = _WorkerConfig(
            directory=str(self.directory),
            dataset=dataset,
            default_model=default_model,
            default_k=default_k,
            resident_budget=resident_budget,
            warm=warm,
            simulate_io_seconds=float(simulate_io_seconds),
            policy=policy,
            fault_plan=fault_plan,
        )
        self._ctx = multiprocessing.get_context("spawn")
        self._handles: List[_WorkerHandle] = []
        # rid -> (kind, payload, worker_index, resubmissions)
        self._outstanding: Dict[int, Tuple[str, Any, int, int]] = {}
        self._replies: Dict[int, Tuple[str, Any]] = {}
        self._next_rid = 0
        self._round_robin = 0
        self._started = False
        self._stopped = False
        #: Total successful worker respawns after crashes (observability).
        self.respawns = 0
        #: Exit codes recorded by :meth:`stop`, by worker slot.
        self.exit_codes: Dict[int, Optional[int]] = {}
        #: Model names reported by the first ready worker.
        self.model_names: List[str] = []
        # One lock serializes the parent-side API (class docstring).
        self._api_lock = threading.Lock()
        forksafe.protect(self)

    def _reinit_after_fork_in_child(self) -> None:
        # A fork mid-call copies a held _api_lock into the child.  Replace
        # it so the child's API does not deadlock — the worker *processes*
        # remain children of the original parent (a forked copy can submit
        # requests over the inherited queues but must leave lifecycle
        # management to the parent that spawned them).
        self._api_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def _new_handle(self, index: int) -> _WorkerHandle:
        # Requests ride a full Queue (the parent-side feeder thread makes
        # put() non-blocking even if the worker stops draining); replies
        # ride a SimpleQueue (no feeder thread in the worker, and its pipe
        # can be multiplexed through ``multiprocessing.connection.wait``).
        return _WorkerHandle(index, self._ctx.Queue(), self._ctx.SimpleQueue())

    def _spawn(self, handle: _WorkerHandle) -> None:
        handle.process = self._ctx.Process(
            target=_worker_main,
            args=(handle.index, self._config, handle.request_queue, handle.reply_queue),
            name=f"repro-serving-worker-{handle.index}",
            daemon=True,
        )
        handle.process.start()

    def _discard_queues(self, handle: _WorkerHandle) -> None:
        """Abandon a dead worker's queue pair (their locks may be held forever)."""
        handle.request_queue.cancel_join_thread()
        handle.request_queue.close()
        handle.reply_queue.close()

    def _poll_replies(self, timeout: float) -> List[Tuple[str, Any, Any]]:
        """Wait up to ``timeout`` for replies on any live worker's queue.

        Returns every message that is ready (at most one per worker per
        call, which keeps collection fair across workers).  An empty list
        means the timeout elapsed — the caller decides whether that is a
        crash to investigate or just a slow request.
        """
        by_reader = {
            handle.reply_queue._reader: handle  # noqa: SLF001 — see below
            for handle in self._handles
            if not handle.stopped
        }
        # Waiting on the underlying pipes (rather than looping over
        # per-queue get(timeout=...) calls, which would cost one full
        # timeout per idle worker) is the standard-library pattern:
        # concurrent.futures.process multiplexes its result queue the
        # same way.
        ready = multiprocessing.connection.wait(list(by_reader), timeout=timeout)
        messages: List[Tuple[str, Any, Any]] = []
        for reader in ready:
            try:
                messages.append(by_reader[reader].reply_queue.get())
            except (EOFError, OSError):  # half-written pickle from a dying worker
                continue
        return messages

    def start(self) -> "WorkerPool":
        """Spawn all workers and wait until every one reports ready."""
        with self._api_lock:
            if self._started:
                raise WorkerPoolError("WorkerPool.start() called twice")
            if self._stopped:
                raise WorkerPoolError("this WorkerPool was stopped; create a new one")
            self._started = True
            for index in range(self.workers):
                handle = self._new_handle(index)
                self._handles.append(handle)
                self._spawn(handle)
            deadline = time.monotonic() + self.start_timeout
            ready = set()
            while len(ready) < self.workers:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    self._stop_locked(timeout=5.0)
                    raise WorkerPoolError(
                        f"only {len(ready)}/{self.workers} workers became ready within "
                        f"{self.start_timeout:.0f}s"
                    )
                messages = self._poll_replies(timeout=min(0.2, remaining))
                if not messages:
                    for handle in self._handles:
                        if handle.index not in ready and not handle.process.is_alive():
                            self._stop_locked(timeout=5.0)
                            raise WorkerPoolError(
                                f"worker {handle.index} died during startup "
                                f"(exit code {handle.process.exitcode})"
                            )
                    continue
                for kind, tag, payload in messages:
                    if kind == "ready":
                        ready.add(tag)
                        if not self.model_names:
                            self.model_names = list(payload)
                    elif kind == "init_error":
                        self._stop_locked(timeout=5.0)
                        raise WorkerPoolError(f"worker {tag} failed to initialize:\n{payload}")
                    # Anything else at this point is stale noise; drop it.
        return self

    def __enter__(self) -> "WorkerPool":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop()

    def stop(self, timeout: float = 30.0) -> Dict[int, Optional[int]]:
        """Graceful shutdown: sentinel every queue, join, escalate stragglers.

        Returns the per-slot exit codes (0 for a clean exit; negative for
        a signal-terminated straggler).  Idempotent.
        """
        with self._api_lock:
            return self._stop_locked(timeout)

    def _stop_locked(self, timeout: float) -> Dict[int, Optional[int]]:
        if self._stopped:
            return dict(self.exit_codes)
        self._stopped = True
        for handle in self._handles:
            handle.stopped = True
            try:
                handle.request_queue.put(None)
            except (ValueError, OSError):  # queue already closed/broken
                pass
        deadline = time.monotonic() + timeout
        for handle in self._handles:
            if handle.process is None:
                continue
            handle.process.join(timeout=max(0.0, deadline - time.monotonic()))
            if handle.process.is_alive():
                handle.process.terminate()
                handle.process.join(timeout=2.0)
            if handle.process.is_alive():
                handle.process.kill()
                handle.process.join(timeout=2.0)
            self.exit_codes[handle.index] = handle.process.exitcode
        for handle in self._handles:
            self._discard_queues(handle)
        return dict(self.exit_codes)

    @property
    def alive_workers(self) -> int:
        """Number of currently-live worker processes."""
        return sum(
            1
            for handle in self._handles
            if handle.process is not None and handle.process.is_alive()
        )

    # ------------------------------------------------------------------
    # Dispatch machinery (all called with _api_lock held)
    # ------------------------------------------------------------------
    def _require_running(self) -> None:
        if not self._started:
            raise WorkerPoolError("WorkerPool is not started; call start() or use it as a context manager")
        if self._stopped:
            raise WorkerPoolError("WorkerPool is stopped")

    def _submit_to(self, handle: _WorkerHandle, kind: str, payload: Any, resubmissions: int = 0) -> int:
        rid = self._next_rid
        self._next_rid += 1
        self._outstanding[rid] = (kind, payload, handle.index, resubmissions)
        handle.request_queue.put((kind, rid, payload))
        return rid

    def _model_label(self, model: Optional[str]) -> str:
        """The metrics key parent-side outcomes are recorded under."""
        return model or self._config.default_model or "_pool_"

    def _submit(self, kind: str, payload: Any) -> int:
        if self.max_inflight is not None and len(self._outstanding) >= self.max_inflight:
            label = self._model_label(payload[2] if kind == "top_k" else None)
            self.metrics.record(label, "sheds")
            raise OverloadedError(
                f"overloaded: {len(self._outstanding)} requests outstanding >= pool "
                f"budget {self.max_inflight}; request for {label!r} shed"
            )
        handle = self._handles[self._round_robin % len(self._handles)]
        self._round_robin += 1
        return self._submit_to(handle, kind, payload)

    def _check_workers(self) -> None:
        """Respawn dead workers and resubmit their in-flight requests."""
        for handle in self._handles:
            if handle.stopped or handle.process is None or handle.process.is_alive():
                continue
            exitcode = handle.process.exitcode
            if handle.respawns >= self.max_respawns:
                raise WorkerCrashError(
                    f"worker {handle.index} died (exit code {exitcode}) and exhausted its "
                    f"respawn budget ({self.max_respawns})"
                )
            handle.respawns += 1
            self.respawns += 1
            # The dead worker's queues are unusable — it may have died
            # holding either queue's internal lock, or mid-pickle (module
            # docstring).  The replacement gets a fresh pair.
            self._discard_queues(handle)
            fresh = self._new_handle(handle.index)
            handle.request_queue = fresh.request_queue
            handle.reply_queue = fresh.reply_queue
            self._spawn(handle)
            # Everything outstanding on the slot — dequeued by the dead
            # worker or still sitting in the discarded request queue — is
            # resubmitted under a new id.  A reply the dead worker managed
            # to send before crashing may still arrive for the old id; the
            # duplicate is dropped in _collect.
            for rid, (kind, payload, owner, resubmissions) in list(self._outstanding.items()):
                if owner != handle.index:
                    continue
                if resubmissions >= 1:
                    del self._outstanding[rid]
                    self._replies[rid] = (
                        "error",
                        WorkerCrashError(
                            f"request {rid} crashed worker {handle.index} twice; not retrying "
                            f"a poison request"
                        ),
                    )
                    continue
                del self._outstanding[rid]
                new_rid = self._submit_to(handle, kind, payload, resubmissions + 1)
                self._replies[rid] = ("moved", new_rid)

    def _collect(
        self, rid: int, deadline: Optional[Deadline] = None, label: Optional[str] = None
    ) -> Any:
        """Wait for ``rid``'s reply, servicing crash recovery while waiting.

        Both give-up paths (the pool's ``request_timeout`` and the
        request's own ``deadline``) first *forget* the request id: a reply
        that arrives after its request was declared dead must be discarded
        by id — never delivered to a later request, never resubmitted as a
        zombie by crash recovery, never left leaking in ``_outstanding``.
        The deadline is checked *before* any stashed reply is consumed, so
        a result whose reply was drained earlier (while collecting another
        request in :meth:`top_k_many`) is still refused once the deadline
        has passed — no silent late answers.

        The parent owns the pool's ``deadline_exceeded`` counter (worker
        gateways enforce deadlines but do not count them): exactly one
        count lands per expired request, at the raise — here on the
        parent's own expiry check, or when a worker's typed
        :class:`DeadlineExceededError` reply is re-raised.
        """
        timeout_at = time.monotonic() + self.request_timeout
        while True:
            if deadline is not None and deadline.expired:
                self._outstanding.pop(rid, None)  # late reply → dropped by id
                self._replies.pop(rid, None)  # a stashed reply is late now too
                if label is not None:
                    self.metrics.record(label, "deadline_exceeded")
                raise DeadlineExceededError(
                    f"deadline exceeded waiting for the worker reply to request {rid} "
                    f"({self.alive_workers}/{len(self._handles)} workers alive)"
                )
            reply = self._replies.pop(rid, None)
            if reply is not None:
                kind, payload = reply
                if kind == "moved":  # request was resubmitted under a new id
                    rid = payload
                    continue
                if kind == "error":
                    if label is not None and isinstance(payload, DeadlineExceededError):
                        self.metrics.record(label, "deadline_exceeded")
                    raise payload
                return payload
            remaining = timeout_at - time.monotonic()
            if remaining <= 0:
                self._outstanding.pop(rid, None)  # late reply → dropped by id
                raise WorkerPoolError(
                    f"no reply for request {rid} within {self.request_timeout:.0f}s "
                    f"({self.alive_workers}/{len(self._handles)} workers alive)"
                )
            wait = min(0.1, remaining)
            if deadline is not None:
                wait = min(wait, max(deadline.remaining(), 0.001))
            messages = self._poll_replies(timeout=wait)
            if not messages:
                self._check_workers()
                continue
            for kind, tag, payload in messages:
                if kind in ("result", "metrics", "error"):
                    if tag in self._outstanding:
                        del self._outstanding[tag]
                        self._replies[tag] = ("error" if kind == "error" else "value", payload)
                    # else: duplicate reply after a resubmission race — drop.
                elif kind == "init_error":
                    raise WorkerPoolError(f"respawned worker {tag} failed to initialize:\n{payload}")
                # "ready"/"stopped" lifecycle messages are not per-request; drop.

    # ------------------------------------------------------------------
    # Serving API
    # ------------------------------------------------------------------
    def top_k(
        self,
        users: np.ndarray,
        k: Optional[int] = None,
        model: Optional[str] = None,
        deadline=None,
    ) -> TopKResult:
        """Top-k lists for ``users`` from one worker (round-robin routed).

        Same contract as
        :meth:`repro.serving.gateway.ServingGateway.top_k`; validation
        errors raised inside the worker (unknown model, out-of-range user
        IDs) re-raise here with their original type.  ``deadline``
        (seconds or a :class:`~repro.serving.resilience.Deadline`) is
        pickled with the request as an absolute monotonic expiry, so time
        spent queued behind a stalled worker counts against it; an
        expired wait raises a typed
        :class:`~repro.serving.errors.DeadlineExceededError` here and the
        late reply — if one ever comes — is discarded by request id.
        """
        with self._api_lock:
            self._require_running()
            deadline = request_deadline(deadline, self._config.policy)
            rid = self._submit("top_k", (np.asarray(users), k, model, deadline))
            return self._collect(rid, deadline=deadline, label=self._model_label(model))

    def top_k_many(
        self,
        batches: Sequence[np.ndarray],
        k: Optional[int] = None,
        model: Optional[str] = None,
        deadline=None,
    ) -> List[TopKResult]:
        """Pipelined fan-out: submit every batch, then collect every reply.

        The throughput entry point — all workers run concurrently instead
        of ping-ponging one request at a time.  Results come back in
        request order.  The first worker-side error is raised after all
        replies are in (so no reply is left orphaned in the queue).  One
        ``deadline`` covers the whole fan-out; with a pool-level
        ``max_inflight``, batches beyond the budget are shed typed.
        """
        with self._api_lock:
            self._require_running()
            deadline = request_deadline(deadline, self._config.policy)
            label = self._model_label(model)
            results: List[Any] = []
            first_error: Optional[BaseException] = None
            rids: List[Optional[int]] = []
            for batch in batches:
                try:
                    rids.append(self._submit("top_k", (np.asarray(batch), k, model, deadline)))
                except OverloadedError as error:  # shed at the pool boundary
                    if first_error is None:
                        first_error = error
                    rids.append(None)
            for rid in rids:
                if rid is None:
                    results.append(None)
                    continue
                try:
                    results.append(self._collect(rid, deadline=deadline, label=label))
                except Exception as error:  # collect the rest before raising
                    if first_error is None:
                        first_error = error
                    results.append(None)
            if first_error is not None:
                raise first_error
            return results

    # ------------------------------------------------------------------
    # Fleet observability
    # ------------------------------------------------------------------
    def metrics_snapshots(self) -> List[Dict[str, object]]:
        """One metrics snapshot per worker (targeted, not round-robined)."""
        with self._api_lock:
            self._require_running()
            rids = [self._submit_to(handle, "metrics", None) for handle in self._handles]
            return [self._collect(rid) for rid in rids]

    def fleet_metrics(self) -> Dict[str, object]:
        """All workers' metrics merged into one fleet-wide snapshot.

        Counters sum exactly; latency percentiles are merged through raw
        histogram buckets (:meth:`MetricsRegistry.merge_snapshots`), so
        ``fleet_metrics()["totals"]["request_latency"]["p99"]`` is the
        pool's true tail latency.  The parent's own registry — pool-level
        sheds and the pool's deadline expiries (the parent owns that
        counter; worker gateways enforce deadlines without counting them,
        so each expiry lands exactly once) — is folded in, so resilience
        outcomes reconcile fleet-wide; ``workers`` still counts worker
        processes only.
        """
        snapshots = self.metrics_snapshots()
        merged = MetricsRegistry.merge_snapshots(list(snapshots) + [self.metrics.snapshot()])
        merged["workers"] = len(snapshots)
        return merged
