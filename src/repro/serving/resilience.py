"""Resilience primitives: deadlines, admission control, circuit breakers.

A burst-shaped workload (flash sales are the group-buying scenario par
excellence) fails *partially*: one model's artifact goes bad mid-swap, one
worker stalls on IO, one burst overruns capacity.  This module supplies
the three primitives that turn each of those into a bounded, typed,
counted outcome instead of an unbounded queue or a raw stack trace:

* :class:`Deadline` — a monotonic expiry carried with a request and
  checked at every blocking point (gateway entry, catalog cold-start
  wait, worker-pool reply wait), raising
  :class:`~repro.serving.errors.DeadlineExceededError`;
* :class:`AdmissionController` — a bounded in-flight budget (gateway-wide
  and per model); the excess of a burst is shed with
  :class:`~repro.serving.errors.OverloadedError` and counted, never
  queued silently;
* :class:`CircuitBreaker` — the classic closed → open → half-open state
  machine per model: repeated cold-start/artifact failures open the
  circuit, the gateway fails over to its fallback chain, and a half-open
  probe (driven by the :class:`~repro.serving.warmer.CatalogWarmer` off
  the request path, or by the first request past the reset timeout)
  decides whether to close it again.  A claimed probe must always reach
  a verdict — :meth:`~CircuitBreaker.record_success`,
  :meth:`~CircuitBreaker.record_failure`, or
  :meth:`~CircuitBreaker.release_probe` when the probe's outcome says
  nothing about the model — and as a backstop a half-open breaker whose
  probe never reports re-opens the slot after another ``reset_seconds``,
  so a leaked probe can never wedge a model offline permanently.

:class:`ResiliencePolicy` is the immutable configuration bundle a
:class:`~repro.serving.gateway.ServingGateway` (or each worker of a
:class:`~repro.serving.workers.WorkerPool`) is constructed with;
:class:`ResilienceState` is the live state the gateway owns.

Usage — a breaker opens after repeated failures and recovers via a probe:

>>> from repro.serving.resilience import CircuitBreaker
>>> breaker = CircuitBreaker(failure_threshold=2, reset_seconds=0.0)
>>> breaker.allow(), breaker.state
(True, 'closed')
>>> breaker.record_failure(), breaker.record_failure()   # second one opens it
(False, True)
>>> breaker.state
'open'
>>> breaker.allow()     # reset_seconds elapsed: this call claims the probe
True
>>> breaker.state
'half-open'
>>> breaker.record_success(); breaker.state
'closed'
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple, Union

from . import forksafe
from .errors import DeadlineExceededError, OverloadedError

__all__ = [
    "Deadline",
    "AdmissionController",
    "CircuitBreaker",
    "ResiliencePolicy",
    "ResilienceState",
    "request_deadline",
    "ADMIT_ALLOW",
    "ADMIT_PROBE",
    "ADMIT_REJECT",
]


class Deadline:
    """A per-request expiry on the monotonic clock.

    Constructed at the serving edge (:meth:`after`) and propagated with
    the request; every blocking point checks it via :meth:`check` (raises
    a typed :class:`~repro.serving.errors.DeadlineExceededError` naming
    where it expired) or budgets its own wait with :meth:`remaining`.

    The expiry is an absolute ``time.monotonic()`` timestamp, which on
    every supported platform is machine-wide — so a pickled deadline
    crossing the :class:`~repro.serving.workers.WorkerPool` process
    boundary keeps counting queue time against the request, exactly the
    time that matters under overload.

    >>> deadline = Deadline.after(60.0)
    >>> deadline.expired
    False
    >>> 0.0 < deadline.remaining() <= 60.0
    True
    >>> Deadline.after(0.0).check("doctest")        # doctest: +ELLIPSIS
    Traceback (most recent call last):
      ...
    repro.serving.errors.DeadlineExceededError: deadline exceeded ...
    """

    __slots__ = ("expires_at",)

    def __init__(self, expires_at: float) -> None:
        self.expires_at = float(expires_at)

    @classmethod
    def after(cls, seconds: float) -> "Deadline":
        """A deadline ``seconds`` from now (must be >= 0)."""
        if seconds < 0.0:
            raise ValueError(f"deadline seconds must be >= 0, got {seconds}")
        return cls(time.monotonic() + seconds)

    @classmethod
    def coerce(cls, value: Union["Deadline", float, int, None]) -> Optional["Deadline"]:
        """Normalize a user-facing ``deadline`` argument.

        ``None`` stays None (no deadline); a number means "seconds from
        now"; a :class:`Deadline` passes through (the propagation case).
        """
        if value is None or isinstance(value, Deadline):
            return value
        return cls.after(float(value))

    def remaining(self) -> float:
        """Seconds left (clamped at 0.0)."""
        return max(0.0, self.expires_at - time.monotonic())

    @property
    def expired(self) -> bool:
        return time.monotonic() >= self.expires_at

    def check(self, where: str = "request") -> None:
        """Raise :class:`DeadlineExceededError` naming ``where`` if expired."""
        now = time.monotonic()
        if now >= self.expires_at:
            raise DeadlineExceededError(
                f"deadline exceeded at {where} ({now - self.expires_at:.3f}s past expiry)"
            )

    # Pickled across the worker boundary with the absolute timestamp.
    def __getstate__(self) -> float:
        return self.expires_at

    def __setstate__(self, state: float) -> None:
        self.expires_at = state

    def __repr__(self) -> str:
        return f"Deadline(remaining={self.remaining():.3f}s)"


class AdmissionController:
    """Bounded in-flight request budget — the load-shedding gate.

    ``max_inflight`` bounds concurrent requests across the whole gateway,
    ``max_inflight_per_model`` bounds each model's share (either may be
    None for unbounded).  :meth:`acquire` either admits the request
    (returning a release callable) or raises a typed
    :class:`~repro.serving.errors.OverloadedError` *immediately* — there
    is deliberately no queueing here: under a burst, the excess fails in
    microseconds and the admitted requests keep their latency.

    >>> admission = AdmissionController(max_inflight=1)
    >>> release = admission.acquire("mf")
    >>> admission.acquire("mf")                     # doctest: +ELLIPSIS
    Traceback (most recent call last):
      ...
    repro.serving.errors.OverloadedError: overloaded: ...
    >>> release(); release()     # idempotent
    >>> admission.inflight()
    0
    """

    def __init__(
        self,
        max_inflight: Optional[int] = None,
        max_inflight_per_model: Optional[int] = None,
    ) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1 (or None), got {max_inflight}")
        if max_inflight_per_model is not None and max_inflight_per_model < 1:
            raise ValueError(
                f"max_inflight_per_model must be >= 1 (or None), got {max_inflight_per_model}"
            )
        self.max_inflight = max_inflight
        self.max_inflight_per_model = max_inflight_per_model
        self._lock = threading.Lock()
        self._total = 0
        self._per_model: Dict[str, int] = {}
        forksafe.protect(self)

    def _reinit_after_fork_in_child(self) -> None:
        """Replace the lock a fork may have copied in a held state (child only)."""
        self._lock = threading.Lock()

    def acquire(self, model: str, *, count_total: bool = True) -> Callable[[], None]:
        """Admit one request for ``model`` or raise :class:`OverloadedError`.

        Returns an idempotent release callable the caller must invoke when
        the request finishes (success *or* failure).

        ``count_total=False`` books only ``model``'s per-model share, not
        the gateway-wide budget — the gateway uses it when a fallback
        model serves a request whose total-budget slot is already held
        under the primary model's name, so per-model budgets meter the
        model that *actually* serves without double-charging the total.
        """
        with self._lock:
            if (
                count_total
                and self.max_inflight is not None
                and self._total >= self.max_inflight
            ):
                raise OverloadedError(
                    f"overloaded: {self._total} requests in flight >= gateway budget "
                    f"{self.max_inflight}; request for {model!r} shed"
                )
            model_inflight = self._per_model.get(model, 0)
            if (
                self.max_inflight_per_model is not None
                and model_inflight >= self.max_inflight_per_model
            ):
                raise OverloadedError(
                    f"overloaded: {model_inflight} requests in flight for {model!r} >= "
                    f"per-model budget {self.max_inflight_per_model}; request shed"
                )
            if count_total:
                self._total += 1
            self._per_model[model] = model_inflight + 1
        released = threading.Event()

        def release() -> None:
            if released.is_set():
                return
            released.set()
            with self._lock:
                if count_total:
                    self._total -= 1
                remaining = self._per_model.get(model, 1) - 1
                if remaining <= 0:
                    self._per_model.pop(model, None)
                else:
                    self._per_model[model] = remaining

        return release

    def inflight(self, model: Optional[str] = None) -> int:
        """Currently admitted requests (for ``model``, or in total)."""
        with self._lock:
            return self._total if model is None else self._per_model.get(model, 0)

    def __repr__(self) -> str:
        with self._lock:
            return (
                f"AdmissionController(inflight={self._total}, budget={self.max_inflight}, "
                f"per_model_budget={self.max_inflight_per_model})"
            )


#: Breaker state names (strings, so snapshots stay JSON-plain).
STATE_CLOSED = "closed"
STATE_OPEN = "open"
STATE_HALF_OPEN = "half-open"

#: :meth:`CircuitBreaker.admit` verdicts.
ADMIT_ALLOW = "allow"  # closed: serve normally
ADMIT_PROBE = "probe"  # this caller claimed the half-open probe slot
ADMIT_REJECT = "reject"  # open (or probe already claimed): do not serve


class CircuitBreaker:
    """Per-model failure breaker: closed → open → half-open → closed.

    CLOSED counts consecutive model-side failures (cold-start errors,
    unservable artifacts); at ``failure_threshold`` the breaker OPENs and
    :meth:`allow` answers False — the gateway stops hammering a model
    that cannot serve and fails over instead.  After ``reset_seconds``
    the next :meth:`admit`/:meth:`allow` (or an off-request-path
    :meth:`try_probe` from the warmer) claims the single HALF-OPEN probe
    slot; the probe's outcome either closes the breaker
    (:meth:`record_success`) or re-opens it with a fresh timer
    (:meth:`record_failure`).

    A claimed probe **owns a verdict debt**: whoever got ``ADMIT_PROBE``
    must call :meth:`record_success`, :meth:`record_failure`, or —
    when the probe ended for a reason that says nothing about the model
    (a client-input error, an interrupt) — :meth:`release_probe`, which
    hands the slot straight back.  As a backstop against any path that
    forgets, a breaker stuck half-open longer than ``reset_seconds``
    re-opens the probe slot to the next :meth:`admit` caller, so a
    leaked probe degrades to one lost reset window, never a permanently
    disabled model.

    Thread-safe; the probe slot is claimed atomically, so concurrent
    requests during half-open cannot stampede the recovering model.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(f"failure_threshold must be >= 1, got {failure_threshold}")
        if reset_seconds < 0.0:
            raise ValueError(f"reset_seconds must be >= 0, got {reset_seconds}")
        self.failure_threshold = failure_threshold
        self.reset_seconds = reset_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = STATE_CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._half_open_since = 0.0
        #: Monotonic counters for observability.
        self.times_opened = 0
        forksafe.protect(self)

    def _reinit_after_fork_in_child(self) -> None:
        """Replace the lock a fork may have copied in a held state (child only)."""
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def admit(self) -> str:
        """May a request try the model now — and is it the probe?

        CLOSED → :data:`ADMIT_ALLOW`.  OPEN → :data:`ADMIT_REJECT` until
        ``reset_seconds`` elapsed, then the first caller transitions to
        HALF-OPEN, claims the probe slot and gets :data:`ADMIT_PROBE`;
        every other caller is rejected until the probe's verdict lands.
        A caller handed :data:`ADMIT_PROBE` owes the breaker a verdict
        (:meth:`record_success` / :meth:`record_failure` /
        :meth:`release_probe`); if none ever arrives, the slot re-opens
        to a new probe after another ``reset_seconds`` (class docstring).
        """
        with self._lock:
            if self._state == STATE_CLOSED:
                return ADMIT_ALLOW
            now = self._clock()
            if self._state == STATE_OPEN:
                if now - self._opened_at >= self.reset_seconds:
                    self._state = STATE_HALF_OPEN
                    self._half_open_since = now
                    return ADMIT_PROBE  # this caller IS the probe
                return ADMIT_REJECT
            # Half-open: the probe slot is claimed — unless its claimant
            # leaked the verdict, in which case the slot is reclaimable
            # after a full reset window (never wedge a model offline).
            if now - self._half_open_since >= self.reset_seconds:
                self._half_open_since = now
                return ADMIT_PROBE
            return ADMIT_REJECT

    def allow(self) -> bool:
        """May a request try the model now? (:meth:`admit` as a bool.)

        True for a closed breaker *and* for the caller that claims the
        half-open probe slot — use :meth:`admit` when the caller needs to
        know which, i.e. whether it owes the breaker a probe verdict.
        """
        return self.admit() != ADMIT_REJECT

    def try_probe(self) -> bool:
        """Claim the half-open probe off the request path (warmer hook).

        Same transition as :meth:`admit`, but named for intent: the
        warmer calls it each cycle and — when it returns True — warms
        the model itself, so the recovery attempt never rides a request.
        """
        return self.admit() == ADMIT_PROBE if self.state != STATE_CLOSED else False

    def release_probe(self) -> None:
        """Hand a claimed half-open probe slot back without a verdict.

        For probes that ended for reasons unrelated to the model's health
        (client-input errors, interrupts): the breaker returns to OPEN
        with its *original* timer, so the very next :meth:`admit` (or the
        warmer's :meth:`try_probe`) may claim a fresh probe immediately.
        Not a failure: no streak increment, no ``times_opened`` bump.
        No-op unless currently half-open.
        """
        with self._lock:
            if self._state == STATE_HALF_OPEN:
                self._state = STATE_OPEN

    def record_success(self) -> None:
        """A serve (or probe) succeeded: reset failures, close the breaker."""
        with self._lock:
            self._consecutive_failures = 0
            self._state = STATE_CLOSED

    def record_failure(self) -> bool:
        """A model-side failure (or failed probe); returns True if this opened the breaker."""
        with self._lock:
            self._consecutive_failures += 1
            if self._state == STATE_HALF_OPEN:
                # Failed probe: straight back to open, fresh timer.
                self._state = STATE_OPEN
                self._opened_at = self._clock()
                self.times_opened += 1
                return True
            if self._state == STATE_CLOSED and self._consecutive_failures >= self.failure_threshold:
                self._state = STATE_OPEN
                self._opened_at = self._clock()
                self.times_opened += 1
                return True
            return False

    def snapshot(self) -> Dict[str, object]:
        """Plain-dict state for observability endpoints."""
        with self._lock:
            return {
                "state": self._state,
                "consecutive_failures": self._consecutive_failures,
                "times_opened": self.times_opened,
                "failure_threshold": self.failure_threshold,
                "reset_seconds": self.reset_seconds,
            }

    def __repr__(self) -> str:
        snap = self.snapshot()
        return (
            f"CircuitBreaker({snap['state']}, failures={snap['consecutive_failures']}/"
            f"{self.failure_threshold}, opened={snap['times_opened']}x)"
        )


@dataclass(frozen=True)
class ResiliencePolicy:
    """Immutable resilience configuration for a gateway (or pool workers).

    Everything defaults to "off"/permissive, so
    ``ResiliencePolicy()`` alone changes no behavior; switch on the
    pieces a deployment needs.  Picklable (plain data), so a
    :class:`~repro.serving.workers.WorkerPool` forwards one to its spawn
    workers unchanged.

    Parameters
    ----------
    deadline_seconds:
        Default per-request deadline applied when a request carries none
        (``None`` = no default; requests without deadlines block as before).
    max_inflight, max_inflight_per_model:
        Admission-control budgets (see :class:`AdmissionController`);
        ``None`` = unbounded.
    breaker_failure_threshold, breaker_reset_seconds:
        Circuit-breaker tuning (see :class:`CircuitBreaker`).
    serve_stale_on_failure:
        When a model fails or its breaker is open, serve the gateway's
        retained last-good resident version of that model (the first link
        of the fallback chain).  The stale serve is counted as a fallback,
        never silent.
    fallback_models:
        Catalog names tried — in order — after the last-good link (e.g.
        ``("itempop",)``: a cheap popularity model that can absorb any
        model's traffic).  A fallback with an open breaker of its own is
        skipped.
    """

    deadline_seconds: Optional[float] = None
    max_inflight: Optional[int] = None
    max_inflight_per_model: Optional[int] = None
    breaker_failure_threshold: int = 3
    breaker_reset_seconds: float = 30.0
    serve_stale_on_failure: bool = True
    fallback_models: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.deadline_seconds is not None and self.deadline_seconds <= 0.0:
            raise ValueError(f"deadline_seconds must be positive, got {self.deadline_seconds}")
        object.__setattr__(self, "fallback_models", tuple(self.fallback_models))


def request_deadline(deadline, policy: Optional[ResiliencePolicy]) -> Optional[Deadline]:
    """A request's :class:`Deadline`: its own ``deadline``, else ``policy``'s default.

    ``deadline`` is whatever the caller passed (None, seconds, or a
    :class:`Deadline`); without one, ``policy.deadline_seconds`` (when
    set) starts a fresh budget now.  The gateway and the worker pool both
    normalize their entry points' ``deadline`` argument here.
    """
    if deadline is not None:
        return Deadline.coerce(deadline)
    if policy is not None and policy.deadline_seconds is not None:
        return Deadline.after(policy.deadline_seconds)
    return None


class ResilienceState:
    """The live resilience state a gateway owns: admission, breakers, last-good.

    Created by :class:`~repro.serving.gateway.ServingGateway` from its
    :class:`ResiliencePolicy`; exposed as ``gateway.resilience`` so a
    :class:`~repro.serving.warmer.CatalogWarmer` can drive half-open
    probes off the request path (:meth:`probe_open_circuits`).
    """

    def __init__(self, policy: ResiliencePolicy) -> None:
        self.policy = policy
        self.admission = AdmissionController(
            max_inflight=policy.max_inflight,
            max_inflight_per_model=policy.max_inflight_per_model,
        )
        self._lock = threading.Lock()
        self._breakers: Dict[str, CircuitBreaker] = {}
        # name -> (version, recommender): the newest resident each model
        # successfully served with.  Stores are immutable arrays, so a
        # retained recommender stays serveable after catalog eviction —
        # the "last-good resident version" link of the fallback chain.
        self._last_good: Dict[str, Tuple[int, object]] = {}
        forksafe.protect(self)

    def _reinit_after_fork_in_child(self) -> None:
        """Replace the lock a fork may have copied in a held state (child only)."""
        self._lock = threading.Lock()

    def breaker(self, name: str) -> CircuitBreaker:
        """The (lazily created) breaker guarding catalog model ``name``."""
        with self._lock:
            breaker = self._breakers.get(name)
            if breaker is None:
                breaker = self._breakers[name] = CircuitBreaker(
                    failure_threshold=self.policy.breaker_failure_threshold,
                    reset_seconds=self.policy.breaker_reset_seconds,
                )
            return breaker

    def breaker_snapshots(self) -> Dict[str, Dict[str, object]]:
        """name → breaker snapshot for every model seen so far."""
        with self._lock:
            breakers = dict(self._breakers)
        return {name: breaker.snapshot() for name, breaker in breakers.items()}

    def remember_last_good(self, name: str, version: int, recommender: object) -> None:
        with self._lock:
            self._last_good[name] = (version, recommender)

    def last_good(self, name: str) -> Optional[Tuple[int, object]]:
        """``(version, recommender)`` of the newest successful serve, or None."""
        with self._lock:
            return self._last_good.get(name)

    def probe_open_circuits(self, catalog) -> Dict[str, bool]:
        """Half-open probing off the request path (the warmer calls this).

        For every non-closed breaker whose reset timeout has elapsed,
        claim the probe slot and attempt a :meth:`ModelCatalog.warm` —
        the same cold-start a request would have paid, but on the
        warmer's thread.  Success closes the breaker (the next request
        is a plain residency hit); failure re-opens it with a fresh
        timer.  Returns name → probe outcome for the models probed this
        call.  Never raises: a failed probe *is* the expected outcome
        while the underlying fault persists.
        """
        with self._lock:
            candidates = [
                (name, breaker)
                for name, breaker in self._breakers.items()
                if breaker.state != STATE_CLOSED
            ]
        outcomes: Dict[str, bool] = {}
        for name, breaker in candidates:
            if not breaker.try_probe():
                continue  # still inside reset_seconds, or probe already claimed
            try:
                catalog.warm(name)
            except Exception:  # noqa: BLE001 — any warm failure fails the probe
                breaker.record_failure()
                outcomes[name] = False
            else:
                breaker.record_success()
                outcomes[name] = True
        return outcomes

    def __repr__(self) -> str:
        states = {name: snap["state"] for name, snap in self.breaker_snapshots().items()}
        return f"ResilienceState({self.admission!r}, breakers={states})"
