"""Scenario engine, part 2: deterministic traffic and open-loop replay.

``repro.data.scenario`` answers *who exists*; this module answers *when
they show up and what they ask for*.  A :class:`TrafficModel` expands a
:class:`TrafficConfig` into a :class:`RequestStream` — a fully
materialized, seeded, timestamped sequence of top-k requests with the
shapes the paper's group-buying setting implies:

* a **diurnal cycle** (sinusoidal rate modulation around a base rate);
* **flash-sale bursts** (:class:`FlashBurst`): a rate multiplier with a
  linear rise, a hold plateau and a linear decay, optionally tightening
  per-request **deadline budgets** and skewing item choice onto a small
  **hot-key** set for the burst's duration;
* **Zipf item skew** at all times (item 0 most popular, matching the
  rank-ordered popularity of :class:`~repro.data.scenario.ScenarioConfig`);
* per-request **model routing** drawn from configured weights.

Arrivals are an inhomogeneous Poisson process discretized into
``bin_seconds`` bins (per-bin Poisson counts, sorted uniform jitter
inside each bin), so timestamps are globally sorted and the realized
rate tracks the configured rate curve.  Every request carries a phase
label (``baseline`` or the burst's name) — the unit the SLO report
aggregates by.

:class:`ReplayHarness` then drives any target exposing the gateway
``top_k(users, k=..., model=..., deadline=...)`` contract — a
:class:`~repro.serving.gateway.ServingGateway` or a
:class:`~repro.serving.workers.WorkerPool` — in **open-loop** mode: a
small thread pool dispatches each request at its *scheduled* arrival
time (scaled by ``speed``) regardless of whether earlier requests have
finished, so an overloaded target accumulates lag and sheds instead of
silently back-pressuring the generator (the closed-loop failure mode
that makes load tests lie).  Outcomes are recorded per phase through the
existing :class:`~repro.serving.metrics.MetricsRegistry` machinery —
ok latencies in one registry, failure latencies in a second — and the
resulting :class:`ReplayReport` reconciles the ledger exactly
(``requests == ok + sheds + deadline_exceeded + errors``) and exports a
``results.scenario``-ready dict via :meth:`ReplayReport.as_bench_section`.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from . import forksafe
from .errors import DeadlineExceededError, OverloadedError
from .metrics import MetricsRegistry

__all__ = [
    "FlashBurst",
    "TrafficConfig",
    "TrafficModel",
    "RequestStream",
    "ReplayHarness",
    "ReplayReport",
    "BASELINE_PHASE",
]

#: Phase label for requests outside every burst window.
BASELINE_PHASE = "baseline"


@dataclass(frozen=True)
class FlashBurst:
    """One flash-sale burst: a rate multiplier with linear rise and decay.

    The burst is active on ``[start_seconds, start_seconds + rise + hold
    + decay)``; its contribution to the rate curve ramps linearly from 0
    to ``multiplier - 1`` over ``rise_seconds``, holds, then ramps back
    down over ``decay_seconds``.  Requests arriving inside the window are
    labeled with the burst's ``name``, may get a tighter deadline
    (``deadline_seconds``), and with probability ``hot_item_fraction``
    pick their item uniformly from the ``hot_items`` most popular ranks —
    the hot-key skew that makes flash sales hard on caches.
    """

    start_seconds: float
    multiplier: float
    rise_seconds: float = 5.0
    hold_seconds: float = 10.0
    decay_seconds: float = 5.0
    name: str = "flash"
    #: Probability an in-burst request targets the hot-key set.
    hot_item_fraction: float = 0.8
    #: Size of the hot-key set (top-popularity item ranks).
    hot_items: int = 8
    #: Tighter per-request deadline inside the burst (None = inherit base).
    deadline_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        if self.start_seconds < 0.0:
            raise ValueError("burst start_seconds must be >= 0")
        if self.multiplier < 1.0:
            raise ValueError(f"burst multiplier must be >= 1, got {self.multiplier}")
        if min(self.rise_seconds, self.hold_seconds, self.decay_seconds) < 0.0:
            raise ValueError("burst rise/hold/decay must be >= 0")
        if self.duration_seconds <= 0.0:
            raise ValueError("burst must have a positive duration")
        if not 0.0 <= self.hot_item_fraction <= 1.0:
            raise ValueError("hot_item_fraction must be in [0, 1]")
        if self.hot_items < 1:
            raise ValueError("hot_items must be >= 1")
        if self.name == BASELINE_PHASE:
            raise ValueError(f"burst name {BASELINE_PHASE!r} is reserved")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0.0:
            raise ValueError("burst deadline_seconds must be positive")

    @property
    def duration_seconds(self) -> float:
        return self.rise_seconds + self.hold_seconds + self.decay_seconds

    @property
    def end_seconds(self) -> float:
        return self.start_seconds + self.duration_seconds

    def shape(self, t: np.ndarray) -> np.ndarray:
        """Burst envelope in [0, 1] at times ``t`` (1.0 on the plateau)."""
        t = np.asarray(t, dtype=np.float64) - self.start_seconds
        up = np.clip(t / self.rise_seconds, 0.0, 1.0) if self.rise_seconds > 0 else (
            (t >= 0.0).astype(np.float64)
        )
        down = (
            np.clip((self.duration_seconds - t) / self.decay_seconds, 0.0, 1.0)
            if self.decay_seconds > 0
            else (t < self.duration_seconds).astype(np.float64)
        )
        return np.where((t >= 0.0) & (t < self.duration_seconds), np.minimum(up, down), 0.0)


@dataclass(frozen=True)
class TrafficConfig:
    """Knobs of a deterministic request stream.

    ``model_weights`` routes each request to a named catalog model drawn
    by weight; empty means every request uses the target's default model.
    ``deadline_seconds=None`` means no per-request deadline outside
    bursts (bursts may still impose their own).
    """

    duration_seconds: float = 60.0
    base_rate_per_second: float = 50.0
    #: Sinusoidal rate modulation amplitude in [0, 1) (0 = flat).
    diurnal_amplitude: float = 0.3
    diurnal_period_seconds: float = 60.0
    bursts: Tuple[FlashBurst, ...] = ()
    model_weights: Tuple[Tuple[str, float], ...] = ()
    deadline_seconds: Optional[float] = None
    #: Zipf exponent of item choice (0 = uniform; matches scenario configs).
    item_exponent: float = 1.1
    #: Zipf exponent of user activity (0 = uniform traffic over users).
    user_exponent: float = 0.0
    #: Discretization of the inhomogeneous Poisson arrival process.
    bin_seconds: float = 0.25
    seed: int = 2021

    def __post_init__(self) -> None:
        if self.duration_seconds <= 0.0:
            raise ValueError("duration_seconds must be positive")
        if self.base_rate_per_second <= 0.0:
            raise ValueError("base_rate_per_second must be positive")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError("diurnal_amplitude must be in [0, 1)")
        if self.diurnal_period_seconds <= 0.0:
            raise ValueError("diurnal_period_seconds must be positive")
        if self.item_exponent < 0.0 or self.user_exponent < 0.0:
            raise ValueError("Zipf exponents must be >= 0")
        if not 0.0 < self.bin_seconds <= self.duration_seconds:
            raise ValueError("bin_seconds must be in (0, duration_seconds]")
        if self.deadline_seconds is not None and self.deadline_seconds <= 0.0:
            raise ValueError("deadline_seconds must be positive")
        names = [burst.name for burst in self.bursts]
        if len(set(names)) != len(names):
            raise ValueError(f"burst names must be unique, got {names}")
        for burst in self.bursts:
            if burst.end_seconds > self.duration_seconds:
                raise ValueError(
                    f"burst {burst.name!r} ends at {burst.end_seconds}s, "
                    f"beyond duration_seconds={self.duration_seconds}"
                )
        for name, weight in self.model_weights:
            if weight <= 0.0:
                raise ValueError(f"model weight for {name!r} must be positive")

    @property
    def phases(self) -> Tuple[str, ...]:
        """All phase labels: baseline first, then bursts in declared order."""
        return (BASELINE_PHASE,) + tuple(burst.name for burst in self.bursts)


class RequestStream:
    """A materialized, sorted, seeded sequence of timestamped requests.

    Flat parallel arrays (one row per request): ``timestamps`` (seconds
    from stream start, sorted ascending), ``users``, ``items``,
    ``model_index`` (index into :attr:`models`, ``-1`` = target default),
    ``deadline_seconds`` (NaN = no deadline) and ``phase_index`` (index
    into :attr:`phases`).  :meth:`digest` pins the byte-exact content for
    the golden-seed determinism tests.
    """

    def __init__(
        self,
        config: TrafficConfig,
        num_users: int,
        num_items: int,
        timestamps: np.ndarray,
        users: np.ndarray,
        items: np.ndarray,
        model_index: np.ndarray,
        deadline_seconds: np.ndarray,
        phase_index: np.ndarray,
        phase_active_seconds: np.ndarray,
    ) -> None:
        self.config = config
        self.num_users = num_users
        self.num_items = num_items
        self.timestamps = timestamps
        self.users = users
        self.items = items
        self.model_index = model_index
        self.deadline_seconds = deadline_seconds
        self.phase_index = phase_index
        #: Wall-clock seconds each phase is active (offered-rate denominator).
        self.phase_active_seconds = phase_active_seconds
        self.models: Tuple[str, ...] = tuple(name for name, _ in config.model_weights)
        self.phases: Tuple[str, ...] = config.phases

    def __len__(self) -> int:
        return int(self.timestamps.size)

    def model_name(self, index: int) -> Optional[str]:
        """Catalog model of request ``index`` (None = target default)."""
        route = int(self.model_index[index])
        return self.models[route] if route >= 0 else None

    def deadline_of(self, index: int) -> Optional[float]:
        """Deadline budget of request ``index`` in seconds (None = unbounded)."""
        value = float(self.deadline_seconds[index])
        return None if np.isnan(value) else value

    def phase_counts(self) -> Dict[str, int]:
        """Requests per phase label."""
        counts = np.bincount(self.phase_index, minlength=len(self.phases))
        return {phase: int(counts[i]) for i, phase in enumerate(self.phases)}

    def offered_rate(self, phase: str) -> float:
        """Offered request rate (req/s) of one phase at speed 1.0."""
        index = self.phases.index(phase)
        active = float(self.phase_active_seconds[index])
        if active <= 0.0:
            return 0.0
        return float(np.sum(self.phase_index == index)) / active

    def digest(self) -> str:
        """SHA-256 over the stream's arrays and config identity."""
        sha = hashlib.sha256()
        sha.update(repr(self.config).encode())
        sha.update(f"{self.num_users}:{self.num_items}".encode())
        for array in (
            self.timestamps,
            self.users,
            self.items,
            self.model_index,
            self.deadline_seconds,
            self.phase_index,
        ):
            sha.update(np.ascontiguousarray(array).tobytes())
        return sha.hexdigest()

    def __repr__(self) -> str:
        return (
            f"RequestStream(requests={len(self):,}, duration={self.config.duration_seconds}s, "
            f"phases={list(self.phases)}, seed={self.config.seed})"
        )


def _zipf_weights(n: int, exponent: float) -> np.ndarray:
    weights = np.power(np.arange(1, n + 1, dtype=np.float64), -exponent)
    return weights / weights.sum()


class TrafficModel:
    """Expands a :class:`TrafficConfig` into a :class:`RequestStream`.

    Generation is deterministic for a given ``(config, num_users,
    num_items)``: a single ``SeedSequence``-derived generator drives the
    whole stream, so the same stream is reproduced in any process — the
    property the cross-``spawn`` golden-seed test pins.
    """

    def __init__(self, config: Optional[TrafficConfig] = None) -> None:
        self.config = config or TrafficConfig()

    # ------------------------------------------------------------------
    # Rate curve
    # ------------------------------------------------------------------
    def rate_at(self, t: np.ndarray) -> np.ndarray:
        """Instantaneous request rate (req/s) at times ``t``."""
        cfg = self.config
        t = np.asarray(t, dtype=np.float64)
        rate = cfg.base_rate_per_second * (
            1.0
            + cfg.diurnal_amplitude
            * np.sin(2.0 * np.pi * t / cfg.diurnal_period_seconds)
        )
        for burst in cfg.bursts:
            rate = rate * (1.0 + (burst.multiplier - 1.0) * burst.shape(t))
        return rate

    def _phase_of(self, t: np.ndarray) -> np.ndarray:
        """Phase index per timestamp: first matching burst window, else 0."""
        cfg = self.config
        phase = np.zeros(t.size, dtype=np.int16)
        for position, burst in enumerate(cfg.bursts, start=1):
            inside = (t >= burst.start_seconds) & (t < burst.end_seconds)
            phase[inside & (phase == 0)] = position
        return phase

    def _phase_active_seconds(self) -> np.ndarray:
        """Wall-clock seconds each phase owns (earlier bursts win overlaps)."""
        cfg = self.config
        # Fine grid: cheap (duration/bin bins) and exact enough for rates.
        edges = np.arange(0.0, cfg.duration_seconds, cfg.bin_seconds)
        phase = self._phase_of(edges)
        widths = np.full(edges.size, cfg.bin_seconds)
        widths[-1] = cfg.duration_seconds - edges[-1]
        active = np.zeros(len(cfg.phases), dtype=np.float64)
        np.add.at(active, phase, widths)
        return active

    # ------------------------------------------------------------------
    # Stream materialization
    # ------------------------------------------------------------------
    def generate(self, num_users: int, num_items: int) -> RequestStream:
        """Materialize the full request stream for a population size."""
        if num_users < 1 or num_items < 1:
            raise ValueError("num_users and num_items must be >= 1")
        cfg = self.config
        rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))

        # Inhomogeneous Poisson arrivals: per-bin counts at the bin-center
        # rate, then sorted uniform jitter inside each bin — globally
        # sorted timestamps whose realized rate tracks the curve.
        starts = np.arange(0.0, cfg.duration_seconds, cfg.bin_seconds)
        widths = np.full(starts.size, cfg.bin_seconds)
        widths[-1] = cfg.duration_seconds - starts[-1]
        rates = self.rate_at(starts + widths / 2.0)
        counts = rng.poisson(rates * widths)
        total = int(counts.sum())
        if total == 0:
            raise ValueError(
                "traffic config produced an empty stream; raise "
                "base_rate_per_second or duration_seconds"
            )
        jitter = rng.random(total)
        bin_of = np.repeat(np.arange(starts.size), counts)
        offsets = np.zeros(starts.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        for b in np.flatnonzero(counts > 1):
            jitter[offsets[b] : offsets[b + 1]].sort()
        timestamps = starts[bin_of] + jitter * widths[bin_of]

        phase_index = self._phase_of(timestamps)

        # Users: Zipf-by-id activity (id 0 most active) or uniform.
        if cfg.user_exponent > 0.0:
            users = rng.choice(
                num_users, size=total, p=_zipf_weights(num_users, cfg.user_exponent)
            ).astype(np.int64)
        else:
            users = rng.integers(0, num_users, size=total, dtype=np.int64)

        # Items: Zipf-by-rank popularity, with in-burst hot-key override.
        if cfg.item_exponent > 0.0:
            items = rng.choice(
                num_items, size=total, p=_zipf_weights(num_items, cfg.item_exponent)
            ).astype(np.int64)
        else:
            items = rng.integers(0, num_items, size=total, dtype=np.int64)
        hot_draw = rng.random(total)
        hot_pick = rng.integers(0, np.iinfo(np.int64).max, size=total)
        for position, burst in enumerate(cfg.bursts, start=1):
            inside = phase_index == position
            hot = inside & (hot_draw < burst.hot_item_fraction)
            items[hot] = hot_pick[hot] % min(burst.hot_items, num_items)

        # Model routing by weight (-1 = target default).
        model_index = np.full(total, -1, dtype=np.int16)
        if cfg.model_weights:
            weights = np.array([w for _, w in cfg.model_weights], dtype=np.float64)
            model_index = rng.choice(
                len(cfg.model_weights), size=total, p=weights / weights.sum()
            ).astype(np.int16)

        # Deadline budgets: base outside bursts, burst override inside.
        deadline = np.full(
            total,
            np.nan if cfg.deadline_seconds is None else cfg.deadline_seconds,
            dtype=np.float64,
        )
        for position, burst in enumerate(cfg.bursts, start=1):
            if burst.deadline_seconds is not None:
                deadline[phase_index == position] = burst.deadline_seconds

        return RequestStream(
            config=cfg,
            num_users=num_users,
            num_items=num_items,
            timestamps=timestamps,
            users=users,
            items=items,
            model_index=model_index,
            deadline_seconds=deadline,
            phase_index=phase_index,
            phase_active_seconds=self._phase_active_seconds(),
        )


# ----------------------------------------------------------------------
# Open-loop replay
# ----------------------------------------------------------------------
@dataclass
class PhaseOutcome:
    """One phase's reconciled replay ledger and SLO percentiles."""

    phase: str
    requests: int
    ok: int
    sheds: int
    deadline_exceeded: int
    errors: int
    ok_p50_ms: float
    ok_p95_ms: float
    ok_p99_ms: float
    offered_rps: float
    achieved_rps: float

    @property
    def reconciles(self) -> bool:
        return self.requests == self.ok + self.sheds + self.deadline_exceeded + self.errors

    def as_dict(self) -> Dict[str, object]:
        return {
            "phase": self.phase,
            "requests": self.requests,
            "ok": self.ok,
            "sheds": self.sheds,
            "deadline_exceeded": self.deadline_exceeded,
            "errors": self.errors,
            "ok_p50_ms": self.ok_p50_ms,
            "ok_p95_ms": self.ok_p95_ms,
            "ok_p99_ms": self.ok_p99_ms,
            "offered_rps": self.offered_rps,
            "achieved_rps": self.achieved_rps,
        }


@dataclass
class ReplayReport:
    """The outcome of one :meth:`ReplayHarness.run`.

    ``phases`` holds one :class:`PhaseOutcome` per stream phase;
    ``ok_snapshot`` / ``failure_snapshot`` are the raw
    :class:`~repro.serving.metrics.MetricsRegistry` snapshots (phase-keyed)
    for callers that want exact histogram merging across replays.
    """

    stream_digest: str
    speed: float
    concurrency: int
    wall_seconds: float
    phases: List[PhaseOutcome]
    max_dispatch_lag_seconds: float
    ok_snapshot: Dict[str, object]
    failure_snapshot: Dict[str, object]

    @property
    def total_requests(self) -> int:
        return sum(p.requests for p in self.phases)

    @property
    def ledger_reconciles(self) -> bool:
        """Every phase's ledger balances: requests == ok + sheds + deadline + errors."""
        return all(p.reconciles for p in self.phases)

    def phase(self, name: str) -> PhaseOutcome:
        for outcome in self.phases:
            if outcome.phase == name:
                return outcome
        raise KeyError(f"no phase {name!r}; have {[p.phase for p in self.phases]}")

    def as_bench_section(self) -> Dict[str, object]:
        """The ``results.scenario``-shaped dict the benchmark suite writes."""
        return {
            "stream_digest": self.stream_digest,
            "speed": self.speed,
            "concurrency": self.concurrency,
            "wall_seconds": self.wall_seconds,
            "total_requests": self.total_requests,
            "ledger_reconciles": self.ledger_reconciles,
            "max_dispatch_lag_seconds": self.max_dispatch_lag_seconds,
            "phases": [p.as_dict() for p in self.phases],
        }


class ReplayHarness:
    """Open-loop replay of a :class:`RequestStream` against a serving target.

    ``target`` is anything with the gateway ``top_k(users, k=..., model=...,
    deadline=...)`` contract.  ``speed`` compresses the stream's timeline
    (``speed=2`` replays a 60s stream in 30s); scheduled arrival times are
    honored regardless of target latency — the open-loop property.  Each of
    ``concurrency`` worker threads claims the next undispatched request,
    sleeps until its scheduled time, and issues it; when the target falls
    behind, requests dispatch late (tracked as dispatch lag) rather than
    being silently thinned.

    Outcomes are ledgered per phase: an ok response records its latency in
    ``metrics`` (phase-keyed), a typed
    :class:`~repro.serving.errors.OverloadedError` /
    :class:`~repro.serving.errors.DeadlineExceededError` is counted as a
    shed / deadline miss, anything else as an error; failure latencies go
    to a second registry so failed-fast requests never pollute the ok
    percentiles.  A harness instance is single-shot: :meth:`run` may be
    called once.
    """

    def __init__(
        self,
        target,
        stream: RequestStream,
        *,
        k: int = 10,
        speed: float = 1.0,
        concurrency: int = 4,
        metrics: Optional[MetricsRegistry] = None,
        failure_metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if speed <= 0.0:
            raise ValueError("speed must be positive")
        if concurrency < 1:
            raise ValueError("concurrency must be >= 1")
        if k < 1:
            raise ValueError("k must be >= 1")
        self.target = target
        self.stream = stream
        self.k = k
        self.speed = speed
        self.concurrency = concurrency
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.failure_metrics = (
            failure_metrics if failure_metrics is not None else MetricsRegistry()
        )
        self._next_index = 0
        self._index_lock = threading.Lock()
        self._max_lag = 0.0
        self._lag_lock = threading.Lock()
        self._ran = False
        forksafe.protect(self)

    def _reinit_after_fork_in_child(self) -> None:
        # A fork during a replay copies the claim/lag locks in whatever
        # state the claimer threads held them; replace both so a child can
        # run its own replay.  The claimer threads themselves are gone in
        # the child — the copied counters are a snapshot, nothing more.
        self._index_lock = threading.Lock()
        self._lag_lock = threading.Lock()

    # ------------------------------------------------------------------
    # Worker loop
    # ------------------------------------------------------------------
    def _claim(self) -> int:
        with self._index_lock:
            index = self._next_index
            self._next_index += 1
        return index

    def _note_lag(self, lag: float) -> None:
        if lag <= self._max_lag:
            return
        with self._lag_lock:
            if lag > self._max_lag:
                self._max_lag = lag

    def _issue(self, index: int) -> None:
        stream = self.stream
        phase = stream.phases[stream.phase_index[index]]
        users = np.array([stream.users[index]], dtype=np.int64)
        model = stream.model_name(index)
        deadline = stream.deadline_of(index)
        began = time.perf_counter()
        try:
            self.target.top_k(users, k=self.k, model=model, deadline=deadline)
        except OverloadedError:
            self.failure_metrics.record_request(phase, 1, time.perf_counter() - began)
            self.metrics.record(phase, "sheds")
        except DeadlineExceededError:
            self.failure_metrics.record_request(phase, 1, time.perf_counter() - began)
            self.metrics.record(phase, "deadline_exceeded")
        except Exception:  # noqa: BLE001 — replay must survive any target fault
            self.failure_metrics.record_request(phase, 1, time.perf_counter() - began)
            self.metrics.record(phase, "errors")
        else:
            self.metrics.record_request(phase, 1, time.perf_counter() - began)

    def _worker(self, start: float) -> None:
        stream = self.stream
        total = len(stream)
        while True:
            index = self._claim()
            if index >= total:
                return
            scheduled = start + float(stream.timestamps[index]) / self.speed
            delay = scheduled - time.perf_counter()
            if delay > 0.0:
                time.sleep(delay)
            else:
                self._note_lag(-delay)
            self._issue(index)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def run(self) -> ReplayReport:
        """Replay the whole stream once and return the reconciled report."""
        if self._ran:
            raise RuntimeError("ReplayHarness is single-shot; build a new one")
        self._ran = True
        began = time.perf_counter()
        start = began + 0.05  # let every worker reach its loop before t=0
        threads = [
            threading.Thread(
                target=self._worker, args=(start,), name=f"replay-{i}", daemon=True
            )
            for i in range(self.concurrency)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - began
        return self._report(wall)

    def _report(self, wall_seconds: float) -> ReplayReport:
        stream = self.stream
        snapshot = self.metrics.snapshot()
        models: Mapping[str, Mapping[str, object]] = snapshot["models"]  # type: ignore[assignment]
        stream_counts = stream.phase_counts()
        outcomes: List[PhaseOutcome] = []
        for position, phase in enumerate(stream.phases):
            recorded = models.get(phase, {})
            latency: Mapping[str, object] = recorded.get("request_latency", {})  # type: ignore[assignment]
            ok = int(recorded.get("requests", 0))
            active = float(stream.phase_active_seconds[position]) / self.speed
            outcomes.append(
                PhaseOutcome(
                    phase=phase,
                    requests=stream_counts[phase],
                    ok=ok,
                    sheds=int(recorded.get("sheds", 0)),
                    deadline_exceeded=int(recorded.get("deadline_exceeded", 0)),
                    errors=int(recorded.get("errors", 0)),
                    ok_p50_ms=float(latency.get("p50", 0.0)) * 1e3,
                    ok_p95_ms=float(latency.get("p95", 0.0)) * 1e3,
                    ok_p99_ms=float(latency.get("p99", 0.0)) * 1e3,
                    offered_rps=stream.offered_rate(phase) * self.speed,
                    achieved_rps=ok / active if active > 0.0 else 0.0,
                )
            )
        return ReplayReport(
            stream_digest=stream.digest(),
            speed=self.speed,
            concurrency=self.concurrency,
            wall_seconds=wall_seconds,
            phases=outcomes,
            max_dispatch_lag_seconds=self._max_lag,
            ok_snapshot=snapshot,
            failure_snapshot=self.failure_metrics.snapshot(),
        )
