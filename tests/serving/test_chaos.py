"""Chaos suite: seeded fault injection against the full serving stack (``-m chaos``).

These tests *create* the failures the resilience layer claims to survive —
injected artifact errors, slow-IO stalls, corrupted header bytes, worker
SIGKILLs — and assert the system-level invariants that matter:

1. **No wrong result, ever.**  Every successful answer is byte-verified
   against a clean reference for exactly the users requested — degraded
   serving may switch models, never users or rows.
2. **Every request terminates**, in a result or a *typed* error
   (`ServingUnavailableError` family) — no deadlock, no hang past the
   deadline scale, no raw stack trace from deep inside the score path.
3. **Nothing fails silently.**  Sheds, deadline misses, breaker trips and
   fallback serves reconcile exactly against the number of requests the
   test submitted.

Everything is seeded (fault plans, request schedules), so a failure here
replays deterministically.
"""

import threading
import time
from random import Random

import numpy as np
import pytest

from repro.models import ModelSettings, build_model
from repro.persist import LAYOUT_DIR, save_model
from repro.serving import (
    CatalogWarmer,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    FaultRule,
    ModelCatalog,
    OverloadedError,
    ResiliencePolicy,
    ServingGateway,
    ServingUnavailableError,
    WorkerPool,
    WorkerPoolError,
    corrupt_artifact,
    inject,
)

pytestmark = pytest.mark.chaos

SETTINGS = ModelSettings(embedding_dim=8)
K = 5


@pytest.fixture(scope="module")
def chaos_dir(small_split, tmp_path_factory):
    directory = tmp_path_factory.mktemp("chaos-artifacts")
    train = small_split.train
    save_model(build_model("MF", train, SETTINGS), directory / "mf.npyd", layout=LAYOUT_DIR)
    save_model(build_model("ItemPop", train, SETTINGS), directory / "pop.npyd", layout=LAYOUT_DIR)
    return directory


@pytest.fixture(scope="module")
def reference(chaos_dir, small_split):
    """Clean per-user answers for every model — the ground truth successes must match."""
    catalog = ModelCatalog(chaos_dir, small_split.train, default_k=K)
    gateway = ServingGateway(catalog, default_model="mf")
    every_user = np.arange(small_split.train.num_users)
    return {
        name: gateway.top_k(every_user, k=K, model=name).items
        for name in ("mf", "pop")
    }


class TestThreadedChaos:
    """Concurrent traffic against a gateway while faults fire underneath it."""

    THREADS = 8
    REQUESTS_PER_THREAD = 25

    def run_storm(self, gateway, num_users, seed):
        outcomes = []          # (kind, payload) per request, in no particular order
        outcomes_lock = threading.Lock()

        def client(thread_index):
            rng = Random(seed * 1009 + thread_index)
            for _ in range(self.REQUESTS_PER_THREAD):
                start = rng.randrange(0, num_users - 4)
                users = np.arange(start, start + 4)
                try:
                    result = gateway.top_k(users, k=K)
                    record = ("ok", (users, result.items.copy()))
                except OverloadedError:
                    record = ("shed", None)
                except DeadlineExceededError:
                    record = ("deadline", None)
                except ServingUnavailableError:
                    record = ("unavailable", None)
                with outcomes_lock:
                    outcomes.append(record)

        threads = [
            threading.Thread(target=client, args=(index,)) for index in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            # Generous bound; a hang here is invariant 2 failing.
            thread.join(timeout=60.0)
            assert not thread.is_alive(), "request thread hung: termination invariant broken"
        return outcomes

    def test_storm_of_faults_holds_every_invariant(
        self, chaos_dir, small_split, reference, lock_watchdog
    ):
        num_users = small_split.train.num_users
        policy = ResiliencePolicy(
            deadline_seconds=5.0,
            max_inflight=6,
            breaker_failure_threshold=3,
            breaker_reset_seconds=0.02,
            serve_stale_on_failure=True,
            fallback_models=("pop",),
        )
        catalog = ModelCatalog(chaos_dir, small_split.train, default_k=K)
        lock_watchdog.watch_stack(catalog)
        gateway = ServingGateway(catalog, default_model="mf", policy=policy)
        gateway.top_k(np.arange(4), k=K)  # one clean serve seeds last-good
        catalog.evict_all()
        plan = FaultPlan(
            [
                # The primary model's cold starts fail ~40% of the time.
                FaultRule("catalog.cold_start", match="mf", probability=0.4, count=None),
                # Scoring occasionally stalls (deadline pressure, lock pressure).
                FaultRule(
                    "gateway.score", kind="stall", seconds=0.005, probability=0.2, count=None
                ),
                # Background rescans hit transient header IO errors.
                FaultRule(
                    "persist.read_header",
                    error_type=OSError,
                    error_message="injected EIO",
                    probability=0.2,
                    count=None,
                ),
            ],
            seed=1234,
        )
        warmer = CatalogWarmer(
            catalog, interval_seconds=0.02, resilience=gateway.resilience
        )
        with inject(plan):
            warmer.start()
            try:
                outcomes = self.run_storm(gateway, num_users, seed=99)
            finally:
                warmer.stop(raise_errors=False)

        submitted = self.THREADS * self.REQUESTS_PER_THREAD
        tally = {"ok": 0, "shed": 0, "deadline": 0, "unavailable": 0}
        for kind, payload in outcomes:
            tally[kind] += 1
            if kind != "ok":
                continue
            users, items = payload
            # Invariant 1: the answer is byte-exact for exactly these users,
            # from the primary or an allowed degraded source — never a
            # wrong user's rows, never a model outside the fallback chain.
            allowed = [reference["mf"][users], reference["pop"][users]]
            assert any(
                items.tobytes() == candidate.tobytes() for candidate in allowed
            ), "a served result matched no clean reference: wrong-row or wrong-model serve"
        # Invariant 2 is the join() above; invariant 3 is the reconciliation:
        assert sum(tally.values()) == submitted
        snap = gateway.metrics.snapshot()
        # +1 for the seeding request before the storm.
        assert snap["totals"]["requests"] == tally["ok"] + 1
        assert snap["totals"]["sheds"] == tally["shed"]
        assert snap["totals"]["deadline_exceeded"] == tally["deadline"]
        assert snap["totals"]["errors"] == tally["unavailable"]
        assert plan.total_triggered() > 0, "the storm must actually have injected faults"
        # The stack still serves cleanly after the chaos (no wedged state).
        assert gateway.top_k(np.arange(6), k=K).items.shape == (6, K)

    def test_storm_is_livelock_free_without_fallbacks(
        self, chaos_dir, small_split, reference, lock_watchdog
    ):
        """Hard mode: a permanent fault, no stale copy, no fallback model.

        Every request must still terminate promptly with a *typed*
        unavailability — the breaker's open/half-open churn must never
        livelock, hang, or leak a raw loader exception."""
        policy = ResiliencePolicy(
            deadline_seconds=5.0,
            breaker_failure_threshold=2,
            breaker_reset_seconds=0.01,
            serve_stale_on_failure=False,
        )
        catalog = ModelCatalog(chaos_dir, small_split.train, default_k=K)
        lock_watchdog.watch_stack(catalog)
        gateway = ServingGateway(catalog, default_model="mf", policy=policy)
        plan = FaultPlan(
            [FaultRule("catalog.cold_start", match="mf", count=None)], seed=77
        )
        with inject(plan):
            outcomes = self.run_storm(gateway, small_split.train.num_users, seed=3)
        tally = {}
        for kind, _ in outcomes:
            tally[kind] = tally.get(kind, 0) + 1
        assert tally == {"unavailable": self.THREADS * self.REQUESTS_PER_THREAD}, (
            "a permanently broken model with no fallbacks must fail every "
            "request typed — nothing served, nothing hung, nothing raw"
        )
        assert plan.total_triggered() > 0


class TestCorruptedArtifacts:
    def test_corrupt_header_degrades_typed_then_recovers(self, tmp_path, small_split):
        """Corrupt bytes on disk → typed degradation; restored bytes → recovery."""
        path = tmp_path / "mf.npyd"
        save_model(build_model("MF", small_split.train, SETTINGS), path, layout=LAYOUT_DIR)
        pristine = (path / "header.json").read_bytes()
        policy = ResiliencePolicy(
            breaker_failure_threshold=1, breaker_reset_seconds=0.0,
            serve_stale_on_failure=False,
        )
        catalog = ModelCatalog(tmp_path, small_split.train, default_k=K)
        gateway = ServingGateway(catalog, default_model="mf", policy=policy)
        clean = gateway.top_k(np.arange(4), k=K)

        corrupt_artifact(path, seed=9)
        catalog.evict_all()
        with pytest.raises(ServingUnavailableError):
            # The corrupted publish surfaces as a typed unavailability —
            # never a wrong result, never a raw JSON/zip parse error.
            for _ in range(3):
                gateway.top_k(np.arange(4), k=K)

        (path / "header.json").write_bytes(pristine)
        warmer = CatalogWarmer(catalog, resilience=gateway.resilience)
        warmer.run_once()  # rescan picks the healed file up; probe closes the breaker
        recovered = gateway.top_k(np.arange(4), k=K)
        assert recovered.items.tobytes() == clean.items.tobytes()


class TestWorkerPoolChaos:
    """Process-level chaos: stalls, deadlines and SIGKILLs inside real workers."""

    def test_late_reply_after_timeout_is_discarded_by_request_id(
        self, chaos_dir, small_split
    ):
        """Satellite regression: a reply landing after its request timed out
        must never be delivered to a later request (and never resubmitted
        as a zombie by crash recovery)."""
        plan = FaultPlan(
            [FaultRule("worker.request", kind="stall", seconds=1.5, count=1)]
        )
        with WorkerPool(
            chaos_dir,
            small_split.train,
            workers=1,
            default_model="mf",
            request_timeout=1.0,
            fault_plan=plan,
        ) as pool:
            with pytest.raises(WorkerPoolError, match="no reply"):
                pool.top_k(np.arange(3), k=K)  # stalled past the timeout
            assert not pool._outstanding, "timed-out request must not leak"
            # The worker is still alive, finishing the stalled request; its
            # late reply must be dropped by id.  A different-shaped request
            # proves no cross-delivery: 5 users in, 5 rows out.
            result = pool.top_k(np.arange(10, 15), k=K)
            assert result.items.shape == (5, K)
            assert pool.respawns == 0, "a stall is not a crash; nothing respawned"

    def test_deadline_expires_while_worker_stalls(self, chaos_dir, small_split):
        plan = FaultPlan(
            [FaultRule("worker.request", kind="stall", seconds=2.0, count=1)]
        )
        with WorkerPool(
            chaos_dir,
            small_split.train,
            workers=1,
            default_model="mf",
            request_timeout=30.0,
            fault_plan=plan,
        ) as pool:
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError):
                pool.top_k(np.arange(3), k=K, deadline=0.3)
            elapsed = time.perf_counter() - started
            assert elapsed < 2.0, "the deadline, not the stall, must bound the wait"
            # Parent-side metric recorded; folded into the fleet view.
            fleet = pool.fleet_metrics()
            assert fleet["totals"]["deadline_exceeded"] == 1
            assert fleet["workers"] == 1
            assert pool.top_k(np.arange(2), k=K).items.shape == (2, K)

    def test_stashed_reply_is_refused_once_the_deadline_passed(
        self, chaos_dir, small_split
    ):
        """A reply drained into the parent's stash (while collecting another
        request in ``top_k_many``) must not be delivered after its request's
        deadline expired — the 'no silent late answers' invariant covers
        already-arrived replies too."""
        with WorkerPool(
            chaos_dir, small_split.train, workers=1, default_model="mf"
        ) as pool:
            with pool._api_lock:
                pool._replies[999] = ("value", "stale-result")
                with pytest.raises(DeadlineExceededError):
                    pool._collect(
                        999, deadline=Deadline(time.monotonic() - 1.0), label="mf"
                    )
                assert 999 not in pool._replies, "the late stashed reply is discarded"
            assert pool.metrics.snapshot()["totals"]["deadline_exceeded"] == 1
            # The pool still serves normally afterwards.
            assert pool.top_k(np.arange(2), k=K).items.shape == (2, K)

    def test_deadline_mid_serve_counts_exactly_once_fleet_wide(
        self, chaos_dir, small_split
    ):
        """A deadline expiring *after* the worker dequeued the request must
        land one ``deadline_exceeded`` in the fleet view, not one from the
        worker's gateway plus one from the parent."""
        with WorkerPool(
            chaos_dir,
            small_split.train,
            workers=1,
            default_model="mf",
            request_timeout=30.0,
            simulate_io_seconds=0.6,  # the worker dequeues live, then stalls
        ) as pool:
            with pytest.raises(DeadlineExceededError):
                pool.top_k(np.arange(3), k=K, deadline=0.2)
            # The metrics request queues behind the stalled serve, so by the
            # time the snapshot returns the worker has long finished — and
            # would have counted the expiry too, were it not parent-owned.
            fleet = pool.fleet_metrics()
            assert fleet["totals"]["deadline_exceeded"] == 1
            assert pool.top_k(np.arange(2), k=K).items.shape == (2, K)

    def test_sigkill_mid_request_respawns_and_serves_correctly(
        self, chaos_dir, small_split
    ):
        plan = FaultPlan([FaultRule("worker.request", kind="kill", start=2, count=1)])
        with WorkerPool(
            chaos_dir,
            small_split.train,
            workers=1,
            default_model="mf",
            request_timeout=60.0,
            fault_plan=plan,
        ) as pool:
            expected = pool.top_k(np.arange(4), k=K).items.tobytes()   # call 0
            assert pool.top_k(np.arange(4), k=K).items.tobytes() == expected  # call 1
            # Call 2 SIGKILLs the worker mid-request; the pool respawns the
            # slot and resubmits, and the answer is still byte-correct.
            assert pool.top_k(np.arange(4), k=K).items.tobytes() == expected
            assert pool.respawns == 1

    def test_pool_inflight_budget_sheds_typed_and_counted(self, chaos_dir, small_split):
        plan = FaultPlan(
            [FaultRule("worker.request", kind="stall", seconds=0.5, count=2)]
        )
        with WorkerPool(
            chaos_dir,
            small_split.train,
            workers=2,
            default_model="mf",
            request_timeout=30.0,
            max_inflight=2,
            fault_plan=plan,
        ) as pool:
            batches = [np.arange(3)] * 4
            with pytest.raises(OverloadedError, match="shed"):
                # Both workers stall on their first request, so the queue
                # holds 2 in-flight when batch 3 arrives: shed, typed.
                pool.top_k_many(batches, k=K)
            assert pool.metrics.snapshot()["totals"]["sheds"] >= 1
            fleet = pool.fleet_metrics()
            assert fleet["totals"]["sheds"] >= 1, "pool-side sheds reconcile fleet-wide"
