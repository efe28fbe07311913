"""Tests for `repro.serving.resilience` and its gateway/warmer wiring.

Covers the three primitives in isolation (Deadline, AdmissionController,
CircuitBreaker), then the integrated behavior a deployment actually sees:
typed sheds, typed deadline failures, breakers opening on repeated model
faults, the degraded fallback chain, warmer-driven half-open probes, and
the failure counters surviving snapshot + merge.
"""

import pickle
import threading
import time

import numpy as np
import pytest

from repro.models import build_model
from repro.persist import save_model
from repro.serving import (
    AdmissionController,
    CatalogWarmer,
    CircuitBreaker,
    CircuitOpenError,
    Deadline,
    DeadlineExceededError,
    FaultPlan,
    FaultRule,
    MetricsRegistry,
    ModelCatalog,
    OverloadedError,
    ResiliencePolicy,
    ResilienceState,
    ServingError,
    ServingGateway,
    ServingUnavailableError,
    inject,
)
from repro.serving.resilience import ADMIT_ALLOW, ADMIT_PROBE, ADMIT_REJECT


@pytest.fixture()
def serving_dir(tmp_path, small_split):
    """Two published artifacts: the primary ('mf') and a cheap fallback ('itempop')."""
    for spec in ("MF", "ItemPop"):
        save_model(build_model(spec, small_split.train), tmp_path / f"{spec.lower()}.npz")
    return tmp_path


def make_gateway(serving_dir, small_split, **policy_kwargs):
    policy = ResiliencePolicy(**policy_kwargs)
    catalog = ModelCatalog(serving_dir, small_split.train)
    return ServingGateway(catalog, default_model="mf", policy=policy)


class TestDeadline:
    def test_after_and_remaining(self):
        deadline = Deadline.after(60.0)
        assert not deadline.expired
        assert 0.0 < deadline.remaining() <= 60.0

    def test_expired_check_raises_typed(self):
        with pytest.raises(DeadlineExceededError, match="doom"):
            Deadline.after(0.0).check("doom")

    def test_coerce(self):
        assert Deadline.coerce(None) is None
        deadline = Deadline.after(1.0)
        assert Deadline.coerce(deadline) is deadline
        coerced = Deadline.coerce(0.5)
        assert isinstance(coerced, Deadline) and coerced.remaining() <= 0.5

    def test_negative_seconds_rejected(self):
        with pytest.raises(ValueError, match=">= 0"):
            Deadline.after(-1.0)

    def test_pickles_as_absolute_expiry(self):
        deadline = Deadline.after(30.0)
        clone = pickle.loads(pickle.dumps(deadline))
        assert clone.expires_at == deadline.expires_at


class TestAdmissionController:
    def test_total_budget_sheds_the_excess(self):
        admission = AdmissionController(max_inflight=2)
        releases = [admission.acquire("a"), admission.acquire("b")]
        with pytest.raises(OverloadedError, match="shed"):
            admission.acquire("c")
        releases[0]()
        admission.acquire("c")  # freed slot admits again

    def test_per_model_budget(self):
        admission = AdmissionController(max_inflight_per_model=1)
        admission.acquire("a")
        with pytest.raises(OverloadedError, match="per-model"):
            admission.acquire("a")
        admission.acquire("b")  # another model is unaffected

    def test_release_is_idempotent(self):
        admission = AdmissionController(max_inflight=1)
        release = admission.acquire("a")
        release()
        release()
        assert admission.inflight() == 0

    def test_shed_errors_are_retryable_typed(self):
        admission = AdmissionController(max_inflight=1)
        admission.acquire("a")
        with pytest.raises(ServingUnavailableError):
            admission.acquire("a")

    def test_invalid_budgets(self):
        with pytest.raises(ValueError):
            AdmissionController(max_inflight=0)
        with pytest.raises(ValueError):
            AdmissionController(max_inflight_per_model=0)


class TestCircuitBreaker:
    def test_opens_at_threshold_and_reports_transition(self):
        breaker = CircuitBreaker(failure_threshold=2, reset_seconds=60.0)
        assert breaker.record_failure() is False
        assert breaker.record_failure() is True  # exactly this call opened it
        assert breaker.state == "open"
        assert not breaker.allow()
        assert breaker.times_opened == 1

    def test_success_resets_the_failure_streak(self):
        breaker = CircuitBreaker(failure_threshold=2)
        breaker.record_failure()
        breaker.record_success()
        assert breaker.record_failure() is False, "streak restarted after success"

    def test_half_open_probe_is_single_claim(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10.0, clock=lambda: clock[0])
        breaker.record_failure()
        assert not breaker.allow(), "inside reset window"
        clock[0] = 11.0
        assert breaker.allow(), "first caller past the window claims the probe"
        assert breaker.state == "half-open"
        assert not breaker.allow(), "probe slot already claimed"

    def test_failed_probe_reopens_with_fresh_timer(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 11.0
        assert breaker.allow()
        assert breaker.record_failure() is True  # failed probe re-opens
        clock[0] = 20.0  # 9s after the re-open: still inside the fresh window
        assert not breaker.allow()
        clock[0] = 21.5
        assert breaker.allow()

    def test_successful_probe_closes(self):
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=0.0)
        breaker.record_failure()
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == "closed"
        assert breaker.allow()

    def test_admit_distinguishes_the_probe_claim(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10.0, clock=lambda: clock[0])
        assert breaker.admit() == ADMIT_ALLOW
        breaker.record_failure()
        assert breaker.admit() == ADMIT_REJECT
        clock[0] = 11.0
        assert breaker.admit() == ADMIT_PROBE, "first caller past the window is the probe"
        assert breaker.admit() == ADMIT_REJECT, "probe slot single-claim"

    def test_release_probe_hands_the_slot_back_immediately(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 11.0
        assert breaker.admit() == ADMIT_PROBE
        breaker.release_probe()  # probe ended for a model-unrelated reason
        assert breaker.state == "open"
        assert breaker.admit() == ADMIT_PROBE, (
            "a released probe is claimable again at once — no failure counted, "
            "no fresh reset window"
        )
        assert breaker.times_opened == 1, "release is not a failure"

    def test_leaked_probe_verdict_self_heals_after_a_reset_window(self):
        clock = [0.0]
        breaker = CircuitBreaker(failure_threshold=1, reset_seconds=10.0, clock=lambda: clock[0])
        breaker.record_failure()
        clock[0] = 11.0
        assert breaker.admit() == ADMIT_PROBE
        # The claimant dies without ever reporting a verdict.
        clock[0] = 15.0
        assert breaker.admit() == ADMIT_REJECT, "still inside the claimant's window"
        clock[0] = 21.0
        assert breaker.admit() == ADMIT_PROBE, (
            "a wedged half-open breaker must re-open its probe slot after a "
            "full reset window — a leaked probe can never disable a model forever"
        )

    def test_snapshot_is_plain(self):
        snap = CircuitBreaker().snapshot()
        assert snap["state"] == "closed"
        assert snap["times_opened"] == 0


class TestPolicy:
    def test_defaults_are_permissive(self):
        policy = ResiliencePolicy()
        assert policy.deadline_seconds is None
        assert policy.max_inflight is None
        assert policy.serve_stale_on_failure is True
        assert policy.fallback_models == ()

    def test_policy_pickles(self):
        policy = ResiliencePolicy(deadline_seconds=1.0, fallback_models=("itempop",))
        assert pickle.loads(pickle.dumps(policy)) == policy

    def test_invalid_deadline_rejected(self):
        with pytest.raises(ValueError, match="deadline_seconds"):
            ResiliencePolicy(deadline_seconds=0.0)


class TestGatewayWithoutPolicy:
    """No policy: the same request path, with no admission control and no
    breakers; deadlines still work."""

    def test_resilience_attr_is_none(self, serving_dir, small_split):
        gateway = ServingGateway(ModelCatalog(serving_dir, small_split.train), default_model="mf")
        assert gateway.resilience is None
        assert gateway.top_k(np.arange(4), k=3).items.shape == (4, 3)

    def test_explicit_deadline_still_enforced(self, serving_dir, small_split):
        gateway = ServingGateway(ModelCatalog(serving_dir, small_split.train), default_model="mf")
        with pytest.raises(DeadlineExceededError):
            gateway.top_k(np.arange(4), deadline=Deadline(time.monotonic() - 1.0))
        snap = gateway.metrics.snapshot()
        assert snap["totals"]["deadline_exceeded"] == 1
        assert snap["totals"]["requests"] == 0


@pytest.mark.parametrize("policy", [None, ResiliencePolicy()], ids=["no-policy", "policy"])
class TestOneRequestPath:
    """A policy adds admission and breakers, never a different request path.

    With or without one, ``request_latency`` times the score call alone (a
    cold start lands in ``cold_start_latency``), and the ``gateway.score``
    fault hook fires once per request.
    """

    def test_cold_start_is_not_request_latency(self, serving_dir, small_split, policy):
        gateway = ServingGateway(
            ModelCatalog(serving_dir, small_split.train), default_model="mf", policy=policy
        )
        stall = FaultPlan([FaultRule("catalog.cold_start", kind="stall", seconds=0.05, count=1)])
        with inject(stall):
            gateway.top_k(np.arange(4), k=3)
        model = gateway.metrics.snapshot()["models"]["mf"]
        assert model["cold_start_latency"]["min"] >= 0.05
        assert model["request_latency"]["max"] < 0.05

    def test_score_hook_fires_once_per_request(self, serving_dir, small_split, policy):
        gateway = ServingGateway(
            ModelCatalog(serving_dir, small_split.train), default_model="mf", policy=policy
        )
        plan = FaultPlan([FaultRule("gateway.score", kind="stall", count=None)])
        with inject(plan):
            for _ in range(3):
                gateway.top_k(np.arange(4), k=3)
            gateway.scores(np.arange(2), np.arange(3))
        assert plan.triggered == {("gateway.score", "stall"): 4}


class TestGatewayShedding:
    def test_burst_beyond_budget_sheds_typed_and_counted(self, serving_dir, small_split):
        gateway = make_gateway(serving_dir, small_split, max_inflight=1)
        release = gateway.resilience.admission.acquire("elsewhere")  # occupy the budget
        with pytest.raises(OverloadedError):
            gateway.top_k(np.arange(4))
        release()
        assert gateway.top_k(np.arange(4)).items.shape[0] == 4
        snap = gateway.metrics.snapshot()
        assert snap["models"]["mf"]["sheds"] == 1
        assert snap["totals"]["sheds"] == 1

    def test_inflight_budget_released_after_failure(self, serving_dir, small_split):
        gateway = make_gateway(serving_dir, small_split, max_inflight=1, serve_stale_on_failure=False)
        gateway.catalog.evict_all()
        plan = FaultPlan([FaultRule("gateway.score", count=1)])
        with inject(plan):
            with pytest.raises(Exception):
                gateway.top_k(np.arange(4))
        assert gateway.resilience.admission.inflight() == 0, "failure path must release"
        assert gateway.top_k(np.arange(4)).items.shape[0] == 4


class TestGatewayDeadlines:
    def test_policy_default_deadline_applies(self, serving_dir, small_split):
        gateway = make_gateway(serving_dir, small_split, deadline_seconds=30.0)
        assert gateway.top_k(np.arange(4)).items.shape[0] == 4  # generous default: serves

    def test_expired_deadline_is_typed_and_counted_not_served(self, serving_dir, small_split):
        gateway = make_gateway(serving_dir, small_split)
        with pytest.raises(DeadlineExceededError):
            gateway.top_k(np.arange(4), deadline=Deadline(time.monotonic() - 0.1))
        snap = gateway.metrics.snapshot()
        assert snap["totals"]["deadline_exceeded"] == 1
        assert snap["totals"]["requests"] == 0, "an expired request is never counted as served"

    def test_deadline_bounds_cold_start_lock_wait(self, serving_dir, small_split):
        """A request stuck behind another thread's stalled load fails typed."""
        gateway = make_gateway(serving_dir, small_split)
        catalog = gateway.catalog
        entry = catalog.entry("mf")
        assert entry.load_lock.acquire()  # emulate a stalled in-flight load
        try:
            started = time.perf_counter()
            with pytest.raises(DeadlineExceededError, match="cold start"):
                catalog.store("mf", Deadline.after(0.05))
            assert time.perf_counter() - started < 5.0, "bounded, not request_timeout-scale"
        finally:
            entry.load_lock.release()
        assert catalog.store("mf") is not None  # unblocked: serves normally


class TestBreakerAndFallback:
    def evict_and_fault(self, gateway, match="mf"):
        gateway.catalog.evict_all()
        return FaultPlan([FaultRule("catalog.cold_start", match=match, count=None)])

    def test_repeated_model_faults_open_breaker_and_serve_stale(self, serving_dir, small_split):
        gateway = make_gateway(serving_dir, small_split, breaker_failure_threshold=2,
                               breaker_reset_seconds=60.0)
        healthy = gateway.top_k(np.arange(6), k=4)  # seeds last-good
        with inject(self.evict_and_fault(gateway)):
            for _ in range(4):
                degraded = gateway.top_k(np.arange(6), k=4)
                assert degraded.items.tobytes() == healthy.items.tobytes(), (
                    "stale fallback serves the last-good bytes of the same model"
                )
        snap = gateway.metrics.snapshot()
        assert snap["models"]["mf"]["fallbacks_served"] == 4
        assert snap["models"]["mf"]["breaker_opens"] == 1
        assert gateway.resilience.breaker("mf").state == "open"

    def test_fallback_model_serves_when_no_stale_copy_exists(self, serving_dir, small_split):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, breaker_reset_seconds=60.0,
            serve_stale_on_failure=False, fallback_models=("itempop",),
        )
        gateway.catalog.evict_all()
        reference = ServingGateway(
            ModelCatalog(serving_dir, small_split.train), default_model="itempop"
        ).top_k(np.arange(6), k=4)
        with inject(self.evict_and_fault(gateway)):
            result = gateway.top_k(np.arange(6), k=4)
        assert result.items.tobytes() == reference.items.tobytes(), (
            "the cheap fallback model's answer, never a wrong or partial one"
        )
        snap = gateway.metrics.snapshot()
        assert snap["models"]["mf"]["fallbacks_served"] == 1
        assert snap["models"]["itempop"]["requests"] == 1, "rows land on the serving model"

    def test_exhausted_chain_is_typed_circuit_open(self, serving_dir, small_split):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, serve_stale_on_failure=False,
        )
        gateway.catalog.evict_all()
        with inject(self.evict_and_fault(gateway)):
            with pytest.raises(CircuitOpenError, match="mf"):
                gateway.top_k(np.arange(4))
        snap = gateway.metrics.snapshot()
        assert snap["models"]["mf"]["errors"] >= 1

    def test_open_breaker_skips_the_failing_model_entirely(self, serving_dir, small_split):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, breaker_reset_seconds=60.0,
            serve_stale_on_failure=False, fallback_models=("itempop",),
        )
        gateway.catalog.evict_all()
        plan = self.evict_and_fault(gateway)
        with inject(plan):
            gateway.top_k(np.arange(4))  # opens the breaker, serves fallback
            cold_starts_after_open = plan.calls.get("catalog.cold_start", 0)
            gateway.top_k(np.arange(4))  # breaker open: primary never attempted
            assert plan.calls.get("catalog.cold_start", 0) == cold_starts_after_open
        assert gateway.metrics.snapshot()["models"]["mf"]["fallbacks_served"] == 2

    def test_client_errors_do_not_trip_the_breaker(self, serving_dir, small_split):
        gateway = make_gateway(serving_dir, small_split, breaker_failure_threshold=1)
        for _ in range(3):
            with pytest.raises(ServingError):
                gateway.top_k(np.asarray([-1]))
        assert gateway.resilience.breaker("mf").state == "closed"

    def test_scores_has_no_fallback_but_fails_typed(self, serving_dir, small_split):
        gateway = make_gateway(serving_dir, small_split, breaker_failure_threshold=1)
        gateway.resilience.breaker("mf").record_failure()  # force open
        with pytest.raises(CircuitOpenError, match="no fallback"):
            gateway.scores(np.arange(2), np.arange(3))

    def test_grouped_routing_isolates_a_broken_model(self, serving_dir, small_split):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, serve_stale_on_failure=False,
        )
        gateway.catalog.evict_all()
        with inject(self.evict_and_fault(gateway)):
            with pytest.raises(CircuitOpenError):
                gateway.top_k_mixed([("mf", 1), ("itempop", 2)])
            # itempop alone still serves while mf's breaker is open.
            result = gateway.top_k_mixed([("itempop", 1), ("itempop", 2)])
        assert result.items.shape[0] == 2


class TestProbeVerdictAlwaysLands:
    """Regression: a claimed half-open probe must never leak its verdict.

    A probe request that dies mid-serve for *any* reason — most likely a
    deadline expiring during the very cold start that opened the breaker —
    used to leave the breaker half-open forever: every later request was
    rejected and the warmer's ``try_probe`` could never claim the slot, so
    the model was permanently offline.
    """

    def test_probe_that_misses_its_deadline_reopens_not_wedges(
        self, serving_dir, small_split
    ):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, breaker_reset_seconds=0.0,
            serve_stale_on_failure=False,
        )
        gateway.catalog.evict_all()
        with inject(FaultPlan([FaultRule("gateway.score", match="mf", count=1)])):
            with pytest.raises(ServingUnavailableError):
                gateway.top_k(np.arange(4))
        breaker = gateway.resilience.breaker("mf")
        assert breaker.state == "open"
        # Reset window (0s) elapsed: the next request claims the probe, but
        # a stall pushes it past its deadline before the cold start begins.
        # Deadline expiry during a probe's cold start is exactly the
        # slowness that opened the breaker — it must count as a *failed
        # probe*, never wedge the breaker half-open.
        stall = FaultPlan([FaultRule("gateway.score", kind="stall", seconds=0.25, count=1)])
        with inject(stall):
            with pytest.raises(DeadlineExceededError):
                gateway.top_k(np.arange(4), deadline=0.05)
        assert breaker.state == "open", (
            "a probe that missed its deadline must re-open the breaker, "
            "not leave it half-open with the probe slot claimed forever"
        )
        # And recovery still works off the request path: the warmer claims
        # a fresh probe, the fault is gone, the breaker closes.
        warmer = CatalogWarmer(gateway.catalog, resilience=gateway.resilience)
        warmer.run_once()
        assert warmer.last_probe_results == {"mf": True}
        assert breaker.state == "closed"
        assert gateway.top_k(np.arange(4)).items.shape[0] == 4

    def test_probe_deadline_failure_counts_breaker_reopen(self, serving_dir, small_split):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, breaker_reset_seconds=0.0,
            serve_stale_on_failure=False,
        )
        gateway.catalog.evict_all()
        with inject(FaultPlan([FaultRule("gateway.score", match="mf", count=1)])):
            with pytest.raises(ServingUnavailableError):
                gateway.top_k(np.arange(4))
        stall = FaultPlan([FaultRule("gateway.score", kind="stall", seconds=0.25, count=1)])
        with inject(stall):
            with pytest.raises(DeadlineExceededError):
                gateway.top_k(np.arange(4), deadline=0.05)
        snap = gateway.metrics.snapshot()
        assert snap["models"]["mf"]["breaker_opens"] == 2, (
            "the failed probe's re-open is observable, like any other open"
        )
        assert snap["models"]["mf"]["deadline_exceeded"] == 1


class TestFallbackAdmission:
    """Fallback serves book the *serving* model's per-model admission share."""

    def test_fallback_serve_respects_the_fallback_models_budget(
        self, serving_dir, small_split
    ):
        gateway = make_gateway(
            serving_dir, small_split,
            max_inflight_per_model=1,
            breaker_failure_threshold=1, breaker_reset_seconds=60.0,
            serve_stale_on_failure=False, fallback_models=("itempop",),
        )
        gateway.catalog.evict_all()
        # Saturate the fallback model's per-model budget from elsewhere.
        release = gateway.resilience.admission.acquire("itempop")
        plan = FaultPlan([FaultRule("catalog.cold_start", match="mf", count=None)])
        with inject(plan):
            with pytest.raises(CircuitOpenError, match="per-model budget full"):
                # The primary faults; the fallback would serve, but its
                # budget is full — skipped, and the chain ends typed.
                gateway.top_k(np.arange(4))
            release()
            # Budget freed: the same outage now serves from the fallback.
            result = gateway.top_k(np.arange(4))
        assert result.items.shape[0] == 4
        assert gateway.metrics.snapshot()["models"]["mf"]["fallbacks_served"] == 1
        assert gateway.resilience.admission.inflight("itempop") == 0, (
            "the fallback's per-model share is released after the serve"
        )

    def test_fallback_admission_never_double_charges_the_total_budget(
        self, serving_dir, small_split
    ):
        gateway = make_gateway(
            serving_dir, small_split,
            max_inflight=1,  # the request itself holds the only total slot
            breaker_failure_threshold=1, breaker_reset_seconds=60.0,
            serve_stale_on_failure=False, fallback_models=("itempop",),
        )
        gateway.catalog.evict_all()
        with inject(FaultPlan([FaultRule("catalog.cold_start", match="mf", count=None)])):
            # If the fallback acquisition counted against the total budget
            # this would shed against the request's own slot and fail.
            result = gateway.top_k(np.arange(4))
        assert result.items.shape[0] == 4
        assert gateway.metrics.snapshot()["totals"]["sheds"] == 0


class TestGroupedBatchAttemptsEveryGroup:
    def test_groups_after_a_failed_group_still_serve_and_count(
        self, serving_dir, small_split
    ):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, serve_stale_on_failure=False,
        )
        gateway.catalog.evict_all()
        with inject(FaultPlan([FaultRule("catalog.cold_start", match="mf", count=None)])):
            # 'mf' is listed first, so its group fails first — 'itempop'
            # must still be attempted before the batch raises.
            with pytest.raises(CircuitOpenError):
                gateway.top_k_mixed([("mf", 1), ("itempop", 2), ("itempop", 3)])
        snap = gateway.metrics.snapshot()
        assert snap["models"]["itempop"]["requests"] == 1, (
            "the healthy group was served (one grouped serve, counted) even "
            "though an earlier group's failure fails the batch"
        )
        assert snap["models"]["mf"]["errors"] >= 1


class TestWarmerProbes:
    def test_probe_recovers_a_healed_model_off_the_request_path(self, serving_dir, small_split):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, breaker_reset_seconds=0.0,
            serve_stale_on_failure=False, fallback_models=("itempop",),
        )
        gateway.catalog.evict_all()
        plan = FaultPlan([FaultRule("catalog.cold_start", match="mf", count=2)])
        with inject(plan):
            gateway.top_k(np.arange(4))  # fault -> breaker opens -> fallback
        assert gateway.resilience.breaker("mf").state == "open"
        warmer = CatalogWarmer(gateway.catalog, resilience=gateway.resilience)
        warmer.run_once()  # fault window passed: the probe warms and closes
        assert warmer.last_probe_results == {"mf": True}
        assert gateway.resilience.breaker("mf").state == "closed"
        assert "mf" in gateway.catalog.resident_names, "probe pre-warmed; next request is a hit"

    def test_failed_probe_reopens_and_cycle_survives(self, serving_dir, small_split):
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, breaker_reset_seconds=0.0,
            serve_stale_on_failure=False, fallback_models=("itempop",),
        )
        gateway.catalog.evict_all()
        warmer = CatalogWarmer(
            gateway.catalog, names=["itempop"], resilience=gateway.resilience
        )
        plan = FaultPlan([FaultRule("catalog.cold_start", match="mf", count=None)])
        with inject(plan):
            gateway.top_k(np.arange(4))
            warmer.run_once()  # probe fails against the persisting fault
            assert warmer.last_probe_results == {"mf": False}
            assert gateway.resilience.breaker("mf").state == "open"

    def test_probe_never_rides_a_request(self, serving_dir, small_split):
        """While the breaker is open (timer not elapsed), requests never cold-start."""
        gateway = make_gateway(
            serving_dir, small_split,
            breaker_failure_threshold=1, breaker_reset_seconds=3600.0,
            serve_stale_on_failure=False, fallback_models=("itempop",),
        )
        gateway.catalog.evict_all()
        plan = FaultPlan([FaultRule("catalog.cold_start", match="mf", count=None)])
        with inject(plan):
            gateway.top_k(np.arange(4))
            attempts = plan.calls.get("catalog.cold_start", 0)
            for _ in range(5):
                gateway.top_k(np.arange(4))
            assert plan.calls.get("catalog.cold_start", 0) == attempts


class TestFailureMetrics:
    """Satellite: failure counters in snapshots, surviving merge_snapshots."""

    def test_all_failure_counters_appear_in_snapshot(self):
        registry = MetricsRegistry()
        registry.record("m", "sheds")
        registry.record("m", "deadline_exceeded")
        registry.record("m", "breaker_opens")
        registry.record("m", "fallbacks_served")
        snap = registry.snapshot()
        for key in ("sheds", "deadline_exceeded", "breaker_opens", "fallbacks_served"):
            assert snap["models"]["m"][key] == 1
            assert snap["totals"][key] == 1

    def test_counters_survive_merge(self):
        registries = [MetricsRegistry() for _ in range(3)]
        for i, registry in enumerate(registries):
            for _ in range(i + 1):
                registry.record("m", "sheds")
                registry.record("m", "fallbacks_served")
            registry.record("m", "deadline_exceeded")
        fleet = MetricsRegistry.merge_snapshots([r.snapshot() for r in registries])
        assert fleet["totals"]["sheds"] == 6
        assert fleet["totals"]["fallbacks_served"] == 6
        assert fleet["totals"]["deadline_exceeded"] == 3

    def test_merge_tolerates_old_snapshots_without_new_keys(self):
        old = MetricsRegistry()
        old.record_request("m", rows=2, seconds=0.01)
        old_snap = old.snapshot()
        for model in old_snap["models"].values():
            for key in ("sheds", "deadline_exceeded", "breaker_opens", "fallbacks_served"):
                model.pop(key, None)
        new = MetricsRegistry()
        new.record("m", "sheds")
        fleet = MetricsRegistry.merge_snapshots([old_snap, new.snapshot()])
        assert fleet["totals"]["sheds"] == 1
        assert fleet["totals"]["requests"] == 1

    def test_disabled_registry_ignores_failure_records(self):
        registry = MetricsRegistry(enabled=False)
        registry.record("m", "sheds")
        registry.record("m", "deadline_exceeded")
        assert registry.snapshot()["models"] == {}
