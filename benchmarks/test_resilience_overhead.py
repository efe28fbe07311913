"""Cost and SLO behavior of the resilience layer (`repro.serving.resilience`).

Two questions a production rollout asks before turning the policy on:

1. **What does it cost when nothing fails?**  Every request now pays a
   deadline stamp, an admission ticket, a breaker check and a fault-point
   probe.  The gate: the fully-armed happy path must stay within 10% of
   the bare gateway on the same workload (interleaved trials, medians, so
   machine drift cancels out).  Each trial runs for a fixed minimum wall
   time rather than a fixed request count, so a faster score path does
   not shrink the trials into the host's timing noise.

2. **What does a request experience when things do fail?**  Under a
   seeded stall storm (`repro.serving.faults`), successful requests must
   keep their usual latency, and *failed* requests must come back as
   typed errors bounded by the fault itself — never an unbounded queue.
   The storm is driven through the scenario engine's
   ``repro.serving.loadgen.ReplayHarness`` (sequential: ``concurrency=1``
   preserves the exact stall-count/deadline-count identity).

Both measurements merge into the ``resilience`` section of
``BENCH_serving.json`` (schema ``repro-serving-bench/v6``), next to the
catalog, retrieval, worker-scaling and scenario sections the other slow
benchmarks maintain.  Marked ``slow``: set ``REPRO_RUN_SLOW=1`` to run.
"""

import time
from pathlib import Path

import numpy as np
import pytest

from repro.data import GroupBuyingDataset, leave_one_out_split
from repro.data.schema import GroupBuyingBehavior, SocialEdge
from repro.models import ModelSettings, build_model
from repro.persist import save_model
from repro.serving import (
    BASELINE_PHASE,
    FaultPlan,
    FaultRule,
    ModelCatalog,
    ReplayHarness,
    ResiliencePolicy,
    ServingGateway,
    TrafficConfig,
    TrafficModel,
    inject,
)

from _bench import SERVING_SCHEMA, write_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_serving.json"

EMBEDDING_DIM = 16
NUM_USERS = 2000
NUM_ITEMS = 1500
BATCH_USERS = 64
TOP_K = 10

# Overhead measurement: interleaved plain/resilient trials, median-of-N.
TRIALS = 7
TRIAL_SECONDS = 1.0
OVERHEAD_GATE_PCT = 10.0

# SLO measurement: seeded stall storm against a deadline, driven through
# the scenario engine's replay rig (~300 requests at the configured rate).
SLO_DURATION_SECONDS = 3.0
SLO_RATE_PER_SECOND = 100.0
STALL_SECONDS = 0.02
STALL_PROBABILITY = 0.25
DEADLINE_SECONDS = 0.01

_RESULTS = {}


def _serving_split(seed=11):
    rng = np.random.default_rng(seed)
    behaviors = [
        GroupBuyingBehavior(initiator=int(m), item=int(n), participants=(), threshold=1)
        for m, n in zip(
            rng.integers(0, NUM_USERS, size=8000), rng.integers(0, NUM_ITEMS, size=8000)
        )
    ]
    edges = [
        SocialEdge(int(a), int(b))
        for a, b in rng.integers(0, NUM_USERS, size=(2 * NUM_USERS, 2))
        if a != b
    ]
    dataset = GroupBuyingDataset(NUM_USERS, NUM_ITEMS, behaviors, edges, name="resilience-bench")
    return leave_one_out_split(dataset, seed=1)


@pytest.fixture(scope="module")
def serving_setup(tmp_path_factory):
    split = _serving_split()
    directory = tmp_path_factory.mktemp("resilience-bench")
    save_model(build_model("MF", split.train, ModelSettings(embedding_dim=EMBEDDING_DIM)),
               directory / "mf.npz")
    return directory, split


def _make_gateway(directory, split, policy):
    catalog = ModelCatalog(directory, split.train, serving_dataset=split.full)
    gateway = ServingGateway(catalog, default_model="mf", policy=policy)
    gateway.top_k(np.arange(BATCH_USERS), k=TOP_K)  # absorb the cold start
    return gateway


def _requests_per_second(gateway, rng):
    """Served requests per second over one trial of at least TRIAL_SECONDS."""
    served = 0
    elapsed = 0.0
    started = time.perf_counter()
    while elapsed < TRIAL_SECONDS:
        gateway.top_k(rng.integers(0, NUM_USERS, size=BATCH_USERS), k=TOP_K)
        served += 1
        elapsed = time.perf_counter() - started
    return served / elapsed


@pytest.mark.slow
def test_happy_path_overhead_within_gate(serving_setup):
    """The fully-armed policy must cost < 10% on the no-failure path."""
    directory, split = serving_setup
    plain = _make_gateway(directory, split, policy=None)
    armed = _make_gateway(
        directory,
        split,
        ResiliencePolicy(
            deadline_seconds=5.0,
            max_inflight=64,
            breaker_failure_threshold=3,
            fallback_models=("mf",),
        ),
    )
    plain_rates, armed_rates = [], []
    for trial in range(TRIALS):
        rng = np.random.default_rng(1000 + trial)
        # Interleave (and alternate order) so drift hits both paths equally.
        first, second = (plain, armed) if trial % 2 == 0 else (armed, plain)
        rate_first = _requests_per_second(first, rng)
        rate_second = _requests_per_second(second, rng)
        plain_rate, armed_rate = (
            (rate_first, rate_second) if first is plain else (rate_second, rate_first)
        )
        plain_rates.append(plain_rate)
        armed_rates.append(armed_rate)

    plain_req_s = float(np.median(plain_rates))
    armed_req_s = float(np.median(armed_rates))
    overhead_pct = 100.0 * (plain_req_s / armed_req_s - 1.0)
    print(
        f"\nBENCH resilience overhead: {plain_req_s:,.0f} req/s bare vs "
        f"{armed_req_s:,.0f} req/s armed ({overhead_pct:+.1f}% overhead, "
        f"median of {TRIALS} interleaved trials)"
    )
    _RESULTS["overhead"] = {
        "batch_users": BATCH_USERS,
        "trial_seconds": TRIAL_SECONDS,
        "trials": TRIALS,
        "plain_req_s": round(plain_req_s, 1),
        "resilient_req_s": round(armed_req_s, 1),
        "overhead_pct": round(overhead_pct, 2),
        "gate_pct": OVERHEAD_GATE_PCT,
    }
    assert overhead_pct < OVERHEAD_GATE_PCT, (
        f"resilience layer costs {overhead_pct:.1f}% on the happy path "
        f"(gate {OVERHEAD_GATE_PCT:.0f}%)"
    )


@pytest.mark.slow
def test_slo_under_stall_storm(serving_setup):
    """Under seeded stalls, failures are typed and bounded by the fault."""
    directory, split = serving_setup
    gateway = _make_gateway(
        directory,
        split,
        # Stalls are not model faults, so the breaker stays closed and this
        # measures the deadline behavior in isolation.
        ResiliencePolicy(deadline_seconds=DEADLINE_SECONDS),
    )
    plan = FaultPlan(
        [
            FaultRule(
                "gateway.score",
                kind="stall",
                seconds=STALL_SECONDS,
                probability=STALL_PROBABILITY,
                count=None,
            )
        ],
        seed=7,
    )
    # The storm workload is the shared scenario-engine rig, replayed
    # sequentially (concurrency=1): open-loop scheduling at 10x speed
    # degenerates to back-to-back requests, so — exactly like the hand
    # loop this replaces — every stalled request, and only those, must
    # fail its deadline typed.
    stream = TrafficModel(
        TrafficConfig(
            duration_seconds=SLO_DURATION_SECONDS,
            base_rate_per_second=SLO_RATE_PER_SECOND,
            diurnal_amplitude=0.0,
            seed=5,
        )
    ).generate(num_users=NUM_USERS, num_items=NUM_ITEMS)
    with inject(plan):
        report = ReplayHarness(gateway, stream, k=TOP_K, speed=10.0, concurrency=1).run()

    outcome = report.phase(BASELINE_PHASE)
    assert report.ledger_reconciles
    assert outcome.errors == 0 and outcome.sheds == 0, (
        "pure stalls must surface as typed deadline failures only"
    )
    assert outcome.deadline_exceeded > 0, "the storm must actually break some deadlines"
    assert plan.total_triggered("gateway.score", "stall") == outcome.deadline_exceeded, (
        "every stalled request, and only those, must fail its deadline typed"
    )
    failure_latency = report.failure_snapshot["models"][BASELINE_PHASE]["request_latency"]
    failure_p99 = float(failure_latency["p99"])
    print(
        f"\nBENCH resilience SLO: {outcome.ok} ok (p50 {outcome.ok_p50_ms:.2f} ms, "
        f"p99 {outcome.ok_p99_ms:.2f} ms), {outcome.deadline_exceeded} typed deadline "
        f"failures (p99 {failure_p99 * 1000:.2f} ms) under "
        f"{STALL_SECONDS * 1000:.0f} ms stalls at p={STALL_PROBABILITY}"
    )
    _RESULTS["slo_under_stalls"] = {
        "requests": outcome.requests,
        "deadline_ms": DEADLINE_SECONDS * 1000.0,
        "stall_ms": STALL_SECONDS * 1000.0,
        "stall_probability": STALL_PROBABILITY,
        "ok": outcome.ok,
        "deadline_exceeded": outcome.deadline_exceeded,
        "ok_p50_ms": round(outcome.ok_p50_ms, 3),
        "ok_p99_ms": round(outcome.ok_p99_ms, 3),
        "failure_p99_ms": round(failure_p99 * 1000, 3),
    }
    # Healthy requests keep their latency: an ok request never waits out a
    # stall (the stall *is* what converts a request into a typed failure).
    # Histogram percentiles overshoot their bucket by <= ~12%.
    assert outcome.ok_p99_ms < DEADLINE_SECONDS * 1000.0 * 1.13
    # A failed request is bounded by the injected fault + scoring, not by
    # queueing: degradation stays proportional to the failure itself.
    assert failure_p99 < (STALL_SECONDS + DEADLINE_SECONDS + 0.05) * 1.13


@pytest.mark.slow
def test_write_resilience_into_bench_json():
    """Merge the section into BENCH_serving.json (runs after the timings)."""
    if not _RESULTS:
        pytest.skip("no resilience timings collected in this run")
    resilience = {
        "embedding_dim": EMBEDDING_DIM,
        "num_users": NUM_USERS,
        "num_items": NUM_ITEMS,
        "model": "MF",
        **_RESULTS,
    }
    write_sections(OUTPUT_PATH, SERVING_SCHEMA, {"resilience": resilience})
