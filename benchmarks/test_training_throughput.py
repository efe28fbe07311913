"""Training-throughput benchmark for the row-sparse gradient engine.

Times seconds-per-epoch for GBGCN (SGD fine-tune), GBGCN-pretrain (Adam,
the paper's first training stage), MF and LightGCN at the repo's 2000-user
benchmark scale, and writes ``BENCH_training.json`` at the repo root — the
perf-trajectory record for the training path (the serving trajectory lives
in ``test_serving_latency.py``).

Two workload shapes, both 2000 users / 10000 behaviors / batch 512 /
``embedding_dim=32`` (the paper's Section IV-A setting):

* ``long-tail``  — 15000 items: a realistic catalog where a mini-batch
  touches a few hundred embedding rows out of many thousands.  This is the
  shape the sparse engine targets (the dense path paid a full-table zeros +
  ``np.add.at`` per lookup and a full-table optimizer step per batch).
* ``dense-catalog`` — 1500 items: the serving-bench shape of PR 1/2, where
  nearly every row is touched every batch — the *worst* case for sparsity,
  kept to show the engine never regresses.

The recorded pre-change baseline (seed engine, commit 39fc887) was measured
on the same machine as the first checked-in ``BENCH_training.json``; the
headline there is GBGCN 5.82 -> 1.59 s/epoch (3.7x) and MF 0.274 -> 0.067
(4.1x) on the long-tail shape.  Cross-machine runs should compare their own
dense-vs-sparse engine numbers (both are measured each run); the
pre-change-baseline speedup assertion is only enforced when
``REPRO_BENCH_COMPARE_BASELINE=1``.

Marked ``slow``: set ``REPRO_RUN_SLOW=1`` to run.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from repro.autograd import RowSparseGrad, use_dense_grads
from repro.data import GroupBuyingDataset, leave_one_out_split
from repro.data.schema import GroupBuyingBehavior, SocialEdge
from repro.models import ModelSettings, build_model
from repro.optim import SGD, Adam
from repro.training.factory import build_batch_iterator
from repro.training.trainer import Trainer

from _bench import TRAINING_SCHEMA, host_block, write_sections

REPO_ROOT = Path(__file__).resolve().parent.parent
OUTPUT_PATH = REPO_ROOT / "BENCH_training.json"

EMBEDDING_DIM = 32
BATCH_SIZE = 512
NUM_USERS = 2000
NUM_BEHAVIORS = 10000

#: Seconds/epoch of the pre-change engine (commit 39fc887), measured with
#: this exact harness (min of 3 epochs after 1 warm-up) on the machine that
#: produced the first checked-in BENCH_training.json.
PRE_CHANGE_BASELINE = {
    "long-tail": {"GBGCN": 5.819, "GBGCN-pretrain": 0.474, "MF": 0.274, "LightGCN": 0.790},
    "dense-catalog": {"GBGCN": 2.109, "GBGCN-pretrain": 0.225, "MF": 0.093, "LightGCN": 0.206},
}

WORKLOADS = {"long-tail": 15000, "dense-catalog": 1500}
MODELS = ["GBGCN", "GBGCN-pretrain", "MF", "LightGCN"]

_RESULTS = {}


def build_split(num_items, seed=11):
    rng = np.random.default_rng(seed)
    initiators = rng.integers(0, NUM_USERS, size=NUM_BEHAVIORS)
    items = rng.integers(0, num_items, size=NUM_BEHAVIORS)
    behaviors = []
    for initiator, item in zip(initiators, items):
        count = int(rng.integers(0, 3))
        participants = tuple(
            int(p) for p in rng.integers(0, NUM_USERS, size=count) if p != initiator
        )
        behaviors.append(
            GroupBuyingBehavior(
                initiator=int(initiator), item=int(item), participants=participants, threshold=1
            )
        )
    edges = [
        SocialEdge(int(a), int(b))
        for a, b in rng.integers(0, NUM_USERS, size=(3 * NUM_USERS, 2))
        if a != b
    ]
    dataset = GroupBuyingDataset(NUM_USERS, num_items, behaviors, edges, name="train-bench")
    return leave_one_out_split(dataset, seed=1)


@pytest.fixture(scope="module", params=list(WORKLOADS), ids=list(WORKLOADS))
def workload_split(request):
    return request.param, build_split(WORKLOADS[request.param])


def make_trainer(name, train_dataset):
    model = build_model(name, train_dataset, ModelSettings(embedding_dim=EMBEDDING_DIM))
    iterator = build_batch_iterator(model, train_dataset, batch_size=BATCH_SIZE, seed=0)
    # The paper fine-tunes GBGCN with vanilla SGD and trains everything
    # else (including the pre-train stage) with Adam.
    if name == "GBGCN":
        optimizer = SGD(model.parameters(), lr=0.05)
    else:
        optimizer = Adam(model.parameters(), lr=0.01, lazy=True)
    return Trainer(model, optimizer, iterator)


def time_epochs(trainer, epochs=3):
    trainer.train_epoch()  # warm caches (transposes, iterators, buffers)
    timings = []
    for _ in range(epochs):
        start = time.perf_counter()
        trainer.train_epoch()
        timings.append(time.perf_counter() - start)
    return min(timings)


def rows_touched_ratio(trainer):
    """Max embedding-table gradient density over one training batch."""
    model = trainer.model
    batch = next(iter(trainer.batch_iterator))
    model.zero_grad()
    model.batch_loss(batch).backward()
    ratios = []
    for _, parameter in model.named_parameters():
        if parameter.grad is None or parameter.data.ndim != 2:
            continue
        if isinstance(parameter.grad, RowSparseGrad):
            ratios.append(parameter.grad.density)
        else:
            ratios.append(1.0)  # dense gradient: every row pays
    model.zero_grad()
    return max(ratios) if ratios else 0.0


@pytest.mark.slow
@pytest.mark.parametrize("model_name", MODELS)
def test_training_throughput(benchmark, workload_split, model_name):
    workload, split = workload_split
    trainer = make_trainer(model_name, split.train)

    sparse_seconds = time_epochs(trainer)
    with use_dense_grads():
        dense_seconds = time_epochs(make_trainer(model_name, split.train))
    ratio = rows_touched_ratio(trainer)

    benchmark.extra_info["workload"] = workload
    benchmark.extra_info["rows_touched_vs_table_rows"] = round(ratio, 4)
    benchmark.extra_info["dense_engine_seconds_per_epoch"] = round(dense_seconds, 4)
    # One representative round through the already-warm trainer so the
    # pytest-benchmark table carries the headline number too.
    benchmark.pedantic(trainer.train_epoch, rounds=1, iterations=1)
    print(
        f"\nBENCH training {workload} {model_name}: {sparse_seconds:.3f}s/epoch "
        f"(dense engine {dense_seconds:.3f}s, rows-touched ratio {ratio:.2%})"
    )

    baseline = PRE_CHANGE_BASELINE[workload][model_name]
    _RESULTS.setdefault(workload, {})[model_name] = {
        "seconds_per_epoch": round(sparse_seconds, 4),
        "dense_engine_seconds_per_epoch": round(dense_seconds, 4),
        "pre_change_baseline_seconds_per_epoch": baseline,
        "speedup_vs_pre_change": round(baseline / sparse_seconds, 2),
        "rows_touched_vs_table_rows": round(ratio, 4),
    }

    # The sparse engine must never be a real regression over the dense
    # fallback on the same code (generous margin for machine noise).
    assert sparse_seconds <= dense_seconds * 1.35
    if os.environ.get("REPRO_BENCH_COMPARE_BASELINE") == "1":
        # Only meaningful on the machine that recorded the baseline.
        expected = {"GBGCN": 3.0, "GBGCN-pretrain": 3.0, "MF": 3.0, "LightGCN": 1.2}
        if workload == "long-tail":
            assert baseline / sparse_seconds >= expected[model_name]


@pytest.mark.slow
def test_optimizer_step_cost_is_sublinear_in_table_size(benchmark):
    """Sparse Adam step cost must track touched rows, not table rows.

    A 16x larger table with the same row-sparse gradient must not make the
    step meaningfully slower (the dense engine's step is O(table) and its
    moment state alone makes this ratio ~16x).
    """
    from repro.nn.module import Parameter

    rng = np.random.default_rng(0)
    rows = rng.integers(0, 12_500, size=512)
    values = rng.normal(size=(512, EMBEDDING_DIM))

    def step_seconds(table_rows, repeats=50):
        parameter = Parameter(np.zeros((table_rows, EMBEDDING_DIM)))
        optimizer = Adam([parameter], lr=0.01, lazy=True)
        grad = RowSparseGrad.from_scatter(parameter.data.shape, rows, values)
        parameter.grad = grad
        optimizer.step()  # warm up (state allocation)
        start = time.perf_counter()
        for _ in range(repeats):
            parameter.grad = grad
            optimizer.step()
        return (time.perf_counter() - start) / repeats

    small = step_seconds(12_500)
    large = step_seconds(200_000)
    benchmark.extra_info["step_seconds_12k_rows"] = round(small * 1e3, 4)
    benchmark.extra_info["step_seconds_200k_rows"] = round(large * 1e3, 4)
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    print(
        f"\nBENCH sparse Adam step: {small * 1e3:.3f} ms @12.5k rows, "
        f"{large * 1e3:.3f} ms @200k rows (16x table, {large / small:.2f}x cost)"
    )
    _RESULTS["optimizer_step_scaling"] = {
        "touched_rows": 512,
        "step_ms_at_12500_rows": round(small * 1e3, 4),
        "step_ms_at_200000_rows": round(large * 1e3, 4),
        "cost_ratio_for_16x_table": round(large / small, 2),
    }
    assert large <= small * 4  # sub-linear: far below the 16x dense ratio


@pytest.mark.slow
def test_write_bench_training_json():
    """Persist the trajectory point (runs after the parametrized timings)."""
    if not _RESULTS:
        pytest.skip("no timings collected in this run")
    config = {
        "num_users": NUM_USERS,
        "num_behaviors": NUM_BEHAVIORS,
        "batch_size": BATCH_SIZE,
        "embedding_dim": EMBEDDING_DIM,
        "epochs_timed": 3,
        "workload_items": WORKLOADS,
        "pre_change_baseline_commit": "39fc887",
        "host": host_block(),
    }
    write_sections(OUTPUT_PATH, TRAINING_SCHEMA, _RESULTS, config=config)
