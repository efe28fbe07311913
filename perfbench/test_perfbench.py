"""Tests of the benchmark's own machinery: the open-loop clock, spans, ledger, inputs.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

import threading
import time

import numpy as np
import pytest

from perfbench import driver, inputs, tracing


def _classify(error):
    return driver.SHED if isinstance(error, KeyError) else driver.ERROR


@pytest.mark.parametrize("threads", [1, 2])
def test_a_stalled_request_delays_the_requests_scheduled_behind_it(threads):
    """Response time runs from scheduled arrival, so a stall shows in later requests."""
    arrivals = np.arange(100) * 0.005
    stall_index, stall = 5, 0.2
    server = threading.Lock()  # one request at a time, like a serialized server

    def call(index):
        with server:
            time.sleep(stall if index == stall_index else 0.0005)

    timings, _ = driver.run_open_loop(arrivals, call, _classify, threads=threads)
    behind = np.arange(stall_index + 1, stall_index + 20)
    # Every request due during the stall waited for it...
    due_during = behind[arrivals[behind] < arrivals[stall_index] + stall - 0.05]
    expected_wait = arrivals[stall_index] + stall - arrivals[due_during]
    assert np.all(timings.response[due_during] >= expected_wait - 0.02)
    # ...while the requests far ahead of the stall, and those long after it, did not.
    assert np.all(timings.response[:stall_index] < 0.05)
    assert np.all(timings.response[-20:] < 0.05)
    # A clock started at dispatch would have hidden the wait of the first
    # request behind the stall, which was sent late rather than served slowly.
    if threads == 1:
        first = stall_index + 1
        assert timings.service[first] < 0.05 < timings.response[first]


def test_outcomes_land_in_the_ledger_and_it_balances():
    arrivals = np.zeros(30)
    phases = (np.arange(30) >= 20).astype(np.int8)

    def call(index):
        if index % 10 == 3:
            raise KeyError(index)
        if index % 10 == 7:
            raise RuntimeError(index)
        return index

    timings, kept = driver.run_open_loop(arrivals, call, _classify, threads=2, keep={0, 3, 8})
    book = driver.ledger(timings, phases, inputs.PHASE_NAMES)
    assert book["baseline"] == {"sent": 20, "ok": 16, "shed": 2, "deadline": 0, "error": 2}
    assert book["burst"] == {"sent": 10, "ok": 8, "shed": 1, "deadline": 0, "error": 1}
    assert driver.balances(book)
    assert kept == {0: 0, 8: 8}  # failed requests keep no result


def test_a_request_that_never_ran_unbalances_the_ledger():
    timings = driver.Timings(
        scheduled=np.zeros(3), dispatched=np.zeros(3), replied=np.zeros(3),
        outcome=np.asarray([driver.OK, driver.NOT_RUN, driver.ERROR], dtype=np.int8),
    )
    book = driver.ledger(timings, np.zeros(3, dtype=np.int8), inputs.PHASE_NAMES)
    assert book["baseline"]["sent"] == 3
    assert not driver.balances(book)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        (1, 0, 7, "parent", 0.0, 10.0),
        (2, 1, 7, "child", 1.0, 3.0),
        (3, 1, 7, "child", 2.0, 4.0),  # overlaps the first child
        (4, 1, 7, "child", 8.0, 12.0),  # runs past the parent's end
        (5, 2, 7, "grandchild", 1.5, 2.5),
    ]
    own = tracing.self_times(spans)
    assert own[1] == pytest.approx(10.0 - (3.0 + 2.0))  # [1, 4] and [8, 10]
    assert own[2] == pytest.approx(2.0 - 1.0)
    assert own[5] == pytest.approx(1.0)
    assert tracing.union_length([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)
    assert tracing.union_length([]) == 0.0


def test_recorded_spans_nest_and_their_self_times_add_up_to_the_root():
    recorder = tracing.SpanRecorder()

    class Layer:
        def inner(self):
            time.sleep(0.01)

        def outer(self):
            time.sleep(0.005)
            self.inner()
            self.inner()

    layer = Layer()
    recorder.wrap(layer, "inner", "inner")
    recorder.wrap(layer, "outer", "outer")
    with recorder.request(42):
        layer.outer()
    by_name = {span[tracing.NAME]: span for span in recorder.spans}
    root = by_name["outer"]
    assert root[tracing.PARENT] == 0
    assert all(span[tracing.REQUEST] == 42 for span in recorder.spans)
    assert all(span[tracing.PARENT] == root[tracing.ID] for span in recorder.spans if span[tracing.NAME] == "inner")
    own = tracing.self_times(recorder.spans)
    assert sum(own.values()) == pytest.approx(root[tracing.END] - root[tracing.START])
    grouped = tracing.self_time_by_name(recorder.spans)
    assert len(grouped["inner"]) == 2 and min(grouped["inner"]) >= 0.009


def test_unattributed_share_counts_time_no_top_level_span_covers():
    spans = [
        (1, 0, 1, "queue", 0.0, 2.0),
        (2, 0, 1, "gateway", 2.5, 9.0),
        (3, 2, 1, "store", 3.0, 8.0),
        (4, 0, 2, "gateway", 0.0, 10.0),
    ]
    windows = {1: (0.0, 10.0), 2: (0.0, 10.0)}
    # Request 1 misses [2, 2.5] and [9, 10]; request 2 is fully covered.
    assert tracing.unattributed_share(spans, windows) == pytest.approx(1.5 / 20.0)


def test_inputs_are_pinned_by_the_seed():
    def build(seed):
        population = inputs.make_population(seed, 300, 200, 1000)
        stream = inputs.make_stream(
            seed, 300, {"a": 0.6, "b": 0.4}, rate=200.0, burst_multiplier=2.0,
            baseline_seconds=4.0, burst_seconds=2.0, user_exponent=1.0,
        )
        return population, stream

    first, again, other = build(5), build(5), build(6)
    digest = inputs.digest(first[0].arrays(), first[1].arrays())
    assert digest == inputs.digest(again[0].arrays(), again[1].arrays())
    assert digest != inputs.digest(other[0].arrays(), other[1].arrays())
    population, stream = first
    assert population.participant_counts.sum() == population.participants.size
    assert not np.any(population.social_pairs[:, 0] == population.social_pairs[:, 1])
    assert np.all(np.diff(stream.arrivals) >= 0) and stream.arrivals[-1] < 6.0
    sent = stream.sent()
    # A diurnal baseline averages the nominal rate; the burst holds 2x it.
    assert 800 * 0.85 < sent["baseline"] < 800 * 1.15
    assert 800 * 0.85 < sent["burst"] < 800 * 1.15
    assert 0.0 < stream.repeat_frac() < 1.0
