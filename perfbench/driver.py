"""Open-loop load driver timed from each request's scheduled arrival.

Requests are due on a fixed schedule whether or not earlier ones have
finished.  A fixed number of driver threads take requests in schedule
order; a thread that falls behind sends the next request at once, so the
time a request waits behind a slow one lands in its response time (the
coordinated-omission error a dispatch-started clock makes).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

import numpy as np

OK, SHED, DEADLINE, ERROR = 0, 1, 2, 3
OUTCOMES = ("ok", "shed", "deadline", "error")
NOT_RUN = -1
#: The schedule starts this long after the call, so the driver threads
#: are running before the first request is due.
LEAD_SECONDS = 0.05


@dataclass
class Timings:
    """Per-request clock readings (``time.perf_counter`` seconds)."""

    scheduled: np.ndarray
    dispatched: np.ndarray
    replied: np.ndarray
    outcome: np.ndarray

    @property
    def response(self) -> np.ndarray:
        return self.replied - self.scheduled

    @property
    def service(self) -> np.ndarray:
        return self.replied - self.dispatched

    @property
    def queue_wait(self) -> np.ndarray:
        return self.dispatched - self.scheduled


def ledger(timings: Timings, phases: np.ndarray, phase_names: Sequence[str]) -> Dict[str, Dict[str, int]]:
    """Per-phase ``sent`` and outcome counts; a request never run counts nowhere."""
    book = {}
    for code, name in enumerate(phase_names):
        mask = phases == code
        row = {"sent": int(mask.sum())}
        for outcome, label in enumerate(OUTCOMES):
            row[label] = int(np.sum(timings.outcome[mask] == outcome))
        book[name] = row
    return book


def balances(book: Dict[str, Dict[str, int]]) -> bool:
    return all(row["sent"] == sum(row[label] for label in OUTCOMES) for row in book.values())


def percentile_ms(seconds: np.ndarray, q: float) -> float:
    return float(np.percentile(seconds, q) * 1000.0) if seconds.size else 0.0


def run_open_loop(
    arrivals: np.ndarray,
    call: Callable[[int], object],
    classify: Callable[[BaseException], int],
    threads: int = 2,
    keep: Optional[set] = None,
    on_done: Optional[Callable[[int, float, float, float], None]] = None,
):
    """Send request ``i`` at ``start + arrivals[i]`` by calling ``call(i)``.

    Returns ``(timings, kept)`` where ``kept`` maps each index in ``keep``
    to its result.  ``classify`` maps an exception to an outcome code;
    anything it does not recognise is an error.  ``on_done`` receives
    ``(index, scheduled, dispatched, replied)`` after each request.
    """
    count = int(arrivals.size)
    start = time.perf_counter() + LEAD_SECONDS
    scheduled = start + np.asarray(arrivals, dtype=np.float64)
    dispatched = np.zeros(count)
    replied = np.zeros(count)
    outcome = np.full(count, NOT_RUN, dtype=np.int8)
    kept: Dict[int, object] = {}
    keep = keep or set()
    lock = threading.Lock()
    cursor = [0]
    failures = []

    def worker() -> None:
        try:
            while True:
                with lock:
                    index = cursor[0]
                    cursor[0] += 1
                if index >= count:
                    return
                due = scheduled[index]
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                sent = time.perf_counter()
                try:
                    result = call(index)
                    code = OK
                except Exception as error:  # noqa: BLE001 — every failure is ledgered
                    result = None
                    code = classify(error)
                done = time.perf_counter()
                dispatched[index] = sent
                replied[index] = done
                outcome[index] = code
                if index in keep and code == OK:
                    kept[index] = result
                if on_done is not None:
                    on_done(index, due, sent, done)
        except BaseException as error:  # a dead driver thread must not pass silently
            failures.append(error)

    pool = [threading.Thread(target=worker, name=f"driver-{n}", daemon=True) for n in range(threads)]
    for thread in pool:
        thread.start()
    for thread in pool:
        thread.join()
    if failures:
        raise RuntimeError(f"driver thread failed: {failures[0]!r}") from failures[0]
    return Timings(scheduled, dispatched, replied, outcome), kept
