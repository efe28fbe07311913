"""Artifacts read from many threads at once.

numpy parses every ``.npy`` header with ``ast.literal_eval``, and CPython
3.11 checks the AST converter's recursion depth against one counter per
interpreter.  A finalizer run by the garbage collector in the middle of one
thread's parse can hand the interpreter to another thread that parses too,
and the first then fails with ``SystemError``.  Serving threads read
artifacts concurrently (cold starts, hot-swap re-reads, the warmer), so the
reader must not let two parses overlap.
"""

import gc
import sys
import threading

import numpy as np
import pytest

from repro.models import build_model
from repro.persist import LAYOUT_DIR, LAYOUT_NPZ, read_state_dict, save_model


class Cycle:
    """Cyclic garbage whose collection runs Python code, so the interpreter
    may switch threads inside whatever allocation triggered the collection."""

    def __del__(self):
        sum(range(20))


@pytest.mark.parametrize("layout", [LAYOUT_NPZ, LAYOUT_DIR])
def test_threads_reading_one_artifact_raise_nothing(small_split, tmp_path, layout):
    path = tmp_path / ("mf.npyd" if layout == LAYOUT_DIR else "mf.npz")
    save_model(build_model("MF", small_split.train, rng=np.random.default_rng(0)), path, layout=layout)
    expected = read_state_dict(path)[1]
    stop = threading.Event()
    failures = []

    def read():
        try:
            while not stop.is_set():
                first, second = Cycle(), Cycle()
                first.other, second.other = second, first
                del first, second
                state = read_state_dict(path)[1]
                assert all(np.array_equal(state[key], expected[key]) for key in expected)
        except BaseException as error:  # noqa: BLE001 — surfaced below
            failures.append(error)
            stop.set()

    threshold, interval = gc.get_threshold(), sys.getswitchinterval()
    gc.set_threshold(10, 1, 1)
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(6)]
        for thread in threads:
            thread.start()
        stop.wait(1.0)
        stop.set()
        for thread in threads:
            thread.join(30)
    finally:
        sys.setswitchinterval(interval)
        gc.set_threshold(*threshold)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[0]
