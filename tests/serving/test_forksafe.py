"""Fork-safety of the serving runtime (regression: pre-fix this deadlocks).

``os.fork`` clones exactly one thread; every lock another thread holds at
fork time is cloned *locked forever* in the child.  The serving stack is
full of such locks (catalog, metrics registry, gateway counters, warmer
state) plus a warmer daemon thread the child inherits a dead handle to.
``repro.serving.forksafe`` re-initializes all of that via a process-wide
``os.register_at_fork`` hook.

``test_child_serves_while_parent_threads_hold_every_lock`` is the
regression test: it forks while a parent thread deliberately holds the
catalog lock, the metrics lock, the gateway counter lock and the warmer
state lock, then requires the child to scan/serve/snapshot.  Without the
fork hooks the child blocks on the first inherited lock and the test
fails by watchdog timeout.
"""

import gc
import os
import select
import signal
import sys
import threading

import numpy as np
import pytest

from repro.models import ModelSettings, build_model
from repro.persist import LAYOUT_DIR, save_model
from repro.serving import CatalogWarmer, ModelCatalog, ServingGateway, forksafe

pytestmark = [
    pytest.mark.procs,
    pytest.mark.skipif(not hasattr(os, "fork"), reason="os.fork unavailable"),
]

SETTINGS = ModelSettings(embedding_dim=8)
CHILD_DEADLINE_SECONDS = 30.0


@pytest.fixture()
def stack(small_split, tmp_path):
    directory = tmp_path / "models"
    save_model(build_model("MF", small_split.train, SETTINGS), directory / "mf.npz")
    save_model(
        build_model("ItemPop", small_split.train, SETTINGS),
        directory / "pop.npyd",
        layout=LAYOUT_DIR,
    )
    catalog = ModelCatalog(directory, small_split.train)
    gateway = ServingGateway(catalog, default_model="mf")
    warmer = CatalogWarmer(catalog)
    return catalog, gateway, warmer


def _run_in_fork(child_work) -> None:
    """Fork; run ``child_work`` in the child; fail the test if it hangs.

    The child reports success by writing a byte to a pipe and leaves with
    ``os._exit`` (never returning into pytest).  The parent watchdogs the
    pipe: a child deadlocked on an inherited lock is SIGKILLed and the
    test fails with a diagnosis instead of hanging the suite.
    """
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child
        status = 1
        try:
            os.close(read_fd)
            child_work()
            os.write(write_fd, b"k")
            status = 0
        except BaseException:
            try:
                import traceback

                traceback.print_exc(file=sys.stderr)
                sys.stderr.flush()
            except BaseException:
                pass
        finally:
            os._exit(status)

    os.close(write_fd)
    try:
        readable, _, _ = select.select([read_fd], [], [], CHILD_DEADLINE_SECONDS)
        if not readable:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail(
                f"forked child did not finish within {CHILD_DEADLINE_SECONDS:.0f}s — "
                f"deadlocked on a lock inherited locked from a parent thread"
            )
        assert os.read(read_fd, 1) == b"k", "child reported failure (see stderr)"
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
    finally:
        os.close(read_fd)


class _LockHolder:
    """Holds a set of locks from a background thread across a fork window."""

    def __init__(self, locks):
        self.locks = locks
        self._hold = threading.Event()
        self._holding = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self):
        for lock in self.locks:
            lock.acquire()
        self._holding.set()
        self._hold.wait()
        for lock in reversed(self.locks):
            lock.release()

    def __enter__(self):
        self._thread.start()
        assert self._holding.wait(timeout=10.0), "lock-holder thread never acquired"
        return self

    def __exit__(self, *exc):
        self._hold.set()
        self._thread.join(timeout=10.0)


def test_child_serves_while_parent_threads_hold_every_lock(stack):
    """REGRESSION — deadlocks without the ``os.register_at_fork`` hooks."""
    catalog, gateway, warmer = stack
    gateway.top_k(np.arange(4))  # locks + metrics exercised before the fork

    def child_work():
        assert sorted(catalog.names) == ["mf", "pop"]
        catalog.scan()
        result = gateway.top_k(np.arange(4), k=5)
        assert result.items.shape == (4, 5)
        snapshot = catalog.metrics.snapshot()
        assert snapshot["totals"]["requests"] >= 1
        warmer.run_once()

    locks = [
        catalog._lock,
        catalog.metrics._lock,
        warmer._state_lock,
    ]
    with _LockHolder(locks):
        _run_in_fork(child_work)


def test_child_sees_fresh_warmer_thread_state(stack):
    """The child must not inherit a ghost handle to the parent's warmer thread."""
    catalog, gateway, warmer = stack
    warmer.start()
    try:
        assert warmer.running

        def child_work():
            # The parent's daemon thread does not exist here; the handle must
            # say so, and a fresh warmer lifecycle must be possible.
            assert not warmer.running
            warmer.start()
            assert warmer.wait_for_cycles(1, timeout=20.0)
            warmer.stop()

        _run_in_fork(child_work)
    finally:
        warmer.stop(raise_errors=False)


def test_per_entry_load_locks_are_reset_in_child(stack):
    """Cold-start single-flight locks are also re-initialized per child."""
    catalog, gateway, warmer = stack
    catalog.warm("mf")
    entry_locks = [entry.load_lock for entry in catalog.entries.values()]
    assert entry_locks

    def child_work():
        catalog.evict("mf")
        catalog.warm("mf")  # would block forever on a cloned held load lock
        assert "mf" in catalog.resident_names

    with _LockHolder(entry_locks):
        _run_in_fork(child_work)


class TestProtectApi:
    def test_protect_requires_the_reinit_hook(self):
        with pytest.raises(TypeError, match="_reinit_after_fork_in_child"):
            forksafe.protect(object())

    def test_protect_registers_and_is_weak(self):
        class Reinitable:
            def _reinit_after_fork_in_child(self):
                pass

        # Collect first: cycles an earlier test left behind (a failed test's
        # traceback holding protected objects) would otherwise be collected
        # below and drop the count under the baseline.
        gc.collect()
        before = forksafe.protected_count()
        instance = Reinitable()
        forksafe.protect(instance)
        assert forksafe.protected_count() == before + 1
        del instance
        gc.collect()
        assert forksafe.protected_count() == before
