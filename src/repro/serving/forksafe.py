"""Fork-safety for the serving runtime's locks and daemon threads.

``fork()`` copies exactly one thread into the child — whichever called
``fork`` — but copies *every* lock in whatever state it happens to be in.
A child forked while another thread holds a
:class:`~repro.serving.catalog.ModelCatalog` or
:class:`~repro.serving.metrics.MetricsRegistry` lock inherits a lock that
is **locked forever**: the owning thread does not exist in the child, so
the first request deadlocks.  A
:class:`~repro.serving.warmer.CatalogWarmer` is worse off still — its
daemon thread is simply gone in the child, while its bookkeeping claims
the warmer is running.

This module gives serving objects one rule to follow instead of N ad-hoc
fixes: implement ``_reinit_after_fork_in_child()`` (replace your locks,
forget your dead threads) and call :func:`protect` from ``__init__``.  A
single process-wide ``os.register_at_fork(after_in_child=...)`` hook —
registered lazily on the first :func:`protect` call, because registered
hooks can never be removed — walks a :class:`weakref.WeakSet` of live
protected instances and re-initializes each one inside the child, before
any user code runs.  Failures re-initializing one instance are reported
as a ``RuntimeWarning`` and do not block the others.

The hooks make *accidental* forks (a user calling ``os.fork`` or using a
``fork``-context ``multiprocessing`` pool around a live serving stack)
safe.  The supported multi-process serving tier,
:class:`~repro.serving.workers.WorkerPool`, uses the ``spawn`` context
and never inherits serving state at all — see
``docs/ARCHITECTURE.md`` ("Multi-process serving").

Usage — a class opts in by implementing the re-init hook and calling
:func:`protect` on construction (every serving class that owns a lock does):

>>> import threading
>>> from repro.serving import forksafe
>>> class Cache:
...     def __init__(self):
...         self._lock = threading.Lock()
...         forksafe.protect(self)
...     def _reinit_after_fork_in_child(self):
...         self._lock = threading.Lock()  # parent's lock state is meaningless
>>> cache = Cache()
>>> forksafe.protected_count() >= 1
True
"""

from __future__ import annotations

import os
import threading
import warnings
import weakref

__all__ = ["protect", "protected_count"]

_registry_lock = threading.Lock()
_protected: "weakref.WeakSet" = weakref.WeakSet()
_hook_installed = False


def protect(instance: object) -> None:
    """Re-initialize ``instance`` in any forked child, before it runs.

    ``instance`` must implement ``_reinit_after_fork_in_child()``.  Held
    weakly: protection ends when the instance is garbage-collected, and a
    protected object is never kept alive by this module.  Idempotent.
    """
    if not hasattr(instance, "_reinit_after_fork_in_child"):
        raise TypeError(
            f"{type(instance).__name__} cannot be fork-protected: it does not "
            f"implement _reinit_after_fork_in_child()"
        )
    global _hook_installed
    with _registry_lock:
        if not _hook_installed:
            # register_at_fork hooks are permanent, so install exactly one
            # for the process and fan out to whatever is alive at fork time.
            if hasattr(os, "register_at_fork"):  # absent on some platforms
                os.register_at_fork(after_in_child=_reinit_all_in_child)
            _hook_installed = True
        _protected.add(instance)


def protected_count() -> int:
    """Number of currently-protected live instances (observability/tests)."""
    with _registry_lock:
        return len(_protected)


def _reinit_all_in_child() -> None:
    # Runs inside the freshly-forked child, single-threaded by definition.
    # The parent's _registry_lock may have been held mid-fork, so do not
    # acquire it — replace it outright, then walk the inherited set.
    global _registry_lock
    _registry_lock = threading.Lock()
    for instance in list(_protected):
        try:
            instance._reinit_after_fork_in_child()
        except Exception as error:  # pragma: no cover - defensive
            warnings.warn(
                f"fork-safety re-init failed for {type(instance).__name__}: {error}",
                RuntimeWarning,
                stacklevel=1,
            )
