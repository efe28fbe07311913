"""The :class:`CatalogWarmer`: keep a catalog hot off the request path.

A lazily-loading :class:`~repro.serving.catalog.ModelCatalog` makes the
*first* request after a cold start or a hot-swap pay the full model load
and propagation (~27 ms for GBGCN at the repo's 2000-user scale) — a
tail-latency cliff under live traffic.  The warmer moves that work onto a
background thread:

* **periodic rescan** — every cycle re-indexes the artifact directory
  (:meth:`ModelCatalog.scan`), picking up newly published, replaced
  (including same-size/same-mtime replacements, via the content token) and
  deleted artifacts;
* **pre-warm** — every cycle loads the configured models (all servable
  models by default) so requests never cold-start in-line;
* **off-request hot-swap** — a replaced artifact is reloaded by the cycle,
  so the next request is a plain residency hit with zero reload latency.

When the catalog has a :class:`~repro.serving.catalog.RetrievalPolicy`,
each pre-warm/hot-swap also (re)builds or re-reads the model's ANN
retrieval index inside the cold-start — on this thread, never on the
request path, so requests never pay k-means clustering latency either.

The thread is daemonic and stoppable; the context-manager form stops it on
exit.  Exceptions raised by a cycle are never swallowed: synchronous
:meth:`run_once` raises them directly, the background loop records them in
:attr:`errors` / :attr:`last_error` and keeps cycling (one bad publish must
not kill warming for the rest of the fleet), and :meth:`stop` re-raises the
last recorded error unless told not to.

Usage — run one warming cycle synchronously (deterministic; the background
form is ``with CatalogWarmer(catalog, interval_seconds=5.0):``):

>>> import tempfile
>>> from pathlib import Path
>>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
>>> from repro.models import build_model
>>> from repro.persist import save_model
>>> from repro.serving import CatalogWarmer, ModelCatalog
>>> split = leave_one_out_split(generate_dataset(
...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
>>> directory = Path(tempfile.mkdtemp())
>>> _ = save_model(build_model("MF", split.train), directory / "mf.npz")
>>> catalog = ModelCatalog(directory, split.train)
>>> warmer = CatalogWarmer(catalog)
>>> sorted(warmer.run_once())      # scanned, and every model pre-warmed
['mf']
>>> catalog.resident_names
['mf']
"""

from __future__ import annotations

import threading
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import forksafe
from .catalog import CatalogError, ModelCatalog
from .resilience import ResilienceState

__all__ = ["CatalogWarmerError", "CatalogWarmer"]


class CatalogWarmerError(CatalogError):
    """A warming cycle failed; the original exception is chained as ``__cause__``."""


class CatalogWarmer:
    """Background rescan + pre-warm thread for a :class:`ModelCatalog`.

    Parameters
    ----------
    catalog:
        The catalog to keep warm.  All catalog access goes through the
        catalog's own locks, so the warmer can run concurrently with
        serving threads.
    interval_seconds:
        Sleep between cycles of the background loop (the first cycle runs
        immediately on :meth:`start`).
    names:
        The models to pre-warm each cycle; ``None`` warms every servable
        model.  With a ``resident_budget`` tighter than the fleet, pass the
        subset you want pinned — warming more models than the budget holds
        just churns the LRU.
    rescan:
        Whether each cycle re-indexes the artifact directory first
        (default).  ``False`` only re-warms/refreshes the already-known
        entries.
    max_errors:
        How many cycle errors to retain in :attr:`errors` (oldest dropped).
    resilience:
        A gateway's :class:`~repro.serving.resilience.ResilienceState`.
        When given, every cycle also drives the half-open probes of any
        open circuit breakers (``probe_open_circuits``): the warmer — not
        a live request — pays the recovery cold-start, and a recovered
        model's breaker closes before traffic touches it again.  Probe
        outcomes land in :attr:`last_probe_results`; a failed probe is the
        expected outcome while the fault persists and never fails the
        cycle.
    """

    def __init__(
        self,
        catalog: ModelCatalog,
        interval_seconds: float = 5.0,
        *,
        names: Optional[Sequence[str]] = None,
        rescan: bool = True,
        max_errors: int = 32,
        resilience: Optional[ResilienceState] = None,
    ) -> None:
        if interval_seconds <= 0:
            raise ValueError(f"interval_seconds must be positive, got {interval_seconds}")
        if max_errors < 1:
            raise ValueError(f"max_errors must be at least 1, got {max_errors}")
        self.catalog = catalog
        self.interval_seconds = float(interval_seconds)
        self.names = None if names is None else list(names)
        self.rescan = rescan
        self.max_errors = max_errors
        self.resilience = resilience
        #: name → outcome of the most recent cycle's half-open probes.
        self.last_probe_results: Dict[str, bool] = {}
        #: Completed background cycles (successful or failed).
        self.cycles = 0
        #: ``(cycle_number, exception)`` pairs from failed background cycles.
        self.errors: List[Tuple[int, BaseException]] = []
        self._thread: Optional[threading.Thread] = None
        self._stop_event = threading.Event()
        self._state_lock = threading.Lock()
        forksafe.protect(self)

    def _reinit_after_fork_in_child(self) -> None:
        """Reset thread state a fork silently invalidated (child only).

        The daemon thread does not exist in the forked child, but the
        inherited ``_thread`` handle claims it does — ``start()`` would
        refuse to run and ``stop()`` would join a ghost.  Locks are
        replaced for the same reason as everywhere else; the child decides
        for itself whether to ``start()`` a fresh warmer.
        """
        self._thread = None
        self._stop_event = threading.Event()
        self._state_lock = threading.Lock()

    # ------------------------------------------------------------------
    # One cycle (synchronous — raises on failure)
    # ------------------------------------------------------------------
    def run_once(self) -> Dict[str, float]:
        """Rescan (optionally) and pre-warm now, in the calling thread.

        Returns name → cold-start seconds for every warmed model (0.0 for
        models that were already resident and fresh).  Any failure raises;
        the synchronous form never hides errors.  A per-model warm failure
        (unservable replacement, vanished artifact) does *not* stop the
        cycle: the remaining models are still warmed first, then one
        :class:`CatalogWarmerError` naming every failed model is raised —
        one bad publish must not starve the rest of the fleet of its
        pre-warm/hot-swap.  An unreadable directory fails the whole cycle
        up front.
        """
        if self.rescan:
            self.catalog.scan()
        targets = self.catalog.names if self.names is None else list(self.names)
        warmed: Dict[str, float] = {}
        failures: Dict[str, BaseException] = {}
        for name in targets:
            if name not in self.catalog:
                continue  # configured name not published (yet); not an error
            try:
                warmed[name] = self.catalog.warm(name)
            except Exception as error:  # noqa: BLE001 — re-raised below
                failures[name] = error
        if self.resilience is not None:
            # Drive half-open probes here — on the warmer's thread — so a
            # recovering model's first cold start never rides a request.
            # A failed probe is the expected steady state while the fault
            # persists; it must not fail the cycle.
            self.last_probe_results = self.resilience.probe_open_circuits(self.catalog)
        if failures:
            first = next(iter(failures.values()))
            raise CatalogWarmerError(
                f"warming failed for {sorted(failures)} "
                f"(the other {len(warmed)} model(s) were still warmed)"
            ) from first
        return warmed

    # ------------------------------------------------------------------
    # Background lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    @property
    def last_error(self) -> Optional[BaseException]:
        with self._state_lock:
            return self.errors[-1][1] if self.errors else None

    def start(self) -> "CatalogWarmer":
        """Start the background thread (first cycle runs immediately).

        A stopped warmer may be started again (``stop`` drains the errors
        it reports, so a restart begins with a clean slate).
        """
        if self._thread is not None:
            raise RuntimeError("CatalogWarmer is already running; stop() it before restarting")
        self._stop_event.clear()
        self._thread = threading.Thread(
            target=self._loop, name=f"catalog-warmer-{id(self.catalog):x}", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while True:
            try:
                self.run_once()
            except Exception as error:  # noqa: BLE001 — recorded, surfaced on stop()
                with self._state_lock:
                    self.errors.append((self.cycles, error))
                    del self.errors[: -self.max_errors]
            with self._state_lock:
                self.cycles += 1
            if self._stop_event.wait(self.interval_seconds):
                return

    def stop(self, timeout: Optional[float] = 10.0, raise_errors: bool = True) -> None:
        """Stop the background thread and join it.

        With ``raise_errors`` (default) the last cycle error — if any
        cycle failed since the errors were last reported — is re-raised as
        a :class:`CatalogWarmerError` chained to the original exception, so
        background failures cannot pass silently.  Reported errors are
        drained, so a later :meth:`start`/:meth:`stop` round only surfaces
        its *own* failures (with ``raise_errors=False`` they stay in
        :attr:`errors` for inspection instead).
        """
        thread = self._thread
        if thread is not None:
            self._stop_event.set()
            thread.join(timeout=timeout)
            if thread.is_alive():
                raise CatalogWarmerError(
                    f"warmer thread did not stop within {timeout} s (a cycle is stuck "
                    f"in catalog IO?)"
                )
            self._thread = None
        if raise_errors and self.errors:
            with self._state_lock:
                reported, self.errors = self.errors, []
            cycle, error = reported[-1]
            raise CatalogWarmerError(
                f"{len(reported)} warming cycle(s) failed (last: cycle {cycle}); "
                f"see the chained exception"
            ) from error

    def wait_for_cycles(self, count: int, timeout: float = 10.0) -> bool:
        """Block until ``count`` background cycles completed (True) or timeout."""
        end = time.monotonic() + timeout
        while True:
            with self._state_lock:
                if self.cycles >= count:
                    return True
            if time.monotonic() >= end:
                return False
            time.sleep(0.005)

    def __enter__(self) -> "CatalogWarmer":
        return self.start()

    def __exit__(self, exc_type, exc, tb) -> None:
        # Don't mask an in-flight exception from the with-body with a
        # (possibly consequential) warmer error.
        self.stop(raise_errors=exc_type is None)

    def __repr__(self) -> str:
        state = "running" if self.running else "stopped"
        names = "all" if self.names is None else self.names
        return (
            f"CatalogWarmer({state}, interval={self.interval_seconds}s, names={names}, "
            f"cycles={self.cycles}, errors={len(self.errors)})"
        )
