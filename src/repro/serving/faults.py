"""Seeded, deterministic fault injection for the serving stack.

A resilience layer that has never watched a fault fire is a hypothesis,
not a feature.  This module is the standing failure-mode rig: named
**hook points** threaded through the serving stack (`persist` header
reads, catalog cold starts, gateway scoring, worker request handling)
call :func:`fault_point`, and an installed :class:`FaultPlan` decides —
deterministically — whether that call raises, stalls, or kills the
process.  With no plan installed every hook is a single global read,
so production code pays nothing.

Hook map (site → where it fires → faults that make sense there):

========================  =======================================  ==================
site                      fires in                                 typical faults
========================  =======================================  ==================
``persist.read_header``   :func:`repro.persist.read_artifact_header`  transient ``OSError``
``catalog.cold_start``    :meth:`ModelCatalog._cold_start`, before    artifact read error,
                          the artifact bytes are loaded               slow-IO stall
``gateway.score``         :meth:`ServingGateway._attempt`: every      stall (deadline
                          top-k, score and fallback attempt           pressure), error
``worker.request``        ``_worker_main``, before a request is       stall, SIGKILL at a
                          handled inside a pool worker                chosen request
========================  =======================================  ==================

Rules are matched by per-site **call index** (every ``fault_point`` call
increments a site counter), optionally windowed (``start``/``count``),
filtered by a ``match`` substring of the hook detail (e.g. a model
name), or fired with a seeded probability — all reproducible: the same
plan over the same call sequence fires the same faults.  Plans are
picklable, so a :class:`~repro.serving.workers.WorkerPool` can ship one
to its spawn workers.

Usage — inject one transient error into the next header read:

>>> from repro.serving.faults import FaultPlan, FaultRule, fault_point, inject
>>> plan = FaultPlan([FaultRule("persist.read_header", kind="error", error_type=OSError,
...                             error_message="injected EIO", count=1)])
>>> with inject(plan):
...     try:
...         fault_point("persist.read_header", "mf.npz")
...     except OSError as error:
...         print(error)
...     fault_point("persist.read_header", "mf.npz")   # second call: window passed
injected EIO [site=persist.read_header, call=0]
>>> plan.triggered
{('persist.read_header', 'error'): 1}
"""

from __future__ import annotations

import os
import random
import signal
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Type, Union

from ..persist.artifact import DIR_HEADER_FILENAME
from . import forksafe

__all__ = [
    "InjectedFaultError",
    "FaultRule",
    "FaultPlan",
    "fault_point",
    "install_plan",
    "clear_plan",
    "active_plan",
    "inject",
    "corrupt_artifact",
]


class InjectedFaultError(RuntimeError):
    """The default exception an ``error``-kind fault rule raises."""


#: Fault kinds a rule may carry.
KIND_ERROR = "error"
KIND_STALL = "stall"
KIND_KILL = "kill"
_KINDS = (KIND_ERROR, KIND_STALL, KIND_KILL)


@dataclass(frozen=True)
class FaultRule:
    """One deterministic fault: *where*, *what*, and *when*.

    ``site`` names the hook point (see the module hook map).  ``kind`` is
    ``"error"`` (raise ``error_type(error_message)``), ``"stall"``
    (``time.sleep(seconds)`` — then continue normally) or ``"kill"``
    (``SIGKILL`` the current process — worker-crash chaos).  The window
    ``[start, start + count)`` selects which per-site call indices fire
    (0-based; ``count=None`` means "from ``start`` forever").  ``match``
    restricts the rule to hook calls whose detail string contains it
    (e.g. a model or file name).  ``probability`` < 1.0 fires the rule on
    a seeded coin flip *within* the window — deterministic for a given
    plan seed and call sequence.
    """

    site: str
    kind: str = KIND_ERROR
    start: int = 0
    count: Optional[int] = 1
    match: Optional[str] = None
    probability: float = 1.0
    error_type: Type[BaseException] = InjectedFaultError
    error_message: str = "injected fault"
    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {_KINDS}")
        if self.start < 0 or (self.count is not None and self.count < 0):
            raise ValueError(f"start/count must be non-negative, got {self.start}/{self.count}")
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"probability must be in [0, 1], got {self.probability}")
        if self.kind == KIND_STALL and self.seconds < 0.0:
            raise ValueError(f"stall seconds must be >= 0, got {self.seconds}")

    def in_window(self, index: int) -> bool:
        if index < self.start:
            return False
        return self.count is None or index < self.start + self.count


class FaultPlan:
    """A seeded schedule of :class:`FaultRule` firings over hook points.

    Thread-safe (one internal lock serializes counter updates) and
    picklable — the lock and per-rule RNG streams are rebuilt on
    unpickle, so a plan shipped to a spawn worker replays the same
    deterministic schedule from call index 0 in that process.

    Observability: :attr:`calls` counts hook invocations per site,
    :attr:`triggered` counts fired faults per ``(site, kind)`` — the
    numbers a chaos test reconciles against its request tally.
    """

    def __init__(self, rules: Sequence[FaultRule], seed: int = 0) -> None:
        self.rules: List[FaultRule] = list(rules)
        self.seed = seed
        self._init_runtime()

    def _init_runtime(self) -> None:
        self._lock = threading.Lock()
        self.calls: Dict[str, int] = {}
        self.triggered: Dict[Tuple[str, str], int] = {}
        # One independent seeded stream per rule keeps probability draws
        # reproducible regardless of how other rules interleave.
        self._rngs = [random.Random(hash((self.seed, i)) & 0xFFFFFFFF) for i in range(len(self.rules))]
        forksafe.protect(self)

    def _reinit_after_fork_in_child(self) -> None:
        # A fork mid-``fire`` would hand the child a held _lock; the copied
        # counters and rule streams stay — the child continues the parent's
        # deterministic schedule from wherever the fork landed.
        self._lock = threading.Lock()

    def __getstate__(self):
        return {"rules": self.rules, "seed": self.seed}

    def __setstate__(self, state):
        self.rules = state["rules"]
        self.seed = state["seed"]
        self._init_runtime()

    def fire(self, site: str, detail: str = "") -> None:
        """Run every rule matching this hook call (called by :func:`fault_point`).

        At most one fault actually *executes* per call: the first matching
        rule wins (a kill or raise preempts the rest anyway; a stall then
        continues to later rules would make schedules confusing).
        """
        with self._lock:
            index = self.calls.get(site, 0)
            self.calls[site] = index + 1
            chosen: Optional[FaultRule] = None
            for rule_index, rule in enumerate(self.rules):
                if rule.site != site or not rule.in_window(index):
                    continue
                if rule.match is not None and rule.match not in detail:
                    continue
                if rule.probability < 1.0 and self._rngs[rule_index].random() >= rule.probability:
                    continue
                chosen = rule
                break
            if chosen is None:
                return
            key = (site, chosen.kind)
            self.triggered[key] = self.triggered.get(key, 0) + 1
        # Execute outside the lock: a stall must never serialize other
        # sites' hook calls (that would *create* a deadlock in the rig
        # built to prove there is none).
        if chosen.kind == KIND_STALL:
            time.sleep(chosen.seconds)
            return
        if chosen.kind == KIND_KILL:
            os.kill(os.getpid(), signal.SIGKILL)
            return  # pragma: no cover — the signal does not return
        raise chosen.error_type(f"{chosen.error_message} [site={site}, call={index}]")

    def total_triggered(self, site: Optional[str] = None, kind: Optional[str] = None) -> int:
        """Fired-fault count, optionally filtered by site and/or kind."""
        with self._lock:
            return sum(
                n
                for (s, k), n in self.triggered.items()
                if (site is None or s == site) and (kind is None or k == kind)
            )

    def __repr__(self) -> str:
        return f"FaultPlan({len(self.rules)} rule(s), seed={self.seed}, triggered={dict(self.triggered)})"


#: The process-wide active plan (None = every hook is a no-op).
_ACTIVE: Optional[FaultPlan] = None


def fault_point(site: str, detail: str = "") -> None:
    """Hook call placed at an injectable point of the serving stack.

    With no plan installed this is one global read — cheap enough to
    leave in production paths permanently.
    """
    plan = _ACTIVE
    if plan is not None:
        plan.fire(site, detail)


def install_plan(plan: FaultPlan) -> None:
    """Make ``plan`` the process-wide active plan (replacing any other)."""
    global _ACTIVE
    _ACTIVE = plan


def clear_plan() -> None:
    """Deactivate fault injection (hooks become no-ops again)."""
    global _ACTIVE
    _ACTIVE = None


def active_plan() -> Optional[FaultPlan]:
    """The currently installed plan, or None."""
    return _ACTIVE


@contextmanager
def inject(plan: FaultPlan) -> Iterator[FaultPlan]:
    """Install ``plan`` for the duration of a ``with`` block (test idiom)."""
    global _ACTIVE
    previous = _ACTIVE
    install_plan(plan)
    try:
        yield plan
    finally:
        _ACTIVE = previous


def corrupt_artifact(path: Union[str, Path], seed: int = 0, num_bytes: int = 8) -> List[int]:
    """Deterministically flip header bytes of an artifact on disk.

    The chaos-suite primitive for "a publish went bad mid-swap": for an
    ``npz`` artifact, bytes near the start of the zip stream are XOR-flipped
    (corrupting the local file header, so the next read fails as a bad
    archive); for a ``dir``-layout artifact the ``header.json`` is
    corrupted.  Returns the flipped offsets so a test can assert or undo.
    Seeded: the same ``(path, seed)`` flips the same bytes.
    """
    path = Path(path)
    target = path / DIR_HEADER_FILENAME if path.is_dir() else path
    data = bytearray(target.read_bytes())
    if not data:
        raise ValueError(f"cannot corrupt empty file {target}")
    rng = random.Random(seed)
    # Flip within the first KiB: that is where the zip local header / the
    # JSON structure lives, so the corruption is guaranteed to be seen by a
    # header-only read, not hidden in an array tail nobody parses.
    window = min(len(data), 1024)
    offsets = sorted(rng.sample(range(window), min(num_bytes, window)))
    for offset in offsets:
        data[offset] ^= 0xFF
    target.write_bytes(bytes(data))
    return offsets
