"""Header-only artifact inspection: cheap metadata reads and directory scans.

A model catalog that manages dozens of artifacts cannot afford to
decompress every parameter table just to learn *what* each file holds.
This module reads only the JSON header of an artifact (a few hundred
bytes; for the ``npz`` layout ``np.load`` is lazy, so the ``state/...``
arrays are never touched; for the ``dir`` layout only ``header.json`` is
read) and pairs it with two freshness identities:

* the **stat identity** — size and mtime of the artifact's *identity
  carrier* (the file itself for ``npz``; the ``header.json``, rewritten on
  every publish, for ``dir``) — the cheap first-line hot-swap check;
* a **content token** — a digest over member names, CRC-32 checksums and
  sizes (the npz central directory, or the ``dir`` header's ``members``
  manifest; no array decompression either way) — which catches same-size
  replacements inside one mtime tick, where the stat identity is blind
  (coarse-mtime filesystems, fast CI, ``os.utime``-pinned copies).

Both reads go through ``artifact._open_artifact``, the one place a reader
decides the layout; this module's only own layout branch is
:func:`artifact_stat`, because the file it stats differs by layout.

Example — write two artifacts, then index the directory without loading a
single weight array:

>>> import tempfile
>>> from pathlib import Path
>>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
>>> from repro.models import build_model
>>> from repro.persist import save_model, scan_artifact_directory
>>> split = leave_one_out_split(generate_dataset(
...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
>>> catalog_dir = Path(tempfile.mkdtemp())
>>> _ = save_model(build_model("MF", split.train), catalog_dir / "mf.npz")
>>> _ = save_model(build_model("ItemPop", split.train), catalog_dir / "pop.npz")
>>> scan = scan_artifact_directory(catalog_dir)
>>> sorted(scan.entries)
['mf', 'pop']
>>> scan.entries["mf"].header.model_name
'MF'
>>> scan.failures
{}
"""

from __future__ import annotations

import hashlib
import os
import random
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Tuple, Union

from .artifact import DIR_HEADER_FILENAME, DIR_SUFFIX, ArtifactHeader, _open_artifact
from .errors import ArtifactError, ArtifactFormatError

__all__ = [
    "ArtifactInfo",
    "ArtifactScan",
    "artifact_content_token",
    "artifact_stat",
    "read_artifact_header",
    "scan_artifact_directory",
]


def artifact_stat(path: Union[str, Path]) -> os.stat_result:
    """Stat the artifact's identity carrier — the freshness primitive.

    For the single-file ``npz`` layout that is the file itself; for the
    ``dir`` layout it is the ``header.json`` member, which the writer
    rewrites on every publish, so its ``(st_size, st_mtime_ns)`` change
    whenever the artifact does.  Statting the directory inode instead
    would miss republishes that keep the same member names.  Raises
    ``FileNotFoundError``/``OSError`` exactly like ``os.stat``.
    """
    path = Path(path)
    if path.is_dir():
        return os.stat(path / DIR_HEADER_FILENAME)
    return os.stat(path)


def artifact_content_token(path: Union[str, Path]) -> str:
    """Digest of an artifact's member checksums — content identity, cheap.

    Hashes every member's name, CRC-32 and uncompressed size: for the
    ``npz`` layout from the zip central directory (reading only the tail
    of the file), for the ``dir`` layout from the ``members`` manifest the
    writer recorded in ``header.json``.  The CRCs cover the actual array
    bytes, so two artifacts holding different weights always token
    differently even when their size and mtime collide; nothing is
    decompressed.  Raises
    :class:`~repro.persist.errors.ArtifactFormatError` for paths that are
    not readable artifacts (including files that vanished).
    """
    with _open_artifact(Path(path)) as artifact:
        return _content_token(artifact.members())


def _content_token(members: Iterable[Tuple[str, int, int]]) -> str:
    hasher = hashlib.sha256()
    for name, crc, size in members:
        hasher.update(f"{name}:{crc}:{size};".encode("utf-8"))
    return hasher.hexdigest()


@dataclass(frozen=True)
class ArtifactInfo:
    """One artifact's identity: validated header plus file-stat metadata.

    ``size_bytes`` / ``mtime_ns`` identify the *bytes on disk* at read
    time; a writer replacing the file (atomically, as ``save_model`` does)
    usually changes at least one of them, which is how
    :class:`~repro.serving.catalog.ModelCatalog` detects hot-swaps cheaply.
    ``content_token`` (:func:`artifact_content_token`) is the backstop for
    the stat identity's blind spot: a same-size replacement landing within
    one mtime tick still changes the token, because the token covers the
    members' CRC-32 checksums.
    """

    path: Path
    header: ArtifactHeader
    size_bytes: int
    mtime_ns: int
    content_token: str = ""

    @property
    def name(self) -> str:
        """Catalog name of the artifact: the file stem (``gbgcn.npz`` → ``gbgcn``)."""
        return self.path.stem

    @property
    def model_name(self) -> str:
        """The registry model the artifact holds (``GBGCN``, ``MF``, ...)."""
        return self.header.model_name

    def stat_differs(self, other: "ArtifactInfo") -> bool:
        """Whether ``other``'s stat identity differs (fast check; see :meth:`differs`)."""
        return (self.size_bytes, self.mtime_ns) != (other.size_bytes, other.mtime_ns)

    def differs(self, other: "ArtifactInfo") -> bool:
        """Whether ``other`` describes different bytes for the same path.

        Compares the stat identity *and* the content token, so a
        pinned-mtime same-size replacement is still reported as different.
        """
        return self.stat_differs(other) or self.content_token != other.content_token


@dataclass
class ArtifactScan:
    """Result of :func:`scan_artifact_directory`.

    ``entries`` maps catalog name (file stem) to :class:`ArtifactInfo` for
    every readable artifact; ``failures`` maps file name to the error
    message for files matching the pattern that are *not* valid artifacts,
    so an operator can diagnose a broken catalog directory from the scan
    alone.
    """

    directory: Path
    entries: Dict[str, ArtifactInfo] = field(default_factory=dict)
    failures: Dict[str, str] = field(default_factory=dict)


def read_artifact_header(path: Union[str, Path]) -> ArtifactInfo:
    """Read an artifact's header and stat identity without loading weights.

    Only the header is read — the npz ``__header__`` entry, or a dir
    artifact's ``header.json`` — so cost is independent of model size,
    making this safe to call over a whole directory of multi-hundred-MiB
    artifacts.  Raises the usual typed
    :class:`~repro.persist.errors.ArtifactError` subclasses for paths that
    are not valid artifacts.
    """
    path = Path(path)
    # Injectable point for the chaos rig: a FaultPlan can make this read
    # raise a transient OSError or stall (repro.serving.faults hook map).
    from ..serving.faults import fault_point

    fault_point("persist.read_header", str(path))
    # Stat before reading: if the artifact is replaced between the stat and
    # the read we record the *older* identity, so the next freshness check
    # still notices the swap (never the reverse, which would miss it).
    try:
        stat = artifact_stat(path)
    except FileNotFoundError as error:
        # Distinguish a vanished file (a concurrent deletion/republish race
        # — routine for a background rescan thread) from other IO trouble,
        # so a directory scan can report it for what it is.
        raise ArtifactFormatError(
            f"artifact file vanished before it could be read: {path}"
        ) from error
    except OSError as error:
        raise ArtifactFormatError(f"artifact file is not readable: {path} ({error})") from error
    # One open serves both reads (one zip central directory, or one parse
    # of header.json), so the header and the content token always describe
    # the same publish even under concurrent swaps.
    with _open_artifact(path) as artifact:
        header = artifact.header()
        token = _content_token(artifact.members())
    return ArtifactInfo(
        path=path,
        header=header,
        size_bytes=stat.st_size,
        mtime_ns=stat.st_mtime_ns,
        content_token=token,
    )


#: Default bounded-retry policy for transient header-read failures during a
#: directory scan: how many *re*-reads after the first failure, and the base
#: backoff (jittered, doubling per attempt).  A file caught mid-replace —
#: a transient ``OSError`` or a half-written archive — usually reads clean
#: milliseconds later; a permanently bad file still lands in
#: ``scan.failures`` after at most ``SCAN_RETRIES`` cheap re-reads, so
#: permanent failures surface promptly (the total added delay is bounded by
#: ``~3 * SCAN_RETRY_BACKOFF_SECONDS * 1.5`` per bad file).
SCAN_RETRIES = 2
SCAN_RETRY_BACKOFF_SECONDS = 0.01


def _read_header_with_retries(
    path: Path, retries: int, backoff_seconds: float
) -> ArtifactInfo:
    """``read_artifact_header`` with bounded, jittered retry on failure.

    Every failure class is retried — a mid-replace window can surface as
    ``OSError``, a vanished path, or a torn half-written archive
    (``ArtifactFormatError``), and distinguishing "transient" from
    "permanent" up front is guesswork.  Boundedness is the guarantee: a
    permanent failure propagates after ``retries`` extra reads, never an
    unbounded loop.  Backoff doubles per attempt with multiplicative
    jitter in [0.5x, 1.5x) so a fleet of scanners racing one publisher
    doesn't retry in lockstep.
    """
    attempt = 0
    while True:
        try:
            return read_artifact_header(path)
        except (ArtifactError, OSError):
            # A vanished artifact is permanent for this cycle (the
            # publisher deleted or renamed it) — surface it promptly
            # instead of burning retries on a file that cannot come back.
            if attempt >= retries or not path.exists():
                raise
            # repro: allow(RNG-001) -- retry-backoff jitter wants cross-process entropy, not reproducibility; seeding it would synchronize the very retries it decorrelates
            time.sleep(backoff_seconds * (2**attempt) * (0.5 + random.random()))
            attempt += 1


def scan_artifact_directory(
    directory: Union[str, Path],
    pattern: str = "*.npz",
    strict: bool = False,
    dir_pattern: str = f"*{DIR_SUFFIX}",
    retries: int = SCAN_RETRIES,
    retry_backoff_seconds: float = SCAN_RETRY_BACKOFF_SECONDS,
) -> ArtifactScan:
    """Index every artifact in ``directory`` via header-only reads.

    Regular files matching ``pattern`` are read as ``npz``-layout
    artifacts; subdirectories matching ``dir_pattern`` as ``dir``-layout
    artifacts.  Entries that fail header validation are recorded in
    :attr:`ArtifactScan.failures` (with ``strict=True`` the first failure
    raises instead — useful in tests and CI).  The scan is safe against a
    concurrent writer or deleter: a file that disappears between the
    directory listing and the header read degrades to a ``failures`` entry
    naming the race (never a propagated ``FileNotFoundError``), which is
    what a background rescan thread needs to coexist with publishers.  A
    failing header read is retried up to ``retries`` times with jittered
    backoff (``retry_backoff_seconds`` base) before being declared failed,
    so a file caught mid-replace does not flap in and out of ``failures``
    on every warmer cycle; pass ``retries=0`` to fail on the first error.
    Two entries whose stems collide (``gbgcn.npz`` vs a ``gbgcn.npyd``
    dir) are a hard error in both modes: a catalog name must identify
    exactly one artifact.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise ArtifactFormatError(f"artifact directory does not exist: {directory}")
    scan = ArtifactScan(directory=directory)
    candidates: Dict[str, Path] = {}
    for path in directory.glob(pattern):
        if path.is_file():
            candidates[path.name] = path
    for path in directory.glob(dir_pattern):
        if path.is_dir():
            candidates[path.name] = path
    for name in sorted(candidates):
        path = candidates[name]
        try:
            info = _read_header_with_retries(path, retries, retry_backoff_seconds)
        except ArtifactError as error:
            if strict:
                raise
            scan.failures[path.name] = str(error)
            continue
        except OSError as error:
            # A racing deletion can also surface from is_file()/glob stat
            # calls on some filesystems; degrade identically.
            if strict:
                raise ArtifactFormatError(f"artifact file is not readable: {path} ({error})") from error
            scan.failures[path.name] = f"artifact file is not readable: {path} ({error})"
            continue
        if info.name in scan.entries:
            raise ArtifactFormatError(
                f"catalog name {info.name!r} is ambiguous in {directory}: both "
                f"{scan.entries[info.name].path.name!r} and {path.name!r} match"
            )
        scan.entries[info.name] = info
    return scan
