"""Versioned model artifacts: save a trained model once, serve it anywhere.

An artifact exists in one of two on-disk layouts:

* ``layout="npz"`` (format v1, the default) — a single ``.npz`` archive
  holding ``__header__`` (a JSON document stored as raw UTF-8 bytes),
  ``state/<key>`` arrays, and optionally ``index/<key>`` arrays of an
  embedded :class:`~repro.serving.retrieval.RetrievalIndex`;
* ``layout="dir"`` (format v2) — a *directory* (conventionally suffixed
  ``.npyd``) containing ``header.json`` plus one raw ``.npy`` file per
  array (``state/<key>.npy``, ``index/<key>.npy``).  Raw ``.npy`` members
  can be opened with ``np.load(..., mmap_mode="r")``, so N serving worker
  processes share one page-cache copy of the weights instead of N private
  heaps — the point of the layout.  :func:`migrate_artifact` converts
  between the two layouts losslessly in either direction.

Readers decide the layout in one place, :func:`_open_artifact`: a
directory is a ``dir`` artifact, anything else an ``npz`` archive.  It
returns a reader with the same three calls for both layouts — ``header()``,
``members()`` (name, CRC-32 and size per member) and
``arrays(group, mmap_mode)`` — and every reader in this module and in
:mod:`repro.persist.index` is one path through it.  Only
:func:`artifact_layout`, :func:`copy_artifact`, the writers and
``index.artifact_stat`` look at the entry type themselves.

The header carries the format name and version, the registry model name,
the :class:`~repro.models.registry.ModelSettings` (and, for GBGCN
variants, the :class:`~repro.core.gbgcn.GBGCNConfig`) needed to rebuild
the model, and the dataset-schema fingerprint of the training dataset.
Old readers ignore unknown header fields (they are filtered on read), so
embedding an index never breaks format compatibility — and the ``npz``
layout keeps being written at format v1, so artifacts saved by this
library version still load under pre-v2 readers.

:func:`save_model` writes atomically (unique temp name in the destination
directory + ``os.replace``/``os.rename`` after an fsync), so a crash
mid-write can never clobber the previous artifact.  :func:`load_model`
rebuilds the model from the header via the registry and restores the
exact saved weights; schema mismatches and unknown format versions fail
loudly with a typed :class:`~repro.persist.errors.ArtifactError` instead
of producing garbage recommendations.
"""

from __future__ import annotations

import dataclasses
import errno
import functools
import json
import os
import re
import shutil
import time
import zipfile
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union, TYPE_CHECKING

import numpy as np

from .errors import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactLayoutError,
    ArtifactVersionError,
    ModelMismatchError,
    SchemaMismatchError,
)
from .fingerprint import dataset_fingerprint, fingerprint_mismatch

if TYPE_CHECKING:
    from ..data.dataset import GroupBuyingDataset
    from ..models.base import RecommenderModel

__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "NPZ_FORMAT_VERSION",
    "DIR_FORMAT_VERSION",
    "LAYOUT_NPZ",
    "LAYOUT_DIR",
    "DIR_HEADER_FILENAME",
    "DIR_SUFFIX",
    "TMP_SWEEP_MAX_AGE_SECONDS",
    "ArtifactHeader",
    "artifact_layout",
    "save_model",
    "migrate_artifact",
    "copy_artifact",
    "read_header",
    "read_state_dict",
    "read_retrieval_state",
    "load_model",
    "load_state_into",
]

#: Identifies the file as one of ours (guards against loading arbitrary npz).
FORMAT_NAME = "repro-model-artifact"
#: The single-file compressed-archive layout (format v1, the default).
LAYOUT_NPZ = "npz"
#: The mmap-able directory-of-``.npy``-files layout (format v2).
LAYOUT_DIR = "dir"
#: Format version written by the ``npz`` layout.  Deliberately left at 1:
#: the archive's byte layout did not change when v2 was introduced, so new
#: ``npz`` artifacts stay readable by pre-v2 library versions.
NPZ_FORMAT_VERSION = 1
#: Format version written by the ``dir`` layout (introduced the layout).
DIR_FORMAT_VERSION = 2
#: Highest format version this library can read.  Bumped whenever the
#: on-disk layout changes incompatibly; readers accept versions
#: ``<= FORMAT_VERSION`` and refuse anything newer with an
#: :class:`ArtifactVersionError`.
FORMAT_VERSION = 2
#: Name of the JSON header file inside a ``dir``-layout artifact.
DIR_HEADER_FILENAME = "header.json"
#: Conventional path suffix for ``dir``-layout artifacts.  Not enforced on
#: save, but directory scans (``scan_artifact_directory`` /
#: ``ModelCatalog``) discover directory artifacts by this suffix.
DIR_SUFFIX = ".npyd"

#: Temp files/directories left next to an artifact are reaped before a
#: save only when their recorded writer PID is no longer alive *and* they
#: are older than this window (seconds).  Configurable for tests and for
#: deployments with unusually long artifact-write times; see
#: :func:`_sweep_stale_tmp` for the exact rules.
TMP_SWEEP_MAX_AGE_SECONDS = 3600.0

_HEADER_KEY = "__header__"
_STATE_PREFIX = "state/"
_INDEX_PREFIX = "index/"


@dataclass
class ArtifactHeader:
    """The JSON header of a model artifact."""

    format_version: int
    model_name: str
    settings: Optional[Dict[str, Any]] = None
    gbgcn_config: Optional[Dict[str, Any]] = None
    schema: Optional[Dict[str, Any]] = None
    state_keys: List[str] = dataclasses.field(default_factory=list)
    library_version: str = ""
    #: Parameters of an embedded retrieval index (``index/`` arrays), or
    #: ``None`` when the artifact carries model state only.
    retrieval: Optional[Dict[str, Any]] = None

    def to_json(self) -> str:
        payload = dataclasses.asdict(self)
        payload["format"] = FORMAT_NAME
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_payload(cls, payload: Dict[str, Any]) -> "ArtifactHeader":
        """Validate a decoded header object (see :func:`_header_payload`)."""
        if payload.get("format") != FORMAT_NAME:
            raise ArtifactFormatError(
                f"file is not a {FORMAT_NAME!r} artifact (header format field: "
                f"{payload.get('format')!r})"
            )
        version = payload.get("format_version")
        if not isinstance(version, int):
            raise ArtifactFormatError(f"artifact header has no integer format_version: {version!r}")
        if version > FORMAT_VERSION:
            raise ArtifactVersionError(
                f"artifact has format version {version}, but this library reads at most "
                f"{FORMAT_VERSION}; upgrade the library (or re-save the model) to load it"
            )
        if "model_name" not in payload or not isinstance(payload["model_name"], str):
            raise ArtifactFormatError("artifact header is missing its model_name")
        state_keys = payload.get("state_keys", [])
        if not isinstance(state_keys, list) or not all(isinstance(key, str) for key in state_keys):
            raise ArtifactFormatError(
                f"artifact header state_keys must be a list of strings, got {state_keys!r}"
            )
        for field_name in ("settings", "gbgcn_config", "schema", "retrieval"):
            value = payload.get(field_name)
            if value is not None and not isinstance(value, dict):
                raise ArtifactFormatError(
                    f"artifact header {field_name} must be a JSON object or null, got {value!r}"
                )
        known = {field.name for field in dataclasses.fields(cls)}
        return cls(**{key: value for key, value in payload.items() if key in known})


def _header_payload(text: str, path: Path) -> Dict[str, Any]:
    """Decode the JSON header text of the artifact at ``path`` (either layout)."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise ArtifactFormatError(
            f"artifact header of {path} is not valid JSON (truncated or corrupted write?): {error}"
        ) from error
    if not isinstance(payload, dict):
        raise ArtifactFormatError(
            f"artifact header of {path} must be a JSON object, got {type(payload).__name__}"
        )
    return payload


#: Names a writer claims next to an artifact: ``tmp`` for the entry being
#: built, ``old`` for the previous ``dir`` artifact retired mid-swap.
_OWNER_PATTERN = re.compile(r"\.(?:tmp|old)-(\d+)-\d+$")


def _owner_pid_alive(name: str) -> Optional[bool]:
    """Whether the entry's recorded writer PID is a live process.

    Writers name their entries ``.{artifact}.{tmp|old}-{pid}-{attempt}``.
    Returns ``None`` when no PID can be parsed from ``name`` (a foreign
    temp entry) or when liveness cannot be determined.
    """
    match = _OWNER_PATTERN.search(name)
    if match is None:
        return None
    pid = int(match.group(1))
    if pid <= 0:
        return None
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        # The process exists but belongs to another user.
        return True
    except OSError:
        return None
    return True


def _sweep_stale_tmp(path: Path, max_age_seconds: Optional[float] = None) -> None:
    """Best-effort removal of writer debris left by hard crashes (SIGKILL).

    The debris is a temp entry (``.tmp-``) or a previous ``dir`` artifact
    retired mid-swap (``.old-``; see :func:`_atomic_replace_dir`).  An
    entry is removed only when **both** hold:

    1. its recorded writer PID — parsed from the ``{tmp|old}-{pid}-{attempt}``
       name — is no longer a live process.  An ``st_mtime`` age check
       alone is not safe with multiple writers: wall-clock skew (a
       temp file stamped by one host's clock, judged by another's) or a
       long-paused writer process can make a *live* writer's temp file
       look hours old, and reaping it makes that writer's in-flight save
       fail.  A live owner PID vetoes removal outright — as does a name
       this protocol cannot attribute (no parseable PID).
    2. it is older than ``max_age_seconds`` (module default
       :data:`TMP_SWEEP_MAX_AGE_SECONDS`) — so even when a crashed
       writer's PID has been recycled by an unrelated process (which
       would veto under rule 1), the orphan is merely reaped later, and
       a freshly-crashed writer's debris is not reaped while a human
       might still want to inspect it.

    Both single temp *files* (``npz`` layout) and temp *directories*
    (``dir`` layout) are swept.
    """
    if max_age_seconds is None:
        max_age_seconds = TMP_SWEEP_MAX_AGE_SECONDS
    for kind in ("tmp", "old"):
        for orphan in path.parent.glob(f".{path.name}.{kind}-*"):
            # Reap only entries whose owner is *confirmed* dead.  A live
            # owner vetoes; so does an unparseable name (not this protocol's
            # entry — never delete what we cannot attribute) or an
            # indeterminate PID.
            if _owner_pid_alive(orphan.name) is not False:
                continue
            try:
                # repro: allow(CLOCK-001) -- age compares against st_mtime, which is wall-clock by definition; a monotonic read has no meaningful difference with an mtime
                if time.time() - orphan.stat().st_mtime > max_age_seconds:
                    _remove_entry(orphan)
            except OSError:
                pass


def _claim(path: Path, kind: str, create: Callable[[Path], Any]) -> Tuple[Path, Any]:
    """Claim the first free ``.{name}.{kind}-{pid}-{attempt}`` sibling of ``path``.

    ``create(candidate)`` takes the name and raises ``FileExistsError``
    when it is already taken, which moves on to the next attempt.  Returns
    the claimed name and ``create``'s result.
    """
    for attempt in range(1000):
        candidate = path.with_name(f".{path.name}.{kind}-{os.getpid()}-{attempt}")
        try:
            return candidate, create(candidate)
        except FileExistsError:
            continue
    raise ArtifactError(f"could not claim a unique {kind} name next to {path}")


def _atomic_replace_write(path: Path, write) -> None:
    """Write via a unique temp file + ``os.replace``; ``write(handle)`` fills it.

    The temp name is unique per call (O_EXCL), so concurrent writes to the
    same path are last-writer-wins instead of interleaving bytes.  Mode
    0o666 is filtered by the caller's umask, exactly like plain ``open()``.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale_tmp(path)
    tmp, descriptor = _claim(
        path, "tmp", lambda name: os.open(name, os.O_CREAT | os.O_EXCL | os.O_WRONLY, 0o666)
    )
    replaced = False
    try:
        with os.fdopen(descriptor, "wb") as handle:
            write(handle)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
        replaced = True
    finally:
        # Clean up only our own failed write: after a successful replace the
        # name may already belong to a concurrent writer's fresh temp file.
        if not replaced:
            _remove_entry(tmp)


def _atomic_write_npz(path: Path, arrays: Dict[str, np.ndarray]) -> None:
    _atomic_replace_write(path, lambda handle: np.savez(handle, **arrays))


def _remove_entry(path: Path) -> None:
    """Delete a file or a directory tree, best-effort."""
    try:
        if path.is_dir():
            shutil.rmtree(path, ignore_errors=True)
        else:
            path.unlink()
    except OSError:
        pass


#: ``os.rename`` errnos meaning the destination name is occupied: a
#: non-empty directory (``ENOTEMPTY``, or ``EEXIST`` on some systems) or a
#: non-directory where a directory is being renamed (``ENOTDIR``).
_NAME_TAKEN = frozenset({errno.ENOTEMPTY, errno.EEXIST, errno.ENOTDIR})


def _atomic_replace_dir(path: Path, build: Callable[[Path], None]) -> None:
    """Build a directory under a unique temp name, then swap it into place.

    ``build(tmp)`` fills the freshly-created temp directory; every file in
    the built tree is then fsynced once, so a crash after the rename can
    never publish members whose bytes did not reach the disk.  Publishing
    is a single ``os.rename`` when ``path`` does not exist yet.  When it
    does (hot-swap republish), POSIX ``rename`` cannot atomically replace a
    non-empty directory, so the old artifact is first renamed aside (to
    ``.{name}.old-{pid}-{attempt}``, which :func:`_sweep_stale_tmp` reaps
    if this writer dies before deleting it) and then deleted — readers
    resolving member paths in that sub-millisecond window see
    ``FileNotFoundError``, which every reader in this package maps to a
    typed :class:`ArtifactError` and the serving catalog retries.
    Concurrent writers to the same path converge last-writer-wins, the
    same contract as the ``npz`` layout.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    _sweep_stale_tmp(path)
    # os.mkdir is the exclusive creation, like O_EXCL for files.
    tmp, _ = _claim(path, "tmp", os.mkdir)

    def retire(candidate: Path) -> bool:
        """Rename ``path`` aside; False when another writer retired it first."""
        if candidate.exists():
            raise FileExistsError(candidate)
        try:
            os.rename(path, candidate)
        except FileNotFoundError:
            return False
        return True

    published = False
    try:
        build(tmp)
        for directory, _, names in os.walk(tmp):
            for name in names:
                descriptor = os.open(os.path.join(directory, name), os.O_RDONLY)
                try:
                    os.fsync(descriptor)
                finally:
                    os.close(descriptor)
        try:
            os.rename(tmp, path)
            published = True
        except OSError as error:
            if error.errno not in _NAME_TAKEN:
                raise
            # Another writer may retire ``path`` at any moment, so whether
            # the name was taken is read from the errno, never from a later
            # look at ``path``.  A vanished ``path`` leaves nothing to
            # retire: the publish below is then a plain retry.
            retired, moved = _claim(path, "old", retire)
            try:
                os.rename(tmp, path)
                published = True
            except OSError as error:
                if error.errno not in _NAME_TAKEN:
                    if moved:
                        os.rename(retired, path)  # roll the old artifact back
                    raise
                # A concurrent writer claimed the name between our retire
                # and publish; their artifact is complete — surface the
                # lost race instead of silently dropping this save.
                if moved:
                    _remove_entry(retired)
                raise ArtifactError(
                    f"a concurrent writer republished {path} mid-swap; this save was dropped"
                ) from error
            if moved:
                _remove_entry(retired)
    finally:
        if not published:
            _remove_entry(tmp)


def _crc32_of_file(path: Path) -> int:
    crc = 0
    with open(path, "rb") as handle:
        while True:
            chunk = handle.read(1 << 20)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
    return crc & 0xFFFFFFFF


def _write_dir_artifact(path: Path, header: ArtifactHeader, arrays: Dict[str, np.ndarray]) -> None:
    """Write a ``dir``-layout artifact: raw ``.npy`` members + ``header.json``.

    ``arrays`` maps member keys (already carrying their ``state/`` /
    ``index/`` group prefix) to arrays.  The header file additionally
    records a ``members`` manifest — ``{relpath: {"crc32", "size"}}`` over
    every array file — which plays the role the npz central directory
    plays for content tokens (see :func:`repro.persist.index.artifact_content_token`).
    The header file is written last and rewritten on every save, so its
    ``(st_size, st_mtime_ns)`` stat identity changes on every publish.
    """

    def build(tmp: Path) -> None:
        members: Dict[str, Dict[str, int]] = {}
        for key in sorted(arrays):
            member = f"{key}.npy"
            target = tmp / member
            target.parent.mkdir(parents=True, exist_ok=True)
            with open(target, "wb") as handle:
                np.save(handle, arrays[key], allow_pickle=False)
            members[member] = {
                "crc32": _crc32_of_file(target),
                "size": target.stat().st_size,
            }
        payload = json.loads(header.to_json())
        payload["layout"] = LAYOUT_DIR
        payload["members"] = members
        with open(tmp / DIR_HEADER_FILENAME, "wb") as handle:
            handle.write(json.dumps(payload, sort_keys=True).encode("utf-8"))

    _atomic_replace_dir(path, build)


def artifact_layout(path: Union[str, Path]) -> str:
    """The on-disk layout of the artifact at ``path``: ``"npz"`` or ``"dir"``.

    Dispatches on the filesystem entry type (directory → ``dir`` layout),
    not the name suffix, so unconventionally-named artifacts still
    resolve.  Raises :class:`ArtifactFormatError` when nothing exists at
    ``path``.
    """
    path = Path(path)
    if path.is_dir():
        return LAYOUT_DIR
    if path.exists():
        return LAYOUT_NPZ
    raise ArtifactFormatError(f"artifact does not exist: {path}")


def _resolve_identity(
    model: "RecommenderModel",
    dataset: Optional["GroupBuyingDataset"],
    settings,
    model_name: Optional[str],
) -> Tuple[str, Optional[Dict[str, Any]], Optional[Dict[str, Any]], Optional[Dict[str, Any]]]:
    """Work out (name, settings dict, gbgcn config dict, schema fingerprint)."""
    name = model_name or getattr(model, "_registry_name", None) or model.name
    settings = settings if settings is not None else getattr(model, "_registry_settings", None)
    settings_dict = settings.to_dict() if settings is not None else None
    config = getattr(model, "config", None)
    config_dict = dataclasses.asdict(config) if dataclasses.is_dataclass(config) else None
    if dataset is None:
        dataset = getattr(model, "_artifact_dataset", None)
    schema = dataset_fingerprint(dataset) if dataset is not None else None
    return name, settings_dict, config_dict, schema


def _layout_version(layout: str) -> int:
    if layout == LAYOUT_NPZ:
        return NPZ_FORMAT_VERSION
    if layout == LAYOUT_DIR:
        return DIR_FORMAT_VERSION
    raise ArtifactLayoutError(
        f"unknown artifact layout {layout!r}; supported layouts are "
        f"{LAYOUT_NPZ!r} (single-file archive) and {LAYOUT_DIR!r} (mmap-able directory)"
    )


def _write_artifact(
    path: Path,
    header: ArtifactHeader,
    state: Dict[str, np.ndarray],
    index: Dict[str, np.ndarray],
    layout: str,
) -> None:
    """Write the header plus the ``state/`` and ``index/`` arrays at ``path`` in ``layout``."""
    grouped = {_STATE_PREFIX + key: np.ascontiguousarray(value) for key, value in state.items()}
    for key, value in index.items():
        grouped[_INDEX_PREFIX + key] = np.ascontiguousarray(value)
    if layout == LAYOUT_DIR:
        _write_dir_artifact(path, header, grouped)
    else:
        header_bytes = np.frombuffer(header.to_json().encode("utf-8"), dtype=np.uint8)
        _atomic_write_npz(path, {_HEADER_KEY: header_bytes, **grouped})


def save_model(
    model: "RecommenderModel",
    path: Union[str, Path],
    *,
    dataset: Optional["GroupBuyingDataset"] = None,
    settings=None,
    model_name: Optional[str] = None,
    retrieval_index=None,
    layout: str = LAYOUT_NPZ,
) -> ArtifactHeader:
    """Persist ``model`` as a versioned artifact at ``path``.

    Registry-built models (:func:`repro.models.registry.build_model`)
    already carry their registry name, settings and dataset fingerprint, so
    ``save_model(model, path)`` needs nothing else.  Models constructed by
    hand can pass ``dataset`` (for the schema fingerprint) and
    ``settings``/``model_name`` explicitly; GBGCN variants additionally
    record their :class:`~repro.core.gbgcn.GBGCNConfig` so they round-trip
    even without registry settings.  Returns the written header.

    ``retrieval_index`` embeds a prebuilt
    :class:`~repro.serving.retrieval.RetrievalIndex` (its arrays under
    ``index/``, its parameters in the header's ``retrieval`` field) so a
    serving catalog can cold-start ANN retrieval without re-clustering —
    recover it with :func:`read_retrieval_state`.

    ``layout`` selects the on-disk representation: ``"npz"`` (default) is
    the single-file v1 archive; ``"dir"`` writes the mmap-able v2
    directory of raw ``.npy`` files (conventionally suffixed ``.npyd`` so
    catalog scans discover it) that :func:`load_model` opens with
    ``np.load(mmap_mode="r")`` — the layout to publish when many worker
    processes serve the same weights.

    Usage — save a registry model, inspect the header, load it back:

    >>> import tempfile
    >>> from pathlib import Path
    >>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
    >>> from repro.models import build_model
    >>> from repro.persist import load_model, save_model
    >>> split = leave_one_out_split(generate_dataset(
    ...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
    >>> path = Path(tempfile.mkdtemp()) / "mf.npz"
    >>> header = save_model(build_model("MF", split.train), path)
    >>> (header.model_name, header.format_version)
    ('MF', 1)
    >>> load_model(path, split.train).name      # exact weights, fresh process
    'MF'

    The same model in the mmap-able directory layout:

    >>> dir_path = path.with_suffix(".npyd")
    >>> save_model(build_model("MF", split.train), dir_path, layout="dir").format_version
    2
    >>> sorted(p.name for p in dir_path.iterdir())[:1]
    ['header.json']
    """
    path = Path(path)
    version = _layout_version(layout)  # validates the layout up front
    name, settings_dict, config_dict, schema = _resolve_identity(model, dataset, settings, model_name)
    # Zero-copy views: the arrays are only read while the writer streams
    # them out, so snapshotting the whole model first would double memory.
    state = model.state_arrays()
    retrieval_params: Optional[Dict[str, Any]] = None
    index: Dict[str, np.ndarray] = {}
    if retrieval_index is not None:
        if int(retrieval_index.num_items) != int(model.num_items):
            raise ArtifactError(
                f"retrieval index covers {retrieval_index.num_items} items but the model "
                f"serves {model.num_items}; build the index from this model's item factors"
            )
        retrieval_params = dict(retrieval_index.params())
        index = retrieval_index.state_arrays()
    header = ArtifactHeader(
        format_version=version,
        model_name=name,
        settings=settings_dict,
        gbgcn_config=config_dict,
        schema=schema,
        state_keys=sorted(state),
        library_version=_library_version(),
        retrieval=retrieval_params,
    )
    _write_artifact(path, header, state, index, layout)
    return header


def migrate_artifact(
    path: Union[str, Path],
    to_layout: str,
    destination: Optional[Union[str, Path]] = None,
) -> Path:
    """Convert an artifact between the v1 ``npz`` and v2 ``dir`` layouts.

    The cross-version migration shim: every header field (model identity,
    settings, schema fingerprint, retrieval parameters) and every array —
    model state *and* embedded retrieval index — carries over exactly;
    only ``format_version`` changes to the target layout's version.  The
    source artifact is left untouched.  ``destination`` defaults to the
    source path with the conventional suffix swapped
    (``model.npz`` ↔ ``model.npyd``); migrating to the layout the artifact
    already has simply rewrites it at the destination.  Returns the
    destination path.

    >>> import tempfile
    >>> from pathlib import Path
    >>> import numpy as np
    >>> from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
    >>> from repro.models import build_model
    >>> from repro.persist import migrate_artifact, read_state_dict, save_model
    >>> split = leave_one_out_split(generate_dataset(
    ...     BeibeiLikeConfig(num_users=40, num_items=20, num_behaviors=160, seed=0)))
    >>> path = Path(tempfile.mkdtemp()) / "mf.npz"
    >>> _ = save_model(build_model("MF", split.train), path)
    >>> migrated = migrate_artifact(path, to_layout="dir")
    >>> migrated.name
    'mf.npyd'
    >>> old, new = read_state_dict(path)[1], read_state_dict(migrated)[1]
    >>> all(np.array_equal(old[k], new[k]) for k in old)
    True
    """
    path = Path(path)
    version = _layout_version(to_layout)
    with _open_artifact(path) as artifact:
        header = artifact.header()
        state = _read_state(artifact, header, mmap_mode=None)
        index = _read_index(artifact, header)
    if destination is None:
        suffix = DIR_SUFFIX if to_layout == LAYOUT_DIR else ".npz"
        destination = path.with_suffix(suffix)
    destination = Path(destination)
    if destination.exists() and destination.resolve() == path.resolve():
        raise ArtifactLayoutError(
            f"cannot migrate {path} onto itself; pass a different destination"
        )
    migrated = dataclasses.replace(
        header,
        format_version=version,
        library_version=_library_version(),
    )
    _write_artifact(destination, migrated, state, index, to_layout)
    return destination


def copy_artifact(source: Union[str, Path], destination: Union[str, Path]) -> None:
    """Replicate an existing artifact byte for byte, atomically.

    The cheap way to *publish* an artifact that is already on disk (e.g. a
    checkpoint into a catalog directory): no model snapshot, no
    re-compression — just a copy with the same temp-name + rename
    guarantee as :func:`save_model`, so a reader (a serving
    :class:`~repro.serving.catalog.ModelCatalog` hot-swap check) never sees
    a half-written artifact.  Works for both layouts — a ``dir``-layout
    source is copied member by member into a temp directory and swapped
    into place.  Copying a path onto itself is a no-op.
    """
    source, destination = Path(source), Path(destination)
    if not source.exists():
        raise ArtifactFormatError(f"artifact to copy does not exist: {source}")
    if source.resolve() == destination.resolve():
        return

    if source.is_dir():
        _atomic_replace_dir(destination, lambda tmp: shutil.copytree(source, tmp, dirs_exist_ok=True))
        return

    def write(handle):
        with open(source, "rb") as reader:
            shutil.copyfileobj(reader, handle)

    _atomic_replace_write(destination, write)


def _library_version() -> str:
    from .. import __version__

    return __version__


class _Reader:
    """An artifact opened by :func:`_open_artifact`; use it as a context manager.

    Each layout provides ``payload`` (the decoded JSON header object),
    ``members()`` and ``arrays(group, mmap_mode)``.
    """

    #: Whether ``arrays(..., mmap_mode="r")`` maps the members read-only.
    mmappable = False

    def __init__(self, path: Path) -> None:
        self.path = path

    def __enter__(self) -> "_Reader":
        return self

    def __exit__(self, *exc_info) -> None:
        return None

    def header(self) -> ArtifactHeader:
        return ArtifactHeader.from_payload(self.payload)


class _NpzReader(_Reader):
    """The ``npz`` layout: one zip archive, its members read lazily by ``np.load``."""

    def __enter__(self) -> "_NpzReader":
        try:
            archive = np.load(self.path, allow_pickle=False)
        except FileNotFoundError as error:
            raise ArtifactFormatError(
                f"artifact does not exist (vanished, or never written): {self.path}"
            ) from error
        except (zipfile.BadZipFile, OSError, ValueError) as error:
            raise ArtifactFormatError(
                f"{self.path} is not a readable npz artifact: {error}"
            ) from error
        if not hasattr(archive, "files"):
            # np.load returns a bare ndarray for .npy content.
            raise ArtifactFormatError(
                f"{self.path} is a single-array .npy file, not an npz artifact"
            )
        self._archive = archive
        return self

    def __exit__(self, *exc_info) -> None:
        self._archive.close()

    @property
    def payload(self) -> Dict[str, Any]:
        if _HEADER_KEY not in self._archive.files:
            raise ArtifactFormatError(
                f"{self.path} is an npz archive but carries no {_HEADER_KEY!r} entry; "
                f"it was not written by repro.persist.save_model"
            )
        try:
            header_bytes = bytes(np.asarray(self._archive[_HEADER_KEY], dtype=np.uint8))
        except (zipfile.BadZipFile, OSError, ValueError, TypeError) as error:
            raise ArtifactFormatError(
                f"artifact header of {self.path} is unreadable: {error}"
            ) from error
        return _header_payload(header_bytes.decode("utf-8", errors="replace"), self.path)

    def members(self) -> List[Tuple[str, int, int]]:
        """Name, CRC-32 and size of every zip member, from the central directory."""
        return [
            (info.filename, info.CRC, info.file_size) for info in self._archive.zip.infolist()
        ]

    def arrays(self, group: str, mmap_mode: Optional[str]) -> Dict[str, np.ndarray]:
        """Every array of ``group``; zip members cannot be mapped, so ``mmap_mode`` is moot."""
        prefix = group + "/"
        try:
            return {
                key[len(prefix):]: self._archive[key]
                for key in self._archive.files
                if key.startswith(prefix)
            }
        except (zipfile.BadZipFile, OSError, ValueError) as error:
            raise ArtifactFormatError(
                f"artifact {self.path} has an unreadable {group} array: {error}"
            ) from error


class _DirReader(_Reader):
    """The ``dir`` layout: ``header.json``, parsed once on first use, plus ``.npy`` members."""

    mmappable = True

    @functools.cached_property
    def payload(self) -> Dict[str, Any]:
        try:
            text = (self.path / DIR_HEADER_FILENAME).read_text("utf-8")
        except FileNotFoundError as error:
            raise ArtifactFormatError(
                f"{self.path} is a directory without a {DIR_HEADER_FILENAME}; it is not a "
                f"dir-layout artifact (or its writer crashed before publishing)"
            ) from error
        except (OSError, UnicodeDecodeError) as error:
            # UnicodeDecodeError: corrupted header bytes (e.g. bit rot) must
            # surface as a typed artifact fault, not a raw codec error.
            raise ArtifactFormatError(
                f"artifact header of {self.path} is unreadable: {error}"
            ) from error
        return _header_payload(text, self.path)

    def members(self) -> List[Tuple[str, int, int]]:
        """Name, CRC-32 and size of every member, from the header's ``members`` manifest."""
        manifest = self.payload.get("members")
        if not isinstance(manifest, dict) or not manifest:
            raise ArtifactFormatError(
                f"dir-layout artifact {self.path} has no members manifest in its "
                f"{DIR_HEADER_FILENAME}; it was not written by repro.persist.save_model"
            )
        members = []
        for name in sorted(manifest):
            entry = manifest[name]
            if not isinstance(entry, dict) or "crc32" not in entry or "size" not in entry:
                raise ArtifactFormatError(
                    f"dir-layout artifact {self.path} has a malformed manifest entry for {name!r}"
                )
            members.append((name, entry["crc32"], entry["size"]))
        return members

    def arrays(self, group: str, mmap_mode: Optional[str]) -> Dict[str, np.ndarray]:
        """Every array of ``group``, memory-mapped when ``mmap_mode`` is given.

        Keys containing ``/`` (e.g. extra-state keys) map to nested
        subdirectories on disk, so the walk is recursive.
        """
        root = self.path / group
        arrays: Dict[str, np.ndarray] = {}
        for member in sorted(root.rglob("*.npy")):
            if not member.is_file():
                continue
            key = member.relative_to(root).as_posix()[: -len(".npy")]
            try:
                arrays[key] = np.load(member, mmap_mode=mmap_mode, allow_pickle=False)
            except (OSError, ValueError) as error:
                raise ArtifactFormatError(
                    f"artifact {self.path} has an unreadable {group} array {member.name}: {error}"
                ) from error
        return arrays


def _open_artifact(path: Path) -> _Reader:
    """The one place a reader decides the layout: a directory is a ``dir`` artifact.

    Anything else is read as an ``npz`` archive.  Returns an unopened
    reader — ``with _open_artifact(path) as artifact:`` opens it — so a
    caller can refuse what the layout cannot do (``mmap=True`` on an npz)
    before reading a byte.
    """
    return _DirReader(path) if path.is_dir() else _NpzReader(path)


def _read_state(
    artifact: _Reader, header: ArtifactHeader, mmap_mode: Optional[str]
) -> Dict[str, np.ndarray]:
    state = artifact.arrays("state", mmap_mode)
    missing = set(header.state_keys) - set(state)
    if missing:
        raise ArtifactFormatError(
            f"artifact {artifact.path} is missing state arrays recorded in its header: "
            f"{sorted(missing)}"
        )
    return state


def _read_index(artifact: _Reader, header: ArtifactHeader) -> Dict[str, np.ndarray]:
    """The embedded retrieval index's arrays; empty when the header declares none."""
    if header.retrieval is None:
        return {}
    arrays = artifact.arrays("index", None)
    if not arrays:
        raise ArtifactFormatError(
            f"artifact {artifact.path} declares a retrieval index in its header but carries no "
            f"{_INDEX_PREFIX!r} arrays (truncated or hand-edited write?)"
        )
    return arrays


def read_header(path: Union[str, Path]) -> ArtifactHeader:
    """Read and validate only the JSON header of an artifact (either layout)."""
    with _open_artifact(Path(path)) as artifact:
        return artifact.header()


def read_state_dict(path: Union[str, Path]) -> Tuple[ArtifactHeader, Dict[str, np.ndarray]]:
    """Read the header and the full parameter state of an artifact (either layout)."""
    with _open_artifact(Path(path)) as artifact:
        header = artifact.header()
        return header, _read_state(artifact, header, mmap_mode=None)


def read_retrieval_state(
    path: Union[str, Path],
) -> Optional[Tuple[Dict[str, Any], Dict[str, np.ndarray]]]:
    """The embedded retrieval index of an artifact, or ``None``.

    Returns ``(params, arrays)`` — the header's ``retrieval`` parameter
    dict and the raw ``index/`` arrays — ready for
    ``RetrievalIndex.from_state``.  ``None`` when the artifact was saved
    without ``retrieval_index=`` (the common case); an artifact whose
    header declares an index but whose ``index/`` arrays are missing is
    corrupt and raises :class:`ArtifactFormatError`.
    """
    with _open_artifact(Path(path)) as artifact:
        header = artifact.header()
        index = _read_index(artifact, header)
    return None if header.retrieval is None else (dict(header.retrieval), index)


def _check_schema(header: ArtifactHeader, dataset: "GroupBuyingDataset", path: Path) -> None:
    if header.schema is None:
        raise SchemaMismatchError(
            f"artifact {path} records no dataset-schema fingerprint, so it cannot be verified "
            f"against this dataset; re-save it with save_model(..., dataset=...), or — if you "
            f"trust its provenance — restore the weights into a pre-built model with "
            f"repro.persist.load_state_into(..., verify_schema=False)"
        )
    actual = dataset_fingerprint(dataset)
    differences = fingerprint_mismatch(header.schema, actual)
    if differences:
        raise SchemaMismatchError(
            f"artifact {path} was trained on a different dataset than the one supplied "
            f"({'; '.join(differences)}); load it with the original training dataset "
            f"(user/item ids are only meaningful relative to it)"
        )


def _rebuild_model(header: ArtifactHeader, dataset: "GroupBuyingDataset", path: Path) -> "RecommenderModel":
    from ..models.registry import SERVABLE_MODEL_NAMES, ModelSettings, build_model

    if header.model_name not in SERVABLE_MODEL_NAMES:
        # Diagnose the unknown name up front (rather than as a generic
        # build failure) so a catalog scan over a mixed directory says
        # exactly which file holds which unloadable model.
        raise ArtifactFormatError(
            f"artifact {path} records unknown model {header.model_name!r}; this library can "
            f"rebuild {SERVABLE_MODEL_NAMES}.  If the artifact came from a newer library "
            f"version, upgrade; otherwise build the model yourself and restore weights with "
            f"repro.persist.load_state_into"
        )

    settings = None
    if header.settings is not None:
        try:
            settings = ModelSettings.from_dict(header.settings)
        except (TypeError, ValueError) as error:
            raise ArtifactFormatError(f"artifact {path} has invalid settings: {error}") from error

    if header.gbgcn_config is not None and header.model_name.startswith("GBGCN"):
        # The recorded config is the source of truth for GBGCN variants: it
        # was captured from ``model.config`` at save time, whereas a config
        # re-derived from settings can disagree for hand-built models (e.g.
        # a custom alpha that no ModelSettings field produces).
        from ..core.gbgcn import GBGCN, GBGCNConfig
        from ..core.pretrain import GBGCNPretrainModel
        from ..graph.hetero import build_hetero_graph

        try:
            config = GBGCNConfig(**header.gbgcn_config)
        except (TypeError, ValueError) as error:
            raise ArtifactFormatError(f"artifact {path} has an invalid GBGCN config: {error}") from error
        model_class = GBGCNPretrainModel if header.model_name == "GBGCN-pretrain" else GBGCN
        model = model_class(dataset.num_users, dataset.num_items, build_hetero_graph(dataset), config=config)
        # Rebind identity so re-saving the loaded model stays self-describing
        # (schema fingerprint included).
        model.bind_artifact_metadata(header.model_name, settings, dataset)
        return model

    if settings is not None:
        try:
            return build_model(header.model_name, dataset, settings)
        except (TypeError, ValueError) as error:
            raise ArtifactFormatError(
                f"artifact {path} cannot be rebuilt as registry model "
                f"{header.model_name!r}: {error}"
            ) from error
    raise ArtifactFormatError(
        f"artifact {path} (model {header.model_name!r}) records neither registry settings nor a "
        f"GBGCN config, so the model cannot be rebuilt; valid registry names are "
        f"{SERVABLE_MODEL_NAMES}. "
        f"Build the model yourself and restore weights with repro.persist.load_state_into"
    )


def load_model(
    path: Union[str, Path],
    train_dataset: "GroupBuyingDataset",
    *,
    mmap: Optional[bool] = None,
) -> "RecommenderModel":
    """Reconstruct the model stored at ``path`` on top of ``train_dataset``.

    The dataset must be the training dataset the artifact was saved against
    (its schema fingerprint is verified); the rebuilt model has exactly the
    saved weights and an invalidated evaluation cache, ready for
    ``prepare_for_evaluation`` / serving.

    ``mmap`` controls how ``dir``-layout artifacts materialize their
    weights: ``None`` (default) memory-maps them read-only — the model's
    parameters alias the on-disk ``.npy`` files, so concurrent worker
    processes loading the same artifact share one page-cache copy.  A
    memory-mapped model is for *serving*: training an mmap-loaded model
    raises (its parameter buffers are read-only) — pass ``mmap=False`` to
    load private writable copies for fine-tuning.  The single-file
    ``npz`` layout cannot be memory-mapped (its members are compressed
    into one archive); requesting ``mmap=True`` on it raises and points at
    :func:`migrate_artifact`.
    """
    path = Path(path)
    artifact = _open_artifact(path)
    if mmap and not artifact.mmappable:
        raise ArtifactLayoutError(
            f"artifact {path} uses the single-file npz layout, whose members are "
            f"compressed and cannot be memory-mapped; convert it first with "
            f"repro.persist.migrate_artifact({str(path)!r}, to_layout='dir')"
        )
    with artifact:
        # Validate against the header before reading any state arrays, so
        # a rejected load costs O(header), not O(artifact).
        header = artifact.header()
        _check_schema(header, train_dataset, path)
        state = _read_state(artifact, header, mmap_mode=None if mmap is False else "r")
    model = _rebuild_model(header, train_dataset, path)
    try:
        # Zero-copy bind: every reader returns arrays the model can own —
        # fresh reads, or read-only maps that must stay shared pages.
        model.load_state_dict(state, copy=False)
    except (KeyError, ValueError) as error:
        raise ArtifactFormatError(
            f"artifact {path} state does not fit the rebuilt {header.model_name!r} model: {error}"
        ) from error
    # load_state_dict invalidates the model's evaluation cache itself.
    model.eval()
    return model


def load_state_into(
    model: "RecommenderModel",
    path: Union[str, Path],
    dataset: Optional["GroupBuyingDataset"] = None,
    verify_schema: bool = True,
) -> ArtifactHeader:
    """Restore an artifact's weights into an already-built ``model``.

    The escape hatch for models the header cannot rebuild (hand-constructed
    models saved without registry settings): the caller provides the model,
    the artifact provides the weights.  Schema verification runs whenever a
    dataset is known — passed explicitly, or carried by a registry-built
    model — and raises :class:`SchemaMismatchError` when the recorded
    fingerprint differs *or* when the artifact recorded none (a check that
    cannot run must not pass silently).  ``verify_schema=False`` is the
    deliberate opt-out for artifacts saved without a fingerprint whose
    provenance the caller trusts anyway.
    """
    path = Path(path)
    if verify_schema:
        if dataset is None:
            # Mirror save_model's identity resolution: registry-built models
            # carry their training dataset, so verification is on by default.
            dataset = getattr(model, "_artifact_dataset", None)
    else:
        dataset = None

    target_name = getattr(model, "_registry_name", None) or model.name
    with _open_artifact(path) as artifact:
        header = artifact.header()
        if header.model_name != target_name:
            # Different models can share parameter keys and shapes (MF vs
            # SocialMF), so key/shape validation alone cannot catch this.
            raise ModelMismatchError(
                f"artifact {path} holds a {header.model_name!r} model, but the supplied model is "
                f"{target_name!r}; pass the matching model (or rebuild via load_model)"
            )
        if dataset is not None:
            _check_schema(header, dataset, path)
        state = _read_state(artifact, header, mmap_mode=None)
    try:
        model.load_state_dict(state)
    except (KeyError, ValueError) as error:
        raise ArtifactFormatError(
            f"artifact {path} state does not fit the supplied {model.name!r} model: {error}"
        ) from error
    return header
