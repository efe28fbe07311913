"""Versioned model-artifact persistence: train once, serve anywhere.

The artifact layer closes the train/serve gap: a model trained in one
process is written to disk (JSON header + full parameter state +
dataset-schema fingerprint) and reconstructed in another process — or
machine — with :func:`load_model`, without retraining and with bitwise
identical scores.  Two layouts exist: the default single-``.npz`` archive
(format v1) and the mmap-able ``layout="dir"`` directory of raw ``.npy``
files (format v2), which lets N serving worker processes share one
page-cache copy of the weights; :func:`migrate_artifact` converts between
them.  Every reader decides the layout in one place,
``artifact._open_artifact`` (a directory is a ``dir`` artifact, anything
else an ``npz`` archive); only the writers, :func:`copy_artifact`,
:func:`artifact_layout` and :func:`artifact_stat` look at the entry type
themselves.

Typical lifecycle::

    model = build_model("GBGCN", split.train)      # carries its identity
    train_model(model, split.train, evaluator)
    save_model(model, "gbgcn.npz")                 # atomic, versioned

    # ... later, in a fresh process ...
    store = EmbeddingStore.from_artifact("gbgcn.npz", split.train)
    TopKRecommender(store, k=10, dataset=split.full).recommend(users)

Every failure mode (corrupted file, truncated header, wrong dataset,
future format version, unknown layout) raises a typed
:class:`ArtifactError` subclass.
"""

from .artifact import (
    DIR_FORMAT_VERSION,
    DIR_HEADER_FILENAME,
    DIR_SUFFIX,
    FORMAT_NAME,
    FORMAT_VERSION,
    LAYOUT_DIR,
    LAYOUT_NPZ,
    NPZ_FORMAT_VERSION,
    TMP_SWEEP_MAX_AGE_SECONDS,
    ArtifactHeader,
    artifact_layout,
    copy_artifact,
    load_model,
    load_state_into,
    migrate_artifact,
    read_header,
    read_retrieval_state,
    read_state_dict,
    save_model,
)
from .errors import (
    ArtifactError,
    ArtifactFormatError,
    ArtifactLayoutError,
    ArtifactVersionError,
    ModelMismatchError,
    SchemaMismatchError,
)
from .fingerprint import dataset_fingerprint, fingerprint_mismatch
from .index import (
    ArtifactInfo,
    ArtifactScan,
    artifact_content_token,
    artifact_stat,
    read_artifact_header,
    scan_artifact_directory,
)

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
    "ArtifactError",
    "ArtifactFormatError",
    "ArtifactLayoutError",
    "ArtifactVersionError",
    "ModelMismatchError",
    "SchemaMismatchError",
    "dataset_fingerprint",
    "fingerprint_mismatch",
    "artifact_layout",
    "save_model",
    "migrate_artifact",
    "copy_artifact",
    "load_model",
    "load_state_into",
    "read_header",
    "read_state_dict",
    "read_retrieval_state",
    "ArtifactInfo",
    "ArtifactScan",
    "artifact_content_token",
    "artifact_stat",
    "read_artifact_header",
    "scan_artifact_directory",
]
