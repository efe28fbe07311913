"""Training callbacks.

The paper's training protocol ("train for 500 epochs, keep the best
validation epoch") is implemented inside :class:`~repro.training.trainer.Trainer`;
callbacks add the operational pieces a long run needs around that loop —
persisting per-epoch curves to CSV, checkpointing parameters to disk and
hooking arbitrary user code — without growing the trainer itself.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, List, Optional, Sequence, Union

import numpy as np

from ..utils.logging import get_logger

__all__ = ["Callback", "CallbackList", "CSVLogger", "ModelCheckpoint", "LambdaCallback"]

logger = get_logger("training.callbacks")


class Callback:
    """Base class; override any subset of the hooks."""

    def on_train_begin(self, trainer) -> None:
        """Called once before the first epoch."""

    def on_epoch_end(self, trainer, record) -> None:
        """Called after every epoch with the trainer and its :class:`EpochRecord`."""

    def on_train_end(self, trainer, history) -> None:
        """Called once after the last epoch with the full :class:`TrainingHistory`."""


class CallbackList(Callback):
    """Dispatches every hook to a sequence of callbacks, in order."""

    def __init__(self, callbacks: Optional[Iterable[Callback]] = None) -> None:
        self.callbacks: List[Callback] = list(callbacks or [])

    def append(self, callback: Callback) -> None:
        self.callbacks.append(callback)

    def on_train_begin(self, trainer) -> None:
        for callback in self.callbacks:
            callback.on_train_begin(trainer)

    def on_epoch_end(self, trainer, record) -> None:
        for callback in self.callbacks:
            callback.on_epoch_end(trainer, record)

    def on_train_end(self, trainer, history) -> None:
        for callback in self.callbacks:
            callback.on_train_end(trainer, history)

    def __len__(self) -> int:
        return len(self.callbacks)


class CSVLogger(Callback):
    """Appends one CSV row per epoch: epoch, mean loss, validation metric, seconds."""

    FIELDS = ("epoch", "mean_loss", "validation_metric", "seconds")

    def __init__(self, path: Union[str, Path], overwrite: bool = True) -> None:
        self.path = Path(path)
        self.overwrite = overwrite

    def on_train_begin(self, trainer) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.overwrite or not self.path.exists():
            with self.path.open("w", newline="") as handle:
                csv.writer(handle).writerow(self.FIELDS)

    def on_epoch_end(self, trainer, record) -> None:
        with self.path.open("a", newline="") as handle:
            csv.writer(handle).writerow(
                [
                    record.epoch,
                    f"{record.mean_loss:.6f}",
                    "" if record.validation_metric is None else f"{record.validation_metric:.6f}",
                    f"{record.seconds:.4f}",
                ]
            )


class ModelCheckpoint(Callback):
    """Writes full model artifacts (``repro.persist`` format) during training.

    Two modes:

    * ``save_best_only`` (default) — an artifact is written only when the
      epoch's validation metric improves on every previous epoch;
    * periodic — with ``save_best_only=False`` an artifact is written every
      ``period`` epochs (overwriting the previous one).

    Each save is a complete versioned artifact — JSON header (model name,
    settings, dataset fingerprint) plus the full ``state_dict`` — written
    atomically (temp file + ``os.replace``), so a crash mid-write leaves the
    previous artifact intact.  Load with ``repro.persist.load_model(path,
    train_dataset)`` for registry-built models, or restore weights into a
    pre-built model with ``repro.persist.load_state_into``.

    ``dataset`` / ``settings`` / ``model_name`` are forwarded to
    :func:`repro.persist.save_model` for models that do not already carry
    their registry identity.

    With ``catalog_dir`` set, every save is additionally *published* into
    that directory as ``<catalog_name>.npz`` (``catalog_name`` defaults to
    the model's registry name) — the file a
    :class:`~repro.serving.catalog.ModelCatalog` pointed at the directory
    picks up.  Publishes are atomic like every artifact write, so a serving
    process hot-swaps from the old model straight to the new one, never
    through a half-written file.

    ``on_publish`` is called with the published path after every catalog
    publish — the hook for a co-located serving catalog that should pick
    the new bytes up *immediately* rather than on its next access or
    warmer cycle::

        ModelCheckpoint("best.npz", catalog_dir=fleet_dir,
                        on_publish=lambda path: catalog.reload(path.stem, force=True))

    Artifacts carry model state only: a catalog serving with retrieval
    builds each index from the served factors at cold start.
    """

    def __init__(
        self,
        path: Union[str, Path],
        save_best_only: bool = True,
        period: int = 1,
        dataset=None,
        settings=None,
        model_name: Optional[str] = None,
        catalog_dir: Optional[Union[str, Path]] = None,
        catalog_name: Optional[str] = None,
        on_publish: Optional[Callable[[Path], None]] = None,
    ) -> None:
        if period < 1:
            raise ValueError("period must be at least 1")
        if save_best_only and period != 1:
            raise ValueError(
                "period applies to periodic checkpointing; pass save_best_only=False with it"
            )
        if catalog_name is not None and catalog_dir is None:
            raise ValueError("catalog_name without catalog_dir publishes nowhere; set catalog_dir")
        if on_publish is not None and catalog_dir is None:
            raise ValueError("on_publish without catalog_dir never fires; set catalog_dir")
        self.path = Path(path)
        self.save_best_only = save_best_only
        self.period = period
        self.dataset = dataset
        self.settings = settings
        self.model_name = model_name
        self.catalog_dir = None if catalog_dir is None else Path(catalog_dir)
        self.catalog_name = catalog_name
        self.on_publish = on_publish
        self._best_metric = -np.inf
        self.num_saves = 0
        self.num_publishes = 0

    def catalog_path(self, model) -> Optional[Path]:
        """Where this checkpoint publishes ``model``, or ``None`` when it doesn't."""
        if self.catalog_dir is None:
            return None
        name = (
            self.catalog_name
            or self.model_name
            or getattr(model, "_registry_name", None)
            or model.name
        )
        return self.catalog_dir / f"{name}.npz"

    def _save(self, trainer) -> None:
        from ..persist import copy_artifact, save_model

        save_model(
            trainer.model,
            self.path,
            dataset=self.dataset,
            settings=self.settings,
            model_name=self.model_name,
        )
        self.num_saves += 1
        logger.debug("checkpoint artifact written to %s", self.path)
        publish_path = self.catalog_path(trainer.model)
        if publish_path is not None:
            # Byte-for-byte replication of the artifact just written: no
            # second model snapshot or npz compression inside the training
            # loop, and published == checkpoint bytes by construction.
            copy_artifact(self.path, publish_path)
            self.num_publishes += 1
            logger.debug("checkpoint artifact published to catalog at %s", publish_path)
            if self.on_publish is not None:
                self.on_publish(publish_path)

    def on_epoch_end(self, trainer, record) -> None:
        if not self.save_best_only:
            if record.epoch % self.period == 0:
                self._save(trainer)
            return
        metric = record.validation_metric
        if metric is None:
            return
        if metric > self._best_metric:
            self._best_metric = metric
            self._save(trainer)


class LambdaCallback(Callback):
    """Wraps plain functions as a callback (handy in notebooks and tests)."""

    def __init__(
        self,
        on_train_begin: Optional[Callable] = None,
        on_epoch_end: Optional[Callable] = None,
        on_train_end: Optional[Callable] = None,
    ) -> None:
        self._on_train_begin = on_train_begin
        self._on_epoch_end = on_epoch_end
        self._on_train_end = on_train_end

    def on_train_begin(self, trainer) -> None:
        if self._on_train_begin is not None:
            self._on_train_begin(trainer)

    def on_epoch_end(self, trainer, record) -> None:
        if self._on_epoch_end is not None:
            self._on_epoch_end(trainer, record)

    def on_train_end(self, trainer, history) -> None:
        if self._on_train_end is not None:
            self._on_train_end(trainer, history)
