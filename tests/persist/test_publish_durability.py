"""Every file a publish makes visible was fsynced before the rename.

``save_model`` and ``copy_artifact`` both promise the temp-name + fsync +
rename protocol: a crash right after the rename must never publish bytes
that never reached the disk.  The check records the inode of every
``os.fsync``'d descriptor and compares it with the inodes of the published
artifact's files (a rename keeps the inode), for both layouts.
"""

import os
from collections import Counter

import pytest

from repro.models import ModelSettings, build_model
from repro.persist import LAYOUT_DIR, LAYOUT_NPZ, copy_artifact, save_model

pytestmark = pytest.mark.persist

SETTINGS = ModelSettings(embedding_dim=8)
SUFFIX = {LAYOUT_NPZ: ".npz", LAYOUT_DIR: ".npyd"}


def published_files(path):
    return [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())


def inode(stat):
    return stat.st_dev, stat.st_ino


@pytest.mark.parametrize("layout", [LAYOUT_NPZ, LAYOUT_DIR])
@pytest.mark.parametrize("publish", ["save_model", "copy_artifact"])
def test_every_published_file_is_fsynced_once(small_split, tmp_path, monkeypatch, layout, publish):
    model = build_model("MF", small_split.train, SETTINGS)
    source = tmp_path / f"source{SUFFIX[layout]}"
    save_model(model, source, layout=layout)
    target = tmp_path / "published" / f"model{SUFFIX[layout]}"
    # Republishing over an existing artifact takes the retire-and-swap path
    # for directories; cover both the first publish and the republish.
    for _ in range(2):
        synced = []
        real_fsync = os.fsync

        def recording_fsync(descriptor):
            synced.append(inode(os.fstat(descriptor)))
            real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", recording_fsync)
        if publish == "save_model":
            save_model(model, target, layout=layout)
        else:
            copy_artifact(source, target)
        monkeypatch.undo()

        files = published_files(target)
        assert len(files) == (1 if layout == LAYOUT_NPZ else 3)  # MF: two tables + header
        published = Counter(inode(path.stat()) for path in files)
        assert Counter(synced) == published, (
            f"{publish} ({layout}) fsynced {len(synced)} descriptors for {len(files)} published files"
        )
