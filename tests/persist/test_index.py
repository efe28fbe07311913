"""Header-only artifact reads and directory scans (``repro.persist.index``)."""

import os

import numpy as np
import pytest

from repro.models import ModelSettings, build_model

pytestmark = pytest.mark.persist
from repro.persist import (
    ArtifactFormatError,
    artifact_content_token,
    copy_artifact,
    read_artifact_header,
    read_header,
    save_model,
    scan_artifact_directory,
)

SETTINGS = ModelSettings(embedding_dim=8)


@pytest.fixture()
def artifact_dir(small_split, tmp_path):
    directory = tmp_path / "catalog"
    for name in ("MF", "ItemPop"):
        save_model(build_model(name, small_split.train, SETTINGS), directory / f"{name.lower()}.npz")
    return directory


class TestReadArtifactHeader:
    def test_matches_full_header_read_plus_stat(self, artifact_dir):
        path = artifact_dir / "mf.npz"
        info = read_artifact_header(path)
        stat = os.stat(path)
        assert info.name == "mf"
        assert info.model_name == "MF"
        assert info.header.to_json() == read_header(path).to_json()
        assert info.size_bytes == stat.st_size
        assert info.mtime_ns == stat.st_mtime_ns

    def test_missing_file_raises_typed_error(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="vanished"):
            read_artifact_header(tmp_path / "nope.npz")

    def test_stat_differs_detects_replacement(self, small_split, artifact_dir):
        path = artifact_dir / "mf.npz"
        before = read_artifact_header(path)
        model = build_model("MF", small_split.train, SETTINGS)
        save_model(model, path)
        after = read_artifact_header(path)
        assert before.stat_differs(after)
        assert not after.stat_differs(after)


class TestContentToken:
    def test_token_is_stable_for_identical_bytes(self, artifact_dir, tmp_path):
        path = artifact_dir / "mf.npz"
        copy = tmp_path / "copy.npz"
        copy_artifact(path, copy)
        assert artifact_content_token(path) == artifact_content_token(copy)
        assert read_artifact_header(path).content_token == artifact_content_token(path)

    def test_token_changes_when_weights_change(self, small_split, artifact_dir):
        path = artifact_dir / "mf.npz"
        before = artifact_content_token(path)
        replacement = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(99))
        save_model(replacement, path)
        assert artifact_content_token(path) != before

    def test_differs_sees_pinned_mtime_replacement(self, small_split, artifact_dir):
        # The stat identity's blind spot: same size, same mtime_ns, new
        # weights.  `stat_differs` misses it; `differs` must not.
        path = artifact_dir / "mf.npz"
        before = read_artifact_header(path)
        stat = os.stat(path)
        replacement = build_model("MF", small_split.train, SETTINGS, rng=np.random.default_rng(99))
        save_model(replacement, path)
        os.utime(path, ns=(stat.st_atime_ns, stat.st_mtime_ns))
        after = read_artifact_header(path)
        assert after.size_bytes == before.size_bytes
        assert after.mtime_ns == before.mtime_ns
        assert not before.stat_differs(after)
        assert before.differs(after)

    def test_unreadable_file_raises_typed_error(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="vanished"):
            artifact_content_token(tmp_path / "gone.npz")
        (tmp_path / "junk.npz").write_bytes(b"zzz")
        with pytest.raises(ArtifactFormatError, match="not a readable"):
            artifact_content_token(tmp_path / "junk.npz")


class TestScanArtifactDirectory:
    def test_indexes_every_artifact(self, artifact_dir):
        scan = scan_artifact_directory(artifact_dir)
        assert sorted(scan.entries) == ["itempop", "mf"]
        assert scan.entries["itempop"].model_name == "ItemPop"
        assert scan.failures == {}

    def test_garbage_file_lands_in_failures(self, artifact_dir):
        (artifact_dir / "broken.npz").write_bytes(b"not an npz at all")
        scan = scan_artifact_directory(artifact_dir)
        assert sorted(scan.entries) == ["itempop", "mf"]
        assert list(scan.failures) == ["broken.npz"]
        assert "broken.npz" in scan.failures["broken.npz"]

    def test_missing_directory_raises(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="does not exist"):
            scan_artifact_directory(tmp_path / "absent")

    def test_non_matching_files_are_ignored(self, artifact_dir):
        (artifact_dir / "README.txt").write_text("not an artifact")
        scan = scan_artifact_directory(artifact_dir)
        assert sorted(scan.entries) == ["itempop", "mf"]
        assert scan.failures == {}

    def test_file_deleted_between_listing_and_read_degrades_to_failure(
        self, artifact_dir, monkeypatch
    ):
        # TOCTOU: exactly the race a background rescan thread hits when a
        # publisher deletes/renames between the directory listing and the
        # header read.  Must land in `failures` with a diagnosable reason,
        # never propagate FileNotFoundError out of the scan.
        import repro.persist.index as index_module

        real_read = index_module.read_artifact_header

        def delete_then_read(path):
            if path.name == "mf.npz":
                os.unlink(path)
            return real_read(path)

        monkeypatch.setattr(index_module, "read_artifact_header", delete_then_read)
        scan = scan_artifact_directory(artifact_dir)
        assert sorted(scan.entries) == ["itempop"]
        assert "vanished" in scan.failures["mf.npz"]


class TestCopyArtifact:
    def test_byte_identical_replication(self, artifact_dir, tmp_path):
        destination = tmp_path / "published" / "mf.npz"
        copy_artifact(artifact_dir / "mf.npz", destination)
        assert destination.read_bytes() == (artifact_dir / "mf.npz").read_bytes()
        assert read_artifact_header(destination).model_name == "MF"
        # No temp files leak next to the destination.
        assert [p.name for p in destination.parent.iterdir()] == ["mf.npz"]

    def test_copy_onto_itself_is_a_noop(self, artifact_dir):
        path = artifact_dir / "mf.npz"
        before = path.read_bytes()
        copy_artifact(path, path)
        assert path.read_bytes() == before

    def test_missing_source_raises_typed_error(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="does not exist"):
            copy_artifact(tmp_path / "absent.npz", tmp_path / "out.npz")
