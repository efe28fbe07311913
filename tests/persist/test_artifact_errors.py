"""Negative paths: every broken-artifact scenario fails loudly and typed.

Corruption, truncated headers, schema mismatches and future format
versions must each raise the matching :class:`ArtifactError` subclass with
an actionable message — never return a half-loaded model.  Cases that
apply to both on-disk layouts run against an ``npz`` archive and a ``dir``
artifact; :class:`TestDirLayoutErrors` covers the faults only a directory
of ``.npy`` members can have.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.models import ModelSettings, build_model
from repro.persist import (
    DIR_HEADER_FILENAME,
    LAYOUT_DIR,
    LAYOUT_NPZ,
    ArtifactError,
    ArtifactFormatError,
    ArtifactLayoutError,
    ArtifactVersionError,
    SchemaMismatchError,
    artifact_content_token,
    load_model,
    read_artifact_header,
    read_header,
    read_state_dict,
    save_model,
)
from repro.persist.artifact import FORMAT_VERSION, _HEADER_KEY, _STATE_PREFIX

pytestmark = pytest.mark.persist

SETTINGS = ModelSettings(embedding_dim=8)
SUFFIX = {LAYOUT_NPZ: ".npz", LAYOUT_DIR: ".npyd"}
#: Readers that parse the JSON header, in both layouts.
HEADER_READERS = [read_header, read_artifact_header]
KNN_INDICES = "__extra__/similarity.indices"


@pytest.fixture(params=[LAYOUT_NPZ, LAYOUT_DIR])
def layout(request):
    return request.param


def save(model, directory: Path, stem: str, layout: str) -> Path:
    path = directory / f"{stem}{SUFFIX[layout]}"
    save_model(model, path, layout=layout)
    return path


@pytest.fixture()
def artifact(small_split, tmp_path, layout):
    return save(build_model("MF", small_split.train, SETTINGS), tmp_path, "mf", layout)


def rewrite_header(path, mutate):
    """Rewrite an artifact with its JSON header transformed by ``mutate``."""
    if path.is_dir():
        header = path / DIR_HEADER_FILENAME
        header.write_text(mutate(header.read_text("utf-8")), "utf-8")
        return
    with np.load(path) as archive:
        arrays = {key: archive[key] for key in archive.files}
    header_text = bytes(arrays[_HEADER_KEY]).decode("utf-8")
    arrays[_HEADER_KEY] = np.frombuffer(mutate(header_text).encode("utf-8"), dtype=np.uint8)
    np.savez(path, **arrays)


def rewrite_state(path, key, transform):
    """Replace state array ``key`` by ``transform(array)``; ``None`` drops it."""
    if path.is_dir():
        member = path / f"{_STATE_PREFIX}{key}.npy"
        value = transform(np.load(member))
        member.unlink()
        if value is not None:
            np.save(member, value)
        return
    with np.load(path) as archive:
        arrays = {name: archive[name] for name in archive.files}
    value = transform(arrays.pop(_STATE_PREFIX + key))
    if value is not None:
        arrays[_STATE_PREFIX + key] = value
    np.savez(path, **arrays)


class TestCorruption:
    def test_garbage_bytes_raise_format_error(self, tmp_path):
        path = tmp_path / "garbage.npz"
        path.write_bytes(b"\x00\x01definitely not a zip archive")
        with pytest.raises(ArtifactFormatError, match="not a readable npz"):
            read_header(path)

    def test_raw_npy_file_raises_format_error(self, tmp_path):
        path = tmp_path / "weights.npz"  # npy content behind an npz name
        with path.open("wb") as handle:
            np.save(handle, np.ones(3))
        with pytest.raises(ArtifactFormatError, match="npy"):
            read_header(path)

    def test_missing_file_raises_format_error(self, tmp_path):
        with pytest.raises(ArtifactFormatError, match="does not exist"):
            read_header(tmp_path / "nope.npz")

    def test_foreign_npz_raises_format_error(self, small_split, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, weights=np.ones(3))
        with pytest.raises(ArtifactFormatError, match="not written by repro.persist"):
            load_model(path, small_split.train)

    def test_foreign_npz_with_string_header_raises_format_error(self, tmp_path):
        path = tmp_path / "foreign.npz"
        np.savez(path, __header__=np.array("hello world"))
        with pytest.raises(ArtifactFormatError, match="unreadable"):
            read_header(path)

    @pytest.mark.parametrize("read", HEADER_READERS)
    def test_truncated_json_header_raises_format_error(self, artifact, read):
        rewrite_header(artifact, lambda text: text[: len(text) // 2])
        with pytest.raises(ArtifactFormatError, match="not valid JSON"):
            read(artifact)

    @pytest.mark.parametrize("read", HEADER_READERS)
    def test_non_dict_json_header_raises_format_error(self, artifact, read):
        rewrite_header(artifact, lambda text: "[1, 2, 3]")
        with pytest.raises(ArtifactFormatError, match="JSON object"):
            read(artifact)

    def test_header_wrong_format_name_raises(self, artifact):
        def mutate(text):
            payload = json.loads(text)
            payload["format"] = "somebody-elses-format"
            return json.dumps(payload)

        rewrite_header(artifact, mutate)
        with pytest.raises(ArtifactFormatError, match="somebody-elses-format"):
            read_header(artifact)

    def test_bit_flipped_csr_indices_fail_loudly(self, small_split, tmp_path, layout):
        """Out-of-bounds index arrays in extra state must not load silently."""
        path = save(build_model("ItemKNN", small_split.train, SETTINGS), tmp_path, "knn", layout)

        def flip(indices):
            corrupted = indices.copy()
            corrupted[0] = small_split.train.num_items + 100  # column out of range
            return corrupted

        rewrite_state(path, KNN_INDICES, flip)
        with pytest.raises(ArtifactFormatError, match="similarity"):
            load_model(path, small_split.train)

    def test_float_typed_csr_indices_fail_loudly(self, small_split, tmp_path, layout):
        """Float index arrays would be silently truncated by scipy."""
        path = save(build_model("ItemKNN", small_split.train, SETTINGS), tmp_path, "knn", layout)
        rewrite_state(path, KNN_INDICES, lambda indices: indices.astype(np.float64) + 0.7)
        with pytest.raises(ArtifactFormatError, match="integer-typed"):
            load_model(path, small_split.train)

    def test_mmap_on_npz_is_refused_before_any_read(self, small_split, tmp_path, monkeypatch):
        path = save(build_model("MF", small_split.train, SETTINGS), tmp_path, "mf", LAYOUT_NPZ)
        monkeypatch.setattr(np, "load", lambda *args, **kwargs: pytest.fail("the archive was read"))
        with pytest.raises(ArtifactLayoutError, match="migrate_artifact"):
            load_model(path, small_split.train, mmap=True)

    def test_missing_state_arrays_raise_format_error(self, artifact, small_split):
        rewrite_state(artifact, read_header(artifact).state_keys[0], lambda array: None)
        with pytest.raises(ArtifactFormatError, match="missing state arrays"):
            read_state_dict(artifact)
        with pytest.raises(ArtifactFormatError, match="missing state arrays"):
            load_model(artifact, small_split.train)


class TestVersioning:
    def test_future_format_version_raises_version_error(self, artifact, small_split):
        def mutate(text):
            payload = json.loads(text)
            payload["format_version"] = FORMAT_VERSION + 41
            return json.dumps(payload)

        rewrite_header(artifact, mutate)
        with pytest.raises(ArtifactVersionError, match="upgrade the library"):
            load_model(artifact, small_split.train)

    @pytest.mark.parametrize(
        "field,value", [("state_keys", 42), ("schema", [1, 2]), ("settings", "x")]
    )
    def test_malformed_header_fields_raise_format_error(self, artifact, field, value):
        """Wrong-typed state_keys/schema must fail typed, not crash later."""

        def mutate(text):
            payload = json.loads(text)
            payload[field] = value
            return json.dumps(payload)

        rewrite_header(artifact, mutate)
        with pytest.raises(ArtifactFormatError, match=field):
            read_header(artifact)

    def test_non_integer_version_raises_format_error(self, artifact):
        def mutate(text):
            payload = json.loads(text)
            payload["format_version"] = "one"
            return json.dumps(payload)

        rewrite_header(artifact, mutate)
        with pytest.raises(ArtifactFormatError, match="format_version"):
            read_header(artifact)


class TestSchemaMismatch:
    def test_wrong_dataset_raises_schema_error(self, artifact, tiny_dataset):
        with pytest.raises(SchemaMismatchError, match="num_users"):
            load_model(artifact, tiny_dataset)

    def test_same_shape_different_content_raises(self, small_split, tmp_path):
        """Same user/item counts but different behaviors → digest mismatch."""
        train = small_split.train
        model = build_model("MF", train, SETTINGS)
        path = tmp_path / "mf.npz"
        save_model(model, path)
        shuffled = train.with_behaviors(list(reversed(train.behaviors)))
        with pytest.raises(SchemaMismatchError, match="digest"):
            load_model(path, shuffled)

    def test_error_message_tells_operator_what_to_do(self, artifact, tiny_dataset):
        with pytest.raises(SchemaMismatchError, match="original training dataset"):
            load_model(artifact, tiny_dataset)

    def test_load_state_into_with_dataset_requires_fingerprint(self, small_split, tmp_path):
        """Asking for verification against a fingerprint-less artifact fails."""
        from repro.models.mf import MatrixFactorization
        from repro.persist import load_state_into

        train = small_split.train
        model = MatrixFactorization(train.num_users, train.num_items, 8, rng=np.random.default_rng(0))
        path = tmp_path / "bare.npz"
        save_model(model, path)  # no dataset: schema=None
        with pytest.raises(SchemaMismatchError, match="no dataset-schema fingerprint"):
            load_state_into(model, path, dataset=train)
        load_state_into(model, path)  # without a dataset it stays unchecked

        # A registry-built model carries its dataset, so the check runs by
        # default and the documented opt-out is the only way through.
        registry_model = build_model("MF", train, SETTINGS)
        load_state_into(registry_model, path, verify_schema=False)
        with pytest.raises(SchemaMismatchError, match="verify_schema=False"):
            load_state_into(registry_model, path)

    def test_artifact_mode_honors_umask(self, small_split, tmp_path):
        """Artifacts must be as readable as any plainly-opened file."""
        import os
        import stat

        model = build_model("MF", small_split.train, SETTINGS)
        path = tmp_path / "mf.npz"
        save_model(model, path)
        reference = tmp_path / "plain.txt"
        reference.write_bytes(b"x")
        assert stat.S_IMODE(os.stat(path).st_mode) == stat.S_IMODE(os.stat(reference).st_mode)

    def test_stale_tmp_from_hard_crash_is_reclaimed(self, small_split, tmp_path):
        import os
        import subprocess
        import sys
        import time

        model = build_model("MF", small_split.train, SETTINGS)
        path = tmp_path / "mf.npz"
        # Debris from a writer that is confirmed dead (a real, exited PID)
        # and older than the sweep window: the only reapable combination.
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        stale = tmp_path / f".mf.npz.tmp-{probe.pid}-0"
        stale.write_bytes(b"partial write from a process killed yesterday")
        old = time.time() - 86400
        os.utime(stale, (old, old))
        fresh = tmp_path / f".mf.npz.tmp-{os.getpid()}-0"
        fresh.write_bytes(b"another writer, mid-save right now")

        save_model(model, path)
        assert not stale.exists()  # old dead-owner orphan reclaimed ...
        assert fresh.exists()  # ... but a live writer is left alone
        assert path.exists()

    def test_artifact_without_fingerprint_refuses_load_model(self, artifact, small_split):
        """load_model must not serve a model it cannot verify against the dataset."""

        def mutate(text):
            payload = json.loads(text)
            payload["schema"] = None
            return json.dumps(payload)

        rewrite_header(artifact, mutate)
        with pytest.raises(SchemaMismatchError, match="load_state_into"):
            load_model(artifact, small_split.train)


def rewrite_payload(path, mutate):
    """Apply ``mutate`` to the parsed ``header.json`` of a dir artifact in place."""

    def rewrite(text):
        payload = json.loads(text)
        mutate(payload)
        return json.dumps(payload)

    rewrite_header(path, rewrite)


class TestDirLayoutErrors:
    """Faults only a directory of ``.npy`` members plus ``header.json`` can have."""

    @pytest.fixture()
    def artifact(self, small_split, tmp_path):
        return save(build_model("MF", small_split.train, SETTINGS), tmp_path, "mf", LAYOUT_DIR)

    @pytest.mark.parametrize(
        "read,fragment",
        [
            (read_header, "without a header.json"),
            (artifact_content_token, "without a header.json"),
            # The stat of header.json comes first and names the race.
            (read_artifact_header, "vanished"),
        ],
    )
    def test_directory_without_header_raises(self, artifact, read, fragment):
        (artifact / DIR_HEADER_FILENAME).unlink()
        with pytest.raises(ArtifactFormatError, match=fragment):
            read(artifact)

    @pytest.mark.parametrize("read", HEADER_READERS + [artifact_content_token])
    @pytest.mark.parametrize("damage", ["undecodable", "directory"])
    def test_unreadable_header_raises(self, artifact, read, damage):
        header = artifact / DIR_HEADER_FILENAME
        if damage == "undecodable":
            header.write_bytes(b'\xff\xfe{"format": 1}')
        else:
            header.unlink()
            header.mkdir()  # stat succeeds, the read fails with an OSError
        with pytest.raises(ArtifactFormatError, match="unreadable"):
            read(artifact)

    @pytest.mark.parametrize(
        "mutate,fragment",
        [(lambda text: text[: len(text) // 2], "not valid JSON"), (lambda text: '"a"', "JSON object")],
        ids=["truncated", "string"],
    )
    def test_content_token_parses_the_header(self, artifact, mutate, fragment):
        rewrite_header(artifact, mutate)
        with pytest.raises(ArtifactFormatError, match=fragment):
            artifact_content_token(artifact)

    @pytest.mark.parametrize("read", [artifact_content_token, read_artifact_header])
    @pytest.mark.parametrize("manifest", [None, {}, [1, 2]], ids=["absent", "empty", "list"])
    def test_header_without_members_manifest_raises(self, artifact, read, manifest):
        def mutate(payload):
            if manifest is None:
                del payload["members"]
            else:
                payload["members"] = manifest

        rewrite_payload(artifact, mutate)
        with pytest.raises(ArtifactFormatError, match="no members manifest"):
            read(artifact)

    @pytest.mark.parametrize("read", [artifact_content_token, read_artifact_header])
    @pytest.mark.parametrize("damage", ["crc32", "size", "entry"])
    def test_malformed_manifest_entry_raises(self, artifact, read, damage):
        def mutate(payload):
            first = sorted(payload["members"])[0]
            if damage == "entry":
                payload["members"][first] = 7
            else:
                del payload["members"][first][damage]

        rewrite_payload(artifact, mutate)
        with pytest.raises(ArtifactFormatError, match="malformed manifest entry"):
            read(artifact)

    @pytest.mark.parametrize("mmap", [False, True])
    def test_unreadable_npy_member_raises(self, artifact, small_split, mmap):
        member = artifact / f"{_STATE_PREFIX}{read_header(artifact).state_keys[0]}.npy"
        member.write_bytes(b"not an npy file")
        with pytest.raises(ArtifactFormatError, match="unreadable state array"):
            load_model(artifact, small_split.train, mmap=mmap)
        with pytest.raises(ArtifactFormatError, match="unreadable state array"):
            read_state_dict(artifact)


class TestErrorTaxonomy:
    def test_all_errors_are_artifact_errors(self):
        assert issubclass(ArtifactFormatError, ArtifactError)
        assert issubclass(ArtifactVersionError, ArtifactError)
        assert issubclass(SchemaMismatchError, ArtifactError)

    def test_single_catch_covers_every_failure(self, tmp_path, small_split):
        path = tmp_path / "bad.npz"
        path.write_bytes(b"junk")
        with pytest.raises(ArtifactError):
            load_model(path, small_split.train)

    def test_wrong_model_artifact_rejected_by_load_state_into(self, small_split, tmp_path):
        """MF and SocialMF share parameter keys/shapes; the header must catch it."""
        from repro.persist import ModelMismatchError, load_state_into

        train = small_split.train
        source = build_model("SocialMF", train, SETTINGS)
        path = tmp_path / "socialmf.npz"
        save_model(source, path)
        target = build_model("MF", train, SETTINGS)
        assert set(source.state_dict()) == set(target.state_dict())
        with pytest.raises(ModelMismatchError, match="SocialMF"):
            load_state_into(target, path)

    def test_unrebuildable_artifact_points_at_load_state_into(self, small_split, tmp_path):
        """A bare model saved without settings loads only via load_state_into."""
        from repro.models.mf import MatrixFactorization

        train = small_split.train
        model = MatrixFactorization(train.num_users, train.num_items, 8, rng=np.random.default_rng(0))
        path = tmp_path / "bare.npz"
        save_model(model, path, dataset=train)
        with pytest.raises(ArtifactFormatError, match="load_state_into"):
            load_model(path, train)
