"""Temp-orphan sweeping: live writers are never reaped (regression suite).

The atomic publish protocol writes ``.{artifact}.tmp-{pid}-{attempt}``
entries and sweeps crash debris on the next save.  The original sweep
reaped on **age alone**, which is wrong with multiple writers: a paused
or slow live writer (or one whose temp file carries another host's clock)
looks "stale" and gets its in-flight save deleted from under it.  The
fixed sweep requires *both* a dead owner PID and the age window
(:data:`repro.persist.TMP_SWEEP_MAX_AGE_SECONDS`).

``test_live_owner_vetoes_reaping`` is the regression: it fails on the
age-only implementation.  A ``dir``-layout republish first renames the
previous artifact aside to ``.{artifact}.old-{pid}-{attempt}``; a writer
killed before deleting it leaves a full model copy behind, which the sweep
reaps under the same two rules.  The ``procs``-marked test drives two real
writer processes at one path and checks nobody's work is swept.
"""

import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import repro.persist.artifact as artifact_module
from repro.models import ModelSettings, build_model
from repro.persist import LAYOUT_DIR, ArtifactError, load_model, save_model

pytestmark = pytest.mark.persist

SETTINGS = ModelSettings(embedding_dim=8)
TWO_HOURS_AGO = -2 * 3600.0


def _backdate(path: Path, offset_seconds: float = TWO_HOURS_AGO) -> None:
    stamp = time.time() + offset_seconds
    os.utime(path, (stamp, stamp))


class TestSweepRules:
    def test_live_owner_vetoes_reaping(self, small_split, tmp_path):
        """REGRESSION — fails on the age-only sweep.

        A temp file owned by a *live* process (here: this test process)
        must survive a concurrent save even when its mtime says it is
        hours old.
        """
        target = tmp_path / "m.npz"
        in_flight = tmp_path / f".m.npz.tmp-{os.getpid()}-0"
        in_flight.write_bytes(b"half-written save by a live, slow writer")
        _backdate(in_flight)

        save_model(build_model("MF", small_split.train, SETTINGS), target)

        assert in_flight.exists(), (
            "the sweep reaped a temp file whose writer is still alive; "
            "age alone must never justify reaping"
        )

    def test_dead_owner_old_orphan_is_reaped(self, small_split, tmp_path):
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        target = tmp_path / "m.npz"
        orphan = tmp_path / f".m.npz.tmp-{probe.pid}-0"
        orphan.write_bytes(b"debris from a crashed writer")
        _backdate(orphan)

        save_model(build_model("MF", small_split.train, SETTINGS), target)

        assert not orphan.exists(), "dead-owner debris past the age window must be swept"

    def test_dead_owner_fresh_orphan_survives_the_age_window(self, small_split, tmp_path):
        """Fresh debris is kept (PID recycling + post-crash inspection)."""
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        target = tmp_path / "m.npz"
        orphan = tmp_path / f".m.npz.tmp-{probe.pid}-0"
        orphan.write_bytes(b"debris from a writer that crashed seconds ago")

        save_model(build_model("MF", small_split.train, SETTINGS), target)
        assert orphan.exists()

        _backdate(orphan)
        save_model(build_model("MF", small_split.train, SETTINGS), target)
        assert not orphan.exists()

    def test_dir_layout_orphan_directories_are_swept(self, small_split, tmp_path):
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        target = tmp_path / "m.npyd"
        orphan = tmp_path / f".m.npyd.tmp-{probe.pid}-0"
        orphan.mkdir()
        (orphan / "state").mkdir()
        (orphan / "state" / "w.npy").write_bytes(b"partial member")
        _backdate(orphan)

        save_model(build_model("MF", small_split.train, SETTINGS), target, layout=LAYOUT_DIR)
        assert not orphan.exists()

    def test_dead_owner_retired_directory_is_reaped(self, small_split, tmp_path):
        """A writer killed between retiring the old artifact and deleting it."""
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        target = tmp_path / "m.npyd"
        retired = tmp_path / f".m.npyd.old-{probe.pid}-0"
        save_model(build_model("MF", small_split.train, SETTINGS), retired, layout=LAYOUT_DIR)
        _backdate(retired)

        save_model(build_model("MF", small_split.train, SETTINGS), target, layout=LAYOUT_DIR)
        assert not retired.exists(), "a dead writer's retired artifact must be swept"

    def test_live_owner_retired_directory_survives(self, small_split, tmp_path):
        """A live writer's retired copy is neither reaped nor reused."""
        target = tmp_path / "m.npyd"
        retired = tmp_path / f".m.npyd.old-{os.getpid()}-0"
        retired.mkdir()
        (retired / "marker").write_bytes(b"mid-swap copy of a live writer")
        _backdate(retired)

        # The second save republishes, so it retires the first artifact
        # under a fresh name: the taken `-0` name is skipped.
        for _ in range(2):
            save_model(build_model("MF", small_split.train, SETTINGS), target, layout=LAYOUT_DIR)
        assert (retired / "marker").read_bytes() == b"mid-swap copy of a live writer"
        assert load_model(target, small_split.train).name == "MF"

    def test_foreign_temp_names_are_left_alone(self, small_split, tmp_path):
        """A temp entry with no parseable owner PID is never touched."""
        target = tmp_path / "m.npz"
        foreign = tmp_path / ".m.npz.tmp-from-another-tool"
        foreign.write_bytes(b"someone else's protocol")
        _backdate(foreign)

        save_model(build_model("MF", small_split.train, SETTINGS), target)
        assert foreign.exists()

    def test_age_window_is_configurable(self, small_split, tmp_path, monkeypatch):
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        target = tmp_path / "m.npz"
        orphan = tmp_path / f".m.npz.tmp-{probe.pid}-0"
        orphan.write_bytes(b"debris")
        _backdate(orphan, offset_seconds=-30.0)

        monkeypatch.setattr(artifact_module, "TMP_SWEEP_MAX_AGE_SECONDS", 5.0)
        save_model(build_model("MF", small_split.train, SETTINGS), target)
        assert not orphan.exists()


def _mf(split, seed):
    return build_model("MF", split.train, SETTINGS, rng=np.random.default_rng(seed))


def _assert_serves(target, split, model):
    loaded = load_model(target, split.train)
    expected = model.state_dict()
    assert set(loaded.state_dict()) == set(expected)
    for name, weights in loaded.state_dict().items():
        assert np.array_equal(weights, expected[name]), name


def _litter(directory):
    return [entry.name for entry in directory.iterdir() if ".tmp-" in entry.name or ".old-" in entry.name]


class TestDirRepublishRace:
    """A ``dir`` republish during which another writer retires ``path``.

    The patched ``os.rename`` plays the other writer: it moves ``path``
    away and deletes it, either right after this writer's first publish
    failed on the taken name or right before this writer's retire step.
    With ``other``, the other writer's artifact then lands at ``path``
    before this writer's retried publish.
    """

    @staticmethod
    def _race(monkeypatch, target, vanish_point, other=None):
        real_rename = os.rename
        vanished = []

        def vanish():
            shutil.rmtree(target)
            vanished.append(target)

        def rename(source, destination):
            source, destination = Path(source), Path(destination)
            if not vanished and vanish_point == "at-retire" and source == target:
                vanish()
            elif not vanished and vanish_point == "after-failed-publish" and destination == target:
                try:
                    return real_rename(source, destination)
                except OSError:
                    vanish()
                    raise
            elif vanished and other is not None and destination == target:
                real_rename(other, target)
            return real_rename(source, destination)

        monkeypatch.setattr(artifact_module.os, "rename", rename)

    @pytest.mark.parametrize("vanish_point", ["after-failed-publish", "at-retire"])
    def test_vanished_path_is_republished(self, small_split, tmp_path, monkeypatch, vanish_point):
        target = tmp_path / "m.npyd"
        save_model(_mf(small_split, 1), target, layout=LAYOUT_DIR)
        self._race(monkeypatch, target, vanish_point)

        newer = _mf(small_split, 2)
        save_model(newer, target, layout=LAYOUT_DIR)

        _assert_serves(target, small_split, newer)
        assert _litter(tmp_path) == []

    @pytest.mark.parametrize("vanish_point", ["after-failed-publish", "at-retire"])
    def test_other_writer_publishing_first_wins_typed(self, small_split, tmp_path, monkeypatch, vanish_point):
        target = tmp_path / "m.npyd"
        save_model(_mf(small_split, 1), target, layout=LAYOUT_DIR)
        other_model = _mf(small_split, 3)
        other = tmp_path / "other.npyd"
        save_model(other_model, other, layout=LAYOUT_DIR)
        self._race(monkeypatch, target, vanish_point, other=other)

        with pytest.raises(ArtifactError, match="concurrent writer"):
            save_model(_mf(small_split, 2), target, layout=LAYOUT_DIR)

        _assert_serves(target, small_split, other_model)
        assert _litter(tmp_path) == []


_WRITER_SCRIPT = """
import sys
import numpy as np
from repro.data import BeibeiLikeConfig, generate_dataset, leave_one_out_split
from repro.models import ModelSettings, build_model
from repro.persist import ArtifactError, save_model

target, seed, layout = sys.argv[1], int(sys.argv[2]), sys.argv[3]
# Must match the small_split fixture (tests/conftest.py): the parent
# loads the contended artifact against that dataset's schema.
split = leave_one_out_split(generate_dataset(BeibeiLikeConfig.small(seed=99)), seed=5)
succeeded = 0
for attempt in range(6):
    model = build_model("MF", split.train, ModelSettings(embedding_dim=8),
                        rng=np.random.default_rng(seed * 100 + attempt))
    try:
        save_model(model, target, layout=layout)
        succeeded += 1
    except ArtifactError:
        pass  # lost a publish race to the other writer; by design
print(succeeded)
sys.exit(0 if succeeded else 1)
"""


@pytest.mark.procs
@pytest.mark.parametrize("layout", ["npz", "dir"])
def test_two_processes_saving_one_path_never_reap_each_other(small_split, tmp_path, layout):
    """Two real writer processes race one artifact path, repeatedly.

    Afterwards: the artifact is valid and loadable (last writer won), and
    no temp debris is left behind — neither writer swept the other's
    in-flight save.
    """
    suffix = ".npz" if layout == "npz" else ".npyd"
    target = tmp_path / f"contended{suffix}"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[2] / "src") + os.pathsep + env.get(
        "PYTHONPATH", ""
    )
    writers = [
        subprocess.Popen(
            [sys.executable, "-c", _WRITER_SCRIPT, str(target), str(seed), layout],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in (1, 2)
    ]
    for writer in writers:
        stdout, stderr = writer.communicate(timeout=300)
        assert writer.returncode == 0, f"writer failed:\n{stderr}"
        assert int(stdout.strip()) >= 1

    loaded = load_model(target, small_split.train)
    assert loaded.score_all_items(np.arange(4)).shape == (4, small_split.train.num_items)
    litter = [
        entry.name
        for entry in tmp_path.iterdir()
        if ".tmp-" in entry.name or ".old-" in entry.name
    ]
    assert litter == [], f"temp debris left behind: {litter}"
