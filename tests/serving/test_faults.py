"""Unit tests for the seeded fault-injection harness (`repro.serving.faults`).

The harness is the instrument the chaos suite measures with, so its own
semantics must be airtight first: deterministic windows, substring
matching, seeded probability streams, pickling across the spawn boundary,
and the artifact-corruption primitive.
"""

import pickle
import threading
import time

import numpy as np
import pytest

import repro.persist.index as persist_index
from repro.persist import save_model
from repro.serving.faults import (
    FaultPlan,
    FaultRule,
    InjectedFaultError,
    active_plan,
    clear_plan,
    corrupt_artifact,
    fault_point,
    inject,
    install_plan,
)


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    """Every test starts and ends with no process-wide plan installed."""
    clear_plan()
    yield
    clear_plan()


class TestFaultRule:
    def test_window_selection(self):
        rule = FaultRule("s", start=2, count=3)
        assert [rule.in_window(i) for i in range(7)] == [
            False, False, True, True, True, False, False,
        ]

    def test_count_none_fires_forever(self):
        rule = FaultRule("s", start=1, count=None)
        assert not rule.in_window(0)
        assert rule.in_window(10_000)

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="kind"):
            FaultRule("s", kind="explode")
        with pytest.raises(ValueError, match="start/count"):
            FaultRule("s", start=-1)
        with pytest.raises(ValueError, match="probability"):
            FaultRule("s", probability=1.5)
        with pytest.raises(ValueError, match="stall seconds"):
            FaultRule("s", kind="stall", seconds=-0.1)


class TestFaultPlan:
    def test_error_rule_fires_only_in_window(self):
        plan = FaultPlan([FaultRule("site", kind="error", start=1, count=1)])
        with inject(plan):
            fault_point("site")  # call 0: before the window
            with pytest.raises(InjectedFaultError, match=r"site=site, call=1"):
                fault_point("site")  # call 1: fires
            fault_point("site")  # call 2: past the window
        assert plan.calls == {"site": 3}
        assert plan.total_triggered("site", "error") == 1

    def test_match_filters_by_detail_substring(self):
        plan = FaultPlan([FaultRule("site", match="mf", count=None)])
        with inject(plan):
            fault_point("site", "itempop.npz")  # no match: passes
            with pytest.raises(InjectedFaultError):
                fault_point("site", "mf.npz")
        # The no-match call still advanced the site counter.
        assert plan.calls["site"] == 2
        assert plan.total_triggered() == 1

    def test_custom_error_type(self):
        plan = FaultPlan([FaultRule("site", error_type=OSError, error_message="EIO")])
        with inject(plan):
            with pytest.raises(OSError, match="EIO"):
                fault_point("site")

    def test_stall_sleeps_then_continues(self):
        plan = FaultPlan([FaultRule("site", kind="stall", seconds=0.05, count=1)])
        with inject(plan):
            started = time.perf_counter()
            fault_point("site")  # stalls, then returns normally
            assert time.perf_counter() - started >= 0.04
        assert plan.total_triggered("site", "stall") == 1

    def test_probability_stream_is_seeded_and_deterministic(self):
        def firing_pattern(seed):
            plan = FaultPlan([FaultRule("site", probability=0.5, count=None)], seed=seed)
            fired = []
            with inject(plan):
                for _ in range(64):
                    try:
                        fault_point("site")
                        fired.append(0)
                    except InjectedFaultError:
                        fired.append(1)
            return fired

        pattern = firing_pattern(seed=7)
        assert pattern == firing_pattern(seed=7), "same seed must replay identically"
        assert pattern != firing_pattern(seed=8), "different seed must differ"
        assert 0 < sum(pattern) < 64, "p=0.5 should fire some but not all"

    def test_first_matching_rule_wins(self):
        plan = FaultPlan(
            [
                FaultRule("site", error_message="first", count=None),
                FaultRule("site", error_message="second", count=None),
            ]
        )
        with inject(plan):
            with pytest.raises(InjectedFaultError, match="first"):
                fault_point("site")
        assert plan.total_triggered() == 1

    def test_plan_pickles_and_replays_from_zero(self):
        plan = FaultPlan([FaultRule("site", start=1, count=1)], seed=3)
        with inject(plan):
            with pytest.raises(InjectedFaultError):
                fault_point("site"), fault_point("site")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.calls == {}, "unpickled plan restarts its call counters"
        with inject(clone):
            clone_outcomes = []
            for _ in range(2):
                try:
                    fault_point("site")
                    clone_outcomes.append("ok")
                except InjectedFaultError:
                    clone_outcomes.append("fault")
        assert clone_outcomes == ["ok", "fault"], "clone replays the same schedule"

    def test_thread_safety_of_counters(self):
        plan = FaultPlan([FaultRule("site", start=10**9)])  # never fires
        errors = []

        def hammer():
            try:
                for _ in range(500):
                    fault_point("site")
            except BaseException as error:  # noqa: BLE001 — collected for assert
                errors.append(error)

        with inject(plan):
            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not errors
        assert plan.calls["site"] == 8 * 500


class TestInstallation:
    def test_no_plan_is_a_noop(self):
        fault_point("anything")  # must not raise

    def test_install_and_clear(self):
        plan = FaultPlan([FaultRule("site")])
        install_plan(plan)
        assert active_plan() is plan
        clear_plan()
        assert active_plan() is None
        fault_point("site")  # cleared: no-op again

    def test_inject_restores_previous_plan(self):
        outer = FaultPlan([FaultRule("outer", start=10**9)])
        install_plan(outer)
        with inject(FaultPlan([FaultRule("inner", start=10**9)])) as inner:
            assert active_plan() is inner
        assert active_plan() is outer


class TestCorruptArtifact:
    def test_npz_corruption_is_seeded_and_breaks_the_read(self, tmp_path, small_split):
        from repro.models import build_model
        from repro.persist import ArtifactError, read_artifact_header

        path = tmp_path / "mf.npz"
        save_model(build_model("MF", small_split.train), path)
        before = path.read_bytes()
        offsets = corrupt_artifact(path, seed=5)
        assert offsets == sorted(offsets) and len(offsets) > 0
        after = path.read_bytes()
        assert len(before) == len(after)
        assert all(before[o] != after[o] for o in offsets)
        with pytest.raises((ArtifactError, OSError)):
            read_artifact_header(path)
        # Seeded: corrupting the pristine bytes again flips the same offsets.
        path.write_bytes(before)
        assert corrupt_artifact(path, seed=5) == offsets

    def test_dir_layout_targets_header_json(self, tmp_path, small_split):
        from repro.models import build_model
        from repro.persist import ArtifactError, read_artifact_header

        path = tmp_path / "mf.npyd"
        save_model(build_model("MF", small_split.train), path, layout="dir")
        header = (path / "header.json").read_bytes()
        corrupt_artifact(path, seed=1)
        assert (path / "header.json").read_bytes() != header
        with pytest.raises((ArtifactError, ValueError, OSError)):
            read_artifact_header(path)

    def test_empty_file_refused(self, tmp_path):
        empty = tmp_path / "empty.npz"
        empty.write_bytes(b"")
        with pytest.raises(ValueError, match="empty"):
            corrupt_artifact(empty)


class TestScanRetries:
    """Satellite: bounded, jittered retry for transient scan-path failures."""

    def _publish(self, tmp_path, small_split):
        from repro.models import build_model

        save_model(build_model("MF", small_split.train), tmp_path / "mf.npz")
        return tmp_path

    def test_transient_header_error_is_retried_to_success(
        self, tmp_path, small_split, monkeypatch
    ):
        from repro.persist import scan_artifact_directory

        monkeypatch.setattr(persist_index, "SCAN_RETRY_BACKOFF_SECONDS", 0.001)
        directory = self._publish(tmp_path, small_split)
        plan = FaultPlan(
            [FaultRule("persist.read_header", error_type=OSError, error_message="EIO", count=1)]
        )
        with inject(plan):
            scan = scan_artifact_directory(directory)
        assert sorted(scan.entries) == ["mf"], "one transient EIO must not drop the artifact"
        assert not scan.failures
        assert plan.total_triggered() == 1

    def test_persistent_failure_surfaces_after_bounded_retries(
        self, tmp_path, small_split, monkeypatch
    ):
        from repro.persist import scan_artifact_directory

        monkeypatch.setattr(persist_index, "SCAN_RETRIES", 2)
        monkeypatch.setattr(persist_index, "SCAN_RETRY_BACKOFF_SECONDS", 0.001)
        directory = self._publish(tmp_path, small_split)
        plan = FaultPlan(
            [
                FaultRule(
                    "persist.read_header",
                    error_type=OSError,
                    error_message="disk on fire",
                    count=None,
                )
            ]
        )
        with inject(plan):
            scan = scan_artifact_directory(directory)
        assert "mf.npz" in scan.failures
        assert "disk on fire" in scan.failures["mf.npz"]
        # Bounded: 1 initial + 2 retries, never an unbounded loop.
        assert plan.calls["persist.read_header"] == 3

    def test_zero_retries_fails_on_first_error(self, tmp_path, small_split, monkeypatch):
        from repro.persist import scan_artifact_directory

        monkeypatch.setattr(persist_index, "SCAN_RETRIES", 0)
        directory = self._publish(tmp_path, small_split)
        plan = FaultPlan(
            [FaultRule("persist.read_header", error_type=OSError, count=None)]
        )
        with inject(plan):
            scan = scan_artifact_directory(directory)
        assert "mf.npz" in scan.failures
        assert plan.calls["persist.read_header"] == 1

    def test_warmer_cycle_survives_transient_scan_fault(self, tmp_path, small_split):
        from repro.serving import CatalogWarmer, ModelCatalog

        directory = self._publish(tmp_path, small_split)
        catalog = ModelCatalog(directory, small_split.train)
        warmer = CatalogWarmer(catalog)
        plan = FaultPlan(
            [FaultRule("persist.read_header", error_type=OSError, error_message="EIO", count=1)]
        )
        with inject(plan):
            warmed = warmer.run_once()
        assert "mf" in warmed, "a transient header EIO must not fail the warm cycle"
