"""Utilities: RNG management, timers, table rendering, logging."""

import logging
import time

import numpy as np

from repro.utils import (
    SeedSequenceFactory,
    Timer,
    configure_logging,
    format_float,
    format_table,
    get_logger,
    make_rng,
    spawn_rngs,
)


class TestRNG:
    def test_make_rng_deterministic(self):
        assert make_rng(5).integers(1000) == make_rng(5).integers(1000)

    def test_spawn_rngs_independent(self):
        rngs = spawn_rngs(1, ["a", "b"])
        assert set(rngs) == {"a", "b"}
        assert rngs["a"].integers(10**9) != rngs["b"].integers(10**9)

    def test_factory_streams_are_reproducible(self):
        first = SeedSequenceFactory(3)
        second = SeedSequenceFactory(3)
        assert first.next_rng().integers(10**9) == second.next_rng().integers(10**9)

    def test_factory_streams_differ(self):
        factory = SeedSequenceFactory(3)
        assert factory.next_rng().integers(10**9) != factory.next_rng().integers(10**9)

    def test_factory_named(self):
        named = SeedSequenceFactory(0).named(["x", "y"])
        assert set(named) == {"x", "y"}


class TestTimers:
    def test_timer_records_means(self):
        timer = Timer()
        for _ in range(3):
            with timer.time("phase"):
                time.sleep(0.002)
        record = timer.records["phase"]
        assert record.calls == 3
        assert timer.mean("phase") > 0
        assert timer.mean("missing") == 0.0
        assert timer.summary()[0].name == "phase"


class TestTables:
    def test_format_float(self):
        assert format_float(0.123456) == "0.1235"
        assert format_float(1.0, digits=2) == "1.00"

    def test_format_table_alignment_and_values(self):
        table = format_table(["name", "value"], [("a", 0.5), ("long-name", 2)])
        lines = table.splitlines()
        assert len(lines) == 4
        assert "0.5000" in table and "long-name" in table
        assert all(len(line) == len(lines[0]) for line in lines[2:])


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger("training").name == "repro.training"
        assert get_logger("repro.core").name == "repro.core"
        assert get_logger().name == "repro"

    def test_configure_logging_idempotent(self):
        configure_logging(level=logging.INFO)
        handler_count = len(logging.getLogger("repro").handlers)
        configure_logging(level=logging.DEBUG)
        assert len(logging.getLogger("repro").handlers) == handler_count
        assert logging.getLogger("repro").level == logging.DEBUG
