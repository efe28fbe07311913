"""Shared utilities: seeded RNG management, timing, logging, table rendering."""

from .rng import SeedSequenceFactory, make_rng, spawn_rngs
from .timer import Timer, TimingRecord
from .logging import configure_logging, get_logger
from .tables import format_float, format_table

__all__ = [
    "SeedSequenceFactory",
    "make_rng",
    "spawn_rngs",
    "Timer",
    "TimingRecord",
    "configure_logging",
    "get_logger",
    "format_float",
    "format_table",
]
