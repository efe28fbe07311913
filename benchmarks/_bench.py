"""One writer for the ``BENCH_*.json`` trajectory files.

Several benches share one file, each owning named sections under
``results``.  :func:`write_sections` merges a bench's sections into the
file, so the sections other benches own survive, and writes through
persist's temp-file + fsync + ``os.replace`` helper, so an interrupted
write leaves the previous file whole.  An existing file that cannot be
read raises instead of being replaced: starting fresh would drop every
section the other benches own.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional

from repro.persist.artifact import _atomic_replace_write

#: Schema of ``BENCH_serving.json``.
SERVING_SCHEMA = "repro-serving-bench/v6"
#: Schema of ``BENCH_training.json``.
TRAINING_SCHEMA = "repro-training-bench/v1"


def write_sections(
    path: Path,
    schema: str,
    sections: Dict[str, Any],
    config: Optional[Dict[str, Any]] = None,
) -> None:
    """Merge ``sections`` into ``results`` of the JSON file at ``path``, atomically.

    Sections of the same name are replaced and all others are kept.
    ``config`` replaces the file's ``config`` when given and leaves it
    alone otherwise; ``schema`` is always set.
    """
    path = Path(path)
    payload: Dict[str, Any] = {"schema": schema, "config": {}, "results": {}}
    if path.exists():
        try:
            payload = json.loads(path.read_text("utf-8"))
        except (OSError, ValueError) as error:
            raise RuntimeError(
                f"{path} exists but cannot be read ({error}); repair or delete it first, "
                f"since rewriting it would drop the sections other benches own"
            ) from error
    payload["schema"] = schema
    if config is not None:
        payload["config"] = config
    payload.setdefault("results", {}).update(sections)
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    _atomic_replace_write(path, lambda handle: handle.write(text.encode("utf-8")))
    print(f"\nwrote {path}")
