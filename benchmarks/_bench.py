"""One writer for the ``BENCH_*.json`` trajectory files.

Several benches share one file, each owning named sections under
``results``.  :func:`write_sections` merges a bench's sections into the
file, so the sections other benches own survive, and writes through
persist's temp-file + fsync + ``os.replace`` helper, so an interrupted
write leaves the previous file whole.  An existing file that cannot be
read raises instead of being replaced: starting fresh would drop every
section the other benches own.  :func:`host_block` gives a section the
host fields ``perfbench/run.py`` prints, so a figure names the machine
and commit it was measured on.
"""

from __future__ import annotations

import contextlib
import importlib.util
import json
import subprocess
from pathlib import Path
from typing import Any, Dict, Optional

from repro.persist.artifact import _atomic_replace_write

REPO_ROOT = Path(__file__).resolve().parent.parent

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


def host_block() -> Dict[str, Any]:
    """perfbench's host fields (nproc, Python, numpy, scipy, git SHA) plus ``git_dirty``.

    ``git_dirty`` is true when the checkout differs from ``git_sha``, as
    when a change is measured before it is committed.
    """
    run_py = REPO_ROOT / "perfbench" / "run.py"
    spec = importlib.util.spec_from_file_location("perfbench_run", run_py)
    perfbench_run = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(perfbench_run)
    host = perfbench_run.host_info()
    host["git_dirty"] = None  # unknown outside a git checkout
    if (REPO_ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            status = subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"],
                cwd=REPO_ROOT, capture_output=True, text=True, timeout=10, check=True,
            )
            host["git_dirty"] = bool(status.stdout.strip())
    return host
