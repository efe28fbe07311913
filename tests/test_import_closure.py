"""Importing the package loads only what serving and training run.

``scipy.stats`` costs about 0.6 s and 50 MiB per process.  Only reporting
code calls it: Table III's paired tests (``repro.eval.significance``), the
Figure 5 density (``SimilarityDistribution.pdf``) and the influence
correlation (``analyze_social_influence``), so each imports it inside the
function.  Every spawn-context ``WorkerPool`` worker, benchmark run and
subprocess test imports ``repro`` and would otherwise pay it.  A fresh
interpreter is the only place the closure can be seen: in this process
some other test has long since loaded ``scipy.stats``.

To find what pulls a heavy module in, run
``python -X importtime -c "import repro.serving.workers"`` with
``PYTHONPATH=src`` and sort its report by cumulative time.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import repro, repro.serving.workers, repro.analysis, repro.experiments
after_import = sorted(name for name in sys.modules if name.split(".")[:2] == ["scipy", "stats"])
repro.eval.paired_t_test([0.1, 0.4, 0.3, 0.8], [0.2, 0.1, 0.5, 0.6])
print(json.dumps({"after_import": after_import, "after_test": "scipy.stats" in sys.modules}))
"""


def test_package_import_leaves_scipy_stats_to_the_functions_that_call_it():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    completed = subprocess.run(
        [sys.executable, "-c", PROBE],
        cwd=REPO_ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    loaded = json.loads(completed.stdout.strip().splitlines()[-1])
    # What every serving, training and benchmark process imports.
    assert loaded["after_import"] == [], loaded["after_import"]
    # The probe can see the module: a significance test does load it.
    assert loaded["after_test"] is True
