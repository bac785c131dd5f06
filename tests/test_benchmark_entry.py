"""The benchmark's worker runs each workload on the package as it stands.

``perfbench/worker.py`` calls the library by name (sampling, denoising, the
net and the Hausdorff score); a renamed or re-signatured function there
fails the benchmark run, not the package's own tests.  So each workload runs
here once, at a small n, in a fresh process, as the benchmark starts it.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"


@pytest.mark.parametrize("workload", ["circle10-clutter", "torus3-clean-net"])
def test_worker_call_is_ok(workload):
    command = [sys.executable, str(WORKER), "--workload", workload]
    command += ["--seed", "1", "--trace", "0", "--n", "600"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["ok"] is True, record["error"]
