"""The benchmark's worker runs each workload on the package as it stands.

``perfbench/worker.py`` calls the library by name (sampling, denoising, the
net and the Hausdorff score), and its tracer reads more names to wrap them;
a renamed or re-signatured function there fails the benchmark run, not the
package's own tests.  So each workload runs here at a small n, in a fresh
process, as the benchmark starts it: once untraced and once traced.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"
WORKLOADS = ["circle10-clutter", "torus3-clean-net"]


def run_worker(workload, trace):
    """The worker's JSON record of one call of ``workload`` at n = 600."""
    command = [sys.executable, str(WORKER), "--workload", workload]
    command += ["--seed", "1", "--trace", str(trace), "--n", "600"]
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(command, capture_output=True, text=True, env=env, timeout=300)
    assert done.returncode == 0, done.stderr
    record = json.loads(done.stdout.splitlines()[-1])
    assert record["ok"] is True, record["error"]
    return record


@pytest.mark.parametrize("workload", WORKLOADS)
def test_worker_call_is_ok(workload):
    run_worker(workload, 0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_worker_call_is_ok(workload):
    # the tracer reads every layer it wraps by name: a name it evaluates
    # that the package no longer has fails at install time
    assert run_worker(workload, 1)["hook_errors"] == []
