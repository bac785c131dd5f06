"""Smoke tests of the benchmark: every defined workload at tiny n, traced and not.

    python -m pytest perfbench

They check the result line against BENCHMARK.json, that the correctness gate
passes, that a directory without the library sources is refused, and the
tracer's span and restore rules.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# every metric the benchmark was defined to emit, end to end or per layer
REQUIRED = {
    "setup_s", "estimate_s", "evaluate_s", "peak_rss_mb", "signal_recall",
    "outlier_kept", "hausdorff_to_M",
    "tangent.estimate_tangents.s", "tangent.estimate_tangents.calls",
    "tangent.estimate_tangents.targets", "tangent.estimate_tangents.neighbours_mean",
    "tangent.estimate_tangents.bytes_computed", "tangent.estimate_tangents.peak_mb",
    "tangent.estimate_tangents.skipped", "tangent.complete.s", "tangent.complete.filled",
    "denoise.slab_counts.s", "denoise.slab_counts.pairs_tested",
    "denoise.slab_counts.count_p05", "denoise.slab_counts.count_p50",
    "denoise.sd_step.threshold", "denoise.kept_ratio.k0", "denoise.survivors.k0",
    "denoise.iterations", "denoise.glue_s",
    "sparsify.fps.s", "sparsify.fps.net_size", "sparsify.fps.distance_evals",
    "geometry.directed_hausdorff.s", "geometry.directed_hausdorff.pairs",
    "geometry.directed_hausdorff.peak_mb",
    "models.sample.s", "models.grid.s", "models.grid.points", "models.distance_many.s",
    "trace.overhead_s",
}


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--n", "400"]
    return subprocess.run(cmd, capture_output=True, text=True, cwd=cwd, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    proc = run_bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_benchmark_defines_every_required_metric():
    names = {m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    assert REQUIRED <= names


def test_refuses_without_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run_bench(tmp_path, SPEC["workloads"][0]["name"], 0)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_wrappers_restore_and_count_missing_layers_as_zero():
    owner = types.SimpleNamespace(f=lambda x: x + 1)
    original = owner.f
    tracer = tracing.Tracer()
    tracer.wrap(owner, "f", "layer.f")
    tracer.wrap(owner, "gone", "layer.gone")  # a refactor removed it
    try:
        with tracer.span("outer"):
            assert owner.f(1) == 2
            raise RuntimeError("boom")
    except RuntimeError:
        pass
    finally:
        tracer.restore()
    assert owner.f is original
    assert tracer.stats["layer.f"]["calls"] == 1
    assert tracer.stats["layer.gone"]["calls"] == 0


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    own = tracer.self_times()
    assert inner["parent"] == outer["id"]
    assert own["outer"] == pytest.approx(
        (outer["end"] - outer["start"]) - (inner["end"] - inner["start"]))
