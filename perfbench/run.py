"""Benchmark of the tdcrecon estimator, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The run is a closed loop with one client:
it starts ``worker.py`` in a fresh process, waits for its one pipeline call
(sample, denoise, farthest-point net, Hausdorff to the model), and starts the
next one until ``--seconds`` have passed and every input has been used.
``--seed`` fixes INPUTS samples of the workload; the calls cycle through them.

With ``--trace 0`` it reports end-to-end metrics: timings are medians over
all calls (each call's evaluate_s is itself the median of its warm repeats,
see worker.py), quality metrics medians over the inputs.  With ``--trace 1`` it
runs each input untraced, then traced, and reports the medians of the
per-layer metrics of the traced calls.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  The full record, with every call's timings, digests and spans, is
written to ``perfbench/results/``.

Claims of a gain are checked on HELD_OUT_SEED, which is used for nothing else.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import MAX_K, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
RESULTS = HERE / "results"
HELD_OUT_SEED = 90731
# one BLAS thread: 1 and 2 threads time the same on the 2-core machine the
# benchmark was defined on, and one thread is steadier
BLAS_THREADS = "1"
# glibc keeps freed memory in the worker's heap instead of returning each
# large temporary to the kernel, so the repeats of a stage after its warm-up
# reuse pages already faulted in (see worker.py)
MALLOC_ENV = {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(2**40)}
# samples per run: medians over several inputs keep the run-to-run spread of
# the quality metrics (and of the work the timings measure) small
INPUTS = 7
MIN_TRACED_PAIRS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s
WORKER_TIMEOUT_S = 150.0

END_TO_END = {
    "setup_s": "s",
    "estimate_s": "s",
    "evaluate_s": "s",
    "peak_rss_mb": "MiB",
    "signal_recall": "ratio",
    "outlier_removed": "ratio",
    "hausdorff_to_M": "length",
}
QUALITY = ("signal_recall", "outlier_removed", "outlier_kept", "hausdorff_to_M")
REPEATS = QUALITY + ("survivors_digest", "net_digest")


def per_layer_units(k_iters: int) -> dict[str, str]:
    units = {
        "tangent.estimate_tangents.s": "s",
        "tangent.estimate_tangents.calls": "count",
        "tangent.estimate_tangents.targets": "count",
        "tangent.estimate_tangents.neighbours_mean": "count",
        "tangent.estimate_tangents.bytes_computed": "B",
        "tangent.estimate_tangents.peak_mb": "MiB",
        "tangent.estimate_tangents.skipped": "count",
        "tangent.complete.s": "s",
        "tangent.complete.filled": "count",
        "denoise.slab_counts.s": "s",
        "denoise.slab_counts.pairs_tested": "count",
        "denoise.slab_counts.count_p05": "count",
        "denoise.slab_counts.count_p50": "count",
        "denoise.sd_step.s": "s",
        "denoise.sd_step.threshold": "count",
        "denoise.iterations": "count",
        "denoise.glue_s": "s",
        "sparsify.fps.s": "s",
        "sparsify.fps.net_size": "count",
        "sparsify.fps.distance_evals": "count",
        "geometry.directed_hausdorff.s": "s",
        "geometry.directed_hausdorff.pairs": "count",
        "geometry.directed_hausdorff.peak_mb": "MiB",
        "models.sample.s": "s",
        "models.grid.s": "s",
        "models.grid.points": "count",
        "models.distance_many.s": "s",
        "trace.bookkeeping_s": "s",
        "trace.coverage": "ratio",
        "trace.overhead_s": "s",
        "outlier_kept": "ratio",
    }
    for k in range(k_iters + 1):
        units[f"denoise.survivors.k{k}"] = "count"
        units[f"denoise.kept_ratio.k{k}"] = "ratio"
    return units


PER_LAYER = per_layer_units(MAX_K)


def git_commit() -> str:
    """Commit of the checkout, read from .git without leaving it."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def input_seed(seed: int, j: int) -> int:
    return seed * INPUTS + j


def call_worker(args, j: int, traced: bool, deadline: float) -> dict:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(input_seed(args.seed, j)), "--trace", str(int(traced))]
    if args.n is not None:
        cmd += ["--n", str(args.n)]
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS, **MALLOC_ENV)
    timeout = max(1.0, min(WORKER_TIMEOUT_S, deadline - time.monotonic()))
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "input": j, "traced": traced,
                "error": f"timed out after {timeout:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        tail = proc.stderr.strip().splitlines()[-3:]
        out = {"ok": False, "error": f"exit code {proc.returncode}: {' | '.join(tail)}"}
    out["input"] = j
    out["traced"] = traced
    out["wall_s"] = time.monotonic() - started
    if "ready" in out:
        out["setup_s"] = out.pop("ready") - started
    return out


def median_of(calls: list[dict], key: str) -> float:
    return statistics.median(c[key] for c in calls)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--n", type=int, default=None,
                    help="override the sample size (for the smoke test)")
    args = ap.parse_args()
    if not (ROOT / "src" / "tdcrecon" / "__init__.py").is_file():
        print(f"no tdcrecon sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    min_calls = 2 * MIN_TRACED_PAIRS if args.trace else INPUTS
    calls: list[dict] = []
    while True:
        elapsed = time.monotonic() - start
        whole = not args.trace or len(calls) % 2 == 0
        if elapsed >= args.seconds and len(calls) >= min_calls and whole:
            break
        longest = max((c.get("wall_s", 0.0) for c in calls), default=0.0)
        if calls and elapsed + longest > RUN_LIMIT_S:
            break
        i = len(calls)
        if args.trace:  # each input untraced, then traced
            j, traced = (i // 2) % INPUTS, i % 2 == 1
        else:
            j, traced = i % INPUTS, False
        calls.append(call_worker(args, j, traced, deadline))

    for c in calls:
        if not c["ok"]:
            print(f"failed call on input {c['input']}: {c['error']}", file=sys.stderr)
    ok = [c for c in calls if c["ok"]]
    failed = len(calls) - len(ok)
    first: dict[int, dict] = {}
    repeat = True  # the same input gave the same outputs on every call
    for c in ok:
        ref = first.setdefault(c["input"], c)
        repeat &= all(c[k] == ref[k] for k in REPEATS)
    if not repeat:
        print("the same input gave different outputs across calls", file=sys.stderr)

    if args.trace:
        units = PER_LAYER
        pairs = [(p, t) for p, t in zip(calls[::2], calls[1::2]) if p["ok"] and t["ok"]]
        if not pairs:
            print("no untraced and traced call succeeded on one input", file=sys.stderr)
            return 1
        traced = [t for _, t in pairs]
        values = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in units if k in traced[0]["layers"]}
        values["outlier_kept"] = median_of(traced, "outlier_kept")
        values["trace.overhead_s"] = statistics.median(
            t["estimate_s"] - p["estimate_s"] for p, t in pairs)
        samples = f"{len(traced)} traced calls"
    else:
        units = END_TO_END
        if not ok:
            print("no successful pipeline call to report", file=sys.stderr)
            return 1
        timings = ("setup_s", "estimate_s", "evaluate_s", "peak_rss_mb")
        values = {k: median_of(ok, k) for k in timings}
        values.update({k: median_of(list(first.values()), k) for k in QUALITY})
        samples = f"{len(ok)} calls on {len(first)} inputs"

    w = WORKLOADS[args.workload]
    if args.n is not None:
        w = dataclasses.replace(w, n=args.n)
    record = {
        "workload": dataclasses.asdict(w),
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "seconds": args.seconds,
        "samples": samples,
        "git_commit": git_commit(),
        "versions": ok[0]["versions"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "openblas_num_threads": BLAS_THREADS,
        "malloc_env": MALLOC_ENV,
        "inputs": {j: {"seed": input_seed(args.seed, j),
                       **{k: c[k] for k in REPEATS + ("survivors", "net_size")}}
                   for j, c in sorted(first.items())},
        "calls": calls,
    }
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=1))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(calls)} calls, {failed} failed; medians of {samples}; record in "
          f"{out_file.relative_to(ROOT)}")
    for k, unit in units.items():
        print(f"  {k:44s} {values[k]:.6g} {unit}")
    result = {
        "correct": failed == 0 and repeat,
        "attempted": len(calls),
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
