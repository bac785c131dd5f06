"""One pipeline call of a benchmark workload, in a fresh process.

    python3 perfbench/worker.py --workload NAME --seed N --trace 0|1 [--n N]

Imports ``tdcrecon`` from the checkout's ``src``, samples the workload's
cloud, runs the estimator (denoise, then a farthest-point net of the
survivors), scores the net against the model (untraced: one warm-up and
EVAL_REPEATS timed scorings), checks the outputs with an
independent KD-tree gate and prints one JSON line.  ``run.py`` starts it and
times set-up from the moment it starts the process: interpreter start, the
numpy, scipy.spatial and tdcrecon imports, sampling and the evaluation grid.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import scipy
from scipy.spatial import cKDTree

import tracing
from workloads import MAX_K, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"
HAUSDORFF_TOL = 1e-12
# timed evaluations per untraced call, after one warm-up; evaluate_s is their median
EVAL_REPEATS = 3


def _digest(indices) -> str:
    return hashlib.sha256(np.asarray(indices, dtype=np.int64).tobytes()).hexdigest()[:16]


def _distance_to_model(w, points):
    """Distance to M from the closed forms, written apart from ``tdcrecon``."""
    if w.model == "circle":
        planar, rest = np.hypot(points[:, 0], points[:, 1]) - 1.0, points[:, 2:]
    else:
        ring = np.hypot(points[:, 0], points[:, 1]) - 2.0
        planar, rest = np.hypot(ring, points[:, 2]) - 0.5, points[:, 3:]
    return np.sqrt(planar**2 + np.einsum("ij,ij->i", rest, rest))


def gate(w, cloud, survivors, net, grid, hausdorff_to_m) -> list[str]:
    """Correctness checks on one pipeline call; returns the failures."""
    problems = []
    n = cloud.n
    if np.unique(survivors).size != survivors.size:
        problems.append("survivor indices repeat")
    if survivors.min() < 0 or survivors.max() >= n:
        problems.append("survivor index out of range")
    if not np.isin(net, survivors).all():
        problems.append("net point outside the survivors")
    net_pts = cloud.points[net]
    net_tree = cKDTree(net_pts)
    if net_tree.query_pairs(w.eps):
        problems.append(f"two net points within eps={w.eps}")
    cover = net_tree.query(cloud.points[survivors])[0].max()
    if cover > w.eps:
        problems.append(f"a survivor is {cover} > eps={w.eps} from the net")
    expected = max(_distance_to_model(w, net_pts).max(), net_tree.query(grid)[0].max())
    if abs(expected - hausdorff_to_m) > HAUSDORFF_TOL:
        problems.append(f"hausdorff_to_M {hausdorff_to_m!r} != KD-tree {expected!r}")
    return problems


def run_once(w, seed: int, trace: bool) -> dict:
    sys.path.insert(0, str(SRC))
    import tdcrecon
    from tdcrecon import denoise, geometry, models, sparsify

    if not Path(tdcrecon.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"tdcrecon imported from {tdcrecon.__file__}, not from {SRC}")
    if w.model == "circle":
        model = models.make_model("circle", radius=1.0, ambient_dim=w.ambient_dim)
    else:
        model = models.make_model(
            "torus", major_radius=2.0, minor_radius=0.5, ambient_dim=w.ambient_dim
        )
    tracer = tracing.Tracer() if trace else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    if tracer:
        tracing.install(tracer, tdcrecon, type(model))
    try:
        with span("setup"):
            cloud = models.sample(model, models.SampleSpec(n=w.n, beta=w.beta, seed=seed))
            grid = model.grid(w.grid_resolution)
        ready = time.monotonic()

        t0 = time.perf_counter()
        with span("estimate"):
            if w.denoises:
                d = model.intrinsic_dim
                spec = denoise.default_slab_spec(
                    d, model.ambient_dim, model.reach, w.t, w.angle_constant
                )
                with span("denoise"):
                    kept, diags = denoise.iterative_denoise(
                        cloud, d, w.beta, w.kappa, spec, w.k_iters
                    )
                survivors = np.asarray(kept, dtype=np.int64)
            else:
                survivors, diags = np.arange(cloud.n, dtype=np.int64), []
            local = sparsify.farthest_point_sampling(cloud.points[survivors], w.eps)
            net = survivors[np.asarray(local, dtype=np.int64)]
        estimate_s = time.perf_counter() - t0

        def evaluate():
            net_pts = cloud.points[net]
            off_model = float(model.distance_many(net_pts).max())
            coverage = geometry.directed_hausdorff(grid, net_pts)
            n_signal = int(np.sum(cloud.labels == 1))
            kept_signal = int(np.sum(cloud.labels[survivors] == 1))
            return max(off_model, coverage), n_signal, kept_signal

        # Untraced, the first evaluation is a warm-up: on the clean torus its
        # Hausdorff temporaries (about 1 GB) are first faulted in by the kernel,
        # whose time swings with the host's memory pressure.  The timed
        # repeats run on the heap it left (run.py keeps freed memory in the
        # process), so evaluate_s measures the library's own work; the
        # footprint still shows in peak_rss_mb.  Traced, it runs once.
        evals, evals_s = [], []
        for _ in range(1 if tracer else 1 + EVAL_REPEATS):
            t0 = time.perf_counter()
            with span("evaluate"):
                evals.append(evaluate())
            evals_s.append(time.perf_counter() - t0)
        hausdorff_to_m, n_signal, kept_signal = evals[0]
        n_outliers = cloud.n - n_signal
        kept_outliers = survivors.size - kept_signal
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        if tracer:
            tracer.restore()

    problems = gate(w, cloud, survivors, net, grid, hausdorff_to_m)
    if any(e != evals[0] for e in evals):
        problems.append("repeated evaluations of one net differ")
    out = {
        "ok": not problems,
        "error": "; ".join(f"gate: {p}" for p in problems) or None,
        "ready": ready,
        "estimate_s": estimate_s,
        "evaluate_s": statistics.median(evals_s[1:] or evals_s),
        "evaluate_reps_s": evals_s,
        "peak_rss_mb": peak_rss_mb,
        "signal_recall": kept_signal / n_signal,
        # a workload without outliers has none left to remove
        "outlier_removed": 1.0 - kept_outliers / n_outliers if n_outliers else 1.0,
        "outlier_kept": kept_outliers / n_outliers if n_outliers else 0.0,
        "hausdorff_to_M": hausdorff_to_m,
        "survivors": int(survivors.size),
        "net_size": int(net.size),
        "survivors_digest": _digest(survivors),
        "net_digest": _digest(net),
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }
    if tracer:
        out["layers"] = tracing.layer_metrics(tracer, diags, cloud.n, MAX_K)
        out["spans"] = tracer.spans
        out["hook_errors"] = tracer.hook_errors
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--n", type=int, default=None, help="override the sample size")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]
    if args.n is not None:
        w = dataclasses.replace(w, n=args.n)
    try:
        out = run_once(w, args.seed, bool(args.trace))
    except Exception as exc:  # report the failure to run.py, which counts it
        out = {
            "ok": False,
            "error": f"{type(exc).__name__}: {exc}",
            "traceback": traceback.format_exc(),
        }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
