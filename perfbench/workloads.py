"""Workload definitions for the tdcrecon benchmark.

Each workload fixes a model, a sample size and the estimator's parameters;
the run's ``--seed`` only picks the random sample.  Sizes are far below the
{2k, 10k, 50k} x D grid of the roadmap: every stage is a dense O(n^2) scan,
so n=50k would take minutes per pipeline call, and a run repeats the call
several times to report medians.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    model: str  # "circle" or "torus"
    ambient_dim: int
    n: int
    beta: float  # signal fraction; 1.0 means no outliers and no denoising
    eps: float  # farthest-point net spacing
    grid_resolution: float
    kappa: float = 0.0
    t: float = 0.0
    angle_constant: float = 0.5
    k_iters: int = 0

    @property
    def denoises(self) -> bool:
        return self.beta < 1.0


WORKLOADS = {
    w.name: w
    for w in (
        # The tier-1 circle configuration lifted to D=10: denoising is ~99% of
        # the estimate, high D with small balls is where a KD-tree gains least.
        Workload(
            name="circle10-clutter",
            model="circle",
            ambient_dim=10,
            n=3000,
            beta=0.8,
            eps=0.02,
            grid_resolution=0.01,
            kappa=8.0,
            t=0.4,
            k_iters=2,
        ),
        # The same denoise layer with d=2, D=3; its low signal recall is the
        # known 2-d signal loss the roadmap asks to fix.  Not in
        # BENCHMARK.json: on a shared 2-core host its timings swung by over
        # 20% between runs, more than a bound may allow, and its Hausdorff
        # error jumps tenfold on seeds where a far outlier survives into the
        # net.  Run it by hand.
        Workload(
            name="torus3-clutter",
            model="torus",
            ambient_dim=3,
            n=3000,
            beta=0.8,
            eps=0.1,
            grid_resolution=0.05,
            kappa=30.0,
            t=0.15,
            k_iters=2,
        ),
        # No outliers, so no denoising: the net and its coverage Hausdorff do
        # all the work, which is where a tree-pruned FPS or Hausdorff shows.
        Workload(
            name="torus3-clean-net",
            model="torus",
            ambient_dim=3,
            n=20000,
            beta=1.0,
            eps=0.1,
            grid_resolution=0.05,
        ),
    )
}

# per-iteration metrics are reported for k = 0 .. MAX_K on every workload
MAX_K = max(w.k_iters for w in WORKLOADS.values())
