"""Pinned outputs of whole estimator runs: a change that moves one fails here.

Each configuration samples a cloud, denoises it (unless it has no
outliers), takes the farthest-point net of the survivors and scores the net
against its model, as the benchmark's pipeline does.  ``golden.json`` holds,
per configuration, the sha256 of the survivors' and of the net's int64
indices, the ``diagnostics_to_json`` text and ``hausdorff_to_M`` as
``float.hex``.  The oracle tests pin each piece against a dense twin; this
table pins what the pieces give together, on seeds no other test draws.

A change meant to move an output updates the table in the same commit and
lists each changed row, old and new, with the reason.
"""
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from tdcrecon import denoise, geometry, models, sparsify

GOLDEN = json.loads((Path(__file__).resolve().parent / "golden.json").read_text())

# name: (model, ambient D, n, beta, eps, grid resolution, kappa, t, k_iters, seed);
# the denoise runs with the angle constant K = 0.5 and the model's reach
CONFIGS = {
    "circle2-clutter": ("circle", 2, 2000, 0.8, 0.02, 0.01, 8.0, 0.4, 2, 1901),
    "circle10-clutter": ("circle", 10, 3000, 0.8, 0.02, 0.01, 8.0, 0.4, 2, 1902),
    "torus3-clutter": ("torus", 3, 3000, 0.8, 0.1, 0.05, 30.0, 0.15, 2, 1903),
    "torus3-clean-net": ("torus", 3, 20000, 1.0, 0.1, 0.05, None, None, 0, 1904),
}


def _sha256(indices) -> str:
    return hashlib.sha256(np.asarray(indices, dtype=np.int64).tobytes()).hexdigest()


def run(name: str) -> dict:
    """The pinned outputs of configuration ``name``, as ``golden.json`` stores them."""
    kind, big_d, n, beta, eps, resolution, kappa, t, k_iters, seed = CONFIGS[name]
    if kind == "circle":
        model = models.make_model("circle", radius=1.0, ambient_dim=big_d)
    else:
        model = models.make_model("torus", major_radius=2.0, minor_radius=0.5, ambient_dim=big_d)
    cloud = models.sample(model, models.SampleSpec(n=n, beta=beta, seed=seed))
    if beta < 1.0:
        d = model.intrinsic_dim
        spec = denoise.default_slab_spec(d, big_d, model.reach, t, 0.5)
        kept, diags = denoise.iterative_denoise(cloud, d, beta, kappa, spec, k_iters)
        survivors = np.asarray(kept, dtype=np.int64)
    else:
        survivors, diags = np.arange(cloud.n, dtype=np.int64), []
    net = survivors[sparsify.farthest_point_sampling(cloud.points[survivors], eps)]
    net_pts = cloud.points[net]
    coverage = geometry.directed_hausdorff(model.grid(resolution), net_pts)
    hausdorff_to_m = max(float(model.distance_many(net_pts).max()), coverage)
    return {
        "survivors_sha256": _sha256(survivors),
        "net_sha256": _sha256(net),
        "diagnostics_json": denoise.diagnostics_to_json(diags),
        "hausdorff_to_M": hausdorff_to_m.hex(),
    }


def test_table_covers_every_configuration():
    assert sorted(GOLDEN) == sorted(CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_outputs_unchanged(name):
    assert run(name) == GOLDEN[name]
