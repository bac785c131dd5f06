"""The lemma-check module (its close-pair sampler, its boundary with the package)
and the settable surface of the package.

The checks themselves are tested next to the code they are about
(test_models, test_geometry, test_denoise).
"""
import ast
import dataclasses
import importlib
import inspect
import math
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import lemma_checks
import tdcrecon
from lemma_checks import circle_geodesic_distance, circle_points, geodesic_pairs
from tdcrecon import denoise, models
from tdcrecon.denoise import SlabSpec
from tdcrecon.models import SampleSpec, Sphere, Torus, make_model
from tdcrecon.sparsify import farthest_point_sampling
from tdcrecon.tangent import TseParams

MODULES = ["_neighbours", "denoise", "geometry", "models", "sparsify", "tangent"]
CHECK_NAMES = {"monte_carlo_reach", "geodesic_pairs", "CheckReport"}


def test_estimator_modules_hold_no_checks():
    # the package is the estimator, the models and their I/O
    assert sorted(m.name for m in pkgutil.iter_modules(tdcrecon.__path__)) == MODULES
    # no library file imports the test support
    for path in Path(tdcrecon.__file__).resolve().parent.rglob("*.py"):
        imported = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module:
                imported.add(node.module.split(".")[0])
        assert not imported & {"lemma_checks", "dense_oracles"}, path
    for name in MODULES:
        module = importlib.import_module(f"tdcrecon.{name}")
        names = set(vars(module))
        for obj in vars(module).values():
            if isinstance(obj, type) and obj.__module__ == module.__name__:
                names |= set(vars(obj))  # methods, such as a model's geodesic_pairs
        leaked = {n for n in names if n.startswith("verify_") or n in CHECK_NAMES}
        assert not leaked, f"tdcrecon.{name} defines {sorted(leaked)}"


def test_settable_surface():
    # each setting is one the paper's estimator has; a new one is argued for here
    fields = {spec: [f.name for f in dataclasses.fields(spec)]
              for spec in (TseParams, SampleSpec, SlabSpec, Sphere, Torus)}
    assert fields == {
        TseParams: ["h", "d"],
        SampleSpec: ["n", "beta", "seed"],
        SlabSpec: ["k1", "k2", "t"],
        Sphere: ["radius", "ambient_dim", "intrinsic_dim"],
        Torus: ["major_radius", "minor_radius", "ambient_dim"],
    }
    assert list(inspect.signature(farthest_point_sampling).parameters) == ["points", "eps"]
    assert not hasattr(denoise, "lemma_slab_constants")
    # the circle is the sphere of intrinsic_dim 1, not a class of its own
    kinds = {kind: make_model(kind) for kind in ("circle", "sphere", "torus")}
    assert kinds == {
        "circle": Sphere(1.0, ambient_dim=2, intrinsic_dim=1),
        "sphere": Sphere(1.0, ambient_dim=3, intrinsic_dim=2),
        "torus": Torus(),
    }
    with pytest.raises(ValueError, match="expected one of \\['circle', 'sphere', 'torus'\\]"):
        make_model("s3")
    assert not hasattr(models, "Circle")


class TestCircleGeodesicPairs:
    def test_draws_scale_with_pairs_kept(self, monkeypatch):
        # the loop once counted batches instead of pairs and drew about 2M
        # candidate pairs for k = 2000
        drawn = []

        def counted(circle, t):
            drawn.append(np.size(t))
            return circle_points(circle, t)

        monkeypatch.setattr(lemma_checks, "circle_points", counted)
        k, max_chord = 2000, 0.25
        x, _, _ = geodesic_pairs(make_model("circle"), np.random.default_rng(13), k, max_chord)
        assert len(x) == k
        # a candidate pair is close with probability 2 arcsin(c / 2) / pi
        accept = 2.0 * math.asin(max_chord / 2.0) / math.pi
        pairs_drawn = sum(drawn) / 2
        assert pairs_drawn <= 4.0 * k / accept

    def test_first_close_pairs_of_the_stream(self):
        # the batches are consecutive angle pairs of one stream, whatever
        # their sizes: the result is the first k close pairs of that stream
        circle, k, max_chord = make_model("circle"), 300, 0.25
        x, y, geo = geodesic_pairs(circle, np.random.default_rng(5), k, max_chord)
        t = np.random.default_rng(5).uniform(0.0, 2.0 * np.pi, size=(20_000, 2))
        p, q = circle_points(circle, t[:, 0]), circle_points(circle, t[:, 1])
        close = np.flatnonzero(np.linalg.norm(p - q, axis=1) <= max_chord)[:k]
        assert len(close) == k
        assert np.array_equal(x, p[close]) and np.array_equal(y, q[close])
        arcs = [circle_geodesic_distance(circle, a, b) for a, b in zip(x, y)]
        assert np.allclose(geo, arcs, rtol=0.0, atol=1e-12)
