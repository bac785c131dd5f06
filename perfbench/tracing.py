"""Spans and counters recorded from outside the library.

The traced run rebinds public functions of ``tdcrecon`` to wrappers that
record a span (name, start, end, parent) per call, plus counts derived from
the call's arguments and result.  Counts that need extra computation run in a
``trace.bookkeeping`` span, so that they are charged to tracing, not to the
layer or its caller.  Everything stays in memory until the run ends.
"""
from __future__ import annotations

import functools
import inspect
import math
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager

import numpy as np
from scipy.spatial import cKDTree

BOOKKEEPING = "trace.bookkeeping"
# wrapped layers that run inside the timed estimate and evaluate stages
STAGE_LAYERS = (
    "tangent.estimate_tangents",
    "tangent.complete",
    "denoise.slab_counts",
    "denoise.sd_step",
    "sparsify.fps",
    "geometry.directed_hausdorff",
    "models.distance_many",
)


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.stats: dict[str, defaultdict] = defaultdict(lambda: defaultdict(float))
        self.samples: dict[str, list] = defaultdict(list)
        self.hook_errors: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    @contextmanager
    def span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, hook=None, peak: bool = False) -> None:
        """Replace ``owner.attr`` by a recording wrapper until ``restore``.

        A missing attribute is skipped: the layer then reports 0 calls.
        """
        original = getattr(owner, attr, None)
        if original is None:
            return
        signature = inspect.signature(original)
        stats = self.stats[name]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            own_tracing = peak and not tracemalloc.is_tracing()
            if own_tracing:
                tracemalloc.start()
            try:
                with tracer.span(name):
                    result = original(*args, **kwargs)
                if own_tracing:
                    peak_mib = tracemalloc.get_traced_memory()[1] / 2**20
                    stats["peak_mib"] = max(stats["peak_mib"], peak_mib)
            finally:
                if own_tracing:
                    tracemalloc.stop()
            stats["calls"] += 1
            if hook is not None:
                with tracer.span(BOOKKEEPING):
                    try:
                        bound = signature.bind(*args, **kwargs)
                        bound.apply_defaults()
                        hook(tracer, stats, bound.arguments, result)
                    except (TypeError, KeyError, AttributeError, ValueError) as exc:
                        tracer.hook_errors.append(f"{name}: {exc!r}")
            return result

        self._patches.append((owner, attr, original, attr in vars(owner)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patches:
            owner, attr, original, had_own = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the time its child spans cover."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)


# ---------------------------------------------------------------------------
# hooks: counts derived from one call's arguments and result


def _estimate_tangents(tracer, stats, a, field_):
    points = np.asarray(a["points"], dtype=float)
    n, big_d = points.shape
    targets = np.arange(n) if a["subset"] is None else np.asarray(a["subset"], dtype=int)
    stats["targets"] += len(targets)
    stats["skipped"] += len(field_.skipped)
    # size of one (targets, n, D) float64 difference tensor
    stats["bytes_computed"] += len(targets) * n * big_d * 8
    within = cKDTree(points).query_ball_point(
        points[targets], a["params"].h, return_length=True
    )
    stats["neighbours"] += float(np.sum(within - 1))


def _complete(tracer, stats, a, result):
    stats["filled"] += len(a["self"].skipped)


def _slab_counts(tracer, stats, a, counts):
    stats["pairs_tested"] += len(a["field_"].indices) * len(a["points"])
    tracer.samples["slab_counts"].append(np.asarray(counts))


def _sd_step(tracer, stats, a, result):
    stats["threshold"] = a["spec"].t * math.log(a["n_total"] - 1)


def _fps(tracer, stats, a, chosen):
    stats["net_size"] += len(chosen)
    stats["distance_evals"] += len(chosen) * len(a["points"])


def _directed_hausdorff(tracer, stats, a, result):
    stats["pairs"] += len(a["a"]) * len(a["b"])


def _grid(tracer, stats, a, grid):
    stats["points"] += len(grid)


def install(tracer: Tracer, tdcrecon, model_class) -> None:
    """Wrap every traced layer; ``tdcrecon`` is the imported package."""
    denoise, tangent = tdcrecon.denoise, tdcrecon.tangent
    tracer.wrap(denoise, "estimate_tangents", "tangent.estimate_tangents", _estimate_tangents, peak=True)
    tracer.wrap(tangent.TangentField, "complete", "tangent.complete", _complete)
    tracer.wrap(denoise, "slab_counts", "denoise.slab_counts", _slab_counts)
    tracer.wrap(denoise, "sd_step", "denoise.sd_step", _sd_step)
    tracer.wrap(tdcrecon.sparsify, "farthest_point_sampling", "sparsify.fps", _fps)
    tracer.wrap(tdcrecon.geometry, "directed_hausdorff", "geometry.directed_hausdorff",
                _directed_hausdorff, peak=True)
    tracer.wrap(tdcrecon.models, "sample", "models.sample")
    tracer.wrap(model_class, "grid", "models.grid", _grid)
    tracer.wrap(model_class, "distance_many", "models.distance_many")


def layer_metrics(tracer: Tracer, diags, n: int, max_k: int) -> dict[str, float]:
    """Per-layer metrics of one traced pipeline call.

    ``diags`` are the per-iteration diagnostics returned by
    ``iterative_denoise`` (empty when the workload does not denoise);
    iteration metrics are reported for k = 0 .. max_k.
    """
    own = tracer.self_times()
    st = tracer.stats
    est = st["tangent.estimate_tangents"]
    slab = st["denoise.slab_counts"]
    counts = (
        np.concatenate(tracer.samples["slab_counts"])
        if tracer.samples["slab_counts"]
        else np.zeros(1)
    )
    m = {
        "tangent.estimate_tangents.s": own["tangent.estimate_tangents"],
        "tangent.estimate_tangents.calls": est["calls"],
        "tangent.estimate_tangents.targets": est["targets"],
        "tangent.estimate_tangents.neighbours_mean": est["neighbours"] / max(est["targets"], 1),
        "tangent.estimate_tangents.bytes_computed": est["bytes_computed"],
        "tangent.estimate_tangents.peak_mb": est["peak_mib"],
        "tangent.estimate_tangents.skipped": est["skipped"],
        "tangent.complete.s": own["tangent.complete"],
        "tangent.complete.filled": st["tangent.complete"]["filled"],
        "denoise.slab_counts.s": own["denoise.slab_counts"],
        "denoise.slab_counts.pairs_tested": slab["pairs_tested"],
        "denoise.slab_counts.count_p05": float(np.percentile(counts, 5.0)),
        "denoise.slab_counts.count_p50": float(np.percentile(counts, 50.0)),
        "denoise.sd_step.s": own["denoise.sd_step"],
        "denoise.sd_step.threshold": st["denoise.sd_step"]["threshold"],
        "denoise.iterations": len(diags),
        "denoise.glue_s": own["denoise"],
        "sparsify.fps.s": own["sparsify.fps"],
        "sparsify.fps.net_size": st["sparsify.fps"]["net_size"],
        "sparsify.fps.distance_evals": st["sparsify.fps"]["distance_evals"],
        "geometry.directed_hausdorff.s": own["geometry.directed_hausdorff"],
        "geometry.directed_hausdorff.pairs": st["geometry.directed_hausdorff"]["pairs"],
        "geometry.directed_hausdorff.peak_mb": st["geometry.directed_hausdorff"]["peak_mib"],
        "models.sample.s": own["models.sample"],
        "models.grid.s": own["models.grid"],
        "models.grid.points": st["models.grid"]["points"],
        "models.distance_many.s": own["models.distance_many"],
        "trace.bookkeeping_s": tracer.total(BOOKKEEPING),
    }
    before = n
    for k in range(max_k + 1):
        # iterations that did not run report 0 survivors and a 0 ratio
        after = diags[k].survivors if k < len(diags) else 0
        m[f"denoise.survivors.k{k}"] = after
        m[f"denoise.kept_ratio.k{k}"] = after / before if before else 0.0
        before = after
    # share of the timed stages that the layers' self times and the denoise
    # glue account for; the rest is the stages' own code and tracing
    stages = tracer.total("estimate") + tracer.total("evaluate")
    m["trace.coverage"] = (own["denoise"] + sum(own[x] for x in STAGE_LAYERS)) / stages
    return m
