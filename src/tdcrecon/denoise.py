"""Slab-counting outlier removal with an iterative bandwidth schedule.

A slab at x in direction T is the Minkowski sum of a tangential ball of radius
k1*h and a normal ball of radius k2*h^2.  A point survives one denoising step
when its slab holds at least t*log(n-1) sample points (itself included).  The
bandwidths shrink along the exponent recurrence
gamma_{k+1} = (2*gamma_k + 1) / (d + 2), gamma_0 = 1/(d+1), whose fixed point
is 1/d.

The slab at bandwidth h lies in the ball of radius sqrt((k1 h)^2 + (k2 h^2)^2),
so each iteration runs one neighbour search of the surviving cloud, a KD-tree
self-join at the larger of that radius and the tangent bandwidth, and reads
its neighbour blocks in one pass (a padded slot of a block sits at infinite
distance, in no ball and no slab): each block gives a local-PCA basis for
every row and, with those bases, the slab counts of the rows with enough
neighbours for an estimate.  The other rows hold a placeholder basis.  One
that lists no neighbour counts only itself, whatever its basis; the rest
have it overwritten with the nearest estimate by :func:`.tangent._inherit`,
and only those rows are read a second time, from the same lists, and count
their slabs.  The lists are dropped before the next iteration searches.

That pass is the package's only slab counter.  Tangents alone, say at the
points of a net, come from :func:`.tangent.estimate_tangents`.

Each entry point checks its input once: :func:`bandwidths` takes n, d and
k_iters through ``check_int`` and beta (at most 1) and kappa through
``check_positive``, and needs kappa log(n) / (beta (n - 1)) below 1, so
that the bandwidths shrink; :func:`iterative_denoise` takes its cloud and
spec through ``_check_instance``, then calls it, so every scale is checked
before it is used, then needs d below the cloud's D (the cloud's points were
checked when it was built); :func:`default_slab_spec` takes d and D through
``check_int`` and the reach and the angle constant K through
``check_positive``; :func:`k_delta` takes d through ``check_int``.
"""
from __future__ import annotations

import json
import math
import numbers
from dataclasses import asdict, dataclass
from itertools import islice

import numpy as np

from . import _neighbours
from ._neighbours import _check_instance, check_int, check_positive
from .models import LabeledCloud
from .tangent import _block_bases, _inherit


@dataclass(frozen=True)
class SlabSpec:
    k1: float  # tangential half-width factor (times h)
    k2: float  # normal half-width factor (times h^2)
    t: float  # survival threshold factor (times log(n-1))

    def __post_init__(self):
        check_positive(self.k1, "k1")
        check_positive(self.k2, "k2")
        t = self.t
        if isinstance(t, bool) or not isinstance(t, numbers.Real) or not 0 <= t < math.inf:
            raise ValueError(f"need t >= 0 and finite, got {t!r}")


def default_slab_spec(
    d: int, ambient_dim: int, rho: float, t: float, angle_constant: float = 2.0
) -> SlabSpec:
    """The slab of the paper's lemmas for a d-manifold of reach rho in R^D, threshold t.

    k1 = 3 / (4 d + 8 K sqrt(d)) and k2 = 1 / (4 sqrt(D - d) max(rho, 1)),
    with K the tangent angle constant.
    """
    check_int(d, "d", 1)
    check_int(ambient_dim, "ambient_dim", d + 1)
    check_positive(rho, "reach rho")
    check_positive(angle_constant, "angle constant K")
    k1 = 3.0 / (4.0 * d + 8.0 * angle_constant * math.sqrt(d))
    k2 = 1.0 / (4.0 * math.sqrt(ambient_dim - d) * max(rho, 1.0))
    return SlabSpec(k1=k1, k2=k2, t=t)


def _slab_mask(
    diff: np.ndarray, basis: np.ndarray, h: float, spec: SlabSpec, d2: np.ndarray
) -> np.ndarray:
    """Closed slab membership of offsets from slab centres, one per row of ``diff``.

    ``basis`` is the D x d tangent basis shared by every row, or a stack of
    bases, one per matrix of rows: (..., D, d) against ``diff`` (..., rows, D).
    ``d2`` holds the rows' squared lengths, as a neighbour block of
    :mod:`._neighbours` gives them; a padded slot, at zero offset and ``d2``
    inf, is in no slab: inf - 0 exceeds (k2 h^2)^2.  The normal part
    ``d2 - tang2`` needs no clamp at zero: a negative rounding residue
    passes the test, as a zero would.
    """
    tang = np.matmul(diff, basis)
    tang2 = np.einsum("...j,...j->...", tang, tang)
    return (tang2 <= (spec.k1 * h) ** 2) & (d2 - tang2 <= (spec.k2 * h * h) ** 2)


def _tangents_and_slab_counts(
    points: np.ndarray, h: float, d: int, spec: SlabSpec
) -> tuple[np.ndarray | None, int, int]:
    """Slab counts of every point along its local-PCA tangent, from one neighbour search.

    Returns the number of points in each point's slab (None when no tangent
    is estimable), the number of points with no tangent estimate of their
    own, and the number of (point, neighbour) pairs within h, each point
    left out of its own.  One self-join at the wider of h and the slab ball
    is read once: each block gives a basis for every row, and the
    rows with an estimate of their own count their slabs with the bases
    just computed, on the same differences.  Of the other rows, those that
    list a neighbour have their placeholder bases overwritten by
    :func:`.tangent._inherit`, are read again from the same lists and are
    counted then; a row that lists none counts itself alone.
    """
    n, big_d = points.shape
    # the slab lies in the ball of squared radius slab_r2; the search's own
    # slack covers the rounding of the slab test
    h2, slab_r2 = h * h, (spec.k1 * h) ** 2 + (spec.k2 * h * h) ** 2
    indptr, cols = _neighbours._candidates(points, max(h2, slab_r2))
    bases = np.empty((n, big_d, d))
    estimated = np.zeros(n, dtype=bool)
    # every point lies in its own slab
    counts = np.ones(n, dtype=int)
    neighbours = 0
    for chunk, diff, d2 in _neighbours._blocks(points, indptr, cols, np.arange(n)):
        near = d2 <= h2
        neighbours += int(np.count_nonzero(near))
        ok, block = _block_bases(diff, near, d)
        bases[chunk], estimated[chunk] = block, ok
        # a row without an estimate of its own counts its slab once it has inherited
        counts[chunk] += ok * np.count_nonzero(_slab_mask(diff, block, h, spec, d2), axis=1)
    if not estimated.any():
        return None, 0, neighbours
    # a row that lists no neighbour counts itself alone, whatever its basis
    listed = np.diff(indptr) > 0
    skipped = _inherit(points, bases, estimated, np.flatnonzero(~estimated & listed))
    for chunk, diff, d2 in _neighbours._blocks(points, indptr, cols, skipped):
        rows = skipped[chunk]
        counts[rows] += np.count_nonzero(_slab_mask(diff, bases[rows], h, spec, d2), axis=1)
    return counts, n - int(np.count_nonzero(estimated)), neighbours


# ---------------------------------------------------------------------------
# bandwidth schedule


def _exponents(d: int):
    """gamma_0 = 1/(d+1), gamma_1, ... of gamma_{k+1} = (2 gamma_k + 1) / (d + 2)."""
    g = 1.0 / (d + 1)
    while True:
        yield g
        g = (2.0 * g + 1.0) / (d + 2.0)


def bandwidths(n: int, d: int, beta: float, kappa: float, k_iters: int) -> list[float]:
    """h_0, ..., h_{k_iters}: h_k = (kappa log(n) / (beta (n - 1))) ** gamma_k.

    ValueError unless that base is below 1: at or above it the bandwidths
    would grow with k instead of shrinking.
    """
    check_int(n, "n", 3)
    check_int(d, "d", 1)
    check_positive(beta, "beta")
    if beta > 1:
        raise ValueError(f"need 0 < beta <= 1, got {beta!r}")
    check_positive(kappa, "kappa")
    check_int(k_iters, "k_iters", 0)
    base = kappa * math.log(n) / (beta * (n - 1))
    if base >= 1:
        # h_k = base ** gamma_k would grow with k, not shrink
        raise ValueError(f"need kappa log(n) / (beta (n - 1)) < 1, got {base!r}")
    return [base**g for g in islice(_exponents(d), k_iters + 1)]


def k_delta(d: int, delta: float) -> int:
    """Smallest k with gamma_k >= 1/d - delta."""
    check_int(d, "d", 1)
    if not isinstance(delta, numbers.Real) or not 0.0 < delta < 1.0 / (d * (d + 1)):
        raise ValueError(f"need 0 < delta < 1/(d(d+1)) = {1.0 / (d * (d + 1)):.6g}")
    return next(k for k, g in enumerate(_exponents(d)) if g >= 1.0 / d - delta)


# ---------------------------------------------------------------------------
# iterative procedure


# stop reasons: no point has the neighbours within h a tangent estimate needs
# (tangent._MIN_NEIGHBORS), or the slab counts removed every point
NO_TANGENT = "no tangent estimable"
NO_SURVIVORS = "no survivors"


@dataclass
class IterationDiagnostics:
    k: int
    h_k: float
    survivors: int
    true_positives: int | None = None  # signal points kept
    false_positives: int | None = None  # outliers kept
    # rows with no tangent estimate of their own at h; each that lists a
    # neighbour takes the nearest estimate's
    inherited: int = 0
    stop_reason: str | None = None  # why the loop ended at this iteration, if it did
    threshold: float | None = None  # slab count a point needs to survive, t log(n-1)
    # 5th and 50th percentiles of the slab counts (None when none were counted)
    slab_p05: float | None = None
    slab_p50: float | None = None
    neighbours_mean: float | None = None  # mean neighbours within h, self excluded


def diagnostics_to_json(diags: list[IterationDiagnostics]) -> str:
    return json.dumps([asdict(d) for d in diags])


def iterative_denoise(
    cloud: LabeledCloud,
    d: int,
    beta: float,
    kappa: float,
    spec: SlabSpec,
    k_iters: int,
) -> tuple[list[int], list[IterationDiagnostics]]:
    """Alternate tangent estimation and slab filtering for k = 0 .. k_iters.

    Returns surviving indices into the original cloud plus per-iteration
    diagnostics (confusion counts when labels are available).  Each iteration
    searches the surviving cloud once and reads each neighbour block once for
    both the tangents and the slab counts.  When no tangent can be estimated,
    or no point survives, the loop stops; that iteration's diagnostics give
    the reason.
    """
    _check_instance(cloud, LabeledCloud, "cloud")
    _check_instance(spec, SlabSpec, "spec")
    n_total, points = cloud.n, cloud.points
    hs = bandwidths(n_total, d, beta, kappa, k_iters)
    if d >= points.shape[1]:
        raise ValueError(f"need d < ambient dimension, got d={d} in R^{points.shape[1]}")
    threshold = spec.t * math.log(n_total - 1)
    alive = np.arange(n_total)
    diags: list[IterationDiagnostics] = []
    for k, h in enumerate(hs):
        pts = points[alive]
        counts, inherited, neighbours = _tangents_and_slab_counts(pts, h, d, spec)
        stop_reason = slab_p05 = slab_p50 = None
        if counts is None:
            stop_reason = NO_TANGENT
        else:
            slab_p05, slab_p50 = (float(np.percentile(counts, q)) for q in (5.0, 50.0))
            alive = alive[counts >= threshold]
            if alive.size == 0:
                stop_reason = NO_SURVIVORS
        tp = fp = None
        if cloud.labels is not None:
            tp = int(np.sum(cloud.labels[alive] == 1))
            fp = int(np.sum(cloud.labels[alive] == 0))
        diags.append(
            IterationDiagnostics(
                k=k,
                h_k=h,
                survivors=int(alive.size),
                true_positives=tp,
                false_positives=fp,
                inherited=inherited,
                stop_reason=stop_reason,
                threshold=threshold,
                slab_p05=slab_p05,
                slab_p50=slab_p50,
                neighbours_mean=neighbours / len(pts),
            )
        )
        if stop_reason is not None:
            break
    return alive.tolist(), diags
