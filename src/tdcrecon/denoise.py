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
its neighbour blocks in one pass: each block gives the local-PCA bases of its
rows and, with those bases, the rows' slab counts.  Only the points whose
tangent is inherited from the nearest estimate are read a second time, from
the same lists, once :meth:`.TangentField.complete` has filled them in.  The
lists are dropped before the next iteration searches.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import _neighbours
from ._neighbours import check_finite
from .geometry import Subspace
from .models import LabeledCloud
from .tangent import TangentField, TseParams, _block_bases
# still importable from here, where the benchmark's tracer wraps it
from .tangent import estimate_tangents  # noqa: F401


@dataclass(frozen=True)
class SlabSpec:
    k1: float  # tangential half-width factor (times h)
    k2: float  # normal half-width factor (times h^2)
    t: float  # survival threshold factor (times log(n-1))

    def __post_init__(self):
        if not (self.k1 > 0 and self.k2 > 0 and self.t >= 0):
            raise ValueError("need k1, k2 > 0 and t >= 0")


def lemma_slab_constants(
    d: int, ambient_dim: int, rho: float, angle_constant: float = 2.0
) -> tuple[float, float, float]:
    """(k1, k2, k3): admissible slab factors and the inclusion radius factor.

    k1 = 3 / (4 d + 8 K sqrt(d)),  k2 = 1 / (4 sqrt(D - d) max(rho, 1)),
    k3 = min(k2 rho / (2 K), k1 / 2, sqrt(rho k1), sqrt(rho k2)).
    """
    if ambient_dim <= d:
        raise ValueError("need ambient_dim > d")
    if not rho > 0:
        raise ValueError("need reach rho > 0")
    k = angle_constant
    k1 = 3.0 / (4.0 * d + 8.0 * k * math.sqrt(d))
    k2 = 1.0 / (4.0 * math.sqrt(ambient_dim - d) * max(rho, 1.0))
    k3 = min(k2 * rho / (2.0 * k), k1 / 2.0, math.sqrt(rho * k1), math.sqrt(rho * k2))
    return k1, k2, k3


def default_slab_spec(
    d: int, ambient_dim: int, rho: float, t: float, angle_constant: float = 2.0
) -> SlabSpec:
    k1, k2, _ = lemma_slab_constants(d, ambient_dim, rho, angle_constant)
    return SlabSpec(k1=k1, k2=k2, t=t)


def _slab_mask(
    diff: np.ndarray, basis: np.ndarray, h: float, spec: SlabSpec, d2: np.ndarray | None = None
) -> np.ndarray:
    """Closed slab membership of offsets from slab centres, one per row of ``diff``.

    ``basis`` is the D x d tangent basis shared by every row, or a stack of
    bases, one per matrix of rows: (..., D, d) against ``diff`` (..., rows, D).
    ``d2``, the squared lengths of the rows, is computed when not given.
    """
    if d2 is None:
        d2 = np.einsum("...i,...i->...", diff, diff)
    tang = np.matmul(diff, basis)
    tang2 = np.einsum("...j,...j->...", tang, tang)
    norm2 = d2 - tang2
    return (tang2 <= (spec.k1 * h) ** 2) & (np.maximum(norm2, 0.0) <= (spec.k2 * h * h) ** 2)


def in_slab(x: np.ndarray, tangent: Subspace, h: float, spec: SlabSpec, y) -> bool:
    """Closed-condition membership of y in the slab at x with direction T."""
    diff = np.asarray(y, dtype=float) - np.asarray(x, dtype=float)
    return bool(_slab_mask(diff[None, :], tangent.basis, h, spec)[0])


def _slab_hits(diff, d2, inside, bases, h: float, spec: SlabSpec) -> np.ndarray:
    """Per row of a neighbour block, the slots ``inside`` that lie in the row's slab.

    ``bases`` holds one tangent basis per row.
    """
    return np.count_nonzero(inside & _slab_mask(diff, bases, h, spec, d2), axis=1)


def _slab_ball_r2(h: float, spec: SlabSpec) -> float:
    """Squared radius of a ball around the slab centre that holds the slab.

    The slab lies in the ball of squared radius (k1 h)^2 + (k2 h^2)^2; the
    margin keeps every point the rounded slab test admits.
    """
    return ((spec.k1 * h) ** 2 + (spec.k2 * h * h) ** 2) * (1.0 + 1e-12)


def slab_counts(points: np.ndarray, field_: TangentField, h: float, spec: SlabSpec) -> np.ndarray:
    """Number of cloud points inside each point's slab (self included).

    Only the points of ``field_`` get a count; their rows are read from a
    search of the whole cloud.
    """
    points = np.asarray(points, dtype=float)
    check_finite(points, "points")
    counts = np.zeros(points.shape[0], dtype=int)
    if not len(field_):
        return counts
    centres, bases = field_.indices, field_.bases
    r2 = _slab_ball_r2(h, spec)
    # every centre lies in its own slab
    found = np.ones(len(centres), dtype=int)
    for chunk, _, diff, d2, inside in _neighbours.ball_blocks(points, centres, r2):
        found[chunk] += _slab_hits(diff, d2, inside, bases[chunk], h, spec)
    counts[centres] = found
    return counts


def sd_step(
    points: np.ndarray, field_: TangentField, h: float, spec: SlabSpec, n_total: int
) -> list[int]:
    """One denoising pass: keep index j iff its slab count >= t * log(n-1).

    ``n_total`` is the original sample size; the threshold does not shrink as
    points are removed across iterations.
    """
    if n_total < 3:
        raise ValueError("need n >= 3")
    if not np.array_equal(np.sort(field_.indices), np.arange(len(points))):
        raise ValueError("tangent field must cover every point of the cloud")
    threshold = spec.t * math.log(n_total - 1)
    counts = slab_counts(points, field_, h, spec)
    return np.flatnonzero(counts >= threshold).tolist()


def _tangents_and_slab_counts(
    points: np.ndarray, params: TseParams, spec: SlabSpec
) -> tuple[TangentField, np.ndarray | None, int]:
    """Local-PCA tangents and slab counts of every point, from one neighbour search.

    Returns what ``estimate_tangents(points, params)`` returns, the counts
    that :func:`slab_counts` gives on its completed field (None when no
    tangent is estimable), and the number of (point, neighbour) pairs within
    h, each point left out of its own.  One self-join at the wider of h and
    the slab ball is read once: each block gives the bases of its estimable
    rows, and those rows count their slabs with the bases just computed, on
    the same differences.  The skipped rows are read again from the same
    lists once they have inherited a basis.
    """
    n, big_d = points.shape
    h = params.h
    h2, slab_r2 = h * h, _slab_ball_r2(h, spec)
    indptr, cols = _neighbours._candidates(points, max(h2, slab_r2))
    every = np.arange(n)
    bases = np.empty((n, big_d, params.d))
    estimated = np.zeros(n, dtype=bool)
    # every point lies in its own slab
    counts = np.ones(n, dtype=int)
    neighbours = 0
    for chunk, listed, _, diff, d2 in _neighbours._blocks(points, indptr, cols, every):
        near = listed & (d2 <= h2)
        neighbours += int(np.count_nonzero(near))
        ok, block = _block_bases(diff, near, params, n)
        if block is None:
            continue
        if not ok.all():
            chunk, listed, diff, d2 = chunk[ok], listed[ok], diff[ok], d2[ok]
        bases[chunk] = block
        estimated[chunk] = True
        counts[chunk] += _slab_hits(diff, d2, listed & (d2 <= slab_r2), block, h, spec)
    field_ = TangentField(every[estimated], bases[estimated], skipped=every[~estimated])
    if not len(field_):
        return field_, None, neighbours
    if len(field_.skipped):
        # the completed field covers every point, in index order
        inherited, skipped = field_.complete(points).bases, field_.skipped
        for chunk, listed, _, diff, d2 in _neighbours._blocks(points, indptr, cols, skipped):
            rows = skipped[chunk]
            inside = listed & (d2 <= slab_r2)
            counts[rows] += _slab_hits(diff, d2, inside, inherited[rows], h, spec)
    return field_, counts, neighbours


# ---------------------------------------------------------------------------
# bandwidth schedule


@dataclass
class Schedule:
    """Exponents gamma_k and bandwidths h_k = base ** gamma_k with
    base = kappa * log(n) / (beta * (n - 1))."""

    n: int
    d: int
    beta: float
    kappa: float
    gammas: list[float]

    @property
    def base(self) -> float:
        return self.kappa * math.log(self.n) / (self.beta * (self.n - 1))

    @property
    def hs(self) -> list[float]:
        base = self.base
        return [base**g for g in self.gammas]

    @property
    def h_infinity(self) -> float:
        return self.base ** (1.0 / self.d)

    def gamma_at(self, k: int) -> float:
        g = self.gammas[-1] if k >= len(self.gammas) else self.gammas[k]
        for _ in range(len(self.gammas), k + 1):
            g = (2.0 * g + 1.0) / (self.d + 2.0)
        return g

    def h_at(self, k: int) -> float:
        return self.base ** self.gamma_at(k)


def schedule(n: int, d: int, beta: float, kappa: float, k_max: int) -> Schedule:
    if n < 3:
        raise ValueError("need n >= 3")
    if not (0 < beta <= 1 and kappa > 0) or d < 1 or k_max < 0:
        raise ValueError("invalid schedule parameters")
    gammas = [1.0 / (d + 1)]
    for _ in range(k_max):
        gammas.append((2.0 * gammas[-1] + 1.0) / (d + 2.0))
    return Schedule(n=n, d=d, beta=beta, kappa=kappa, gammas=gammas)


def k_delta(d: int, delta: float) -> int:
    """Smallest k with gamma_k >= 1/d - delta."""
    if not 0.0 < delta < 1.0 / (d * (d + 1)):
        raise ValueError(f"need 0 < delta < 1/(d(d+1)) = {1.0 / (d * (d + 1)):.6g}")
    target = 1.0 / d - delta
    g = 1.0 / (d + 1)
    k = 0
    while g < target:
        g = (2.0 * g + 1.0) / (d + 2.0)
        k += 1
    if k > math.ceil(_k_delta_bound(d, delta)) + 1:
        raise RuntimeError(f"k_delta({d}, {delta}) = {k} exceeds its closed-form bound")
    return k


def _k_delta_bound(d: int, delta: float) -> float:
    """Closed form of k_delta before rounding up: gamma_k = 1/d - (2/(d+2))^k / (d(d+1))."""
    return (math.log(1.0 / delta) - math.log(d * (d + 1))) / (
        math.log(d + 2.0) - math.log(2.0)
    )


def k_hat(distances_to_manifold: np.ndarray, sched: Schedule, rho: float) -> int:
    """Smallest k such that every distance above h_inf^2/rho exceeds h_k^2/rho.

    Oracle diagnostic (uses ground-truth distances).  Returns 0 when no point
    lies beyond h_inf^2/rho.
    """
    if not rho > 0:
        raise ValueError("need reach rho > 0")
    d = np.asarray(distances_to_manifold, dtype=float)
    cut = sched.h_infinity**2 / rho
    far = d[d > cut]
    if far.size == 0:
        return 0
    m = float(far.min())
    for k in range(100_000):
        if sched.h_at(k) ** 2 / rho < m:
            return k
    raise RuntimeError("k_hat did not converge; schedule base may be >= 1")


def calibrate_threshold(pilot_counts: np.ndarray, n: int) -> float:
    """Default threshold rule: half the 5th percentile of pilot on-slab counts,
    expressed in units of log(n-1)."""
    if n < 3:
        raise ValueError("need n >= 3")
    counts = np.asarray(pilot_counts, dtype=float)
    return 0.5 * float(np.percentile(counts, 5.0)) / math.log(n - 1)


# ---------------------------------------------------------------------------
# iterative procedure


# stop reasons: no point has TseParams.min_neighbors neighbours within h,
# or the slab counts removed every point
NO_TANGENT = "no tangent estimable"
NO_SURVIVORS = "no survivors"


@dataclass
class IterationDiagnostics:
    k: int
    h: float
    survivors: int
    true_positives: int | None = None  # signal points kept
    false_positives: int | None = None  # outliers kept
    inherited: int = 0  # tangents skipped at h and filled from the nearest estimate
    stop_reason: str | None = None  # why the loop ended at this iteration, if it did
    threshold: float | None = None  # slab count a point needs to survive, t log(n-1)
    # 5th and 50th percentiles of the slab counts (None when none were counted)
    slab_p05: float | None = None
    slab_p50: float | None = None
    neighbours_mean: float | None = None  # mean neighbours within h, self excluded


def diagnostics_to_json(diags: list[IterationDiagnostics]) -> str:
    return json.dumps(
        [
            {
                "k": d.k,
                "h_k": d.h,
                "survivors": d.survivors,
                "true_positives": d.true_positives,
                "false_positives": d.false_positives,
                "inherited": d.inherited,
                "stop_reason": d.stop_reason,
                "threshold": d.threshold,
                "slab_p05": d.slab_p05,
                "slab_p50": d.slab_p50,
                "neighbours_mean": d.neighbours_mean,
            }
            for d in diags
        ]
    )


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
    if k_iters < 0:
        raise ValueError("need k_iters >= 0")
    points = np.asarray(cloud.points, dtype=float)
    check_finite(points, "points")
    if d > points.shape[1]:
        raise ValueError(f"need d <= ambient dimension, got d={d} in R^{points.shape[1]}")
    n_total = cloud.n
    sched = schedule(n_total, d, beta, kappa, k_iters)
    threshold = spec.t * math.log(n_total - 1)
    alive = np.arange(n_total)
    diags: list[IterationDiagnostics] = []
    for k in range(k_iters + 1):
        h = sched.h_at(k)
        pts = points[alive]
        field_, counts, neighbours = _tangents_and_slab_counts(pts, TseParams(h=h, d=d), spec)
        inherited, stop_reason = len(field_.skipped), None
        slab_p05 = slab_p50 = None
        if counts is not None:
            slab_p05, slab_p50 = (float(np.percentile(counts, q)) for q in (5.0, 50.0))
            alive = alive[counts >= threshold]
            if alive.size == 0:
                stop_reason = NO_SURVIVORS
        else:
            inherited, stop_reason = 0, NO_TANGENT
        tp = fp = None
        if cloud.labels is not None:
            tp = int(np.sum(cloud.labels[alive] == 1))
            fp = int(np.sum(cloud.labels[alive] == 0))
        diags.append(
            IterationDiagnostics(
                k=k,
                h=h,
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
    return [int(j) for j in alive], diags
