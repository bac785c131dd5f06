"""Tangent-space estimation by local PCA.

At each requested point the covariance of the neighbors inside the closed ball
of radius h (the point itself excluded, scaled by 1/(n-1)) is eigendecomposed
and the span of the top d eigenvectors is the tangent estimate.  Points with
fewer than ``min_neighbors`` neighbors are flagged and excluded from the
field; downstream users can fill them in by nearest-neighbor inheritance.
Neighbors come from one KD-tree self-join of the cloud (:mod:`._neighbours`),
which finds each neighbor pair once, so the work grows with the number of
neighbor pairs, not with n^2; they are read in padded blocks of a bounded
size, and the covariances of a block are formed together.  Inside a denoising iteration that self-join is
the one search whose neighbor lists the slab counts share; a standalone call
runs its own.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from . import _neighbours
from ._neighbours import check_finite
from .geometry import Subspace


@dataclass(frozen=True)
class TseParams:
    h: float
    d: int
    min_neighbors: int = 3

    def __post_init__(self):
        if self.h <= 0:
            raise ValueError("need bandwidth h > 0")
        if self.d < 1:
            raise ValueError("need intrinsic dimension d >= 1")


def default_bandwidth(n: int, d: int, c: float = 1.0) -> float:
    """(c * log(n) / (n - 1)) ** (1/d)."""
    if n < 3:
        raise ValueError("need n >= 3")
    if c <= 0:
        raise ValueError("need c > 0")
    return (c * math.log(n) / (n - 1)) ** (1.0 / d)


@dataclass
class TangentField:
    """Tangent estimates at a subset of cloud indices (parallel lists)."""

    indices: list[int]
    subspaces: list[Subspace]
    skipped: list[int] = field(default_factory=list)

    def __post_init__(self):
        if len(self.indices) != len(self.subspaces):
            raise ValueError("indices and subspaces must be parallel")
        self._by_index = {i: s for i, s in zip(self.indices, self.subspaces)}

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, index: int) -> bool:
        return index in self._by_index

    def subspace_at(self, index: int) -> Subspace:
        return self._by_index[index]

    def complete(self, points: np.ndarray) -> "TangentField":
        """Fill skipped indices with the nearest estimated neighbor's subspace.

        Ties in distance go to the estimate listed first in ``indices``.
        """
        if not self.skipped:
            return self
        if not self.indices:
            raise ValueError("cannot complete an empty tangent field")
        points = np.asarray(points, dtype=float)
        tree = cKDTree(points[self.indices])
        queries = points[self.skipped]
        # the tree returns one of possibly several tied nearest estimates:
        # gather every estimate within its distance (plus a margin above the
        # tree's rounding) and keep, per query, the first at the least norm
        nearest_dist, _ = tree.query(queries)
        ties = tree.query_ball_point(queries, nearest_dist * (1.0 + 1e-9))
        lengths = [len(t) for t in ties]
        rows = np.repeat(np.arange(len(ties)), lengths)
        cols = np.fromiter(chain.from_iterable(ties), dtype=np.intp, count=sum(lengths))
        dist = np.linalg.norm(tree.data[cols] - queries[rows], axis=1)
        # per query: least norm first, then the earliest estimate
        order = np.lexsort((cols, dist, rows))
        rows, cols = rows[order], cols[order]
        first = np.flatnonzero(np.diff(rows, prepend=-1))
        source = cols[first]
        indices = list(self.indices) + list(self.skipped)
        subspaces = list(self.subspaces) + [self.subspaces[k] for k in source]
        order = np.argsort(indices)
        return TangentField(
            indices=[indices[k] for k in order],
            subspaces=[subspaces[k] for k in order],
            skipped=[],
        )

    def restrict(self, subset: list[int]) -> "TangentField":
        """Field re-indexed to a sub-cloud: local index k maps to subset[k]."""
        return TangentField(
            indices=list(range(len(subset))),
            subspaces=[self.subspace_at(j) for j in subset],
            skipped=[],
        )

    def to_json(self) -> str:
        entries = [
            {"index": int(i), "basis": s.basis.T.tolist()}
            for i, s in zip(self.indices, self.subspaces)
        ]
        return json.dumps(entries)

    @classmethod
    def from_json(cls, text: str) -> "TangentField":
        entries = json.loads(text)
        return cls(
            indices=[int(e["index"]) for e in entries],
            subspaces=[Subspace(np.array(e["basis"], dtype=float).T) for e in entries],
        )


def estimate_tangents(
    points: np.ndarray,
    params: TseParams,
    subset: list[int] | None = None,
    *,
    neighbours: _neighbours.SharedNeighbours | None = None,
) -> TangentField:
    """Local-PCA tangent field over the whole cloud or a subset of indices.

    The neighbor pool is always the full cloud; ``subset`` only selects where
    estimates are produced, and its rows are read from a search of the whole
    cloud.  ``neighbours``, a search of ``points`` that reaches radius h,
    replaces the call's own search.
    """
    points = np.asarray(points, dtype=float)
    check_finite(points, "points")
    n, big_d = points.shape
    if params.d > big_d:
        raise ValueError(f"need d <= ambient dimension, got d={params.d} in R^{big_d}")
    targets = np.arange(n) if subset is None else np.asarray(subset, dtype=int)
    indices: list[int] = []
    subspaces: list[Subspace] = []
    skipped: list[int] = []
    h2 = params.h * params.h
    if neighbours is None:
        blocks = _neighbours.ball_blocks(points, targets, h2)
    else:
        blocks = neighbours.blocks(points, targets, h2)
    for chunk, _, diff, _, inside in blocks:
        idx = targets[chunk]
        counts = inside.sum(axis=1)
        ok = counts >= params.min_neighbors
        skipped.extend(int(j) for j in idx[~ok])
        if not np.any(ok):
            continue
        # each estimable target's neighbor offsets in increasing index order,
        # zero wherever a slot holds no neighbor
        w = np.where(inside[:, :, None], diff, 0.0)
        if not ok.all():
            w, counts = w[ok], counts[ok]
        means = w.sum(axis=1) / counts[:, None]
        # sum of outer products minus the rank-one mean correction
        scatter = np.matmul(w.transpose(0, 2, 1), w)
        scatter -= counts[:, None, None] * np.einsum("ca,cb->cab", means, means)
        cov = scatter / (n - 1)
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        eigvals, eigvecs = np.linalg.eigh(cov)
        indices.extend(idx[ok].tolist())
        subspaces.extend(Subspace.stack(eigvecs[:, :, ::-1][:, :, : params.d]))
    return TangentField(indices=indices, subspaces=subspaces, skipped=skipped)
