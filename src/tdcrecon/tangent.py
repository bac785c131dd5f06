"""Tangent-space estimation by local PCA.

At each requested point the covariance of the neighbors inside the closed ball
of radius h (the point itself excluded, scaled by 1/(n-1)) is eigendecomposed
and the span of the top d eigenvectors is the tangent estimate.  Points with
fewer than ``min_neighbors`` neighbors are flagged and excluded from the
field; downstream users can fill them in by nearest-neighbor inheritance.
Neighbors come from one KD-tree self-join of the cloud (:mod:`._neighbours`),
which finds each neighbor pair once, so the work grows with the number of
neighbor pairs, not with n^2.  They are read in padded blocks of a bounded
size, targets of similar neighbor counts together, and the covariances of a
block are formed together; each block's eigenvectors go straight into the
field's (m, D, d) array of bases.  The block arithmetic is
:func:`_block_bases`; a denoising iteration runs it on the blocks of its own
single pass, which also count the slabs (:mod:`.denoise`), so there is one
read of each block per iteration.  A standalone call runs its own search.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from . import _neighbours
from ._neighbours import check_finite
from .geometry import Subspace, _check_bases


@dataclass(frozen=True)
class TseParams:
    h: float
    d: int
    min_neighbors: int = 3

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("need bandwidth h > 0")
        if self.d < 1:
            raise ValueError("need intrinsic dimension d >= 1")
        if self.min_neighbors < 1:
            # an estimate from no neighbour at all would be 0 / 0
            raise ValueError("need min_neighbors >= 1")


def default_bandwidth(n: int, d: int, c: float = 1.0) -> float:
    """(c * log(n) / (n - 1)) ** (1/d)."""
    if n < 3:
        raise ValueError("need n >= 3")
    if d < 1:
        raise ValueError("need d >= 1")
    if not c > 0:
        raise ValueError("need c > 0")
    return (c * math.log(n) / (n - 1)) ** (1.0 / d)


class TangentField:
    """Tangent estimates at a subset of cloud indices, held as arrays.

    Row k of ``bases``, an (m, D, d) stack of orthonormal bases, is the
    estimate at cloud index ``indices[k]``; ``skipped`` lists the indices
    where no estimate could be made.  The arrays are copies; the bases are
    checked once, on construction, and are read-only.
    """

    def __init__(self, indices, bases, skipped=()):
        self.indices = np.array(indices, dtype=np.intp)
        self.skipped = np.array(skipped, dtype=np.intp)
        bases = np.array(bases, dtype=float)
        if bases.ndim != 3:
            raise ValueError(f"expected an (m, D, d) stack of bases, got shape {bases.shape}")
        if len(bases) != len(self.indices):
            raise ValueError("indices and bases must be parallel")
        _check_bases(bases)
        bases.setflags(write=False)
        self.bases = bases

    def __len__(self) -> int:
        return len(self.indices)

    def _rows(self, wanted) -> np.ndarray:
        """Rows holding the cloud indices ``wanted`` (the first of repeats); KeyError if absent."""
        wanted = np.asarray(wanted, dtype=np.intp)
        order = np.argsort(self.indices, kind="stable")
        at = np.searchsorted(self.indices, wanted, sorter=order)
        found = at < len(order)
        found[found] = self.indices[order[at[found]]] == wanted[found]
        if not found.all():
            raise KeyError(int(wanted[~found][0]))
        return order[at]

    def subspace_at(self, index: int) -> Subspace:
        return Subspace(self.bases[self._rows([index])[0]])

    def complete(self, points: np.ndarray) -> "TangentField":
        """Fill skipped indices with the nearest estimated neighbor's subspace.

        Ties in distance go to the estimate listed first in ``indices``.
        """
        if not len(self.skipped):
            return self
        if not len(self.indices):
            raise ValueError("cannot complete an empty tangent field")
        points = np.asarray(points, dtype=float)
        tree = cKDTree(points[self.indices])
        queries = points[self.skipped]
        # the tree's nearest estimate is the one to inherit from unless the
        # second nearest is as near, up to a margin above the tree's rounding
        # (with a single estimate the second is at inf)
        nearest_dist, nearest = tree.query(queries, k=2)
        source = nearest[:, 0]
        tied = np.flatnonzero(nearest_dist[:, 1] <= nearest_dist[:, 0] * (1.0 + 1e-9))
        if len(tied):
            # gather every estimate within that margin and keep, per query,
            # the first at the least norm
            ties = tree.query_ball_point(queries[tied], nearest_dist[tied, 0] * (1.0 + 1e-9))
            lengths = [len(t) for t in ties]
            rows = np.repeat(tied, lengths)
            cols = np.fromiter(chain.from_iterable(ties), dtype=np.intp, count=sum(lengths))
            dist = np.linalg.norm(tree.data[cols] - queries[rows], axis=1)
            # per query: least norm first, then the earliest estimate
            order = np.lexsort((cols, dist, rows))
            rows, cols = rows[order], cols[order]
            first = np.flatnonzero(np.diff(rows, prepend=-1))
            source[rows[first]] = cols[first]
        indices = np.concatenate([self.indices, self.skipped])
        order = np.argsort(indices)
        bases = np.concatenate([self.bases, self.bases[source]])
        return TangentField(indices=indices[order], bases=bases[order])

    def restrict(self, subset: list[int]) -> "TangentField":
        """Field re-indexed to a sub-cloud: local index k maps to subset[k]."""
        return TangentField(indices=np.arange(len(subset)), bases=self.bases[self._rows(subset)])

    def to_json(self) -> str:
        return json.dumps(
            [{"index": int(i), "basis": b.T.tolist()} for i, b in zip(self.indices, self.bases)]
        )

    @classmethod
    def from_json(cls, text: str) -> "TangentField":
        entries = json.loads(text)
        bases = [np.array(e["basis"], dtype=float).T for e in entries]
        return cls([e["index"] for e in entries], bases if bases else np.zeros((0, 1, 1)))


def _block_bases(
    diff: np.ndarray, near: np.ndarray, params: TseParams, n: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Local-PCA bases of the rows of one padded neighbor block.

    ``diff`` is a (rows, width, D) block of neighbor offsets from each row's
    target, in increasing index order, and ``near`` marks the slots inside
    the h-ball; ``n`` is the size of the cloud.  Returns ``ok``, the rows
    with at least ``params.min_neighbors`` neighbors, and the (rows with ok,
    D, d) stack of their bases, or None when no row has enough.
    """
    counts = near.sum(axis=1)
    ok = counts >= params.min_neighbors
    if not np.any(ok):
        return ok, None
    # each estimable target's neighbor offsets, zero wherever a slot holds
    # no neighbor
    if ok.all():
        w = diff.copy()
    else:
        w, near, counts = diff[ok], near[ok], counts[ok]
    w[~near] = 0.0
    means = np.einsum("cwi->ci", w) / counts[:, None]
    # sum of outer products minus the rank-one mean correction
    scatter = np.matmul(w.transpose(0, 2, 1), w)
    scatter -= counts[:, None, None] * np.einsum("ca,cb->cab", means, means)
    cov = scatter / (n - 1)
    cov = 0.5 * (cov + cov.transpose(0, 2, 1))
    _, eigvecs = np.linalg.eigh(cov)
    return ok, eigvecs[:, :, ::-1][:, :, : params.d]


def estimate_tangents(
    points: np.ndarray, params: TseParams, subset: list[int] | None = None
) -> TangentField:
    """Local-PCA tangent field over the whole cloud or a subset of indices.

    The neighbor pool is always the full cloud; ``subset``, integer indices,
    only selects where estimates are produced, and its rows are read from a
    search of the whole cloud.
    """
    points = np.asarray(points, dtype=float)
    check_finite(points, "points")
    n, big_d = points.shape
    if params.d > big_d:
        raise ValueError(f"need d <= ambient dimension, got d={params.d} in R^{big_d}")
    targets = np.arange(n) if subset is None else _neighbours.check_indices(subset, n)
    # row k of bases holds the estimate at targets[k] once estimated[k] is set
    bases = np.empty((len(targets), big_d, params.d))
    estimated = np.zeros(len(targets), dtype=bool)
    h2 = params.h * params.h
    for chunk, _, diff, _, inside in _neighbours.ball_blocks(points, targets, h2):
        ok, block = _block_bases(diff, inside, params, n)
        if block is not None:
            bases[chunk[ok]] = block
            estimated[chunk[ok]] = True
    return TangentField(
        indices=targets[estimated], bases=bases[estimated], skipped=targets[~estimated]
    )
