"""Tangent-space estimation by local PCA.

At each requested point the scatter about their mean of the neighbors in the
closed ball of radius h (the point itself excluded; a covariance only scales it,
which moves no eigenvector) is eigendecomposed, and the span of the top d
eigenvectors is the tangent estimate.  A point with fewer than 3 neighbors
within h is skipped and inherits the basis of the nearest estimated point
(:func:`_inherit`), so a field has one basis per requested point, in order.
Neighbors come from one KD-tree self-join of the cloud (:mod:`._neighbours`),
which finds each neighbor pair once, so the work grows with the number of
neighbor pairs, not with n^2.  They are read in padded blocks of a bounded
size (a padded slot at infinite distance, so the h-ball is one comparison),
targets of similar neighbor counts together, and the covariances of a block
are formed together.  The block arithmetic is :func:`_block_bases`:
it gives every row of a block a basis, and a row with too few neighbors a
finite placeholder, so each block's eigenvectors go straight into the
field's (m, D, d) array of bases, and :func:`_inherit` then overwrites the
placeholders.  A denoising iteration runs it on the blocks of its own single
pass, which also count the slabs (:mod:`.denoise`), so there is one read of
each block per iteration, and it overwrites the same way the placeholders
its slab counts read.
:func:`estimate_tangents` is the standalone call, with a search of its own:
the one to use for tangents outside the denoising loop, such as at the
points of a net.

Each entry point checks its input once, with the checks of
:mod:`._neighbours`: :func:`estimate_tangents` takes the cloud through
``check_points``, the bandwidth h through ``check_positive``, the dimension
d through ``check_int`` (and d below the cloud's D), and ``subset`` through
``check_indices``; :func:`default_bandwidth` takes n and d through
``check_int`` and c through ``check_positive``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from . import _neighbours
from ._neighbours import _RADIUS_SLACK, check_int, check_points, check_positive

_MIN_NEIGHBORS = 3  # neighbors within h a target needs for an estimate of its own


def default_bandwidth(n: int, d: int, c: float = 1.0) -> float:
    """(c * log(n) / (n - 1)) ** (1/d)."""
    check_int(n, "n", 3)
    check_int(d, "d", 1)
    check_positive(c, "c")
    return (c * math.log(n) / (n - 1)) ** (1.0 / d)


@dataclass(frozen=True, eq=False)
class TangentField:
    """Local-PCA tangents at the targets of one :func:`estimate_tangents` call.

    Row k of ``bases``, a read-only (m, D, d) stack of orthonormal bases, is
    the tangent at the k-th target.  ``skipped``, read-only too, lists the
    rows where no estimate could be made; each holds the basis of the
    nearest estimated target instead.
    """

    bases: np.ndarray
    skipped: np.ndarray


def _inherit(
    points: np.ndarray, bases: np.ndarray, estimated: np.ndarray, skipped: np.ndarray | None = None
) -> np.ndarray:
    """Give rows not ``estimated`` the basis of the nearest estimated row, in place.

    Row k of ``bases`` is the tangent at ``points[k]``; ties in distance go
    to the estimated row that comes first.  The rows filled, and returned,
    are ``skipped`` if given, else every row not estimated.
    """
    if skipped is None:
        skipped = np.flatnonzero(~estimated)
    if not len(skipped):
        return skipped
    sources = np.flatnonzero(estimated)
    if not len(sources):
        raise ValueError(
            f"no tangent estimable: no target has {_MIN_NEIGHBORS} neighbours within h"
        )
    tree = cKDTree(points[sources])
    queries = points[skipped]
    # the tree's nearest estimate is the one to inherit from unless the
    # second nearest is as near, up to the relative _RADIUS_SLACK above
    # the tree's rounding (with a single estimate the second is at inf)
    nearest_dist, nearest = tree.query(queries, k=2)
    source = nearest[:, 0]
    tied = np.flatnonzero(nearest_dist[:, 1] <= nearest_dist[:, 0] * (1.0 + _RADIUS_SLACK))
    # gather every estimate within that margin (none if no query ties) and
    # keep, per tied query, the least squared distance, then the earliest
    # estimate
    rows, cols, d2 = _neighbours.ball_lists(tree, queries[tied], nearest_dist[tied, 0] ** 2)
    order = np.lexsort((cols, d2, rows))
    rows, cols = rows[order], cols[order]
    first = np.flatnonzero(np.diff(rows, prepend=-1))
    source[tied[rows[first]]] = cols[first]
    bases[skipped] = bases[sources[source]]
    return skipped


def _block_bases(diff: np.ndarray, near: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Local-PCA bases of every row of one padded neighbor block.

    ``diff`` is a (rows, width, D) block of neighbor offsets from each row's
    target, in increasing index order; ``near`` marks the slots in the h-ball.
    Returns ``ok``, the rows with ``_MIN_NEIGHBORS`` neighbors or more, and
    every row's basis, (rows, D, d), from its scatter as it is: a covariance's
    positive divisor moves no eigenvector, and ``eigh`` reads one triangle.
    A row not ok gets a finite placeholder from its fewer neighbors (none
    gives the zero scatter), which the caller overwrites with
    :func:`_inherit`; an ok row's basis is the one it gets in a block alone.
    """
    counts = near.sum(axis=1)
    # each row's neighbor offsets, zero wherever a slot holds no neighbor
    w = diff.copy()
    w[~near] = 0.0
    # a row without neighbors has the zero mean
    means = np.einsum("cwi->ci", w) / np.maximum(counts, 1)[:, None]
    # sum of outer products minus the rank-one mean correction
    scatter = np.matmul(w.transpose(0, 2, 1), w)
    scatter -= counts[:, None, None] * np.einsum("ca,cb->cab", means, means)
    _, eigvecs = np.linalg.eigh(scatter)
    return counts >= _MIN_NEIGHBORS, eigvecs[:, :, ::-1][:, :, :d]


def estimate_tangents(
    points: np.ndarray, h: float, d: int, subset: list[int] | None = None
) -> TangentField:
    """Local-PCA tangents at every point of the cloud, or at the points ``subset`` lists.

    The neighbor pool is always the full cloud; ``subset``, a 1-d sequence
    of integer indices (repeats allowed), only selects the targets, and
    their rows are read from a search of the whole cloud.  Row k of the
    field is the k-th target.  A target with fewer than 3 neighbors within h
    inherits the basis of the nearest estimated target, the first in target
    order on ties; ValueError when there are targets and none is estimable.
    """
    points = check_points(points)
    check_positive(h, "bandwidth h")
    check_int(d, "intrinsic dimension d", 1)
    n, big_d = points.shape
    if d >= big_d:
        raise ValueError(f"need d < ambient dimension, got d={d} in R^{big_d}")
    targets = np.arange(n) if subset is None else _neighbours.check_indices(subset, n)
    # row k of bases holds the estimate at targets[k] once estimated[k] is set
    bases = np.empty((len(targets), big_d, d))
    estimated = np.zeros(len(targets), dtype=bool)
    h2 = h * h
    indptr, cols = _neighbours._candidates(points, h2)
    for chunk, diff, d2 in _neighbours._blocks(points, indptr, cols, targets):
        estimated[chunk], bases[chunk] = _block_bases(diff, d2 <= h2, d)
    skipped = _inherit(points[targets], bases, estimated)
    for array in (bases, skipped):
        array.setflags(write=False)
    return TangentField(bases=bases, skipped=skipped)
