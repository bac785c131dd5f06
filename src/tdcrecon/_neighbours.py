"""The neighbour query behind every local computation of the package.

Tangent estimation and slab counting ask the same question: which points of
a cloud lie in a closed ball around a point of the same cloud.  One
``scipy.spatial.cKDTree`` self-join of the cloud answers it for every point
at once, finding each unordered pair once; :func:`ball_blocks` reads the
answer as padded neighbour blocks, with ball membership decided exactly as a
dense scan decides it.  A call about a subset of the points reads its rows
from the search of the whole cloud.

A block covers targets in stable order of width, the number of candidates
the self-join lists for each, one row each; it is as wide as its last row,
and a shorter row is padded with the target's own index.  Blocks are cut so
that the block of differences (rows x widest row x D float64 values) stays
within ``_BLOCK_BYTES``, a size that fits in a core's L2 cache, unless one
row alone is wider; so every array of a block has a hard bound, however
skewed the neighbour counts are.

A denoising iteration asks it twice at one bandwidth: local PCA in the
h-ball, then slab counts in the ball that holds each slab.  It runs one
self-join at the wider radius and reads each block once for both
(:mod:`.denoise`): the block's differences give the PCA bases of its rows
and, with those bases, their slab counts.  Only the rows whose tangent is
inherited are read again, from the same lists; there is no second reader.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

# bytes of a block of differences: a quarter of a 2 MiB L2 cache, so the
# block, its gather and its squared lengths stay in cache together (a row
# wider than this gets a block of its own)
_BLOCK_BYTES = 1 << 19
# relative slack on the tree's search radius: the tree rounds distances its
# own way, so it searches a little wider and the exact test is redone here
_RADIUS_SLACK = 1e-12


def check_finite(x: np.ndarray, name: str) -> None:
    """Raise ValueError when ``x`` holds NaN or inf."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains NaN or inf")


def check_indices(indices, n: int) -> np.ndarray:
    """``indices`` as an index array; ValueError names one outside [0, n).

    Only integer input is taken: a boolean mask or a float would otherwise be
    read as the indices 0 and 1, or rounded towards zero.
    """
    indices = np.asarray(indices)
    if indices.size and not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(f"indices must be integers, got dtype {indices.dtype}")
    indices = indices.astype(np.intp, copy=False)
    bad = indices[(indices < 0) | (indices >= n)]
    if bad.size:
        raise ValueError(f"index {bad[0]} is outside [0, {n})")
    return indices


def _candidates(points: np.ndarray, r2: float) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists of a self-join of ``points`` a little wider than ``r2``.

    Returns CSR lists ``(indptr, cols)``: the columns of row i are
    ``cols[indptr[i]:indptr[i + 1]]``, increasing, with i itself left out.
    """
    n = len(points)
    radius = math.sqrt(r2) * (1.0 + _RADIUS_SLACK)
    found = cKDTree(points).query_pairs(radius, output_type="ndarray")
    # each pair (i, j), i < j, becomes the keys i n + j and j n + i in its
    # own two slots, so the search's result is the only index array:
    # (i, j) -> (i, j - i) -> (i n + j, j - i) -> (i n + j, j n + i)
    first, second = found[:, 0], found[:, 1]
    second -= first
    first *= n + 1
    first += second
    second *= n - 1
    second += first
    keys = found.reshape(-1)
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    np.remainder(keys, n, out=keys)
    return indptr, keys


def _chunks(widths: np.ndarray, big_d: int):
    """Slices of rows, in increasing ``widths``, whose block fits in ``_BLOCK_BYTES``.

    A block holds rows x (its last row's width) x ``big_d`` float64 values;
    no slice needs more, except one that holds a single wider row.
    """
    slots = max(1, _BLOCK_BYTES // (8 * big_d))
    lo = 0
    while lo < len(widths):
        # the first row caps how many rows can fit; within them, the last
        # row decides
        window = widths[lo : lo + slots // max(1, int(widths[lo]))]
        need = np.arange(1, len(window) + 1) * window
        hi = lo + max(1, int(np.searchsorted(need, slots, side="right")))
        yield slice(lo, hi)
        lo = hi


def _blocks(points: np.ndarray, indptr: np.ndarray, cols: np.ndarray, targets: np.ndarray):
    """Padded neighbour blocks of ``points[targets]``, before the exact test.

    Yields ``(chunk, listed, nbr, diff, d2)`` per block, as
    :func:`ball_blocks` does; ``listed`` marks the slots that are not
    padding.
    """
    starts = indptr[targets]
    widths = indptr[targets + 1] - starts
    order = np.argsort(widths, kind="stable")
    for rows in _chunks(widths[order], points.shape[1]):
        chunk = order[rows]
        own, c = targets[chunk], widths[chunk]
        slot = np.arange(int(c[-1]))
        at = starts[chunk, None] + slot
        listed = slot < c[:, None]
        nbr = np.where(listed, np.take(cols, at, mode="clip"), own[:, None])
        # padding is the target itself: its differences are exactly zero
        diff = np.take(points, nbr, axis=0)
        diff -= points[own][:, None]
        d2 = np.einsum("rwi,rwi->rw", diff, diff)
        yield chunk, listed, nbr, diff, d2


def ball_blocks(points: np.ndarray, targets: np.ndarray, r2: float):
    """Closed-ball neighbours of ``points[targets]`` among the points of the cloud.

    Yields ``(chunk, nbr, diff, d2, inside)`` per block; ``chunk`` is the
    index array of the ``targets`` it covers, and the blocks cover them all
    once, in stable order of width.  Row r of the block is target
    ``targets[chunk[r]]``: ``nbr[r]`` are point indices in
    increasing order, padded with the target itself, ``diff[r]`` their
    differences from the target and ``d2[r]`` the squared lengths.
    ``inside[r, s]`` says that ``points[nbr[r, s]]`` lies in the closed ball
    of squared radius ``r2`` around the target and is not the target itself
    (a duplicate point at another index is inside); padding is never inside.

    The search is one self-join of the whole cloud, whatever the targets.
    Membership is the test ``d2 <= r2`` on these differences, so points on
    the sphere are in or out exactly as in a dense scan that uses the same
    predicate; the tree only proposes candidates.
    """
    points = np.asarray(points, dtype=float)
    targets = check_indices(targets, len(points))
    indptr, cols = _candidates(points, r2)
    for chunk, listed, nbr, diff, d2 in _blocks(points, indptr, cols, targets):
        yield chunk, nbr, diff, d2, listed & (d2 <= r2)
