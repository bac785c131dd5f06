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
h-ball, then slab counts in the ball that holds each slab.  One search at the
wider radius serves both (:class:`SharedNeighbours`): local PCA reads its
blocks as they come, the slab counts read the pairs it kept, and each gets
the neighbours, differences and membership that a search of its own would
give.
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
    """``indices`` as an index array; ValueError names one outside [0, n)."""
    indices = np.asarray(indices, dtype=np.intp)
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

    Yields ``(chunk, at, listed, nbr, diff, d2)`` per block, as
    :func:`ball_blocks` does; ``listed`` marks the slots that are not
    padding and ``at`` gives their positions in ``cols``.
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
        diff = points[nbr] - points[own][:, None]
        d2 = np.einsum("rwi,rwi->rw", diff, diff)
        yield chunk, at, listed, nbr, diff, d2


def _within(blocks, r2: float):
    """The blocks of :func:`_blocks` with the exact test ``d2 <= r2`` on listed slots."""
    for chunk, _, listed, nbr, diff, d2 in blocks:
        yield chunk, nbr, diff, d2, listed & (d2 <= r2)


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
    yield from _within(_blocks(points, indptr, cols, targets), r2)


class SharedNeighbours:
    """One ball search of a cloud, read twice: once as it runs, then from lists.

    The search covers the closed balls of squared radius ``r2`` around every
    point of ``points``.  The first :meth:`blocks` call runs it and gets its
    blocks as they come; meanwhile the pairs within squared radius
    ``keep_r2`` are kept as index lists, and later calls are served from
    them.  Either way a call yields what :func:`ball_blocks` yields for its
    targets and radius: the same neighbours inside the ball in the same
    order, with the same differences and squared distances, though padded
    and chunked in its own way.
    """

    def __init__(self, points: np.ndarray, r2: float, keep_r2: float):
        points = np.asarray(points, dtype=float)
        check_finite(points, "points")
        if keep_r2 > r2:
            raise ValueError(f"kept squared radius {keep_r2} exceeds the search's {r2}")
        self.points, self.r2, self.keep_r2 = points, r2, keep_r2
        self.indptr = self.cols = None
        self._searched = False

    def blocks(self, points: np.ndarray, targets: np.ndarray, r2: float):
        """:func:`ball_blocks` of ``points[targets]`` against the cloud.

        ``points`` must be the cloud of the search.  The first call must ask
        for every point in index order and ``r2`` up to the search's squared
        radius; later calls may ask for any points and ``r2`` up to
        ``keep_r2``.
        """
        if points is not self.points and not np.array_equal(points, self.points):
            raise ValueError("the neighbour search ran on another cloud")
        targets = check_indices(targets, len(self.points))
        if not self._searched:
            if not np.array_equal(targets, np.arange(len(self.points))) or r2 > self.r2:
                raise ValueError(
                    "the first reader must ask for every point, in index order, "
                    f"within squared radius {self.r2}"
                )
            self._searched = True
            return self._search(targets, r2)
        if self.cols is None:
            raise ValueError("the first reader stopped before the search ended")
        if r2 > self.keep_r2:
            raise ValueError(f"squared radius {r2} exceeds the kept {self.keep_r2}")
        return _within(_blocks(self.points, self.indptr, self.cols, targets), r2)

    def _search(self, every: np.ndarray, r2: float):
        indptr, cols = _candidates(self.points, self.r2)
        # the listed pairs within keep_r2, marked as their blocks pass, and
        # how many each point has
        kept = np.zeros(len(cols), dtype=bool)
        lengths = np.zeros(len(every), dtype=np.intp)
        for chunk, at, listed, nbr, diff, d2 in _blocks(self.points, indptr, cols, every):
            keep = listed & (d2 <= self.keep_r2)
            kept[at[keep]] = True
            lengths[chunk] = keep.sum(axis=1)
            yield chunk, nbr, diff, d2, listed & (d2 <= r2)
        self.indptr = np.concatenate([[0], np.cumsum(lengths)])
        # the narrowest unsigned type for the kept indices: at n=100k in
        # D=10 they number tens of millions
        self.cols = cols[kept].astype(np.min_scalar_type(max(len(every) - 1, 0)))
