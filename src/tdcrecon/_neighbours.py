"""The neighbour query behind every local computation of the package.

Tangent estimation, slab counting and tangent inheritance all ask the same
question: which cloud points lie in a closed ball around a query point.
:func:`ball_pairs` answers it from a ``scipy.spatial.cKDTree`` in bounded
chunks, with ball membership decided exactly as a dense scan decides it.

A denoising iteration asks it twice at one bandwidth: local PCA in the
h-ball, then slab counts in the ball that holds each slab.  One search at the
wider radius serves both (:class:`SharedNeighbours`): local PCA reads its
chunks as they come, the slab counts read the pairs it kept, and each gets
the pairs, differences and membership that a search of its own would give.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.spatial import cKDTree

# about this many candidate pairs per chunk (a query point with more
# neighbours gets a chunk of its own)
_CHUNK_PAIRS = 1 << 18
# relative slack on the tree's search radius: the tree rounds distances its
# own way, so it searches a little wider and the exact test is redone here
_RADIUS_SLACK = 1e-12


def check_finite(x: np.ndarray, name: str) -> None:
    """Raise ValueError when ``x`` holds NaN or inf."""
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains NaN or inf")


def ball_pairs(tree: cKDTree, x: np.ndarray, r2: float):
    """Closed-ball pairs between query points ``x`` and the points of ``tree``.

    Yields ``(chunk, rows, cols, diff, d2)`` per chunk of consecutive query
    points; ``chunk`` is the slice of ``x`` it covers.  Pair p says that tree
    point ``cols[p]`` lies in the closed ball of squared radius ``r2`` around
    ``x[rows[p]]``, with ``diff[p] = tree.data[cols[p]] - x[rows[p]]`` and
    ``d2[p]`` its squared length.  Pairs are sorted by row, then by column.

    Membership is the test ``d2 <= r2`` on these differences, so points on
    the sphere are in or out exactly as in a dense scan that uses the same
    predicate; the trees only propose candidates.
    """
    x = np.asarray(x, dtype=float)
    n = tree.n
    radius = math.sqrt(r2) * (1.0 + _RADIUS_SLACK)
    widest = np.max(tree.query_ball_point(x, radius, return_length=True), initial=1)
    step = max(1, _CHUNK_PAIRS // int(widest))
    for lo in range(0, len(x), step):
        chunk = slice(lo, min(lo + step, len(x)))
        # a dual-tree search returns numpy arrays, not a Python object per pair
        found = cKDTree(x[chunk]).sparse_distance_matrix(
            tree, radius, output_type="ndarray"
        )
        key = np.sort(found["i"] * n + found["j"])
        rows, cols = lo + key // n, key % n
        diff = tree.data[cols] - x[rows]
        d2 = np.einsum("ij,ij->i", diff, diff)
        inside = d2 <= r2
        yield chunk, rows[inside], cols[inside], diff[inside], d2[inside]


class SharedNeighbours:
    """One ball search of a cloud, read twice: once as it runs, then from lists.

    The search covers the closed balls of squared radius ``r2`` around every
    point of ``points``.  The first :meth:`pairs` call runs it and gets its
    chunks as they come; meanwhile the pairs within squared radius
    ``keep_r2`` are kept as index lists, and later calls are served from
    them.  Either way a call yields what :func:`ball_pairs` yields for its
    query points and radius: the same pairs in the same order, with the same
    differences and squared distances, though chunked in its own way.
    """

    def __init__(self, points: np.ndarray, r2: float, keep_r2: float):
        points = np.asarray(points, dtype=float)
        check_finite(points, "points")
        if keep_r2 > r2:
            raise ValueError(f"kept squared radius {keep_r2} exceeds the search's {r2}")
        self.points, self.r2, self.keep_r2 = points, r2, keep_r2
        self.indptr = self.cols = None
        self._searched = False

    def pairs(self, points: np.ndarray, targets: np.ndarray, r2: float):
        """:func:`ball_pairs` of ``points[targets]`` against the cloud.

        ``points`` must be the cloud of the search.  The first call must ask
        for every point in index order and ``r2`` up to the search's squared
        radius; later calls may ask for any points and ``r2`` up to
        ``keep_r2``.
        """
        if points is not self.points and not np.array_equal(points, self.points):
            raise ValueError("the neighbour search ran on another cloud")
        targets = np.asarray(targets, dtype=np.intp)
        if not self._searched:
            if not np.array_equal(targets, np.arange(len(self.points))) or r2 > self.r2:
                raise ValueError(
                    "the first reader must ask for every point, in index order, "
                    f"within squared radius {self.r2}"
                )
            self._searched = True
            return self._search(r2)
        if self.cols is None:
            raise ValueError("the first reader stopped before the search ended")
        if r2 > self.keep_r2:
            raise ValueError(f"squared radius {r2} exceeds the kept {self.keep_r2}")
        return self._read(targets, r2)

    def _search(self, r2: float):
        n = len(self.points)
        # the narrowest unsigned type for the kept indices: at n=100k in
        # D=10 they number tens of millions
        index = np.min_scalar_type(max(n - 1, 0))
        lengths = np.zeros(n, dtype=np.intp)
        kept = []
        for chunk, rows, cols, diff, d2 in ball_pairs(cKDTree(self.points), self.points, self.r2):
            keep = d2 <= self.keep_r2
            lengths[chunk] = np.bincount(rows[keep] - chunk.start, minlength=chunk.stop - chunk.start)
            kept.append(cols[keep].astype(index))
            if r2 < self.r2:
                inside = d2 <= r2
                rows, cols, diff, d2 = rows[inside], cols[inside], diff[inside], d2[inside]
            yield chunk, rows, cols, diff, d2
            # the reader has this chunk: hold none of it while the next is made
            del rows, cols, diff, d2
        self.indptr = np.concatenate([[0], np.cumsum(lengths)])
        self.cols = np.concatenate(kept or [np.zeros(0, dtype=index)])

    def _read(self, targets: np.ndarray, r2: float):
        # chunks of about _CHUNK_PAIRS pairs; each difference is recomputed as
        # the search computed it, so the exact test below keeps the same pairs
        starts = self.indptr[targets]
        lengths = self.indptr[targets + 1] - starts
        step = max(1, _CHUNK_PAIRS // int(np.max(lengths, initial=1)))
        for lo in range(0, len(targets), step):
            chunk = slice(lo, min(lo + step, len(targets)))
            counts = lengths[chunk]
            rows = np.repeat(np.arange(chunk.start, chunk.stop), counts)
            # position of each pair in the lists: its list's start plus its rank
            at = np.arange(len(rows)) + np.repeat(starts[chunk] - (np.cumsum(counts) - counts), counts)
            cols = self.cols[at].astype(np.intp)
            diff = self.points[cols] - self.points[targets[rows]]
            d2 = np.einsum("ij,ij->i", diff, diff)
            inside = d2 <= r2
            yield chunk, rows[inside], cols[inside], diff[inside], d2[inside]
