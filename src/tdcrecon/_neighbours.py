"""The neighbour query behind every local computation of the package.

Tangent estimation and slab counting ask the same question: which points of
a cloud lie in a closed ball around a point of the same cloud.  One
``scipy.spatial.cKDTree`` self-join of the cloud answers it for every point
at once, finding each unordered pair once; :func:`ball_pairs` reads the
answer in bounded chunks, with ball membership decided exactly as a dense
scan decides it.  A call about a subset of the points reads its rows from
the search of the whole cloud.

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


def _chunks(sizes: np.ndarray):
    """Slices of consecutive entries whose ``sizes`` sum to about ``_CHUNK_PAIRS``.

    No slice sums to more, except one that holds a single larger entry.
    """
    ends = np.cumsum(sizes)
    lo = 0
    while lo < len(ends):
        start = ends[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, start + _CHUNK_PAIRS, side="right")))
        yield slice(lo, hi)
        lo = hi


def _pairs(points: np.ndarray, indptr: np.ndarray, cols: np.ndarray, targets: np.ndarray):
    """Every listed pair of ``points[targets]``, plus each target's self pair.

    Yields ``(chunk, at, rows, cols, diff, d2)`` per chunk of targets, as
    :func:`ball_pairs` does but before the exact test; ``at`` gives the
    positions in ``cols`` of the chunk's listed pairs, in the order they
    appear among the yielded pairs that are not self pairs.
    """
    n = len(points)
    starts = indptr[targets]
    counts = indptr[targets + 1] - starts
    for chunk in _chunks(counts + 1):
        own, c = targets[chunk], counts[chunk]
        local = np.repeat(np.arange(len(c)), c)
        at = np.arange(len(local)) + np.repeat(starts[chunk] - (np.cumsum(c) - c), c)
        # sort keys within the chunk; each self pair goes in at its column
        key = local * n + cols[at]
        own_key = np.arange(len(c)) * n + own
        key = np.insert(key, np.searchsorted(key, own_key), own_key)
        rows, found = np.divmod(key, n)
        # each target's point repeated over its pairs: faster than a gather
        diff = points[found] - np.repeat(points[own], c + 1, axis=0)
        d2 = np.einsum("ij,ij->i", diff, diff)
        yield chunk, at, chunk.start + rows, found, diff, d2


def _exact(rows, cols, diff, d2, r2: float):
    """The pairs that pass the exact test ``d2 <= r2``, uncopied when all do."""
    inside = d2 <= r2
    if inside.all():
        return rows, cols, diff, d2
    return rows[inside], cols[inside], diff[inside], d2[inside]


def _within(parts, r2: float):
    """The pairs of :func:`_pairs` chunks that pass the exact test ``d2 <= r2``."""
    for chunk, _, rows, cols, diff, d2 in parts:
        yield chunk, *_exact(rows, cols, diff, d2, r2)


def ball_pairs(points: np.ndarray, targets: np.ndarray, r2: float):
    """Closed-ball pairs between ``points[targets]`` and the points of the cloud.

    Yields ``(chunk, rows, cols, diff, d2)`` per chunk of consecutive
    targets; ``chunk`` is the slice of ``targets`` it covers.  Pair p says
    that ``points[cols[p]]`` lies in the closed ball of squared radius ``r2``
    around ``points[targets[rows[p]]]``, with ``diff[p]`` the difference of
    the two and ``d2[p]`` its squared length.  Pairs are sorted by row, then
    by column; each target is its own neighbour at distance zero.

    The search is one self-join of the whole cloud, whatever the targets.
    Membership is the test ``d2 <= r2`` on these differences, so points on
    the sphere are in or out exactly as in a dense scan that uses the same
    predicate; the tree only proposes candidates.
    """
    points = np.asarray(points, dtype=float)
    targets = np.asarray(targets, dtype=np.intp)
    indptr, cols = _candidates(points, r2)
    yield from _within(_pairs(points, indptr, cols, targets), r2)


class SharedNeighbours:
    """One ball search of a cloud, read twice: once as it runs, then from lists.

    The search covers the closed balls of squared radius ``r2`` around every
    point of ``points``.  The first :meth:`pairs` call runs it and gets its
    chunks as they come; meanwhile the pairs within squared radius
    ``keep_r2`` are kept as index lists, and later calls are served from
    them.  Either way a call yields what :func:`ball_pairs` yields for its
    targets and radius: the same pairs in the same order, with the same
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
            return self._search(targets, r2)
        if self.cols is None:
            raise ValueError("the first reader stopped before the search ended")
        if r2 > self.keep_r2:
            raise ValueError(f"squared radius {r2} exceeds the kept {self.keep_r2}")
        return _within(_pairs(self.points, self.indptr, self.cols, targets), r2)

    def _search(self, every: np.ndarray, r2: float):
        indptr, cols = _candidates(self.points, self.r2)
        # the listed pairs within keep_r2, marked as their chunks pass, and
        # how many each point has
        kept = np.zeros(len(cols), dtype=bool)
        lengths = np.zeros(len(every), dtype=np.intp)
        for chunk, at, rows, found, diff, d2 in _pairs(self.points, indptr, cols, every):
            # every point is read in order, so a row is its point's index
            listed = found != rows
            keep = d2[listed] <= self.keep_r2
            kept[at] = keep
            lengths[chunk] = np.bincount(
                rows[listed][keep] - chunk.start, minlength=chunk.stop - chunk.start
            )
            yield chunk, *_exact(rows, found, diff, d2, r2)
            # the reader has this chunk: hold none of it while the next is made
            del at, rows, found, diff, d2
        self.indptr = np.concatenate([[0], np.cumsum(lengths)])
        # the narrowest unsigned type for the kept indices: at n=100k in
        # D=10 they number tens of millions
        self.cols = cols[kept].astype(np.min_scalar_type(max(len(every) - 1, 0)))
