"""The neighbour query behind every local computation of the package.

Tangent estimation, slab counting and tangent inheritance all ask the same
question: which cloud points lie in a closed ball around a query point.
:func:`ball_pairs` answers it from a ``scipy.spatial.cKDTree`` in bounded
chunks, with ball membership decided exactly as a dense scan decides it.
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
