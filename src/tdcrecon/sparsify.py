"""Farthest-point sparsification: greedy pruning of a dense cloud into an
(eps, 2*eps)-net, with deterministic lowest-index tie-breaking.

The greedy (Gonzalez's) repeatedly adds the point farthest from the net.  It
runs in rounds, each of which finds several of its picks at once.  A round
takes v, the k-th largest distance to the net (k = ``_BATCH``, or n if
smaller), and the candidates, the points farther than v, in increasing index
order.  It replays the greedy among the candidates alone, on their pairwise
distances: it takes the first candidate of the largest current distance and
accepts it while that distance exceeds both eps and v, then lowers the other
candidates' distances to it.  Every other point is at most v from the net,
and its distance can only fall, so each accepted pick is the one the greedy
over the whole cloud takes, the lowest index of the tied included.  If the
largest distance ties with v there are no candidates, and the round picks
that point alone.

The round's picks then update the distances with one KD-tree ball query.
Each pick searches the ball of its distance when it was picked, as the greedy
one pick at a time does: no point outside it can move closer.  A minimum does
not depend on order and each (point, pick) distance is computed the same way,
so the distances after a round equal the one-pick-at-a-time greedy's bit for
bit.
"""
from __future__ import annotations

from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

from ._neighbours import check_finite

_BATCH = 32  # picks a round may find; the fastest of 16, 32, 64 and 128 on a torus at n = 20k


def _norms(diff: np.ndarray) -> np.ndarray:
    """Euclidean norms along the last axis: ``np.linalg.norm``'s own expression for real input."""
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def farthest_point_sampling(points: np.ndarray, eps: float, start: int = 0) -> list[int]:
    """Greedy net extraction.

    Starting from ``start``, repeatedly add the point farthest from the
    current subset while that distance exceeds eps.  The result is eps-sparse
    and covers the input within eps.  Ties in the argmax go to the lowest
    index.  Returns indices in order of addition.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValueError("need a nonempty 2-d point array")
    check_finite(points, "points")
    if not eps > 0:
        raise ValueError("need eps > 0")
    n = points.shape[0]
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range")
    tree = cKDTree(points)
    chosen = [start]
    dist = _norms(points - points[start])
    k = min(_BATCH, n)
    while True:
        v = np.partition(dist, n - k)[n - k]
        candidates = np.flatnonzero(dist > v)
        if not len(candidates):
            # the largest distance ties with v: its first point is the one
            # pick of the round
            candidates, v = np.argmax(dist, keepdims=True), -np.inf
        sub = points[candidates]
        gaps = _norms(sub[None, :, :] - sub[:, None, :])  # row j: distances to sub[j]
        value = dist[candidates]
        rows, reach = [], []
        while True:
            j = int(value.argmax())  # first occurrence wins ties
            if not (value[j] > eps and value[j] > v):
                break
            rows.append(j)
            reach.append(value[j])
            np.minimum(value, gaps[j], out=value)
        if not rows:
            return chosen
        picked = candidates[rows]
        chosen.extend(picked.tolist())
        # every distance is at most a pick's distance when it was picked, so
        # only points within that of the pick can move closer; the tree
        # searches a relative 1e-12 wider
        centres = points[picked]
        near = tree.query_ball_point(
            centres, np.array(reach) * (1.0 + 1e-12), return_sorted=False
        )
        lengths = [len(ball) for ball in near]
        cols = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=sum(lengths))
        np.minimum.at(dist, cols, _norms(points[cols] - np.repeat(centres, lengths, axis=0)))
