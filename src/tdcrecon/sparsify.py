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

The round's picks then update the distances with one KD-tree ball query,
:func:`._neighbours.ball_lists`, which returns each (point, pick) distance
as the exact ``np.linalg.norm``.  Each pick searches the ball of its distance
when it was picked, as the greedy one pick at a time does: no point outside
it can move closer.  A minimum does not depend on order and each distance is
that one norm, so the distances after a round equal the one-pick-at-a-time
greedy's bit for bit.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ._neighbours import ball_lists, check_points, check_positive

_BATCH = 32  # picks a round may find; the fastest of 16, 32, 64 and 128 on a torus at n = 20k


def farthest_point_sampling(points: np.ndarray, eps: float) -> list[int]:
    """Greedy net extraction.

    Starting from row 0, repeatedly add the point farthest from the
    current subset while that distance exceeds eps.  The result is eps-sparse
    and covers the input within eps.  Ties in the argmax go to the lowest
    index.  Returns indices in order of addition.
    """
    points = check_points(points)
    if not len(points):
        raise ValueError("need a nonempty point array")
    check_positive(eps, "eps")
    n = points.shape[0]
    tree = cKDTree(points)
    chosen = [0]
    dist = np.linalg.norm(points - points[0], axis=-1)
    k = min(_BATCH, n)
    while True:
        v = np.partition(dist, n - k)[n - k]
        candidates = np.flatnonzero(dist > v)
        if not len(candidates):
            # the largest distance ties with v: its first point is the one
            # pick of the round
            candidates, v = np.argmax(dist, keepdims=True), -np.inf
        sub = points[candidates]
        gaps = np.linalg.norm(sub[None, :, :] - sub[:, None, :], axis=-1)  # row j: to sub[j]
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
        # only points within that of the pick can move closer
        _, cols, gap = ball_lists(tree, points[picked], np.array(reach))
        np.minimum.at(dist, cols, gap)
