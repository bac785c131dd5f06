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

The round's picks then update the distances.  Each pick need only reach
the ball of its distance when it was picked, as the greedy one pick at a
time does: no point outside it can move closer.  The first rounds' balls
hold much of the cloud, so they update every point densely, against one
coordinate-major copy of the cloud, and count the points within each
pick's reach.  Once a round's balls average fewer than n / ``_BALL_COST``
points, every later round lists its balls with one KD-tree query,
:func:`._neighbours.ball_lists`, instead: reaches only shrink, so the
balls do not widen again.

The greedy needs only an order on distances, so every distance is held
squared, the candidates' gaps included, each from
:func:`._neighbours._sq_norms`, and eps is compared squared.  A point
outside a pick's ball keeps its distance on either path, and a minimum does
not depend on order, so the distances after a round equal the
one-pick-at-a-time greedy's bit for bit.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ._neighbours import _sq_norms, ball_lists, check_points, check_positive

_BATCH = 32  # picks a round may find; the fastest of 16, 32, 64 and 128 on a torus at n = 20k
# listing a point of a ball through the tree costs about as much as the
# dense update of this many points: 8 to 15 tied as the fastest of 8, 10, 15,
# 20, 30 and 60 on a torus at n = 20k and 50k and a circle in R^10 at
# n = 50k, and from 20 on the circle's net took 8% longer
_BALL_COST = 15


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
    n, eps2 = points.shape[0], eps * eps
    columns = np.ascontiguousarray(points.T)
    tree = None  # built for the first round that lists its balls
    chosen = [0]
    diff = np.empty_like(columns)  # every dense update writes here
    # squared distances to the net, as are the gaps and each pick's reach
    dist = _sq_norms(np.subtract(columns, columns[:, :1], out=diff)).copy()
    k = min(_BATCH, n)
    while True:
        v = np.partition(dist, n - k)[n - k]
        candidates = np.flatnonzero(dist > v)
        if not len(candidates):
            # the largest distance ties with v: its first point is the one
            # pick of the round
            candidates, v = np.argmax(dist, keepdims=True), -np.inf
        sub = columns[:, candidates]
        gaps = _sq_norms(sub[:, None, :] - sub[:, :, None])  # row j: to sub[j]
        value = dist[candidates]
        rows, reach = [], []
        while True:
            j = int(value.argmax())  # first occurrence wins ties
            if not (value[j] > eps2 and value[j] > v):
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
        if tree is None:  # dense: every point, counting those within reach
            inside = 0
            for p, r in zip(picked, reach):
                gap = _sq_norms(np.subtract(columns, columns[:, p, None], out=diff))
                inside += np.count_nonzero(gap <= r)
                np.minimum(dist, gap, out=dist)
            if _BALL_COST * inside < n * len(picked):
                tree = cKDTree(points)
        else:
            _, cols, gap = ball_lists(tree, points[picked], np.array(reach))
            np.minimum.at(dist, cols, gap)
