"""Farthest-point sparsification: greedy pruning of a dense cloud into an
(eps, 2*eps)-net, with deterministic lowest-index tie-breaking.

Each pick updates the distance to the net only inside a KD-tree ball: the
points whose distance can shrink are those within the current largest
distance of the new net point.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ._neighbours import check_finite


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
    if eps <= 0:
        raise ValueError("need eps > 0")
    n = points.shape[0]
    if not 0 <= start < n:
        raise ValueError(f"start index {start} out of range")
    tree = cKDTree(points)
    chosen = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
    while True:
        far = int(np.argmax(dist))  # first occurrence wins ties
        reach = dist[far]
        if reach <= eps:
            return chosen
        chosen.append(far)
        # every distance is <= reach, so only points within reach of the new
        # net point can move closer; the tree searches a relative 1e-12 wider
        near = np.asarray(tree.query_ball_point(points[far], reach * (1.0 + 1e-12)))
        dist[near] = np.minimum(dist[near], np.linalg.norm(points[near] - points[far], axis=1))
