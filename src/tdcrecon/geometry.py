"""Dimension-agnostic subspace algebra and set-to-set distances (nearest
points from a KD-tree, queried only for the rows that an upper bound from
nearby rows cannot rule out).

Everything here is pure and operates on plain numpy arrays.  Tangent spaces
are (m, D, d) stacks of orthonormal bases, compared pair by pair with
:func:`principal_angles`.  Tolerances are fixed module constants, not knobs.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ._neighbours import check_points

ORTHONORMALITY_TOL = 1e-10
# rows of a per anchor of directed_hausdorff: on a torus grid of 19,845 rows
# against its 2,060-point net, strides 3, 4 and 6 took 0.58, 0.56 and 0.68
# times a query of every row, and on a circle grid in R^10 (629 rows against
# 248 points) 0.95, 0.92 and 1.23 times
_ANCHOR_STRIDE = 4
# relative margin below the anchors' largest squared distance within which a
# bounded row is still queried; it covers the rounding of every squared
# distance, (D + 2) 2^-53 relative, for any D below 10^6
_BOUND_MARGIN = 1e-9


def _check_bases(bases: np.ndarray) -> None:
    """Raise ValueError unless every D x d matrix of the (m, D, d) stack is a
    finite basis with orthonormal columns (to 1e-10)."""
    if not np.all(np.isfinite(bases)):
        raise ValueError("subspace basis contains non-finite entries")
    _, big_d, d = bases.shape
    if not 1 <= d <= big_d:
        raise ValueError(f"need 1 <= dim <= ambient_dim, got {d} and {big_d}")
    gram = np.matmul(bases.transpose(0, 2, 1), bases)
    if np.max(np.abs(gram - np.eye(d)), initial=0.0) > ORTHONORMALITY_TOL:
        raise ValueError("basis columns are not orthonormal to 1e-10")


def principal_angles(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||P_A - P_B||_op in [0, 1] for each pair of bases of two (m, D, d) stacks.

    Each of the m values is the sine of its pair's largest canonical angle.
    The two projectors of a pair are subtracted in the order of their bytes,
    so the result is bit-equal to ``principal_angles(b, a)``.
    """
    a = np.ascontiguousarray(a, dtype=float)
    b = np.ascontiguousarray(b, dtype=float)
    if a.ndim != 3 or a.shape != b.shape:
        raise ValueError(f"need two (m, D, d) stacks of one shape, got {a.shape} and {b.shape}")
    _check_bases(a)
    _check_bases(b)
    m, big_d, _ = a.shape
    pa, pb = np.matmul(a, a.transpose(0, 2, 1)), np.matmul(b, b.transpose(0, 2, 1))
    # each projector as one byte string, so ">" compares as bytes objects do
    key, size = f"S{pa.itemsize * big_d * big_d}", (m, big_d * big_d)
    swap = (pa.reshape(size).view(key) > pb.reshape(size).view(key))[:, 0]
    pa[swap], pb[swap] = pb[swap], pa[swap]
    eigs = np.linalg.eigvalsh(pa - pb)
    return np.minimum(1.0, np.maximum(np.abs(eigs[:, 0]), np.abs(eigs[:, -1])))


def _squared_distances(a: np.ndarray, b: np.ndarray, rows, cols) -> np.ndarray:
    """|a[rows] - b[cols]|^2, row by row, in one (len(rows), D) temporary."""
    diff = b[cols]
    np.subtract(a[rows], diff, out=diff)
    return np.einsum("ij,ij->i", diff, diff)


def directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """sup_{x in a} d(x, b) for two nonempty (m, D) arrays of finite points.

    A KD-tree on ``b`` finds nearest points, and the distance to each is
    recomputed from the coordinates, so the value matches an all-pairs scan.
    Only the rows that could set the maximum are queried:

    - every ``_ANCHOR_STRIDE``-th row of ``a`` (an anchor) is queried;
    - any point of ``b`` bounds a row's distance from above, so each other
      row is bounded by the nearer of its two anchors' nearest points, the
      anchor before it and the one after;
    - a row is queried only if its squared bound exceeds the anchors' largest
      squared distance times ``1 - _BOUND_MARGIN``.

    A computed squared distance is within a relative (D + 2) 2^-53
    of the exact one, far inside the margin, so a row left out is nearer to
    ``b`` than the maximum, and the result is bit-equal to a query of every
    row.  The bound is tight when consecutive rows of ``a`` lie close together,
    as the rows of every ``grid`` do.  On rows in random order nearly every
    row is queried after its anchor, which costs about 1.2 times a query of
    every row.
    """
    a, b = check_points(a, "a"), check_points(b, "b")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("hausdorff distance of an empty set is undefined")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"ambient dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    tree = cKDTree(b)
    _, nearest = tree.query(a[::_ANCHOR_STRIDE])
    # each row against the nearest point of the anchor before it, which for
    # an anchor is its own, exact distance
    before = np.arange(a.shape[0]) // _ANCHOR_STRIDE
    bound = _squared_distances(a, b, slice(None), nearest[before])
    best = bound[::_ANCHOR_STRIDE].max()
    floor = best * (1.0 - _BOUND_MARGIN)
    bound[::_ANCHOR_STRIDE] = 0.0
    # the rows still open against the anchor after them, if there is one
    open_rows = np.flatnonzero(bound > floor)
    after = np.minimum(before[open_rows] + 1, len(nearest) - 1)
    open_rows = open_rows[_squared_distances(a, b, open_rows, nearest[after]) > floor]
    if open_rows.size:
        _, near = tree.query(a[open_rows])
        best = max(best, _squared_distances(a, b, open_rows, near).max())
    return float(np.sqrt(best))
