"""Dimension-agnostic subspace algebra and set-to-set distances (nearest
points from a KD-tree).

Everything here is pure and operates on plain numpy arrays.  Tangent spaces
are (m, D, d) stacks of orthonormal bases, compared pair by pair with
:func:`principal_angles`.  Tolerances are fixed module constants, not knobs.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ._neighbours import check_points

ORTHONORMALITY_TOL = 1e-10


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


def directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """sup_{x in a} d(x, b) for two nonempty (m, D) arrays of finite points.

    A KD-tree on ``b`` finds each nearest point; the distance to it is then
    recomputed from the coordinates, so the value matches an all-pairs scan.
    """
    a, b = check_points(a, "a"), check_points(b, "b")
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("hausdorff distance of an empty set is undefined")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"ambient dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    _, nearest = cKDTree(b).query(a)
    diff = a - b[nearest]
    return float(np.sqrt(np.einsum("ij,ij->i", diff, diff).max()))
