"""Dimension-agnostic subspace algebra, symmetric eigendecompositions, and
set-to-set distances (nearest points from a KD-tree).

Everything here is pure and operates on plain numpy arrays plus the small
:class:`Subspace` wrapper.  Tolerances are fixed module constants, not knobs.
"""
from __future__ import annotations

import numpy as np
from scipy.spatial import cKDTree

from ._neighbours import check_finite

ORTHONORMALITY_TOL = 1e-10
EIGEN_RESIDUAL_REL = 1e-8


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5*(A + A^T) of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


class Subspace:
    """A d-dimensional linear subspace of R^D stored as an orthonormal basis.

    The basis is a D x d matrix with orthonormal columns (checked to 1e-10 on
    construction).  Instances are treated as immutable.
    """

    __slots__ = ("basis",)

    def __init__(self, basis: np.ndarray):
        basis = np.array(basis, dtype=float)
        if basis.ndim == 1:
            basis = basis[:, None]
        _check_bases(basis[None])
        basis.setflags(write=False)
        self.basis = basis

    @property
    def ambient_dim(self) -> int:
        return self.basis.shape[0]

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """Orthogonal projection matrix onto the subspace."""
        return self.basis @ self.basis.T

    def project(self, v: np.ndarray) -> np.ndarray:
        """Project vectors (last axis = ambient coordinates) onto the subspace."""
        v = np.asarray(v, dtype=float)
        return (v @ self.basis) @ self.basis.T

    def normal_component(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return v - self.project(v)

    def __repr__(self) -> str:
        return f"Subspace(dim={self.dim}, ambient_dim={self.ambient_dim})"


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


def random_subspace(rng: np.random.Generator, ambient_dim: int, dim: int) -> Subspace:
    """Haar-ish random subspace from the QR of a Gaussian matrix."""
    g = rng.standard_normal((ambient_dim, dim))
    q, r = np.linalg.qr(g)
    # fix signs so the result is a deterministic function of g
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    return Subspace(q)


def tilt_subspace(sub: Subspace, direction: np.ndarray, alpha: float) -> Subspace:
    """Rotate the first basis vector of ``sub`` by ``alpha`` toward a unit
    vector orthogonal to the subspace.  The principal angle between the input
    and the output is sin(alpha)."""
    direction = np.asarray(direction, dtype=float)
    if np.linalg.norm(sub.basis.T @ direction) > 1e-8 or abs(
        np.linalg.norm(direction) - 1.0
    ) > 1e-8:
        raise ValueError("direction must be a unit vector orthogonal to the subspace")
    basis = sub.basis.copy()
    basis[:, 0] = np.cos(alpha) * basis[:, 0] + np.sin(alpha) * direction
    return Subspace(basis)


def _check_same_shape(u: Subspace, v: Subspace) -> None:
    if u.ambient_dim != v.ambient_dim:
        raise ValueError(
            f"ambient dimension mismatch: {u.ambient_dim} vs {v.ambient_dim}"
        )
    if u.dim != v.dim:
        raise ValueError(f"subspace dimension mismatch: {u.dim} vs {v.dim}")


def principal_angle(u: Subspace, v: Subspace) -> float:
    """Distance between equal-dimension subspaces: ||P_U - P_V||_op in [0, 1].

    Equals the sine of the largest canonical angle.  The two projectors are
    subtracted in a canonical order so the function is exactly symmetric.
    """
    _check_same_shape(u, v)
    pu, pv = u.projector(), v.projector()
    # canonical operand order makes principal_angle(u, v) bit-equal to (v, u)
    if pu.tobytes() > pv.tobytes():
        pu, pv = pv, pu
    eigs = np.linalg.eigvalsh(pu - pv)
    ang = max(abs(float(eigs[0])), abs(float(eigs[-1])))
    return min(1.0, ang)


def top_eigenspace(s: np.ndarray, d: int) -> tuple[Subspace, np.ndarray]:
    """Invariant subspace of the d largest eigenvalues of a symmetric matrix.

    Returns (subspace, eigenvalues) with eigenvalues sorted descending.  Ties
    across the d-th eigenvalue still yield a valid invariant subspace; callers
    must not assume uniqueness in that case.
    """
    s = symmetrize(s)
    big_d = s.shape[0]
    if not 1 <= d <= big_d:
        raise ValueError(f"need 1 <= d <= {big_d}, got {d}")
    w, v = np.linalg.eigh(s)
    order = np.arange(big_d - 1, big_d - 1 - d, -1)
    return Subspace(v[:, order]), w[order].copy()


def hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """Hausdorff distance between two finite point sets in R^D."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def directed_hausdorff(a: np.ndarray, b: np.ndarray) -> float:
    """sup_{x in a} d(x, b) for finite point sets.

    A KD-tree on ``b`` finds each nearest point; the distance to it is then
    recomputed from the coordinates, so the value matches an all-pairs scan.
    """
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.shape[0] == 0 or b.shape[0] == 0:
        raise ValueError("hausdorff distance of an empty set is undefined")
    if a.shape[1] != b.shape[1]:
        raise ValueError(f"ambient dimension mismatch: {a.shape[1]} vs {b.shape[1]}")
    check_finite(a, "a")
    check_finite(b, "b")
    _, nearest = cKDTree(b).query(a)
    diff = a - b[nearest]
    return float(np.sqrt(np.einsum("ij,ij->i", diff, diff).max()))


def subspace_rotation(u: Subspace, v: Subspace) -> np.ndarray:
    """Orthogonal D x D matrix mapping U onto V, identity on (U + V)^perp.

    Built from SVD-paired principal vectors; the rotation planes of distinct
    principal pairs are mutually orthogonal, so the plane rotations compose
    into a single orthogonal map with
    ||R - I||_op = 2 sin(alpha_max / 2) <= alpha_max,
    where alpha_max = arcsin(principal_angle(u, v)) is the largest canonical
    angle.
    """
    _check_same_shape(u, v)
    big_d = u.ambient_dim
    a, sig, bt = np.linalg.svd(u.basis.T @ v.basis)
    up = u.basis @ a
    vp = v.basis @ bt.T
    r = np.eye(big_d)
    for i in range(u.dim):
        c = min(1.0, max(-1.0, float(sig[i])))
        w = vp[:, i] - c * up[:, i]
        s = float(np.linalg.norm(w))
        if s < 1e-14:
            continue
        w = w / s
        e = up[:, i]
        r += (c - 1.0) * (np.outer(e, e) + np.outer(w, w))
        r += s * (np.outer(w, e) - np.outer(e, w))
    return r


def perturbation_angle_bound_check(b: np.ndarray, e: np.ndarray) -> bool:
    """Check the top-eigenspace stability bound for O = blockdiag(B, 0) + E.

    With e1 = max(0, 1 - lambda_min(B)) and e2 = ||E||_F, requires
    e1 + e2 <= 1/2 and returns whether the angle between the span of the first
    d canonical vectors and the top-d eigenspace of O is at most 2*d*e2 (plus
    a 1e-9 float allowance).  Test-support code; must hold under the
    precondition.
    """
    b = symmetrize(b)
    e = symmetrize(e)
    d = b.shape[0]
    big_d = e.shape[0]
    if d > big_d:
        raise ValueError("block dimension exceeds ambient dimension")
    e1 = max(0.0, 1.0 - float(np.linalg.eigvalsh(b)[0]))
    e2 = float(np.linalg.norm(e, "fro"))
    if e1 + e2 > 0.5:
        raise ValueError(f"precondition e1 + e2 <= 1/2 violated: {e1 + e2:.6g}")
    o = np.zeros((big_d, big_d))
    o[:d, :d] = b
    o = o + e
    top, _ = top_eigenspace(o, d)
    canonical = Subspace(np.eye(big_d)[:, :d])
    return principal_angle(canonical, top) <= 2.0 * d * e2 + 1e-9


def sampled_reach(
    points: np.ndarray,
    bases: list[Subspace] | np.ndarray,
    min_normal: float = 1e-9,
) -> float:
    """Point-cloud reach surrogate.

    Minimum over ordered pairs (p, q) of ||q - p||^2 / (2 * d(q - p, T_p)),
    where T_p is the provided tangent subspace at p.  Pairs whose difference
    is tangent to working precision (normal component below ``min_normal``)
    are skipped.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    best = np.inf
    for i in range(n):
        basis = bases[i].basis if isinstance(bases[i], Subspace) else bases[i]
        diff = np.delete(points, i, axis=0) - points[i]
        tang = diff @ basis
        normal2 = np.einsum("ij,ij->i", diff, diff) - np.einsum("ij,ij->i", tang, tang)
        normal = np.sqrt(np.maximum(normal2, 0.0))
        keep = normal > min_normal
        if not np.any(keep):
            continue
        dist2 = np.einsum("ij,ij->i", diff[keep], diff[keep])
        best = min(best, float(np.min(dist2 / (2.0 * normal[keep]))))
    return best
