"""All-pairs reference implementations of the library's local queries.

Each function scans every point for every query, as the library did before
its KD-tree neighbour layer; the tests require the library to return what
these return.  ``local_covariance`` is the covariance of one point's ball,
whose top eigenvectors ``estimate_tangents`` must span.  ``iterative_denoise``
runs the denoising loop on these dense stages, each with a scan of its own,
and scans once more for each iteration's neighbour counts.
``estimate_tangents`` is ``pca_bases`` followed by ``complete``, the argmin
inheritance of the skipped rows, in target order, as the library's field
holds them.  ``Subspace`` is one subspace, ``span`` the one spanned by some
orthogonal vectors, ``subspaces`` turns a stack of bases into ``Subspace``
objects, and ``estimated_rows`` lists the rows of a field that were not
inherited.  ``tangent`` and ``principal_angle`` are the one-point and one-pair
forms that the models' ``tangent_many`` and ``geometry.principal_angles``
replace.  ``in_slab`` is the slab predicate for one pair of points; the tests
tie ``slab_counts`` to it pair by pair.
"""
import math

import numpy as np

import tdcrecon.tangent
from tdcrecon.denoise import (
    NO_SURVIVORS,
    NO_TANGENT,
    IterationDiagnostics,
    SlabSpec,
    _slab_mask,
    bandwidths,
)
from tdcrecon.geometry import _check_bases
from tdcrecon.models import Sphere, Torus

_CHUNK = 256


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

    def projector(self) -> np.ndarray:
        """Orthogonal projection matrix onto the subspace."""
        return self.basis @ self.basis.T

    def __repr__(self) -> str:
        return f"Subspace(dim={self.basis.shape[1]}, ambient_dim={self.basis.shape[0]})"


def span(*vectors):
    """The ``Subspace`` spanned by orthogonal ``vectors``, each scaled to unit length."""
    basis = np.array(vectors, dtype=float).T
    basis /= np.linalg.norm(basis, axis=0)
    return Subspace(basis)


def subspaces(bases):
    """An (m, D, d) stack of bases as ``Subspace`` objects, in order."""
    return [Subspace(basis) for basis in bases]


def estimated_rows(field):
    """The rows of a field that hold their own estimate, not an inherited one."""
    return np.setdiff1d(np.arange(len(field.bases)), field.skipped)


def ball_pairs(points, targets, r2):
    """(rows, cols, diff, d2) of the points within squared distance r2 of each target.

    Row r holds target ``targets[r]``; its columns are every point index in
    increasing order whose difference from the target passes ``d2 <= r2``.
    """
    points = np.asarray(points, dtype=float)
    parts = []
    for row, t in enumerate(targets):
        diff = points - points[t]
        d2 = np.einsum("ij,ij->i", diff, diff)
        cols = np.flatnonzero(d2 <= r2)
        parts.append((np.full(len(cols), row), cols, diff[cols], d2[cols]))
    return tuple(np.concatenate([p[k] for p in parts]) for k in range(4))


def local_covariance(points: np.ndarray, j: int, h: float) -> np.ndarray:
    """Covariance of the neighbors of point j inside the closed ball B(X_j, h).

    The point itself is excluded from both the barycenter and the scatter sum;
    the matrix is scaled by 1/(n-1) with n the cloud size.  No neighbors means
    the zero matrix.
    """
    points = np.asarray(points, dtype=float)
    n, big_d = points.shape
    if n < 2:
        raise ValueError("need at least 2 points")
    if h <= 0:
        raise ValueError("need h > 0")
    diff = points - points[j]
    # squared comparison, matching the vectorized path bit for bit at the
    # closed-ball boundary
    mask = np.einsum("nd,nd->n", diff, diff) <= h * h
    mask[j] = False
    if not np.any(mask):
        return np.zeros((big_d, big_d))
    nb = diff[mask]
    centered = nb - nb.mean(axis=0)
    return centered.T @ centered / (n - 1)


def pca_bases(points, h, d, targets):
    """``(bases, estimated)``: the d-dimensional local-PCA basis at bandwidth h at
    each target, set where the target has at least
    ``tdcrecon.tangent._MIN_NEIGHBORS`` neighbours."""
    points = np.asarray(points, dtype=float)
    n, big_d = points.shape
    targets = np.asarray(targets, dtype=int)
    bases = np.zeros((len(targets), big_d, d))
    estimated = np.zeros(len(targets), dtype=bool)
    for lo in range(0, len(targets), _CHUNK):
        idx = targets[lo : lo + _CHUNK]
        diff = points[None, :, :] - points[idx][:, None, :]  # (c, n, D)
        dist2 = np.einsum("cnd,cnd->cn", diff, diff)
        mask = dist2 <= h * h
        mask[np.arange(len(idx)), idx] = False
        counts = mask.sum(axis=1)
        ok = counts >= tdcrecon.tangent._MIN_NEIGHBORS
        if not np.any(ok):
            continue
        w = np.where(mask[:, :, None], diff, 0.0)
        sums = w.sum(axis=1)
        means = np.zeros_like(sums)
        means[ok] = sums[ok] / counts[ok, None]
        # sum of outer products minus the rank-one mean correction
        scatter = np.matmul(w.transpose(0, 2, 1), diff)
        scatter -= counts[:, None, None] * np.einsum("ca,cb->cab", means, means)
        cov = scatter[ok] / (n - 1)
        cov = 0.5 * (cov + cov.transpose(0, 2, 1))
        eigvals, eigvecs = np.linalg.eigh(cov)
        rows = lo + np.flatnonzero(ok)
        bases[rows] = eigvecs[:, :, ::-1][:, :, :d]
        estimated[rows] = True
    return bases, estimated


def complete(points, bases, estimated):
    """Each row not ``estimated`` takes the basis of the first nearest
    estimated row (argmin), in place; row k is the tangent at ``points[k]``."""
    points = np.asarray(points, dtype=float)
    sources = np.flatnonzero(estimated)
    for k in np.flatnonzero(~estimated):
        nearest = int(np.argmin(np.linalg.norm(points[sources] - points[k], axis=1)))
        bases[k] = bases[sources[nearest]]


def estimate_tangents(points, h, d, subset=None):
    """``(bases, skipped)`` of the library's field: one row per target, in target order."""
    points = np.asarray(points, dtype=float)
    targets = np.arange(len(points)) if subset is None else np.asarray(subset, dtype=int)
    bases, estimated = pca_bases(points, h, d, targets)
    if len(targets) and not estimated.any():
        raise ValueError("no tangent estimable")
    complete(points[targets], bases, estimated)
    return bases, np.flatnonzero(~estimated)


def in_slab(x: np.ndarray, tangent: Subspace, h: float, spec: SlabSpec, y) -> bool:
    """Closed-condition membership of y in the slab at x with direction T."""
    diff = (np.asarray(y, dtype=float) - np.asarray(x, dtype=float))[None, :]
    d2 = np.einsum("...i,...i->...", diff, diff)
    return bool(_slab_mask(diff, tangent.basis, h, spec, d2)[0])


def slab_counts(points, bases, h, spec):
    """The number of points in each point's slab along ``bases[j]``, its tangent."""
    points = np.asarray(points, dtype=float)
    counts = np.zeros(points.shape[0], dtype=int)
    t1 = (spec.k1 * h) ** 2
    t2 = (spec.k2 * h * h) ** 2
    for j, basis in enumerate(bases):
        diff = points - points[j]
        tang = diff @ basis
        tang2 = np.einsum("ij,ij->i", tang, tang)
        norm2 = np.einsum("ij,ij->i", diff, diff) - tang2
        counts[j] = int(np.sum((tang2 <= t1) & (np.maximum(norm2, 0.0) <= t2)))
    return counts


def farthest_point_sampling(points, eps):
    points = np.asarray(points, dtype=float)
    chosen = [0]
    dist = np.linalg.norm(points - points[0], axis=1)
    while True:
        far = int(np.argmax(dist))  # first occurrence wins ties
        if dist[far] <= eps:
            return chosen
        chosen.append(far)
        np.minimum(dist, np.linalg.norm(points - points[far], axis=1), out=dist)


def directed_hausdorff(a, b):
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    best = 0.0
    chunk = max(1, int(2e7) // max(1, b.shape[0]))
    for lo in range(0, a.shape[0], chunk):
        diff = a[lo : lo + chunk, None, :] - b[None, :, :]
        dist2 = np.einsum("ijk,ijk->ij", diff, diff)
        best = max(best, float(dist2.min(axis=1).max()))
    return float(np.sqrt(best))


def iterative_denoise(cloud, d, beta, kappa, spec, k_iters):
    """The denoising loop on the dense tangents, completion and slab counts."""
    n_total = cloud.n
    threshold = spec.t * math.log(n_total - 1)
    alive = np.arange(n_total)
    diags = []
    for k, h in enumerate(bandwidths(n_total, d, beta, kappa, k_iters)):
        pts = cloud.points[alive]
        bases, estimated = pca_bases(pts, h, d, np.arange(len(pts)))
        inherited, stop_reason = int(np.count_nonzero(~estimated)), None
        slab_p05 = slab_p50 = None
        if estimated.any():
            complete(pts, bases, estimated)
            counts = slab_counts(pts, bases, h, spec)
            slab_p05 = float(np.percentile(counts, 5.0))
            slab_p50 = float(np.percentile(counts, 50.0))
            alive = alive[counts >= threshold]
            if alive.size == 0:
                stop_reason = NO_SURVIVORS
        else:
            inherited, stop_reason = 0, NO_TANGENT
        # the pairs within h, each point's pair with itself left out
        rows = ball_pairs(pts, np.arange(len(pts)), h * h)[0]
        neighbours = len(rows) - len(pts)
        tp = fp = None
        if cloud.labels is not None:
            tp = int(np.sum(cloud.labels[alive] == 1))
            fp = int(np.sum(cloud.labels[alive] == 0))
        diags.append(
            IterationDiagnostics(
                k=k,
                h_k=h,
                survivors=int(alive.size),
                true_positives=tp,
                false_positives=fp,
                inherited=inherited,
                stop_reason=stop_reason,
                threshold=threshold,
                slab_p05=slab_p05,
                slab_p50=slab_p50,
                neighbours_mean=neighbours / len(pts),
            )
        )
        if stop_reason is not None:
            break
    return alive.tolist(), diags


def tangent(model, p):
    """The tangent space of ``model`` at one point ``p`` of it, as a ``Subspace``."""
    p = np.asarray(p, dtype=float)
    d = model.intrinsic_dim
    if isinstance(model, Sphere) and d == 1:
        v = np.zeros(model.ambient_dim)
        v[0], v[1] = -p[1], p[0]
        return Subspace((v / np.linalg.norm(v))[:, None])
    basis = np.zeros((model.ambient_dim, d))
    if isinstance(model, Sphere) and d == 3:
        # the eigenvectors of I - n n^T of eigenvalue 1
        n = p[:4] / np.linalg.norm(p[:4])
        basis[:4] = np.linalg.eigh(np.eye(4) - np.outer(n, n))[1][:, 1:]
        return Subspace(basis)
    if isinstance(model, Sphere):
        n = p[:3] / np.linalg.norm(p[:3])
        a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = a - np.dot(a, n) * n
        u /= np.linalg.norm(u)
        basis[:3, 0] = u
        basis[:3, 1] = np.cross(n, u)
        return Subspace(basis)
    assert isinstance(model, Torus)
    u = math.atan2(p[1], p[0])
    v = math.atan2(p[2], math.hypot(p[0], p[1]) - model.major_radius)
    basis[:3, 0] = [-math.sin(u), math.cos(u), 0.0]
    basis[:3, 1] = [-math.sin(v) * math.cos(u), -math.sin(v) * math.sin(u), math.cos(v)]
    return Subspace(basis)


def principal_angle(u, v):
    """||P_U - P_V||_op of two ``Subspace`` objects, the projectors subtracted
    in the order of their bytes."""
    pu, pv = u.projector(), v.projector()
    if pu.tobytes() > pv.tobytes():
        pu, pv = pv, pu
    eigs = np.linalg.eigvalsh(pu - pv)
    return min(1.0, max(abs(float(eigs[0])), abs(float(eigs[-1]))))
