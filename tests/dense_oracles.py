"""All-pairs reference implementations of the library's local queries.

Each function scans every point for every query, as the library did before
its KD-tree neighbour layer; the tests require the library to return what
these return.  ``local_covariance`` is the covariance of one point's ball,
whose top eigenvectors ``estimate_tangents`` must span.  ``iterative_denoise``
runs the denoising loop on these dense stages, each with a scan of its own,
and scans once more for each iteration's neighbour counts.
``field_of`` and ``subspaces`` convert between a tangent field and the list
of ``Subspace`` objects the tests write fields with.
"""
import math

import numpy as np

from tdcrecon.denoise import NO_SURVIVORS, NO_TANGENT, IterationDiagnostics, schedule
from tdcrecon.geometry import Subspace
from tdcrecon.tangent import TangentField, TseParams

_CHUNK = 256


def field_of(indices, subs, skipped=()):
    """A tangent field from parallel lists of indices and ``Subspace`` objects."""
    bases = [sub.basis for sub in subs]
    return TangentField(indices, np.array(bases) if bases else np.zeros((0, 1, 1)), skipped)


def subspaces(field_):
    """The field's estimates as ``Subspace`` objects, in the order of its indices."""
    return [Subspace(basis) for basis in field_.bases]


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


def estimate_tangents(points, params, subset=None):
    points = np.asarray(points, dtype=float)
    n, big_d = points.shape
    targets = np.arange(n) if subset is None else np.asarray(subset, dtype=int)
    indices, bases, skipped = [], [], []
    for lo in range(0, len(targets), _CHUNK):
        idx = targets[lo : lo + _CHUNK]
        diff = points[None, :, :] - points[idx][:, None, :]  # (c, n, D)
        dist2 = np.einsum("cnd,cnd->cn", diff, diff)
        mask = dist2 <= params.h * params.h
        mask[np.arange(len(idx)), idx] = False
        counts = mask.sum(axis=1)
        ok = counts >= params.min_neighbors
        skipped.extend(int(j) for j in idx[~ok])
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
        for row, j in enumerate(idx[ok]):
            indices.append(int(j))
            bases.append(eigvecs[row][:, ::-1][:, : params.d])
    return TangentField(indices, np.array(bases).reshape(-1, big_d, params.d), skipped)


def complete(field_, points):
    """Skipped indices inherit from the first nearest estimate (argmin)."""
    points = np.asarray(points, dtype=float)
    est_pts = points[field_.indices]
    indices = list(field_.indices)
    bases = list(field_.bases)
    for j in field_.skipped:
        nearest = int(np.argmin(np.linalg.norm(est_pts - points[j], axis=1)))
        indices.append(j)
        bases.append(field_.bases[nearest])
    order = np.argsort(indices)
    return TangentField([indices[k] for k in order], np.array([bases[k] for k in order]))


def slab_counts(points, field_, h, spec):
    points = np.asarray(points, dtype=float)
    counts = np.zeros(points.shape[0], dtype=int)
    t1 = (spec.k1 * h) ** 2
    t2 = (spec.k2 * h * h) ** 2
    for j, basis in zip(field_.indices, field_.bases):
        diff = points - points[j]
        tang = diff @ basis
        tang2 = np.einsum("ij,ij->i", tang, tang)
        norm2 = np.einsum("ij,ij->i", diff, diff) - tang2
        counts[j] = int(np.sum((tang2 <= t1) & (np.maximum(norm2, 0.0) <= t2)))
    return counts


def farthest_point_sampling(points, eps, start=0):
    points = np.asarray(points, dtype=float)
    chosen = [start]
    dist = np.linalg.norm(points - points[start], axis=1)
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
    hs = schedule(n_total, d, beta, kappa, k_iters).hs
    threshold = spec.t * math.log(n_total - 1)
    alive = np.arange(n_total)
    diags = []
    for k in range(k_iters + 1):
        pts = cloud.points[alive]
        field_ = estimate_tangents(pts, TseParams(h=hs[k], d=d))
        inherited, stop_reason = len(field_.skipped), None
        slab_p05 = slab_p50 = None
        if len(field_):
            counts = slab_counts(pts, complete(field_, pts), hs[k], spec)
            slab_p05 = float(np.percentile(counts, 5.0))
            slab_p50 = float(np.percentile(counts, 50.0))
            alive = alive[counts >= threshold]
            if alive.size == 0:
                stop_reason = NO_SURVIVORS
        else:
            inherited, stop_reason = 0, NO_TANGENT
        # the pairs within h, each point's pair with itself left out
        rows = ball_pairs(pts, np.arange(len(pts)), hs[k] * hs[k])[0]
        neighbours = len(rows) - len(pts)
        labels = cloud.labels[alive]
        diags.append(
            IterationDiagnostics(
                k=k,
                h=hs[k],
                survivors=int(alive.size),
                true_positives=int(np.sum(labels == 1)),
                false_positives=int(np.sum(labels == 0)),
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
