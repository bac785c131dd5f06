"""Monte-Carlo checks of the paper's geometric lemmas on the analytic models.

The checks cover the statements that the estimator's guarantees rest on:

- chord against geodesic distance for close pairs (:func:`verify_geodesic_bounds`);
- the r^d scaling of the uniform measure of small balls (:func:`verify_standardness`);
- the projection sandwich for off-manifold balls (:func:`verify_ball_projection`);
- the normal offset of nearby points (:func:`verify_normal_offset`);
- slab separation and slab inclusion (:func:`verify_slab_separation`,
  :func:`verify_slab_inclusion`);
- the reach as a sampled quotient (:func:`monte_carlo_reach`, :func:`sampled_reach`);
- the top-eigenspace perturbation bound (:func:`perturbation_angle_bound_check`).

The subspace helpers at the end build the random and perturbed tangents and
the eigenspaces these checks and the tests need.  The estimator does not
import this module; the tests do.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from dense_oracles import Subspace, principal_angle
from tdcrecon.denoise import SlabSpec, _slab_mask, default_slab_spec
from tdcrecon.models import ManifoldModel, Sphere, Torus

# geodesic/Euclidean comparison constant used by the bound verifiers
ALPHA = 1.0 + 1.0 / (4.0 * math.sqrt(2.0))


@dataclass
class CheckReport:
    """Outcome of a Monte-Carlo check of a geometric statement."""

    trials: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


@dataclass
class GeodesicBoundsReport(CheckReport):
    max_ratio_lower: float  # max of ||x-y|| / d_M  (should be <= 1)
    max_ratio_upper: float  # max of d_M / (alpha ||x-y||)  (should be <= 1)
    max_ratio_second_order: float  # max of d_M / (||x-y|| + a^2 ||x-y||^2 / 2 rho)


@dataclass
class StandardnessReport:
    r_grid: list[float]
    estimates: list[float]  # mean over centers of the empirical Q(B(p, r))
    ratio_min: float  # min over grid of estimate / r^d  (fitted lower constant)
    ratio_max: float  # max over grid of estimate / r^d
    slope: float  # log-log slope of estimate vs r (should be ~ d)

    @property
    def passed(self) -> bool:
        return self.ratio_min > 0.0 and np.isfinite(self.ratio_max)


# ---------------------------------------------------------------------------
# close pairs with exact geodesic distances


def circle_points(circle: Sphere, t) -> np.ndarray:
    """The points of ``circle`` (a Sphere of intrinsic_dim 1) at the angles ``t``."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    out = np.zeros((t.size, circle.ambient_dim))
    out[:, 0], out[:, 1] = circle.radius * np.cos(t), circle.radius * np.sin(t)
    return out


def _circle_draw(circle: Sphere, rng: np.random.Generator, m: int):
    t = rng.uniform(0.0, 2.0 * np.pi, size=2 * m).reshape(-1, 2)
    dt = np.abs(t[:, 0] - t[:, 1])
    dt = np.minimum(dt, 2.0 * np.pi - dt)
    return circle_points(circle, t[:, 0]), circle_points(circle, t[:, 1]), circle.radius * dt


def _sphere_draw(sphere: Sphere, rng: np.random.Generator, m: int):
    p = sphere.sample_points(rng, m)
    q = sphere.sample_points(rng, m)
    k = sphere.intrinsic_dim + 1
    cosang = np.clip(
        np.einsum("ij,ij->i", p[:, :k], q[:, :k]) / sphere.radius**2, -1.0, 1.0
    )
    return p, q, sphere.radius * np.arccos(cosang)


def _torus_draw(torus: Torus, rng: np.random.Generator, m: int):
    # restricted to curves with closed-form arc length: meridians (always
    # geodesics) and the outer equator
    r, big_r = torus.minor_radius, torus.major_radius
    use_meridian = rng.random(m) < 0.5
    u = rng.uniform(0.0, 2 * np.pi, size=m)
    a = rng.uniform(0.0, 2 * np.pi, size=m)
    b = rng.uniform(0.0, 2 * np.pi, size=m)
    dab = np.abs(a - b)
    dab = np.minimum(dab, 2 * np.pi - dab)
    p = np.where(use_meridian[:, None], torus.point(u, a), torus.point(a, np.zeros(m)))
    q = np.where(use_meridian[:, None], torus.point(u, b), torus.point(b, np.zeros(m)))
    return p, q, np.where(use_meridian, r * dab, (big_r + r) * dab)


_GEODESIC_DRAWS = {
    (Sphere, 1): _circle_draw,
    (Sphere, 2): _sphere_draw,
    (Sphere, 3): _sphere_draw,
    (Torus, 2): _torus_draw,
}


def geodesic_pairs(
    model: ManifoldModel, rng: np.random.Generator, k: int, max_chord: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """k random pairs (x, y) with ||x-y|| <= max_chord and their exact
    geodesic distances: the first k close pairs of the model's stream of
    closed-form draws, m = 2 * (pairs still needed) + 8 candidates at a time."""
    draw = _GEODESIC_DRAWS.get((type(model), model.intrinsic_dim))
    if draw is None:
        raise NotImplementedError(f"no closed-form geodesics for {model!r}")
    xs, ys, ds = [], [], []
    need = k
    while need > 0:
        x, y, geo = draw(model, rng, 2 * need + 8)
        keep = np.linalg.norm(x - y, axis=1) <= max_chord
        xs.append(x[keep])
        ys.append(y[keep])
        ds.append(geo[keep])
        need -= int(np.count_nonzero(keep))
    return np.concatenate(xs)[:k], np.concatenate(ys)[:k], np.concatenate(ds)[:k]


def circle_geodesic_distance(circle: Sphere, x: np.ndarray, y: np.ndarray) -> float:
    """Arc length between two points of ``circle``."""
    dt = abs(float(np.arctan2(x[1], x[0])) - float(np.arctan2(y[1], y[0])))
    dt = min(dt, 2.0 * np.pi - dt)
    return circle.radius * dt


# ---------------------------------------------------------------------------
# numerical verifiers for the geometric propositions


def verify_geodesic_bounds(
    model: ManifoldModel, trials: int, seed: int
) -> GeodesicBoundsReport:
    """Chord/arc comparison on random close pairs:
    ||x-y|| <= d_M(x,y) <= alpha ||x-y|| and the second-order refinement
    d_M <= ||x-y|| + alpha^2 ||x-y||^2 / (2 rho), for ||x-y|| <= rho/4."""
    rng = np.random.default_rng(seed)
    rho = model.reach
    x, y, geo = geodesic_pairs(model, rng, trials, rho / 4.0)
    chord = np.linalg.norm(x - y, axis=1)
    tol = 1e-12
    nz = chord > 0
    lower = chord[nz] / geo[nz]
    upper = geo[nz] / (ALPHA * chord[nz])
    second = geo[nz] / (chord[nz] + ALPHA**2 * chord[nz] ** 2 / (2.0 * rho))
    bad = int(np.sum(lower > 1 + tol) + np.sum(upper > 1 + tol) + np.sum(second > 1 + tol))
    # degenerate x == y pairs: all three quantities are zero, never violations
    return GeodesicBoundsReport(
        trials=trials,
        violations=bad,
        max_ratio_lower=float(lower.max(initial=0.0)),
        max_ratio_upper=float(upper.max(initial=0.0)),
        max_ratio_second_order=float(second.max(initial=0.0)),
    )


def verify_standardness(
    model: ManifoldModel,
    r_grid,
    trials: int,
    seed: int,
    n_centers: int = 20,
) -> StandardnessReport:
    """Monte-Carlo check that Q(B(p, r)) scales like r^d from above and below."""
    rng = np.random.default_rng(seed)
    cloud = model.sample_points(rng, trials)
    centers = model.sample_points(rng, n_centers)
    r_grid = [float(r) for r in r_grid]
    estimates = []
    for r in r_grid:
        counts = [
            float(np.mean(np.linalg.norm(cloud - c, axis=1) <= r)) for c in centers
        ]
        estimates.append(float(np.mean(counts)))
    d = model.intrinsic_dim
    ratios = [est / r**d for est, r in zip(estimates, r_grid)]
    if len(r_grid) >= 2:
        logs = np.polyfit(np.log(r_grid), np.log(np.maximum(estimates, 1e-300)), 1)
        slope = float(logs[0])
    else:
        slope = float(d)
    return StandardnessReport(
        r_grid=r_grid,
        estimates=estimates,
        ratio_min=float(min(ratios)),
        ratio_max=float(max(ratios)),
        slope=slope,
    )


def _unit_normal(basis: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    while True:
        g = rng.standard_normal(basis.shape[0])
        g -= basis @ (basis.T @ g)
        norm = np.linalg.norm(g)
        if norm >= 1e-12:
            return g / norm


def _grid_tree(
    model: ManifoldModel, grid_resolution: float | None
) -> tuple[float, np.ndarray, cKDTree]:
    """Grid spacing (default reach / 100), the model's grid and its KD-tree."""
    res = grid_resolution if grid_resolution is not None else model.reach / 100.0
    grid = model.grid(res)
    return res, grid, cKDTree(grid)


# points per axis of the lattice around one trial, and its square the most
# points in all, whatever d (so S^3 gets 25 per axis): the spacing scales with
# the trial's radius, and on the circle, S^2 and the torus it stays finer than
# the reach / 100 of :func:`_grid_tree` for every radius the checks below draw
_LATTICE_SIDE = 128


def _unit_lattice(d: int) -> np.ndarray:
    """The points of a square lattice on [-1, 1]^d that lie in the unit ball,
    ``_LATTICE_SIDE`` per axis for d <= 2 and fewer above."""
    side = np.linspace(-1.0, 1.0, min(_LATTICE_SIDE, int(_LATTICE_SIDE ** (2.0 / d))))
    cube = np.stack(np.meshgrid(*[side] * d, indexing="ij"), axis=-1).reshape(-1, d)
    return cube[np.einsum("ij,ij->i", cube, cube) <= 1.0]


def _local_grid(
    model: ManifoldModel, lattice: np.ndarray, p: np.ndarray, radius: float
) -> np.ndarray:
    """Points of M around ``p``: the unit ``lattice`` of :func:`_unit_lattice`
    scaled to a quarter more than ``radius`` in the tangent chart at ``p`` and
    projected onto M; they cover the ball of ``radius`` about ``p``."""
    chart = (1.25 * radius) * lattice
    return model.project_many(p + chart @ model.tangent_many(p)[0].T)


def verify_ball_projection(model: ManifoldModel, trials: int, seed: int) -> CheckReport:
    """Projection sandwich for balls centered off the manifold:
    B(pi(x), r_h^-) cap M  inside  B(x, h) cap M  inside  B(pi(x), r_h^+) cap M
    with r_h^2 = h^2 - Delta^2 and r_h^pm = (1 +- alpha^2 Delta / rho) r_h,
    on a lattice of M around each trial's pi(x)."""
    rng = np.random.default_rng(seed)
    rho = model.reach
    lattice = _unit_lattice(model.intrinsic_dim)
    slack = 1e-9 * rho
    violations = 0
    for _ in range(trials):
        p = model.sample_points(rng, 1)[0]
        h = rng.uniform(0.25, 1.0) * rho / 8.0
        delta = rng.uniform(0.0, h)
        x = p + delta * _unit_normal(model.tangent_many(p)[0], rng)
        r_h = math.sqrt(max(h**2 - delta**2, 0.0))
        r_plus = (1.0 + ALPHA**2 * delta / rho) * r_h
        r_minus = (1.0 - ALPHA**2 * delta / rho) * r_h
        # B(x, h) cap M lies within h + delta <= 2 h of p, B(p, r_minus) within h
        near = _local_grid(model, lattice, p, 2.0 * h)
        d_x = np.linalg.norm(near - x, axis=1)
        d_p = np.linalg.norm(near - p, axis=1)
        violations += int(np.sum((d_x <= h) & (d_p > r_plus + slack)))
        violations += int(np.sum((d_p <= r_minus) & (d_x > h + slack)))
    return CheckReport(trials=trials, violations=violations)


def verify_normal_offset(model: ManifoldModel, trials: int, seed: int) -> CheckReport:
    """Normal-coordinate bound: points z near x (both near M) have normal
    component over pi(x) at most 10 h_k^2 / rho, for z drawn off a lattice
    of M around each trial's pi(x)."""
    rng = np.random.default_rng(seed)
    rho = model.reach
    lattice = _unit_lattice(model.intrinsic_dim)
    violations = 0
    done = 0
    while done < trials:
        p = model.sample_points(rng, 1)[0]
        basis = model.tangent_many(p)[0]
        h_k = rng.uniform(0.3, 1.0) * rho / (12.0 * ALPHA)
        h = rng.uniform(h_k**2 / rho, h_k)
        u = rng.uniform(0.0, h / math.sqrt(2.0))
        x = p + u * _unit_normal(basis, rng)
        grid = _local_grid(model, lattice, p, 0.95 * h + u)
        # never empty: the lattice points nearest p lie within 0.72 h of x
        cand = np.flatnonzero(np.linalg.norm(grid - x, axis=1) <= 0.95 * h)
        q = grid[cand[int(rng.integers(0, len(cand)))]]
        w = rng.uniform(0.0, h_k**2 / rho)
        z = q + w * _unit_normal(model.tangent_many(q)[0], rng)
        if np.linalg.norm(z - x) > h:
            continue
        offset = z - p
        normal_part = offset - basis @ (basis.T @ offset)
        if np.linalg.norm(normal_part) > 10.0 * h_k**2 / rho + 1e-9 * rho:
            violations += 1
        done += 1
    return CheckReport(trials=trials, violations=violations)


def monte_carlo_reach(model: ManifoldModel, n_points: int, seed: int) -> float:
    """Sampled reach quotient using exact tangents (lower-bounds the reach up
    to sampling density)."""
    rng = np.random.default_rng(seed)
    pts = model.sample_points(rng, n_points)
    return sampled_reach(pts, model.tangent_many(pts))


# ---------------------------------------------------------------------------
# Monte-Carlo checks of the slab geometry statements


def verify_slab_separation(
    model: ManifoldModel,
    trials: int,
    seed: int,
    angle_constant: float = 2.0,
    grid_resolution: float | None = None,
) -> CheckReport:
    """Far points have manifold-free slabs: d(x, M) >= h/sqrt(2) with any
    direction, or d(x, M) >= h^2/rho with a direction within K h / rho of the
    true tangent."""
    rng = np.random.default_rng(seed)
    rho = model.reach
    d = model.intrinsic_dim
    big_d = model.ambient_dim
    spec = default_slab_spec(d, big_d, rho, t=0.0, angle_constant=angle_constant)
    h_max = min(1.0, rho / math.sqrt(3.0 * d), rho / (12.0 * (1.0 + 0.25 / math.sqrt(2.0))))
    res, grid, tree = _grid_tree(model, grid_resolution)
    violations = 0
    for trial in range(trials):
        h = rng.uniform(0.2, 1.0) * h_max
        p = model.sample_points(rng, 1)[0]
        basis = model.tangent_many(p)[0]
        normal = _unit_normal(basis, rng)
        if trial % 2 == 0:
            # unconditional branch: distance at least h / sqrt(2)
            u = rng.uniform(h / math.sqrt(2.0), 0.9 * rho)
            tangent = random_subspace(rng, big_d, d)
        else:
            # near branch: distance in [h^2/rho, h/sqrt(2)), angle <= K h / rho
            u = rng.uniform(h * h / rho, h / math.sqrt(2.0))
            alpha = math.asin(min(1.0, angle_constant * h / rho)) * rng.uniform(0, 1)
            tangent = tilt_subspace(Subspace(basis), normal, alpha)
        x = p + u * normal
        # the slab sits inside the ball of radius k1 h + k2 h^2 around x
        near = tree.query_ball_point(x, spec.k1 * h + spec.k2 * h * h + res)
        if not near:
            continue
        diff = grid[near] - x
        d2 = np.einsum("...i,...i->...", diff, diff)
        violations += int(np.sum(_slab_mask(diff, tangent.basis, h, spec, d2)))
    return CheckReport(trials=trials, violations=violations)


def inclusion_radius_factor(spec: SlabSpec, rho: float, angle_constant: float = 2.0) -> float:
    """k3 = min(k2 rho / (2 K), k1 / 2, sqrt(rho k1), sqrt(rho k2)): manifold points
    within k3 h of x lie in the slab at x along T_x M."""
    k1, k2 = spec.k1, spec.k2
    k = angle_constant
    return min(k2 * rho / (2.0 * k), k1 / 2.0, math.sqrt(rho * k1), math.sqrt(rho * k2))


def verify_slab_inclusion(
    model: ManifoldModel,
    trials: int,
    seed: int,
    angle_constant: float = 2.0,
    grid_resolution: float | None = None,
) -> CheckReport:
    """Close manifold pairs fall inside each other's true-tangent slabs:
    x, y in M with ||x - y|| <= k3 h implies y in S(x, T_x M, h)."""
    rng = np.random.default_rng(seed)
    rho = model.reach
    d = model.intrinsic_dim
    spec = default_slab_spec(d, model.ambient_dim, rho, t=0.0, angle_constant=angle_constant)
    k3 = inclusion_radius_factor(spec, rho, angle_constant)
    h_max = min(1.0, rho / math.sqrt(3.0 * d))
    _, grid, tree = _grid_tree(model, grid_resolution)
    violations = 0
    for _ in range(trials):
        h = rng.uniform(0.2, 1.0) * h_max
        p = model.sample_points(rng, 1)[0]
        idx = tree.query_ball_point(p, k3 * h)
        if not idx:
            continue
        near = grid[idx]
        near = near[np.linalg.norm(near - p, axis=1) <= k3 * h]
        diff = near - p
        d2 = np.einsum("...i,...i->...", diff, diff)
        inside = _slab_mask(diff, model.tangent_many(p)[0], h, spec, d2)
        violations += int(np.sum(~inside))
    return CheckReport(trials=trials, violations=violations)


# ---------------------------------------------------------------------------
# subspace helpers: random and tilted tangents, eigenspaces, rotations, reach


def random_subspace(rng: np.random.Generator, ambient_dim: int, dim: int) -> Subspace:
    """Haar-ish random subspace from the QR of a Gaussian matrix."""
    g = rng.standard_normal((ambient_dim, dim))
    q, r = np.linalg.qr(g)
    # fix signs so the result is a deterministic function of g
    q = q * np.sign(np.where(np.diag(r) == 0.0, 1.0, np.diag(r)))
    return Subspace(q)


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Return the symmetric part 0.5*(A + A^T) of a square matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    return 0.5 * (a + a.T)


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


def subspace_rotation(u: Subspace, v: Subspace) -> np.ndarray:
    """Orthogonal D x D matrix mapping U onto V, identity on (U + V)^perp.

    Built from SVD-paired principal vectors; the rotation planes of distinct
    principal pairs are mutually orthogonal, so the plane rotations compose
    into a single orthogonal map with
    ||R - I||_op = 2 sin(alpha_max / 2) <= alpha_max,
    where alpha_max = arcsin(principal_angle(u, v)) is the largest canonical
    angle.
    """
    if u.basis.shape != v.basis.shape:
        raise ValueError(f"need two subspaces of one shape, got {u} and {v}")
    big_d, d = u.basis.shape
    a, sig, bt = np.linalg.svd(u.basis.T @ v.basis)
    up = u.basis @ a
    vp = v.basis @ bt.T
    r = np.eye(big_d)
    for i in range(d):
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
    a 1e-9 float allowance).  Must hold under the precondition.
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


def sampled_reach(points: np.ndarray, bases: np.ndarray, min_normal: float = 1e-9) -> float:
    """Point-cloud reach surrogate.

    Minimum over ordered pairs (p, q) of ||q - p||^2 / (2 * d(q - p, T_p)),
    where T_p is spanned by the basis of p in the (n, D, d) stack ``bases``.
    Pairs whose difference is tangent to working precision (normal component
    below ``min_normal``) are skipped.
    """
    points = np.asarray(points, dtype=float)
    n = points.shape[0]
    best = np.inf
    for i in range(n):
        diff = np.delete(points, i, axis=0) - points[i]
        tang = diff @ bases[i]
        dist2 = np.einsum("ij,ij->i", diff, diff)
        normal = np.sqrt(np.maximum(dist2 - np.einsum("ij,ij->i", tang, tang), 0.0))
        keep = normal > min_normal
        best = min(best, float(np.min(dist2[keep] / (2.0 * normal[keep]), initial=np.inf)))
    return best
