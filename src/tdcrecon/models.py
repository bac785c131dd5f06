"""Analytic ground-truth manifolds and samplers.

Each model is a closed d-dimensional submanifold of R^D (embedded through its
first few coordinates, zero-padded beyond) with a known reach, a closed-form
nearest-point projection, exact tangent spaces, and a uniform surface sampler.
The clutter sampler mixes uniform-on-manifold points with uniform ambient
outliers in a ball around the manifold centroid.

Labels: 1 = signal (drawn on the manifold), 0 = outlier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import Subspace, sampled_reach

# geodesic/Euclidean comparison constant used by the bound verifiers
ALPHA = 1.0 + 1.0 / (4.0 * math.sqrt(2.0))

MEDIAL_TOL = 1e-9
ON_MANIFOLD_TOL = 1e-9


class MedialAxisError(ValueError):
    """Raised when a point is too close to the medial axis to project."""


def _pad(coords: np.ndarray, ambient_dim: int) -> np.ndarray:
    coords = np.atleast_2d(coords)
    if coords.shape[1] == ambient_dim:
        return coords
    out = np.zeros((coords.shape[0], ambient_dim))
    out[:, : coords.shape[1]] = coords
    return out


class ManifoldModel:
    """Shared interface; concrete models implement the *_impl hooks."""

    ambient_dim: int
    intrinsic_dim: int

    @property
    def reach(self) -> float:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def center(self) -> np.ndarray:
        """Centroid of the manifold (the clutter ball is centered here)."""
        return np.zeros(self.ambient_dim)

    def sample_points(self, rng: np.random.Generator, k: int) -> np.ndarray:
        raise NotImplementedError

    def project_many(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def project(self, x: np.ndarray) -> np.ndarray:
        return self.project_many(np.atleast_2d(np.asarray(x, dtype=float)))[0]

    def distance_many(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return np.linalg.norm(x - self.project_many(x), axis=1)

    def distance(self, x: np.ndarray) -> float:
        return float(self.distance_many(x)[0])

    def tangent(self, p: np.ndarray) -> Subspace:
        p = np.asarray(p, dtype=float)
        if self.distance(p) > ON_MANIFOLD_TOL:
            raise ValueError("point is not on the manifold")
        return self._tangent_impl(p)

    def _tangent_impl(self, p: np.ndarray) -> Subspace:
        raise NotImplementedError

    def grid(self, resolution: float) -> np.ndarray:
        """Deterministic point grid on the manifold with spacing <= resolution."""
        raise NotImplementedError

    def geodesic_pairs(
        self, rng: np.random.Generator, k: int, max_chord: float
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """k random pairs (x, y) with ||x-y|| <= max_chord and their exact
        geodesic distances.  Models without a global closed form restrict the
        pairs to curves where the geodesic is known."""
        raise NotImplementedError

    def kind(self) -> str:
        return type(self).__name__.lower()


@dataclass(frozen=True)
class Circle(ManifoldModel):
    radius: float = 1.0
    ambient_dim: int = 2

    def __post_init__(self):
        if self.radius <= 0 or self.ambient_dim < 2:
            raise ValueError("need radius > 0 and ambient_dim >= 2")

    intrinsic_dim = 1

    @property
    def reach(self) -> float:
        return self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius

    def point(self, t: np.ndarray) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        return _pad(
            self.radius * np.column_stack([np.cos(t), np.sin(t)]), self.ambient_dim
        )

    def sample_points(self, rng, k):
        return self.point(rng.uniform(0.0, 2.0 * np.pi, size=k))

    def project_many(self, x):
        x = _pad(np.asarray(x, dtype=float), self.ambient_dim)
        s = np.hypot(x[:, 0], x[:, 1])
        if np.any(s < MEDIAL_TOL):
            raise MedialAxisError("projection undefined near the circle axis")
        out = np.zeros_like(x)
        out[:, 0] = self.radius * x[:, 0] / s
        out[:, 1] = self.radius * x[:, 1] / s
        return out

    def distance_many(self, x):
        x = _pad(np.asarray(x, dtype=float), self.ambient_dim)
        s = np.hypot(x[:, 0], x[:, 1])
        rest2 = np.einsum("ij,ij->i", x[:, 2:], x[:, 2:])
        return np.sqrt((s - self.radius) ** 2 + rest2)

    def _tangent_impl(self, p):
        v = np.zeros(self.ambient_dim)
        v[0], v[1] = -p[1], p[0]
        return Subspace((v / np.linalg.norm(v))[:, None])

    def angle_of(self, p: np.ndarray) -> float:
        return float(np.arctan2(p[1], p[0]))

    def grid(self, resolution):
        k = max(3, int(np.ceil(2.0 * np.pi * self.radius / resolution)))
        return self.point(np.linspace(0.0, 2.0 * np.pi, k, endpoint=False))

    def geodesic_distance(self, x: np.ndarray, y: np.ndarray) -> float:
        dt = abs(self.angle_of(x) - self.angle_of(y))
        dt = min(dt, 2.0 * np.pi - dt)
        return self.radius * dt

    def geodesic_pairs(self, rng, k, max_chord):
        xs, ys, ds = [], [], []
        while len(xs) < k:
            t = rng.uniform(0.0, 2.0 * np.pi, size=2 * (k - len(xs)) + 8).reshape(-1, 2)
            p = self.point(t[:, 0])
            q = self.point(t[:, 1])
            chord = np.linalg.norm(p - q, axis=1)
            keep = chord <= max_chord
            dt = np.abs(t[keep, 0] - t[keep, 1])
            dt = np.minimum(dt, 2.0 * np.pi - dt)
            xs.append(p[keep])
            ys.append(q[keep])
            ds.append(self.radius * dt)
        x = np.concatenate(xs)[:k]
        y = np.concatenate(ys)[:k]
        d = np.concatenate(ds)[:k]
        return x, y, d


@dataclass(frozen=True)
class Sphere(ManifoldModel):
    radius: float = 1.0
    ambient_dim: int = 3

    def __post_init__(self):
        if self.radius <= 0 or self.ambient_dim < 3:
            raise ValueError("need radius > 0 and ambient_dim >= 3")

    intrinsic_dim = 2

    @property
    def reach(self) -> float:
        return self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius

    def sample_points(self, rng, k):
        g = rng.standard_normal((k, 3))
        g /= np.linalg.norm(g, axis=1, keepdims=True)
        return _pad(self.radius * g, self.ambient_dim)

    def project_many(self, x):
        x = _pad(np.asarray(x, dtype=float), self.ambient_dim)
        s = np.linalg.norm(x[:, :3], axis=1)
        if np.any(s < MEDIAL_TOL):
            raise MedialAxisError("projection undefined near the sphere center")
        out = np.zeros_like(x)
        out[:, :3] = self.radius * x[:, :3] / s[:, None]
        return out

    def distance_many(self, x):
        x = _pad(np.asarray(x, dtype=float), self.ambient_dim)
        s = np.linalg.norm(x[:, :3], axis=1)
        rest2 = np.einsum("ij,ij->i", x[:, 3:], x[:, 3:])
        return np.sqrt((s - self.radius) ** 2 + rest2)

    def _tangent_impl(self, p):
        n = p[:3] / np.linalg.norm(p[:3])
        # two orthonormal vectors perpendicular to n inside the first 3 coords
        a = np.array([1.0, 0.0, 0.0]) if abs(n[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
        u = a - np.dot(a, n) * n
        u /= np.linalg.norm(u)
        v = np.cross(n, u)
        basis = np.zeros((self.ambient_dim, 2))
        basis[:3, 0] = u
        basis[:3, 1] = v
        return Subspace(basis)

    def grid(self, resolution):
        # Fibonacci lattice; spacing ~ sqrt(area / k)
        area = 4.0 * np.pi * self.radius**2
        k = max(16, int(np.ceil(2.5 * area / resolution**2)))
        i = np.arange(k) + 0.5
        phi = np.arccos(1.0 - 2.0 * i / k)
        golden = np.pi * (1.0 + np.sqrt(5.0))
        theta = golden * i
        pts = self.radius * np.column_stack(
            [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)]
        )
        return _pad(pts, self.ambient_dim)

    def geodesic_pairs(self, rng, k, max_chord):
        xs, ys, ds = [], [], []
        need = k
        while need > 0:
            p = self.sample_points(rng, 2 * need + 8)
            q = self.sample_points(rng, 2 * need + 8)
            chord = np.linalg.norm(p - q, axis=1)
            keep = chord <= max_chord
            cosang = np.clip(
                np.einsum("ij,ij->i", p[keep, :3], q[keep, :3]) / self.radius**2,
                -1.0,
                1.0,
            )
            xs.append(p[keep])
            ys.append(q[keep])
            ds.append(self.radius * np.arccos(cosang))
            need = k - sum(len(a) for a in xs)
        x = np.concatenate(xs)[:k]
        y = np.concatenate(ys)[:k]
        d = np.concatenate(ds)[:k]
        return x, y, d


@dataclass(frozen=True)
class Torus(ManifoldModel):
    major_radius: float = 2.0
    minor_radius: float = 0.5
    ambient_dim: int = 3

    def __post_init__(self):
        if not 0 < self.minor_radius < self.major_radius:
            raise ValueError("need 0 < minor_radius < major_radius")
        if self.ambient_dim < 3:
            raise ValueError("need ambient_dim >= 3")

    intrinsic_dim = 2

    @property
    def reach(self) -> float:
        return min(self.minor_radius, self.major_radius - self.minor_radius)

    def diameter(self) -> float:
        return 2.0 * (self.major_radius + self.minor_radius)

    def point(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        u = np.atleast_1d(np.asarray(u, dtype=float))
        v = np.atleast_1d(np.asarray(v, dtype=float))
        ring = self.major_radius + self.minor_radius * np.cos(v)
        pts = np.column_stack(
            [ring * np.cos(u), ring * np.sin(u), self.minor_radius * np.sin(v)]
        )
        return _pad(pts, self.ambient_dim)

    def params_of(self, p: np.ndarray) -> tuple[float, float]:
        s = math.hypot(p[0], p[1])
        return math.atan2(p[1], p[0]), math.atan2(p[2], s - self.major_radius)

    def sample_points(self, rng, k):
        # rejection on v with acceptance (R + r cos v) / (R + r) gives exact
        # surface-measure uniformity
        out = np.empty((0, 3))
        while out.shape[0] < k:
            m = 2 * (k - out.shape[0]) + 16
            v = rng.uniform(0.0, 2.0 * np.pi, size=m)
            accept = rng.uniform(0.0, 1.0, size=m) <= (
                (self.major_radius + self.minor_radius * np.cos(v))
                / (self.major_radius + self.minor_radius)
            )
            v = v[accept]
            u = rng.uniform(0.0, 2.0 * np.pi, size=v.shape[0])
            out = np.vstack([out, self.point(u, v)[:, :3]])
        return _pad(out[:k], self.ambient_dim)

    def project_many(self, x):
        x = _pad(np.asarray(x, dtype=float), self.ambient_dim)
        s = np.hypot(x[:, 0], x[:, 1])
        if np.any(s < MEDIAL_TOL):
            raise MedialAxisError("projection undefined near the torus axis")
        w1 = s - self.major_radius
        t = np.hypot(w1, x[:, 2])
        if np.any(t < MEDIAL_TOL):
            raise MedialAxisError("projection undefined near the torus core circle")
        ring = self.major_radius + self.minor_radius * w1 / t
        out = np.zeros_like(x)
        out[:, 0] = ring * x[:, 0] / s
        out[:, 1] = ring * x[:, 1] / s
        out[:, 2] = self.minor_radius * x[:, 2] / t
        return out

    def distance_many(self, x):
        x = _pad(np.asarray(x, dtype=float), self.ambient_dim)
        s = np.hypot(x[:, 0], x[:, 1])
        t = np.hypot(s - self.major_radius, x[:, 2])
        rest2 = np.einsum("ij,ij->i", x[:, 3:], x[:, 3:])
        return np.sqrt((t - self.minor_radius) ** 2 + rest2)

    def _tangent_impl(self, p):
        u, v = self.params_of(p)
        du = np.array([-math.sin(u), math.cos(u), 0.0])
        dv = np.array(
            [-math.sin(v) * math.cos(u), -math.sin(v) * math.sin(u), math.cos(v)]
        )
        basis = np.zeros((self.ambient_dim, 2))
        basis[:3, 0] = du
        basis[:3, 1] = dv
        return Subspace(basis)

    def grid(self, resolution):
        nu = max(3, int(np.ceil(2 * np.pi * (self.major_radius + self.minor_radius) / resolution)))
        nv = max(3, int(np.ceil(2 * np.pi * self.minor_radius / resolution)))
        u = np.linspace(0.0, 2 * np.pi, nu, endpoint=False)
        v = np.linspace(0.0, 2 * np.pi, nv, endpoint=False)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        return self.point(uu.ravel(), vv.ravel())

    def geodesic_pairs(self, rng, k, max_chord):
        # restricted to curves with closed-form arc length: meridians (always
        # geodesics) and the outer equator
        xs, ys, ds = [], [], []
        need = k
        r, big_r = self.minor_radius, self.major_radius
        while need > 0:
            m = 2 * need + 8
            use_meridian = rng.random(m) < 0.5
            u = rng.uniform(0.0, 2 * np.pi, size=m)
            a = rng.uniform(0.0, 2 * np.pi, size=m)
            b = rng.uniform(0.0, 2 * np.pi, size=m)
            dab = np.abs(a - b)
            dab = np.minimum(dab, 2 * np.pi - dab)
            p = np.where(
                use_meridian[:, None],
                self.point(u, a)[:, :3],
                self.point(a, np.zeros(m))[:, :3],
            )
            q = np.where(
                use_meridian[:, None],
                self.point(u, b)[:, :3],
                self.point(b, np.zeros(m))[:, :3],
            )
            geo = np.where(use_meridian, r * dab, (big_r + r) * dab)
            chord = np.linalg.norm(p - q, axis=1)
            keep = chord <= max_chord
            xs.append(_pad(p[keep], self.ambient_dim))
            ys.append(_pad(q[keep], self.ambient_dim))
            ds.append(geo[keep])
            need = k - sum(len(z) for z in xs)
        return (
            np.concatenate(xs)[:k],
            np.concatenate(ys)[:k],
            np.concatenate(ds)[:k],
        )


def make_model(kind: str, **params) -> ManifoldModel:
    kinds = {"circle": Circle, "torus": Torus, "sphere": Sphere}
    if kind not in kinds:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(kinds)}")
    return kinds[kind](**params)


# ---------------------------------------------------------------------------
# sampling specs and the clutter sampler


@dataclass(frozen=True)
class SampleSpec:
    """Sample-size, signal fraction, outlier-ball radius, and RNG seed.

    ``k0`` is the radius of the ambient outlier ball; None means the default
    diameter(M) + reach, validated against that lower bound otherwise.
    """

    n: int
    beta: float = 1.0
    k0: float | None = None
    seed: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("need n >= 1")
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("need 0 < beta <= 1")


@dataclass
class LabeledCloud:
    points: np.ndarray
    labels: np.ndarray  # 1 = signal, 0 = outlier
    spec: SampleSpec

    def __post_init__(self):
        if self.points.shape[0] != self.labels.shape[0]:
            raise ValueError("labels length must equal point count")

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def ambient_dim(self) -> int:
        return self.points.shape[1]

    def signal_indices(self) -> np.ndarray:
        return np.nonzero(self.labels == 1)[0]

    def outlier_indices(self) -> np.ndarray:
        return np.nonzero(self.labels == 0)[0]


def default_k0(model: ManifoldModel) -> float:
    return model.diameter() + model.reach


def _uniform_ball(rng: np.random.Generator, k: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((k, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    u = rng.uniform(0.0, 1.0, size=k) ** (1.0 / dim)
    return radius * g * u[:, None]


def sample(model: ManifoldModel, spec: SampleSpec) -> LabeledCloud:
    """Draw n points: signal uniform on M with probability beta, else uniform
    in the ball B(centroid, k0).  Bit-deterministic given the seed."""
    k0 = default_k0(model) if spec.k0 is None else spec.k0
    if k0 < default_k0(model):
        raise ValueError(
            f"k0 = {k0} is below diameter + reach = {default_k0(model)}"
        )
    rng = np.random.default_rng(spec.seed)
    labels = (rng.random(spec.n) < spec.beta).astype(np.int8)
    n_signal = int(labels.sum())
    signal = model.sample_points(rng, n_signal)
    outliers = model.center() + _uniform_ball(
        rng, spec.n - n_signal, model.ambient_dim, k0
    )
    points = np.empty((spec.n, model.ambient_dim))
    points[labels == 1] = signal
    points[labels == 0] = outliers
    return LabeledCloud(points=points, labels=labels, spec=spec)


# ---------------------------------------------------------------------------
# CSV serialization (round-trip exact at 17 significant digits)


def save_cloud_csv(path, points: np.ndarray, labels: np.ndarray | None = None) -> None:
    points = np.atleast_2d(np.asarray(points, dtype=float))
    d = points.shape[1]
    header = ",".join(f"x{i}" for i in range(d))
    fmt = ["%.17g"] * d
    if labels is not None:
        labels = np.asarray(labels)
        if labels.shape != (points.shape[0],):
            raise ValueError(
                f"need one label per point, got {labels.size} labels for {points.shape[0]} points"
            )
        header += ",label"
        fmt.append("%d")
        points = np.column_stack([points, labels])
    np.savetxt(path, points, fmt=fmt, delimiter=",", header=header, comments="")


def load_cloud_csv(path) -> tuple[np.ndarray, np.ndarray | None]:
    with open(path) as f:
        has_labels = f.readline().strip().split(",")[-1] == "label"
        data = np.loadtxt(f, delimiter=",", ndmin=2)
    if data.size == 0:
        raise ValueError(f"no points in {path}")
    if not np.all(np.isfinite(data)):
        raise ValueError(f"non-finite coordinates in {path}")
    if has_labels:
        return data[:, :-1], data[:, -1].astype(np.int8)
    return data, None


# ---------------------------------------------------------------------------
# numerical verifiers for the geometric propositions


@dataclass
class GeodesicBoundsReport:
    trials: int
    violations: int
    max_ratio_lower: float  # max of ||x-y|| / d_M  (should be <= 1)
    max_ratio_upper: float  # max of d_M / (alpha ||x-y||)  (should be <= 1)
    max_ratio_second_order: float  # max of d_M / (||x-y|| + a^2 ||x-y||^2 / 2 rho)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def verify_geodesic_bounds(
    model: ManifoldModel, trials: int, seed: int
) -> GeodesicBoundsReport:
    """Chord/arc comparison on random close pairs:
    ||x-y|| <= d_M(x,y) <= alpha ||x-y|| and the second-order refinement
    d_M <= ||x-y|| + alpha^2 ||x-y||^2 / (2 rho), for ||x-y|| <= rho/4."""
    rng = np.random.default_rng(seed)
    rho = model.reach
    x, y, geo = model.geodesic_pairs(rng, trials, rho / 4.0)
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


@dataclass
class CheckReport:
    """Outcome of a Monte-Carlo check of a geometric statement."""

    trials: int
    violations: int

    @property
    def passed(self) -> bool:
        return self.violations == 0


def _unit_normal_at(model: ManifoldModel, p: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    basis = model.tangent(p).basis
    g = rng.standard_normal(model.ambient_dim)
    g -= basis @ (basis.T @ g)
    norm = np.linalg.norm(g)
    while norm < 1e-12:
        g = rng.standard_normal(model.ambient_dim)
        g -= basis @ (basis.T @ g)
        norm = np.linalg.norm(g)
    return g / norm


def verify_ball_projection(
    model: ManifoldModel, trials: int, seed: int, grid_resolution: float | None = None
) -> CheckReport:
    """Projection sandwich for balls centered off the manifold:
    B(pi(x), r_h^-) cap M  inside  B(x, h) cap M  inside  B(pi(x), r_h^+) cap M
    with r_h^2 = h^2 - Delta^2 and r_h^pm = (1 +- alpha^2 Delta / rho) r_h."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    rho = model.reach
    res = grid_resolution if grid_resolution is not None else rho / 100.0
    grid = model.grid(res)
    tree = cKDTree(grid)
    slack = 1e-9 * rho
    violations = 0
    for _ in range(trials):
        p = model.sample_points(rng, 1)[0]
        h = rng.uniform(0.25, 1.0) * rho / 8.0
        delta = rng.uniform(0.0, h)
        x = p + delta * _unit_normal_at(model, p, rng)
        r_h = math.sqrt(max(h**2 - delta**2, 0.0))
        r_plus = (1.0 + ALPHA**2 * delta / rho) * r_h
        r_minus = (1.0 - ALPHA**2 * delta / rho) * r_h
        near = grid[tree.query_ball_point(p, r_plus + h + slack)]
        if near.shape[0] == 0:
            continue
        d_x = np.linalg.norm(near - x, axis=1)
        d_p = np.linalg.norm(near - p, axis=1)
        violations += int(np.sum((d_x <= h) & (d_p > r_plus + slack)))
        violations += int(np.sum((d_p <= r_minus) & (d_x > h + slack)))
    return CheckReport(trials=trials, violations=violations)


def verify_normal_offset(
    model: ManifoldModel, trials: int, seed: int, grid_resolution: float | None = None
) -> CheckReport:
    """Normal-coordinate bound: points z near x (both near M) have normal
    component over pi(x) at most 10 h_k^2 / rho."""
    from scipy.spatial import cKDTree

    rng = np.random.default_rng(seed)
    rho = model.reach
    res = grid_resolution if grid_resolution is not None else rho / 100.0
    grid = model.grid(res)
    tree = cKDTree(grid)
    violations = 0
    done = 0
    while done < trials:
        p = model.sample_points(rng, 1)[0]
        h_k = rng.uniform(0.3, 1.0) * rho / (12.0 * ALPHA)
        h = rng.uniform(h_k**2 / rho, h_k)
        x = p + rng.uniform(0.0, h / math.sqrt(2.0)) * _unit_normal_at(model, p, rng)
        cand = tree.query_ball_point(x, 0.95 * h)
        if not cand:
            continue
        q = grid[cand[int(rng.integers(0, len(cand)))]]
        w = rng.uniform(0.0, h_k**2 / rho)
        z = q + w * _unit_normal_at(model, q, rng)
        if np.linalg.norm(z - x) > h:
            continue
        basis = model.tangent(p).basis
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
    tangents = [model.tangent(p) for p in pts]
    return sampled_reach(pts, tangents)
