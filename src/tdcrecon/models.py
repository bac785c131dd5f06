"""Analytic ground-truth manifolds and samplers.

Each model is a closed d-dimensional submanifold of R^D (embedded through its
first few coordinates, zero-padded beyond) with a known reach, a closed-form
nearest-point projection, exact tangent spaces, and a uniform surface sampler.
The clutter sampler mixes uniform-on-manifold points with uniform ambient
outliers in a ball around the manifold centroid.

Labels: 1 = signal (drawn on the manifold), 0 = outlier.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .geometry import Subspace

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


@dataclass(frozen=True)
class Circle(ManifoldModel):
    radius: float = 1.0
    ambient_dim: int = 2

    def __post_init__(self):
        if not self.radius > 0 or self.ambient_dim < 2:
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

    def grid(self, resolution):
        k = max(3, int(np.ceil(2.0 * np.pi * self.radius / resolution)))
        return self.point(np.linspace(0.0, 2.0 * np.pi, k, endpoint=False))


@dataclass(frozen=True)
class Sphere(ManifoldModel):
    radius: float = 1.0
    ambient_dim: int = 3

    def __post_init__(self):
        if not self.radius > 0 or self.ambient_dim < 3:
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
    if not k0 >= default_k0(model):
        raise ValueError(f"need k0 >= diameter + reach = {default_k0(model)}, got {k0}")
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
        # a file of no rows fails here, before numpy warns that it read nothing
        first = next((line for line in f if line.strip()), None)
        if first is None:
            raise ValueError(f"no points in {path}")
        data = np.loadtxt(itertools.chain([first], f), delimiter=",", ndmin=2)
    if not np.all(np.isfinite(data)):
        raise ValueError(f"non-finite coordinates in {path}")
    if has_labels:
        return data[:, :-1], data[:, -1].astype(np.int8)
    return data, None
