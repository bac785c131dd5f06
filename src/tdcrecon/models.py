"""Analytic ground-truth manifolds and samplers.

Each model is a closed d-dimensional submanifold of R^D (embedded through its
first few coordinates, zero-padded beyond) with a known reach, a uniform
surface sampler and, for an (m, D) array of points, closed-form nearest points,
distances and tangent spaces (an (m, D, d) stack of orthonormal bases).  There
are two: :class:`Sphere`, the round d-sphere for d = 1, 2 or 3 (the circle is
its d = 1 case), and the 2-d :class:`Torus`; :func:`make_model` builds either
by kind ("circle", "sphere" or "torus").  Both grids cut circles by one arc
rule, :func:`_angles`; the d-sphere's is a stack of (d-1)-sphere rings.  The
clutter sampler mixes uniform-on-manifold points with uniform ambient outliers
in the ball of radius K0 = diameter(M) + reach around the origin, the centroid
of every model.

Every cloud, sampled or read, is a :class:`LabeledCloud`: (n, D) finite floats,
D >= 1 (:func:`._neighbours.check_points`), no two rows equal, and none or n
int8 labels, 1 = signal (drawn on the manifold), 0 = outlier.  A cloud is
immutable: it holds read-only copies of its arrays, never the caller's.  Its
CSV file has the header ``x0,...,x{D-1}``, then ``,label`` if labelled, and a
row per point of every column: coordinates at 17 significant digits (exact
round trip), int labels.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ._neighbours import _check_instance, check_int, check_points, check_positive

MEDIAL_TOL = 1e-9
ON_MANIFOLD_TOL = 1e-9


class MedialAxisError(ValueError):
    """Raised when a point is too close to the medial axis to project."""


def _pad(coords: np.ndarray, ambient_dim: int) -> np.ndarray:
    out = np.zeros((coords.shape[0], ambient_dim))
    out[:, : coords.shape[1]] = coords
    return out


def _angles(radius: float, spacing: float) -> np.ndarray:
    """k >= 3 equal steps of angle from 0 cutting a circle of ``radius`` in arcs <= ``spacing``."""
    k = max(3, math.ceil(2.0 * np.pi * radius / spacing))
    return np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)


def _sphere_grid(d: int, radius: float, spacing: float) -> np.ndarray:
    """Distinct points of the d-sphere of ``radius`` about the origin of R^(d+1),
    every point of the sphere within d * spacing / 2 of one.

    The circle is cut at :func:`_angles`, each point within half an arc of an
    end.  For d >= 2, ring i is the (d-1)-sphere grid of radius radius sin phi_i
    at height radius cos phi_i, the phi_i the midpoints of m = ceil(pi radius /
    spacing) equal polar steps.  A point's meridian meets the nearest ring's
    sphere within radius pi / (2 m) <= spacing / 2: spacing / 2 more cover per
    dimension.  The rings sit at distinct heights and none is a pole, so no
    point repeats."""
    if d == 1:
        t = _angles(radius, spacing)
        return radius * np.column_stack([np.cos(t), np.sin(t)])
    m = math.ceil(np.pi * radius / spacing)
    rings = []
    for phi in (np.arange(m) + 0.5) * (np.pi / m):
        ring = _sphere_grid(d - 1, radius * np.sin(phi), spacing)
        rings.append(np.column_stack([ring, np.full(len(ring), radius * np.cos(phi))]))
    return np.vstack(rings)


class ManifoldModel:
    """The code :class:`Sphere` and :class:`Torus` share.

    Each model also has ``reach``, ``diameter()``, ``sample_points(rng, k)``,
    ``project_many(x)``, ``distance_many(x)``, ``tangent_many(points)`` and
    ``grid(resolution)``.  The ValueError of ``tangent_many`` names the first
    row farther than ON_MANIFOLD_TOL from M; ``grid`` gives distinct points of
    M, the same on every call, with every point of M within ``resolution`` of
    one.  Its rows come ring by ring, each ring in order of angle, so
    consecutive rows lie close together, which the upper bound of
    :func:`.geometry.directed_hausdorff` relies on."""

    ambient_dim: int
    intrinsic_dim: int

    def __new__(cls, *args, **kwargs):
        # the base stands for no manifold: it has no sampler, projection or grid
        if cls is ManifoldModel:
            raise ValueError("ManifoldModel is no manifold: build a Sphere or a Torus, or call make_model")
        return super().__new__(cls)

    def _rows(self, x) -> np.ndarray:
        """``x`` as (m, D) floats; ValueError unless each row is D finite coordinates."""
        x = check_points(np.atleast_2d(x))
        if x.shape[1] != self.ambient_dim:
            raise ValueError(f"need points of {self.ambient_dim} coordinates, got shape {x.shape}")
        return x

    def _on_manifold(self, points) -> np.ndarray:
        """``_rows(points)``, each row within ON_MANIFOLD_TOL of M."""
        points = self._rows(points)
        far = np.flatnonzero(self.distance_many(points) > ON_MANIFOLD_TOL)
        if far.size:
            raise ValueError(f"row {far[0]} is not on the manifold")
        return points


@dataclass(frozen=True)
class Sphere(ManifoldModel):
    """The round d-sphere of ``radius`` about the origin of the first d+1
    coordinates of R^D, d = ``intrinsic_dim`` in {1, 2, 3}: the circle is d=1.

    Only the sampler treats the circle on its own."""

    radius: float = 1.0
    ambient_dim: int = 3
    intrinsic_dim: int = 2

    def __post_init__(self):
        check_positive(self.radius, "radius")
        check_int(self.intrinsic_dim, "intrinsic_dim", 1)
        if self.intrinsic_dim > 3:
            raise ValueError(f"need intrinsic_dim <= 3, got {self.intrinsic_dim}")
        check_int(self.ambient_dim, "ambient_dim", self.intrinsic_dim + 1)

    @property
    def reach(self) -> float:
        return self.radius

    def diameter(self) -> float:
        return 2.0 * self.radius

    def sample_points(self, rng, k):
        if self.intrinsic_dim == 1:
            t = rng.uniform(0.0, 2.0 * np.pi, size=k)
            unit = np.column_stack([np.cos(t), np.sin(t)])
        else:
            unit = rng.standard_normal((k, self.intrinsic_dim + 1))
            unit /= np.linalg.norm(unit, axis=1, keepdims=True)
        return _pad(self.radius * unit, self.ambient_dim)

    def project_many(self, x):
        x, k = self._rows(x), self.intrinsic_dim + 1
        s = np.linalg.norm(x[:, :k], axis=1)
        if np.any(s < MEDIAL_TOL):
            raise MedialAxisError("projection undefined near the sphere's centre")
        out = np.zeros_like(x)
        out[:, :k] = self.radius * x[:, :k] / s[:, None]
        return out

    def distance_many(self, x):
        x, k = self._rows(x), self.intrinsic_dim + 1
        rest2 = np.einsum("ij,ij->i", x[:, k:], x[:, k:])
        return np.sqrt((np.linalg.norm(x[:, :k], axis=1) - self.radius) ** 2 + rest2)

    def tangent_many(self, points):
        # the first d columns of the Householder reflection H = I - 2 v v^T / v^T v
        # that swaps e_(d+1) and sigma n, v = e_(d+1) - sigma n and sigma =
        # -sign(n_(d+1)): v^T v = 2 (1 + |n_(d+1)|) >= 2 at every point
        p = self._on_manifold(points)
        d = self.intrinsic_dim
        n = p[:, : d + 1] / np.linalg.norm(p[:, : d + 1], axis=1, keepdims=True)
        sigma = np.where(n[:, d] < 0, 1.0, -1.0)
        v = -sigma[:, None] * n
        v[:, d] += 1.0
        out = np.zeros((p.shape[0], self.ambient_dim, d))
        scale = sigma[:, None] * n[:, :d] / (1.0 + np.abs(n[:, d:]))
        out[:, : d + 1] = v[:, :, None] * scale[:, None, :]
        out[:, np.arange(d), np.arange(d)] += 1.0
        return out

    def grid(self, resolution):
        check_positive(resolution, "resolution")
        d = self.intrinsic_dim  # a cover of d spacing / 2 <= resolution
        return _pad(_sphere_grid(d, self.radius, resolution * min(1.0, 2.0 / d)), self.ambient_dim)


@dataclass(frozen=True)
class Torus(ManifoldModel):
    major_radius: float = 2.0
    minor_radius: float = 0.5
    ambient_dim: int = 3

    def __post_init__(self):
        check_positive(self.major_radius, "major_radius")
        check_positive(self.minor_radius, "minor_radius")
        if not self.minor_radius < self.major_radius:
            raise ValueError("need 0 < minor_radius < major_radius < inf")
        check_int(self.ambient_dim, "ambient_dim", 3)

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
        x = self._rows(x)
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
        x = self._rows(x)
        s = np.hypot(x[:, 0], x[:, 1])
        t = np.hypot(s - self.major_radius, x[:, 2])
        rest2 = np.einsum("ij,ij->i", x[:, 3:], x[:, 3:])
        return np.sqrt((t - self.minor_radius) ** 2 + rest2)

    def tangent_many(self, points):
        # d/du and d/dv of point(u, v), the cosines and sines of u and v read
        # off p; on M, s >= R - r > 0 and t = r > 0
        p = self._on_manifold(points)
        s = np.hypot(p[:, 0], p[:, 1])
        t = np.hypot(s - self.major_radius, p[:, 2])
        cos_u, sin_u = p[:, 0] / s, p[:, 1] / s
        cos_v, sin_v = (s - self.major_radius) / t, p[:, 2] / t
        out = np.zeros((p.shape[0], self.ambient_dim, 2))
        out[:, 0, 0], out[:, 1, 0] = -sin_u, cos_u
        out[:, 0, 1], out[:, 1, 1], out[:, 2, 1] = -sin_v * cos_u, -sin_v * sin_u, cos_v
        return out

    def grid(self, resolution):
        check_positive(resolution, "resolution")
        # a point is within half a v-arc and half a u-arc (radius <= R + r) of one
        u = _angles(self.major_radius + self.minor_radius, resolution)
        v = _angles(self.minor_radius, resolution)
        uu, vv = np.meshgrid(u, v, indexing="ij")
        return self.point(uu.ravel(), vv.ravel())


def make_model(kind: str, **params) -> ManifoldModel:
    """The model of ``kind``: "circle" is the Sphere of intrinsic_dim 1, in R^2 by default."""
    kinds = {  # the circle's d is fixed: intrinsic_dim=2 is a TypeError, as for the torus
        "circle": lambda radius=1.0, ambient_dim=2: Sphere(radius, ambient_dim, 1),
        "sphere": Sphere,
        "torus": Torus,
    }
    if kind not in kinds:
        raise ValueError(f"unknown model kind {kind!r}; expected one of {sorted(kinds)}")
    return kinds[kind](**params)


# ---------------------------------------------------------------------------
# sampling specs and the clutter sampler


@dataclass(frozen=True)
class SampleSpec:
    """Sample size, signal fraction and RNG seed; the outliers' ball is the
    model's (:func:`default_k0`)."""

    n: int
    beta: float = 1.0
    seed: int = 0

    def __post_init__(self):
        check_int(self.n, "n", 1)
        check_int(self.seed, "seed", 0)
        check_positive(self.beta, "beta")
        if self.beta > 1.0:
            raise ValueError("need 0 < beta <= 1")


@dataclass(frozen=True, eq=False)
class LabeledCloud:
    """(n, D) finite float points, D >= 1, no two equal, and n int8 labels or
    None, from array-likes; ValueError on anything else.  Both are read-only
    copies, so a cloud holds what its checks passed for as long as it lives."""

    points: np.ndarray
    labels: np.ndarray | None = None  # 1 = signal, 0 = outlier; None when unlabelled

    def __post_init__(self):
        points = np.array(check_points(self.points))
        # equal rows sort next to each other, the lower index first
        order = np.lexsort(points.T)
        rows = points[order]
        same = np.flatnonzero((rows[1:] == rows[:-1]).all(axis=1))
        if same.size:
            i = same[0]
            raise ValueError(f"rows {order[i]} and {order[i + 1]} are the same point")
        points.setflags(write=False)
        object.__setattr__(self, "points", points)
        if self.labels is None:
            return
        labels, n = np.asarray(self.labels), self.n
        if labels.ndim != 1:
            raise ValueError(f"need a 1-d array of labels, got shape {labels.shape}")
        if len(labels) != n:
            raise ValueError(f"need one label per point, got {len(labels)} labels for {n} points")
        bad = np.flatnonzero((labels != 0) & (labels != 1))
        if bad.size:
            raise ValueError(f"labels must be 0 or 1, row {bad[0]} has {labels[bad[0]]}")
        labels = labels.astype(np.int8)
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def n(self) -> int:
        return self.points.shape[0]


def default_k0(model: ManifoldModel) -> float:
    """K0, the radius of the outliers' ball: diameter(M) + reach."""
    _check_instance(model, ManifoldModel, "model")
    return model.diameter() + model.reach


def _uniform_ball(rng: np.random.Generator, k: int, dim: int, radius: float) -> np.ndarray:
    g = rng.standard_normal((k, dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    u = rng.uniform(0.0, 1.0, size=k) ** (1.0 / dim)
    return radius * g * u[:, None]


def sample(model: ManifoldModel, spec: SampleSpec) -> LabeledCloud:
    """Draw n points: signal uniform on M with probability beta, else uniform
    in the ball B(0, default_k0(model)) around the models' common centroid.
    Bit-deterministic given the seed."""
    _check_instance(model, ManifoldModel, "model")
    _check_instance(spec, SampleSpec, "spec")
    rng = np.random.default_rng(spec.seed)
    labels = (rng.random(spec.n) < spec.beta).astype(np.int8)
    n_signal = int(labels.sum())
    signal = model.sample_points(rng, n_signal)
    outliers = _uniform_ball(rng, spec.n - n_signal, model.ambient_dim, default_k0(model))
    points = np.empty((spec.n, model.ambient_dim))
    points[labels == 1] = signal
    points[labels == 0] = outliers
    return LabeledCloud(points=points, labels=labels)


# ---------------------------------------------------------------------------
# CSV serialization (round-trip exact at 17 significant digits)


def save_cloud_csv(path, cloud: LabeledCloud) -> None:
    """Write ``cloud`` as the module docstring says; ValueError if it is no
    :class:`LabeledCloud`, before any file is opened, or if it has no points."""
    _check_instance(cloud, LabeledCloud, "cloud")
    if not cloud.n:
        raise ValueError(f"no points in {path}")
    columns = [f"x{i}" for i in range(cloud.points.shape[1])]
    data, fmt = cloud.points, ["%.17g"] * len(columns)
    if cloud.labels is not None:
        columns.append("label")
        data, fmt = np.column_stack([data, cloud.labels]), fmt + ["%d"]
    np.savetxt(path, data, fmt=fmt, delimiter=",", header=",".join(columns), comments="")


def load_cloud_csv(path) -> LabeledCloud:
    """The cloud in ``path``; ValueError naming the file unless it has a row and the
    header x0,...,x{D-1}[,label], D >= 1, names every column of every row."""
    with open(path) as f:
        columns = f.readline().strip().split(",")
        labelled = columns[-1] == "label"
        coords = columns[:-1] if labelled else columns
        # a file of no rows fails here, before numpy warns that it read nothing
        first = next((line for line in f if line.strip()), None)
        try:
            if not coords or coords != [f"x{i}" for i in range(len(coords))]:
                raise ValueError(f"need a header x0,...,x{{D-1}}[,label], got {columns}")
            if first is None:
                raise ValueError("no points")
            data = np.loadtxt(itertools.chain([first], f), delimiter=",", ndmin=2)
            if data.shape[1] != len(columns):
                raise ValueError(f"header of {len(columns)} columns, rows of {data.shape[1]}")
            return LabeledCloud(data[:, : len(coords)], data[:, -1] if labelled else None)
        except ValueError as e:
            raise ValueError(f"{path}: {e}") from None

