import dataclasses
import re
import warnings

import numpy as np
import pytest
from scipy.spatial import cKDTree

import dense_oracles as dense
from dense_oracles import Subspace, principal_angle, span
from lemma_checks import (
    circle_geodesic_distance,
    circle_points,
    monte_carlo_reach,
    verify_ball_projection,
    verify_geodesic_bounds,
    verify_normal_offset,
    verify_standardness,
)
from tdcrecon.geometry import principal_angles
from tdcrecon.models import (
    LabeledCloud,
    MedialAxisError,
    SampleSpec,
    Sphere,
    Torus,
    default_k0,
    load_cloud_csv,
    make_model,
    sample,
    save_cloud_csv,
)

MODELS = [make_model("circle"), Torus(2.0, 0.5), Sphere(radius=1.0), Sphere(1.0, 5, 3)]
CIRCLE = make_model("circle")
# three distinct points: a cloud rejects a repeated row
THREE = np.arange(6.0).reshape(3, 2)


def _kind(model):
    """"circle", "sphere", "3sphere" or "torus"."""
    if isinstance(model, Torus):
        return "torus"
    return ["circle", "sphere", "3sphere"][model.intrinsic_dim - 1]


def _model_id(model):
    return f"{_kind(model)}{model.ambient_dim}"


class TestBasics:
    def test_diameters(self):
        assert CIRCLE.diameter() == 2.0
        assert Torus(2.0, 0.5).diameter() == 5.0
        assert Sphere(3.0).diameter() == 6.0
        assert Sphere(3.0) == Sphere(3.0, ambient_dim=3, intrinsic_dim=2)  # not S^3

    def test_reaches(self):
        assert CIRCLE.reach == 1.0
        assert Torus(2.0, 0.5).reach == 0.5
        assert Torus(2.0, 1.5).reach == 0.5
        assert Sphere(2.0).reach == 2.0

    def test_make_model(self):
        assert make_model("circle", radius=2.0).reach == 2.0
        assert make_model("circle", ambient_dim=10) == Sphere(1.0, 10, 1)
        assert make_model("sphere", ambient_dim=5) == Sphere(1.0, 5, 2)
        with pytest.raises(ValueError):
            make_model("klein_bottle")
        # the circle's d is fixed, as the torus's is: intrinsic_dim=2 used to
        # override it and give the 2-sphere under the circle's name
        for kind in ("circle", "torus"):
            with pytest.raises(TypeError, match="intrinsic_dim"):
                make_model(kind, intrinsic_dim=2, ambient_dim=3)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Torus(1.0, 1.0)
        with pytest.raises(ValueError):
            make_model("circle", radius=-1.0)

    @pytest.mark.parametrize("kind", ["circle", "sphere"], ids=["Circle", "Sphere"])
    def test_nan_radius_raises(self, kind):
        with pytest.raises(ValueError, match="need radius > 0"):
            make_model(kind, radius=float("nan"))

    @pytest.mark.parametrize(
        "cls, kwargs, match",
        [
            (Sphere, dict(radius=np.inf, intrinsic_dim=1), "need radius > 0"),  # sampled inf
            (Sphere, dict(radius=-0.0), "need radius > 0"),
            (Sphere, dict(ambient_dim=np.nan), "integer ambient_dim >= 3"),  # was built
            (Sphere, dict(ambient_dim=3.0), "integer ambient_dim >= 3"),  # failed in _pad
            (Sphere, dict(ambient_dim=2.5, intrinsic_dim=1), "integer ambient_dim >= 2"),
            (Sphere, dict(ambient_dim=True, intrinsic_dim=1), "integer ambient_dim >= 2"),
            (Sphere, dict(ambient_dim=3, intrinsic_dim=3), "integer ambient_dim >= 4"),
            (Sphere, dict(intrinsic_dim=0), "integer intrinsic_dim >= 1"),
            (Sphere, dict(intrinsic_dim=2.0), "integer intrinsic_dim >= 1"),
            (Sphere, dict(ambient_dim=6, intrinsic_dim=4), "need intrinsic_dim <= 3"),
            (Torus, dict(major_radius=np.inf), "major_radius > 0 and finite, got inf"),  # was built
            (Torus, dict(minor_radius=np.nan), "minor_radius > 0 and finite, got nan"),
            (Torus, dict(ambient_dim=3.0), "integer ambient_dim >= 3"),
            (Torus, dict(ambient_dim=np.float64(4)), "integer ambient_dim >= 3"),
        ],
        ids=lambda v: v.__name__ if isinstance(v, type) else repr(v) if isinstance(v, dict) else None,
    )
    def test_sizes_and_radii_raise_where_they_enter(self, cls, kwargs, match):
        with pytest.raises(ValueError, match=match):
            cls(**kwargs)

    def test_numpy_integer_sizes_are_taken(self):
        model = Sphere(1.0, np.int64(6), np.int32(3))
        assert model.grid(0.5).shape[1] == 6
        torus = Torus(ambient_dim=np.uint8(4))
        assert torus.sample_points(np.random.default_rng(0), 2).shape == (2, 4)


class TestGrid:
    @pytest.mark.parametrize("resolution", [-0.1, 0.0, float("nan")])
    @pytest.mark.parametrize("model", MODELS, ids=lambda m: _kind(m).capitalize())
    def test_resolution_must_be_positive(self, model, resolution):
        # a negative resolution used to give a few points or the grid of
        # its absolute value, 0 a ZeroDivisionError and NaN an int error
        with pytest.raises(ValueError, match="need resolution > 0"):
            model.grid(resolution)

    @pytest.mark.parametrize("resolution", [0.5, 0.2, 0.1])
    @pytest.mark.parametrize(
        "model",
        [
            make_model("circle", ambient_dim=4),
            Sphere(1.5, ambient_dim=5),
            Sphere(1.0),
            Sphere(0.8, ambient_dim=6, intrinsic_dim=3),
            Sphere(1.0, ambient_dim=4, intrinsic_dim=3),
            Torus(ambient_dim=5),
        ],
        ids=_model_id,
    )
    def test_spacing_within_resolution(self, model, resolution):
        # grid's promise: every point of M within resolution of a grid point,
        # each of which is on M, none twice
        grid = model.grid(resolution)
        pts = model.sample_points(np.random.default_rng(31), 20_000)
        assert cKDTree(grid).query(pts)[0].max() <= resolution
        assert model.distance_many(grid).max() <= 1e-12
        assert len(np.unique(grid, axis=0)) == len(grid)

    def test_circle_and_torus_are_angle_lattices(self):
        # the benchmark scores its nets against these two grids, so they stay
        # fixed to the last bit: k equal steps of angle, ceil(2 pi radius / res)
        t = np.linspace(0.0, 2.0 * np.pi, 629, endpoint=False)
        circle = np.zeros((629, 10))
        circle[:, :2] = np.column_stack([np.cos(t), np.sin(t)])
        u, v = np.meshgrid(
            np.linspace(0.0, 2.0 * np.pi, 315, endpoint=False),
            np.linspace(0.0, 2.0 * np.pi, 63, endpoint=False),
            indexing="ij",
        )
        u, v = u.ravel(), v.ravel()
        ring = 2.0 + 0.5 * np.cos(v)
        torus = np.column_stack([ring * np.cos(u), ring * np.sin(u), 0.5 * np.sin(v)])
        for grid, lattice in [
            (make_model("circle", ambient_dim=10).grid(0.01), circle),
            (Torus(2.0, 0.5).grid(0.05), torus),
        ]:
            assert grid.shape == lattice.shape
            assert grid.tobytes() == lattice.tobytes()


class TestProjection:
    def test_fixed_points(self):
        for model in MODELS:
            pts = model.sample_points(np.random.default_rng(1), 50)
            assert np.max(np.linalg.norm(model.project_many(pts) - pts, axis=1)) < 1e-10

    def test_circle_radial(self):
        assert np.allclose(CIRCLE.project_many([[2.0, 0.0]])[0], [1.0, 0.0])

    def test_torus_closed_form(self):
        torus = Torus(2.0, 0.5)
        assert np.allclose(torus.project_many([[3.0, 0.0, 0.0]])[0], [2.5, 0.0, 0.0])

    def test_torus_against_grid_search(self):
        torus = Torus(2.0, 0.5)
        grid = torus.grid(0.01)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=3)
            try:
                q = torus.project_many(x)[0]
            except MedialAxisError:
                continue
            best = grid[np.argmin(np.linalg.norm(grid - x, axis=1))]
            assert np.linalg.norm(x - q) <= np.linalg.norm(x - best) + 1e-12
            assert np.linalg.norm(q - best) < 0.02

    def test_projection_norm_equals_distance(self):
        rng = np.random.default_rng(3)
        for model in MODELS:
            x = rng.uniform(-1.5, 1.5, size=(100, model.ambient_dim))
            x += model.sample_points(rng, 100)  # keep away from medial axis, mostly
            try:
                proj = model.project_many(x)
            except MedialAxisError:
                continue
            assert np.allclose(
                np.linalg.norm(x - proj, axis=1), model.distance_many(x), atol=1e-12
            )

    def test_medial_axis_errors(self):
        with pytest.raises(MedialAxisError):
            CIRCLE.project_many([[0.0, 0.0]])
        with pytest.raises(MedialAxisError):
            Torus(2.0, 0.5).project_many([[0.0, 0.0, 1.0]])
        with pytest.raises(MedialAxisError):
            Torus(2.0, 0.5).project_many([[2.0, 0.0, 0.0]])  # core circle
        with pytest.raises(MedialAxisError):
            Sphere(1.0).project_many([[0.0, 0.0, 0.0]])

    def test_padding_extra_coords(self):
        circle = make_model("circle", ambient_dim=4)
        q = circle.project_many([[0.0, 2.0, 0.7, -0.3]])[0]
        assert np.allclose(q, [0.0, 1.0, 0.0, 0.0])
        assert circle.distance_many([[0.0, 2.0, 0.7, -0.3]])[0] == pytest.approx(
            np.sqrt(1.0 + 0.49 + 0.09)
        )


class TestMalformedPoints:
    """project_many, distance_many and tangent_many take only rows of D finite coordinates."""

    METHODS = ["project_many", "distance_many", "tangent_many"]

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "model, x",
        [
            (make_model("circle", ambient_dim=10), np.ones((1, 3))),  # was zero-padded to 10-D
            (CIRCLE, np.ones((1, 3))),
            (Torus(), np.ones((1, 5))),  # failed inside numpy's broadcasting
            (Sphere(1.0, ambient_dim=4), np.ones((2, 3))),
        ],
        ids=["circle10-short", "circle2-long", "torus3-long", "sphere4-short"],
    )
    def test_wrong_row_length(self, method, model, x):
        with pytest.raises(ValueError, match=f"need points of {model.ambient_dim} coordinates"):
            getattr(model, method)(x)

    @pytest.mark.parametrize("method", METHODS)
    @pytest.mark.parametrize(
        "model, x",
        [
            (CIRCLE, [[np.nan, 1.0]]),  # distance was nan, the projection [nan, nan]
            (Sphere(1.0), [[np.inf, 0.0, 0.0]]),  # distance was inf
            (Torus(), [[3.0, 0.0, 0.0], [2.5, 0.0, -np.inf]]),
        ],
        ids=["circle-nan", "sphere-inf", "torus-minus-inf"],
    )
    def test_non_finite(self, method, model, x):
        with pytest.raises(ValueError, match="points contains NaN or inf"):
            getattr(model, method)(x)


def _tangent_at(model, p):
    return Subspace(model.tangent_many([p])[0])


class TestTangent:
    def test_circle(self):
        sub = _tangent_at(CIRCLE, [1.0, 0.0])
        assert principal_angle(sub, span([0.0, 1.0])) < 1e-12

    def test_sphere_pole(self):
        sub = _tangent_at(Sphere(1.0), [0.0, 0.0, 1.0])
        assert principal_angle(sub, span([1, 0, 0], [0, 1, 0])) < 1e-12

    def test_torus_outer_point(self):
        sub = _tangent_at(Torus(2.0, 0.5), [2.5, 0.0, 0.0])
        assert principal_angle(sub, span([0, 1, 0], [0, 0, 1])) < 1e-12

    def test_off_manifold_rejected(self):
        with pytest.raises(ValueError):
            CIRCLE.tangent_many([[1.5, 0.0]])

    def test_reach_criterion_monte_carlo(self):
        for model in MODELS:
            est = monte_carlo_reach(model, 400, seed=11)
            assert est >= model.reach - 0.01


STACK_MODELS = [
    make_model(kind, ambient_dim=big_d)
    for kind in ("circle", "sphere", "torus")
    for big_d in (3, 10)
]
STACK_MODELS += [Sphere(1.0, big_d, 3) for big_d in (4, 10)]


def _special_points(model):
    """Points of M on the axes of the closed forms' case splits."""
    if isinstance(model, Torus):
        quarter = np.arange(4) * np.pi / 2
        u, v = np.meshgrid(quarter, quarter)
        return model.point(u.ravel(), v.ravel())
    # the sphere's Householder basis flips across n_(d+1) = 0 and meets the
    # poles +-e_(d+1) among the axis points
    k = model.intrinsic_dim + 1
    pts = [*np.eye(k), *-np.eye(k)]
    for last in (1e-9, 0.0, -0.0, -1e-9, 0.5, -0.5):
        row = np.ones(k)
        row[-1] = last
        pts.append(row / np.linalg.norm(row))
    if k == 3:
        # the reference basis of S^2 starts from e2 where |n_0| >= 0.9
        c, s = 0.9, np.sqrt(1.0 - 0.81)
        pts += [[c, s, 0], [-c, 0, s], [0.95, 0, -np.sqrt(0.0975)]]
    out = np.zeros((len(pts), model.ambient_dim))
    out[:, :k] = model.radius * np.array(pts)
    return out


class TestTangentMany:
    """The stacks against the one-point and one-pair forms of dense_oracles."""

    def points(self, model):
        rng = np.random.default_rng(21)
        return np.vstack([_special_points(model), model.sample_points(rng, 200)])

    @pytest.mark.parametrize("model", STACK_MODELS, ids=_model_id)
    def test_projectors_match_reference(self, model):
        pts = self.points(model)
        bases = model.tangent_many(pts)
        assert bases.shape == (len(pts), model.ambient_dim, model.intrinsic_dim)
        gram = np.matmul(bases.transpose(0, 2, 1), bases)
        assert np.max(np.abs(gram - np.eye(model.intrinsic_dim))) <= 1e-12
        want = np.array([dense.tangent(model, p).projector() for p in pts])
        assert np.max(np.abs(np.matmul(bases, bases.transpose(0, 2, 1)) - want)) <= 1e-12

    @pytest.mark.parametrize("model", STACK_MODELS, ids=_model_id)
    def test_angles_match_reference(self, model):
        pts = self.points(model)
        a = model.tangent_many(pts)
        for b in (model.tangent_many(np.roll(pts, 1, axis=0)), a):
            got = principal_angles(a, b)
            want = [principal_angle(Subspace(x), Subspace(y)) for x, y in zip(a, b)]
            assert np.array_equal(got, want)
            assert np.array_equal(got, principal_angles(b, a))

    def test_off_manifold_row_named(self):
        torus = Torus(2.0, 0.5)
        pts = torus.sample_points(np.random.default_rng(22), 5)
        pts[3] *= 1.0 + 1e-6
        with pytest.raises(ValueError, match="row 3 is not on the manifold"):
            torus.tangent_many(pts)

    @pytest.mark.parametrize("model", STACK_MODELS, ids=_model_id)
    def test_empty(self, model):
        bases = model.tangent_many(np.zeros((0, model.ambient_dim)))
        assert bases.shape == (0, model.ambient_dim, model.intrinsic_dim)


class TestSampling:
    def test_beta_one_on_manifold(self):
        for model in MODELS:
            cloud = sample(model, SampleSpec(n=500, beta=1.0, seed=4))
            assert np.all(cloud.labels == 1)
            assert np.max(model.distance_many(cloud.points)) <= 1e-10

    def test_circle_symmetry(self):
        cloud = sample(CIRCLE, SampleSpec(n=100_000, beta=1.0, seed=5))
        frac = np.mean(cloud.points[:, 0] > 0)
        assert abs(frac - 0.5) < 0.01

    def test_signal_fraction(self):
        cloud = sample(CIRCLE, SampleSpec(n=100_000, beta=0.8, seed=6))
        assert abs(np.mean(cloud.labels) - 0.8) < 0.01

    def test_outliers_in_ball(self):
        model = Torus(2.0, 0.5)
        cloud = sample(model, SampleSpec(n=5000, beta=0.5, seed=7))
        out = cloud.points[cloud.labels == 0]
        assert np.max(np.linalg.norm(out, axis=1)) <= default_k0(model)

    def test_determinism(self):
        spec = SampleSpec(n=1000, beta=0.7, seed=8)
        a = sample(Torus(2.0, 0.5), spec)
        b = sample(Torus(2.0, 0.5), spec)
        assert np.array_equal(a.points, b.points)
        assert np.array_equal(a.labels, b.labels)

    def test_project_sample_identity(self):
        for model in MODELS:
            cloud = sample(model, SampleSpec(n=300, beta=1.0, seed=9))
            proj = model.project_many(cloud.points)
            assert np.max(np.linalg.norm(proj - cloud.points, axis=1)) <= 1e-10

    @pytest.mark.parametrize(
        "n", [0, -3, 2.5, 3.0, True, np.float64(5), None], ids=repr
    )
    def test_sample_size_is_a_positive_integer(self, n):
        # 2.5 and True used to fail inside numpy, in sample()
        with pytest.raises(ValueError, match="need an integer n >= 1"):
            SampleSpec(n=n)

    def test_sample_size_takes_numpy_integers(self):
        cloud = sample(CIRCLE, SampleSpec(n=np.int64(7), beta=0.5, seed=1))
        assert cloud.n == 7

    @pytest.mark.parametrize("seed", [-1, 1.5, True, None], ids=repr)
    def test_seed_is_a_non_negative_integer(self, seed):
        # -1 and 1.5 used to fail inside numpy, once sample() drew
        with pytest.raises(ValueError, match="need an integer seed >= 0"):
            SampleSpec(n=5, seed=seed)

    def test_seed_takes_numpy_integers(self):
        cloud = sample(CIRCLE, SampleSpec(n=7, seed=np.uint32(3)))
        assert np.array_equal(cloud.points, sample(CIRCLE, SampleSpec(n=7, seed=3)).points)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(n=0)
        with pytest.raises(ValueError):
            SampleSpec(n=5, beta=0.0)
        with pytest.raises(ValueError, match="got 2 labels for 3 points"):
            LabeledCloud(THREE, np.zeros(2))
        with pytest.raises(ValueError, match="row 1 has 2"):
            LabeledCloud(THREE, np.array([0, 2, 1]))

    def test_labels_not_one_dimensional_raise(self):
        # a column of 5 labels for 5 points used to be reported as
        # "got 5 labels for 5 points"
        with pytest.raises(ValueError, match=r"need a 1-d array of labels, got shape \(5, 1\)"):
            LabeledCloud(np.eye(5), np.ones((5, 1)))

    def test_cloud_takes_array_likes(self):
        # lists of labels or of points used to fail on ``.shape``
        labelled = LabeledCloud(THREE, [0, 1, 1])
        assert labelled.labels.dtype == np.int8 and labelled.labels.tolist() == [0, 1, 1]
        unlabelled = LabeledCloud([[0, 0], [1, 1], [2, 2]])
        assert unlabelled.points.dtype == float and unlabelled.points.shape == (3, 2)
        assert unlabelled.n == 3 and unlabelled.labels is None

    @pytest.mark.parametrize("points", [np.zeros(3), np.zeros((2, 3, 1)), 1.0])
    def test_cloud_points_must_be_2d(self, points):
        with pytest.raises(ValueError, match="need an \\(n, D\\) point array"):
            LabeledCloud(points)

    def test_cloud_owns_read_only_copies(self):
        # a cloud used to share the caller's arrays, and a write to either
        # changed both after the cloud's checks had passed
        x, labels = THREE.copy(), np.array([0, 1, 1], dtype=np.int8)
        cloud = LabeledCloud(x, labels)
        assert not np.shares_memory(cloud.points, x)
        assert not np.shares_memory(cloud.labels, labels)
        with pytest.raises(ValueError, match="read-only"):
            cloud.points[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            cloud.labels[0] = 0
        with pytest.raises(dataclasses.FrozenInstanceError):
            cloud.points = x
        x[0, 0], labels[0] = np.nan, 1
        assert np.array_equal(cloud.points, THREE) and cloud.labels.tolist() == [0, 1, 1]

    @pytest.mark.parametrize(
        "points, want",
        [
            (np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 5.0], [6.0, 7.0], [2.0, 3.0]]),
             "rows 1 and 4"),
            (np.array([[1.0, 1.0], [1.0, 0.0], [1.0, 1.0], [1.0, 1.0]]), "rows 0 and 2"),
            (np.array([[0.0, 1.0], [-0.0, 1.0]]), "rows 0 and 1"),  # one point, two signs of 0
        ],
        ids=["pair", "three", "signed-zero"],
    )
    def test_cloud_rejects_repeated_row(self, points, want):
        # equal rows used to be neighbours at distance 0: an outlier k times
        # over had a slab count of at least k
        with pytest.raises(ValueError, match=f"^{want} are the same point$"):
            LabeledCloud(points, np.ones(len(points), dtype=np.int8))

    def test_torus_sampler_uniform_in_v(self):
        # area element ~ (R + r cos v): the outer half carries more mass
        torus = Torus(2.0, 0.5)
        pts = torus.sample_points(np.random.default_rng(10), 200_000)
        s = np.hypot(pts[:, 0], pts[:, 1])
        v = np.arctan2(pts[:, 2], s - torus.major_radius)
        outer = np.mean(np.abs(v) < np.pi / 2)
        # integral of (2 + 0.5 cos v) over |v| < pi/2 vs total: (2 pi + 1) / (4 pi)
        assert abs(outer - (2 * np.pi + 1.0) / (4 * np.pi)) < 0.01


class TestCsv:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(12)
        pts = rng.standard_normal((50, 3)) * np.pi
        labels = (rng.random(50) < 0.5).astype(np.int8)
        path = tmp_path / "cloud.csv"
        save_cloud_csv(path, LabeledCloud(pts, labels))
        got = load_cloud_csv(path)
        assert np.array_equal(got.points, pts)
        assert np.array_equal(got.labels, labels)

    def test_no_labels(self, tmp_path):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "cloud.csv"
        save_cloud_csv(path, LabeledCloud(pts))
        got = load_cloud_csv(path)
        assert np.array_equal(got.points, pts)
        assert got.labels is None

    def test_header(self, tmp_path):
        path = tmp_path / "cloud.csv"
        save_cloud_csv(path, LabeledCloud(np.zeros((1, 3)), np.zeros(1, dtype=np.int8)))
        assert path.read_text().splitlines()[0] == "x0,x1,x2,label"

    def test_one_row_round_trip(self, tmp_path):
        path = tmp_path / "cloud.csv"
        pts = np.array([[0.1, -2.5, 1e-300]])
        save_cloud_csv(path, LabeledCloud(pts, np.ones(1, dtype=np.int8)))
        got = load_cloud_csv(path)
        assert np.array_equal(got.points, pts)
        assert np.array_equal(got.labels, [1])

    def test_file_format(self, tmp_path):
        # the format every earlier writer wrote, byte for byte, read bit for bit
        text = "x0,x1,label\n0.10000000000000001,-2.5,1\n3.1415926535897931,1e-300,0\n"
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        got = load_cloud_csv(path)
        assert np.array_equal(got.points, [[0.1, -2.5], [np.pi, 1e-300]])
        assert got.labels.dtype == np.int8 and got.labels.tolist() == [1, 0]
        save_cloud_csv(tmp_path / "again.csv", got)
        assert (tmp_path / "again.csv").read_text() == text

    @pytest.mark.parametrize("rest", ["", "\n\n"])
    def test_header_only_raises_without_warning(self, tmp_path, rest):
        # numpy used to warn that it read no data before the "no points" error
        path = tmp_path / "cloud.csv"
        path.write_text("x0,x1,label\n" + rest)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no points"):
                load_cloud_csv(path)

    @pytest.mark.parametrize(
        "text",
        [
            "0.5,1.0\n2.0,3.0\n4.0,5.0\n",  # no header: the first row was dropped
            "x0,x1\n0.5,1.0,2.0\n2.0,3.0,4.0\n",  # read as an unlabelled 3-D cloud
            "x0,x1,x2\n0.5,1.0\n2.0,3.0\n",  # read as a 2-D cloud
            "x0,x1,label\n0.5,1.0\n2.0,3.0\n",  # the x1 column read as labels
            "label\n1\n0\n",  # read as (2, 0) points
            "x1,x0\n0.5,1.0\n",
            "x0,label,x1\n0.5,1,1.0\n",
            "",
        ],
        ids=["no-header", "narrow", "wide", "labels-missing", "label-only", "order", "label-first",
             "empty"],
    )
    def test_load_rejects_header_not_naming_the_columns(self, tmp_path, text):
        path = tmp_path / "cloud.csv"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: .*(header|columns)"):
            load_cloud_csv(path)

    def test_load_rejects_ragged_rows(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x0,x1\n0.5,1.0\n2.0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: "):
            load_cloud_csv(path)

    @pytest.mark.parametrize("label", ["2.7", "-1", "300", "0.5", "nan"])
    def test_load_rejects_label_not_0_or_1(self, tmp_path, label):
        # 2.7 was read as 2, -1 kept, 300 wrapped to 44, 0.5 read as 0, and
        # nan reported as a non-finite coordinate
        path = tmp_path / "cloud.csv"
        path.write_text(f"x0,x1,label\n0.5,1.0,1\n2.0,3.0,0\n1.0,1.0,{label}\n4.0,4.0,7\n")
        want = f"^{re.escape(str(path))}: labels must be 0 or 1, row 2 has {label}"
        with pytest.raises(ValueError, match=want):
            load_cloud_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_load_rejects_non_finite(self, tmp_path, value):
        path = tmp_path / "cloud.csv"
        path.write_text(f"x0,x1\n0.5,1.0\n2.0,{value}\n")
        want = f"^{re.escape(str(path))}: points contains NaN or inf"
        with pytest.raises(ValueError, match=want):
            load_cloud_csv(path)

    def test_load_rejects_repeated_row(self, tmp_path):
        path = tmp_path / "cloud.csv"
        path.write_text("x0,x1,label\n0.5,1.0,1\n2.0,3.0,0\n0.5,1.0,0\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: rows 0 and 2 are the same"):
            load_cloud_csv(path)

    @pytest.mark.parametrize("labels", [[0, 1, 2], [-1, 0, 1], [1, 0.5, 0]], ids=["2", "-1", "0.5"])
    def test_save_rejects_label_not_0_or_1(self, tmp_path, labels):
        path = tmp_path / "cloud.csv"
        bad = next(i for i, v in enumerate(labels) if v not in (0, 1))
        with pytest.raises(ValueError, match=f"row {bad} has"):
            save_cloud_csv(path, LabeledCloud(THREE, np.array(labels)))
        assert not path.exists()

    def test_save_rejects_non_finite(self, tmp_path):
        # the writer used to write nan and inf, which the reader rejects
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match="NaN or inf"):
            save_cloud_csv(path, LabeledCloud(np.array([[np.nan, 1.0], [0.0, np.inf]]), [1, 0]))
        assert not path.exists()

    @pytest.mark.parametrize("shape", [(0, 3), (3, 0)])
    def test_save_rejects_no_points(self, tmp_path, shape):
        # the writer used to write a header or blank lines, which the reader
        # rejects; a cloud of no columns is not built at all
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match="no points" if shape[0] == 0 else "D >= 1"):
            save_cloud_csv(path, LabeledCloud(np.zeros(shape)))
        assert not path.exists()

    @pytest.mark.parametrize("n_labels", [2, 5])
    def test_label_count_mismatch(self, tmp_path, n_labels):
        # 5 labels for 3 points used to write 3 rows and drop 2 labels
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match=f"got {n_labels} labels for 3 points"):
            save_cloud_csv(path, LabeledCloud(THREE, np.zeros(n_labels, dtype=np.int8)))
        assert not path.exists()


class TestGeodesicBounds:
    def test_circle(self):
        rep = verify_geodesic_bounds(CIRCLE, trials=2000, seed=13)
        assert rep.passed
        assert rep.max_ratio_upper <= 1.0

    def test_sphere(self):
        rep = verify_geodesic_bounds(Sphere(1.0), trials=2000, seed=14)
        assert rep.passed

    def test_3sphere(self):
        rep = verify_geodesic_bounds(Sphere(1.0, 5, 3), trials=2000, seed=23)
        assert rep.passed

    def test_torus(self):
        rep = verify_geodesic_bounds(Torus(2.0, 0.5), trials=2000, seed=15)
        assert rep.passed

    def test_coincident_pair_is_degenerate_zero(self):
        x = circle_points(CIRCLE, 0.3)
        assert circle_geodesic_distance(CIRCLE, x[0], x[0]) == 0.0


class TestStandardness:
    def test_circle_arc_oracle(self):
        rep = verify_standardness(CIRCLE, [0.1], trials=200_000, seed=16)
        expected = 2.0 * np.arcsin(0.05) / np.pi
        assert rep.estimates[0] == pytest.approx(expected, rel=0.05)

    def test_circle_small_radius_ratio_stabilizes(self):
        rep = verify_standardness(
            CIRCLE, [0.02, 0.05, 0.1], trials=400_000, seed=17
        )
        assert rep.passed
        # d=1 scaling: Q(B)/r approaches 1/pi
        ratios = [est / r for est, r in zip(rep.estimates, rep.r_grid)]
        assert max(ratios) / min(ratios) < 1.1

    def test_torus_slope(self):
        rep = verify_standardness(
            Torus(2.0, 0.5), [0.02, 0.0447, 0.1], trials=400_000, seed=18
        )
        assert abs(rep.slope - 2.0) < 0.1


class TestInclusionVerifiers:
    def test_ball_projection_small(self):
        for model in MODELS:
            rep = verify_ball_projection(model, trials=300, seed=19)
            assert rep.passed

    def test_normal_offset_small(self):
        for model in MODELS:
            rep = verify_normal_offset(model, trials=300, seed=20)
            assert rep.passed
