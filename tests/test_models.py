import warnings

import numpy as np
import pytest

from tdcrecon.checks import (
    circle_geodesic_distance,
    monte_carlo_reach,
    verify_ball_projection,
    verify_geodesic_bounds,
    verify_normal_offset,
    verify_standardness,
)
from tdcrecon.geometry import principal_angle
from tdcrecon.models import (
    Circle,
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

MODELS = [Circle(radius=1.0), Torus(2.0, 0.5), Sphere(radius=1.0)]


class TestBasics:
    def test_diameters(self):
        assert Circle(1.0).diameter() == 2.0
        assert Torus(2.0, 0.5).diameter() == 5.0
        assert Sphere(3.0).diameter() == 6.0

    def test_reaches(self):
        assert Circle(1.0).reach == 1.0
        assert Torus(2.0, 0.5).reach == 0.5
        assert Torus(2.0, 1.5).reach == 0.5
        assert Sphere(2.0).reach == 2.0

    def test_make_model(self):
        assert make_model("circle", radius=2.0).reach == 2.0
        with pytest.raises(ValueError):
            make_model("klein_bottle")

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Torus(1.0, 1.0)
        with pytest.raises(ValueError):
            Circle(-1.0)

    @pytest.mark.parametrize("model", [Circle, Sphere])
    def test_nan_radius_raises(self, model):
        with pytest.raises(ValueError, match="need radius > 0"):
            model(float("nan"))


class TestProjection:
    def test_fixed_points(self):
        for model in MODELS:
            pts = model.sample_points(np.random.default_rng(1), 50)
            assert np.max(np.linalg.norm(model.project_many(pts) - pts, axis=1)) < 1e-10

    def test_circle_radial(self):
        assert np.allclose(Circle(1.0).project([2.0, 0.0]), [1.0, 0.0])

    def test_torus_closed_form(self):
        torus = Torus(2.0, 0.5)
        assert np.allclose(torus.project([3.0, 0.0, 0.0]), [2.5, 0.0, 0.0])

    def test_torus_against_grid_search(self):
        torus = Torus(2.0, 0.5)
        grid = torus.grid(0.01)
        rng = np.random.default_rng(2)
        for _ in range(20):
            x = rng.uniform(-3, 3, size=3)
            try:
                q = torus.project(x)
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
            Circle(1.0).project([0.0, 0.0])
        with pytest.raises(MedialAxisError):
            Torus(2.0, 0.5).project([0.0, 0.0, 1.0])
        with pytest.raises(MedialAxisError):
            Torus(2.0, 0.5).project([2.0, 0.0, 0.0])  # core circle
        with pytest.raises(MedialAxisError):
            Sphere(1.0).project([0.0, 0.0, 0.0])

    def test_padding_extra_coords(self):
        circle = Circle(1.0, ambient_dim=4)
        q = circle.project([0.0, 2.0, 0.7, -0.3])
        assert np.allclose(q, [0.0, 1.0, 0.0, 0.0])
        assert circle.distance([0.0, 2.0, 0.7, -0.3]) == pytest.approx(
            np.sqrt(1.0 + 0.49 + 0.09)
        )


class TestTangent:
    def test_circle(self):
        sub = Circle(1.0).tangent([1.0, 0.0])
        assert principal_angle(sub, _span([0.0, 1.0])) < 1e-12

    def test_sphere_pole(self):
        sub = Sphere(1.0).tangent([0.0, 0.0, 1.0])
        assert principal_angle(sub, _span([1, 0, 0], [0, 1, 0])) < 1e-12

    def test_torus_outer_point(self):
        sub = Torus(2.0, 0.5).tangent([2.5, 0.0, 0.0])
        assert principal_angle(sub, _span([0, 1, 0], [0, 0, 1])) < 1e-12

    def test_off_manifold_rejected(self):
        with pytest.raises(ValueError):
            Circle(1.0).tangent([1.5, 0.0])

    def test_reach_criterion_monte_carlo(self):
        for model in MODELS:
            est = monte_carlo_reach(model, 400, seed=11)
            assert est >= model.reach - 0.01


def _span(*vectors):
    from tdcrecon.geometry import Subspace

    basis = np.array(vectors, dtype=float).T
    basis /= np.linalg.norm(basis, axis=0)
    return Subspace(basis)


class TestSampling:
    def test_beta_one_on_manifold(self):
        for model in MODELS:
            cloud = sample(model, SampleSpec(n=500, beta=1.0, seed=4))
            assert np.all(cloud.labels == 1)
            assert np.max(model.distance_many(cloud.points)) <= 1e-10

    def test_circle_symmetry(self):
        cloud = sample(Circle(1.0), SampleSpec(n=100_000, beta=1.0, seed=5))
        frac = np.mean(cloud.points[:, 0] > 0)
        assert abs(frac - 0.5) < 0.01

    def test_signal_fraction(self):
        cloud = sample(Circle(1.0), SampleSpec(n=100_000, beta=0.8, seed=6))
        assert abs(np.mean(cloud.labels) - 0.8) < 0.01

    def test_outliers_in_ball(self):
        model = Torus(2.0, 0.5)
        cloud = sample(model, SampleSpec(n=5000, beta=0.5, seed=7))
        out = cloud.points[cloud.labels == 0]
        assert np.max(np.linalg.norm(out - model.center(), axis=1)) <= default_k0(model)

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

    def test_k0_validation(self):
        with pytest.raises(ValueError):
            sample(Circle(1.0), SampleSpec(n=10, beta=0.5, k0=1.0, seed=0))
        ok = sample(Circle(1.0), SampleSpec(n=10, beta=0.5, k0=5.0, seed=0))
        assert ok.n == 10

    def test_nan_k0_raises(self):
        # a NaN outlier radius used to put NaN outliers into the cloud
        with pytest.raises(ValueError, match="need k0 >= diameter"):
            sample(Circle(1.0), SampleSpec(n=50, beta=0.5, k0=float("nan"), seed=0))

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SampleSpec(n=0)
        with pytest.raises(ValueError):
            SampleSpec(n=5, beta=0.0)
        with pytest.raises(ValueError):
            LabeledCloud(np.zeros((3, 2)), np.zeros(2), SampleSpec(n=3))

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
        save_cloud_csv(path, pts, labels)
        got_pts, got_labels = load_cloud_csv(path)
        assert np.array_equal(got_pts, pts)
        assert np.array_equal(got_labels, labels)

    def test_no_labels(self, tmp_path):
        pts = np.array([[1.0, 2.0], [3.0, 4.0]])
        path = tmp_path / "cloud.csv"
        save_cloud_csv(path, pts)
        got_pts, got_labels = load_cloud_csv(path)
        assert np.array_equal(got_pts, pts)
        assert got_labels is None

    def test_header(self, tmp_path):
        path = tmp_path / "cloud.csv"
        save_cloud_csv(path, np.zeros((1, 3)), np.zeros(1, dtype=np.int8))
        assert path.read_text().splitlines()[0] == "x0,x1,x2,label"

    def test_one_row_round_trip(self, tmp_path):
        path = tmp_path / "cloud.csv"
        pts = np.array([[0.1, -2.5, 1e-300]])
        save_cloud_csv(path, pts, np.ones(1, dtype=np.int8))
        got_pts, got_labels = load_cloud_csv(path)
        assert np.array_equal(got_pts, pts)
        assert np.array_equal(got_labels, [1])

    @pytest.mark.parametrize("rest", ["", "\n\n"])
    def test_header_only_raises_without_warning(self, tmp_path, rest):
        # numpy used to warn that it read no data before the "no points" error
        path = tmp_path / "cloud.csv"
        path.write_text("x0,x1,label\n" + rest)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="no points"):
                load_cloud_csv(path)

    @pytest.mark.parametrize("n_labels", [2, 5])
    def test_label_count_mismatch(self, tmp_path, n_labels):
        # 5 labels for 3 points used to write 3 rows and drop 2 labels
        path = tmp_path / "cloud.csv"
        with pytest.raises(ValueError, match=f"got {n_labels} labels for 3 points"):
            save_cloud_csv(path, np.zeros((3, 2)), np.zeros(n_labels, dtype=np.int8))
        assert not path.exists()


class TestGeodesicBounds:
    def test_circle(self):
        rep = verify_geodesic_bounds(Circle(1.0), trials=2000, seed=13)
        assert rep.passed
        assert rep.max_ratio_upper <= 1.0

    def test_sphere(self):
        rep = verify_geodesic_bounds(Sphere(1.0), trials=2000, seed=14)
        assert rep.passed

    def test_torus(self):
        rep = verify_geodesic_bounds(Torus(2.0, 0.5), trials=2000, seed=15)
        assert rep.passed

    def test_coincident_pair_is_degenerate_zero(self):
        circle = Circle(1.0)
        x = circle.point(0.3)
        assert circle_geodesic_distance(circle, x[0], x[0]) == 0.0


class TestStandardness:
    def test_circle_arc_oracle(self):
        rep = verify_standardness(Circle(1.0), [0.1], trials=200_000, seed=16)
        expected = 2.0 * np.arcsin(0.05) / np.pi
        assert rep.estimates[0] == pytest.approx(expected, rel=0.05)

    def test_circle_small_radius_ratio_stabilizes(self):
        rep = verify_standardness(
            Circle(1.0), [0.02, 0.05, 0.1], trials=400_000, seed=17
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
