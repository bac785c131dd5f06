import math

import numpy as np
import pytest

from dense_oracles import field_of, local_covariance, subspaces
from tdcrecon.geometry import Subspace, principal_angle
from tdcrecon.models import Circle, SampleSpec, sample
from tdcrecon.tangent import (
    TangentField,
    TseParams,
    default_bandwidth,
    estimate_tangents,
)


def span(*vectors):
    basis = np.array(vectors, dtype=float).T
    basis /= np.linalg.norm(basis, axis=0)
    return Subspace(basis)


class TestLocalCovariance:
    def test_two_symmetric_neighbors(self):
        pts = np.array([[0.0, 0.0], [-1.0, 0.0], [1.0, 0.0]])
        cov = local_covariance(pts, 0, h=2.0)
        assert np.allclose(cov, np.diag([1.0, 0.0]))

    def test_single_neighbor_zero_scatter(self):
        pts = np.array([[0.0, 0.0], [0.5, 0.0], [9.0, 9.0]])
        cov = local_covariance(pts, 0, h=1.0)
        assert np.allclose(cov, 0.0)

    def test_no_neighbors_zero(self):
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        assert np.allclose(local_covariance(pts, 0, h=1.0), 0.0)

    def test_closed_ball_boundary_counts(self):
        pts = np.array([[0.0], [2.0], [-2.0]])
        cov = local_covariance(pts, 0, h=2.0)
        # both boundary points are neighbors: scatter 2 * 2^2 / (n-1) = 4
        assert cov[0, 0] == pytest.approx(4.0)

    def test_matches_formula_by_hand(self):
        rng = np.random.default_rng(0)
        pts = rng.normal(size=(12, 3))
        h = 2.5
        j = 4
        nb = [
            i
            for i in range(12)
            if i != j and np.dot(pts[i] - pts[j], pts[i] - pts[j]) <= h * h
        ]
        bary = pts[nb].mean(axis=0)
        expected = sum(np.outer(pts[i] - bary, pts[i] - bary) for i in nb) / 11
        assert np.allclose(local_covariance(pts, j, h), expected, atol=1e-12)


class TestDefaultBandwidth:
    def test_direct_arithmetic_d1(self):
        assert default_bandwidth(101, 1, 1.0) == pytest.approx(math.log(101) / 100)

    def test_direct_arithmetic_d2(self):
        assert default_bandwidth(10001, 2, 1.0) == pytest.approx(
            (math.log(10001) / 10000) ** 0.5, abs=1e-9
        )
        assert default_bandwidth(10001, 2, 1.0) == pytest.approx(0.03035, abs=2e-5)

    def test_homogeneity_in_c(self):
        for d in (1, 2, 3):
            assert default_bandwidth(500, d, 2.0) == pytest.approx(
                2 ** (1.0 / d) * default_bandwidth(500, d, 1.0)
            )

    def test_preconditions(self):
        with pytest.raises(ValueError):
            default_bandwidth(2, 1)
        with pytest.raises(ValueError):
            default_bandwidth(100, 1, c=0.0)

    def test_nan_c_raises(self):
        # the bandwidth used to come back NaN
        with pytest.raises(ValueError, match="need c > 0"):
            default_bandwidth(100, 1, c=float("nan"))

    def test_zero_dimension_raises(self):
        # the exponent 1/d used to raise ZeroDivisionError
        with pytest.raises(ValueError, match="need d >= 1"):
            default_bandwidth(100, 0)


class TestEstimateTangents:
    def test_collinear_points(self):
        x = np.linspace(0.0, 1.0, 50)
        pts = np.column_stack([x, np.zeros(50), np.zeros(50)])
        field = estimate_tangents(pts, TseParams(h=0.1, d=1, min_neighbors=2))
        assert not len(field.skipped)
        for sub in subspaces(field):
            assert principal_angle(sub, span([1, 0, 0])) < 1e-12

    def test_planar_grid(self):
        g = np.linspace(0.0, 1.0, 20)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(400)])
        step = g[1] - g[0]
        field = estimate_tangents(pts, TseParams(h=3 * step, d=2))
        assert not len(field.skipped)
        plane = span([1, 0, 0], [0, 1, 0])
        for sub in subspaces(field):
            assert principal_angle(sub, plane) < 1e-10

    def test_affine_exactness(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        coeff = rng.normal(size=(80, 2))
        pts = coeff @ basis.T + rng.normal(size=5)
        field = estimate_tangents(pts, TseParams(h=10.0, d=2))
        target = Subspace(basis)
        for sub in subspaces(field):
            assert principal_angle(sub, target) < 1e-10

    def test_min_neighbors_flags(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]])
        field = estimate_tangents(pts, TseParams(h=0.3, d=1, min_neighbors=2))
        assert field.skipped.tolist() == [3]
        assert sorted(field.indices.tolist()) == [0, 1, 2]

    def test_nan_bandwidth_raises(self):
        with pytest.raises(ValueError, match="need bandwidth h > 0"):
            TseParams(h=float("nan"), d=1)

    @pytest.mark.parametrize("min_neighbors", [0, -1])
    def test_min_neighbors_below_one_raises(self, min_neighbors):
        # with none required, the isolated point's estimate was 0 / 0: numpy
        # warned, then eigh did not converge
        with pytest.raises(ValueError, match="need min_neighbors >= 1"):
            TseParams(h=0.3, d=1, min_neighbors=min_neighbors)
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]])
        field = estimate_tangents(pts, TseParams(h=0.3, d=1, min_neighbors=1))
        assert field.skipped.tolist() == [3]

    def test_matches_local_covariance_oracle(self):
        # each estimate spans the top d eigenvectors of the scalar oracle's
        # covariance of that point's closed h-ball
        cloud = sample(Circle(1.0, ambient_dim=4), SampleSpec(n=300, beta=0.9, seed=6))
        field = estimate_tangents(cloud.points, TseParams(h=0.3, d=1))
        assert len(field) > 250
        for j, sub in zip(field.indices, subspaces(field)):
            eigvecs = np.linalg.eigh(local_covariance(cloud.points, j, 0.3))[1]
            want = Subspace(eigvecs[:, -1:])
            assert np.max(np.abs(sub.projector() - want.projector())) <= 1e-9

    def test_dimension_above_ambient_raises(self):
        # d > D used to return D-dimensional "tangents" without complaint
        pts = np.random.default_rng(2).normal(size=(50, 3))
        with pytest.raises(ValueError, match="d <= ambient dimension"):
            estimate_tangents(pts, TseParams(h=5.0, d=4))

    def test_dimension_equal_to_ambient(self):
        pts = np.random.default_rng(2).normal(size=(50, 3))
        field = estimate_tangents(pts, TseParams(h=5.0, d=3))
        assert len(field) == 50
        for sub in subspaces(field):
            assert np.allclose(sub.projector(), np.eye(3), atol=1e-12)

    def test_subset_matches_full(self):
        cloud = sample(Circle(1.0), SampleSpec(n=300, beta=1.0, seed=2))
        params = TseParams(h=0.2, d=1)
        full = estimate_tangents(cloud.points, params)
        part = estimate_tangents(cloud.points, params, subset=[5, 17, 100])
        for j in [5, 17, 100]:
            assert np.array_equal(
                part.subspace_at(j).basis, full.subspace_at(j).basis
            )

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(3)
        cloud = sample(Circle(1.0), SampleSpec(n=200, beta=1.0, seed=4))
        params = TseParams(h=0.25, d=1)
        base = estimate_tangents(cloud.points, params)
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        shift = rng.normal(size=2)
        moved = cloud.points @ rot.T + shift
        rotated = estimate_tangents(moved, params)
        for j, sub in zip(base.indices, subspaces(base)):
            expected = Subspace(rot @ sub.basis)
            assert principal_angle(rotated.subspace_at(j), expected) < 1e-8

    def test_scale_invariance(self):
        cloud = sample(Circle(1.0), SampleSpec(n=200, beta=1.0, seed=5))
        lam = 3.7
        a = estimate_tangents(cloud.points, TseParams(h=0.25, d=1))
        b = estimate_tangents(lam * cloud.points, TseParams(h=lam * 0.25, d=1))
        for j, sub in zip(a.indices, subspaces(a)):
            assert principal_angle(b.subspace_at(j), sub) < 1e-8

    def test_circle_angle_error_shrinks(self):
        # max principal angle against the true tangent must decrease with n
        medians = []
        for n in (500, 1000, 2000):
            worst = []
            for seed in range(3):
                cloud = sample(Circle(1.0), SampleSpec(n=n, beta=1.0, seed=seed))
                h = default_bandwidth(n, 1, c=4.0)
                field = estimate_tangents(cloud.points, TseParams(h=h, d=1))
                field = field.complete(cloud.points)
                model = Circle(1.0)
                errs = [
                    principal_angle(
                        sub, model.tangent(model.project(cloud.points[j]))
                    )
                    for j, sub in zip(field.indices, subspaces(field))
                ]
                worst.append(max(errs))
            medians.append(np.median(worst))
        assert medians[-1] < medians[0]
        assert medians[-1] < 0.35


class TestTangentField:
    def test_complete_inherits_nearest(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [10.5, 0.0]])
        field = field_of([0, 3], [span([1, 0]), span([0, 1])], skipped=[1, 2])
        full = field.complete(pts)
        assert not len(full.skipped)
        assert principal_angle(full.subspace_at(1), span([1, 0])) == 0.0
        assert principal_angle(full.subspace_at(2), span([0, 1])) == 0.0

    def test_complete_from_one_estimate(self):
        # the tree reports the missing second nearest estimate at inf
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        field = field_of([1], [span([0, 1])], skipped=[0, 2])
        full = field.complete(pts)
        assert full.indices.tolist() == [0, 1, 2]
        for j in (0, 1, 2):
            assert principal_angle(full.subspace_at(j), span([0, 1])) == 0.0

    def test_complete_empty_field_errors(self):
        field = field_of([], [], skipped=[0])
        with pytest.raises(ValueError):
            field.complete(np.zeros((1, 2)))

    def test_restrict_reindexes(self):
        field = field_of([2, 5, 7], [span([1, 0]), span([0, 1]), span([1, 1])])
        sub = field.restrict([7, 2])
        assert sub.indices.tolist() == [0, 1]
        assert principal_angle(sub.subspace_at(0), span([1, 1])) == 0.0

    def test_json_round_trip(self):
        field = field_of([1, 4], [span([1, 0, 0]), span([0, 0, 1])])
        back = TangentField.from_json(field.to_json())
        assert back.indices.tolist() == [1, 4]
        for j in (1, 4):
            assert np.array_equal(
                back.subspace_at(j).basis, field.subspace_at(j).basis
            )
