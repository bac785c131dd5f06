import math

import numpy as np
import pytest

from dense_oracles import (
    Subspace,
    estimated_rows,
    local_covariance,
    principal_angle,
    span,
    subspaces,
)
from tdcrecon import tangent
from tdcrecon.geometry import principal_angles
from tdcrecon.models import SampleSpec, Sphere, make_model, sample
from tdcrecon.tangent import _inherit, default_bandwidth, estimate_tangents


def subspace_at(field, j):
    """The field's basis at row j, as a ``Subspace``."""
    return Subspace(field.bases[j])


def estimates(field):
    """``(row, Subspace)`` of each estimated row of a field."""
    rows = estimated_rows(field)
    return zip(rows, subspaces(field.bases[rows]))


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
        with pytest.raises(ValueError, match="need an integer d >= 1"):
            default_bandwidth(100, 0)

    @pytest.mark.parametrize(
        "n, d, message",
        [
            (100.5, 1, "need an integer n >= 3, got 100.5"),
            (100, 1.5, "need an integer d >= 1, got 1.5"),
            (100, True, "need an integer d >= 1, got True"),
            (True, 1, "need an integer n >= 3, got True"),
        ],
    )
    def test_non_integer_sizes_raise(self, n, d, message):
        # each of these used to return a bandwidth
        with pytest.raises(ValueError, match=message):
            default_bandwidth(n, d)

    def test_numpy_integer_sizes(self):
        assert default_bandwidth(np.int64(100), np.int32(2)) == default_bandwidth(100, 2)


class TestBlockBases:
    """The contract of ``_block_bases``: one finite basis for every row of a
    block, without a warning (pytest turns warnings into errors)."""

    @staticmethod
    def _block(points, nbrs, h):
        # row r: the offsets of the neighbours nbrs[r] from point r, padded
        # as _neighbours._blocks pads them, at zero offset and infinite distance
        diff = np.zeros((len(nbrs), max(map(len, nbrs)), points.shape[1]))
        d2 = np.full(diff.shape[:2], np.inf)
        for r, cols in enumerate(nbrs):
            offsets = points[cols] - points[r]
            diff[r, : len(cols)] = offsets
            d2[r, : len(cols)] = np.einsum("wi,wi->w", offsets, offsets)
        return diff, d2 <= h * h

    def test_every_row_has_a_basis(self):
        points = np.random.default_rng(3).normal(size=(12, 4))
        far = 11
        points[far] = 100.0
        # 0, 1, 2, 3 and 6 neighbours within h, and one listed outside it
        nbrs = [[far], [0, far], [0, 1, far], [0, 1, 2, far], [0, 1, 2, 3, 5, 6]]
        diff, near = self._block(points, nbrs, h=50.0)
        ok, bases = tangent._block_bases(diff, near, 2)
        counts = near.sum(axis=1)
        assert counts.tolist() == [0, 1, 2, 3, 6]
        assert np.array_equal(ok, counts >= 3)
        assert bases.shape == (5, 4, 2) and np.isfinite(bases).all()
        for r in np.flatnonzero(ok):
            alone_ok, alone = tangent._block_bases(diff[r : r + 1], near[r : r + 1], 2)
            assert alone_ok.tolist() == [True]
            assert alone[0].tobytes() == bases[r].tobytes()

    def test_isolated_rows(self):
        # a block of zero width: no row has a neighbour at all
        diff, near = np.zeros((3, 0, 5)), np.zeros((3, 0), dtype=bool)
        ok, bases = tangent._block_bases(diff, near, 3)
        assert not ok.any()
        assert bases.shape == (3, 5, 3) and np.isfinite(bases).all()

    def test_single_point_cloud(self):
        # its one row reaches the scatter of no neighbours, the zero matrix
        with pytest.raises(ValueError, match="no tangent estimable"):
            estimate_tangents(np.zeros((1, 3)), 0.1, 1)


class TestEstimateTangents:
    def test_collinear_points(self, monkeypatch):
        monkeypatch.setattr(tangent, "_MIN_NEIGHBORS", 2)
        x = np.linspace(0.0, 1.0, 50)
        pts = np.column_stack([x, np.zeros(50), np.zeros(50)])
        field = estimate_tangents(pts, 0.1, 1)
        assert not len(field.skipped)
        for sub in subspaces(field.bases):
            assert principal_angle(sub, span([1, 0, 0])) < 1e-12

    def test_planar_grid(self):
        g = np.linspace(0.0, 1.0, 20)
        xx, yy = np.meshgrid(g, g)
        pts = np.column_stack([xx.ravel(), yy.ravel(), np.zeros(400)])
        step = g[1] - g[0]
        field = estimate_tangents(pts, 3 * step, 2)
        assert not len(field.skipped)
        plane = span([1, 0, 0], [0, 1, 0])
        for sub in subspaces(field.bases):
            assert principal_angle(sub, plane) < 1e-10

    def test_affine_exactness(self):
        rng = np.random.default_rng(1)
        basis = np.linalg.qr(rng.normal(size=(5, 2)))[0]
        coeff = rng.normal(size=(80, 2))
        pts = coeff @ basis.T + rng.normal(size=5)
        field = estimate_tangents(pts, 10.0, 2)
        target = Subspace(basis)
        for sub in subspaces(field.bases):
            assert principal_angle(sub, target) < 1e-10

    def test_min_neighbors_flags(self, monkeypatch):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [9.0, 9.0]])
        for min_neighbors in (1, 2):
            monkeypatch.setattr(tangent, "_MIN_NEIGHBORS", min_neighbors)
            field = estimate_tangents(pts, 0.3, 1)
            assert field.skipped.tolist() == [3]
            assert estimated_rows(field).tolist() == [0, 1, 2]
            # the isolated point inherits from the nearest estimate
            assert np.array_equal(field.bases[3], field.bases[2])
            assert not field.bases.flags.writeable
        # an estimate needs 3 neighbours; the collinear points have 2 each
        monkeypatch.setattr(tangent, "_MIN_NEIGHBORS", 3)
        with pytest.raises(ValueError, match="no target has 3 neighbours within h"):
            estimate_tangents(pts, 0.3, 1)

    def test_field_is_read_only(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [9.0, 9.0]])
        field = estimate_tangents(pts, 0.35, 1)
        assert field.skipped.tolist() == [4]
        with pytest.raises(ValueError, match="read-only"):
            field.skipped[0] = 0

    def test_nan_bandwidth_raises(self):
        with pytest.raises(ValueError, match="need bandwidth h > 0"):
            estimate_tangents(np.eye(3), float("nan"), 1)

    @pytest.mark.parametrize("d", [1.5, 1.0, True])
    def test_non_integer_dimension_raises(self, d):
        # d = 1.5 used to pass and then fail in np.empty with a TypeError
        with pytest.raises(ValueError, match="need an integer intrinsic dimension"):
            estimate_tangents(np.eye(3), 0.5, d)

    def test_numpy_integer_dimension(self):
        pts = np.column_stack([np.linspace(0.0, 1.0, 20), np.zeros(20)])
        field = estimate_tangents(pts, 0.2, np.int64(1))
        assert field.bases.shape == (20, 2, 1)

    @pytest.mark.parametrize("shape", [(5,), (4, 5, 2)])
    def test_points_not_two_dimensional_raise(self, shape):
        # these used to fail unpacking the shape: not enough / too many values
        with pytest.raises(ValueError, match=r"need an \(n, D\) point array"):
            estimate_tangents(np.zeros(shape), 0.5, 1)

    def test_matches_local_covariance_oracle(self):
        # each estimate spans the top d eigenvectors of the scalar oracle's
        # covariance of that point's closed h-ball
        cloud = sample(make_model("circle", ambient_dim=4), SampleSpec(n=300, beta=0.9, seed=6))
        field = estimate_tangents(cloud.points, 0.3, 1)
        assert len(field.bases) - len(field.skipped) > 250
        for j, sub in estimates(field):
            eigvecs = np.linalg.eigh(local_covariance(cloud.points, j, 0.3))[1]
            want = Subspace(eigvecs[:, -1:])
            assert np.max(np.abs(sub.projector() - want.projector())) <= 1e-9

    def test_dimension_above_ambient_raises(self):
        # d > D used to return D-dimensional "tangents" without complaint
        pts = np.random.default_rng(2).normal(size=(50, 3))
        with pytest.raises(ValueError, match="d < ambient dimension"):
            estimate_tangents(pts, 5.0, 4)

    def test_dimension_equal_to_ambient(self):
        # d = D used to return R^D itself as every "tangent"
        pts = np.random.default_rng(2).normal(size=(50, 3))
        with pytest.raises(ValueError, match="need d < ambient dimension, got d=3 in R\\^3"):
            estimate_tangents(pts, 5.0, 3)

    def test_subset_matches_full(self):
        cloud = sample(make_model("circle"), SampleSpec(n=300, beta=1.0, seed=2))
        h, d = 0.2, 1
        full = estimate_tangents(cloud.points, h, d)
        part = estimate_tangents(cloud.points, h, d, subset=[5, 17, 100])
        for k, j in enumerate([5, 17, 100]):
            assert np.array_equal(part.bases[k], full.bases[j])

    def test_rigid_motion_equivariance(self):
        rng = np.random.default_rng(3)
        cloud = sample(make_model("circle"), SampleSpec(n=200, beta=1.0, seed=4))
        h, d = 0.25, 1
        base = estimate_tangents(cloud.points, h, d)
        theta = 0.7
        rot = np.array(
            [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]]
        )
        shift = rng.normal(size=2)
        moved = cloud.points @ rot.T + shift
        rotated = estimate_tangents(moved, h, d)
        for j, sub in estimates(base):
            expected = Subspace(rot @ sub.basis)
            assert principal_angle(subspace_at(rotated, j), expected) < 1e-8

    def test_scale_invariance(self):
        cloud = sample(make_model("circle"), SampleSpec(n=200, beta=1.0, seed=5))
        lam = 3.7
        a = estimate_tangents(cloud.points, 0.25, 1)
        b = estimate_tangents(lam * cloud.points, lam * 0.25, 1)
        for j, sub in estimates(a):
            assert principal_angle(subspace_at(b, j), sub) < 1e-8

    def test_circle_angle_error_shrinks(self):
        # max principal angle against the true tangent must decrease with n
        medians = []
        for n in (500, 1000, 2000):
            worst = []
            for seed in range(3):
                cloud = sample(make_model("circle"), SampleSpec(n=n, beta=1.0, seed=seed))
                h = default_bandwidth(n, 1, c=4.0)
                field = estimate_tangents(cloud.points, h, 1)
                model = make_model("circle")
                true = model.tangent_many(model.project_many(cloud.points))
                worst.append(principal_angles(field.bases, true).max())
            medians.append(np.median(worst))
        assert medians[-1] < medians[0]
        assert medians[-1] < 0.35

    def test_3sphere_angle_error_shrinks(self):
        # S^3 in R^6: the median angle at 300 targets was about 0.031 at
        # n=2000 and 0.018 at n=8000 on seeds 7-10
        model = Sphere(1.0, ambient_dim=6, intrinsic_dim=3)
        medians = []
        for n in (2000, 8000):
            cloud = sample(model, SampleSpec(n=n, beta=1.0, seed=7))
            targets = np.arange(300)
            h, d = default_bandwidth(n, 3, 40.0), 3
            field = estimate_tangents(cloud.points, h, d, subset=targets)
            assert field.skipped.size == 0
            true = model.tangent_many(cloud.points[targets])
            medians.append(np.median(principal_angles(field.bases, true)))
        assert medians[1] < 0.8 * medians[0]
        assert medians[1] < 0.03


def stack(*subs):
    """The bases of some ``Subspace`` objects as one (m, D, d) stack."""
    return np.stack([sub.basis for sub in subs])


class TestTangentField:
    def test_complete_inherits_nearest(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 0.0], [10.5, 0.0]])
        bases = stack(span([1, 0]), span([1, 1]), span([1, 1]), span([0, 1]))
        skipped = _inherit(pts, bases, np.array([True, False, False, True]))
        assert skipped.tolist() == [1, 2]
        assert principal_angle(Subspace(bases[1]), span([1, 0])) == 0.0
        assert principal_angle(Subspace(bases[2]), span([0, 1])) == 0.0

    def test_complete_from_one_estimate(self):
        # the tree reports the missing second nearest estimate at inf
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 3.0]])
        bases = stack(span([1, 0]), span([0, 1]), span([1, 0]))
        assert _inherit(pts, bases, np.array([False, True, False])).tolist() == [0, 2]
        for j in (0, 1, 2):
            assert principal_angle(Subspace(bases[j]), span([0, 1])) == 0.0

    def test_complete_empty_field_errors(self, monkeypatch):
        with pytest.raises(ValueError, match="no tangent estimable"):
            _inherit(np.zeros((1, 2)), np.zeros((1, 2, 1)), np.array([False]))
        # no point has a neighbour within h: nothing to inherit from
        pts = np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]])
        monkeypatch.setattr(tangent, "_MIN_NEIGHBORS", 1)
        with pytest.raises(ValueError, match="no tangent estimable"):
            estimate_tangents(pts, 1.0, 1)

    def test_restrict_reindexes(self):
        # the field of a subset is re-indexed to it: row k is subset[k]
        cloud = sample(make_model("circle"), SampleSpec(n=300, beta=1.0, seed=2))
        h, d = 0.2, 1
        full = estimate_tangents(cloud.points, h, d)
        sub = estimate_tangents(cloud.points, h, d, subset=[7, 2, 7])
        assert sub.bases.shape == (3, 2, 1)
        assert np.array_equal(sub.bases, full.bases[[7, 2, 7]])
