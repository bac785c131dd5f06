import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tdcrecon.geometry import directed_hausdorff
from tdcrecon.models import Circle, SampleSpec, sample
from tdcrecon.sparsify import farthest_point_sampling


def pairwise_min_dist(points):
    n = len(points)
    return min(
        np.linalg.norm(points[i] - points[j])
        for i in range(n)
        for j in range(i + 1, n)
    )


class TestTraces:
    def test_singleton(self):
        assert farthest_point_sampling(np.array([[0.0]]), eps=0.5) == [0]

    def test_hand_trace_two_kept(self):
        # farthest from 0 is 1 (dist 1 > 0.1), then residual 0.05 <= 0.1
        pts = np.array([[0.0], [0.05], [1.0]])
        assert farthest_point_sampling(pts, eps=0.1, start=0) == [0, 2]

    def test_hand_trace_three_kept(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        assert farthest_point_sampling(pts, eps=0.5, start=0) == [0, 2, 1]

    def test_start_index(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        assert farthest_point_sampling(pts, eps=0.5, start=1) == [1, 0, 2]

    def test_validation(self):
        with pytest.raises(ValueError):
            farthest_point_sampling(np.zeros((0, 2)), 0.5)
        with pytest.raises(ValueError):
            farthest_point_sampling(np.zeros((3, 2)), -1.0)
        with pytest.raises(ValueError):
            farthest_point_sampling(np.zeros((3, 2)), 0.5, start=3)

    def test_nan_eps_raises(self):
        # a NaN eps never stops the greedy: the loop used to run forever
        with pytest.raises(ValueError, match="need eps > 0"):
            farthest_point_sampling(np.zeros((3, 2)), float("nan"))

    def test_tie_break_lowest_index(self):
        pts = np.array([[0.0], [1.0], [-1.0]])
        assert farthest_point_sampling(pts, eps=0.5, start=0) == [0, 1, 2]


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    n=st.integers(1, 120),
    eps=st.floats(0.05, 2.0),
    dim=st.integers(1, 3),
)
def test_sparsity_and_coverage(seed, n, eps, dim):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2, 2, size=(n, dim))
    q = farthest_point_sampling(pts, eps)
    # eps-sparsity is exact: every added point was > eps from the current set
    if len(q) > 1:
        assert pairwise_min_dist(pts[q]) > eps
    # coverage is exact at loop exit
    assert directed_hausdorff(pts, pts[q]) <= eps


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 10_000), eps=st.floats(0.1, 1.0))
def test_idempotence(seed, eps):
    rng = np.random.default_rng(seed)
    pts = rng.uniform(-2, 2, size=(60, 2))
    q = farthest_point_sampling(pts, eps)
    again = farthest_point_sampling(pts[q], eps)
    assert sorted(again) == list(range(len(q)))


def test_net_property_on_manifold():
    # if the input is eps-dense in M then the output is a (eps, 2 eps)-net
    model = Circle(1.0)
    cloud = sample(model, SampleSpec(n=3000, beta=1.0, seed=9))
    reference = model.grid(0.002)
    eps = directed_hausdorff(reference, cloud.points) * 1.05  # cloud density scale
    q = farthest_point_sampling(cloud.points, eps)
    net = cloud.points[q]
    assert pairwise_min_dist(net) > eps
    assert directed_hausdorff(reference, net) <= 2 * eps
