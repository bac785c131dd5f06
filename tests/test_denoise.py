import math

import numpy as np
import pytest

from dense_oracles import field_of
from tdcrecon import denoise
from tdcrecon.checks import verify_slab_inclusion, verify_slab_separation
from tdcrecon.denoise import (
    IterationDiagnostics,
    Schedule,
    SlabSpec,
    calibrate_threshold,
    default_slab_spec,
    diagnostics_to_json,
    in_slab,
    iterative_denoise,
    k_delta,
    k_hat,
    lemma_slab_constants,
    schedule,
    sd_step,
    slab_counts,
)
from tdcrecon.geometry import Subspace
from tdcrecon.models import Circle, SampleSpec, Torus, sample
from tdcrecon.tangent import TseParams


def span(*vectors):
    basis = np.array(vectors, dtype=float).T
    basis /= np.linalg.norm(basis, axis=0)
    return Subspace(basis)


X_AXIS = span([1.0, 0.0])


class TestInSlab:
    def test_center(self):
        spec = SlabSpec(k1=0.5, k2=0.25, t=1.0)
        assert in_slab([1.0, 2.0], X_AXIS, 0.1, spec, [1.0, 2.0])

    def test_inside(self):
        spec = SlabSpec(k1=0.5, k2=0.25, t=1.0)
        assert in_slab([0.0, 0.0], X_AXIS, 0.1, spec, [0.04, 0.002])

    def test_normal_excess(self):
        spec = SlabSpec(k1=0.5, k2=0.25, t=1.0)
        assert not in_slab([0.0, 0.0], X_AXIS, 0.1, spec, [0.04, 0.004])

    def test_closed_boundary(self):
        spec = SlabSpec(k1=0.5, k2=0.25, t=1.0)
        assert in_slab([0.0, 0.0], X_AXIS, 0.1, spec, [0.05, 0.0])

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(0)
        spec = SlabSpec(k1=0.4, k2=0.3, t=1.0)
        for _ in range(100):
            x = rng.normal(size=3)
            y = x + rng.normal(size=3) * 0.05
            sub = span(rng.normal(size=3))
            theta = rng.uniform(0, 2 * np.pi)
            axis_rot = np.array(
                [
                    [np.cos(theta), -np.sin(theta), 0],
                    [np.sin(theta), np.cos(theta), 0],
                    [0, 0, 1],
                ]
            )
            shift = rng.normal(size=3)
            moved_sub = Subspace(axis_rot @ sub.basis)
            assert in_slab(x, sub, 0.2, spec, y) == in_slab(
                axis_rot @ x + shift, moved_sub, 0.2, spec, axis_rot @ y + shift
            )

    @pytest.mark.parametrize("factor", ["k1", "k2", "t"])
    def test_nan_factor_raises(self, factor):
        factors = {"k1": 0.5, "k2": 0.25, "t": 1.0, factor: float("nan")}
        with pytest.raises(ValueError, match="need k1, k2 > 0 and t >= 0"):
            SlabSpec(**factors)


def brute_force_sd_step(points, field_, h, spec, n_total):
    survivors = []
    threshold = spec.t * math.log(n_total - 1)
    for j in range(len(points)):
        count = sum(
            in_slab(points[j], field_.subspace_at(j), h, spec, points[i])
            for i in range(len(points))
        )
        if count >= threshold:
            survivors.append(j)
    return survivors


def constant_field(n, sub):
    return field_of(range(n), [sub] * n)


class TestSdStep:
    def test_low_threshold_keeps_everyone(self):
        pts = np.random.default_rng(1).normal(size=(20, 2))
        spec = SlabSpec(k1=0.5, k2=0.5, t=1.0 / math.log(19))
        out = sd_step(pts, constant_field(20, X_AXIS), 0.01, spec, 20)
        assert out == list(range(20))

    def test_isolated_outlier_removed(self):
        pts = np.vstack([np.column_stack([np.linspace(0, 0.29, 30), np.zeros(30)]),
                         [[0.15, 0.5]]])
        spec = SlabSpec(k1=0.5, k2=1.0, t=3.0 / math.log(30))
        out = sd_step(pts, constant_field(31, X_AXIS), 0.1, spec, 31)
        assert out == list(range(30))

    def test_segment_case_matches_oracle(self):
        pts = np.vstack([np.column_stack([np.linspace(0, 0.29, 30), np.zeros(30)]),
                         [[0.15, 0.5]]])
        spec = SlabSpec(k1=0.5, k2=1.0, t=3.0 / math.log(30))
        field_ = constant_field(31, X_AXIS)
        assert sd_step(pts, field_, 0.1, spec, 31) == brute_force_sd_step(
            pts, field_, 0.1, spec, 31
        )

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(5, 80))
            pts = rng.normal(size=(n, 3))
            field_ = field_of(range(n), [span(rng.normal(size=3)) for _ in range(n)])
            spec = SlabSpec(
                k1=rng.uniform(0.2, 1.0),
                k2=rng.uniform(0.2, 1.0),
                t=rng.uniform(0.0, 3.0),
            )
            h = rng.uniform(0.3, 2.0)
            assert sd_step(pts, field_, h, spec, n) == brute_force_sd_step(
                pts, field_, h, spec, n
            )

    def test_monotone_in_t(self):
        rng = np.random.default_rng(3)
        pts = rng.normal(size=(60, 2))
        field_ = constant_field(60, X_AXIS)
        keep = None
        for t in (0.5, 1.0, 2.0):
            spec = SlabSpec(k1=0.6, k2=0.6, t=t)
            got = set(sd_step(pts, field_, 0.5, spec, 60))
            if keep is not None:
                assert got <= keep
            keep = got

    def test_requires_full_field(self):
        pts = np.zeros((3, 2))
        partial = field_of([0, 1], [X_AXIS, X_AXIS])
        with pytest.raises(ValueError):
            sd_step(pts, partial, 0.1, SlabSpec(0.5, 0.5, 1.0), 3)

    @pytest.mark.parametrize("n_total", [0, 1, 2])
    def test_degenerate_sample_size(self, n_total):
        # log(n - 1) is 0 at n = 2, so every point used to pass whatever t
        pts = np.random.default_rng(4).normal(size=(20, 2))
        with pytest.raises(ValueError, match="need n >= 3"):
            sd_step(pts, constant_field(20, X_AXIS), 0.5, SlabSpec(0.5, 0.5, 5.0), n_total)


class TestSchedule:
    def test_gamma_d2(self):
        s = schedule(n=1000, d=2, beta=1.0, kappa=1.0, k_max=2)
        assert s.gammas == pytest.approx([1 / 3, 5 / 12, 11 / 24])

    def test_gamma_d1(self):
        s = schedule(n=1000, d=1, beta=1.0, kappa=1.0, k_max=2)
        assert s.gammas == pytest.approx([1 / 2, 2 / 3, 7 / 9])

    def test_fixed_point(self):
        for d in (1, 2, 3, 5):
            g = 1.0 / d
            assert (2 * g + 1) / (d + 2) == pytest.approx(g)

    def test_monotone_increasing_below_limit(self):
        s = schedule(n=5000, d=2, beta=0.8, kappa=1.0, k_max=12)
        gam = np.array(s.gammas)
        assert np.all(np.diff(gam) > 0)
        assert np.all(gam <= 1 / 2 + 1e-12)

    def test_h_decreasing_when_base_below_one(self):
        s = schedule(n=5000, d=2, beta=0.8, kappa=1.0, k_max=8)
        assert s.base < 1
        assert np.all(np.diff(s.hs) < 0)
        assert s.hs[-1] > s.h_infinity

    def test_h_at_extends(self):
        s = schedule(n=5000, d=1, beta=1.0, kappa=1.0, k_max=1)
        assert s.h_at(0) == s.hs[0]
        assert s.h_at(5) == pytest.approx(s.base ** s.gamma_at(5))
        assert s.gamma_at(5) < 1.0

    def test_formula(self):
        s = schedule(n=4000, d=1, beta=0.8, kappa=2.0, k_max=0)
        assert s.hs[0] == pytest.approx(
            (2.0 * math.log(4000) / (0.8 * 3999)) ** 0.5
        )

    def test_nan_kappa_raises(self):
        # a NaN kappa made every bandwidth NaN: iterative_denoise kept every
        # point and stopped with "no tangent estimable"
        with pytest.raises(ValueError, match="invalid schedule parameters"):
            schedule(n=200, d=1, beta=0.8, kappa=float("nan"), k_max=2)
        cloud = sample(Circle(1.0), SampleSpec(n=200, beta=0.8, seed=5))
        spec = default_slab_spec(1, 2, 1.0, t=0.4)
        with pytest.raises(ValueError, match="invalid schedule parameters"):
            iterative_denoise(cloud, d=1, beta=0.8, kappa=float("nan"), spec=spec, k_iters=2)


class TestKDelta:
    def test_d2_oracle(self):
        assert k_delta(2, 0.05) == 2

    def test_monotone_in_delta(self):
        prev = None
        for delta in (0.002, 0.01, 0.05, 0.1):
            k = k_delta(2, delta)
            if prev is not None:
                assert k <= prev
            prev = k

    def test_near_boundary(self):
        # gamma_0 = 1/3 < 1/2 - delta for every admissible delta < 1/6,
        # so the first admissible index is 1 just below the boundary
        assert k_delta(2, 1 / 6 - 1e-9) == 1

    def test_range_validation(self):
        with pytest.raises(ValueError):
            k_delta(2, 1 / 6)
        with pytest.raises(ValueError):
            k_delta(2, 0.0)

    def test_delta_to_zero_grows(self):
        assert k_delta(1, 1e-4) > k_delta(1, 1e-2) > 0

    def test_bound_violation_raises(self, monkeypatch):
        # the closed-form check is an exception, not an assert that -O strips
        monkeypatch.setattr(denoise, "_k_delta_bound", lambda d, delta: -5.0)
        with pytest.raises(RuntimeError, match="closed-form bound"):
            k_delta(2, 0.05)


class TestKHat:
    def make_sched(self):
        return schedule(n=200, d=1, beta=1.0, kappa=1.0, k_max=3)

    def test_all_on_manifold(self):
        assert k_hat(np.zeros(10), self.make_sched(), rho=1.0) == 0

    def test_single_far_outlier(self):
        s = self.make_sched()
        # h_0^2 ~ 0.0266, h_1^2 ~ 0.0079: distance 0.01 needs one iteration
        assert s.hs[0] ** 2 > 0.01 > s.hs[1] ** 2
        assert k_hat(np.array([0.0, 0.01]), s, rho=1.0) == 1

    def test_outliers_beyond_h0(self):
        s = self.make_sched()
        assert k_hat(np.array([0.04, 0.05]), s, rho=1.0) == 0

    def test_nan_reach_raises(self):
        # every distance compared below a NaN cut: k_hat used to return 0
        with pytest.raises(ValueError, match="need reach rho > 0"):
            k_hat(np.array([0.0, 0.01]), self.make_sched(), rho=float("nan"))


class TestLemmaConstants:
    def test_values(self):
        k1, k2, k3 = lemma_slab_constants(1, 2, rho=1.0, angle_constant=2.0)
        assert k1 == pytest.approx(3.0 / 20.0)
        assert k2 == pytest.approx(0.25)
        assert k3 == pytest.approx(min(0.25 / 4, 0.075, math.sqrt(0.15), 0.5))

    def test_spec_builder(self):
        spec = default_slab_spec(2, 3, rho=0.5, t=1.0)
        assert spec.k1 == pytest.approx(3.0 / (8.0 + 16.0 * math.sqrt(2.0)))
        assert spec.k2 == pytest.approx(0.25)

    def test_nan_reach_raises(self):
        # k2 and k3 used to come back NaN
        with pytest.raises(ValueError, match="need reach rho > 0"):
            lemma_slab_constants(1, 3, rho=float("nan"))


class TestIterativeDenoise:
    def test_noop_configuration(self):
        cloud = sample(Circle(1.0), SampleSpec(n=50, beta=0.5, seed=4))
        spec = SlabSpec(k1=0.5, k2=0.5, t=0.0)
        keep, diags = iterative_denoise(cloud, 1, 0.5, 1.0, spec, k_iters=0)
        assert keep == list(range(50))
        assert diags[0].survivors == 50

    def test_diagnostics_confusion_counts(self):
        cloud = sample(Circle(1.0), SampleSpec(n=400, beta=0.8, seed=5))
        spec = default_slab_spec(1, 2, 1.0, t=0.3)
        keep, diags = iterative_denoise(cloud, 1, 0.8, 4.0, spec, k_iters=1)
        for d in diags:
            assert d.true_positives + d.false_positives == d.survivors
        payload = diagnostics_to_json(diags)
        assert '"k": 0' in payload and '"h_k"' in payload

    def test_removes_far_outliers_keeps_signal(self):
        cloud = sample(Circle(1.0), SampleSpec(n=2000, beta=0.8, seed=6))
        spec = default_slab_spec(1, 2, 1.0, t=0.4, angle_constant=0.5)
        keep, diags = iterative_denoise(cloud, 1, 0.8, 8.0, spec, k_iters=2)
        keep = np.array(keep)
        signal = set(cloud.signal_indices().tolist())
        kept_signal = [j for j in keep if j in signal]
        # all signal survives and the far outliers are gone
        assert len(kept_signal) == len(signal)
        sched = schedule(2000, 1, 0.8, 8.0, 2)
        far_cut = sched.hs[2] ** 2 / 1.0
        dists = Circle(1.0).distance_many(cloud.points[keep])
        labels = cloud.labels[keep]
        assert np.all(dists[labels == 0] <= far_cut)


def test_calibrate_threshold():
    counts = np.arange(1, 101)
    t = calibrate_threshold(counts, n=1001)
    assert t == pytest.approx(0.5 * np.percentile(counts, 5) / math.log(1000))


@pytest.mark.parametrize("n", [0, 1, 2])
def test_calibrate_threshold_degenerate_sample_size(n):
    # n = 2 used to divide by log(1) = 0
    with pytest.raises(ValueError, match="need n >= 3"):
        calibrate_threshold(np.arange(1, 101), n=n)


class TestLemma4MonteCarla:
    def test_separation_small(self):
        for model in (Circle(1.0), Torus(2.0, 0.5)):
            rep = verify_slab_separation(model, trials=300, seed=7)
            assert rep.passed

    def test_inclusion_small(self):
        for model in (Circle(1.0), Torus(2.0, 0.5)):
            rep = verify_slab_inclusion(model, trials=300, seed=8)
            assert rep.passed
