import dataclasses
import json
import math

import numpy as np
import pytest
from scipy.spatial import cKDTree

import dense_oracles as dense
from dense_oracles import Subspace, in_slab, span
from lemma_checks import inclusion_radius_factor, verify_slab_inclusion, verify_slab_separation
from tdcrecon import _neighbours
from tdcrecon.denoise import (
    IterationDiagnostics,
    SlabSpec,
    bandwidths,
    default_slab_spec,
    diagnostics_to_json,
    iterative_denoise,
    k_delta,
)
from tdcrecon.models import (
    LabeledCloud,
    SampleSpec,
    Torus,
    load_cloud_csv,
    make_model,
    sample,
    save_cloud_csv,
)


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
        message = "need t >= 0 and finite" if factor == "t" else f"need {factor} > 0 and finite"
        with pytest.raises(ValueError, match=message):
            SlabSpec(**factors)


def brute_force_sd_step(points, bases, h, spec, n_total):
    survivors = []
    threshold = spec.t * math.log(n_total - 1)
    for j in range(len(points)):
        tangent = Subspace(bases[j])
        count = sum(in_slab(points[j], tangent, h, spec, y) for y in points)
        if count >= threshold:
            survivors.append(j)
    return survivors


def dense_sd_step(points, bases, h, spec, n_total):
    """The reference step: the dense slab counts against t log(n-1)."""
    counts = dense.slab_counts(points, bases, h, spec)
    return np.flatnonzero(counts >= spec.t * math.log(n_total - 1)).tolist()


def constant_field(n, sub):
    """The bases of n points that all have the tangent ``sub``."""
    return np.repeat(sub.basis[None], n, axis=0)


def one_step(points, d, kappa, spec):
    """Survivors and diagnostics of one denoising step, iterative_denoise(k_iters=0)."""
    points = np.asarray(points, dtype=float)
    n = len(points)
    cloud = LabeledCloud(points, np.ones(n, dtype=np.int8))
    keep, diags = iterative_denoise(cloud, d, 1.0, kappa, spec, k_iters=0)
    return keep, diags[0]


class TestSdStep:
    """One slab-denoising step of the paper, and the dense reference for it.

    The step is iterative_denoise with k_iters=0.  The reference, the dense
    slab counts of ``dense_oracles`` against the threshold, is tied to the
    slab predicate ``in_slab`` point pair by point pair.
    """

    def test_low_threshold_keeps_everyone(self):
        pts = np.random.default_rng(1).normal(size=(20, 2))
        # every slab holds its centre: a count of 1 meets t log(19) = 1
        spec = SlabSpec(k1=0.5, k2=0.5, t=1.0 / math.log(19))
        keep, diag = one_step(pts, 1, 5.0, spec)
        assert diag.stop_reason is None
        assert keep == list(range(20))

    def test_isolated_outlier_removed(self):
        pts = np.vstack([np.column_stack([np.linspace(0, 0.29, 30), np.zeros(30)]),
                         [[0.15, 0.5]]])
        spec = SlabSpec(k1=0.5, k2=1.0, t=3.0 / math.log(30))
        # h_0 = 0.107: the outlier has no neighbour and inherits the segment's tangent
        keep, diag = one_step(pts, 1, 0.1, spec)
        assert diag.h_k == pytest.approx(0.107, abs=1e-3)
        assert diag.inherited == 1
        assert keep == list(range(30))

    def test_segment_case_matches_oracle(self):
        pts = np.vstack([np.column_stack([np.linspace(0, 0.29, 30), np.zeros(30)]),
                         [[0.15, 0.5]]])
        spec = SlabSpec(k1=0.5, k2=1.0, t=3.0 / math.log(30))
        field_ = constant_field(31, X_AXIS)
        want = brute_force_sd_step(pts, field_, 0.1, spec, 31)
        assert want == list(range(30))
        assert dense_sd_step(pts, field_, 0.1, spec, 31) == want

    def test_matches_oracle_random(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(5, 80))
            pts = rng.normal(size=(n, 3))
            field_ = np.stack([span(rng.normal(size=3)).basis for _ in range(n)])
            spec = SlabSpec(
                k1=rng.uniform(0.2, 1.0),
                k2=rng.uniform(0.2, 1.0),
                t=rng.uniform(0.0, 3.0),
            )
            h = rng.uniform(0.3, 2.0)
            assert dense_sd_step(pts, field_, h, spec, n) == brute_force_sd_step(
                pts, field_, h, spec, n
            )

    def test_monotone_in_t(self):
        pts = np.random.default_rng(3).normal(size=(60, 2))
        keep = None
        # thresholds of about 1, 2 and 3 points
        for t in (0.25, 0.5, 0.75):
            spec = SlabSpec(k1=0.6, k2=0.6, t=t)
            got = set(one_step(pts, 1, 4.0, spec)[0])
            if keep is not None:
                assert got <= keep
            keep = got
        assert keep

    @pytest.mark.parametrize("n_total", [0, 1, 2])
    def test_degenerate_sample_size(self, n_total):
        # log(n - 1) is 0 at n = 2, so every point would pass whatever t
        pts = np.random.default_rng(4).normal(size=(20, 2))[:n_total]
        with pytest.raises(ValueError, match="need an integer n >= 3"):
            one_step(pts, 1, 1.0, SlabSpec(0.5, 0.5, 5.0))


def exponents(n, d, beta, kappa, k_iters):
    """gamma_0 .. gamma_{k_iters} read back from the bandwidths as log h_k / log base."""
    base = kappa * math.log(n) / (beta * (n - 1))
    return [math.log(h) / math.log(base) for h in bandwidths(n, d, beta, kappa, k_iters)]


def closed_form_gamma(d, k):
    """gamma_k = 1/d - (2/(d+2))^k / (d(d+1)), the solution of the recurrence."""
    return 1.0 / d - (2.0 / (d + 2.0)) ** k / (d * (d + 1))


class TestSchedule:
    """The bandwidth schedule h_k = base ** gamma_k that ``bandwidths`` lists."""

    def test_gamma_d2(self):
        assert exponents(1000, 2, 1.0, 1.0, 2) == pytest.approx([1 / 3, 5 / 12, 11 / 24])

    def test_gamma_d1(self):
        assert exponents(1000, 1, 1.0, 1.0, 2) == pytest.approx([1 / 2, 2 / 3, 7 / 9])

    def test_fixed_point(self):
        for d in (1, 2, 3, 5):
            g = 1.0 / d
            assert (2 * g + 1) / (d + 2) == pytest.approx(g)

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_closed_form_oracle(self, d):
        # the walk of the recurrence against its solution
        assert exponents(5000, d, 0.8, 1.0, 12) == pytest.approx(
            [closed_form_gamma(d, k) for k in range(13)], rel=1e-12
        )

    def test_monotone_increasing_below_limit(self):
        gam = np.array(exponents(5000, 2, 0.8, 1.0, 12))
        assert np.all(np.diff(gam) > 0)
        assert np.all(gam <= 1 / 2 + 1e-12)

    def test_h_decreasing_when_base_below_one(self):
        base = math.log(5000) / (0.8 * 4999)
        assert base < 1
        hs = bandwidths(5000, 2, 0.8, 1.0, 8)
        assert len(hs) == 9
        assert np.all(np.diff(hs) < 0)
        # above the limit base ** (1/d)
        assert hs[-1] > base ** (1.0 / 2)

    def test_h_at_extends(self):
        # a longer schedule extends a shorter one, bit for bit
        base = math.log(5000) / 4999
        hs = bandwidths(5000, 1, 1.0, 1.0, 5)
        assert hs[:1] == bandwidths(5000, 1, 1.0, 1.0, 0) == [base**0.5]
        assert hs[:3] == bandwidths(5000, 1, 1.0, 1.0, 2)
        assert hs[5] == pytest.approx(base ** closed_form_gamma(1, 5))
        assert exponents(5000, 1, 1.0, 1.0, 5)[5] < 1.0

    def test_negative_index_raises(self):
        # a negative index once read the last stored exponent; a negative
        # count is no schedule at all
        with pytest.raises(ValueError, match="need an integer k_iters >= 0, got -1"):
            bandwidths(1000, 2, 1.0, 1.0, -1)
        with pytest.raises(ValueError, match="need an integer k_iters >= 0, got -3"):
            bandwidths(1000, 2, 1.0, 1.0, -3)

    def test_formula(self):
        assert bandwidths(4000, 1, 0.8, 2.0, 0)[0] == pytest.approx(
            (2.0 * math.log(4000) / (0.8 * 3999)) ** 0.5
        )

    @pytest.mark.parametrize(
        "n, d, beta, kappa, message",
        [
            # n - 1 = 0: h_0 divided by zero
            (1, 1, 1.0, 1.0, "need an integer n >= 3"),
            # d = 0, and with kappa = -1 a negative bandwidth, -0.0465
            (100, 0, 1.0, -1.0, "need an integer d >= 1"),
            # beta is a fraction of signal points
            (100, 1, 2.0, 1.0, "need 0 < beta <= 1, got 2.0"),
        ],
    )
    def test_direct_construction_validates(self, n, d, beta, kappa, message):
        with pytest.raises(ValueError, match=message):
            bandwidths(n, d, beta, kappa, 2)

    @pytest.mark.parametrize(
        "n, d, message",
        [
            (100.5, 1, "need an integer n >= 3, got 100.5"),
            (100, 1.5, "need an integer d >= 1, got 1.5"),
            (100, True, "need an integer d >= 1, got True"),
        ],
    )
    def test_non_integer_sizes_raise(self, n, d, message):
        # each of these used to build
        with pytest.raises(ValueError, match=message):
            bandwidths(n, d, 0.8, 1.0, 2)

    def test_numpy_integer_sizes(self):
        hs = bandwidths(np.int64(100), np.int32(1), 0.8, 1.0, np.int64(1))
        assert hs == bandwidths(100, 1, 0.8, 1.0, 1)

    def test_nan_kappa_raises(self):
        # a NaN kappa made every bandwidth NaN: iterative_denoise kept every
        # point and stopped with "no tangent estimable"
        with pytest.raises(ValueError, match="need kappa > 0 and finite, got nan"):
            bandwidths(200, 1, 0.8, float("nan"), 2)
        cloud = sample(make_model("circle"), SampleSpec(n=200, beta=0.8, seed=5))
        spec = default_slab_spec(1, 2, 1.0, t=0.4)
        with pytest.raises(ValueError, match="need kappa > 0 and finite, got nan"):
            iterative_denoise(cloud, d=1, beta=0.8, kappa=float("nan"), spec=spec, k_iters=2)

    def test_growing_schedule_raises(self, monkeypatch):
        # a base of 1 or more made h_k grow: kappa = 1e6 ran to h_2 = 3002 and
        # kept all 200 points, 18 of them outliers
        searches = []

        class Counted(cKDTree):
            def query_pairs(self, *args, **kwargs):
                searches.append(args)
                return super().query_pairs(*args, **kwargs)

        monkeypatch.setattr(_neighbours, "cKDTree", Counted)
        base = 1e6 * math.log(200) / (0.9 * 199)
        message = f"need kappa log\\(n\\) / \\(beta \\(n - 1\\)\\) < 1, got {base!r}"
        with pytest.raises(ValueError, match=message):
            bandwidths(200, 1, 0.9, 1e6, 2)
        cloud = sample(make_model("circle"), SampleSpec(n=200, beta=0.9, seed=5))
        spec = default_slab_spec(1, 2, 1.0, t=0.4)
        with pytest.raises(ValueError, match=message):
            iterative_denoise(cloud, 1, 0.9, 1e6, spec, k_iters=2)
        assert searches == []

    def test_every_scale_checked_before_use(self):
        # d = "1" used to reach d >= D first: TypeError, '>=' not supported
        cloud = sample(make_model("circle"), SampleSpec(n=200, beta=0.8, seed=5))
        spec = default_slab_spec(1, 2, 1.0, t=0.4)
        with pytest.raises(ValueError, match="need an integer d >= 1, got '1'"):
            iterative_denoise(cloud, d="1", beta=0.8, kappa=8.0, spec=spec, k_iters=2)


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

    @pytest.mark.parametrize("d", [0, -1])
    def test_zero_dimension_raises(self, d):
        # the bound 1/(d(d+1)) used to divide by zero
        with pytest.raises(ValueError, match="need an integer d >= 1"):
            k_delta(d, 0.1)

    @pytest.mark.parametrize("d", [True, 1.5, 2.0])
    def test_non_integer_dimension_raises(self, d):
        # k_delta(True, 0.1) used to return 4
        with pytest.raises(ValueError, match="need an integer d >= 1"):
            k_delta(d, 0.1)

    def test_numpy_integer_dimension(self):
        assert k_delta(np.int64(2), 0.05) == 2

    def test_range_validation(self):
        with pytest.raises(ValueError):
            k_delta(2, 1 / 6)
        with pytest.raises(ValueError):
            k_delta(2, 0.0)

    def test_delta_to_zero_grows(self):
        assert k_delta(1, 1e-4) > k_delta(1, 1e-2) > 0

    @pytest.mark.parametrize("d", [1, 2, 3, 5])
    def test_closed_form_oracle(self, d):
        # gamma_k >= 1/d - delta exactly when (2/(d+2))^k <= delta d(d+1):
        # k_delta is the closed form rounded up, for deltas whose closed form
        # lies clear of an integer
        rng = np.random.default_rng(d)
        top = 1.0 / (d * (d + 1))
        checked = 0
        for delta in top * rng.uniform(1e-6, 1.0, size=200):
            bound = math.log(1.0 / (delta * d * (d + 1))) / math.log((d + 2.0) / 2.0)
            if abs(bound - round(bound)) < 1e-6:
                continue
            k = k_delta(d, delta)
            assert k == max(0, math.ceil(bound))
            assert closed_form_gamma(d, k) >= 1.0 / d - delta
            assert k == 0 or closed_form_gamma(d, k - 1) < 1.0 / d - delta
            checked += 1
        assert checked > 190


class TestLemmaConstants:
    def test_values(self):
        spec = default_slab_spec(1, 2, rho=1.0, t=0.0, angle_constant=2.0)
        assert spec.k1 == pytest.approx(3.0 / 20.0)
        assert spec.k2 == pytest.approx(0.25)

    def test_spec_builder(self):
        spec = default_slab_spec(2, 3, rho=0.5, t=1.0)
        assert spec.k1 == pytest.approx(3.0 / (8.0 + 16.0 * math.sqrt(2.0)))
        assert spec.k2 == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "d, angle_constant",
        [(1, True), (1, -0.25), (1, math.nan), (1, math.inf), (4, -1.0)],
        ids=["bool", "negative", "nan", "inf", "d4-minus-one"],
    )
    def test_bad_angle_constant_raises(self, d, angle_constant):
        # True gave k1 = 0.25, -0.25 a slab wider than its ball (k1 = 1.5),
        # inf "need k1 > 0", and d = 4 with K = -1 a ZeroDivisionError
        with pytest.raises(ValueError, match="need angle constant K > 0 and finite"):
            default_slab_spec(d, d + 2, 1.0, 0.4, angle_constant=angle_constant)

    def test_zero_dimension_raises(self):
        # k1 = 3 / (4 d + 8 K sqrt(d)) used to divide by zero
        with pytest.raises(ValueError, match="need an integer d >= 1"):
            default_slab_spec(0, 3, 1.0, t=0.0)

    @pytest.mark.parametrize(
        "d, ambient_dim, message",
        [
            (True, 10, "need an integer d >= 1, got True"),
            (1.5, 10, "need an integer d >= 1, got 1.5"),
            (1, 10.5, "need an integer ambient_dim >= 2, got 10.5"),
            (2, 2, "need an integer ambient_dim >= 3, got 2"),
        ],
    )
    def test_non_integer_sizes_raise(self, d, ambient_dim, message):
        # the first three used to return a spec
        with pytest.raises(ValueError, match=message):
            default_slab_spec(d, ambient_dim, 1.0, t=0.0)

    def test_numpy_integer_sizes(self):
        spec = default_slab_spec(np.int64(2), np.int32(3), rho=0.5, t=1.0)
        assert spec == default_slab_spec(2, 3, rho=0.5, t=1.0)

    def test_nan_reach_raises(self):
        # k2 used to come back NaN
        with pytest.raises(ValueError, match="need reach rho > 0"):
            default_slab_spec(1, 3, rho=float("nan"), t=0.0)


class TestIterativeDenoise:
    def test_noop_configuration(self):
        cloud = sample(make_model("circle"), SampleSpec(n=50, beta=0.5, seed=4))
        spec = SlabSpec(k1=0.5, k2=0.5, t=0.0)
        keep, diags = iterative_denoise(cloud, 1, 0.5, 1.0, spec, k_iters=0)
        assert keep == list(range(50))
        assert diags[0].survivors == 50

    def test_unlabelled_cloud(self, tmp_path):
        # a cloud read from a file without labels used to fail on construction
        cloud = sample(make_model("circle"), SampleSpec(n=400, beta=0.8, seed=5))
        save_cloud_csv(tmp_path / "cloud.csv", LabeledCloud(cloud.points))
        read = load_cloud_csv(tmp_path / "cloud.csv")
        assert read.labels is None
        spec = default_slab_spec(1, 2, 1.0, t=0.3)
        want, labelled = iterative_denoise(cloud, 1, 0.8, 4.0, spec, k_iters=1)
        keep, diags = iterative_denoise(read, 1, 0.8, 4.0, spec, k_iters=1)
        assert keep == want and len(keep) < cloud.n
        assert diags == [
            dataclasses.replace(d, true_positives=None, false_positives=None) for d in labelled
        ]

    def test_diagnostics_confusion_counts(self):
        cloud = sample(make_model("circle"), SampleSpec(n=400, beta=0.8, seed=5))
        spec = default_slab_spec(1, 2, 1.0, t=0.3)
        keep, diags = iterative_denoise(cloud, 1, 0.8, 4.0, spec, k_iters=1)
        for d in diags:
            assert d.true_positives + d.false_positives == d.survivors
        payload = diagnostics_to_json(diags)
        assert '"k": 0' in payload and '"h_k"' in payload

    def test_diagnostics_json_keys_are_fields(self):
        cloud = sample(make_model("circle"), SampleSpec(n=400, beta=0.8, seed=5))
        spec = default_slab_spec(1, 2, 1.0, t=0.3)
        _, diags = iterative_denoise(cloud, 1, 0.8, 4.0, spec, k_iters=1)
        names = [f.name for f in dataclasses.fields(IterationDiagnostics)]
        records = json.loads(diagnostics_to_json(diags))
        assert [list(record) for record in records] == [names] * len(diags)
        for diag, record in zip(diags, records, strict=True):
            assert record == dataclasses.asdict(diag)

    def test_diagnostics_json_text(self):
        # the record of a fixed run, key order and float digits included
        cloud = sample(make_model("circle"), SampleSpec(n=400, beta=0.8, seed=5))
        spec = default_slab_spec(1, 2, 1.0, t=0.3)
        _, diags = iterative_denoise(cloud, 1, 0.8, 4.0, spec, k_iters=1)
        assert diagnostics_to_json(diags) == (
            '[{"k": 0, "h_k": 0.27400914101952034, "survivors": 310, '
            '"true_positives": 310, "false_positives": 0, "inherited": 70, '
            '"stop_reason": null, "threshold": 1.796688425066959, "slab_p05": 1.0, '
            '"slab_p50": 5.0, "neighbours_mean": 23.445}, '
            '{"k": 1, "h_k": 0.1779727051407696, "survivors": 293, '
            '"true_positives": 293, "false_positives": 0, "inherited": 0, '
            '"stop_reason": null, "threshold": 1.796688425066959, "slab_p05": 1.0, '
            '"slab_p50": 4.0, "neighbours_mean": 18.36774193548387}]'
        )

    @pytest.mark.parametrize("k_iters", [-1, True, 1.5, 2.0, None], ids=repr)
    def test_iteration_count_is_a_non_negative_integer(self, k_iters):
        # True ran two iterations, 1.5 raised a TypeError from range()
        cloud = sample(make_model("circle"), SampleSpec(n=50, beta=0.8, seed=4))
        with pytest.raises(ValueError, match="need an integer k_iters >= 0"):
            iterative_denoise(cloud, 1, 0.8, 1.0, SlabSpec(0.5, 0.5, 1.0), k_iters=k_iters)

    def test_iteration_count_takes_numpy_integers(self):
        cloud = sample(make_model("circle"), SampleSpec(n=300, beta=0.8, seed=4))
        spec = SlabSpec(0.5, 0.5, 1.0)
        want = iterative_denoise(cloud, 1, 0.8, 4.0, spec, k_iters=1)
        assert iterative_denoise(cloud, 1, 0.8, 4.0, spec, k_iters=np.int64(1)) == want

    def test_dimension_above_ambient_raises(self):
        cloud = sample(make_model("circle"), SampleSpec(n=50, beta=0.8, seed=4))
        with pytest.raises(ValueError, match="need d < ambient dimension, got d=3 in R\\^2"):
            iterative_denoise(cloud, 3, 0.8, 1.0, SlabSpec(0.5, 0.5, 1.0), k_iters=0)

    def test_dimension_equal_to_ambient_raises(self):
        # a circle in R^2 denoised as a 2-manifold used to run and keep 254 of 300 points
        cloud = sample(make_model("circle"), SampleSpec(n=300, beta=0.8, seed=4))
        with pytest.raises(ValueError, match="need d < ambient dimension, got d=2 in R\\^2"):
            iterative_denoise(cloud, 2, 0.8, 8.0, SlabSpec(0.5, 0.5, 0.3), k_iters=2)

    def test_removes_far_outliers_keeps_signal(self):
        cloud = sample(make_model("circle"), SampleSpec(n=2000, beta=0.8, seed=6))
        spec = default_slab_spec(1, 2, 1.0, t=0.4, angle_constant=0.5)
        keep, diags = iterative_denoise(cloud, 1, 0.8, 8.0, spec, k_iters=2)
        keep = np.array(keep)
        signal = set(np.flatnonzero(cloud.labels == 1).tolist())
        kept_signal = [j for j in keep if j in signal]
        # all signal survives and the far outliers are gone
        assert len(kept_signal) == len(signal)
        far_cut = bandwidths(2000, 1, 0.8, 8.0, 2)[2] ** 2 / 1.0
        dists = make_model("circle").distance_many(cloud.points[keep])
        labels = cloud.labels[keep]
        assert np.all(dists[labels == 0] <= far_cut)


class TestLemma4MonteCarla:
    def test_separation_small(self):
        for model in (make_model("circle"), Torus(2.0, 0.5)):
            rep = verify_slab_separation(model, trials=300, seed=7)
            assert rep.passed

    def test_inclusion_small(self):
        for model in (make_model("circle"), Torus(2.0, 0.5)):
            rep = verify_slab_inclusion(model, trials=300, seed=8)
            assert rep.passed

    def test_inclusion_radius_factor(self):
        spec = default_slab_spec(1, 2, rho=1.0, t=0.0, angle_constant=2.0)
        k3 = inclusion_radius_factor(spec, rho=1.0, angle_constant=2.0)
        assert k3 == pytest.approx(min(0.25 / 4, 0.075, math.sqrt(0.15), 0.5))
