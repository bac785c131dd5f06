import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracles import Subspace, principal_angle, span
from lemma_checks import (
    perturbation_angle_bound_check,
    random_subspace,
    sampled_reach,
    subspace_rotation,
    symmetrize,
    top_eigenspace,
)
from tdcrecon.geometry import directed_hausdorff, principal_angles


class TestSubspace:
    def test_rejects_non_orthonormal(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[1.0, 1.0], [0.0, 1.0]]))

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            Subspace(np.array([[np.nan], [0.0]]))

    def test_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            Subspace(np.zeros((2, 0)))

    def test_projector_idempotent(self):
        s = random_subspace(np.random.default_rng(3), 5, 2)
        p = s.projector()
        assert np.allclose(p @ p, p, atol=1e-12)


class TestSubspaceStack:
    """A stack of bases given to ``principal_angles`` is checked as each basis alone would be."""

    def valid(self):
        rng = np.random.default_rng(4)
        return np.stack([random_subspace(rng, 4, 2).basis for _ in range(5)])

    def error_of(self, build):
        with pytest.raises(ValueError) as info:
            build()
        return str(info.value)

    @pytest.mark.parametrize(
        "bad",
        [
            np.array([[np.nan, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
            np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]),
            np.eye(4)[:, :2] * (1.0 + 1e-9),
        ],
        ids=["nan", "skew", "long"],
    )
    def test_one_bad_basis_raises_as_alone(self, bad):
        bases, good = self.valid(), self.valid()
        bases[3] = bad
        want = self.error_of(lambda: Subspace(bad))
        assert self.error_of(lambda: principal_angles(bases, good)) == want
        assert self.error_of(lambda: principal_angles(good, bases)) == want

    def test_bad_dims_raise_as_alone(self):
        bases = np.zeros((2, 3, 0))
        assert self.error_of(lambda: principal_angles(bases, bases)) == self.error_of(
            lambda: Subspace(bases[0])
        )

    def test_valid_stack(self):
        bases = self.valid()
        given = bases.copy()
        assert np.array_equal(principal_angles(bases, bases), np.zeros(len(bases)))
        # the stacks are only read
        assert np.array_equal(bases, given)

    def test_empty_stack(self):
        assert len(principal_angles(np.zeros((0, 3, 1)), np.zeros((0, 3, 1)))) == 0


class TestPrincipalAngle:
    def test_identical_line(self):
        u = span([1, 0, 0])
        assert principal_angle(u, u) == 0.0

    def test_orthogonal_lines(self):
        assert principal_angle(span([1, 0]), span([0, 1])) == pytest.approx(1.0)

    def test_thirty_degrees(self):
        # eigendecomposition of P_U - P_V for lines gives +/- sin(angle)
        v = span([np.cos(np.pi / 6), np.sin(np.pi / 6)])
        assert principal_angle(span([1, 0]), v) == pytest.approx(0.5, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            principal_angles(span([1, 0]).basis[None], span([1, 0, 0]).basis[None])
        with pytest.raises(ValueError):
            principal_angles(span([1, 0, 0]).basis[None], np.eye(3)[None, :, :2])

    def test_symmetry_exact(self):
        rng = np.random.default_rng(7)
        pairs = [(random_subspace(rng, 6, 2), random_subspace(rng, 6, 2)) for _ in range(50)]
        u = np.stack([a.basis for a, _ in pairs])
        v = np.stack([b.basis for _, b in pairs])
        assert np.array_equal(principal_angles(u, v), principal_angles(v, u))

    def test_range_and_orthogonal_vector_case(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            u = random_subspace(rng, 5, 2)
            v = random_subspace(rng, 5, 2)
            assert 0.0 <= principal_angle(u, v) <= 1.0
        # U contains a vector orthogonal to all of V -> angle 1
        u = span([1, 0, 0], [0, 1, 0])
        v = span([0, 1, 0], [0, 0, 1])
        assert principal_angle(u, v) == pytest.approx(1.0)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(13)
        for _ in range(200):
            u, v, w = (random_subspace(rng, 4, 2) for _ in range(3))
            assert principal_angle(u, w) <= (
                principal_angle(u, v) + principal_angle(v, w) + 1e-8
            )


class TestPrincipalAngles:
    """The stacked angles against the one-pair form of dense_oracles."""

    @pytest.mark.parametrize("big_d, d", [(3, 1), (3, 2), (10, 1), (10, 2), (10, 7)])
    def test_bit_equal_to_reference_and_symmetric(self, big_d, d):
        rng = np.random.default_rng(big_d * 10 + d)
        subs = [random_subspace(rng, big_d, d) for _ in range(120)]
        # unrelated pairs, equal pairs, and pairs one basis rotation apart
        a = np.stack([s.basis for s in subs])
        b = np.concatenate([a[60:], a[:30], a[30:60, :, ::-1]])
        got = principal_angles(a, b)
        want = [principal_angle(Subspace(x), Subspace(y)) for x, y in zip(a, b)]
        assert np.array_equal(got, want)
        assert np.array_equal(got, principal_angles(b, a))
        assert np.all((got >= 0.0) & (got <= 1.0))

    def test_one_pair_is_principal_angle(self):
        rng = np.random.default_rng(8)
        u, v = random_subspace(rng, 5, 2), random_subspace(rng, 5, 2)
        assert principal_angle(u, v) == principal_angles(u.basis[None], v.basis[None])[0]

    @pytest.mark.parametrize(
        "a_shape, b_shape",
        [((4, 3, 1), (4, 3, 2)), ((4, 3, 1), (4, 4, 1)), ((4, 3, 1), (5, 3, 1)), ((3, 1), (3, 1))],
        ids=["dim", "ambient-dim", "count", "not-stacks"],
    )
    def test_mismatched_shapes_raise(self, a_shape, b_shape):
        a = np.zeros(a_shape)
        b = np.zeros(b_shape)
        a[..., 0, 0] = b[..., 0, 0] = 1.0
        with pytest.raises(ValueError, match="need two"):
            principal_angles(a, b)

    def test_non_orthonormal_raises(self):
        a = np.tile(np.eye(3)[:, :2], (2, 1, 1))
        b = a.copy()
        b[1, 0, 0] = 2.0
        with pytest.raises(ValueError, match="not orthonormal"):
            principal_angles(a, b)

    def test_empty(self):
        got = principal_angles(np.zeros((0, 4, 2)), np.zeros((0, 4, 2)))
        assert got.shape == (0,)


class TestTopEigenspace:
    def test_diagonal(self):
        sub, vals = top_eigenspace(np.diag([3.0, 2.0, 1.0]), 2)
        assert np.allclose(vals, [3.0, 2.0])
        assert principal_angle(sub, span([1, 0, 0], [0, 1, 0])) < 1e-12

    def test_degenerate_identity(self):
        sub, vals = top_eigenspace(np.eye(3), 1)
        s = np.eye(3)
        v = sub.basis[:, 0]
        assert np.linalg.norm(s @ v - vals[0] * v) <= 1e-8 * np.linalg.norm(s)
        assert vals[0] == pytest.approx(1.0)

    def test_two_by_two(self):
        sub, vals = top_eigenspace(np.array([[2.0, 1.0], [1.0, 2.0]]), 1)
        assert vals[0] == pytest.approx(3.0)
        assert principal_angle(sub, span([1, 1])) < 1e-10

    def test_descending_order_and_residuals(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            big_d = int(rng.integers(2, 13))
            d = int(rng.integers(1, big_d + 1))
            s = symmetrize(rng.standard_normal((big_d, big_d)))
            sub, vals = top_eigenspace(s, d)
            assert np.all(np.diff(vals) <= 1e-12)
            norm_s = np.linalg.norm(s)
            for k in range(d):
                v = sub.basis[:, k]
                assert np.linalg.norm(s @ v - vals[k] * v) <= 1e-8 * max(norm_s, 1e-30)

    def test_reconstruction(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            big_d = int(rng.integers(2, 13))
            d = int(rng.integers(1, big_d + 1))
            s = symmetrize(rng.standard_normal((big_d, big_d)))
            sub, _ = top_eigenspace(s, d)
            p = sub.projector()
            q = np.eye(big_d) - p
            rec = p @ s @ p + q @ s @ q
            assert np.linalg.norm(s - rec) <= 1e-8 * np.linalg.norm(s)


def hausdorff(a, b):
    """The Hausdorff distance: the directed distance both ways."""
    return max(directed_hausdorff(a, b), directed_hausdorff(b, a))


def brute_force_hausdorff(a, b):
    d_ab = max(min(np.linalg.norm(x - y) for y in b) for x in a)
    d_ba = max(min(np.linalg.norm(x - y) for y in a) for x in b)
    return max(d_ab, d_ba)


class TestHausdorff:
    def test_identical(self):
        a = np.random.default_rng(0).normal(size=(20, 3))
        assert hausdorff(a, a) == 0.0

    def test_singletons(self):
        assert hausdorff([[0.0]], [[3.0]]) == pytest.approx(3.0)

    def test_asymmetric_sets(self):
        assert hausdorff([[0.0], [10.0]], [[2.0]]) == pytest.approx(8.0)

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            hausdorff(np.zeros((0, 2)), np.zeros((3, 2)))

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            hausdorff(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_matches_brute_force_bitwise(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            a = rng.normal(size=(int(rng.integers(1, 60)), 3))
            b = rng.normal(size=(int(rng.integers(1, 60)), 3))
            assert hausdorff(a, b) == brute_force_hausdorff(a, b)

    def test_directed(self):
        a = np.array([[0.0], [10.0]])
        b = np.array([[2.0]])
        assert directed_hausdorff(a, b) == pytest.approx(8.0)
        assert directed_hausdorff(b, a) == pytest.approx(2.0)


class TestSubspaceRotation:
    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError, match="need two subspaces of one shape"):
            subspace_rotation(span([1, 0]), span([1, 0, 0]))
        with pytest.raises(ValueError, match="need two subspaces of one shape"):
            subspace_rotation(span([1, 0, 0]), Subspace(np.eye(3)[:, :2]))

    def test_identity_on_equal(self):
        u = span([1, 0, 0])
        assert np.allclose(subspace_rotation(u, u), np.eye(3), atol=1e-12)

    def test_quarter_turn(self):
        # lines e1 -> e2: plane rotation by pi/2, ||R - I||_op = 2 sin(pi/4)
        r = subspace_rotation(span([1, 0]), span([0, 1]))
        assert np.allclose(r @ np.array([1.0, 0.0]), [0.0, 1.0], atol=1e-12)
        norm = np.linalg.norm(r - np.eye(2), 2)
        assert norm == pytest.approx(2 * np.sin(np.pi / 4), abs=1e-12)
        # canonical-angle bound: arcsin of the principal angle
        assert norm <= np.arcsin(1.0) + 1e-8

    def test_small_angle(self):
        t = 0.1
        v = span([np.cos(t), np.sin(t)])
        r = subspace_rotation(span([1, 0]), v)
        norm = np.linalg.norm(r - np.eye(2), 2)
        assert norm == pytest.approx(2 * np.sin(t / 2), abs=1e-12)
        theta = principal_angle(span([1, 0]), v)
        assert norm <= np.arcsin(theta) + 1e-8

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000), dims=st.tuples(st.integers(2, 7), st.integers(1, 3)))
    def test_maps_u_onto_v(self, seed, dims):
        big_d, d = dims
        d = min(d, big_d - 1)
        rng = np.random.default_rng(seed)
        u = random_subspace(rng, big_d, d)
        v = random_subspace(rng, big_d, d)
        r = subspace_rotation(u, v)
        assert np.allclose(r @ r.T, np.eye(big_d), atol=1e-10)
        image = Subspace(np.linalg.qr(r @ u.basis)[0])
        assert principal_angle(image, v) < 1e-8
        alpha = np.arcsin(min(1.0, principal_angle(u, v)))
        assert np.linalg.norm(r - np.eye(big_d), 2) <= alpha + 1e-8


class TestPerturbationAngleBound:
    def test_zero_perturbation(self):
        assert perturbation_angle_bound_check(np.eye(2), np.zeros((3, 3)))

    def test_single_coupling(self):
        e = np.zeros((3, 3))
        e[0, 2] = e[2, 0] = 0.1
        assert perturbation_angle_bound_check(np.eye(2), e)

    def test_precondition_violation(self):
        with pytest.raises(ValueError):
            perturbation_angle_bound_check(0.2 * np.eye(2), np.full((3, 3), 0.3))

    def test_randomized(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            big_d = int(rng.integers(2, 8))
            d = int(rng.integers(1, big_d))
            e1 = rng.uniform(0.0, 0.25)
            b = symmetrize(rng.standard_normal((d, d)))
            w, v = np.linalg.eigh(b)
            w = 1.0 - e1 + rng.uniform(0.0, 1.0, size=d)
            b = (v * w) @ v.T
            e = symmetrize(rng.standard_normal((big_d, big_d)))
            e *= rng.uniform(0.0, 0.25 - 1e-6) / np.linalg.norm(e, "fro")
            assert perturbation_angle_bound_check(b, e)


def test_wielandt_hoffmann_small():
    rng = np.random.default_rng(31)
    for _ in range(200):
        big_d = int(rng.integers(2, 9))
        a = symmetrize(rng.standard_normal((big_d, big_d)))
        e = symmetrize(rng.standard_normal((big_d, big_d)))
        la = np.linalg.eigvalsh(a)
        lae = np.linalg.eigvalsh(a + e)
        assert np.sum((lae - la) ** 2) <= np.linalg.norm(e, "fro") ** 2 + 1e-9


def test_sampled_reach_circle():
    t = np.linspace(0.0, 2 * np.pi, 64, endpoint=False)
    pts = np.column_stack([np.cos(t), np.sin(t)])
    tangents = np.column_stack([-np.sin(t), np.cos(t)])[:, :, None]
    assert sampled_reach(pts, tangents) == pytest.approx(1.0, abs=1e-9)
