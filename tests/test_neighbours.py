"""The KD-tree neighbour layer against the all-pairs oracles in dense_oracles.

Every local query (tangents, slab counts, tangent inheritance, the
farthest-point net, Hausdorff) must return what the dense scan returns: the
same indices, counts, net order and distances, with closed-ball boundaries
and ties resolved the same way.  The denoising loop, whose tangents and slab
counts share one search per iteration, must return what the loop over the
dense stages returns.
"""
import itertools
import json
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

import dense_oracles as dense
from tdcrecon import _neighbours, sparsify
from tdcrecon.denoise import (
    NO_SURVIVORS,
    NO_TANGENT,
    SlabSpec,
    _slab_ball_r2,
    _tangents_and_slab_counts,
    default_slab_spec,
    diagnostics_to_json,
    iterative_denoise,
    schedule,
    slab_counts,
)
from tdcrecon.geometry import Subspace, directed_hausdorff, hausdorff, random_subspace
from tdcrecon.models import Circle, LabeledCloud, SampleSpec, Sphere, Torus, sample
from tdcrecon.sparsify import farthest_point_sampling
from tdcrecon.tangent import TseParams, estimate_tangents

PROJECTOR_TOL = 1e-12


def lattice(*axes):
    """Integer lattice points, one coordinate range per axis."""
    return np.array(list(itertools.product(*axes)), dtype=float)


def clouds():
    """Fixed-seed clouds in D = 1, 3 and 10, with a bandwidth and dimension."""
    rng = np.random.default_rng(101)
    line = rng.uniform(0.0, 4.0, size=(300, 1))
    sphere = sample(Sphere(1.0, ambient_dim=3), SampleSpec(n=500, beta=0.8, seed=102))
    circle = sample(Circle(1.0, ambient_dim=10), SampleSpec(n=600, beta=0.8, seed=103))
    return {
        "D1-line": (line, 0.05, 1),
        "D3-sphere": (sphere.points, 0.3, 2),
        "D10-circle": (circle.points, 0.25, 1),
        # every point twice: duplicates are neighbours at distance zero
        "D10-duplicates": (np.vstack([circle.points[:200], circle.points[:200]]), 0.3, 1),
    }


CLOUDS = clouds()


def assert_same_field(got, want):
    assert got.indices.tolist() == want.indices.tolist()
    assert got.skipped.tolist() == want.skipped.tolist()
    for g, w in zip(dense.subspaces(got), dense.subspaces(want), strict=True):
        assert np.max(np.abs(g.projector() - w.projector())) <= PROJECTOR_TOL


def random_field(rng, n, big_d, d):
    return dense.field_of(range(n), [random_subspace(rng, big_d, d) for _ in range(n)])


def constant_field(n, basis):
    return dense.field_of(range(n), [Subspace(basis)] * n)


def flatten(blocks, targets):
    """(rows, cols, diff, d2) of the pairs inside ball blocks, self pairs added.

    Pairs are sorted by row, then by column, as ``dense.ball_pairs`` gives
    them.  Checks the layout of each block on the way: listed neighbours
    first, in increasing index order, then padding with the target itself,
    with zero differences and never inside.
    """
    targets = np.asarray(targets)
    parts = []
    for chunk, nbr, diff, d2, inside in blocks:
        rows, own = chunk, targets[chunk]
        pad = nbr == own[:, None]
        assert not np.any(inside & pad)
        assert np.all(diff[pad] == 0.0) and np.all(d2[pad] == 0.0)
        for r in range(len(own)):
            listed = np.count_nonzero(~pad[r])
            assert np.all(pad[r, listed:])
            assert np.all(np.diff(nbr[r, :listed]) > 0)
        r, slot = np.nonzero(inside)
        parts.append((rows[r], nbr[r, slot], diff[r, slot], d2[r, slot]))
        # each target is its own neighbour at distance zero
        parts.append((rows, own, np.zeros((len(own), diff.shape[2])), np.zeros(len(own))))
    rows, cols, diff, d2 = (np.concatenate([p[k] for p in parts]) for k in range(4))
    order = np.lexsort((cols, rows))
    return rows[order], cols[order], diff[order], d2[order]


def assert_same_pairs(blocks, targets, want):
    """Ball blocks of ``targets`` hold the joined pairs ``want``, bit for bit."""
    for g, w in zip(flatten(blocks, targets), want, strict=True):
        assert np.array_equal(g, w)


def pair_cases():
    """(points, targets, r2) of self-joins with boundary pairs, duplicates and tiny clouds."""
    grid = lattice(range(5), range(4), range(3))
    sphere = CLOUDS["D3-sphere"][0]
    every = lambda pts: np.arange(len(pts))
    return {
        # integer squared distances: axis, face and cube diagonals on the sphere
        "lattice-r1": (grid, every(grid), 1.0),
        "lattice-r2": (grid, every(grid), 2.0),
        "lattice-r3": (grid, every(grid), 3.0),
        # distinct indices at distance zero
        "duplicates": (CLOUDS["D10-duplicates"][0], every(CLOUDS["D10-duplicates"][0]), 0.09),
        "n1": (np.zeros((1, 3)), np.array([0]), 1.0),
        "n2-boundary": (np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 1.0),
        "n2-apart": (np.array([[0.0, 0.0], [0.0, 1.0]]), np.array([0, 1]), 0.25),
        "sphere": (sphere, every(sphere), 0.09),
        # a subset reads its rows from the search of the whole cloud
        "subset": (sphere, np.array([7, 3, 3, 400, 0, 499, 7]), 0.09),
    }


PAIR_CASES = pair_cases()


class TestBallPairs:
    def test_closed_ball_pairs_sorted(self):
        # unit lattice, radius 1: the four axis neighbours sit on the sphere
        pts = lattice(range(5), range(5))
        targets = [0, 12, 24, 7]
        rows, cols, diff, d2 = flatten(_neighbours.ball_blocks(pts, targets, 1.0), targets)
        want = [
            (r, c)
            for r, t in enumerate(targets)
            for c in range(len(pts))
            if np.sum((pts[c] - pts[t]) ** 2) <= 1.0
        ]
        assert list(zip(rows.tolist(), cols.tolist())) == want
        assert np.array_equal(diff, pts[cols] - pts[targets][rows])
        assert np.array_equal(d2, np.einsum("ij,ij->i", diff, diff))

    def test_chunks_cover_every_query(self, monkeypatch):
        # 20 slots of two coordinates: rows hold 3 to 8 neighbours
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", 20 * 2 * 8)
        pts = lattice(range(6), range(6))
        chunks = list(_neighbours.ball_blocks(pts, np.arange(len(pts)), 2.0))
        covered = np.concatenate([c[0] for c in chunks])
        assert sorted(covered.tolist()) == list(range(len(pts)))
        assert any(len(c[0]) > 1 for c in chunks)
        # targets come in order of width, so blocks widen as the stream goes
        widths = [c[1].shape[1] for c in chunks]
        assert widths == sorted(widths) and widths[0] < widths[-1]
        # a hard bound on the padded block, not just on the pairs: rows x
        # widest row slots, more only in a block of one row
        for chunk, nbr, diff, d2, inside in chunks:
            rows, widest = nbr.shape
            assert rows == len(chunk)
            assert diff.shape == (rows, widest, 2) and d2.shape == inside.shape == nbr.shape
            assert rows * max(widest, 1) <= 20 or rows == 1

    @pytest.mark.parametrize("name", sorted(PAIR_CASES))
    def test_matches_dense(self, name):
        pts, targets, r2 = PAIR_CASES[name]
        assert_same_pairs(
            _neighbours.ball_blocks(pts, targets, r2),
            targets,
            dense.ball_pairs(pts, targets, r2),
        )

    @pytest.mark.parametrize("name", ["lattice-r2", "duplicates", "subset"])
    def test_chunks_below_one_row(self, monkeypatch, name):
        # every row is wider than a block: one row per block
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", 1)
        pts, targets, r2 = PAIR_CASES[name]
        chunks = list(_neighbours.ball_blocks(pts, targets, r2))
        assert [len(c[0]) for c in chunks] == [1] * len(targets)
        covered = np.concatenate([c[0] for c in chunks])
        assert sorted(covered.tolist()) == list(range(len(targets)))
        assert_same_pairs(chunks, targets, dense.ball_pairs(pts, targets, r2))

    def test_one_self_join(self, monkeypatch):
        calls = count_searches(monkeypatch)
        pts, targets, r2 = PAIR_CASES["subset"]
        list(_neighbours.ball_blocks(pts, targets, r2))
        assert calls == ["query_pairs"]


def skewed_cloud():
    """9000 points in R^3: 2000 quadruples 1 apart and one tight cluster of 1000.

    Within h = 0.1 a quadruple point has 3 neighbours and a cluster point
    999; the points are shuffled, so most blocks mix both kinds of rows.
    """
    rng = np.random.default_rng(55)
    centres = np.column_stack([lattice(range(50), range(40)), np.zeros(2000)])
    quads = centres[:, None, :] + rng.uniform(-0.02, 0.02, size=(2000, 4, 3))
    cluster = np.array([25.0, 20.0, 5.0]) + rng.uniform(-0.02, 0.02, size=(1000, 3))
    pts = np.vstack([quads.reshape(-1, 3), cluster])
    return pts[rng.permutation(len(pts))]


class TestBlockMemory:
    def test_skewed_cloud_peak(self):
        # a bound on the pairs of a chunk alone lets a sparse row's padding
        # grow with the cluster: 134 MiB traced here under such a bound
        pts = skewed_cloud()
        pairs = 2 * len(cKDTree(pts).query_pairs(0.1))
        assert pairs > 10**6
        tracemalloc.start()
        try:
            field = estimate_tangents(pts, TseParams(h=0.1, d=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(field) == len(pts)
        # the self-join's index lists (8 B per ordered pair), a few arrays
        # of a block each and the field itself
        assert peak <= 8 * pairs + 16 * _neighbours._BLOCK_BYTES

    def test_skewed_cloud_padding(self):
        # a block of consecutive targets is as wide as its widest row: 8.1
        # slots per listed candidate here; in order of width, 1.0
        pts = skewed_cloud()
        padded = listed = 0
        for chunk, nbr, _, _, _ in _neighbours.ball_blocks(pts, np.arange(len(pts)), 0.01):
            padded += nbr.size
            listed += np.count_nonzero(nbr != chunk[:, None])
        assert listed > 10**6
        assert padded <= 1.05 * listed


class TestBlockCuts:
    """Where the stream cuts its blocks changes no bit of any output."""

    @staticmethod
    def outputs():
        # signal and outliers interleaved: rows of many widths side by side
        cloud = sample(Circle(1.0, ambient_dim=3), SampleSpec(n=600, beta=0.7, seed=305))
        pts, h = cloud.points, 0.25
        field = estimate_tangents(pts, TseParams(h=h, d=1))
        counts = slab_counts(pts, field.complete(pts), h, SlabSpec(k1=0.6, k2=1.5, t=1.0))
        return [a.tobytes() for a in (field.indices, field.bases, field.skipped, counts)]

    @pytest.mark.parametrize("block_bytes", [1, 320])
    def test_bit_identical(self, monkeypatch, block_bytes):
        want = self.outputs()
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", block_bytes)
        assert self.outputs() == want


class TestOutOfRangeIndices:
    pts = CLOUDS["D3-sphere"][0][:50]

    @pytest.mark.parametrize("bad", [-1, -50, 50, 51])
    def test_estimate_tangents(self, bad):
        with pytest.raises(ValueError, match=f"index {bad} is outside \\[0, 50\\)"):
            estimate_tangents(self.pts, TseParams(h=0.3, d=2), subset=[3, bad])

    @pytest.mark.parametrize("bad", [-1, -50, 50, 51])
    def test_slab_counts(self, bad):
        field = dense.field_of([3, bad], [Subspace(np.eye(3)[:, :2])] * 2)
        with pytest.raises(ValueError, match=f"index {bad} is outside \\[0, 50\\)"):
            slab_counts(self.pts, field, 0.3, SlabSpec(0.5, 0.5, 1.0))


class TestNonIntegerIndices:
    pts = CLOUDS["D3-sphere"][0][:50]
    params = TseParams(h=0.3, d=2)

    def test_boolean_mask_raises(self):
        # a mask with 3 True entries used to give 50 estimates at indices 0 and 1
        mask = np.zeros(50, dtype=bool)
        mask[[4, 9, 30]] = True
        with pytest.raises(ValueError, match="must be integers, got dtype bool"):
            estimate_tangents(self.pts, self.params, subset=mask)

    def test_float_indices_raise(self):
        # [1.7, 2.2] used to be read as [1, 2]
        with pytest.raises(ValueError, match="must be integers, got dtype float64"):
            estimate_tangents(self.pts, self.params, subset=[1.7, 2.2])

    def test_empty_subset(self):
        field = estimate_tangents(self.pts, self.params, subset=[])
        assert len(field) == 0 and len(field.skipped) == 0


def assert_pass_matches_stages(pts, params, spec):
    """The one-pass tangents and slab counts hold the bits of the separate stages.

    The stages are ``estimate_tangents``, ``complete`` and ``slab_counts``,
    each with a search of its own; the neighbour total is the dense count of
    pairs within h.  Returns the pass's field.
    """
    field, counts, neighbours = _tangents_and_slab_counts(pts, params, spec)
    want = estimate_tangents(pts, params)
    for got_array, want_array in zip(
        (field.indices, field.bases, field.skipped), (want.indices, want.bases, want.skipped)
    ):
        assert got_array.tobytes() == want_array.tobytes()
    if len(want):
        want_counts = slab_counts(pts, want.complete(pts), params.h, spec)
        assert counts.tobytes() == want_counts.tobytes()
    else:
        assert counts is None
    rows = dense.ball_pairs(pts, np.arange(len(pts)), params.h * params.h)[0]
    assert neighbours == len(rows) - len(pts)
    return field


# slab balls narrower and wider than the tangent bandwidth h
NARROW_SLAB = SlabSpec(k1=0.5, k2=0.5, t=1.0)
WIDE_SLAB = SlabSpec(k1=1.5, k2=0.5, t=1.0)


class TestSharedNeighbours:
    """One neighbour search per denoising iteration, shared by tangents and slab counts.

    Each block of the search is read once for the local-PCA bases of its
    rows and, with those bases, their slab counts; the skipped rows are read
    again from the same lists once they inherit a basis.  Either way the
    results are those of the separate stages, each with a search of its own.
    """

    def test_both_readers_match_own_searches(self):
        for name, spec in itertools.product(sorted(CLOUDS), (NARROW_SLAB, WIDE_SLAB)):
            pts, h, d = CLOUDS[name]
            field = assert_pass_matches_stages(pts, TseParams(h=h, d=d), spec)
            assert len(field)

    def test_lattice_radii_hit_exactly(self):
        # integer squared distances: neighbours on the h-sphere, and slab
        # points on both faces of the slab (tangential 1, normal 1)
        pts = lattice(range(5), range(4), range(3))
        for h, spec in [(1.0, SlabSpec(k1=1.0, k2=1.0, t=1.0)), (2.0, SlabSpec(0.5, 0.25, 1.0))]:
            assert_pass_matches_stages(pts, TseParams(h=h, d=2, min_neighbors=4), spec)

    def test_kept_radius_equal_to_search(self):
        # the slab ball is the search radius and the h-ball lies inside it
        pts, h, d = CLOUDS["D10-circle"]
        assert _slab_ball_r2(h, WIDE_SLAB) > h * h
        field = assert_pass_matches_stages(pts, TseParams(h=h, d=d), WIDE_SLAB)
        assert len(field.skipped)

    def test_kept_pairs_in_small_chunks(self, monkeypatch):
        # every block cut, the skipped rows' second read included
        for block_bytes in (1, 320):
            monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", block_bytes)
            for name, spec in itertools.product(sorted(CLOUDS), (NARROW_SLAB, WIDE_SLAB)):
                pts, h, d = CLOUDS[name]
                assert_pass_matches_stages(pts, TseParams(h=h, d=d), spec)

    def test_nothing_estimable(self):
        # two points: no point has min_neighbors = 3 neighbours
        pts = np.array([[0.0, 0.0], [0.0, 0.5]])
        field = assert_pass_matches_stages(pts, TseParams(h=1.0, d=1), NARROW_SLAB)
        assert len(field) == 0


class TestEstimateTangentsOracle:
    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_matches_dense(self, name):
        pts, h, d = CLOUDS[name]
        params = TseParams(h=h, d=d)
        assert_same_field(estimate_tangents(pts, params), dense.estimate_tangents(pts, params))

    def test_subset(self):
        pts, h, d = CLOUDS["D10-circle"]
        params = TseParams(h=h, d=d)
        subset = [5, 17, 599, 100, 5, 3]
        assert_same_field(
            estimate_tangents(pts, params, subset=subset),
            dense.estimate_tangents(pts, params, subset=subset),
        )

    def test_small_chunks(self, monkeypatch):
        # blocks of a few slots: many hold a single target
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", 256)
        pts, h, d = CLOUDS["D3-sphere"]
        params = TseParams(h=h, d=d)
        assert_same_field(estimate_tangents(pts, params), dense.estimate_tangents(pts, params))

    def test_lattice_closed_ball(self):
        # the plane z = 0 in R^3 with h = 1: each interior point has exactly
        # its four axis neighbours, all on the sphere of radius h
        pts = np.column_stack([lattice(range(6), range(5)), np.zeros(30)])
        params = TseParams(h=1.0, d=2, min_neighbors=4)
        field = estimate_tangents(pts, params)
        assert_same_field(field, dense.estimate_tangents(pts, params))
        interior = [j for j, p in enumerate(pts) if 0 < p[0] < 5 and 0 < p[1] < 4]
        assert field.indices.tolist() == interior
        plane = np.diag([1.0, 1.0, 0.0])
        for sub in dense.subspaces(field):
            assert np.max(np.abs(sub.projector() - plane)) <= PROJECTOR_TOL


class TestSlabCountsOracle:
    @pytest.mark.parametrize("name", sorted(CLOUDS))
    def test_matches_dense_random_tangents(self, name):
        pts, h, d = CLOUDS[name]
        rng = np.random.default_rng(7)
        field = random_field(rng, len(pts), pts.shape[1], d)
        spec = SlabSpec(k1=0.6, k2=1.5, t=1.0)
        assert np.array_equal(
            slab_counts(pts, field, h, spec), dense.slab_counts(pts, field, h, spec)
        )

    def test_matches_dense_estimated_tangents(self):
        pts, h, d = CLOUDS["D10-circle"]
        field = estimate_tangents(pts, TseParams(h=h, d=d)).complete(pts)
        spec = SlabSpec(k1=0.375, k2=1.0 / 12.0, t=0.4)
        assert np.array_equal(
            slab_counts(pts, field, h, spec), dense.slab_counts(pts, field, h, spec)
        )

    def test_partial_field(self):
        pts, h, d = CLOUDS["D3-sphere"]
        rng = np.random.default_rng(8)
        field = dense.field_of([3, 40, 7], [random_subspace(rng, 3, 2) for _ in range(3)])
        spec = SlabSpec(k1=0.5, k2=2.0, t=1.0)
        got = slab_counts(pts, field, h, spec)
        assert np.array_equal(got, dense.slab_counts(pts, field, h, spec))
        assert np.count_nonzero(got) == 3

    @pytest.mark.parametrize(
        "h, k1, k2",
        [(1.0, 1.0, 1.0), (2.0, 0.5, 0.25)],
    )
    def test_lattice_slab_radii_hit_exactly(self, h, k1, k2):
        # tangential radius k1 h = 1 and normal radius k2 h^2 = 1 on a unit
        # lattice: the slab corners (1, 1, 0) lie on both slab boundaries and
        # on the sphere that bounds the slab
        pts = lattice(range(5), range(-2, 3), range(-2, 3))
        field = constant_field(len(pts), np.eye(3)[:, :1])
        spec = SlabSpec(k1=k1, k2=k2, t=1.0)
        got = slab_counts(pts, field, h, spec)
        assert np.array_equal(got, dense.slab_counts(pts, field, h, spec))
        centre = int(np.flatnonzero(np.all(pts == [2.0, 0.0, 0.0], axis=1))[0])
        # |x| <= 1 along the tangent, y^2 + z^2 <= 1 across it: 3 x 5 points
        assert got[centre] == 15

    def test_small_chunks(self, monkeypatch):
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", 256)
        pts, h, d = CLOUDS["D3-sphere"]
        field = random_field(np.random.default_rng(9), len(pts), 3, d)
        spec = SlabSpec(k1=0.6, k2=1.5, t=1.0)
        assert np.array_equal(
            slab_counts(pts, field, h, spec), dense.slab_counts(pts, field, h, spec)
        )


def same_basis(a, b):
    """Two subspaces with the very same basis: the estimate one was copied from."""
    return np.array_equal(a.basis, b.basis)


class TestCompleteOracle:
    def test_matches_dense(self):
        pts, h, d = CLOUDS["D10-circle"]
        field = estimate_tangents(pts, TseParams(h=h, d=d))
        assert len(field.skipped)
        assert_same_field(field.complete(pts), dense.complete(field, pts))

    def test_exact_ties_go_to_lowest_index(self):
        # cell centres of a unit lattice are equidistant from four lattice
        # points; a KD-tree nearest query returns a higher-index one for
        # several of them, the dense argmin the lowest
        grid = lattice(range(-3, 4), range(-3, 4))
        centres = lattice(range(-3, 3), range(-3, 3)) + 0.5
        pts = np.vstack([grid, centres])
        rng = np.random.default_rng(10)
        field = dense.field_of(
            range(len(grid)),
            [random_subspace(rng, 2, 1) for _ in grid],
            skipped=range(len(grid), len(pts)),
        )
        full = field.complete(pts)
        want = dense.complete(field, pts)
        for j, centre in enumerate(centres, start=len(grid)):
            dist = np.linalg.norm(grid - centre, axis=1)
            lowest = int(np.flatnonzero(dist == dist.min())[0])
            assert same_basis(full.subspace_at(j), field.subspace_at(lowest))
            assert same_basis(want.subspace_at(j), field.subspace_at(lowest))

    def test_duplicate_of_an_estimate(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        field = dense.field_of(
            [0, 3, 1],
            [Subspace(np.eye(2)[:, :1]), Subspace(np.eye(2)[:, 1:]),
             Subspace(np.ones((2, 1)) / np.sqrt(2.0))],
            skipped=[2],
        )
        # points 3 and 1 both coincide with 2; 3 is listed first
        assert same_basis(field.complete(pts).subspace_at(2), field.subspace_at(3))
        assert same_basis(dense.complete(field, pts).subspace_at(2), field.subspace_at(3))


class TestFarthestPointOracle:
    @pytest.mark.parametrize("name", sorted(CLOUDS))
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.7])
    def test_same_net_order(self, name, eps):
        pts = CLOUDS[name][0]
        assert farthest_point_sampling(pts, eps) == dense.farthest_point_sampling(pts, eps)

    def test_start_index(self):
        pts = CLOUDS["D3-sphere"][0]
        got = farthest_point_sampling(pts, 0.3, start=77)
        assert got == dense.farthest_point_sampling(pts, 0.3, start=77)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 2.0])
    def test_lattice_ties_and_boundaries(self, eps):
        # integer distances tie everywhere and hit eps exactly
        pts = lattice(range(6), range(5), range(3))
        assert farthest_point_sampling(pts, eps) == dense.farthest_point_sampling(pts, eps)

    # one pick a round, two, and more than any cloud has points
    @pytest.mark.parametrize("batch", [1, 2, 10_000])
    def test_forced_round_sizes(self, monkeypatch, batch):
        monkeypatch.setattr(sparsify, "_BATCH", batch)
        for pts, _, _ in CLOUDS.values():
            for eps in (0.05, 0.7):
                assert farthest_point_sampling(pts, eps) == dense.farthest_point_sampling(pts, eps)
        sphere = CLOUDS["D3-sphere"][0]
        got = farthest_point_sampling(sphere, 0.3, start=77)
        assert got == dense.farthest_point_sampling(sphere, 0.3, start=77)
        # the largest distance ties with the round's cut on the lattice
        grid = lattice(range(6), range(5), range(3))
        for eps in (0.5, 1.0, 1.5, 2.0):
            assert farthest_point_sampling(grid, eps, start=7) == dense.farthest_point_sampling(
                grid, eps, start=7
            )

    def test_one_ball_query_per_round(self, monkeypatch):
        calls = count_searches(monkeypatch, sparsify)
        pts = sample(Torus(), SampleSpec(n=4000, seed=5)).points
        net = farthest_point_sampling(pts, 0.1)
        # one query per net point would be about 1.5k
        assert calls.count("query_ball_point") <= len(net) / 8


class TestHausdorffOracle:
    @pytest.mark.parametrize("big_d", [1, 3, 10])
    def test_same_values(self, big_d):
        rng = np.random.default_rng(200 + big_d)
        for _ in range(5):
            a = rng.normal(size=(int(rng.integers(1, 300)), big_d))
            b = rng.normal(size=(int(rng.integers(1, 300)), big_d))
            assert directed_hausdorff(a, b) == dense.directed_hausdorff(a, b)
            assert directed_hausdorff(b, a) == dense.directed_hausdorff(b, a)
            assert hausdorff(a, b) == max(
                dense.directed_hausdorff(a, b), dense.directed_hausdorff(b, a)
            )

    def test_lattice_with_duplicates(self):
        a = lattice(range(4), range(4))
        b = np.vstack([a[::3], a[::3]]) + 0.5
        assert directed_hausdorff(a, b) == dense.directed_hausdorff(a, b)
        assert directed_hausdorff(b, a) == dense.directed_hausdorff(b, a)


def denoise_case(name):
    """(cloud, d, kappa, spec) of a fixed-seed denoising run, beta = 0.8."""
    if name == "circle-D2":
        cloud = sample(Circle(1.0, ambient_dim=2), SampleSpec(n=600, beta=0.8, seed=301))
        return cloud, 1, 8.0, default_slab_spec(1, 2, 1.0, t=0.4, angle_constant=0.5)
    if name == "circle-D10":
        cloud = sample(Circle(1.0, ambient_dim=10), SampleSpec(n=600, beta=0.8, seed=302))
        return cloud, 1, 8.0, default_slab_spec(1, 10, 1.0, t=0.4, angle_constant=0.5)
    if name == "sphere-D3":
        cloud = sample(Sphere(1.0, ambient_dim=3), SampleSpec(n=800, beta=0.8, seed=303))
        return cloud, 2, 30.0, default_slab_spec(2, 3, 1.0, t=0.15, angle_constant=0.5)
    # k1 > 1: the ball around each slab is wider than the tangent bandwidth
    cloud = sample(Circle(1.0, ambient_dim=3), SampleSpec(n=600, beta=0.8, seed=304))
    return cloud, 1, 8.0, SlabSpec(k1=1.5, k2=0.5, t=0.6)


def count_searches(monkeypatch, module=_neighbours):
    """Record, by method name, every search of a tree ``module`` builds from now on."""
    calls = []

    class Counted(cKDTree):
        def query_pairs(self, *args, **kwargs):
            calls.append("query_pairs")
            return super().query_pairs(*args, **kwargs)

        def query_ball_point(self, *args, **kwargs):
            calls.append("query_ball_point")
            return super().query_ball_point(*args, **kwargs)

        def sparse_distance_matrix(self, *args, **kwargs):
            calls.append("sparse_distance_matrix")
            return super().sparse_distance_matrix(*args, **kwargs)

    monkeypatch.setattr(module, "cKDTree", Counted)
    return calls


class TestIterativeDenoiseOracle:
    def assert_matches_dense(self, name, k_iters=2):
        cloud, d, kappa, spec = denoise_case(name)
        got = iterative_denoise(cloud, d, 0.8, kappa, spec, k_iters)
        assert got == dense.iterative_denoise(cloud, d, 0.8, kappa, spec, k_iters)
        return cloud, got[1]

    @pytest.mark.parametrize("name", ["circle-D2", "circle-D10", "sphere-D3"])
    def test_matches_dense(self, name):
        cloud, diags = self.assert_matches_dense(name)
        # the runs do work: skipped tangents are filled, most outliers go
        outliers = int(np.sum(cloud.labels == 0))
        assert diags[0].inherited > 0
        assert diags[-1].false_positives < 0.1 * outliers

    def test_slab_ball_wider_than_h(self):
        cloud, d, kappa, spec = denoise_case("wide-slab")
        h = schedule(cloud.n, d, 0.8, kappa, 0).hs[0]
        assert _slab_ball_r2(h, spec) > h * h
        self.assert_matches_dense("wide-slab")

    def test_small_chunks(self, monkeypatch):
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", 256)
        self.assert_matches_dense("circle-D10")

    def test_one_search_per_iteration(self, monkeypatch):
        calls = count_searches(monkeypatch)
        cloud, d, kappa, spec = denoise_case("sphere-D3")
        _, diags = iterative_denoise(cloud, d, 0.8, kappa, spec, k_iters=2)
        assert len(diags) == 3
        # one self-join each, and no other search: no counting pass, no
        # per-chunk dual-tree search
        assert calls == ["query_pairs"] * 3

    def test_each_row_read_once(self, monkeypatch):
        # every point's block row is read once, for its tangent and its slab
        # count together; a row whose tangent is inherited once more
        rows = []
        blocks = _neighbours._blocks

        def counted(*args):
            for block in blocks(*args):
                rows.append(len(block[0]))
                yield block

        monkeypatch.setattr(_neighbours, "_blocks", counted)
        cloud, d, kappa, spec = denoise_case("circle-D10")
        _, diags = iterative_denoise(cloud, d, 0.8, kappa, spec, k_iters=2)
        sizes = [cloud.n] + [diag.survivors for diag in diags[:-1]]
        assert len(diags) == 3 and diags[0].inherited > 0
        assert sum(rows) == sum(sizes) + sum(diag.inherited for diag in diags)

    def test_diagnostics_against_threshold(self):
        cloud, d, kappa, spec = denoise_case("circle-D10")
        _, diags = iterative_denoise(cloud, d, 0.8, kappa, spec, k_iters=2)
        records = json.loads(diagnostics_to_json(diags))
        for diag, record in zip(diags, records, strict=True):
            assert diag.threshold == pytest.approx(spec.t * np.log(cloud.n - 1))
            assert 1.0 <= diag.slab_p05 <= diag.slab_p50
            assert diag.neighbours_mean > 0
            for key in ("threshold", "slab_p05", "slab_p50", "neighbours_mean"):
                assert record[key] == getattr(diag, key)
        # the outliers' counts sit below the threshold, the signal's above it
        assert diags[0].slab_p05 < diags[0].threshold < diags[0].slab_p50

    def test_stop_when_nothing_estimable(self, monkeypatch):
        calls = count_searches(monkeypatch)
        # 30 points 1 apart on a line: h_0 = (log 30 / (0.8 * 29))^(1/2) = 0.383,
        # so no point has a neighbour within h_0
        n, d, kappa = 30, 1, 1.0
        points = np.zeros((n, 2))
        points[:, 0] = np.arange(n)
        cloud = LabeledCloud(points, np.ones(n, dtype=np.int8), SampleSpec(n=n, beta=0.8))
        spec = SlabSpec(k1=0.5, k2=0.5, t=0.6)
        assert schedule(n, d, 0.8, kappa, 0).hs[0] < 1.0
        keep, diags = iterative_denoise(cloud, d, 0.8, kappa, spec, 2)
        assert keep == list(range(cloud.n))
        assert len(diags) == 1 and calls == ["query_pairs"]
        assert diags[0].survivors == cloud.n
        assert diags[0].inherited == 0
        assert diags[0].stop_reason == NO_TANGENT
        assert (keep, diags) == dense.iterative_denoise(cloud, d, 0.8, kappa, spec, 2)
        assert '"stop_reason": "no tangent estimable"' in diagnostics_to_json(diags)

    def test_stop_when_nothing_survives(self):
        cloud, d, kappa, spec = denoise_case("circle-D2")
        # no slab holds a million points
        spec = SlabSpec(k1=spec.k1, k2=spec.k2, t=1e6)
        keep, diags = iterative_denoise(cloud, d, 0.8, kappa, spec, 2)
        assert keep == []
        assert len(diags) == 1
        assert diags[0].survivors == 0 and diags[0].inherited > 0
        assert diags[0].stop_reason == NO_SURVIVORS
        assert (keep, diags) == dense.iterative_denoise(cloud, d, 0.8, kappa, spec, 2)
        assert '"stop_reason": "no survivors"' in diagnostics_to_json(diags)


BAD = [np.nan, np.inf, -np.inf]


def with_bad(points, value, row=3):
    out = np.array(points, dtype=float)
    out[row, 0] = value
    return out


class TestNonFiniteInput:
    pts = CLOUDS["D3-sphere"][0][:50]

    @pytest.mark.parametrize("value", BAD)
    def test_estimate_tangents(self, value):
        with pytest.raises(ValueError, match="NaN or inf"):
            estimate_tangents(with_bad(self.pts, value), TseParams(h=0.3, d=2))

    @pytest.mark.parametrize("value", BAD)
    def test_slab_counts(self, value):
        field = constant_field(len(self.pts), np.eye(3)[:, :2])
        with pytest.raises(ValueError, match="NaN or inf"):
            slab_counts(with_bad(self.pts, value), field, 0.3, SlabSpec(0.5, 0.5, 1.0))

    @pytest.mark.parametrize("value", BAD)
    def test_farthest_point_sampling(self, value):
        # a NaN used to be picked by argmax forever: the loop never ended
        with pytest.raises(ValueError, match="NaN or inf"):
            farthest_point_sampling(with_bad(self.pts, value), 0.2)

    @pytest.mark.parametrize("value", BAD)
    @pytest.mark.parametrize("func", [directed_hausdorff, hausdorff])
    def test_hausdorff_either_argument(self, func, value):
        # a NaN used to vanish in the minimum and give 0.0
        bad = with_bad(self.pts, value)
        with pytest.raises(ValueError, match="NaN or inf"):
            func(bad, self.pts)
        with pytest.raises(ValueError, match="NaN or inf"):
            func(self.pts, bad)
