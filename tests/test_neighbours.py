"""The KD-tree neighbour layer against the all-pairs oracles in dense_oracles.

Every local query (tangents, slab counts, tangent inheritance, the
farthest-point net, Hausdorff) must return what the dense scan returns: the
same indices, counts, net order and distances, with closed-ball boundaries
and ties resolved the same way.  Slab counts come only from the denoising
pass, whose tangents and slab counts share one search per iteration; the
pass must return what the separate stages return, and the loop what the loop
over the dense stages returns.
"""
import dataclasses
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy.spatial import cKDTree

import dense_oracles as dense
from dense_oracles import Subspace, in_slab
from lemma_checks import random_subspace
from tdcrecon import _neighbours, geometry, sparsify, tangent
from tdcrecon.denoise import (
    NO_SURVIVORS,
    NO_TANGENT,
    SlabSpec,
    _tangents_and_slab_counts,
    bandwidths,
    default_slab_spec,
    diagnostics_to_json,
    iterative_denoise,
)
from tdcrecon.geometry import directed_hausdorff
from tdcrecon.models import LabeledCloud, SampleSpec, Sphere, Torus, make_model, sample
from tdcrecon.sparsify import farthest_point_sampling
from tdcrecon.tangent import _inherit, estimate_tangents

PROJECTOR_TOL = 1e-12


def lattice(*axes):
    """Integer lattice points, one coordinate range per axis."""
    return np.array(list(itertools.product(*axes)), dtype=float)


def clouds():
    """Fixed-seed clouds in D = 1, 2, 3 and 10, with a bandwidth and dimension."""
    rng = np.random.default_rng(101)
    line = rng.uniform(0.0, 4.0, size=(300, 1))
    sphere = sample(Sphere(1.0, ambient_dim=3), SampleSpec(n=500, beta=0.8, seed=102))
    circle = sample(make_model("circle", ambient_dim=10), SampleSpec(n=600, beta=0.8, seed=103))
    return {
        "D1-line": (line, 0.05, 1),  # d = D: a net, but no tangents
        "D2-line": (np.column_stack([line, np.zeros(len(line))]), 0.05, 1),
        "D3-sphere": (sphere.points, 0.3, 2),
        "D10-circle": (circle.points, 0.25, 1),
        # every point twice: duplicates are neighbours at distance zero
        "D10-duplicates": (np.vstack([circle.points[:200], circle.points[:200]]), 0.3, 1),
    }


CLOUDS = clouds()
# the clouds with tangents to estimate: d < D
TANGENT_CLOUDS = sorted(name for name, (pts, _, d) in CLOUDS.items() if d < pts.shape[1])


def assert_same_field(got, want):
    """The library's field ``got`` holds the dense oracle's ``(bases, skipped)``."""
    want_bases, want_skipped = want
    assert got.skipped.tolist() == want_skipped.tolist()
    for g, w in zip(dense.subspaces(got.bases), dense.subspaces(want_bases), strict=True):
        assert np.max(np.abs(g.projector() - w.projector())) <= PROJECTOR_TOL


def closed_ball_blocks(points, targets, r2):
    """``(chunk, nbr, diff, d2, inside)`` per block of ``targets`` in the closed ball of ``r2``.

    The library's own reading: one ``_candidates`` self-join at ``r2``, its
    ``_blocks`` and the exact test ``d2 <= r2``.  ``nbr[r]`` holds the
    columns the self-join lists for row r, padded with the target itself
    as ``_blocks`` pads its slots.
    """
    points = np.asarray(points, dtype=float)
    targets = np.asarray(targets)
    indptr, cols = _neighbours._candidates(points, r2)
    for chunk, diff, d2 in _neighbours._blocks(points, indptr, cols, targets):
        own = targets[chunk]
        nbr = np.repeat(own[:, None], d2.shape[1], axis=1)
        for r, t in enumerate(own):
            listed = cols[indptr[t] : indptr[t + 1]]
            nbr[r, : len(listed)] = listed
        yield chunk, nbr, diff, d2, d2 <= r2


def flatten(blocks, targets):
    """(rows, cols, diff, d2) of the pairs inside ball blocks, self pairs added.

    Pairs are sorted by row, then by column, as ``dense.ball_pairs`` gives
    them.  Checks the layout of each block on the way: listed neighbours
    first, in increasing index order, then padding with the target itself,
    with zero differences at infinite distance and never inside.
    """
    targets = np.asarray(targets)
    parts = []
    for chunk, nbr, diff, d2, inside in blocks:
        rows, own = chunk, targets[chunk]
        pad = nbr == own[:, None]
        assert not np.any(inside & pad)
        assert np.all(diff[pad] == 0.0) and np.all(d2[pad] == np.inf)
        assert np.all(np.isfinite(d2[~pad]))
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
        rows, cols, diff, d2 = flatten(closed_ball_blocks(pts, targets, 1.0), targets)
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
        chunks = list(closed_ball_blocks(pts, np.arange(len(pts)), 2.0))
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
            closed_ball_blocks(pts, targets, r2),
            targets,
            dense.ball_pairs(pts, targets, r2),
        )

    @pytest.mark.parametrize("name", ["lattice-r2", "duplicates", "subset"])
    def test_chunks_below_one_row(self, monkeypatch, name):
        # every row is wider than a block: one row per block
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", 1)
        pts, targets, r2 = PAIR_CASES[name]
        chunks = list(closed_ball_blocks(pts, targets, r2))
        assert [len(c[0]) for c in chunks] == [1] * len(targets)
        covered = np.concatenate([c[0] for c in chunks])
        assert sorted(covered.tolist()) == list(range(len(targets)))
        assert_same_pairs(chunks, targets, dense.ball_pairs(pts, targets, r2))

    def test_one_self_join(self, monkeypatch):
        calls = count_searches(monkeypatch)
        pts, targets, r2 = PAIR_CASES["subset"]
        list(closed_ball_blocks(pts, targets, r2))
        assert calls == ["query_pairs"]


def signed_rows(rng, m, big_d):
    """(m, D) coordinates of magnitudes 1e-3 to 5, every third row zero."""
    scale = 10.0 ** rng.uniform(-3.0, np.log10(5.0), size=(m, big_d))
    x = scale * rng.choice([-1.0, 1.0], size=(m, big_d))
    x[::3] = 0.0
    return x


class TestNorms:
    """The net on squared distances is the ``np.linalg.norm`` net, index for index.

    :func:`._neighbours._sq_norms` adds the squares left to right, numpy's
    ``norm`` sums below 8 coordinates that way, in 8 running sums up to 128
    and by halves above, so D = 1 ... 140 takes every one of its branches.
    The distances differ in their last bits from 8 coordinates on; the net,
    which only orders them and compares them with eps, must not.
    """

    @pytest.mark.parametrize("big_d", range(1, 141))
    def test_bit_equal_to_linalg_norm(self, monkeypatch, big_d):
        rng = np.random.default_rng(300 + big_d)
        pts = signed_rows(rng, 60, big_d)
        pts[1::4] = pts[2::4][: len(pts[1::4])]  # duplicate rows: exact zero distances
        far = np.unique(np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=-1))
        reach = np.max(np.linalg.norm(pts, axis=1))  # row 0 is zero: the first pick's distance
        # eps halfway between two distances: none lies on a sphere, where
        # the rounding of the two sums may decide the stop differently
        for i in np.searchsorted(far, reach * np.array([0.05, 0.3, 0.7])):
            eps = 0.5 * (far[i - 1] + far[i])
            want = dense.farthest_point_sampling(pts, eps)
            assert 1 < len(want) < len(pts)
            # dense updates every round, then ball lists after the first
            for ball_cost in (math.inf, 0):
                monkeypatch.setattr(sparsify, "_BALL_COST", ball_cost)
                assert farthest_point_sampling(pts, eps) == want


class TestSqNorms:
    """``_sq_norms`` of coordinate-major differences adds the squares left to right.

    Its reference is ``np.cumsum``, a sequential sum; numpy's ``norm`` and
    ``sum`` add in a pairwise order of their own from 8 coordinates on.
    """

    rows = staticmethod(signed_rows)

    @pytest.mark.parametrize("big_d", [1, 2, 3, 7, 8, 10, 129])
    def test_bit_equal_to_sequential_sum(self, big_d):
        rng = np.random.default_rng(300 + big_d)
        a, b = self.rows(rng, 40, big_d), self.rows(rng, 40, big_d)
        b[::4] = a[::4]  # exact zero differences
        cases = [
            # equal shapes, coordinate-major, and the transposed view ball_lists passes
            (a - b, a.T - b.T),
            (a - b, (a - b).T),
            # every row against one centre
            (a - a[5], a.T - a.T[:, 5, None]),
            # (1, k, D) against (k, 1, D)
            (a[None, :, :] - a[:, None, :], a.T[:, None, :] - a.T[:, :, None]),
        ]
        for diff, columns in cases:
            want = np.cumsum(np.square(diff), axis=-1)[..., -1]
            got = _neighbours._sq_norms(columns)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestBallLists:
    def test_flattened_closed_balls(self):
        # unit lattice: the axis neighbours at squared radius 1 and the
        # diagonal ones at 2 lie on the spheres; 0 holds the centre alone,
        # and no centres give three empty arrays
        pts = lattice(range(5), range(5))
        tree = cKDTree(pts)
        for picked, r2 in [([0, 12, 24, 7], np.array([1.0, 2.0, 0.0, 4.0])), ([], np.array([]))]:
            centres = pts[picked]
            rows, cols, d2 = _neighbours.ball_lists(tree, centres, r2)
            assert rows.dtype == cols.dtype == np.intp
            assert len(rows) == len(cols) == len(d2) and np.all(np.diff(rows) >= 0)
            # integer coordinates: every squared distance is exact, which
            # no caller recomputes
            assert d2.tolist() == np.sum((pts[cols] - centres[rows]) ** 2, axis=1).tolist()
            for i, (centre, radius2) in enumerate(zip(centres, r2, strict=True)):
                ball, gap = cols[rows == i], d2[rows == i]
                want = np.flatnonzero(np.sum((pts - centre) ** 2, axis=1) <= radius2)
                assert sorted(ball.tolist()) == want.tolist()
                assert sorted(ball[gap <= radius2].tolist()) == want.tolist()


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
            field = estimate_tangents(pts, 0.1, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(field.bases) - len(field.skipped) == len(pts)
        # the self-join's index lists (8 B per ordered pair), a few arrays
        # of a block each and the field itself
        assert peak <= 8 * pairs + 16 * _neighbours._BLOCK_BYTES

    def test_rows_narrower_than_d(self):
        # a row counted as its width, 0 here, put 6553 such rows at D = 10
        # in one block: 5.2 MB per (rows, D, D) stack of the local PCA
        big_d, n = 10, 2000
        pts = np.zeros((n, big_d))
        pts[:, 0] = np.arange(n)  # 1 apart: no candidate within 0.5
        indptr, cols = _neighbours._candidates(pts, 0.25)
        blocks = _neighbours._blocks(pts, indptr, cols, np.arange(n))
        rows = [len(chunk) for chunk, *_ in blocks]
        assert sum(rows) == n
        assert max(rows) == _neighbours._BLOCK_BYTES // (8 * big_d * big_d) == 655

    def test_skewed_cloud_padding(self):
        # a block of consecutive targets is as wide as its widest row: 8.1
        # slots per listed candidate here; in order of width, 1.0
        pts = skewed_cloud()
        padded = listed = 0
        for _, _, _, d2, _ in closed_ball_blocks(pts, np.arange(len(pts)), 0.01):
            padded += d2.size
            listed += np.count_nonzero(np.isfinite(d2))
        assert listed > 10**6
        assert padded <= 1.05 * listed


class TestBlockCuts:
    """Where the stream cuts its blocks changes no bit of any output."""

    @staticmethod
    def outputs():
        # signal and outliers interleaved: rows of many widths side by side
        cloud = sample(make_model("circle", ambient_dim=3), SampleSpec(n=600, beta=0.7, seed=305))
        pts, h, d = cloud.points, 0.25, 1
        spec = SlabSpec(k1=0.6, k2=1.5, t=1.0)
        field = estimate_tangents(pts, h, d)
        counts, inherited, _ = _tangents_and_slab_counts(pts, h, d, spec)
        assert inherited > 0
        return [a.tobytes() for a in (field.bases, field.skipped, counts)]

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
            estimate_tangents(self.pts, 0.3, 2, subset=[3, bad])


class TestNonIntegerIndices:
    pts = CLOUDS["D3-sphere"][0][:50]
    h, d = 0.3, 2

    def test_boolean_mask_raises(self):
        # a mask with 3 True entries used to give 50 estimates at indices 0 and 1
        mask = np.zeros(50, dtype=bool)
        mask[[4, 9, 30]] = True
        with pytest.raises(ValueError, match="must be integers, got dtype bool"):
            estimate_tangents(self.pts, self.h, self.d, subset=mask)

    def test_float_indices_raise(self):
        # [1.7, 2.2] used to be read as [1, 2]
        with pytest.raises(ValueError, match="must be integers, got dtype float64"):
            estimate_tangents(self.pts, self.h, self.d, subset=[1.7, 2.2])

    def test_empty_subset(self):
        field = estimate_tangents(self.pts, self.h, self.d, subset=[])
        assert field.bases.shape == (0, 3, 2) and len(field.skipped) == 0

    @pytest.mark.parametrize(
        "subset, shape",
        [([[0, 1], [2, 3]], r"\(2, 2\)"), (5, r"\(\)"), (np.zeros((0, 2), int), r"\(0, 2\)")],
        ids=["nested", "scalar", "empty-2d"],
    )
    def test_not_one_dimensional_raises(self, subset, shape):
        # a nested list failed deep in the block cutter with a TypeError, a
        # scalar with "len() of unsized object", and an empty (0, 2) array
        # gave a (0, D, d) field
        with pytest.raises(ValueError, match=f"need a 1-d array of indices, got shape {shape}"):
            estimate_tangents(self.pts, self.h, self.d, subset=subset)


def assert_pass_matches_stages(pts, h, d, spec):
    """The one-pass slab counts hold the bits of the separate stages.

    The stages are ``estimate_tangents``, with a search of its own, and the
    dense slab counts of ``dense_oracles`` along its bases; the inherited
    total is its number of skipped rows, and the neighbour total is the
    dense count of pairs within h.  Returns the standalone field, or None
    when no tangent is estimable.
    """
    counts, inherited, neighbours = _tangents_and_slab_counts(pts, h, d, spec)
    rows = dense.ball_pairs(pts, np.arange(len(pts)), h * h)[0]
    assert neighbours == len(rows) - len(pts)
    if counts is None:
        assert inherited == 0
        with pytest.raises(ValueError, match="no tangent estimable"):
            estimate_tangents(pts, h, d)
        return None
    want = estimate_tangents(pts, h, d)
    assert inherited == len(want.skipped)
    want_counts = dense.slab_counts(pts, want.bases, h, spec)
    assert counts.tobytes() == want_counts.tobytes()
    return want


# slab balls narrower and wider than the tangent bandwidth h
NARROW_SLAB = SlabSpec(k1=0.5, k2=0.5, t=1.0)
WIDE_SLAB = SlabSpec(k1=1.5, k2=0.5, t=1.0)


def slab_ball_r2(h, spec):
    """Squared radius of the ball about a slab's centre that holds the slab."""
    return (spec.k1 * h) ** 2 + (spec.k2 * h * h) ** 2


class TestSharedNeighbours:
    """One neighbour search per denoising iteration, shared by tangents and slab counts.

    Each block of the search is read once for the local-PCA bases of its
    rows and, with those bases, their slab counts; the skipped rows are read
    again from the same lists once they inherit a basis.  Either way the
    results are those of the separate stages: the standalone tangents, with
    their inherited rows, and the dense slab counts.
    """

    def test_both_readers_match_own_searches(self):
        for name, spec in itertools.product(TANGENT_CLOUDS, (NARROW_SLAB, WIDE_SLAB)):
            pts, h, d = CLOUDS[name]
            field = assert_pass_matches_stages(pts, h, d, spec)
            assert len(field.bases) - len(field.skipped) > 0

    def test_lattice_radii_hit_exactly(self, monkeypatch):
        # integer squared distances: neighbours on the h-sphere, and slab
        # points on both faces of the slab (tangential 1, normal 1)
        monkeypatch.setattr(tangent, "_MIN_NEIGHBORS", 4)
        pts = lattice(range(5), range(4), range(3))
        for h, spec in [(1.0, SlabSpec(k1=1.0, k2=1.0, t=1.0)), (2.0, SlabSpec(0.5, 0.25, 1.0))]:
            assert_pass_matches_stages(pts, h, 2, spec)

    def test_kept_radius_equal_to_search(self):
        # the slab ball is the search radius and the h-ball lies inside it
        pts, h, d = CLOUDS["D10-circle"]
        assert slab_ball_r2(h, WIDE_SLAB) > h * h
        field = assert_pass_matches_stages(pts, h, d, WIDE_SLAB)
        assert len(field.skipped)

    def test_kept_pairs_in_small_chunks(self, monkeypatch):
        # every block cut, the skipped rows' second read included
        for block_bytes in (1, 320):
            monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", block_bytes)
            for name, spec in itertools.product(TANGENT_CLOUDS, (NARROW_SLAB, WIDE_SLAB)):
                pts, h, d = CLOUDS[name]
                assert_pass_matches_stages(pts, h, d, spec)

    def test_nothing_estimable(self):
        # two points: no point has the 3 neighbours an estimate needs
        pts = np.array([[0.0, 0.0], [0.0, 0.5]])
        assert assert_pass_matches_stages(pts, 1.0, 1, NARROW_SLAB) is None


class TestEstimateTangentsOracle:
    @pytest.mark.parametrize("name", TANGENT_CLOUDS)
    def test_matches_dense(self, name):
        pts, h, d = CLOUDS[name]
        assert_same_field(estimate_tangents(pts, h, d), dense.estimate_tangents(pts, h, d))

    def test_subset(self):
        pts, h, d = CLOUDS["D10-circle"]
        subset = [5, 17, 599, 100, 5, 3]
        assert_same_field(
            estimate_tangents(pts, h, d, subset=subset),
            dense.estimate_tangents(pts, h, d, subset=subset),
        )

    def test_small_chunks(self, monkeypatch):
        # blocks of a few slots: many hold a single target
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", 256)
        pts, h, d = CLOUDS["D3-sphere"]
        assert_same_field(estimate_tangents(pts, h, d), dense.estimate_tangents(pts, h, d))

    def test_lattice_closed_ball(self, monkeypatch):
        # the plane z = 0 in R^3 with h = 1: each interior point has exactly
        # its four axis neighbours, all on the sphere of radius h
        monkeypatch.setattr(tangent, "_MIN_NEIGHBORS", 4)
        pts = np.column_stack([lattice(range(6), range(5)), np.zeros(30)])
        h, d = 1.0, 2
        field = estimate_tangents(pts, h, d)
        assert_same_field(field, dense.estimate_tangents(pts, h, d))
        interior = [j for j, p in enumerate(pts) if 0 < p[0] < 5 and 0 < p[1] < 4]
        assert dense.estimated_rows(field).tolist() == interior
        plane = np.diag([1.0, 1.0, 0.0])
        for sub in dense.subspaces(field.bases):
            assert np.max(np.abs(sub.projector() - plane)) <= PROJECTOR_TOL


class TestSlabCountsOracle:
    """The pass's slab counts and the dense slab counts they are held to."""

    def test_matches_dense_estimated_tangents(self):
        pts, h, d = CLOUDS["D10-circle"]
        spec = SlabSpec(k1=0.375, k2=1.0 / 12.0, t=0.4)
        assert_pass_matches_stages(pts, h, d, spec)

    @pytest.mark.parametrize(
        "h, k1, k2",
        [(1.0, 1.0, 1.0), (2.0, 0.5, 0.25)],
    )
    def test_lattice_slab_radii_hit_exactly(self, h, k1, k2):
        # tangential radius k1 h = 1 and normal radius k2 h^2 = 1 on a unit
        # lattice: the slab corners (1, 1, 0) lie on both slab boundaries and
        # on the sphere that bounds the slab
        pts = lattice(range(5), range(-2, 3), range(-2, 3))
        axis = Subspace(np.eye(3)[:, :1])
        bases = np.repeat(axis.basis[None], len(pts), axis=0)
        spec = SlabSpec(k1=k1, k2=k2, t=1.0)
        got = dense.slab_counts(pts, bases, h, spec)
        # the reference decides each pair as the slab predicate does
        for j in range(len(pts)):
            assert got[j] == sum(in_slab(pts[j], axis, h, spec, y) for y in pts)
        centre = int(np.flatnonzero(np.all(pts == [2.0, 0.0, 0.0], axis=1))[0])
        # |x| <= 1 along the tangent, y^2 + z^2 <= 1 across it: 3 x 5 points
        assert got[centre] == 15

    def test_small_chunks(self, monkeypatch):
        monkeypatch.setattr(_neighbours, "_BLOCK_BYTES", 256)
        pts, h, d = CLOUDS["D3-sphere"]
        assert_pass_matches_stages(pts, h, d, SlabSpec(k1=0.6, k2=1.5, t=1.0))


def inherited_both_ways(points, bases, estimated):
    """The bases after the library's inheritance and after the dense argmin's."""
    got, want = bases.copy(), bases.copy()
    assert _inherit(points, got, estimated).tolist() == np.flatnonzero(~estimated).tolist()
    dense.complete(points, want, estimated)
    return got, want


class TestCompleteOracle:
    """The skipped rows inherit as the dense argmin does: nearest first, then first in target order."""

    def test_matches_dense(self):
        pts, h, d = CLOUDS["D10-circle"]
        bases, estimated = dense.pca_bases(pts, h, d, np.arange(len(pts)))
        assert not estimated.all()
        got, want = inherited_both_ways(pts, bases, estimated)
        assert np.array_equal(got, want)

    def test_exact_ties_go_to_lowest_index(self):
        # cell centres of a unit lattice are equidistant from four lattice
        # points; a KD-tree nearest query returns a higher-index one for
        # several of them, the dense argmin the lowest
        grid = lattice(range(-3, 4), range(-3, 4))
        centres = lattice(range(-3, 3), range(-3, 3)) + 0.5
        pts = np.vstack([grid, centres])
        rng = np.random.default_rng(10)
        bases = np.zeros((len(pts), 2, 1))
        bases[: len(grid)] = [random_subspace(rng, 2, 1).basis for _ in grid]
        estimated = np.arange(len(pts)) < len(grid)
        got, want = inherited_both_ways(pts, bases, estimated)
        for j, centre in enumerate(centres, start=len(grid)):
            dist = np.linalg.norm(grid - centre, axis=1)
            lowest = int(np.flatnonzero(dist == dist.min())[0])
            assert np.array_equal(got[j], bases[lowest])
            assert np.array_equal(want[j], bases[lowest])

    def test_duplicate_of_an_estimate(self):
        # row k is the k-th target: the skipped last one coincides with the
        # estimates at rows 1 and 2, and row 1 comes first in target order
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        bases = np.stack([np.eye(2)[:, :1], np.eye(2)[:, 1:], np.ones((2, 1)) / np.sqrt(2.0)])
        bases = np.concatenate([bases, np.zeros((1, 2, 1))])
        got, want = inherited_both_ways(pts, bases, np.array([True, True, True, False]))
        assert np.array_equal(got[3], bases[1])
        assert np.array_equal(want[3], bases[1])


class TestFarthestPointOracle:
    @pytest.mark.parametrize("name", sorted(CLOUDS))
    @pytest.mark.parametrize("eps", [0.05, 0.2, 0.7])
    def test_same_net_order(self, name, eps):
        pts = CLOUDS[name][0]
        assert farthest_point_sampling(pts, eps) == dense.farthest_point_sampling(pts, eps)

    def test_start_index(self):
        # the net starts at row 0: rolling the cloud starts it elsewhere
        pts = np.roll(CLOUDS["D3-sphere"][0], -77, axis=0)
        assert farthest_point_sampling(pts, 0.3) == dense.farthest_point_sampling(pts, 0.3)

    @pytest.mark.parametrize("eps", [0.5, 1.0, 1.5, 2.0])
    def test_lattice_ties_and_boundaries(self, eps):
        # integer distances tie everywhere and hit eps exactly
        pts = lattice(range(6), range(5), range(3))
        assert farthest_point_sampling(pts, eps) == dense.farthest_point_sampling(pts, eps)

    @staticmethod
    def assert_nets_match_dense():
        for pts, _, _ in CLOUDS.values():
            for eps in (0.05, 0.7):
                assert farthest_point_sampling(pts, eps) == dense.farthest_point_sampling(pts, eps)
        sphere = np.roll(CLOUDS["D3-sphere"][0], -77, axis=0)
        assert farthest_point_sampling(sphere, 0.3) == dense.farthest_point_sampling(sphere, 0.3)
        # the largest distance ties with the round's cut on the lattice
        grid = np.roll(lattice(range(6), range(5), range(3)), -7, axis=0)
        for eps in (0.5, 1.0, 1.5, 2.0):
            assert farthest_point_sampling(grid, eps) == dense.farthest_point_sampling(grid, eps)

    # one pick a round, two, and more than any cloud has points
    @pytest.mark.parametrize("batch", [1, 2, 10_000])
    def test_forced_round_sizes(self, monkeypatch, batch):
        monkeypatch.setattr(sparsify, "_BATCH", batch)
        self.assert_nets_match_dense()

    # every round updates densely; every round after the first lists balls
    @pytest.mark.parametrize("ball_cost", [math.inf, 0])
    def test_forced_update_paths(self, monkeypatch, ball_cost):
        monkeypatch.setattr(sparsify, "_BALL_COST", ball_cost)
        self.assert_nets_match_dense()

    def test_one_ball_query_per_round(self, monkeypatch):
        calls = count_searches(monkeypatch, sparsify)
        pts = sample(Torus(), SampleSpec(n=4000, seed=5)).points
        net = farthest_point_sampling(pts, 0.1)
        # one query per net point would be about 1.5k
        assert calls.count("query_ball_point") <= len(net) / 8

    def test_dense_rounds_replace_ball_queries(self, monkeypatch):
        calls = count_searches(monkeypatch, sparsify)
        pts = sample(Torus(), SampleSpec(n=4000, seed=5)).points
        net = farthest_point_sampling(pts, 0.1)
        queries = calls.count("query_ball_point")
        monkeypatch.setattr(sparsify, "_BALL_COST", 0)
        calls.clear()
        assert farthest_point_sampling(pts, 0.1) == net
        assert calls.count("query_ball_point") > queries


class TestHausdorffOracle:
    @pytest.mark.parametrize("big_d", [1, 3, 10])
    def test_same_values(self, big_d):
        rng = np.random.default_rng(200 + big_d)
        for _ in range(5):
            a = rng.normal(size=(int(rng.integers(1, 300)), big_d))
            b = rng.normal(size=(int(rng.integers(1, 300)), big_d))
            self.assert_both_ways(a, b)

    def test_lattice_with_duplicates(self):
        a = lattice(range(4), range(4))
        b = np.vstack([a[::3], a[::3]]) + 0.5
        self.assert_both_ways(a, b)

    def assert_both_ways(self, a, b):
        assert directed_hausdorff(a, b) == dense.directed_hausdorff(a, b)
        assert directed_hausdorff(b, a) == dense.directed_hausdorff(b, a)

    # 103 rows: anchors at 0, 4, ..., 100, so rows 101 and 102 have only the
    # anchor before them; one far row at each residue mod the stride, and last
    @pytest.mark.parametrize("big_d", [1, 3, 10])
    @pytest.mark.parametrize("far", [40, 41, 42, 43, 102])
    def test_far_row_of_an_ordered_curve(self, big_d, far):
        rng = np.random.default_rng(far + big_d)
        a, b = ordered_curve(rng, 103, big_d)
        a[far] = 10.0
        assert directed_hausdorff(a, b) > 5.0
        self.assert_both_ways(a, b)
        # the far row is found in any row order
        self.assert_both_ways(a[rng.permutation(len(a))], b)

    @pytest.mark.parametrize("big_d", [1, 3, 10])
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_fewer_rows_than_a_stride(self, big_d, m):
        rng = np.random.default_rng(10 * m + big_d)
        a, b = rng.normal(size=(m, big_d)), rng.normal(size=(50, big_d))
        self.assert_both_ways(a, b)

    @pytest.mark.parametrize("big_d", [1, 3, 10])
    def test_subset(self, monkeypatch, big_d):
        rng = np.random.default_rng(300 + big_d)
        _, b = ordered_curve(rng, 200, big_d)
        rows = count_query_rows(monkeypatch)
        part = b[5:30]
        assert directed_hausdorff(part, b) == 0.0
        self.assert_both_ways(part, b)
        # each point of part repeated a stride's length sits on its anchor's
        # nearest point: every bound is 0, and only the anchors are queried
        rows.clear()
        assert directed_hausdorff(np.repeat(part, geometry._ANCHOR_STRIDE, axis=0), b) == 0.0
        assert rows == [len(part)]

    def test_grid_rows_are_mostly_bounded(self, monkeypatch):
        grid = Torus().grid(0.05)
        pts = sample(Torus(), SampleSpec(n=4000, seed=5)).points
        net = pts[farthest_point_sampling(pts, 0.1)]
        rows = count_query_rows(monkeypatch)
        got = directed_hausdorff(grid, net)
        # the anchors alone are a quarter of the rows
        assert len(grid) // 4 < sum(rows) < len(grid) / 2
        assert got == dense.directed_hausdorff(grid, net)


def ordered_curve(rng, m, big_d):
    """(a, b): m consecutive points of a curve in R^big_d, 0.02 apart in the
    first coordinate, and a noisy fifth of them in random order."""
    t = 0.02 * np.arange(m)
    a = np.zeros((m, big_d))
    a[:, 0] = t
    a[:, 1:] = np.sin(t[:, None] + np.arange(1, big_d))
    b = a[rng.permutation(m)[: m // 5]] + 0.01 * rng.normal(size=(m // 5, big_d))
    return a, b


def count_query_rows(monkeypatch):
    """Record the number of rows of each nearest-point query of a tree that
    :mod:`tdcrecon.geometry` builds from now on."""
    rows = []

    class Counted(cKDTree):
        def query(self, x, *args, **kwargs):
            rows.append(len(x))
            return super().query(x, *args, **kwargs)

    monkeypatch.setattr(geometry, "cKDTree", Counted)
    return rows


def denoise_case(name):
    """(cloud, d, kappa, spec) of a fixed-seed denoising run, beta = 0.8."""
    if name == "circle-D2":
        cloud = sample(make_model("circle", ambient_dim=2), SampleSpec(n=600, beta=0.8, seed=301))
        return cloud, 1, 8.0, default_slab_spec(1, 2, 1.0, t=0.4, angle_constant=0.5)
    if name == "circle-D10":
        cloud = sample(make_model("circle", ambient_dim=10), SampleSpec(n=600, beta=0.8, seed=302))
        return cloud, 1, 8.0, default_slab_spec(1, 10, 1.0, t=0.4, angle_constant=0.5)
    if name == "sphere-D3":
        cloud = sample(Sphere(1.0, ambient_dim=3), SampleSpec(n=800, beta=0.8, seed=303))
        return cloud, 2, 30.0, default_slab_spec(2, 3, 1.0, t=0.15, angle_constant=0.5)
    # k1 > 1: the ball around each slab is wider than the tangent bandwidth
    cloud = sample(make_model("circle", ambient_dim=3), SampleSpec(n=600, beta=0.8, seed=304))
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
        h = bandwidths(cloud.n, d, 0.8, kappa, 0)[0]
        assert slab_ball_r2(h, spec) > h * h
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
        # count together; a row whose tangent is inherited, once more if it
        # lists a neighbour
        rows, searches = [], []
        blocks, candidates = _neighbours._blocks, _neighbours._candidates

        def counted(*args):
            for block in blocks(*args):
                rows.append(len(block[0]))
                yield block

        def recorded(points, r2):
            lists = candidates(points, r2)
            searches.append((points, lists[0]))
            return lists

        monkeypatch.setattr(_neighbours, "_blocks", counted)
        monkeypatch.setattr(_neighbours, "_candidates", recorded)
        cloud, d, kappa, spec = denoise_case("circle-D10")
        _, diags = iterative_denoise(cloud, d, 0.8, kappa, spec, k_iters=2)
        sizes = [cloud.n] + [diag.survivors for diag in diags[:-1]]
        assert len(diags) == len(searches) == 3 and diags[0].inherited > 0
        read_again = 0
        for (pts, indptr), diag in zip(searches, diags, strict=True):
            # too few others within h for an estimate of its own
            d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
            inherits = np.count_nonzero(d2 <= diag.h_k**2, axis=1) - 1 < tangent._MIN_NEIGHBORS
            assert np.count_nonzero(inherits) == diag.inherited
            read_again += np.count_nonzero(inherits & (np.diff(indptr) > 0))
        assert sum(rows) == sum(sizes) + read_again

    def test_no_tree_for_rows_that_list_nobody(self, monkeypatch):
        # iteration 0 inherits only at rows that list no neighbour, which
        # count themselves alone whatever their basis: no inheritance tree
        trees = []

        class Counted(cKDTree):
            def __init__(self, data, *args, **kwargs):
                trees.append(len(data))
                super().__init__(data, *args, **kwargs)

        monkeypatch.setattr(tangent, "cKDTree", Counted)
        cloud, d, kappa, spec = denoise_case("circle-D10")
        want = dense.iterative_denoise(cloud, d, 0.8, kappa, spec, 0)
        got = iterative_denoise(cloud, d, 0.8, kappa, spec, k_iters=0)
        assert got == want and got[1][0].inherited > 0
        assert trees == []

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
        cloud = LabeledCloud(points, np.ones(n, dtype=np.int8))
        spec = SlabSpec(k1=0.5, k2=0.5, t=0.6)
        assert bandwidths(n, d, 0.8, kappa, 0)[0] < 1.0
        keep, diags = iterative_denoise(cloud, d, 0.8, kappa, spec, 2)
        assert keep == list(range(cloud.n))
        assert len(diags) == 1 and calls == ["query_pairs"]
        assert diags[0].survivors == cloud.n
        assert diags[0].inherited == 0
        assert diags[0].stop_reason == NO_TANGENT
        assert (keep, diags) == dense.iterative_denoise(cloud, d, 0.8, kappa, spec, 2)
        assert '"stop_reason": "no tangent estimable"' in diagnostics_to_json(diags)

    def test_unlabelled_cloud(self):
        # the oracle used to fail on a cloud without labels
        cloud, d, kappa, spec = denoise_case("circle-D10")
        unlabelled = LabeledCloud(cloud.points)
        keep, diags = iterative_denoise(unlabelled, d, 0.8, kappa, spec, 2)
        assert (keep, diags) == dense.iterative_denoise(unlabelled, d, 0.8, kappa, spec, 2)
        # no confusion counts; the survivors and every other field as labelled
        want_keep, labelled = iterative_denoise(cloud, d, 0.8, kappa, spec, 2)
        assert keep == want_keep and len(keep) < cloud.n
        assert diags == [
            dataclasses.replace(diag, true_positives=None, false_positives=None)
            for diag in labelled
        ]

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
            estimate_tangents(with_bad(self.pts, value), 0.3, 2)

    @pytest.mark.parametrize("value", BAD)
    def test_slab_counts(self, value):
        # the slab counts come from iterative_denoise alone, which reads a
        # LabeledCloud: the value is rejected when the cloud is built, and a
        # built cloud's read-only copy of its points cannot take it later
        with pytest.raises(ValueError, match="NaN or inf"):
            LabeledCloud(with_bad(self.pts, value))
        cloud = LabeledCloud(self.pts, np.ones(len(self.pts), dtype=np.int8))
        with pytest.raises(ValueError, match="read-only"):
            cloud.points[3, 0] = value
        assert np.array_equal(cloud.points, self.pts)

    @pytest.mark.parametrize("value", BAD)
    def test_farthest_point_sampling(self, value):
        # a NaN used to be picked by argmax forever: the loop never ended
        with pytest.raises(ValueError, match="NaN or inf"):
            farthest_point_sampling(with_bad(self.pts, value), 0.2)

    @pytest.mark.parametrize("value", BAD)
    def test_hausdorff_either_argument(self, value):
        # a NaN used to vanish in the minimum and give 0.0
        bad = with_bad(self.pts, value)
        with pytest.raises(ValueError, match="NaN or inf"):
            directed_hausdorff(bad, self.pts)
        with pytest.raises(ValueError, match="NaN or inf"):
            directed_hausdorff(self.pts, bad)
