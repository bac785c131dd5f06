"""The neighbour queries behind every local computation of the package, and
the input checks of every entry point: :func:`check_points` for a cloud (every
:class:`.models.LabeledCloud`, sampled or read, is built through it),
:func:`check_positive` for a scale, :func:`check_int` for a size,
:func:`check_indices` for a list of indices and :func:`_check_instance` for
an object argument, such as a cloud or a spec.

Each query asks which points of a cloud lie in a closed ball: a
``scipy.spatial.cKDTree`` search proposes candidates and the ball is then
decided exactly, as a dense scan decides it.  The primitives:

- :func:`_candidates`, one self-join of the cloud (each unordered pair found
  once) as sorted per-point lists, and :func:`_blocks`, those lists as padded
  blocks of differences; local-PCA tangents (:func:`.tangent.estimate_tangents`)
  and the denoise pass of :mod:`.denoise`, the package's only slab counter,
  read them.  A subset of the points reads its rows from the whole search.
- :func:`ball_lists`, the flattened lists of balls around some centres,
  with each candidate's exact squared distance, which the caller compares
  with no norm of its own: the farthest-point net's round update and the
  tie gather of the tangent inheritance (:func:`.tangent._inherit`).
- :func:`_sq_norms`, the squared lengths of coordinate differences given
  coordinate-major, one whole-array operation per coordinate, where a sum
  over a narrow last axis pays numpy's per-row cost (about 50 ns a row at
  D = 3).  The squared distances of :func:`ball_lists` and of the
  farthest-point net (:mod:`.sparsify`) come from it.

Every ball test, in a block or a ball list, is one comparison of a squared
distance with a squared radius: a dense scan's predicate, exact on the
sphere.  Every search runs a relative ``_RADIUS_SLACK`` wider than its
ball, since the tree rounds distances its own way.  Only :mod:`.geometry`'s
Hausdorff distance keeps its own query: it asks for one nearest point, not a
ball, of the rows its anchors' nearest points cannot bound, and its oracle
test compares its ``einsum`` distances bit for bit.

A block covers targets in stable order of width, the number of candidates
the self-join lists for each, one row each; it is as wide as its last row,
and a shorter row is padded with the target itself, at zero difference but
infinite squared distance, so that no ball or slab test counts it.  Blocks
are cut so that rows x max(widest row, D) x D float64 values stay within
``_BLOCK_BYTES``, a size that fits in a core's L2 cache, unless one row
alone is wider; so the block of differences and the local PCA's (rows, D, D)
stacks have a hard bound, however skewed the neighbour counts are.
"""
from __future__ import annotations

import math
import numbers
from itertools import chain

import numpy as np
from scipy.spatial import cKDTree

# bytes of a block of differences: a quarter of a 2 MiB L2 cache, so the
# block, its gather and its squared lengths stay in cache together (a row
# wider than this gets a block of its own)
_BLOCK_BYTES = 1 << 19
# relative slack on the tree's search radius: the tree rounds distances its
# own way, so it searches a little wider and the exact test is redone here
_RADIUS_SLACK = 1e-12


def check_points(x, name: str = "points") -> np.ndarray:
    """``x`` as (m, D) floats, m >= 0; ValueError unless D >= 1 and every entry is
    a real, finite integer or float.  A complex entry raises before the cast,
    which would drop its imaginary part; so do text and bytes, which it would
    parse, bools, which it would read as 0 and 1, and objects."""
    if np.iscomplexobj(x):
        raise ValueError(f"need real points as {name}, got complex entries")
    x = np.asarray(x)
    if x.dtype.kind not in "iuf":
        raise ValueError(f"need integer or float points as {name}, got dtype {x.dtype}")
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or not x.shape[1]:
        raise ValueError(f"need an (n, D) point array with D >= 1 as {name}, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError(f"{name} contains NaN or inf")
    return x


def check_positive(value, name: str) -> None:
    """Raise ValueError unless ``value`` is a real number, not a bool, in (0, inf)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not 0 < value < math.inf:
        raise ValueError(f"need {name} > 0 and finite, got {value!r}")


def check_int(value, name: str, low: int) -> None:
    """Raise ValueError unless ``value`` is an integer >= ``low``: a Python or
    numpy integer, not a bool and not a float of integral value."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
        raise ValueError(f"need an integer {name} >= {low}, got {value!r}")


def _check_instance(value, cls: type, name: str) -> None:
    """Raise ValueError, naming the argument, unless ``value`` is a ``cls``."""
    if not isinstance(value, cls):
        raise ValueError(f"need a {cls.__name__} as {name}, got {type(value).__name__}")


def check_indices(indices, n: int) -> np.ndarray:
    """``indices`` as an index array; ValueError unless they are 1-d integers in [0, n).

    A boolean mask or a float would otherwise be read as the indices 0 and 1,
    or rounded towards zero.  An empty sequence is taken whatever its dtype.
    The error names the shape of indices not 1-d, or one index outside [0, n).
    """
    indices = np.asarray(indices)
    if indices.ndim != 1:
        raise ValueError(f"need a 1-d array of indices, got shape {indices.shape}")
    if indices.size and not np.issubdtype(indices.dtype, np.integer):
        raise ValueError(f"indices must be integers, got dtype {indices.dtype}")
    indices = indices.astype(np.intp, copy=False)
    bad = indices[(indices < 0) | (indices >= n)]
    if bad.size:
        raise ValueError(f"index {bad[0]} is outside [0, {n})")
    return indices


def _candidates(points: np.ndarray, r2: float) -> tuple[np.ndarray, np.ndarray]:
    """Neighbour lists of a self-join of ``points`` a little wider than ``r2``.

    Returns CSR lists ``(indptr, cols)``: the columns of row i are
    ``cols[indptr[i]:indptr[i + 1]]``, increasing, with i itself left out.
    """
    n = len(points)
    radius = math.sqrt(r2) * (1.0 + _RADIUS_SLACK)
    found = cKDTree(points).query_pairs(radius, output_type="ndarray")
    # each pair (i, j), i < j, becomes the keys i n + j and j n + i in its
    # own two slots, so the search's result is the only index array:
    # (i, j) -> (i, j - i) -> (i n + j, j - i) -> (i n + j, j n + i)
    first, second = found[:, 0], found[:, 1]
    second -= first
    first *= n + 1
    first += second
    second *= n - 1
    second += first
    keys = found.reshape(-1)
    keys.sort()
    indptr = np.searchsorted(keys, np.arange(n + 1) * n)
    np.remainder(keys, n, out=keys)
    return indptr, keys


def _chunks(widths: np.ndarray, big_d: int):
    """Slices of rows, in increasing ``widths``, whose block fits in ``_BLOCK_BYTES``.

    A block holds rows x max(its last row's width, ``big_d``) x ``big_d``
    float64 values, for its differences and the local PCA's (rows, D, D)
    stacks; no slice needs more, except one that holds a single wider row.
    """
    slots = max(1, _BLOCK_BYTES // (8 * big_d))
    lo = 0
    while lo < len(widths):
        # the first row caps how many rows can fit; within them, the last
        # row decides
        window = widths[lo : lo + slots // max(big_d, int(widths[lo]))]
        need = np.arange(1, len(window) + 1) * np.maximum(window, big_d)
        hi = lo + max(1, int(np.searchsorted(need, slots, side="right")))
        yield slice(lo, hi)
        lo = hi


def _blocks(points: np.ndarray, indptr: np.ndarray, cols: np.ndarray, targets: np.ndarray):
    """Padded neighbour blocks of ``points[targets]`` from the lists of :func:`_candidates`.

    Yields ``(chunk, diff, d2)`` per block; ``chunk`` indexes the
    ``targets`` it covers, and the blocks cover each once.  Row r is target
    ``targets[chunk[r]]``: ``diff[r]`` its neighbours' differences from it,
    in increasing index order, then padding (the target itself, at zero
    difference), and ``d2[r]`` the squared lengths, inf on the padding.  The
    closed ball of squared radius r2, no wider than the search, is
    ``d2 <= r2``: a dense scan's predicate, exact on the sphere.
    """
    starts = indptr[targets]
    widths = indptr[targets + 1] - starts
    order = np.argsort(widths, kind="stable")
    for rows in _chunks(widths[order], points.shape[1]):
        chunk = order[rows]
        own, c = targets[chunk], widths[chunk]
        slot = np.arange(int(c[-1]))
        pad = slot >= c[:, None]
        nbr = np.where(pad, own[:, None], np.take(cols, starts[chunk, None] + slot, mode="clip"))
        diff = np.take(points, nbr, axis=0)
        diff -= points[own][:, None]
        d2 = np.einsum("rwi,rwi->rw", diff, diff)
        d2[pad] = np.inf
        yield chunk, diff, d2


def _sq_norms(columns: np.ndarray) -> np.ndarray:
    """Squared lengths of ``x`` from ``x`` coordinate-major, in place.

    ``columns[i]`` is ``x[..., i]``: a (D, ...) array, which this
    overwrites; the squares, added left to right, are returned as its view
    ``columns[0]``.
    """
    np.square(columns, out=columns)
    total = columns[0]
    for square in columns[1:]:
        total += square
    return total


def ball_lists(tree, centres: np.ndarray, r2: np.ndarray) -> tuple[np.ndarray, ...]:
    """``(rows, cols, d2)``, the balls of squared radii ``r2`` around ``centres``.

    Tree index ``cols[k]`` lies at squared distance ``d2[k]`` from
    ``centres[rows[k]]``; ``rows`` is non-decreasing, each ball's ``cols``
    in no set order.  Each ball is searched a relative ``_RADIUS_SLACK``
    wider; ``d2``, exact (:func:`_sq_norms`), decides membership: the
    closed ball is ``d2 <= r2[rows]``, the predicate of :func:`_blocks`.
    """
    radii = np.sqrt(r2) * (1.0 + _RADIUS_SLACK)
    near = tree.query_ball_point(centres, radii, return_sorted=False)
    lengths = np.fromiter(map(len, near), dtype=np.intp, count=len(near))
    cols = np.fromiter(chain.from_iterable(near), dtype=np.intp, count=int(lengths.sum()))
    # each centre repeated: faster than a gather of the centres through rows
    diff = tree.data[cols]
    diff -= np.repeat(centres, lengths, axis=0)
    return np.repeat(np.arange(len(centres)), lengths), cols, _sq_norms(diff.T)
