"""Small shared numpy idioms used across the batch pipelines.

These are the vectorized building blocks that would otherwise be
copy-pasted between the grid index, the builders, the baselines and the
batch round engine:

* run expansion, offset cubes and the neighbouring-cell join
  (grid/builder pipelines, churn repair);
* key lookup in an ascending array (CSR entries, settled pair sets)
  and distinct keys by sorting;
* the counter-based SplitMix64/Murmur3 hash family that gives the
  stochastic gray-zone policies and the batch protocols their
  order-independent, scalar==batch randomness;
* CSR segment reductions (min/max/sum/any over ``indptr`` rows) used by
  the batch round engine's mailbox reductions.
"""

from __future__ import annotations

import operator

import numpy as np

from .exceptions import ParameterError

__all__ = [
    "run_expand",
    "offset_cube",
    "cell_neighbour_pairs",
    "sorted_find",
    "sorted_unique",
    "checked_seed",
    "seed_state",
    "mix64",
    "counter_uniforms",
    "counter_uniform",
    "segment_sum",
    "segment_any",
    "segment_min",
    "segment_max",
]


def run_expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Concatenate the integer ranges ``[starts[i], starts[i] + counts[i])``.

    Standard repeat/arange trick: expands variable-length runs without a
    Python loop.  Returns an empty int64 array when every count is zero.
    """
    total = int(counts.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    offsets = np.concatenate(
        [np.zeros(1, dtype=np.int64), np.cumsum(counts)[:-1]]
    )
    within = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts)
    return np.repeat(starts, counts) + within


def sorted_find(keys: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Index of each ``want[i]`` in the ascending ``keys``, or ``-1``
    where it does not occur: one ``searchsorted`` and one gather."""
    pos = np.searchsorted(keys, want)
    if keys.size == 0:
        return np.full(pos.shape, -1, dtype=np.int64)
    pos = np.minimum(pos, keys.size - 1)
    return np.where(keys[pos] == want, pos, -1)


def sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct ``keys``, ascending, found by sorting (``np.unique``
    hashes, which costs ~15x more on a few thousand integer keys)."""
    keys = np.sort(keys)
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def offset_cube(dim: int, reach: int) -> np.ndarray:
    """All integer offsets in ``[-reach, reach]^dim`` as a ``(k, dim)``
    int64 array (row-major enumeration, includes the zero offset)."""
    side = np.arange(-reach, reach + 1, dtype=np.int64)
    grids = np.meshgrid(*([side] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)


def cell_neighbour_pairs(a: np.ndarray, b: np.ndarray, reach: float):
    """Yield the index pairs ``(rows, cols)`` of points ``a[rows]`` and
    ``b[cols]`` whose grid cells are the same or adjacent along every
    axis, in three slabs: the cells of ``b`` one step below, level with
    and one step above the cell of ``a`` along the first axis.

    The cells are ``reach`` wide plus room for rounding: a relative
    ``1e-9`` and eight ulps of the largest coordinate.  So every pair
    within ``reach`` of each other along every axis comes out, and a
    caller whose own test rounds by less than that margin drops none.
    Cells are keyed by their linear index modulo ``2**64``: one cell
    always has one key, and two cells that share a key only add pairs.
    A slab at a time bounds the memory of a dense join by a third of
    its pairs.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape[0] == 0 or b.shape[0] == 0:
        return
    scale = max(float(np.abs(a).max()), float(np.abs(b).max()))
    width = reach * (1.0 + 1e-9) + 8.0 * np.finfo(np.float64).eps * scale
    if not width > 0.0:  # every point at the origin
        width = 1.0
    # One row per axis: the reductions below run along contiguous rows.
    ca = np.floor(np.ascontiguousarray(a.T) / width).astype(np.int64)
    cb = np.floor(np.ascontiguousarray(b.T) / width).astype(np.int64)
    lo = np.minimum(ca.min(axis=1), cb.min(axis=1)) - 1
    extent = np.maximum(ca.max(axis=1), cb.max(axis=1)) - lo + 2
    stride = np.cumprod(np.concatenate([[1], extent[:-1]])).astype(np.uint64)

    def key(cells: np.ndarray) -> np.ndarray:
        return ((cells - lo[:, None]).astype(np.uint64) * stride[:, None]).sum(
            axis=0, dtype=np.uint64
        )

    ka = key(ca)
    order = np.argsort(ka)
    ka = ka[order]
    kb = key(cb)
    # Keys are linear modulo 2**64: a cell offset adds a fixed key step.
    # offset_cube is row-major, so its thirds are the first-axis slabs.
    steps = key(offset_cube(a.shape[1], 1).T + lo[:, None])
    for slab in np.split(steps, 3):
        want = (slab[:, None] + kb[None, :]).ravel()
        first = np.searchsorted(ka, want, side="left")
        count = np.searchsorted(ka, want, side="right") - first
        cols = np.arange(want.size, dtype=np.int64) % b.shape[0]
        yield order[run_expand(first, count)], np.repeat(cols, count)


# ----------------------------------------------------------------------
# Counter-based hashing (stochastic policies, batch protocol randomness)
# ----------------------------------------------------------------------
_U64_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN_INT = 0x9E3779B97F4A7C15
_GOLDEN = np.uint64(_GOLDEN_INT)
_MIX_SHIFT = np.uint64(33)
_MIX_MUL1 = np.uint64(0xFF51AFD7ED558CCD)
_MIX_MUL2 = np.uint64(0xC4CEB9FE1A85EC53)
_INV_2_53 = float(2.0**-53)


def mix64(x: np.ndarray) -> np.ndarray:
    """Murmur3 fmix64 finalizer, elementwise on uint64 arrays (in place)."""
    x ^= x >> _MIX_SHIFT
    x *= _MIX_MUL1
    x ^= x >> _MIX_SHIFT
    x *= _MIX_MUL2
    x ^= x >> _MIX_SHIFT
    return x


def checked_seed(seed: object, owner: str) -> int:
    """``seed`` as a Python int, numpy integers included, or a
    :class:`ParameterError` naming ``owner``'s seed -- what a public
    constructor calls before anything draws from it."""
    try:
        return operator.index(seed)
    except TypeError:
        raise ParameterError(
            f"{owner} seed must be an integer, got {seed!r}"
        ) from None


def seed_state(seed: int) -> np.uint64:
    """Premixed uint64 hash state for an integer seed.

    Computed in Python ints (mod-2^64 wraparound is intended there and
    silent, unlike numpy scalar arithmetic, which warns on overflow for
    negative or huge seeds) and equal to :func:`mix64` of the masked seed
    plus the golden-ratio increment.  A numpy integer is read through
    ``operator.index``, so it draws exactly what the equal int draws.
    Callers cache this at construction so batch calls skip one full
    array mixing round.
    """
    x = (operator.index(seed) + _GOLDEN_INT) & _U64_MASK
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _U64_MASK
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _U64_MASK
    x ^= x >> 33
    return np.uint64(x)


def counter_uniforms(
    state: np.uint64, a: np.ndarray, b: np.ndarray
) -> np.ndarray:
    """Uniform ``[0, 1)`` deviates from a counter-based hash of the
    premixed ``state`` (see :func:`seed_state`) and the *ordered* integer
    pair ``(a, b)``.

    Stateless and vectorized: the deviate depends only on the seed and
    the two counters, so batch evaluation, scalar evaluation and any
    evaluation order produce identical values.  Unlike the gray-zone
    pair hash, the pair is NOT canonicalized -- ``(3, 5)`` and ``(5, 3)``
    hash differently, which is what per-(node, iteration) protocol draws
    need.
    """
    lo = np.asarray(a, dtype=np.int64).astype(np.uint64)
    hi = np.asarray(b, dtype=np.int64).astype(np.uint64)
    h = mix64(state ^ (lo + _GOLDEN))
    h = mix64(h ^ (hi + _GOLDEN))
    # Top 53 bits give a dyadic uniform in [0, 1), exactly representable.
    return (h >> np.uint64(11)).astype(np.float64) * _INV_2_53


def counter_uniform(state, a: int, b: int) -> float:
    """Scalar companion of :func:`counter_uniforms`, bit-identical.

    Computed in Python ints rather than through a 1-element array: the
    event tier draws one deviate per transmission, and the numpy scalar
    round trip (~30x slower) dominated fault-run profiles.  ``state``
    may be the ``np.uint64`` from :func:`seed_state` or a plain int.
    The arithmetic mirrors :func:`counter_uniforms` exactly — two's
    complement masking for the int64 cast, mod-2^64 wraparound, fmix64
    twice, top 53 bits scaled by 2^-53 (every step exact in floats) —
    so scalar and batch draws interleave freely.
    """
    x = int(state) ^ ((a + _GOLDEN_INT) & _U64_MASK)
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _U64_MASK
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _U64_MASK
    x ^= x >> 33
    x ^= (b + _GOLDEN_INT) & _U64_MASK
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _U64_MASK
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _U64_MASK
    x ^= x >> 33
    return (x >> 11) * _INV_2_53


# ----------------------------------------------------------------------
# CSR segment reductions
# ----------------------------------------------------------------------
def _segment_reduce(
    ufunc: np.ufunc, values: np.ndarray, indptr: np.ndarray, empty
) -> np.ndarray:
    """``ufunc``-reduce ``values`` over the CSR rows delimited by
    ``indptr``; empty rows yield ``empty``.

    ``np.ufunc.reduceat`` mishandles empty segments (it returns the
    element *at* the boundary instead of the identity), so the reduction
    runs over the non-empty rows only and the rest are filled directly.
    """
    n = indptr.size - 1
    out = np.full(n, empty, dtype=values.dtype)
    nonempty = indptr[:-1] < indptr[1:]
    if nonempty.any():
        out[nonempty] = ufunc.reduceat(values, indptr[:-1][nonempty])
    return out


def segment_sum(values: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row sums of a CSR-segmented value array (0 for empty rows)."""
    return _segment_reduce(np.add, values, indptr, empty=values.dtype.type(0))


def segment_any(mask: np.ndarray, indptr: np.ndarray) -> np.ndarray:
    """Row-wise ``any`` of a CSR-segmented boolean array."""
    return _segment_reduce(np.logical_or, mask, indptr, empty=False)


def segment_min(
    values: np.ndarray, indptr: np.ndarray, empty=np.inf
) -> np.ndarray:
    """Row minima of a CSR-segmented value array (``empty`` for empty rows)."""
    return _segment_reduce(np.minimum, values, indptr, empty=empty)


def segment_max(
    values: np.ndarray, indptr: np.ndarray, empty=-np.inf
) -> np.ndarray:
    """Row maxima of a CSR-segmented value array (``empty`` for empty rows)."""
    return _segment_reduce(np.maximum, values, indptr, empty=empty)
