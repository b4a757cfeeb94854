"""Builders for unit disk graphs and alpha-quasi unit ball graphs.

Section 1.1 of the paper: a d-dimensional ``alpha``-UBG on a point set has
an edge for every pair at distance ``<= alpha``, no edge for pairs at
distance ``> 1``, and *any* adversarial choice for pairs in the gray zone
``(alpha, 1]``.  A UDG is the special case ``alpha = 1``.

The gray-zone choice is modelled by :class:`GrayZonePolicy` strategies.
Because the guarantees of the paper hold for every admissible adversary,
experiments sweep several policies (E6) -- keep-all, drop-all, Bernoulli,
distance-decay and obstacle-crossing.

Batch pipeline
--------------
Construction is array-native end to end: the grid index emits the full
candidate set as ``(u, v, dist)`` numpy arrays
(:meth:`repro.geometry.grid.GridIndex.pairs_within_arrays`), gray-zone
policies decide whole pair arrays at once (:meth:`GrayZonePolicy.
decide_batch`), edge metrics weight whole length arrays
(:meth:`repro.geometry.metrics.EdgeMetric.weights_of_lengths`), and the
result is bulk-inserted via :meth:`repro.graphs.graph.Graph.
add_weighted_edges_arrays` -- no per-pair Python dispatch anywhere on the
hot path.

Determinism contract: the stochastic policies (Bernoulli, decay) draw
their per-pair randomness from a counter-based hash of ``(seed, min(u,
v), max(u, v))`` -- a SplitMix64/Murmur3-style integer finalizer mapped to
a uniform in ``[0, 1)`` -- evaluated array-at-once.  The scalar
``decide`` delegates to the same hash, so the per-pair path and the batch
path agree bit-for-bit (pinned by regression tests), builds are
order-independent and reproducible for a fixed seed, and no RNG object is
constructed per pair.  Policies that only implement the scalar ``decide``
still work: the builders fall back to a per-pair loop for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from ..arrayops import checked_seed, counter_uniforms, seed_state
from ..exceptions import GraphError
from ..geometry.grid import GridIndex
from ..geometry.metrics import EdgeMetric, EuclideanMetric
from ..geometry.points import PointSet
from .graph import Graph

__all__ = [
    "GrayZonePolicy",
    "KeepAllPolicy",
    "DropAllPolicy",
    "BernoulliPolicy",
    "DecayPolicy",
    "ObstaclePolicy",
    "build_udg",
    "build_qubg",
    "qubg_edge_mask",
    "reject_coincident",
]

# ----------------------------------------------------------------------
# Counter-based pair hashing (stochastic policies)
# ----------------------------------------------------------------------
# The hash family itself lives in repro.arrayops (it is shared with the
# batch round engine's protocol randomness); this module canonicalizes
# pair orientation so gray-zone decisions are symmetric in (u, v).
_seed_state = seed_state


def _pair_uniforms(
    state: np.uint64, u: np.ndarray, v: np.ndarray
) -> np.ndarray:
    """Uniform ``[0, 1)`` deviates from a counter-based hash of the
    premixed seed ``state`` (see :func:`repro.arrayops.seed_state`) and
    the pair ids.

    Stateless and vectorized: the deviate for a pair depends only on the
    seed and the two endpoint ids, so batch evaluation, scalar evaluation
    and any evaluation order produce identical values.  Pair orientation
    is canonicalized internally (``min, max``).
    """
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    return counter_uniforms(state, lo, hi)


def _pair_uniform_scalar(state: np.uint64, u: int, v: int) -> float:
    """Scalar convenience wrapper over :func:`_pair_uniforms`."""
    arr = _pair_uniforms(
        state,
        np.asarray([u], dtype=np.int64),
        np.asarray([v], dtype=np.int64),
    )
    return float(arr[0])


@runtime_checkable
class GrayZonePolicy(Protocol):
    """Adversary deciding which gray-zone pairs become edges.

    ``decide`` is called once per unordered pair ``(u, v)`` with
    ``alpha < |uv| <= 1`` and must be deterministic for a given policy
    instance (policies derive per-pair randomness from a counter-based
    hash of the instance seed and the pair, where applicable) so that
    graph construction is reproducible.  ``decide_batch`` is the
    vectorized equivalent and must agree elementwise with ``decide``.
    """

    def decide(self, points: PointSet, u: int, v: int, dist: float) -> bool:
        """Whether the gray-zone pair ``{u, v}`` is an edge."""
        ...

    def decide_batch(
        self,
        points: PointSet,
        u: np.ndarray,
        v: np.ndarray,
        dist: np.ndarray,
    ) -> np.ndarray:
        """Boolean keep-mask for aligned arrays of gray-zone pairs."""
        ...


@dataclass(frozen=True)
class KeepAllPolicy:
    """Keep every gray-zone edge: the graph is a unit disk/ball graph."""

    def decide(self, points: PointSet, u: int, v: int, dist: float) -> bool:
        return True

    def decide_batch(
        self,
        points: PointSet,
        u: np.ndarray,
        v: np.ndarray,
        dist: np.ndarray,
    ) -> np.ndarray:
        return np.ones(np.asarray(u).shape[0], dtype=bool)


@dataclass(frozen=True)
class DropAllPolicy:
    """Drop every gray-zone edge: the graph is a radius-``alpha`` ball graph."""

    def decide(self, points: PointSet, u: int, v: int, dist: float) -> bool:
        return False

    def decide_batch(
        self,
        points: PointSet,
        u: np.ndarray,
        v: np.ndarray,
        dist: np.ndarray,
    ) -> np.ndarray:
        return np.zeros(np.asarray(u).shape[0], dtype=bool)


class BernoulliPolicy:
    """Keep each gray-zone edge independently with probability ``p``.

    The decision for a pair is a deterministic counter-based hash of the
    pair under the instance seed, so repeated builds agree and whole pair
    arrays are decided in one vectorized call.
    """

    def __init__(self, p: float = 0.5, seed: int = 0) -> None:
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"p must be in [0, 1], got {p}")
        self._p = p
        self._seed = checked_seed(seed, "BernoulliPolicy")
        self._state = _seed_state(self._seed)

    def decide(self, points: PointSet, u: int, v: int, dist: float) -> bool:
        return bool(_pair_uniform_scalar(self._state, u, v) < self._p)

    def decide_batch(
        self,
        points: PointSet,
        u: np.ndarray,
        v: np.ndarray,
        dist: np.ndarray,
    ) -> np.ndarray:
        return _pair_uniforms(self._state, u, v) < self._p

    def __repr__(self) -> str:
        return f"BernoulliPolicy(p={self._p}, seed={self._seed})"


class DecayPolicy:
    """Fading-signal model: keep probability decays with distance.

    The keep probability for a pair at distance ``dist`` is
    ``((1 - dist) / (1 - alpha)) ** k`` -- 1 at the ``alpha`` boundary,
    0 at distance 1 -- matching the intuition that marginal links are
    increasingly unreliable.  Randomness comes from the same
    counter-based pair hash as :class:`BernoulliPolicy`.
    """

    def __init__(self, alpha: float, k: float = 2.0, seed: int = 0) -> None:
        if not 0.0 < alpha < 1.0:
            raise GraphError(
                f"DecayPolicy needs 0 < alpha < 1, got {alpha}"
            )
        if k <= 0:
            raise GraphError(f"k must be positive, got {k}")
        self._alpha = alpha
        self._k = k
        self._seed = checked_seed(seed, "DecayPolicy")
        self._state = _seed_state(self._seed)

    def decide(self, points: PointSet, u: int, v: int, dist: float) -> bool:
        mask = self.decide_batch(
            points,
            np.asarray([u], dtype=np.int64),
            np.asarray([v], dtype=np.int64),
            np.asarray([dist], dtype=np.float64),
        )
        return bool(mask[0])

    def decide_batch(
        self,
        points: PointSet,
        u: np.ndarray,
        v: np.ndarray,
        dist: np.ndarray,
    ) -> np.ndarray:
        frac = np.maximum(
            0.0, (1.0 - np.asarray(dist, dtype=np.float64)) / (1.0 - self._alpha)
        )
        prob = frac**self._k
        return _pair_uniforms(self._state, u, v) < prob

    def __repr__(self) -> str:
        return f"DecayPolicy(alpha={self._alpha}, k={self._k}, seed={self._seed})"


# Pair-chunk size bounding the (pairs, obstacles, dim) broadcast buffer.
_OBSTACLE_CHUNK = 1 << 15


@dataclass(frozen=True)
class ObstaclePolicy:
    """Physical-obstruction model: drop gray-zone links crossing obstacles.

    Obstacles are balls ``(center, radius)``.  A gray-zone pair is dropped
    iff the segment between the two points passes within ``radius`` of an
    obstacle center.  (Short links -- length ``<= alpha`` -- are kept
    regardless, as the alpha-UBG definition requires.)

    The obstacle list is normalized once at construction into a ``(k, d)``
    center array and ``(k,)`` radius array, so neither ``decide`` nor
    ``decide_batch`` re-converts Python tuples per call.
    """

    obstacles: tuple[tuple[tuple[float, ...], float], ...] = field(
        default_factory=tuple
    )
    _centers: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )
    _radii_sq: np.ndarray | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.obstacles:
            centers = np.asarray(
                [center for center, _ in self.obstacles], dtype=np.float64
            )
            radii = np.asarray(
                [radius for _, radius in self.obstacles], dtype=np.float64
            )
            object.__setattr__(self, "_centers", centers)
            object.__setattr__(self, "_radii_sq", radii * radii)

    def decide(self, points: PointSet, u: int, v: int, dist: float) -> bool:
        if self._centers is None:
            return True
        p, q = points[u], points[v]
        return not bool(
            _segments_hit_obstacles(
                p[None, :], q[None, :], self._centers, self._radii_sq
            )[0]
        )

    def decide_batch(
        self,
        points: PointSet,
        u: np.ndarray,
        v: np.ndarray,
        dist: np.ndarray,
    ) -> np.ndarray:
        m = np.asarray(u).shape[0]
        if self._centers is None or m == 0:
            return np.ones(m, dtype=bool)
        coords = points.coords
        p = coords[np.asarray(u)]
        q = coords[np.asarray(v)]
        keep = np.empty(m, dtype=bool)
        # Chunk so the (pairs, obstacles, dim) broadcast stays bounded.
        for lo in range(0, m, _OBSTACLE_CHUNK):
            hi = min(lo + _OBSTACLE_CHUNK, m)
            keep[lo:hi] = ~_segments_hit_obstacles(
                p[lo:hi], q[lo:hi], self._centers, self._radii_sq
            )
        return keep


def _segments_hit_obstacles(
    p: np.ndarray,
    q: np.ndarray,
    centers: np.ndarray,
    radii_sq: np.ndarray,
) -> np.ndarray:
    """For each segment ``p[i]q[i]``, whether it passes within any
    obstacle ball (vectorized over segments x obstacles).

    ``p``/``q`` have shape ``(m, d)``, ``centers`` shape ``(k, d)`` and
    ``radii_sq`` shape ``(k,)``; returns a ``(m,)`` boolean hit mask.
    """
    seg = q - p  # (m, d)
    seg_len_sq = np.einsum("ij,ij->i", seg, seg)  # (m,)
    to_center = centers[None, :, :] - p[:, None, :]  # (m, k, d)
    proj = np.einsum("mkd,md->mk", to_center, seg)
    # Degenerate zero-length segments project everything onto p itself.
    safe_len = np.where(seg_len_sq > 0.0, seg_len_sq, 1.0)
    t = np.clip(proj / safe_len[:, None], 0.0, 1.0)
    t[seg_len_sq == 0.0] = 0.0
    gap = to_center - t[:, :, None] * seg[:, None, :]
    gap_sq = np.einsum("mkd,mkd->mk", gap, gap)
    return (gap_sq <= radii_sq[None, :]).any(axis=1)


# ----------------------------------------------------------------------
# Batch helpers
# ----------------------------------------------------------------------
def _metric_weights(metric: EdgeMetric, lengths: np.ndarray) -> np.ndarray:
    """Vectorized metric application, falling back to the scalar API for
    metrics that predate ``weights_of_lengths``."""
    batch = getattr(metric, "weights_of_lengths", None)
    if batch is not None:
        return np.asarray(batch(lengths), dtype=np.float64)
    return np.asarray(
        [metric.weight_of_length(float(x)) for x in lengths],
        dtype=np.float64,
    )


def _policy_mask(
    policy: GrayZonePolicy,
    points: PointSet,
    u: np.ndarray,
    v: np.ndarray,
    dist: np.ndarray,
) -> np.ndarray:
    """Vectorized policy application, falling back to per-pair ``decide``
    for policies that predate ``decide_batch``."""
    batch = getattr(policy, "decide_batch", None)
    if batch is not None:
        mask = np.asarray(batch(points, u, v, dist), dtype=bool)
        if mask.shape != u.shape:
            raise GraphError(
                f"decide_batch returned shape {mask.shape}; "
                f"expected {u.shape}"
            )
        return mask
    return np.fromiter(
        (
            policy.decide(points, int(a), int(b), float(d))
            for a, b, d in zip(u, v, dist)
        ),
        dtype=bool,
        count=u.shape[0],
    )


def qubg_edge_mask(
    policy: GrayZonePolicy,
    points: PointSet,
    alpha: float,
    u: np.ndarray,
    v: np.ndarray,
    dist: np.ndarray,
) -> np.ndarray:
    """Which pairs ``(u[i], v[i])`` at distance ``dist[i] <= 1`` are
    edges of the alpha-UBG: every pair within ``alpha``, and the gray
    pairs that ``policy`` keeps, asked once on the ids ``u``, ``v`` of
    ``points``.

    The one edge rule of :func:`build_qubg` and of the churn session's
    base graph, so a maintained base graph draws what a rebuild draws.
    """
    keep = dist <= alpha
    gray = ~keep
    if gray.any():
        keep[gray] = _policy_mask(policy, points, u[gray], v[gray], dist[gray])
    return keep


def reject_coincident(
    coords: np.ndarray, u: np.ndarray, v: np.ndarray, dist: np.ndarray
) -> None:
    """Raise :class:`GraphError` naming the first pair at distance 0.

    ``(u, v, dist)`` are pair arrays as
    :meth:`repro.geometry.grid.GridIndex.pairs_within_arrays` returns
    them (``u < v``, rows sorted).  A coincident pair would otherwise
    reach :class:`Graph` as a zero-weight edge, whose error names
    neither the points nor where they sit.
    """
    hit = np.flatnonzero(dist == 0.0)
    if hit.size:
        a, b = int(u[hit[0]]), int(v[hit[0]])
        raise GraphError(
            f"points {a} and {b} coincide at {tuple(coords[a].tolist())}"
        )


def build_udg(
    points: PointSet,
    *,
    radius: float = 1.0,
    metric: EdgeMetric | None = None,
) -> Graph:
    """Unit disk/ball graph: edge iff ``|uv| <= radius``.

    Parameters
    ----------
    points:
        Node positions.
    radius:
        Connection radius (1.0 gives the standard UDG; the paper's model
        normalizes the maximum transmission range to 1).
    metric:
        Edge-weight metric; defaults to Euclidean lengths.
    """
    if radius <= 0.0:
        raise GraphError(f"radius must be positive, got {radius}")
    metric = metric or EuclideanMetric()
    graph = Graph(len(points))
    index = GridIndex(points, cell_width=radius)
    u, v, dist = index.pairs_within_arrays(radius)
    reject_coincident(points.coords, u, v, dist)
    graph.add_weighted_edges_arrays(u, v, _metric_weights(metric, dist))
    return graph


def build_qubg(
    points: PointSet,
    alpha: float,
    *,
    policy: GrayZonePolicy | None = None,
    metric: EdgeMetric | None = None,
) -> Graph:
    """Alpha-quasi unit ball graph with an adversarial gray zone.

    Every pair at distance ``<= alpha`` becomes an edge; pairs at distance
    in ``(alpha, 1]`` are decided by ``policy`` (default:
    :class:`KeepAllPolicy`); pairs beyond distance 1 are never edges.

    Parameters
    ----------
    points:
        Node positions.
    alpha:
        Quasi-UBG parameter in ``(0, 1]``.
    policy:
        Gray-zone adversary.
    metric:
        Edge-weight metric; defaults to Euclidean lengths.
    """
    if not 0.0 < alpha <= 1.0:
        raise GraphError(f"alpha must be in (0, 1], got {alpha}")
    metric = metric or EuclideanMetric()
    policy = policy or KeepAllPolicy()
    graph = Graph(len(points))
    index = GridIndex(points, cell_width=1.0)
    u, v, dist = index.pairs_within_arrays(1.0)
    reject_coincident(points.coords, u, v, dist)
    keep = qubg_edge_mask(policy, points, alpha, u, v, dist)
    if not keep.all():
        u, v, dist = u[keep], v[keep], dist[keep]
    graph.add_weighted_edges_arrays(u, v, _metric_weights(metric, dist))
    return graph
