"""Scenario registry: declarative deployment specs for the experiment suite.

A *scenario* declares a deployment pattern (point process + dimension +
suggested size sweep + default gray-zone policy) once; a *workload* is
one concrete instance of a scenario -- a ready-made alpha-UBG built from
``(scenario, n, seed, alpha, policy)``.  Every experiment refers to
scenarios by name so EXPERIMENTS.md rows are exactly reproducible, and
the CLI (``repro scenarios``) lists the registry for downstream users.

Registering a new deployment pattern is one :func:`register_scenario`
call with a ``(n, rng) -> PointSet`` factory; it immediately becomes
available to ``make_workload``, the CLI and the sweep driver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..arrayops import checked_seed
from ..exceptions import GraphError, ParameterError
from ..geometry.points import PointSet
from ..geometry.sampling import (
    annulus_points,
    clustered_points,
    corridor_points,
    dense_core_points,
    grid_holes_points,
    grid_jitter_points,
    uniform_points,
)
from ..graphs.build import (
    BernoulliPolicy,
    DecayPolicy,
    GrayZonePolicy,
    build_qubg,
    build_udg,
)
from ..graphs.graph import Graph

__all__ = [
    "Workload",
    "make_workload",
    "WORKLOAD_NAMES",
    "ScenarioSpec",
    "SCENARIO_REGISTRY",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "MobilityModel",
    "RandomWaypointModel",
    "ConvoyModel",
    "FlockingModel",
    "MobilitySpec",
    "MOBILITY_REGISTRY",
    "register_mobility",
    "get_mobility",
    "mobility_names",
    "make_mobility",
]

#: Factory signature: ``(n, rng, degree) -> PointSet``.  ``degree`` is the
#: requested expected UDG degree; spacing-controlled patterns (grid,
#: corridor, ring) fix density geometrically and ignore it.
PointFactory = Callable[[int, np.random.Generator, float], PointSet]


@dataclass(frozen=True)
class ScenarioSpec:
    """Declarative description of one deployment pattern.

    Attributes
    ----------
    name:
        Registry key (also the CLI ``--workload`` choice).
    summary:
        One-line description shown by ``repro scenarios``.
    factory:
        Point-process factory ``(n, rng, degree) -> PointSet``.
    dim:
        Euclidean dimension of the generated coordinates.
    sizes:
        Suggested node-count sweep for scaling studies.
    default_policy:
        Gray-zone adversary applied when ``alpha < 1`` and the caller
        does not pick one (``"bernoulli"`` / ``"decay"`` / ``None``).
    tags:
        Free-form labels (``"planned"``, ``"adversarial"`` ...) for
        filtering in reports.
    """

    name: str
    summary: str
    factory: PointFactory
    dim: int = 2
    sizes: tuple[int, ...] = (256, 1024, 4096)
    default_policy: str | None = None
    tags: tuple[str, ...] = ()

    def as_row(self) -> dict[str, object]:
        """Flat dict form for table/JSON rendering."""
        return {
            "name": self.name,
            "dim": self.dim,
            "sizes": "x".join(str(s) for s in self.sizes),
            "gray_zone": self.default_policy or "keep-all",
            "tags": ",".join(self.tags),
            "summary": self.summary,
        }


#: name -> spec; populated by :func:`register_scenario` below.
SCENARIO_REGISTRY: dict[str, ScenarioSpec] = {}


def register_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Add ``spec`` to the registry (name must be unused)."""
    if spec.name in SCENARIO_REGISTRY:
        raise GraphError(f"scenario {spec.name!r} already registered")
    SCENARIO_REGISTRY[spec.name] = spec
    return spec


def get_scenario(name: str) -> ScenarioSpec:
    """Look up a scenario by name."""
    try:
        return SCENARIO_REGISTRY[name]
    except KeyError:
        raise GraphError(
            f"unknown workload {name!r}; choose from {scenario_names()}"
        ) from None


def scenario_names() -> tuple[str, ...]:
    """All registered scenario names, in registration order."""
    return tuple(SCENARIO_REGISTRY)


# ----------------------------------------------------------------------
# Built-in deployment patterns
# ----------------------------------------------------------------------
def _ring_factory(n: int, rng: np.random.Generator, degree: float) -> PointSet:
    # Scale the annulus with sqrt(n) so area density (hence UDG degree)
    # stays constant across the size sweep.
    outer = max(2.0, float(np.sqrt(n / 8.0)) * 1.9)
    return annulus_points(n, inner=0.55 * outer, outer=outer, seed=rng)


register_scenario(ScenarioSpec(
    name="uniform",
    summary="i.i.d. uniform box deployment at constant density",
    factory=lambda n, rng, degree: uniform_points(
        n, seed=rng, expected_degree=degree
    ),
    tags=("baseline",),
))
register_scenario(ScenarioSpec(
    name="clustered",
    summary="Gaussian villages: dense pockets, sparse in-between",
    factory=lambda n, rng, degree: clustered_points(
        n, seed=rng, num_clusters=max(3, n // 48), cluster_std=0.45,
        expected_degree=degree,
    ),
    tags=("heterogeneous",),
))
register_scenario(ScenarioSpec(
    name="grid",
    summary="jittered lattice (planned sensor field)",
    factory=lambda n, rng, degree: grid_jitter_points(
        n, seed=rng, spacing=0.7, jitter=0.18
    ),
    tags=("planned",),
))
register_scenario(ScenarioSpec(
    name="grid-holes",
    summary="jittered lattice with disc voids (obstructed field)",
    factory=lambda n, rng, degree: grid_holes_points(
        n, seed=rng, spacing=0.7, jitter=0.18, num_holes=3
    ),
    default_policy="bernoulli",
    tags=("planned", "adversarial"),
))
register_scenario(ScenarioSpec(
    name="corridor",
    summary="long thin strip (road / tunnel / pipeline monitoring)",
    factory=lambda n, rng, degree: corridor_points(
        n, seed=rng, length=max(10.0, n / 12.0)
    ),
    tags=("elongated",),
))
register_scenario(ScenarioSpec(
    name="ring",
    summary="uniform annulus (perimeter surveillance)",
    factory=_ring_factory,
    tags=("elongated",),
))
register_scenario(ScenarioSpec(
    name="dense-core",
    summary="Gaussian hotspot core inside a sparse uniform halo",
    factory=lambda n, rng, degree: dense_core_points(
        n, seed=rng, core_fraction=0.4, expected_degree=degree
    ),
    default_policy="decay",
    tags=("heterogeneous",),
))
register_scenario(ScenarioSpec(
    name="uniform3d",
    summary="i.i.d. uniform deployment in three dimensions",
    factory=lambda n, rng, degree: uniform_points(
        n, seed=rng, dim=3, expected_degree=max(degree, 10.0)
    ),
    dim=3,
    tags=("baseline", "3d"),
))

#: Names accepted by :func:`make_workload` (kept for API compatibility).
WORKLOAD_NAMES = scenario_names()


@dataclass(frozen=True)
class Workload:
    """A generated problem instance.

    Attributes
    ----------
    name:
        Scenario name (see :data:`SCENARIO_REGISTRY`).
    points:
        Node coordinates.
    graph:
        The alpha-UBG built over them.
    alpha:
        The alpha used.
    seed:
        Generation seed.
    """

    name: str
    points: PointSet
    graph: Graph
    alpha: float
    seed: int

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.points)

    @property
    def dim(self) -> int:
        """Euclidean dimension."""
        return self.points.dim


def _generator_seed(seed: object, owner: str) -> int:
    """``seed`` as the non-negative int numpy's generators take, or a
    :class:`ParameterError` naming ``owner``'s seed."""
    seed = checked_seed(seed, owner)
    if seed < 0:
        raise ParameterError(f"{owner} seed must be >= 0, got {seed}")
    return seed


def make_workload(
    name: str,
    n: int,
    seed: int = 0,
    *,
    alpha: float = 1.0,
    policy: GrayZonePolicy | str | None = None,
    expected_degree: float = 8.0,
) -> Workload:
    """Build one instance of the named scenario.

    Parameters
    ----------
    name:
        A registered scenario name (see :func:`scenario_names`).
    n:
        Node count.
    seed:
        Point-process seed (also seeds stochastic gray-zone policies):
        a non-negative integer, or :class:`ParameterError`.
    alpha:
        Quasi-UBG parameter in ``(0, 1]``; 1.0 yields a plain UDG.
        Values outside that range raise :class:`ParameterError`.
    policy:
        Gray-zone adversary for ``alpha < 1``; accepts a policy object or
        one of the shorthand strings ``"bernoulli"`` / ``"decay"``.  When
        omitted, the scenario's declared ``default_policy`` applies.
    expected_degree:
        Target average degree for density-controlled point processes
        (spacing-controlled patterns ignore it).
    """
    if not 0.0 < alpha <= 1.0:
        raise ParameterError(f"alpha must be in (0, 1], got {alpha!r}")
    seed = _generator_seed(seed, "make_workload")
    spec = get_scenario(name)
    points = spec.factory(n, np.random.default_rng(seed), expected_degree)
    if alpha == 1.0:
        graph = build_udg(points)
    else:
        if policy is None:
            policy = spec.default_policy
        if policy == "bernoulli":
            policy = BernoulliPolicy(0.5, seed=seed)
        elif policy == "decay":
            policy = DecayPolicy(alpha, seed=seed)
        graph = build_qubg(points, alpha, policy=policy)
    return Workload(name=name, points=points, graph=graph, alpha=alpha, seed=seed)


# ----------------------------------------------------------------------
# Mobility samplers (churn workloads for the maintenance engine)
# ----------------------------------------------------------------------
class MobilityModel:
    """Deterministic node motion over the deployment's bounding box.

    Subclasses implement :meth:`_displacements`; the base class picks
    which nodes move, keeps every node inside the initial bounding box,
    and reports moves as ``(node, new_position)`` pairs ready to feed
    :meth:`repro.core.MaintenanceSession.move`.  All randomness flows
    through the single generator handed to the constructor, so a seed
    fully determines the trajectory (in any dimension).
    """

    def __init__(
        self,
        coords: np.ndarray,
        rng: np.random.Generator,
        *,
        speed: float = 0.2,
    ) -> None:
        coords = np.asarray(coords, dtype=np.float64)
        if coords.ndim != 2 or coords.shape[0] == 0:
            raise GraphError("mobility expects a non-empty (n, d) array")
        if speed <= 0.0:
            raise GraphError("mobility speed must be positive")
        self.coords = coords.copy()
        self.speed = float(speed)
        self._rng = rng
        self._lo = self.coords.min(axis=0)
        self._hi = np.maximum(self.coords.max(axis=0), self._lo + 1e-9)

    @property
    def n(self) -> int:
        """Number of mobile nodes."""
        return int(self.coords.shape[0])

    @property
    def dim(self) -> int:
        """Euclidean dimension."""
        return int(self.coords.shape[1])

    def step(
        self, move_fraction: float = 1.0
    ) -> list[tuple[int, np.ndarray]]:
        """Advance one epoch; return ``(node, new_pos)`` for each mover."""
        if not 0.0 < move_fraction <= 1.0:
            raise GraphError("move_fraction must be in (0, 1]")
        k = min(self.n, max(1, int(round(move_fraction * self.n))))
        movers = np.sort(
            self._rng.choice(self.n, size=k, replace=False)
        ).astype(np.int64)
        new = self.coords[movers] + self._displacements(movers)
        np.clip(new, self._lo, self._hi, out=new)
        self.coords[movers] = new
        return [(int(i), new[j].copy()) for j, i in enumerate(movers)]

    def step_events(
        self, move_fraction: float = 1.0, *, time: float = 0.0
    ) -> list:
        """Advance one epoch; return the moves as maintenance events.

        The same draw as :meth:`step` (one call consumes one epoch of
        randomness either way), packaged as ``move`` events that share
        ``time`` -- one mobility epoch maps onto one maintenance epoch,
        ready for :meth:`repro.core.MaintenanceSession.apply_epoch` or
        ``apply_stream(batch="epoch")``.
        """
        from ..core.maintenance import MaintenanceEvent

        return [
            MaintenanceEvent(
                "move", node, tuple(float(c) for c in pos), time
            )
            for node, pos in self.step(move_fraction)
        ]

    def _displacements(self, movers: np.ndarray) -> np.ndarray:
        raise NotImplementedError


class RandomWaypointModel(MobilityModel):
    """Each node walks toward an i.i.d. waypoint, redrawn on arrival."""

    def __init__(self, coords, rng, *, speed: float = 0.2) -> None:
        super().__init__(coords, rng, speed=speed)
        self._targets = self._draw(self.n)

    def _draw(self, count: int) -> np.ndarray:
        return self._rng.uniform(self._lo, self._hi, size=(count, self.dim))

    def _displacements(self, movers: np.ndarray) -> np.ndarray:
        vec = self._targets[movers] - self.coords[movers]
        dist = np.linalg.norm(vec, axis=1)
        arrived = dist <= self.speed
        # Arrivals land exactly on the waypoint, then draw the next one.
        scale = np.where(arrived, 1.0, self.speed / np.maximum(dist, 1e-12))
        if arrived.any():
            self._targets[movers[arrived]] = self._draw(int(arrived.sum()))
        return vec * scale[:, None]


class ConvoyModel(MobilityModel):
    """Formation travel: a shared drifting heading plus per-node jitter."""

    def __init__(
        self,
        coords,
        rng,
        *,
        speed: float = 0.2,
        turn_std: float = 0.25,
        jitter: float = 0.05,
    ) -> None:
        super().__init__(coords, rng, speed=speed)
        self._turn_std = float(turn_std)
        self._jitter = float(jitter)
        heading = self._rng.normal(size=self.dim)
        self._heading = heading / max(np.linalg.norm(heading), 1e-12)

    def _displacements(self, movers: np.ndarray) -> np.ndarray:
        turned = self._heading + self._rng.normal(
            0.0, self._turn_std, size=self.dim
        )
        self._heading = turned / max(np.linalg.norm(turned), 1e-12)
        jitter = self._rng.normal(
            0.0, self._jitter * self.speed, size=(movers.size, self.dim)
        )
        return self.speed * self._heading + jitter


class FlockingModel(MobilityModel):
    """Boids-style drift: alignment + cohesion at constant speed."""

    def __init__(
        self,
        coords,
        rng,
        *,
        speed: float = 0.2,
        alignment: float = 0.5,
        cohesion: float = 0.05,
        jitter: float = 0.1,
    ) -> None:
        super().__init__(coords, rng, speed=speed)
        self._alignment = float(alignment)
        self._cohesion = float(cohesion)
        self._jitter = float(jitter)
        vel = self._rng.normal(size=(self.n, self.dim))
        norms = np.maximum(np.linalg.norm(vel, axis=1), 1e-12)
        self._vel = self.speed * vel / norms[:, None]

    def _displacements(self, movers: np.ndarray) -> np.ndarray:
        mean_vel = self._vel.mean(axis=0)
        center = self.coords.mean(axis=0)
        vel = self._vel[movers]
        vel = vel + self._alignment * (mean_vel - vel)
        vel = vel + self._cohesion * (center - self.coords[movers])
        vel = vel + self._rng.normal(
            0.0, self._jitter * self.speed, size=vel.shape
        )
        norms = np.maximum(np.linalg.norm(vel, axis=1), 1e-12)
        vel = self.speed * vel / norms[:, None]
        self._vel[movers] = vel
        return vel


#: Factory signature: ``(coords, rng, speed) -> MobilityModel``.
MobilityFactory = Callable[
    [np.ndarray, np.random.Generator, float], MobilityModel
]


@dataclass(frozen=True)
class MobilitySpec:
    """Declarative description of one mobility pattern.

    Mirrors :class:`ScenarioSpec`: experiments refer to mobility models
    by name so churn rows in EXPERIMENTS.md stay reproducible.
    """

    name: str
    summary: str
    factory: MobilityFactory
    tags: tuple[str, ...] = ()

    def as_row(self) -> dict[str, object]:
        """Flat dict form for table/JSON rendering."""
        return {
            "name": self.name,
            "tags": ",".join(self.tags),
            "summary": self.summary,
        }


#: name -> spec; populated by :func:`register_mobility` below.
MOBILITY_REGISTRY: dict[str, MobilitySpec] = {}


def register_mobility(spec: MobilitySpec) -> MobilitySpec:
    """Add ``spec`` to the mobility registry (name must be unused)."""
    if spec.name in MOBILITY_REGISTRY:
        raise GraphError(f"mobility model {spec.name!r} already registered")
    MOBILITY_REGISTRY[spec.name] = spec
    return spec


def get_mobility(name: str) -> MobilitySpec:
    """Look up a mobility model by name."""
    try:
        return MOBILITY_REGISTRY[name]
    except KeyError:
        raise GraphError(
            f"unknown mobility model {name!r}; "
            f"choose from {mobility_names()}"
        ) from None


def mobility_names() -> tuple[str, ...]:
    """All registered mobility model names, in registration order."""
    return tuple(MOBILITY_REGISTRY)


register_mobility(MobilitySpec(
    name="random_waypoint",
    summary="independent walks toward i.i.d. waypoints (classic RWP)",
    factory=lambda c, rng, s: RandomWaypointModel(c, rng, speed=s),
    tags=("independent",),
))
register_mobility(MobilitySpec(
    name="convoy",
    summary="formation travel behind one drifting shared heading",
    factory=lambda c, rng, s: ConvoyModel(c, rng, speed=s),
    tags=("correlated",),
))
register_mobility(MobilitySpec(
    name="flocking",
    summary="boids-style alignment + cohesion at constant speed",
    factory=lambda c, rng, s: FlockingModel(c, rng, speed=s),
    tags=("correlated",),
))


def make_mobility(
    name: str,
    coords: np.ndarray,
    seed: int = 0,
    *,
    speed: float = 0.2,
) -> MobilityModel:
    """Instantiate the named mobility model over ``coords``.

    Works in any dimension: the model inherits the dimensionality of
    the coordinate array (2-D fields and 3-D drone swarms alike).
    ``seed`` must be a non-negative integer (:class:`ParameterError`
    otherwise).
    """
    rng = np.random.default_rng(_generator_seed(seed, "make_mobility"))
    spec = get_mobility(name)
    return spec.factory(np.asarray(coords, dtype=np.float64), rng, speed)
