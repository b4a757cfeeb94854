"""Topology-control baselines for the E5 comparison.

Each baseline is a function ``(base_graph, points, ...) -> Graph``; the
registry maps the names used in experiment tables to ready-to-call
constructors with the conventional parameters.
"""

from typing import Callable

from ..geometry.points import PointSet
from ..graphs.graph import Graph
from ..graphs.mst import kruskal_mst
from .proximity import gabriel_graph, relative_neighborhood_graph
from .xtc import xtc_graph
from .yao import theta_graph, yao_graph
from .yao_gg import yao_gabriel_graph

__all__ = [
    "yao_graph",
    "theta_graph",
    "gabriel_graph",
    "relative_neighborhood_graph",
    "xtc_graph",
    "yao_gabriel_graph",
    "baseline_registry",
]


def baseline_registry() -> dict[str, Callable[[Graph, PointSet], Graph]]:
    """Named baseline constructors with conventional parameters.

    Keys are the row labels of the E5 comparison table.  All baselines
    take ``(base, points)`` and return a subgraph topology.
    """
    return {
        "UDG (input)": lambda base, points: base.copy(),
        "MST": lambda base, points: kruskal_mst(base),
        "Gabriel": gabriel_graph,
        "RNG": relative_neighborhood_graph,
        "XTC": lambda base, points: xtc_graph(base),
        "Yao k=8": lambda base, points: yao_graph(base, points, 8),
        "Theta k=8": lambda base, points: theta_graph(base, points, 8),
        "YaoGG k=9 ([15] stand-in)": lambda base, points: yao_gabriel_graph(
            base, points, 9
        ),
    }
