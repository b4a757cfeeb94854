"""Graph substrate: the Graph type, builders, MST, paths and analysis."""

from .analysis import (
    SpannerQuality,
    StretchReport,
    assess,
    hop_diameter,
    lightness,
    measure_stretch,
    power_cost,
)
from .build import (
    BernoulliPolicy,
    DecayPolicy,
    DropAllPolicy,
    GrayZonePolicy,
    KeepAllPolicy,
    ObstaclePolicy,
    build_qubg,
    build_udg,
)
from .components import component_labels, connected_components
from .graph import EdgeArrays, Graph
from .io import load_instance, save_instance
from .mst import kruskal_mst, mst_weight
from .paths import dijkstra, dijkstra_distance, multi_source_distances
from .unionfind import UnionFind

__all__ = [
    "EdgeArrays",
    "Graph",
    "UnionFind",
    "build_udg",
    "build_qubg",
    "GrayZonePolicy",
    "KeepAllPolicy",
    "DropAllPolicy",
    "BernoulliPolicy",
    "DecayPolicy",
    "ObstaclePolicy",
    "kruskal_mst",
    "mst_weight",
    "dijkstra",
    "dijkstra_distance",
    "multi_source_distances",
    "connected_components",
    "component_labels",
    "StretchReport",
    "measure_stretch",
    "lightness",
    "power_cost",
    "hop_diameter",
    "SpannerQuality",
    "assess",
    "save_instance",
    "load_instance",
]
