"""Graph substrate: the Graph type, builders, MST, paths and analysis."""

from .analysis import (
    SpannerQuality,
    StretchReport,
    assess,
    hop_diameter,
    lightness,
    measure_stretch,
    power_cost,
    sample_pair_stretch,
    verify_spanner,
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
from .components import (
    component_labels,
    connected_components,
    is_clique,
    is_connected,
    largest_component,
)
from .graph import EdgeArrays, Graph
from .io import load_instance, save_instance
from .mst import kruskal_mst, mst_weight, prim_mst
from .paths import (
    bfs_hops,
    dijkstra,
    dijkstra_distance,
    k_hop_neighborhood,
    k_hop_subgraph,
    multi_source_distances,
    multi_source_trees,
    reconstruct_path,
    shortest_path_tree,
)
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
    "prim_mst",
    "mst_weight",
    "dijkstra",
    "dijkstra_distance",
    "bfs_hops",
    "k_hop_neighborhood",
    "k_hop_subgraph",
    "shortest_path_tree",
    "reconstruct_path",
    "multi_source_distances",
    "multi_source_trees",
    "connected_components",
    "component_labels",
    "is_connected",
    "largest_component",
    "is_clique",
    "StretchReport",
    "measure_stretch",
    "verify_spanner",
    "lightness",
    "power_cost",
    "hop_diameter",
    "SpannerQuality",
    "assess",
    "sample_pair_stretch",
    "save_instance",
    "load_instance",
]
