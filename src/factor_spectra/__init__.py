"""Spectral conditions and machine-checkable certificates for
degree-constrained factor criticality."""

from .graphs import (
    Graph,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    enumerate_graphs,
    join,
    parse_edge_list,
    parse_graph6,
    path_graph,
    to_edge_list,
    to_graph6,
)

__all__ = [
    "Graph",
    "complete_bipartite",
    "complete_graph",
    "cycle_graph",
    "disjoint_union",
    "empty_graph",
    "enumerate_graphs",
    "join",
    "parse_edge_list",
    "parse_graph6",
    "path_graph",
    "to_edge_list",
    "to_graph6",
]
