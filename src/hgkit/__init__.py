"""Hypergraph analytics: storage, views, serialization, and algorithms."""

from .analytics import (
    connected_components,
    degree_centrality,
    degree_summary,
    graph_degree_centrality,
    graph_modularity,
    hypergraph_modularity,
    induced_subhypergraph,
    largest_connected_component,
    one_step_distribution,
    random_walk_step,
)
from .centrality import (
    CentralityVector,
    SAdjacency,
    pearson,
    s_adjacency,
    s_betweenness,
    s_shortest_path_length,
)
from .community import (
    LpConfig,
    graph_label_propagation,
    hypergraph_label_propagation,
    nmi,
)
from .errors import HgkitError
from .forecast import (
    average_error,
    evaluation_size,
    forecast_co_members,
    forecast_graph,
    forecast_hypergraph,
)
from .hgio import (
    build_from_reviews,
    build_from_scenes,
    read_hgf,
    read_json,
    read_reviews_csv,
    read_scenes_json,
    review_rows,
    scene_rows,
    write_hgf,
    write_json,
)
from .hypercore import Hypergraph
from .partition import Partition
from .views import BipartiteView, CoMemberTable, Graph, MaterializedGraph, TwoSectionView, materialize

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Hypergraph",
    "BipartiteView",
    "Graph",
    "TwoSectionView",
    "MaterializedGraph",
    "CoMemberTable",
    "materialize",
    "Partition",
    "CentralityVector",
    "SAdjacency",
    "LpConfig",
    "HgkitError",
    "connected_components",
    "induced_subhypergraph",
    "largest_connected_component",
    "random_walk_step",
    "one_step_distribution",
    "degree_summary",
    "degree_centrality",
    "graph_degree_centrality",
    "hypergraph_modularity",
    "graph_modularity",
    "graph_label_propagation",
    "hypergraph_label_propagation",
    "nmi",
    "s_adjacency",
    "s_shortest_path_length",
    "s_betweenness",
    "pearson",
    "forecast_hypergraph",
    "forecast_graph",
    "forecast_co_members",
    "average_error",
    "evaluation_size",
    "read_hgf",
    "write_hgf",
    "read_json",
    "write_json",
    "read_reviews_csv",
    "review_rows",
    "scene_rows",
    "read_scenes_json",
    "build_from_reviews",
    "build_from_scenes",
]
