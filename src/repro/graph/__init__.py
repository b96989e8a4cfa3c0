"""Graph substrate: sparse undirected graphs, metrics, generators, datasets."""

from repro.graph.adjacency import Graph
from repro.graph.bitmatrix import BitMatrix, should_use_packed, triangle_backend
from repro.graph.datasets import (
    DATASETS,
    REAL_DATASETS,
    DatasetSpec,
    RealDatasetSpec,
    fetch_dataset,
    known_dataset_names,
    load_dataset,
    load_real_dataset,
)
from repro.graph.generators import (
    barabasi_albert_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
)
from repro.graph.io import read_edge_list, write_edge_list
from repro.graph.streaming import (
    iter_packed_row_blocks,
    rows_per_block,
    streaming_degrees,
    streaming_intra_community_edges,
    streaming_triangles_per_node,
)
from repro.graph.metrics import (
    average_degree,
    degree_centrality,
    edge_density,
    local_clustering_coefficients,
    modularity,
    should_use_incremental,
    triangles_per_node,
    triangles_per_node_incremental,
    triangles_touching,
)

__all__ = [
    "Graph",
    "BitMatrix",
    "should_use_packed",
    "triangle_backend",
    "DATASETS",
    "REAL_DATASETS",
    "DatasetSpec",
    "RealDatasetSpec",
    "fetch_dataset",
    "known_dataset_names",
    "load_dataset",
    "load_real_dataset",
    "barabasi_albert_graph",
    "erdos_renyi_graph",
    "powerlaw_cluster_graph",
    "read_edge_list",
    "write_edge_list",
    "iter_packed_row_blocks",
    "rows_per_block",
    "streaming_degrees",
    "streaming_intra_community_edges",
    "streaming_triangles_per_node",
    "average_degree",
    "degree_centrality",
    "edge_density",
    "local_clustering_coefficients",
    "modularity",
    "should_use_incremental",
    "triangles_per_node",
    "triangles_per_node_incremental",
    "triangles_touching",
]
