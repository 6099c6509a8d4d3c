"""Graph substrate: generators, binary edge-list formats and utilities.

The paper's inputs are unsorted edge lists: synthetic RMAT graphs
(scale-n has 2^n vertices and 2^(n+4) edges) and the 2014 Data Commons
hyperlink graph (Section 8).  This package provides:

* :mod:`repro.graph.rmat` — the R-MAT recursive generator (Chakrabarti
  et al.), drawn in cache-sized blocks, with Graph500-style default skew;
* :mod:`repro.graph.edgelist` — the in-memory edge list plus the
  compact/non-compact binary wire formats the paper describes (4-byte
  vertex ids below 2^32 vertices, 8-byte above);
* :mod:`repro.graph.datasets` — a synthetic web-like graph standing in
  for the proprietary Data Commons crawl (same degree skew profile);
* :mod:`repro.graph.convert` — directed→undirected conversion and
  relabelling;
* :mod:`repro.graph.stats` — degrees and simple structural statistics.
"""

from repro.graph.convert import add_reverse_edges, permute_vertices, to_undirected
from repro.graph.datasets import data_commons_like
from repro.graph.edgelist import EdgeList, bytes_per_edge, read_edges, write_edges
from repro.graph.rmat import RmatParameters, rmat_blocks, rmat_edge_count, rmat_graph
from repro.graph.stats import degree_histogram, in_degrees, out_degrees

__all__ = [
    "EdgeList",
    "RmatParameters",
    "add_reverse_edges",
    "bytes_per_edge",
    "data_commons_like",
    "degree_histogram",
    "in_degrees",
    "out_degrees",
    "permute_vertices",
    "read_edges",
    "rmat_blocks",
    "rmat_edge_count",
    "rmat_graph",
    "to_undirected",
    "write_edges",
]
