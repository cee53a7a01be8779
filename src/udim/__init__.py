"""Exact metric and partition dimension of trees and unicyclic graphs.

The package computes dim(G) and pd(G) exactly at small scale, materializes
the constructive upper-bound certificates for unicyclic graphs, evaluates
the full chain of structural bounds, and scans instance families for the
spanning-tree pd gap.
"""

from .constructions import (
    CertifiedConstruction,
    cycle_partition,
    kappa_tau_partition,
    lift_tree_partition,
    pendant_resolving_set,
    unit_terminal_partition,
    xi_theta_partition,
)
from .errors import (
    DisconnectedGraphError,
    GraphFormatError,
    InvalidPartitionError,
    NotATreeError,
    NotUnicyclicError,
    PreconditionError,
    SolverCapError,
    UdimError,
)
from .graphs import (
    DistanceMatrix,
    Graph,
    SpanningTree,
    UnicyclicGraph,
    all_pairs_distances,
    graph_from_edges,
    is_connected,
    is_tree,
    parse_edge_list,
    spanning_trees,
    to_edge_list,
    validate_unicyclic,
)
from .invariants import (
    TerminalProfile,
    epsilon,
    exterior_major_count,
    graph_invariants,
    kappa_tau,
    major_vertices,
    pendant_vertices,
    rho,
    support_leaf_groups,
    terminal_profiles,
    xi_theta,
)
from .resolve import (
    DEFAULT_DIM_CAP,
    DEFAULT_PD_CAP,
    OrderedPartition,
    ResolutionWitness,
    check_resolving_partition,
    check_resolving_set,
    metric_dimension_exact,
    partition_dimension_exact,
    partition_representation,
    set_representation,
)
from .verification import (
    RANDOM_SCHEME,
    bounds_report,
    conjecture_scan,
    gen_c4k,
    gen_cycle,
    gen_exhaustive_trees,
    gen_exhaustive_unicyclic,
    gen_path,
    gen_random_unicyclic,
    gen_sun,
    tree_report,
)

__version__ = "0.1.0"
