"""Effective-resistance analysis and greedy total-resistance rewiring."""

from .bounds import (
    BoundParams,
    jacobian_bound_adjacency,
    jacobian_bound_resistance,
    spectral_gap_jacobian_bound,
    total_jacobian_bound,
)
from .errors import (
    BipartiteGraphError,
    CrossComponentError,
    DisconnectedGraphError,
    EdgeListParseError,
    IllConditionedError,
    InfeasibleSearchError,
    ReswireError,
)
from .graph import (
    Graph,
    build_graph,
    components,
    degrees,
    from_edge_list,
    is_bipartite,
    laplacian,
    normalized_adjacency,
    to_edge_list,
)
from .rewiring import (
    RewirePlan,
    gtr,
    random_baseline,
    rewire,
    same_component_non_edges,
)
from .spectral import (
    effective_resistance,
    mu_bound,
    rmax,
    spectral_gap,
    total_resistance,
)
from .state import ResistanceState

__version__ = "0.1.0"
