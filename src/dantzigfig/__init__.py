"""Exact construction and verification of graded-order initial-segment
polytopes (grlex and grevlex families) and their Dantzig-figure structure.

FAMILIES maps each family name to its `family.Family`, the one object the
CLI, the scripts and the acceptance tests dispatch through.
"""

from .exactmath import SingularError, adjugate, invert
from .family import Family
from .grevlex_family import (
    GREVLEX,
    GrevlexInstance,
    ImproperColoring,
    grevlex_antipodal,
    grevlex_coloring,
    grevlex_edges,
    grevlex_facet_matrix,
    grevlex_facet_matrix_inverse,
    grevlex_graph,
    grevlex_hamiltonian_cycle,
    grevlex_hrep,
    grevlex_incidence,
    grevlex_vertices,
    make_grevlex,
)
from .grlex_family import (
    GRLEX,
    GrlexInstance,
    RequiresStrictTheta,
    grlex_coloring,
    grlex_coloring_relaxed,
    grlex_edges,
    grlex_expansion_witness,
    grlex_facet_matrix,
    grlex_facet_matrix_inverse,
    grlex_graph,
    grlex_hamiltonian_cycle,
    grlex_hrep,
    grlex_incidence,
    grlex_vertices,
    make_grlex,
    u_label,
)
from .oracle import (
    BasisVertexSet,
    BudgetExceeded,
    LatticeSegment,
    NotFullDimensional,
    UnboundedSuspected,
    enumerate_segment,
    facet_irredundancy,
    hull_vertices_by_basis,
    segment_pieces,
    verify_hull_equivalence,
)
from .orders import (
    LengthMismatch,
    OrderKind,
    Ordering,
    compare_graded,
    compare_lex,
    is_initial_segment_member,
)
from .polytope_core import (
    CheckFailed,
    FacetId,
    HRep,
    IncidenceMatrix,
    InfeasibleVertex,
    InvalidTheta,
    NonSimplicialCone,
    TangentCone,
    UnknownLabel,
    UnsupportedDimension,
    VRep,
    VertexLabel,
    adjacency_from_incidence,
    cone_cover_test,
    dantzig_hrep,
    facet_spans_ridge,
    incidence,
    list_antipodal_pairs,
    tangent_cone,
)
from .polytope_graph import (
    Disconnected,
    ExpansionResult,
    PolytopeGraph,
    TooLarge,
    combinatorially_equal,
    edge_expansion_exact,
    find_hamiltonian_cycle,
    proper_coloring_search,
    radius_and_diameter,
    verify_coloring,
    verify_hamiltonian,
)

FAMILIES = {family.name: family for family in (GRLEX, GREVLEX)}

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
