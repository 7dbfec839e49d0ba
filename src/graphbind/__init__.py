"""Graph refinement via symbolic matrix powers, binding graphs, and an
isomorphism decision procedure, together with brute-force audit oracles."""

from .binding import (
    BindingGraph,
    binding_graph,
    build_phi,
    build_psi,
    build_theta,
    check_stable_bv_labeling,
    plain_binding_graph,
    wing_graph,
)
from .core import (
    BLANK,
    DirectedLabeledGraph,
    GraphError,
    LabeledGraph,
    Partition,
    dim,
    equivalent_variable_substitution,
    is_equivalent,
    is_imbedded,
)
from .decide import GiResult, gi_decide
from .descgraph import (
    SpectralDecomposition,
    adjoint_description_graph,
    gamma_description_graph,
    spectral_decomposition,
    spectral_description_graph,
)
from .graphio import read_graph, write_graph
from .oracle import automorphism_orbits, is_isomorphic_bruteforce
from .partition import (
    block_commutant_check,
    is_equitable,
    is_strongly_equitable,
    vertex_partition,
)
from .refine import (
    StabilizationTrace,
    kpower_stabilize,
    kpower_step,
    numeric_ff_stabilize,
    sas_stabilize,
    sas_step,
    seed_recognize_vertices,
    wl_stabilize,
    wl_step,
)

__version__ = "0.1.0"

__all__ = [
    "BLANK",
    "BindingGraph",
    "DirectedLabeledGraph",
    "GiResult",
    "GraphError",
    "LabeledGraph",
    "Partition",
    "SpectralDecomposition",
    "StabilizationTrace",
    "adjoint_description_graph",
    "automorphism_orbits",
    "binding_graph",
    "block_commutant_check",
    "build_phi",
    "build_psi",
    "build_theta",
    "check_stable_bv_labeling",
    "dim",
    "equivalent_variable_substitution",
    "gamma_description_graph",
    "gi_decide",
    "is_equitable",
    "is_equivalent",
    "is_imbedded",
    "is_isomorphic_bruteforce",
    "is_strongly_equitable",
    "kpower_stabilize",
    "kpower_step",
    "numeric_ff_stabilize",
    "plain_binding_graph",
    "read_graph",
    "sas_stabilize",
    "sas_step",
    "seed_recognize_vertices",
    "spectral_decomposition",
    "spectral_description_graph",
    "vertex_partition",
    "wing_graph",
    "wl_stabilize",
    "wl_step",
    "write_graph",
]
