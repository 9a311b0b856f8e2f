"""Polarity graphs of generalized polygons over finite fields, their
closed-form complete partitions, and desk-scale verification of every
checkable claim about them."""

from .gf import FieldCtx, QuadBasis, find_normal_element, make_field
from .graphs import (
    Graph, Partition, contains_C4, degree, edge_count, even_cycle_free_upto,
    girth, loop_count, materialize, pair_edge_matrix,
)
from .adg import (
    ADGSpec, PolarityGraph, PolaritySpec, build_polarity_graph,
    check_polarity, generic_conjugation_polarity, gh_family,
    gh_original_family, gq_family, plane_family,
)
from .partitions import (
    GHScheme, GQScheme, GeneralPolarityScheme, PlaneScheme,
    general_even_partition, general_odd_partition, general_polarity_partition,
    is_point_line_symmetric, scheme_partition,
)
from .verify import (
    brute_force_chi_a, brute_force_psi, luw_report, proposition_bound,
    ratio_eq6, verdict, verify_family, witness_record,
)

__version__ = "0.1.0"
