"""matchpoly: exact polynomial representations of bipartite perfect matching.

The matching decision function on K_{n,n} edge indicators has an exact
multilinear polynomial in the {0,1} basis (one +/-1 term per matching-covered
graph), a dual polynomial with the roles of 0 and 1 swapped, and a Fourier
expansion with dyadic coefficients.  This package constructs all three at
desk scale (n <= 5), exposes the lattice and classification machinery behind
them, and verifies every structural claim against brute-force oracles.
"""

from .bitgraph import (
    BipartiteGraph,
    Matching,
    allowed_edges,
    connected_components,
    cyclomatic_number,
    enumerate_perfect_matchings,
    has_perfect_matching,
    parse_graph,
    union_of_perfect_matchings,
)
from .bpm import (
    BoundsReport,
    TotalOrderClass,
    appendix_a_zero_test,
    bounds_report,
    bpm_truth,
    canonical_form,
    classify_total_order,
    dual_coefficient,
    dual_polynomial,
    enumerate_hall_violators,
    fubini,
    hvc_lower_bound_witness,
    is_hvc,
    monomial_summary,
    pm_probability,
    primal_polynomial,
    stirling2,
    totally_ordered_count,
)
from .errors import ResourceLimitError
from .matchcov import (
    HetyeiReport,
    check_ear_decomposition,
    count_mc,
    ear_decomposition,
    enumerate_mc,
    hetyei_check,
    is_elementary,
    is_matching_covered,
)
from .mclattice import (
    McLattice,
    build_lattice,
    has_incomplete_umbrella,
    interval_mobius_sum,
    is_surplus_edge,
    is_wildcard_edge,
    join,
    meet,
    umbrella,
)
from .polyalg import (
    MultilinearPoly,
    TruthTable,
    deg,
    deg2,
    dualize,
    evaluate,
    interpolate,
    l1_norm,
    monomial_count,
    to_fourier,
    to_json_dict,
    to_text,
    to_truth_table,
)
from .verify import VerificationReport

__version__ = "0.1.0"

__all__ = [
    "BipartiteGraph", "Matching", "allowed_edges", "connected_components",
    "cyclomatic_number", "enumerate_perfect_matchings", "has_perfect_matching",
    "parse_graph", "union_of_perfect_matchings",
    "BoundsReport", "TotalOrderClass", "appendix_a_zero_test", "bounds_report",
    "bpm_truth", "classify_total_order", "dual_coefficient", "dual_polynomial",
    "canonical_form", "enumerate_hall_violators", "fubini",
    "hvc_lower_bound_witness", "is_hvc", "monomial_summary",
    "pm_probability", "primal_polynomial", "stirling2", "totally_ordered_count",
    "ResourceLimitError",
    "HetyeiReport", "check_ear_decomposition", "count_mc", "ear_decomposition",
    "enumerate_mc", "hetyei_check", "is_elementary", "is_matching_covered",
    "McLattice", "build_lattice", "has_incomplete_umbrella",
    "interval_mobius_sum", "is_surplus_edge", "is_wildcard_edge", "join",
    "meet", "umbrella",
    "MultilinearPoly", "TruthTable", "deg", "deg2", "dualize",
    "evaluate", "interpolate", "l1_norm", "monomial_count", "to_fourier",
    "to_json_dict", "to_text", "to_truth_table",
    "VerificationReport",
]
