"""Exact-arithmetic toolkit for non-commutation graph realizations.

A graph is realized by a matrix family when adjacent vertices receive
non-commuting matrices and non-adjacent vertices commuting ones.  The
package constructs the sharp (n+1)-dimensional witness for n disjoint
pairs, builds and independently verifies certificates that no smaller
dimension works, brackets per-graph minimal dimensions by exhaustive
search over small prime fields, and splits matrix modules into
composition factors.
"""

from .commgraph import (
    Assignment,
    CommGraph,
    PairStatus,
    RealizationCheck,
    matching_graph,
    realizes,
)
from .certificate import (
    LowerBoundCertificate,
    VerificationResult,
    build_certificate,
    find_avoiding_vector,
    pairs_from_assignment,
    verify_certificate,
)
from .errors import (
    CommrepError,
    FieldTooSmallError,
    GuardError,
    InvalidHintError,
    PatternViolationError,
    SchemaError,
)
from .exactla import (
    GF,
    QQ,
    FieldSpec,
    Matrix,
    block_diagonal,
    commutator,
    elementary_matrix,
    identity,
    inverse,
    is_invertible,
    kernel_basis,
    matrix_from_rows,
    rank,
    span_rank,
    zeros,
)
from .modsplit import (
    CompositionReport,
    CountCheck,
    ModuleSpec,
    composition_factor_dims,
    counting_chain_check,
    is_triangularizable,
    spin,
)
from .search import (
    ExistsOutcome,
    SearchReport,
    exists_realization,
    matching_lower_bound,
    min_realization_dim,
)
from .witness import product_block_embedding, sharp_witness, witness_invertibility

__version__ = "0.1.0"

__all__ = [
    "Assignment",
    "CommGraph",
    "CommrepError",
    "CompositionReport",
    "CountCheck",
    "ExistsOutcome",
    "FieldSpec",
    "FieldTooSmallError",
    "GF",
    "GuardError",
    "InvalidHintError",
    "LowerBoundCertificate",
    "Matrix",
    "ModuleSpec",
    "PairStatus",
    "PatternViolationError",
    "QQ",
    "RealizationCheck",
    "SchemaError",
    "SearchReport",
    "VerificationResult",
    "block_diagonal",
    "build_certificate",
    "commutator",
    "composition_factor_dims",
    "counting_chain_check",
    "elementary_matrix",
    "exists_realization",
    "find_avoiding_vector",
    "identity",
    "inverse",
    "is_invertible",
    "is_triangularizable",
    "kernel_basis",
    "matching_graph",
    "matching_lower_bound",
    "matrix_from_rows",
    "min_realization_dim",
    "pairs_from_assignment",
    "product_block_embedding",
    "rank",
    "realizes",
    "sharp_witness",
    "span_rank",
    "spin",
    "verify_certificate",
    "witness_invertibility",
    "zeros",
]
