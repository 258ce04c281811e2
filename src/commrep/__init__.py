"""Exact-arithmetic toolkit for non-commutation graph realizations.

A graph is realized by a matrix family when adjacent vertices receive
non-commuting matrices and non-adjacent vertices commuting ones.  The
package constructs the sharp (n+1)-dimensional witness for n disjoint
pairs, builds and independently verifies certificates that no smaller
dimension works, brackets per-graph minimal dimensions by exhaustive
search over small prime fields, and splits matrix modules into
composition factors.
"""

from importlib import import_module

__version__ = "0.1.0"

# every public name and the module that defines it; ``__getattr__`` imports
# that module on first access, so a CLI call loads only what it runs
_EXPORTS = {
    "certificate": (
        "LowerBoundCertificate",
        "VerificationResult",
        "build_certificate",
        "find_avoiding_vector",
        "pairs_from_assignment",
        "verify_certificate",
    ),
    "commgraph": (
        "Assignment",
        "CommGraph",
        "PairStatus",
        "RealizationCheck",
        "matching_graph",
        "realizes",
    ),
    "errors": (
        "CommrepError",
        "FieldTooSmallError",
        "GuardError",
        "InvalidHintError",
        "PatternViolationError",
        "SchemaError",
    ),
    "exactla": (
        "GF",
        "QQ",
        "FieldSpec",
        "Matrix",
        "block_diagonal",
        "commutator",
        "elementary_matrix",
        "identity",
        "inverse",
        "is_invertible",
        "kernel_basis",
        "matrix_from_rows",
        "rank",
        "span_rank",
        "zeros",
    ),
    "modsplit": (
        "CompositionReport",
        "CountCheck",
        "ModuleSpec",
        "composition_factor_dims",
        "counting_chain_check",
        "is_triangularizable",
        "spin",
    ),
    "search": (
        "ExistsOutcome",
        "SearchReport",
        "exists_realization",
        "matching_lower_bound",
        "min_realization_dim",
    ),
    "witness": ("product_block_embedding", "sharp_witness"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    """Import the module that defines ``name`` and keep the object here."""
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
