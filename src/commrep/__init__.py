"""Exact-arithmetic toolkit for non-commutation graph realizations.

A graph is realized by a matrix family when adjacent vertices receive
non-commuting matrices and non-adjacent vertices commuting ones.  The
package constructs the sharp (n+1)-dimensional witness for n disjoint
pairs, builds certificates that no smaller dimension works and verifies
them from the raw pairs, brackets per-graph minimal dimensions by exhaustive
search over small prime fields, and splits matrix modules into
composition factors.
"""

__version__ = "0.1.0"
