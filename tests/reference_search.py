"""Reference exhaustive search that the class-representative sweep replaced.

``exists_realization`` here assigns every r x r matrix over F_p (or every
invertible one) to the vertices of a graph, depth-first in vertex order,
multiplying out one commutator per constraint check, with candidates in
row-major base-p counter order.  It shares nothing with
``commrep.search`` but ``Matrix`` for its witness, and the differential
tests in ``test_search.py`` require the two to agree on every verdict.
"""

import itertools

from commrep.commgraph import Assignment
from commrep.exactla import Matrix

import reference_elimination as ref


def candidates(r, p, invertible_only):
    """Every r x r entry tuple over F_p in base-p counter order, or the invertible ones."""
    if invertible_only:
        return ref.invertible_candidates(r, p)
    return list(itertools.product(range(p), repeat=r * r))


def _commutes(a, b, r, p):
    for i in range(r):
        ai = i * r
        for j in range(r):
            s = 0
            for k in range(r):
                s += a[ai + k] * b[k * r + j] - b[ai + k] * a[k * r + j]
            if s % p:
                return False
    return True


def exists_realization(graph, field, r, invertible_only=False):
    """The first realization in candidate order as an Assignment, or None."""
    p = field.characteristic
    m = graph.vertex_count
    cands = candidates(r, p, invertible_only)
    adj = [[graph.has_edge(u, v) for v in range(m + 1)] for u in range(m + 1)]

    def dfs(assigned):
        t = len(assigned) + 1
        if t > m:
            return list(assigned)
        for cand in cands:
            if all(_commutes(assigned[u - 1], cand, r, p) != adj[t][u] for u in range(1, t)):
                found = dfs(assigned + [cand])
                if found is not None:
                    return found
        return None

    found = dfs([])
    if found is None:
        return None
    return Assignment(tuple(Matrix(field, r, r, c) for c in found))
