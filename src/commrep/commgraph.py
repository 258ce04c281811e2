"""Graphs whose edges encode non-commutation, and the realization predicate.

``realizes`` decides whether a matrix assignment has exactly the commutation
pattern a graph prescribes: adjacent vertices get non-commuting matrices,
non-adjacent vertices get commuting ones.  The all-pairs check runs on an
integer tensor (denominators cleared per matrix, which preserves which
commutators vanish) through a single sparse product; a 64-bit overflow guard
falls back to per-pair exact arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import SchemaError, json_int
from .exactla import FieldSpec, Matrix, commutator

_INT64_SAFE = 2**62


@dataclass(frozen=True)
class CommGraph:
    """Simple graph on vertices 1..m with unordered edges and no loops."""

    vertex_count: int
    edges: frozenset  # of (u, v) tuples with u < v

    def __post_init__(self):
        if self.vertex_count < 1:
            raise ValueError("vertex count must be positive")
        for e in self.edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise ValueError(f"bad edge {e!r}")
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u < v <= self.vertex_count):
                raise ValueError(f"edge {e!r} outside 1..{self.vertex_count}")

    @staticmethod
    def make(vertex_count: int, edges: Iterable[Sequence[int]]) -> "CommGraph":
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return CommGraph(vertex_count, norm)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def degrees(self) -> list:
        deg = [0] * (self.vertex_count + 1)
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1
        return deg[1:]


def matching_graph(n: int) -> CommGraph:
    """n disjoint edges on 2n vertices: pair i is (i, n + i)."""
    if n < 1:
        raise ValueError("n must be positive")
    return CommGraph.make(2 * n, [(i, n + i) for i in range(1, n + 1)])


@dataclass(frozen=True)
class Assignment:
    """One square matrix per vertex, all of one dimension over one field."""

    matrices: tuple

    def __post_init__(self):
        if not self.matrices:
            raise ValueError("assignment must be nonempty")
        first = self.matrices[0]
        for m in self.matrices:
            if not isinstance(m, Matrix) or not m.is_square:
                raise ValueError("assignments hold square matrices")
            if m.field != first.field or m.rows != first.rows:
                raise ValueError("uniform dimension and field required")

    @property
    def field(self) -> FieldSpec:
        return self.matrices[0].field

    @property
    def dimension(self) -> int:
        return self.matrices[0].rows

    def __len__(self) -> int:
        return len(self.matrices)


@dataclass(frozen=True)
class PairStatus:
    """Commutation status of one vertex pair against the graph's demand."""

    u: int
    v: int
    edge: bool
    commutes: bool


@dataclass(frozen=True)
class RealizationCheck:
    ok: bool
    violations: tuple  # of PairStatus, exhaustive


def _integer_tensor(matrices: Sequence[Matrix]) -> tuple:
    """(values, positions, maxabs) with each matrix scaled to integers.

    Over Q each matrix is scaled by the lcm of its nonzero denominators;
    scaling by a nonzero constant does not change which commutators vanish,
    since [cA, dB] = cd [A, B].
    """
    rationals = matrices[0].field.is_rationals
    per_matrix = []
    maxabs = 0
    for k, a in enumerate(matrices):
        nnz = a.nonzero_rows
        d = 1
        if rationals and any(nnz):
            d = math.lcm(*(x.denominator for row in nnz for _, x in row))
        triples = []
        for i, row in enumerate(nnz):
            for j, x in row:
                if rationals:
                    val = x.numerator if d == 1 else int(x * d)
                else:
                    val = int(x)
                triples.append((i, j, val))
                if abs(val) > maxabs:
                    maxabs = abs(val)
        per_matrix.append(triples)
    return per_matrix, maxabs


def noncommuting_pairs(matrices: Sequence[Matrix]) -> np.ndarray:
    """Boolean m x m array: True where the two matrices do not commute."""
    m = len(matrices)
    r = matrices[0].rows
    field = matrices[0].field
    p = field.characteristic if field.is_prime_field else None

    per_matrix, maxabs = _integer_tensor(matrices)
    if p is not None:
        maxabs = p - 1
    if maxabs and r * maxabs * maxabs >= _INT64_SAFE:
        return _noncommuting_pairs_bigint(matrices)

    T = np.zeros((m, r, r), dtype=np.int64)
    for k, triples in enumerate(per_matrix):
        for i, j, val in triples:
            T[k, i, j] = val
    if p is not None:
        T %= p
    if m * r <= 128:
        # dense is cheaper than sparse setup at small sizes
        X = T.reshape(m * r, r)
        Y = T.transpose(1, 0, 2).reshape(r, m * r)
        Z = X @ Y
        if p is not None:
            Z %= p
        Z4 = Z.reshape(m, r, m, r)
        return (Z4 != Z4.transpose(2, 1, 0, 3)).any(axis=(1, 3))

    X = sp.csr_matrix(T.reshape(m * r, r))
    Y = sp.csr_matrix(T.transpose(1, 0, 2).reshape(r, m * r))
    Z = (X @ Y).tocoo()
    data = Z.data % p if p is not None else Z.data
    Zc = sp.coo_matrix((data, (Z.row, Z.col)), shape=Z.shape)
    # block transpose: entry ((u,i),(v,j)) of the swapped product lives at ((v,i),(u,j))
    u, i = Z.row // r, Z.row % r
    v, j = Z.col // r, Z.col % r
    Zt = sp.coo_matrix((data, (v * r + i, u * r + j)), shape=Z.shape)
    D = (Zc.tocsr() - Zt.tocsr()).tocoo()
    mask = np.zeros((m, m), dtype=bool)
    nz = D.data != 0
    mask[D.row[nz] // r, D.col[nz] // r] = True
    return mask


def _noncommuting_pairs_bigint(matrices: Sequence[Matrix]) -> np.ndarray:
    """Exact fallback for entries too large for the int64 fast path."""
    m = len(matrices)
    mask = np.zeros((m, m), dtype=bool)
    for a in range(m):
        for b in range(a + 1, m):
            bad = not commutator(matrices[a], matrices[b]).is_zero()
            mask[a, b] = mask[b, a] = bad
    return mask


def realizes(assignment: Assignment, graph: CommGraph) -> RealizationCheck:
    """Check every vertex pair; violations are reported exhaustively."""
    if len(assignment) != graph.vertex_count:
        raise ValueError(
            f"assignment has {len(assignment)} matrices for {graph.vertex_count} vertices"
        )
    mask = noncommuting_pairs(assignment.matrices)
    violations = []
    for u in range(1, graph.vertex_count + 1):
        for v in range(u + 1, graph.vertex_count + 1):
            edge = graph.has_edge(u, v)
            noncomm = bool(mask[u - 1, v - 1])
            if edge != noncomm:
                violations.append(PairStatus(u, v, edge, not noncomm))
    return RealizationCheck(not violations, tuple(violations))


# -- JSON ---------------------------------------------------------------------

# Graph schema: {"vertices": m, "edges": [[u, v], ...]}


def graph_to_json(g: CommGraph) -> dict:
    return {"vertices": g.vertex_count, "edges": [list(e) for e in g.sorted_edges()]}


def graph_from_json(doc, path: str = "graph") -> CommGraph:
    if not isinstance(doc, dict):
        raise SchemaError("graph must be an object", path)
    if "vertices" not in doc or "edges" not in doc:
        raise SchemaError("graph needs 'vertices' and 'edges'", path)
    m = json_int(doc["vertices"], 1, f"{path}.vertices")
    edges = doc["edges"]
    if not isinstance(edges, list):
        raise SchemaError("'edges' must be a list", f"{path}.edges")
    pairs = []
    for k, e in enumerate(edges):
        if not (isinstance(e, list) and len(e) == 2):
            raise SchemaError("edge must be [u, v]", f"{path}.edges[{k}]")
        pairs.append(tuple(json_int(x, 1, f"{path}.edges[{k}]") for x in e))
    try:
        return CommGraph.make(m, pairs)
    except ValueError as err:
        raise SchemaError(str(err), f"{path}.edges") from None


def assignment_to_json(a: Assignment, **extra) -> dict:
    from .exactla import matrix_to_json

    doc = {"matrices": [matrix_to_json(m) for m in a.matrices]}
    doc.update(extra)
    return doc


def assignment_from_json(doc, path: str = "assignment") -> Assignment:
    from .exactla import matrix_from_json

    if not isinstance(doc, dict) or "matrices" not in doc:
        raise SchemaError("assignment needs a 'matrices' list", path)
    mats = doc["matrices"]
    if not isinstance(mats, list) or not mats:
        raise SchemaError("'matrices' must be a nonempty list", f"{path}.matrices")
    matrices = tuple(
        matrix_from_json(m, f"{path}.matrices[{k}]") for k, m in enumerate(mats)
    )
    try:
        return Assignment(matrices)
    except ValueError as err:
        raise SchemaError(str(err), f"{path}.matrices") from None
