"""Graphs whose edges encode non-commutation, and the realization predicate.

``realizes`` decides whether a matrix assignment has exactly the commutation
pattern a graph prescribes: adjacent vertices get non-commuting matrices,
non-adjacent vertices get commuting ones.  The all-pairs check shifts each
matrix by its most common diagonal entry and clears its denominators, which
changes no commutator's vanishing, and then multiplies only the pairs whose
supports interact, each densely on the union of the two supports, in int64
when no product entry can overflow it and in Python ints otherwise.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import SchemaError, json_int
from .exactla import FieldSpec, Matrix

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


def _shifted_integer_entries(a: Matrix) -> tuple:
    """(rows, cols, values) of the nonzero entries of dA - cI, all integers.

    Over Q, d is the lcm of the denominators of A, and [dA, B] = d [A, B]
    vanishes with [A, B]; over F_p, d = 1 and the values are residues.  c is
    the most common diagonal entry of dA, so a scalar-plus-sparse matrix keeps
    only its sparse part, and [A - cI, B] = [A, B].
    """
    p = a.field.characteristic
    entries = {(i, j): x for i, row in enumerate(a.nonzero_rows) for j, x in row}
    if p is None:
        d = math.lcm(*(x.denominator for x in entries.values()))
        entries = {key: x.numerator * (d // x.denominator) for key, x in entries.items()}
    diagonal = [entries.get((i, i), 0) for i in range(a.rows)]
    c = Counter(diagonal).most_common(1)[0][0]
    if c:
        for i, x in enumerate(diagonal):
            if x == c:
                del entries[i, i]
            else:
                entries[i, i] = x - c if p is None else (x - c) % p
    rows = np.array([i for i, _ in entries], dtype=np.intp)
    cols = np.array([j for _, j in entries], dtype=np.intp)
    return rows, cols, list(entries.values())


def noncommuting_pairs(matrices: Sequence[Matrix]) -> np.ndarray:
    """Boolean m x m array: True where the two matrices do not commute.

    Each matrix is replaced by ``_shifted_integer_entries``.  Both products of
    a pair vanish unless the column support of one meets the row support of
    the other, so only the pairs that pass this test are multiplied, densely
    on the union of their supports.  Entries are int64 when no product entry
    (at most r M^2, M the largest absolute value) can overflow it, and Python
    ints otherwise.
    """
    m = len(matrices)
    r = matrices[0].rows
    p = matrices[0].field.characteristic
    shifted = [_shifted_integer_entries(a) for a in matrices]
    maxabs = max((abs(x) for _, _, values in shifted for x in values), default=0)
    dtype = np.int64 if r * maxabs * maxabs < _INT64_SAFE else object
    shifted = [(rows, cols, np.array(values, dtype=dtype)) for rows, cols, values in shifted]
    in_rows = np.zeros((m, r), dtype=bool)
    in_cols = np.zeros((m, r), dtype=bool)
    for k, (rows, cols, _) in enumerate(shifted):
        in_rows[k, rows] = True
        in_cols[k, cols] = True
    meets = in_cols.astype(float) @ in_rows.T.astype(float) > 0  # [a, b]: C_a meets R_b
    supports = in_rows | in_cols
    position = np.zeros(r, dtype=np.intp)  # index within the current pair's support

    def on_support(k, size):
        rows, cols, values = shifted[k]
        dense = np.zeros((size, size), dtype=dtype)
        dense[position[rows], position[cols]] = values
        return dense

    mask = np.zeros((m, m), dtype=bool)
    for a, b in zip(*np.nonzero(np.triu(meets | meets.T, 1))):
        support = np.flatnonzero(supports[a] | supports[b])
        position[support] = np.arange(len(support))
        x, y = on_support(a, len(support)), on_support(b, len(support))
        z = x @ y - y @ x
        if p is not None:
            z %= p
        mask[a, b] = mask[b, a] = bool(np.count_nonzero(z))
    return mask


def realizes(assignment: Assignment, graph: CommGraph) -> RealizationCheck:
    """Check every vertex pair; violations are reported exhaustively."""
    if len(assignment) != graph.vertex_count:
        raise ValueError(
            f"assignment has {len(assignment)} matrices for {graph.vertex_count} vertices"
        )
    mask = noncommuting_pairs(assignment.matrices)
    adjacency = np.zeros_like(mask)
    edges = np.array(list(graph.edges), dtype=np.intp).reshape(-1, 2) - 1
    adjacency[edges[:, 0], edges[:, 1]] = True  # upper triangle, as u < v
    violations = tuple(
        PairStatus(int(u) + 1, int(v) + 1, bool(adjacency[u, v]), not mask[u, v])
        for u, v in zip(*np.nonzero(np.triu(mask != adjacency, 1)))
    )
    return RealizationCheck(not violations, violations)


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
