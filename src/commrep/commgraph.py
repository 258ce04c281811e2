"""Graphs whose edges encode non-commutation, and the realization predicate.

``realizes`` decides whether a matrix assignment has exactly the commutation
pattern a graph prescribes: adjacent vertices get non-commuting matrices,
non-adjacent vertices get commuting ones.  The all-pairs check works on
each matrix's stored integers (``den`` times the matrix) packed into Python
ints, and takes one of two paths by the input's size.  A few small
matrices, such as a search hint, are compared pair by pair, each whole
commutator as one int, with no set-up beyond packing each matrix once.
Larger inputs take each matrix less its most common diagonal value, which
changes no commutator's vanishing, and compare only the pairs whose
supports interact: one multiply-add per nonzero entry gives a row of a
matrix's products with all its partners at once.  Either way the result is
one bitset of non-commuting partners per matrix, and ``realizes`` reads its
violations off their XOR with the adjacency bitsets."""

from __future__ import annotations

import bisect
import functools
import operator
from collections import Counter
from itertools import chain, compress, repeat
from typing import Callable, Iterable, NamedTuple, Sequence

from .errors import InvalidArgumentError, SchemaError, json_int, json_list, json_object
from .exactla import FieldSpec, Matrix, _Value, matrix_from_json, matrix_to_json


class CommGraph(_Value):
    """Simple graph on vertices 1..m with unordered edges and no loops."""

    _fields = ("vertex_count", "edges")

    def __init__(self, vertex_count: int, edges: frozenset):
        """``edges`` is a frozenset of (u, v) tuples with u < v."""
        if vertex_count < 1:
            raise ValueError("vertex count must be positive")
        for e in edges:
            if not (isinstance(e, tuple) and len(e) == 2):
                raise ValueError(f"bad edge {e!r}")
            u, v = e
            if u == v:
                raise ValueError(f"self-loop at {u}")
            if not (1 <= u < v <= vertex_count):
                raise ValueError(f"edge {e!r} outside 1..{vertex_count}")
        self.__dict__.update(vertex_count=vertex_count, edges=edges)

    @staticmethod
    def make(vertex_count: int, edges: Iterable[Sequence[int]]) -> "CommGraph":
        norm = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return CommGraph(vertex_count, norm)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    def neighbours(self) -> list:
        """One bitset per vertex, built on each call: bit w - 1 of entry u - 1 is set when uw is an edge."""
        adjacency = [0] * self.vertex_count
        for u, w in self.edges:
            adjacency[u - 1] |= 1 << (w - 1)
            adjacency[w - 1] |= 1 << (u - 1)
        return adjacency


def matching_graph(n: int) -> CommGraph:
    """n disjoint edges on 2n vertices: pair i is (i, n + i); ``CommGraph`` refuses n < 1."""
    return CommGraph.make(2 * n, [(i, n + i) for i in range(1, n + 1)])


class Assignment(_Value):
    """One square matrix per vertex, all of one dimension over one field."""

    _fields = ("matrices",)

    def __init__(self, matrices: tuple):
        if not matrices:
            raise ValueError("assignment must be nonempty")
        first = matrices[0]
        for m in matrices:
            if not isinstance(m, Matrix) or not m.is_square:
                raise ValueError("assignments hold square matrices")
            if m.field != first.field or m.rows != first.rows:
                raise ValueError("uniform dimension and field required")
        self.__dict__["matrices"] = matrices

    @property
    def field(self) -> FieldSpec:
        return self.matrices[0].field

    @property
    def dimension(self) -> int:
        return self.matrices[0].rows

    def __len__(self) -> int:
        return len(self.matrices)


class PairStatus(NamedTuple):
    """Commutation status of one vertex pair against the graph's demand."""

    u: int
    v: int
    edge: bool
    commutes: bool


class RealizationCheck(NamedTuple):
    ok: bool
    violations: tuple  # of PairStatus, exhaustive


def _shifted_rows(a: Matrix) -> dict:
    """{row: {column: value}} of the nonzero entries of den (A - cI), all integers.

    c is the most common diagonal entry of A, so a scalar-plus-sparse matrix
    keeps only its sparse part, and [A - cI, B] = [A, B].  The values are the
    stored integers of A, den A, shifted by den c: over Q, [den A, B] =
    den [A, B] vanishes with [A, B]; over F_p, den = 1 and the values are
    residues.  The rows kept are those that differ from c e_i, found by one
    comparison of the stored rows against the rows of cI.  The first
    candidate for c is the last row's diagonal entry: when more than half of
    the rows equal c e_i, c is on more than half of the diagonal and so is
    its mode.  Only otherwise is the diagonal counted.
    """
    rows, r, p = a.nonzero_rows, a.rows, a.field.characteristic
    last = rows[-1]
    c = last[-1][1] if last and last[-1][0] == r - 1 else 0
    differ = list(compress(range(r), map(operator.ne, rows, _scalar_rows(r, c))))
    if 2 * len(differ) >= r:  # no majority: c is the first most common diagonal entry
        c = Counter(_diagonal_entry(row, i) for i, row in enumerate(rows)).most_common(1)[0][0]
        differ = list(compress(range(r), map(operator.ne, rows, _scalar_rows(r, c))))
    shifted = {}
    for i in differ:
        row = shifted[i] = dict(rows[i])
        x = row.pop(i, 0) - c
        if x:
            row[i] = x if p is None else x % p
    return shifted


def _scalar_rows(r: int, c: int):
    """The stored rows of c I, as an iterator."""
    return zip(zip(range(r), repeat(c))) if c else repeat((), r)


def _diagonal_entry(row: tuple, i: int) -> int:
    k = bisect.bisect_left(row, (i,))
    return row[k][1] if k < len(row) and row[k][0] == i else 0


def _bits(x: int):
    """Indices of the set bits of x, in increasing order."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def _repeat(pattern: int, stride: int, count: int) -> int:
    """``count`` copies of ``pattern``, ``stride`` bits apart."""
    return pattern * (((1 << stride * count) - 1) // ((1 << stride) - 1))


@functools.lru_cache(maxsize=64)
def _canonical_slots(width: int, r: int, blocks: int, p) -> Callable:
    """Map a packed product row to one whose slots are canonical, so equal entries give equal bytes.

    The row has ``blocks`` blocks of 8 * ceil(r * width / 8) bits, each with r
    slots of ``width`` bits at its low end.  Over Q a slot holds an entry v
    with |v| < 2^(width-1) as a signed digit; adding 2^(width-1) to every
    slot makes it the plain digit v + 2^(width-1).  Over F_p a slot holds an
    entry 0 <= v < 2^(width-1) and becomes v mod p.  Slots of even and of odd
    index are reduced apart, each with at least 2 * width bits up to the next
    one, so floor(v / p) = floor(v * mu / 2^shift) is exact in every slot at
    once: mu = ceil(2^shift / p) exceeds 2^shift / p by e / p with e < p, and
    v * e < 2^(width - 1 + p.bit_length()) = 2^shift.
    """
    span = -(-r * width // 8) * 8

    def every(value, parity):  # value in every slot t * r + j of the given parity
        first = _repeat(value, 2 * width, (r + 1 - parity) // 2) << parity * width
        second = _repeat(value, 2 * width, (r + 1 - (parity ^ r % 2)) // 2) << (parity ^ r % 2) * width
        return _repeat(first | second << span, 2 * span, (blocks + 1) // 2) & (1 << blocks * span) - 1

    if p is None:
        bias = every(1 << width - 1, 0) | every(1 << width - 1, 1)
        return lambda x: x + bias
    if 1 << width - 1 <= p:
        return lambda x: x  # every entry is below p already
    shift = width - 1 + p.bit_length()
    mu = -(-(1 << shift) // p)
    even, odd = every((1 << width) - 1, 0), every((1 << width) - 1, 1)
    # v * mu < 2^(2 * width), so the quotient fills at most 2 * width - shift bits
    q_even, q_odd = every((1 << 2 * width - shift) - 1, 0), every((1 << 2 * width - shift) - 1, 1)
    return lambda x: x - ((((x & even) * mu >> shift) & q_even) | (((x & odd) * mu >> shift) & q_odd)) * p


def _partners(shifted: list, r: int) -> list:
    """Per matrix, the bitset of the others whose products with it can be nonzero.

    A_a A_b vanishes unless the column support of A_a meets the row support
    of A_b; an index from each position to the matrices using it finds the
    pairs where either product can be nonzero.
    """
    columns = [set().union(*rows.values()) for rows in shifted]
    in_rows, in_cols = [0] * r, [0] * r
    for v, (rows, cols) in enumerate(zip(shifted, columns)):
        for i in rows:
            in_rows[i] |= 1 << v
        for j in cols:
            in_cols[j] |= 1 << v
    partners = []
    for v, (rows, cols) in enumerate(zip(shifted, columns)):
        meets = 0
        for i in rows:
            meets |= in_cols[i]
        for j in cols:
            meets |= in_rows[j]
        partners.append(meets & ~(1 << v))
    return partners


def _components(partners: list):
    """The vertex lists, in increasing order, of the connected components of the partner graph with an edge."""
    done = 0
    for v, mine in enumerate(partners):
        if done >> v & 1 or not mine:
            continue
        group, frontier = 0, 1 << v
        while frontier:
            group |= frontier
            reach = 0
            for u in _bits(frontier):
                reach |= partners[u]
            frontier = reach & ~group
        done |= group
        yield list(_bits(group))


def _commutator_slots(matrices: Sequence[Matrix], r: int, p) -> tuple:
    """(width, lift): slots of ``width`` bits hold every entry v of every [A, B] once ``lift`` is added.

    Over Q an entry of a product AB is at most the largest row 1-norm times
    the largest entry in absolute value, so |v| < 2^width, and ``lift`` is
    0: slots that far apart, each holding some |v| < 2^width, sum to zero
    only when every v is zero, since the lowest nonzero one is not a
    multiple of 2^width.  Over F_p 0 <= AB_ij <= r (p - 1)^2, and ``lift``
    is the least multiple of p at least that large, so that
    0 <= v + lift < 2^(width-1), as ``_canonical_slots`` needs.
    """
    if p is None:
        values = [[x for _, x in row] for a in matrices for row in a.nonzero_rows]
        norm = max(map(sum, (map(abs, v) for v in values)), default=0)
        return (norm * max(map(abs, chain(*values)), default=0)).bit_length() + 1, 0
    bound = r * (p - 1) ** 2
    lift = -(-bound // p) * p
    return (lift + bound).bit_length() + 1, lift


def _pairwise(matrices: Sequence[Matrix], r: int, p, width: int, lift: int) -> list:
    """``noncommuting_pairs`` by one comparison per pair, of a whole commutator packed into one int.

    Each matrix is packed twice with slots of ``width`` bits: row k into one
    int, and column k into one int with entry i in byte-aligned block i.
    Then the sum over k of column k of A times row k of B is all of AB at
    once, block i holding row i, and [A, B] is one int.  Over Q [A, B] is
    zero exactly when that int is; over F_p, exactly when it is zero once
    ``lift`` is added to every slot and ``_canonical_slots`` has reduced
    every slot mod p (see ``_commutator_slots``).
    """
    span = -(-r * width // 8) * 8
    packed = []
    for a in matrices:
        rows, cols = [0] * r, [0] * r
        for i, row in enumerate(a.nonzero_rows):
            for j, x in row:
                rows[i] += x << j * width
                cols[j] += x << i * span
        packed.append((rows, cols))
    if p is None:
        canonical = int  # the int itself
    else:
        canonical = _canonical_slots(width, r, r, p)
        lift *= _repeat(_repeat(1, width, r), span, r)
    noncommuting = [0] * len(matrices)
    for a, (rows_a, cols_a) in enumerate(packed):
        for b in range(a + 1, len(packed)):
            rows_b, cols_b = packed[b]
            if canonical(sum(map(operator.mul, cols_a, rows_b), lift) - sum(map(operator.mul, cols_b, rows_a))):
                noncommuting[a] |= 1 << b
                noncommuting[b] |= 1 << a
    return noncommuting


def _stacked(matrices: Sequence[Matrix], r: int, p) -> list:
    """``noncommuting_pairs`` by stacked rows: each row of a matrix's products with all its partners at once.

    Each matrix is replaced by ``_shifted_rows``, and only partners
    (``_partners``) are compared, one connected component of them at a time.
    In a component each row of every matrix is packed into one int of r slots
    of ``width`` bits, and the rows k of all members are stacked into one int
    per k, one byte-aligned block per member.  Row i of A_a times the stack
    of row k, summed over the nonzero entries A_a[i][k], is row i of every
    product A_a A_b at once.  Its slots are made canonical
    (``_canonical_slots``), so [A_a, A_b] has a nonzero row i exactly when
    block b of row i of the products of a and block a of row i of the
    products of b differ as bytes.  A product entry is at most the largest
    row 1-norm times the largest entry in absolute value, and ``width``
    leaves one bit above that for the sign or the reduction mod p.  Rows are
    taken one row index at a time, so at most one row per member is held as
    bytes.
    """
    m = len(matrices)
    shifted = [_shifted_rows(a) for a in matrices]
    partners = _partners(shifted, r)
    noncommuting = [0] * m
    if not any(partners):
        return noncommuting
    norm = max(sum(map(abs, row.values())) for rows in shifted for row in rows.values())
    largest = max(max(map(abs, row.values())) for rows in shifted for row in rows.values())
    width = (norm * largest).bit_length() + 1
    block = -(-r * width // 8)
    offsets = [j * width for j in range(r)]
    # a block of a canonical zero row: the same block for any number of blocks
    zero = _canonical_slots(width, r, 1, p)(0).to_bytes(block, "little")
    for members in _components(partners):
        place = {u: t for t, u in enumerate(members)}
        near = [[place[w] for w in _bits(partners[u])] for u in members]
        cut = [slice(t * block, (t + 1) * block) for t in range(len(members))]
        stacks, users = [0] * r, {}
        for t, u in enumerate(members):
            for k, row in shifted[u].items():
                packed = sum(map(operator.lshift, row.values(), map(offsets.__getitem__, row)))
                stacks[k] += packed << t * block * 8
                users.setdefault(k, []).append(t)
        size = len(members) * block
        canonical = _canonical_slots(width, r, len(members), p)
        for i, row_users in users.items():
            products = [None] * len(members)
            for t in row_users:
                row = shifted[members[t]][i]
                x = sum(map(operator.mul, row.values(), map(stacks.__getitem__, row)))
                products[t] = canonical(x).to_bytes(size, "little")
            for t in row_users:
                mine, here = products[t], cut[t]
                for s in near[t]:
                    theirs = products[s]
                    if theirs is None:
                        theirs = zero
                    elif s < t:
                        continue  # compared from s's side
                    else:
                        theirs = theirs[here]
                    if mine[cut[s]] != theirs:
                        u, w = members[t], members[s]
                        noncommuting[u] |= 1 << w
                        noncommuting[w] |= 1 << u
    return noncommuting


# the size bounds of the pairwise path: m * m * r for m matrices of dimension r, and r * r * width
_PAIRWISE_WORK = 256
_PAIRWISE_BITS = 2048


def noncommuting_pairs(matrices: Sequence[Matrix]) -> list:
    """One bitset per matrix: bit j of entry i is set when matrices i and j do not commute.

    Small inputs take ``_pairwise``: every pair's whole commutator is one
    int, at a cost per pair of 2r products of ints of about r * r * width
    bits, with no set-up beyond packing each matrix.  Larger inputs take
    ``_stacked``, whose set-up (the scalar shift, the partner index, the
    components) pays for itself by comparing only pairs whose supports
    interact, with one multiply-add per nonzero entry and row.  The bounds
    are set from measured crossovers: the pairwise path is the faster one
    up to about m * m * r = 256 for small entries, and its cost grows with
    the fourth power of r and the square of the width.  Both paths give
    the same bitsets.
    """
    m, r = len(matrices), matrices[0].rows
    p = matrices[0].field.characteristic
    if m * m * r <= _PAIRWISE_WORK:
        width, lift = _commutator_slots(matrices, r, p)
        if r * r * width <= _PAIRWISE_BITS:
            return _pairwise(matrices, r, p, width, lift)
    return _stacked(matrices, r, p)


def realizes(assignment: Assignment, graph: CommGraph) -> RealizationCheck:
    """Check every vertex pair; violations are reported exhaustively, u < v in row-major order.

    An assignment without exactly one matrix per vertex raises ``InvalidArgumentError``, a ``ValueError``.
    """
    if len(assignment) != graph.vertex_count:
        raise InvalidArgumentError(
            f"assignment has {len(assignment)} matrices for {graph.vertex_count} vertices"
        )
    noncommuting = noncommuting_pairs(assignment.matrices)
    violations = []
    for u, (cross, edges) in enumerate(zip(noncommuting, graph.neighbours())):
        for k in _bits((cross ^ edges) >> (u + 1)):
            v = u + 1 + k
            edge = bool(edges >> v & 1)
            # an edge that commutes, or a non-edge that does not
            violations.append(PairStatus(u + 1, v + 1, edge, edge))
    return RealizationCheck(not violations, tuple(violations))


# -- JSON ---------------------------------------------------------------------

# Graph schema: {"vertices": m, "edges": [[u, v], ...]}


def graph_to_json(g: CommGraph) -> dict:
    return {"vertices": g.vertex_count, "edges": [list(e) for e in sorted(g.edges)]}


def graph_from_json(doc, path: str = "graph") -> CommGraph:
    json_object(doc, ("vertices", "edges"), "graph", path)
    m = json_int(doc["vertices"], 1, f"{path}.vertices")
    pairs = [
        tuple(json_int(x, 1, f"{path}.edges[{k}]") for x in json_list(e, f"{path}.edges[{k}]", 2))
        for k, e in enumerate(json_list(doc["edges"], f"{path}.edges"))
    ]
    try:
        return CommGraph.make(m, pairs)
    except ValueError as err:
        raise SchemaError(str(err), f"{path}.edges") from None


def assignment_to_json(a: Assignment, **extra) -> dict:
    doc = {"matrices": [matrix_to_json(m) for m in a.matrices]}
    doc.update(extra)
    return doc


def assignment_from_json(doc, path: str = "assignment") -> Assignment:
    json_object(doc, ("matrices",), "assignment", path)
    mats = json_list(doc["matrices"], f"{path}.matrices", minimum=1)
    matrices = tuple(
        matrix_from_json(m, f"{path}.matrices[{k}]") for k, m in enumerate(mats)
    )
    try:
        return Assignment(matrices)
    except ValueError as err:
        raise SchemaError(str(err), f"{path}.matrices") from None
