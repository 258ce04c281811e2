"""Exhaustive bracketing of the minimal realization dimension over F_p.

A matrix A commutes with exactly the matrices that uA + cI commutes with (u a
unit, c a scalar), so ``exists_realization`` sweeps one representative per
scalar-shift class, with entry (r, r) = 0 and first nonzero entry 1, in the
order of their row-major entry tuples (the zero matrix, for the scalars,
first).  Each has a commuting row, a Python-int bitset over the
representatives read off its centralizer, the kernel of X -> AX - XA.

The sweep is a depth-first search in vertex order.  Choosing a representative
for vertex t narrows every later vertex's bitset domain with one AND, by its
row for a non-edge and by the complement for an edge; a branch dies when a
domain empties.  A node is one representative tried at one vertex, and
``nodes`` (``nodes_explored`` in a report) counts them up to the first witness
in representative order, or to the end of the sweep.  ``invertible_only``
sweeps the classes with an invertible member A + cI and reports the first
such member in c order.

``min_realization_dim`` excludes every level r <= k analytically, where k is
the bound of ``unique_matching_bound``: an induced subgraph on 2k vertices with
exactly one perfect matching forces dimension k + 1 (the paper's n + 1 for n
disjoint pairs is the case of a perfect matching).  It then ascends
r = k+1, k+2, ... on one node budget, and excludes a level there only by a
completed sweep.
"""

from __future__ import annotations

import functools
import itertools
from typing import NamedTuple, Optional

from .commgraph import Assignment, CommGraph, assignment_to_json, graph_to_json, realizes
from .errors import GuardError, InvalidHintError
from .exactla import FieldSpec, Matrix, _null_space, _reduced_form, is_invertible

FOUND = "found"
NONE = "none"
BUDGET_EXCEEDED = "budget_exceeded"

STATUS_EXACT = "exact"
STATUS_BRACKET = "bracket"
STATUS_EXHAUSTED = "exhausted_budget"

MODE_ALL = "all"
MODE_INVERTIBLE = "invertible_only"

WITNESS_RULE = "first_in_representative_order"

CLASS_CAP = 2 * 10**6  # refuse levels with more scalar-shift classes than this
VERTEX_CAP = 1000  # refuse graphs with more vertices than this: the sweep's state grows with m^2
_ROW_CACHE_BITS = 2**25  # cached rows of one (r, p) are dropped beyond this many bits
_EXACT_BOUND_VERTICES = 12  # unique_matching_bound tries every vertex subset up to this many vertices


class ExistsOutcome(NamedTuple):
    status: str  # found | none | budget_exceeded
    witness: Optional[Assignment]
    nodes: int


class SearchReport(NamedTuple):
    graph: CommGraph
    field: FieldSpec
    mode: str
    r_max: int
    budget: int
    status: str  # exact | bracket | exhausted_budget
    lower: int
    upper: Optional[int]
    witness: Optional[Assignment]
    excluded: tuple  # of (r, method) pairs, method in {"exhaustive", "analytic"}
    analytic_lower: int
    nodes_explored: int


def unique_matching_bound(graph: CommGraph) -> tuple:
    """(k, pairs): an induced subgraph H on 2k vertices whose only perfect matching is ``pairs``.

    Every realization of the graph, over any field, has dimension at least
    k + 1 (see the README), so the search excludes the levels below it with
    no sweep.  Up to ``_EXACT_BOUND_VERTICES`` vertices k is nu_upm(G), the
    largest such k: vertex subsets are tried from the largest size down, in
    lexicographic order, each counting its perfect matchings up to 2.  Above
    that H is grown greedily, which proves the bound it gives but may give
    less.  The pairs are (u, w) with u < w, sorted.
    """
    m = graph.vertex_count
    adjacency = graph.neighbours()
    if m > _EXACT_BOUND_VERTICES:
        return _greedy_unique_matching(adjacency)
    known = {0: ((),)}

    def matchings(subset: int) -> tuple:
        """At most two perfect matchings of the subgraph induced on ``subset``."""
        if subset not in known:
            low = subset & -subset
            rest, found = subset ^ low, []
            partners = adjacency[low.bit_length() - 1] & rest
            while partners and len(found) < 2:
                partner = partners & -partners
                partners ^= partner
                pair = (low.bit_length(), partner.bit_length())
                found += [(pair,) + tail for tail in matchings(rest ^ partner)]
            known[subset] = tuple(found[:2])
        return known[subset]

    for k in range(m // 2, 0, -1):
        for vertices in itertools.combinations(range(m), 2 * k):
            found = matchings(sum(1 << v for v in vertices))
            if len(found) == 1:
                return k, found[0]
    return 0, ()


def _greedy_unique_matching(adjacency: list) -> tuple:
    """Take pairs (u, w) in vertex order, u with no neighbour among the vertices taken before.

    Within the vertices taken up to a pair, w is u's only neighbour, so by
    induction from the last pair every perfect matching of H pairs each u
    with its w.  A perfect matching graph keeps all its pairs; an induced
    matching is the case where no w has a taken neighbour either.
    """
    taken = 0
    pairs = []
    for u, row in enumerate(adjacency):
        if not taken >> u & 1 and not row & taken and row:
            partner = row & -row
            taken |= 1 << u | partner
            pairs.append(tuple(sorted((u + 1, partner.bit_length()))))
    return len(pairs), tuple(sorted(pairs))


def class_count(r: int, p: int) -> int:
    """Number of scalar-shift classes of r x r matrices over F_p."""
    return 1 + (p ** (r * r - 1) - 1) // (p - 1)


def _bitset(indices, size: int) -> int:
    bits = bytearray((size + 7) // 8)
    for i in indices:
        bits[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(bits, "little")


class _Classes:
    """The scalar-shift classes of r x r matrices over F_p and their commuting rows."""

    def __init__(self, r: int, p: int):
        self.r, self.p, self.n = r, p, r * r
        self.count = class_count(r, p)
        self.all = (1 << self.count) - 1
        self._place = [p**e for e in range(self.n - 2, -1, -1)] + [0]  # base-p numeral, x_rr dropped
        # index minus numeral of the representatives whose first nonzero entry is at k
        self._offset = [1 + (w - 1) // (p - 1) - w for w in self._place[:-1]]
        self._rows = {}

    def entries(self, index: int) -> tuple:
        """Row-major entries of representative ``index``."""
        digits = [0] * self.n
        if index:
            lead = next(k for k, off in enumerate(self._offset) if index >= off + self._place[k])
            value = index - self._offset[lead]
            for k in range(self.n - 2, lead - 1, -1):
                value, digits[k] = divmod(value, self.p)
        return tuple(digits)

    def row(self, index: int) -> int:
        """Bitset of the representatives that commute with representative ``index``."""
        if index == 0:
            return self.all  # the scalars commute with everything
        if index in self._rows:
            return self._rows[index]
        r, p, n = self.r, self.p, self.n
        a = self.entries(index)
        # (AX - XA)[i][j] = 0 in the row-major entries x_kl of X, then x_rr = 0
        eqs = [[(a[i * r + k] * (l == j) - (i == k) * a[l * r + j]) % p for k in range(r) for l in range(r)]
               for i in range(r) for j in range(r)]
        kernel = [list(v) for v in _null_space(eqs + [[0] * (n - 1) + [1]], n, p)]
        basis, pivots = _reduced_form(kernel, n, p)
        # in reduced echelon form the projective points are b_i plus any combination of later rows
        indices = [0]
        later = [[0] * n]  # the span of the rows after b_i
        for b, lead in zip(reversed(basis), reversed(pivots)):
            offset = self._offset[lead]
            indices += [sum((x + y) % p * w for x, y, w in zip(b, s, self._place)) + offset for s in later]
            later = [[(c * x + y) % p for x, y in zip(b, s)] for c in range(p) for s in later]
        if len(self._rows) * self.count >= _ROW_CACHE_BITS:
            self._rows.clear()
        row = self._rows[index] = _bitset(indices, self.count)
        return row

    def invertible_member(self, index: int) -> Optional[tuple]:
        """Entries of the first invertible A + cI in c order, or None."""
        r, p = self.r, self.p
        a = self.entries(index)
        for c in range(p):
            b = tuple((x + c * (k % (r + 1) == 0)) % p for k, x in enumerate(a))  # A + cI
            if len(_reduced_form([list(b[i * r : (i + 1) * r]) for i in range(r)], r, p)[1]) == r:
                return b
        return None

    @functools.cached_property
    def invertible(self) -> int:
        """Bitset of the classes that have an invertible member."""
        if self.r < self.p:  # A + cI is singular for at most r values of c
            return self.all
        return _bitset((i for i in range(self.count) if self.invertible_member(i) is not None), self.count)


@functools.lru_cache(maxsize=8)
def _classes(r: int, p: int) -> _Classes:
    return _Classes(r, p)


def _check_vertex_cap(graph: CommGraph) -> None:
    if graph.vertex_count > VERTEX_CAP:
        raise GuardError(f"graph has {graph.vertex_count} vertices; search handles at most {VERTEX_CAP}")


def exists_realization(
    graph: CommGraph,
    field: FieldSpec,
    r: int,
    mode: str = MODE_ALL,
    budget: int = 10**8,
) -> ExistsOutcome:
    """Sweep dimension r exhaustively; NONE is a proof of non-existence.

    BUDGET_EXCEEDED (the sweep needed more than ``budget`` nodes, or the level
    has more than ``CLASS_CAP`` classes) carries no non-existence information.
    """
    if field.is_rationals:
        raise ValueError("exhaustive search needs a finite field")
    if r < 1:
        raise ValueError("dimension must be positive")
    if mode not in (MODE_ALL, MODE_INVERTIBLE):
        raise ValueError(f"unknown mode {mode!r}")
    _check_vertex_cap(graph)
    p = field.characteristic
    # the class count is at least 2^(r^2 - 1), so the power is taken for small r only
    if r * r > CLASS_CAP.bit_length() or class_count(r, p) > CLASS_CAP:
        return ExistsOutcome(BUDGET_EXCEEDED, None, 0)

    classes = _classes(r, p)
    invertible = mode == MODE_INVERTIBLE
    m = graph.vertex_count
    adjacency = graph.neighbours()
    nodes = 0
    chosen = []  # class index of each vertex before the current one
    # stack[t]: the untried classes of vertex t, then the domains of the later vertices
    stack = [[classes.invertible if invertible else classes.all] * m]
    while stack:
        t = len(chosen)
        domains = stack[t]
        if not domains[0]:
            stack.pop()
            del chosen[-1:]  # the choice that led to vertex t, if any
            continue
        if nodes >= budget:
            return ExistsOutcome(BUDGET_EXCEEDED, None, nodes)
        nodes += 1
        low = domains[0] & -domains[0]
        domains[0] ^= low
        a = low.bit_length() - 1
        if t == m - 1:
            member = classes.invertible_member if invertible else classes.entries
            witness = Assignment(tuple(Matrix(field, r, r, member(c)) for c in chosen + [a]))
            return ExistsOutcome(FOUND, witness, nodes)
        row, edges = classes.row(a), adjacency[t]
        narrowed = []
        for v, dom in enumerate(domains[1:], t + 1):
            dom = dom & ~row if edges >> v & 1 else dom & row
            if not dom:
                break
            narrowed.append(dom)
        else:
            chosen.append(a)
            stack.append(narrowed)
    return ExistsOutcome(NONE, None, nodes)


def min_realization_dim(
    graph: CommGraph,
    field: FieldSpec,
    r_max: int,
    mode: str = MODE_ALL,
    budget: int = 10**8,
    hint: Optional[Assignment] = None,
) -> SearchReport:
    """Ascend r = k+1..r_max, collecting exclusions and the first realization.

    k is the bound of ``unique_matching_bound``.  Each r <= k is excluded as
    ``"analytic"`` with no sweep and no node charged.  From k + 1 up, each
    level is swept on what is left of the one node budget: a ``none`` level
    is excluded as ``"exhaustive"``, a found witness (or a hint of dimension
    at most r) ends the ascent, and a level the budget or the class cap
    refuses becomes the reported lower bound.  A hint or witness below k + 1
    would contradict the theorem and raises ``AssertionError``.
    """
    if field.is_rationals:
        raise ValueError("exhaustive search needs a finite field")
    if r_max < 1:
        raise ValueError("r_max must be positive")
    if mode not in (MODE_ALL, MODE_INVERTIBLE):  # checked here too: a 1-dimensional hint sweeps no level
        raise ValueError(f"unknown mode {mode!r}")
    _check_vertex_cap(graph)

    upper = witness = None
    if hint is not None:
        if len(hint) != graph.vertex_count:
            raise InvalidHintError(f"hint assigns {len(hint)} matrices to {graph.vertex_count} vertices")
        if hint.field != field:
            raise InvalidHintError(
                f"hint field {hint.field.name()} does not match search field {field.name()}"
            )
        if mode == MODE_INVERTIBLE:
            singular = next((k for k, m in enumerate(hint.matrices, 1) if not is_invertible(m)), None)
            if singular is not None:
                raise InvalidHintError(f"hint matrix {singular} is singular; {mode} needs invertible matrices")
        check = realizes(hint, graph)
        if not check.ok:
            first = check.violations[0]
            raise InvalidHintError(
                f"hint does not realize the graph: pair ({first.u}, {first.v}) "
                f"{'commutes on an edge' if first.edge else 'fails to commute on a non-edge'}"
            )
        upper, witness = hint.dimension, hint

    analytic = unique_matching_bound(graph)[0] + 1
    excluded = dict.fromkeys(range(1, analytic), "analytic")
    nodes_total = 0
    exceeded = False

    for r in range(analytic, r_max + 1):
        if upper is not None and r >= upper:
            break
        outcome = exists_realization(graph, field, r, mode, budget - nodes_total)
        nodes_total += outcome.nodes
        if outcome.status == FOUND:
            upper, witness = r, outcome.witness
            break
        if outcome.status != NONE:
            exceeded = True  # the budget or the class cap, not r_max, stopped the ascent
            break  # r cannot be excluded: it becomes the reported lower bound
        excluded[r] = "exhaustive"

    lower = 1
    while lower in excluded:
        lower += 1
    if upper is not None and upper < analytic:
        raise AssertionError("realization below the unique-perfect-matching bound")

    status = STATUS_EXACT if upper == lower else STATUS_EXHAUSTED if exceeded else STATUS_BRACKET

    return SearchReport(
        graph=graph,
        field=field,
        mode=mode,
        r_max=r_max,
        budget=budget,
        status=status,
        lower=lower,
        upper=upper,
        witness=witness,
        excluded=tuple(sorted(excluded.items())),
        analytic_lower=analytic,
        nodes_explored=nodes_total,
    )


# -- JSON -----------------------------------------------------------------------


def report_to_json(report: SearchReport) -> dict:
    return {
        "graph": graph_to_json(report.graph),
        "field": report.field.name(),
        "mode": report.mode,
        "r_max": report.r_max,
        "budget": report.budget,
        "status": report.status,
        "lower": report.lower,
        "upper": report.upper,
        "witness": None if report.witness is None else assignment_to_json(report.witness),
        "excluded": [[r, method] for r, method in report.excluded],
        "analytic_lower": report.analytic_lower,
        "nodes_explored": report.nodes_explored,
        "witness_rule": WITNESS_RULE,
    }
