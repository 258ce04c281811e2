"""Brute-force bracketing of the minimal realization dimension over F_p.

``exists_realization`` sweeps all assignments of r x r matrices over F_p to
the vertices of a graph, depth-first in vertex order, pruning a branch as
soon as one commutation constraint fails.  Candidates are enumerated by
their row-major entry tuple as a base-p counter (the zero matrix first), so
results are reproducible byte for byte.

The sweep is partitioned by the first vertex's candidate.  Partitions run
in candidate order, each with a fixed slice of the node budget, and the
sweep stops at the first partition that finds a witness, which is the first
witness in global candidate order.  ``nodes`` (``nodes_explored`` in a
report) counts the constraint checks made up to that witness, or to the end
of the sweep when there is none, so every count depends only on the inputs.

``min_realization_dim`` ascends r = 1, 2, ... with a worst-case feasibility
precheck per level; levels it cannot afford to sweep are never reported as
excluded.  For perfect matchings on 2n vertices the analytic bound n+1 is
applied as an independent exclusion method.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

from .commgraph import Assignment, CommGraph, graph_to_json, realizes
from .errors import InvalidHintError
from .exactla import FieldSpec, Matrix, _reduced_form, block_diagonal, zeros

FOUND = "found"
NONE = "none"
BUDGET_EXCEEDED = "budget_exceeded"

STATUS_EXACT = "exact"
STATUS_BRACKET = "bracket"
STATUS_EXHAUSTED = "exhausted_budget"

MODE_ALL = "all"
MODE_INVERTIBLE = "invertible_only"

WITNESS_RULE = "first_in_candidate_order"

_CANDIDATE_CAP = 2 * 10**6  # refuse to materialize larger candidate lists


@dataclass(frozen=True)
class ExistsOutcome:
    status: str  # found | none | budget_exceeded
    witness: Optional[Assignment]
    nodes: int


@dataclass(frozen=True)
class SearchReport:
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
    analytic_lower: Optional[int]
    nodes_explored: int


def matching_lower_bound(graph: CommGraph) -> Optional[int]:
    """n+1 when the graph is a perfect matching on 2n vertices, else None.

    A family realizing n disjoint non-commuting pairs needs dimension at
    least n+1; the bound applies to no other edge pattern here.
    """
    degrees = graph.degrees()
    if degrees and all(d == 1 for d in degrees):
        return graph.vertex_count // 2 + 1
    return None


def _candidates(r: int, field: FieldSpec, mode: str):
    p = field.characteristic
    cands = list(itertools.product(range(p), repeat=r * r))
    if mode == MODE_INVERTIBLE:
        rows = range(0, r * r, r)
        cands = [c for c in cands if len(_reduced_form([c[i : i + r] for i in rows], r, p)[1]) == r]
    return cands


def worst_case_nodes(vertex_count: int, r: int, p: int) -> int:
    """Upper bound on constraint checks for a full sweep at dimension r."""
    c = p ** (r * r)
    return sum((t - 1) * c**t for t in range(2, vertex_count + 1))


class _BudgetHit(Exception):
    pass


class _Partition:
    """Exhaustive DFS under one fixed first-vertex candidate."""

    def __init__(self, graph, candidates, r, p, budget):
        self.m = graph.vertex_count
        self.adj = [
            [graph.has_edge(u, v) for v in range(graph.vertex_count + 1)]
            for u in range(graph.vertex_count + 1)
        ]
        self.candidates = candidates
        self.r = r
        self.p = p
        self.budget = budget
        self.nodes = 0
        self.found = None

    def run(self, first_index):
        assigned = [self.candidates[first_index]]
        try:
            self._dfs(2, assigned)
            status = NONE if self.found is None else FOUND
        except _BudgetHit:
            status = BUDGET_EXCEEDED
        return status, self.found, self.nodes

    def _dfs(self, t, assigned):
        if t > self.m:
            self.found = tuple(assigned)
            return True
        adj_t = self.adj[t]
        for cand in self.candidates:
            ok = True
            for u in range(1, t):
                self.nodes += 1
                if self.nodes > self.budget:
                    raise _BudgetHit
                if self._commutes(assigned[u - 1], cand) == adj_t[u]:
                    ok = False
                    break
            if ok:
                assigned.append(cand)
                if self._dfs(t + 1, assigned):
                    return True
                assigned.pop()
        return False

    def _commutes(self, a, b):
        r, p = self.r, self.p
        for i in range(r):
            ai = i * r
            for j in range(r):
                s = 0
                for k in range(r):
                    s += a[ai + k] * b[k * r + j] - b[ai + k] * a[k * r + j]
                if s % p:
                    return False
        return True


def exists_realization(
    graph: CommGraph,
    field: FieldSpec,
    r: int,
    mode: str = MODE_ALL,
    budget: int = 10**8,
) -> ExistsOutcome:
    """Sweep dimension r exhaustively; NONE is a proof of non-existence.

    A BUDGET_EXCEEDED outcome means some partition ran out of its budget
    share (or the level was too large to enumerate at all) and carries no
    non-existence information.
    """
    if field.is_rationals:
        raise ValueError("exhaustive search needs a finite field")
    if r < 1:
        raise ValueError("dimension must be positive")
    if mode not in (MODE_ALL, MODE_INVERTIBLE):
        raise ValueError(f"unknown mode {mode!r}")
    p = field.characteristic
    if p ** (r * r) > min(budget, _CANDIDATE_CAP):
        return ExistsOutcome(BUDGET_EXCEEDED, None, 0)

    candidates = _candidates(r, field, mode)
    if not candidates:
        return ExistsOutcome(NONE, None, 0)

    n_parts = len(candidates)
    share, extra = divmod(max(budget, 0), n_parts)
    nodes = 0
    exceeded = False
    for k in range(n_parts):
        part = _Partition(graph, candidates, r, p, share + (1 if k < extra else 0))
        status, found, used = part.run(k)
        nodes += used
        if status == FOUND:
            witness = Assignment(tuple(_tuple_to_matrix(c, r, field) for c in found))
            return ExistsOutcome(FOUND, witness, nodes)
        exceeded = exceeded or status == BUDGET_EXCEEDED
    return ExistsOutcome(BUDGET_EXCEEDED if exceeded else NONE, None, nodes)


def _tuple_to_matrix(entries, r, field) -> Matrix:
    return Matrix(field, r, r, tuple(int(x) for x in entries))


def min_realization_dim(
    graph: CommGraph,
    field: FieldSpec,
    r_max: int,
    mode: str = MODE_ALL,
    budget: int = 10**8,
    hint: Optional[Assignment] = None,
) -> SearchReport:
    """Ascend r = 1..r_max, collecting exclusions and the first realization."""
    if field.is_rationals:
        raise ValueError("exhaustive search needs a finite field")
    if r_max < 1:
        raise ValueError("r_max must be positive")
    p = field.characteristic

    upper = None
    witness = None
    if hint is not None:
        if len(hint) != graph.vertex_count:
            raise InvalidHintError(
                f"hint assigns {len(hint)} matrices to {graph.vertex_count} vertices"
            )
        if hint.field != field:
            raise InvalidHintError(
                f"hint field {hint.field.name()} does not match search field {field.name()}"
            )
        check = realizes(hint, graph)
        if not check.ok:
            first = check.violations[0]
            raise InvalidHintError(
                f"hint does not realize the graph: pair ({first.u}, {first.v}) "
                f"{'commutes on an edge' if first.edge else 'fails to commute on a non-edge'}"
            )
        upper = hint.dimension
        witness = hint

    analytic = matching_lower_bound(graph)
    excluded = {}
    nodes_total = 0
    exceeded = False

    r = 1
    while r <= r_max:
        if upper is not None and r >= upper:
            break
        remaining = budget - nodes_total
        if worst_case_nodes(graph.vertex_count, r, p) > remaining:
            if analytic is not None and r < analytic:
                excluded[r] = "analytic"
                r += 1
                continue
            exceeded = True  # the budget, not r_max, stopped the ascent
            break  # r cannot be excluded: it becomes the reported lower bound
        outcome = exists_realization(graph, field, r, mode, remaining)
        nodes_total += outcome.nodes
        if outcome.status == FOUND:
            if analytic is not None and r < analytic:
                raise AssertionError(
                    "exhaustive sweep found a realization below the matching bound"
                )
            upper = r
            witness = outcome.witness
            break
        if outcome.status == NONE:
            excluded[r] = "exhaustive"
            r += 1
            continue
        exceeded = True
        if analytic is not None and r < analytic:
            excluded[r] = "analytic"
            r += 1
            continue
        break

    if analytic is not None:
        for rr in range(1, analytic):
            excluded.setdefault(rr, "analytic")

    lower = 1
    while lower in excluded:
        lower += 1
    if upper is not None and analytic is not None:
        assert upper >= analytic, "realization below the analytic bound"

    if upper is not None and lower == upper:
        status = STATUS_EXACT
    elif exceeded:
        status = STATUS_EXHAUSTED
    else:
        status = STATUS_BRACKET

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


def pad_assignment(assignment: Assignment, extra: int) -> Assignment:
    """Pad every matrix with an extra zero block; preserves the realization."""
    if extra < 1:
        return assignment
    pad = zeros(extra, extra, assignment.field)
    return Assignment(tuple(block_diagonal([m, pad]) for m in assignment.matrices))


# -- JSON -----------------------------------------------------------------------


def report_to_json(report: SearchReport) -> dict:
    from .commgraph import assignment_to_json

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
