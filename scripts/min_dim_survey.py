#!/usr/bin/env python3
"""Survey the minimal realization dimension of every graph on up to 6 vertices.

The survey runs one graph per isomorphism class: the labelled graph whose
edge set, read as a bitmask over the vertex pairs in lexicographic order, is
the smallest in its class (found by trying every vertex permutation).  For
each class the search excludes every dimension up to nu_upm analytically,
where nu_upm is the largest k such that some induced subgraph on 2k vertices
has exactly one perfect matching; it sweeps the dimensions from nu_upm + 1 up
exhaustively over F_p and takes an upper bound from an explicit witness:

  * perfect matchings get the sharp (n+1)-dimensional construction;
  * every other graph gets the generic (m+1)-dimensional assignment
    M_v = E_{1,v+1} + sum over earlier neighbours u of E_{u+1,v+1},
    for which [M_u, M_v] is nonzero exactly on edges.

Each class line ends with its bound nu_upm + 1.  Each vertex count ends with
how many classes need each dimension and for how many the bound is attained,
and the worst graph is compared against the proved window
floor(m/2)+1 .. m+1.  The exit status is 1 when any class ends other than
``exact``, so a run whose search runs out of budget fails.

Usage: python3 scripts/min_dim_survey.py [--max-vertices 4] [--field Fp:2] [--budget 50000000]
"""

import argparse
import itertools
import sys
import time
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from commrep.commgraph import Assignment, CommGraph, realizes  # noqa: E402
from commrep.exactla import GF, FieldSpec, elementary_matrix, zeros  # noqa: E402
from commrep.search import min_realization_dim, unique_matching_bound  # noqa: E402
from commrep.witness import sharp_witness  # noqa: E402


def generic_witness(graph: CommGraph, field) -> Assignment:
    """Realize any graph on m vertices in dimension m+1."""
    m = graph.vertex_count
    mats = []
    for v in range(1, m + 1):
        acc = elementary_matrix(m + 1, 1, v + 1, field)
        for u in range(1, v):
            if graph.has_edge(u, v):
                acc = acc + elementary_matrix(m + 1, u + 1, v + 1, field)
        mats.append(acc)
    assignment = Assignment(tuple(mats))
    check = realizes(assignment, graph)
    assert check.ok, f"generic witness failed on {sorted(graph.edges)}"
    return assignment


def best_hint(graph: CommGraph, field) -> Assignment:
    if not graph.edges:
        return Assignment(tuple(zeros(1, 1, field) for _ in range(graph.vertex_count)))
    n, pairs = unique_matching_bound(graph)
    if len(pairs) == len(graph.edges) and 2 * n == graph.vertex_count:
        # the graph is its own unique perfect matching: permute the canonical matching witness onto it
        canonical = sharp_witness(n, 1, field)
        mats = [None] * graph.vertex_count
        for i, (u, v) in enumerate(pairs):
            mats[u - 1] = canonical.matrices[i]
            mats[v - 1] = canonical.matrices[n + i]
        return Assignment(tuple(mats))
    return generic_witness(graph, field)


def isomorphism_classes(m: int):
    """Edge lists of the graphs on 1..m, one per isomorphism class, smallest bitmask first."""
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    position = {pair: i for i, pair in enumerate(pairs)}
    relabellings = [
        [position[tuple(sorted((perm[u - 1], perm[v - 1])))] for u, v in pairs]
        for perm in itertools.permutations(range(1, m + 1))
    ]
    seen = set()
    for bits in range(2 ** len(pairs)):
        if bits not in seen:
            members = [i for i in range(len(pairs)) if bits >> i & 1]
            seen.update(sum(1 << image[i] for i in members) for image in relabellings)
            yield [pairs[i] for i in members]


def survey(max_vertices: int, field, budget: int) -> int:
    """Print the survey; returns the number of classes that did not end ``exact``."""
    total_open = 0
    print(f"graph survey over {field.name()}, one graph per isomorphism class, budget {budget} nodes per graph")
    for m in range(1, max_vertices + 1):
        lows, ups, attained = [], [], 0
        t0 = time.time()
        for edges in isomorphism_classes(m):
            graph = CommGraph.make(m, edges)
            report = min_realization_dim(
                graph, field, r_max=m + 1, budget=budget, hint=best_hint(graph, field)
            )
            lows.append(report.lower)
            ups.append(report.upper)
            attained += report.upper == report.analytic_lower
            tag = (
                f"exact {report.upper}"
                if report.status == "exact"
                else f"{report.status} [{report.lower}, {report.upper}]"
            )
            print(f"  m={m} edges={edges or '[]'}: {tag}  nu_upm+1={report.analytic_lower}")
        worst_low, worst_up = max(lows), max(ups)
        window = f"{m // 2 + 1} .. {m + 1}"
        needs = Counter(low for low, up in zip(lows, ups) if low == up)
        still_open = len(lows) - sum(needs.values())
        total_open += still_open
        print(
            f"m={m}: {len(lows)} classes, "
            + ", ".join(f"{needs[r]} need {r}" for r in sorted(needs))
            + (f", {still_open} open" if still_open else "")
            + f"; nu_upm + 1 attains the dimension for {attained}"
            + f"; worst graph needs {worst_low}"
            + ("" if worst_low == worst_up else f" .. {worst_up}")
            + f"; proved window for the worst graph: {window}"
            + f"  ({time.time() - t0:.1f}s)"
        )
    return total_open


def finite_field(name: str) -> FieldSpec:
    try:
        field = FieldSpec.from_name(name)
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    if field.is_rationals:
        raise argparse.ArgumentTypeError("the survey needs a finite field, e.g. Fp:2")
    return field


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--max-vertices", type=int, default=4)
    ap.add_argument("--field", type=finite_field, default=GF(2))
    ap.add_argument("--budget", type=int, default=5 * 10**7)
    args = ap.parse_args()
    if not 1 <= args.max_vertices <= 6:
        ap.error("--max-vertices must be between 1 and 6: the canonical labelling tries every permutation")
    still_open = survey(args.max_vertices, args.field, args.budget)
    if still_open:
        print(f"{still_open} classes did not end exact", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
