"""The unique-perfect-matching bound nu_upm + 1 against independent oracles.

``unique_matching_bound`` counts the perfect matchings of each vertex subset
by matching its lowest vertex first.  The oracle here instead lists every
matching of the whole graph, edge by edge, and groups them by the vertices
they cover: a matching covering S is a perfect matching of the subgraph
induced on S, so nu_upm is half the largest S covered by exactly one.
"""

import itertools
import random
import time
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

import commrep.search as search
from commrep.commgraph import Assignment, CommGraph, matching_graph, realizes
from commrep.exactla import GF, elementary_matrix
from commrep.search import (
    FOUND,
    NONE,
    VERTEX_CAP,
    exists_realization,
    min_realization_dim,
    unique_matching_bound,
)


def _matchings_by_cover(graph):
    """Counter: frozenset of covered vertices -> number of matchings of the graph covering exactly it."""
    edges = sorted(graph.edges)
    covers = Counter()

    def extend(start, used):
        covers[frozenset(used)] += 1
        for i in range(start, len(edges)):
            u, w = edges[i]
            if u not in used and w not in used:
                extend(i + 1, used | {u, w})

    extend(0, frozenset())
    return covers


def _oracle_nu_upm(graph):
    return max(len(cover) // 2 for cover, count in _matchings_by_cover(graph).items() if count == 1)


def _labelled_graphs(m):
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    for bits in range(2 ** len(pairs)):
        yield CommGraph.make(m, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def _check_against_oracle(graph):
    k, pairs = unique_matching_bound(graph)
    assert k == _oracle_nu_upm(graph), sorted(graph.edges)
    assert len(pairs) == k and list(pairs) == sorted(pairs) and all(u < w for u, w in pairs)
    assert set(pairs) <= graph.edges
    cover = frozenset(v for pair in pairs for v in pair)
    assert len(cover) == 2 * k
    assert _matchings_by_cover(CommGraph.make(graph.vertex_count, [e for e in graph.edges if set(e) <= cover]))[
        cover
    ] == 1


def test_bound_matches_the_oracle_on_every_labelled_graph_up_to_six_vertices():
    for m in range(1, 7):
        for graph in _labelled_graphs(m):
            _check_against_oracle(graph)


def test_bound_matches_the_oracle_on_seeded_random_graphs_up_to_nine_vertices():
    rng = random.Random(20)
    for _ in range(300):
        m = rng.randint(7, 9)
        density = rng.choice((0.2, 0.4, 0.6, 0.8))
        edges = [e for e in itertools.combinations(range(1, m + 1), 2) if rng.random() < density]
        _check_against_oracle(CommGraph.make(m, edges))


def test_no_level_below_the_bound_has_a_realization():
    for p in (2, 3):
        for m in range(1, 5):
            for graph in _labelled_graphs(m):
                bound = unique_matching_bound(graph)[0] + 1
                for r in range(1, bound):
                    assert exists_realization(graph, GF(p), r).status == NONE, (p, sorted(graph.edges), r)


def _generic_witness(graph, field):
    """M_v = E_{1,v+1} + sum over neighbours u < v of E_{u+1,v+1}: [M_u, M_v] is nonzero exactly on edges."""
    m = graph.vertex_count
    mats = []
    for v in range(1, m + 1):
        acc = elementary_matrix(m + 1, 1, v + 1, field)
        for u in range(1, v):
            if graph.has_edge(u, v):
                acc = acc + elementary_matrix(m + 1, u + 1, v + 1, field)
        mats.append(acc)
    return Assignment(tuple(mats))


@st.composite
def _graphs(draw):
    m = draw(st.integers(min_value=1, max_value=7))
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    chosen = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return CommGraph.make(m, [pair for pair, keep in zip(pairs, chosen) if keep])


@settings(max_examples=100, deadline=None)
@given(graph=_graphs(), p=st.sampled_from([2, 3]))
def test_bound_never_exceeds_the_dimension_of_a_witness(graph, p):
    field = GF(p)
    bound = unique_matching_bound(graph)[0] + 1
    generic = _generic_witness(graph, field)
    assert realizes(generic, graph).ok and bound <= generic.dimension
    for r in range(1, 4 if p == 2 else 3):
        out = exists_realization(graph, field, r, budget=2000)
        if out.status == FOUND:
            assert realizes(out.witness, graph).ok
            assert bound <= out.witness.dimension == r
            break
    # a search with a small budget and the generic hint raises no AssertionError below the bound
    report = min_realization_dim(graph, field, r_max=graph.vertex_count + 1, budget=2000, hint=generic)
    assert report.analytic_lower == bound <= report.lower <= report.upper


def test_matching_graphs_keep_their_bound_up_to_the_vertex_cap():
    for n in range(1, VERTEX_CAP // 2 + 1):
        assert unique_matching_bound(matching_graph(n))[0] == n


def test_thousand_vertex_matching_is_bounded_through_the_greedy_path(monkeypatch):
    calls = []
    greedy = search._greedy_unique_matching
    monkeypatch.setattr(search, "_greedy_unique_matching", lambda adjacency: calls.append(1) or greedy(adjacency))
    graph = matching_graph(500)
    start = time.process_time()
    report = min_realization_dim(graph, GF(2), r_max=3)
    elapsed = time.process_time() - start
    assert calls == [1] and elapsed < 1.0
    assert (report.analytic_lower, report.lower, report.upper, report.nodes_explored) == (501, 501, None, 0)
    assert report.excluded == tuple((r, "analytic") for r in range(1, 501))
    assert unique_matching_bound(graph) == (500, tuple(sorted(graph.edges)))


def test_greedy_path_proves_what_it_returns():
    # above the exact cutoff the greedy subgraph need not be the largest, but its matching must be unique
    rng = random.Random(7)
    for _ in range(40):
        m = rng.randint(search._EXACT_BOUND_VERTICES + 1, 16)
        edges = [e for e in itertools.combinations(range(1, m + 1), 2) if rng.random() < rng.choice((0.15, 0.3))]
        graph = CommGraph.make(m, edges)
        k, pairs = unique_matching_bound(graph)
        cover = frozenset(v for pair in pairs for v in pair)
        assert len(cover) == 2 * k and set(pairs) <= graph.edges
        induced = CommGraph.make(m, [e for e in graph.edges if set(e) <= cover])
        assert _matchings_by_cover(induced)[cover] == 1
