"""Search oracle: brute-force cross-checks and determinism."""

import itertools

import pytest

from commrep.commgraph import Assignment, CommGraph, matching_graph, realizes
from commrep.errors import InvalidHintError
from commrep.exactla import GF, Matrix, commutator
from commrep.search import (
    BUDGET_EXCEEDED,
    FOUND,
    NONE,
    STATUS_BRACKET,
    STATUS_EXACT,
    exists_realization,
    matching_lower_bound,
    min_realization_dim,
    pad_assignment,
    worst_case_nodes,
)
from commrep.witness import sharp_witness


def _brute_force_exists(graph, field, r):
    # oracle: enumerate every assignment tuple outright, no pruning
    p = field.characteristic
    cands = [
        Matrix(field, r, r, c) for c in itertools.product(range(p), repeat=r * r)
    ]
    for combo in itertools.product(cands, repeat=graph.vertex_count):
        if realizes(Assignment(combo), graph).ok:
            return True
    return False


def test_matching_lower_bound_detection():
    assert matching_lower_bound(matching_graph(1)) == 2
    assert matching_lower_bound(matching_graph(3)) == 4
    assert matching_lower_bound(CommGraph.make(3, [(1, 2), (2, 3)])) is None
    assert matching_lower_bound(CommGraph.make(2, [])) is None


def test_single_pair_needs_dimension_two():
    g = matching_graph(1)
    f2 = GF(2)
    assert exists_realization(g, f2, 1).status == NONE
    out = exists_realization(g, f2, 2)
    assert out.status == FOUND
    assert realizes(out.witness, g).ok
    assert not commutator(out.witness.matrices[0], out.witness.matrices[1]).is_zero()


def test_exists_agrees_with_brute_force_oracle():
    f2 = GF(2)
    graphs = [
        matching_graph(1),
        CommGraph.make(2, []),
        CommGraph.make(3, [(1, 2), (2, 3)]),
    ]
    for g in graphs:
        for r in (1, 2):
            got = exists_realization(g, f2, r, budget=10**7)
            assert got.status in (FOUND, NONE)
            assert (got.status == FOUND) == _brute_force_exists(g, f2, r)
            if got.status == FOUND:
                assert realizes(got.witness, g).ok


def test_two_pairs_impossible_in_dimension_two():
    out = exists_realization(matching_graph(2), GF(2), 2, budget=10**7)
    assert out.status == NONE
    assert out.nodes > 0


def test_sweep_stops_at_the_first_witness():
    # both witnesses lie in partition 1; sweeping every partition costs 160 and 411
    path = exists_realization(CommGraph.make(3, [(1, 2), (2, 3)]), GF(2), 2)
    pair = exists_realization(matching_graph(1), GF(3), 2)
    assert (path.status, path.nodes) == (FOUND, 23)
    assert (pair.status, pair.nodes) == (FOUND, 85)


def test_budget_exceeded_reported_distinctly():
    out = exists_realization(matching_graph(2), GF(2), 2, budget=10)
    assert out.status == BUDGET_EXCEEDED
    assert out.witness is None


def test_min_dim_edgeless_graph():
    report = min_realization_dim(CommGraph.make(5, []), GF(2), r_max=3)
    assert report.status == STATUS_EXACT
    assert report.lower == report.upper == 1
    assert all(m.is_zero() for m in report.witness.matrices)


def test_min_dim_matching_one():
    report = min_realization_dim(matching_graph(1), GF(2), r_max=3)
    assert report.status == STATUS_EXACT
    assert report.lower == report.upper == 2
    assert dict(report.excluded)[1] == "exhaustive"
    assert report.analytic_lower == 2


def test_min_dim_matching_two_with_hint():
    hint = sharp_witness(2, 1, GF(2))
    report = min_realization_dim(matching_graph(2), GF(2), r_max=3, hint=hint)
    assert report.status == STATUS_EXACT
    assert report.lower == report.upper == 3
    excluded = dict(report.excluded)
    assert excluded[1] == "exhaustive" and excluded[2] == "exhaustive"
    assert report.analytic_lower == 3
    assert report.witness == hint


def test_path_graph_realizable_in_dimension_two():
    g = CommGraph.make(3, [(1, 2), (2, 3)])
    report = min_realization_dim(g, GF(2), r_max=2)
    assert report.status == STATUS_EXACT
    assert report.lower == report.upper == 2
    assert realizes(report.witness, g).ok
    # vertices 1 and 3 must commute, the matched pairs must not
    w = report.witness.matrices
    assert commutator(w[0], w[2]).is_zero()
    assert not commutator(w[0], w[1]).is_zero()
    assert not commutator(w[1], w[2]).is_zero()


def test_invalid_hint_rejected():
    bad = Assignment(tuple(Matrix(GF(2), 1, 1, (0,)) for _ in range(4)))
    with pytest.raises(InvalidHintError):
        min_realization_dim(matching_graph(2), GF(2), r_max=2, hint=bad)
    wrong_field = sharp_witness(2, 1, GF(3))
    with pytest.raises(InvalidHintError):
        min_realization_dim(matching_graph(2), GF(2), r_max=2, hint=wrong_field)


def test_invertible_only_mode():
    out = exists_realization(matching_graph(1), GF(3), 2, mode="invertible_only")
    assert out.status == FOUND
    from commrep.exactla import is_invertible

    assert all(is_invertible(m) for m in out.witness.matrices)


def test_exhaustive_exclusions_never_contradict_matching_bound():
    for n in (1, 2):
        report = min_realization_dim(
            matching_graph(n), GF(2), r_max=n + 1, hint=sharp_witness(n, 1, GF(2))
        )
        for r, method in report.excluded:
            if method == "exhaustive":
                assert r <= n


def test_monotone_padding_preserves_realization():
    out = exists_realization(matching_graph(1), GF(2), 2)
    padded = pad_assignment(out.witness, 2)
    assert padded.dimension == 4
    assert realizes(padded, matching_graph(1)).ok


def test_determinism_repeat_runs():
    a = min_realization_dim(matching_graph(1), GF(2), r_max=2)
    b = min_realization_dim(matching_graph(1), GF(2), r_max=2)
    assert a == b


def test_worst_case_estimate_bounds_actual_nodes():
    g = matching_graph(2)
    out = exists_realization(g, GF(2), 2, budget=10**8)
    assert out.nodes <= worst_case_nodes(g.vertex_count, 2, 2)


def test_bracket_status_when_rmax_too_small():
    report = min_realization_dim(matching_graph(1), GF(2), r_max=1)
    assert report.status == STATUS_BRACKET
    assert report.lower == 2
    assert report.upper is None
