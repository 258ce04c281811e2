"""Search oracle: brute-force cross-checks, the reference sweep, budgets and determinism."""

import itertools
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from commrep.commgraph import Assignment, CommGraph, matching_graph, realizes
from commrep.errors import GuardError, InvalidHintError
from commrep.exactla import (
    GF,
    Matrix,
    block_diagonal,
    commutator,
    identity,
    is_invertible,
    matrix_from_rows,
    zeros,
)
from commrep.search import (
    BUDGET_EXCEEDED,
    FOUND,
    MODE_ALL,
    MODE_INVERTIBLE,
    NONE,
    STATUS_BRACKET,
    STATUS_EXACT,
    STATUS_EXHAUSTED,
    VERTEX_CAP,
    _classes,
    _Classes,
    class_count,
    exists_realization,
    min_realization_dim,
    unique_matching_bound,
)
from commrep.witness import sharp_witness

import reference_search
from reference_elimination import kernel_basis


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
    # a perfect matching is its own unique perfect matching; the path P3 has one on any of its edges
    assert unique_matching_bound(matching_graph(1)) == (1, ((1, 2),))
    assert unique_matching_bound(matching_graph(3)) == (3, ((1, 4), (2, 5), (3, 6)))
    assert unique_matching_bound(CommGraph.make(3, [(1, 2), (2, 3)])) == (1, ((1, 2),))
    assert unique_matching_bound(CommGraph.make(2, [])) == (0, ())


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
    # vertex 1 tries the scalars first, which commute with every class, so an edge kills them
    path = exists_realization(CommGraph.make(3, [(1, 2), (2, 3)]), GF(2), 2)
    pair = exists_realization(matching_graph(1), GF(3), 2)
    assert (path.status, path.nodes) == (FOUND, 4)
    assert (pair.status, pair.nodes) == (FOUND, 3)


def test_budget_exceeded_reported_distinctly():
    out = exists_realization(matching_graph(2), GF(2), 2, budget=10)
    assert out.status == BUDGET_EXCEEDED
    assert out.witness is None
    assert out.nodes == 10  # the node that would exceed the budget is not explored


K4_K2 = CommGraph.make(6, [(1, 6), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (4, 5)])


def test_one_node_budget_across_all_levels():
    # K4 u K2 over F_2: levels 1 and 2 are analytic (bound 3), level 3 is empty after 34,120 nodes,
    # and level 4 has a witness 41 nodes further on; the swept levels share one budget
    full = min_realization_dim(K4_K2, GF(2), r_max=4)
    assert (full.status, full.lower, full.nodes_explored) == (STATUS_EXACT, 4, 34161)
    assert full.excluded == ((1, "analytic"), (2, "analytic"), (3, "exhaustive"))
    for budget in (0, 1, 34119, 34120, 34121, 34160, 34161, 34162, 10**8):
        report = min_realization_dim(K4_K2, GF(2), r_max=4, budget=budget)
        assert report.nodes_explored == min(budget, 34161)
        assert report.status == (STATUS_EXACT if budget >= 34161 else STATUS_EXHAUSTED)
        assert report.lower == (3 if budget < 34120 else 4)
        assert report.excluded == full.excluded[: 2 if budget < 34120 else 3]


def test_min_dim_edgeless_graph():
    report = min_realization_dim(CommGraph.make(5, []), GF(2), r_max=3)
    assert report.status == STATUS_EXACT
    assert report.lower == report.upper == 1
    assert all(m.is_zero() for m in report.witness.matrices)


def test_min_dim_matching_one():
    report = min_realization_dim(matching_graph(1), GF(2), r_max=3)
    assert report.status == STATUS_EXACT
    assert report.lower == report.upper == 2
    assert dict(report.excluded)[1] == "analytic"
    assert report.analytic_lower == 2
    assert exists_realization(matching_graph(1), GF(2), 1).status == NONE


def test_min_dim_matching_two_with_hint():
    hint = sharp_witness(2, 1, GF(2))
    report = min_realization_dim(matching_graph(2), GF(2), r_max=3, hint=hint)
    assert report.status == STATUS_EXACT
    assert report.lower == report.upper == 3
    excluded = dict(report.excluded)
    assert excluded[1] == "analytic" and excluded[2] == "analytic"
    assert report.analytic_lower == 3
    assert report.witness == hint
    for r in (1, 2):
        assert exists_realization(matching_graph(2), GF(2), r, budget=10**7).status == NONE


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


def test_invertible_only_refuses_a_singular_hint():
    # b_i = I - E_{i+1,i+1} is singular over F_2, and the least invertible realization needs dimension 4
    hint, graph = sharp_witness(2, 1, GF(2)), matching_graph(2)
    with pytest.raises(InvalidHintError, match="^hint matrix 3 is singular; invertible_only needs invertible"):
        min_realization_dim(graph, GF(2), r_max=4, mode=MODE_INVERTIBLE, budget=10**7, hint=hint)
    report = min_realization_dim(graph, GF(2), r_max=4, mode=MODE_INVERTIBLE, budget=10**7)
    assert (report.status, report.upper) == (STATUS_EXACT, 4)
    # the same hint still bounds mode all, and an invertible hint bounds invertible_only
    assert min_realization_dim(graph, GF(2), r_max=4, hint=hint).upper == 3
    report = min_realization_dim(graph, GF(3), r_max=4, mode=MODE_INVERTIBLE, hint=sharp_witness(2, 2, GF(3)))
    assert (report.status, report.upper) == (STATUS_EXACT, 3)


def test_unknown_mode_refused_with_a_one_dimensional_hint():
    # a 1-dimensional hint ends the ascent before any level is swept
    graph, hint = CommGraph.make(2, []), Assignment((identity(1, GF(2)),) * 2)
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        min_realization_dim(graph, GF(2), 3, mode="bogus", hint=hint)
    with pytest.raises(ValueError, match="^unknown mode 'bogus'$"):
        min_realization_dim(graph, GF(2), 3, mode="bogus")
    assert min_realization_dim(graph, GF(2), 3, hint=hint).status == STATUS_EXACT


def test_invertible_only_mode():
    out = exists_realization(matching_graph(1), GF(3), 2, mode="invertible_only")
    assert out.status == FOUND
    from commrep.exactla import is_invertible

    assert all(is_invertible(m) for m in out.witness.matrices)


def test_exhaustive_exclusions_never_contradict_matching_bound():
    # no level below the bound is swept, and every level from it up is
    graphs = [matching_graph(1), matching_graph(2), K4_K2] + [g for m in (1, 2, 3, 4) for g in _labelled_graphs(m)]
    for g in graphs:
        report = min_realization_dim(g, GF(2), r_max=g.vertex_count + 1)
        assert report.status == STATUS_EXACT
        for r, method in report.excluded:
            assert method == ("analytic" if r < report.analytic_lower else "exhaustive"), (sorted(g.edges), r)


def test_monotone_padding_preserves_realization():
    out = exists_realization(matching_graph(1), GF(2), 2)
    pad = zeros(2, 2, GF(2))
    padded = Assignment(tuple(block_diagonal([m, pad]) for m in out.witness.matrices))
    assert padded.dimension == 4
    assert realizes(padded, matching_graph(1)).ok


def test_determinism_repeat_runs():
    a = min_realization_dim(matching_graph(1), GF(2), r_max=2)
    b = min_realization_dim(matching_graph(1), GF(2), r_max=2)
    assert a == b


@pytest.mark.parametrize("mode", [MODE_ALL, MODE_INVERTIBLE])
def test_matching_two_over_f3_is_none_within_100_nodes(mode):
    for r in (1, 2):
        assert exists_realization(matching_graph(2), GF(3), r, mode=mode, budget=100).status == NONE
    report = min_realization_dim(matching_graph(2), GF(3), r_max=3, mode=mode, budget=10**4)
    assert report.status == STATUS_EXACT
    assert report.excluded == ((1, "analytic"), (2, "analytic"))
    assert realizes(report.witness, matching_graph(2)).ok


def test_level_over_the_class_cap_is_refused_at_once():
    assert class_count(4, 3) > 2 * 10**6
    tracemalloc.start()
    try:
        start = time.process_time()
        out = exists_realization(matching_graph(2), GF(3), 4)
        elapsed = time.process_time() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (out.status, out.witness, out.nodes) == (BUDGET_EXCEEDED, None, 0)
    assert elapsed < 0.5 and peak < 10 * 2**20


def test_graph_over_the_vertex_cap_is_refused():
    big = CommGraph.make(VERTEX_CAP + 1, [])
    with pytest.raises(GuardError):
        exists_realization(big, GF(2), 1)
    with pytest.raises(GuardError):
        min_realization_dim(big, GF(2), 1)


def _commutes(a, b, r, p):
    return all(
        sum(a[i * r + k] * b[k * r + j] - b[i * r + k] * a[k * r + j] for k in range(r)) % p == 0
        for i in range(r)
        for j in range(r)
    )


@pytest.mark.parametrize(
    "r, p, count, step",
    [(1, 5, 1, 1), (2, 2, 8, 1), (2, 3, 14, 1), (3, 2, 256, 1), (2, 5, 32, 1), (3, 3, 3281, 41)],
)
def test_commuting_rows_match_brute_force(r, p, count, step):
    # every matrix lies in exactly one class, shifted and scaled from its representative;
    # rows are checked for every step-th representative
    classes = _classes(r, p)
    reps = [classes.entries(i) for i in range(classes.count)]
    assert classes.count == class_count(r, p) == count
    assert reps == sorted(reps)
    members = {
        tuple((u * x + c * (k % (r + 1) == 0)) % p for k, x in enumerate(a))
        for a in reps
        for u in range(1, p)
        for c in range(p)
    }
    assert members == set(itertools.product(range(p), repeat=r * r))
    for i, a in list(enumerate(reps))[::step]:
        row = classes.row(i)
        assert [row >> j & 1 for j in range(classes.count)] == [_commutes(a, b, r, p) for b in reps]


@pytest.mark.parametrize("r, p", [(2, 2), (2, 3), (3, 2)])
def test_commuting_rows_match_the_kernel_basis_path(monkeypatch, r, p):
    # oracle: each centralizer kernel taken through a coerced Matrix and the reference kernel_basis
    def kernel_of_matrix(rows, width, p):
        return kernel_basis(matrix_from_rows(GF(p), rows))

    monkeypatch.setattr("commrep.search._null_space", kernel_of_matrix)
    old = _Classes(r, p)
    oracle = [old.row(i) for i in range(old.count)]
    monkeypatch.undo()
    classes = _Classes(r, p)
    assert [classes.row(i) for i in range(classes.count)] == oracle


@pytest.mark.parametrize("graph", [CommGraph.make(4, [(1, 2), (2, 3), (3, 4)]), matching_graph(2)],
                         ids=["P4", "matching-2"])
@pytest.mark.parametrize("r, p", [(2, 2), (3, 2), (2, 3)])
def test_row_cache_eviction_changes_no_outcome(monkeypatch, graph, r, p):
    # a 16-bit bound keeps at most ceil(16 / count) rows of a class table, so every sweep evicts
    expected = exists_realization(graph, GF(p), r)
    bound, held, evicted = 16, [], []
    row = _Classes.row

    def tracked_row(self, index):
        computed, before = index and index not in self._rows, len(self._rows)
        value = row(self, index)
        held.append((len(self._rows), -(-bound // self.count)))
        evicted.append(computed and len(self._rows) <= before)
        return value

    monkeypatch.setattr("commrep.search._ROW_CACHE_BITS", bound)
    monkeypatch.setattr(_Classes, "row", tracked_row)
    _classes.cache_clear()
    try:
        got = exists_realization(graph, GF(p), r)
    finally:
        _classes.cache_clear()
    assert (got.status, got.nodes, got.witness) == (expected.status, expected.nodes, expected.witness)
    assert all(rows <= cap for rows, cap in held)
    assert any(evicted)


def _labelled_graphs(m):
    pairs = list(itertools.combinations(range(1, m + 1), 2))
    for bits in range(2 ** len(pairs)):
        yield CommGraph.make(m, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


@pytest.mark.parametrize("p, max_vertices", [(2, 4), (3, 3)])
def test_verdicts_match_reference_search(p, max_vertices):
    field = GF(p)
    for m in range(1, max_vertices + 1):
        for g in _labelled_graphs(m):
            for r in (1, 2):
                for mode in (MODE_ALL, MODE_INVERTIBLE):
                    expected = reference_search.exists_realization(g, field, r, mode == MODE_INVERTIBLE)
                    got = exists_realization(g, field, r, mode=mode)
                    assert got.status == (NONE if expected is None else FOUND), (sorted(g.edges), r, mode)
                    if got.status == FOUND:
                        assert realizes(got.witness, g).ok
                        if mode == MODE_INVERTIBLE:
                            assert all(is_invertible(a) for a in got.witness.matrices)


def test_bracket_status_when_rmax_too_small():
    report = min_realization_dim(matching_graph(1), GF(2), r_max=1)
    assert report.status == STATUS_BRACKET
    assert report.lower == 2
    assert report.upper is None


SURVEY = Path(__file__).resolve().parent.parent / "scripts" / "min_dim_survey.py"


@pytest.mark.parametrize("budget, status", [(1, 1), (10**6, 0)])
def test_survey_exit_status_reports_open_classes(budget, status):
    # a one-node budget leaves classes on 3 vertices open; a large one settles them all
    run = subprocess.run(
        [sys.executable, str(SURVEY), "--max-vertices", "3", "--budget", str(budget)],
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == status
    assert ("exhausted_budget" in run.stdout) == bool(status)
