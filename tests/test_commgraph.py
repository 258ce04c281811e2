"""Graph realization predicate: examples, oracle cross-check, invariances."""

import bisect
import random
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import commrep.commgraph as commgraph
from commrep.commgraph import (
    Assignment,
    _canonical_slots,
    _commutator_slots,
    _pairwise,
    _shifted_rows,
    _stacked,
    CommGraph,
    assignment_from_json,
    assignment_to_json,
    graph_from_json,
    graph_to_json,
    matching_graph,
    noncommuting_pairs,
    realizes,
)
from commrep.errors import InvalidArgumentError
from commrep.exactla import (
    GF,
    QQ,
    commutator,
    elementary_matrix,
    identity,
    inverse,
    is_invertible,
    matrix_from_rows,
    zeros,
)
from commrep.witness import sharp_witness

from conftest import small_fractions, square_matrix_of


def test_graph_validation():
    g = CommGraph.make(3, [(2, 1), (2, 3)])
    assert g.has_edge(1, 2) and g.has_edge(3, 2) and not g.has_edge(1, 3)
    with pytest.raises(ValueError):
        CommGraph.make(3, [(1, 1)])
    with pytest.raises(ValueError):
        CommGraph.make(3, [(1, 4)])
    with pytest.raises(ValueError, match="vertex count must be positive"):
        matching_graph(0)


def test_matching_graph_examples():
    g1 = matching_graph(1)
    assert g1.vertex_count == 2 and sorted(g1.edges) == [(1, 2)]
    g2 = matching_graph(2)
    assert g2.vertex_count == 4 and sorted(g2.edges) == [(1, 3), (2, 4)]
    g3 = matching_graph(3)
    assert len(g3.edges) == 3
    # every vertex lies on exactly one edge
    assert sorted(v for e in g3.edges for v in e) == list(range(1, 7))


def test_realizes_single_edge_over_f2():
    a = Assignment((elementary_matrix(2, 1, 2, GF(2)), elementary_matrix(2, 2, 1, GF(2))))
    assert realizes(a, matching_graph(1)).ok


def test_all_identity_assignment_violates_every_edge():
    g = CommGraph.make(3, [(1, 2), (2, 3)])
    a = Assignment(tuple(identity(2, QQ) for _ in range(3)))
    check = realizes(a, g)
    assert not check.ok
    assert {(v.u, v.v) for v in check.violations} == {(1, 2), (2, 3)}
    assert all(v.edge and v.commutes for v in check.violations)


def test_edgeless_graph_realized_by_zero_matrices():
    g = CommGraph.make(5, [])
    a = Assignment(tuple(zeros(1, 1, GF(2)) for _ in range(5)))
    assert realizes(a, g).ok


def test_length_mismatch_errors():
    a = Assignment((identity(2, QQ),))
    with pytest.raises(ValueError):
        realizes(a, matching_graph(1))
    # the CLI's typed refusal comes from realizes itself
    with pytest.raises(InvalidArgumentError, match="^assignment has 1 matrices for 2 vertices$"):
        realizes(a, matching_graph(1))


def _assert_mask_matches_commutators(mats):
    """The pairwise path, the stacked pass and the dispatch between them agree with exact commutators."""
    r, p = mats[0].rows, mats[0].field.characteristic
    expected = [sum(1 << j for j, b in enumerate(mats) if not commutator(a, b).is_zero()) for a in mats]
    assert _pairwise(mats, r, p, *_commutator_slots(mats, r, p)) == expected
    assert _stacked(mats, r, p) == expected
    assert noncommuting_pairs(mats) == expected


@st.composite
def scalar_plus_sparse(draw, field, n, entries):
    """c I plus up to n drawn entries, c != 0; diagonal values may tie in count."""
    m = identity(n, field).scale(draw(entries.filter(bool)))
    for _ in range(draw(st.integers(min_value=0, max_value=n))):
        i, j = draw(st.integers(1, n)), draw(st.integers(1, n))
        m = m + elementary_matrix(n, i, j, field).scale(draw(entries))
    return m


@settings(max_examples=100)
@given(st.data())
def test_mask_matches_per_pair_commutators(data):
    # oracle: both comparison paths must agree with exact pairwise commutators
    field = data.draw(st.sampled_from([QQ, GF(2), GF(5), GF(2**61 - 1)]))
    n = data.draw(st.integers(min_value=1, max_value=3))
    count = data.draw(st.integers(min_value=1, max_value=5))
    if field.is_rationals:
        # 2**k up to 2**64 gives slot widths from a few bits to well over 64
        k = data.draw(st.sampled_from(range(0, 65, 4)))
        entries = small_fractions.map(lambda x: x * 2**k)
    else:
        entries = st.integers(min_value=0, max_value=field.characteristic - 1)
    shapes = st.sampled_from([square_matrix_of, scalar_plus_sparse])
    mats = [data.draw(data.draw(shapes)(field, n, entries)) for _ in range(count)]
    _assert_mask_matches_commutators(mats)


def test_mask_bigint_path_matches():
    big = 2**40
    a = matrix_from_rows(QQ, [[big, 1], [0, big]])
    b = matrix_from_rows(QQ, [[big, 0], [1, big]])
    c = identity(2, QQ).scale(big)
    mask = noncommuting_pairs([a, b, c])
    assert bool(mask[0] >> 1 & 1) is True
    assert bool(mask[0] >> 2 & 1) is False
    assert bool(mask[1] >> 2 & 1) is False


@pytest.mark.parametrize("p", [None, 2, 3, 5, 7, 13, 31, 61, 127, 251])
def test_canonical_slots_on_every_slot_value(p):
    # every entry a slot may hold, for widths 2..13, three slots to a byte-aligned block:
    # over Q signed entries below 2^(width-1) in absolute value gain 2^(width-1),
    # over F_p entries in [0, 2^(width-1)) become their residues
    r = 3
    for width in range(2, 14):
        half = 1 << width - 1
        values = list(range(-half + 1, half)) if p is None else list(range(half))
        expected = [v + half for v in values] if p is None else [v % p for v in values]
        blocks = -(-len(values) // r)
        span = -(-r * width // 8) * 8
        at = [t // r * span + t % r * width for t in range(len(values))]
        packed = sum(v << shift for v, shift in zip(values, at))
        got = _canonical_slots(width, r, blocks, p)(packed)
        assert got.bit_length() <= blocks * span
        assert [got >> shift & (1 << width) - 1 for shift in at] == expected, width


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=4),
    p=st.sampled_from([5, 13, 197, 2**31 - 1, 2**61 - 1]),
    seed=st.integers(min_value=0, max_value=2**32),
)
def test_mask_on_conjugated_witness_over_fp(n, p, seed):
    # P^-1 A P keeps every commutation mod p, but the lifted residues of most
    # commuting pairs do not commute over Z, so every slot must be reduced mod p
    rng = random.Random(seed)
    while True:
        conj = matrix_from_rows(GF(p), [[rng.randrange(p) for _ in range(n + 1)] for _ in range(n + 1)])
        if is_invertible(conj):
            break
    back = inverse(conj)
    mats = [back @ m @ conj for m in sharp_witness(n, rng.randrange(1, p), GF(p)).matrices]
    lifted = [matrix_from_rows(QQ, m.rows_list()) for m in mats]
    commuting = [(i, j) for i in range(len(mats)) for j in range(i) if commutator(mats[i], mats[j]).is_zero()]
    assume(any(not commutator(lifted[i], lifted[j]).is_zero() for i, j in commuting))
    _assert_mask_matches_commutators(mats)
    assert realizes(Assignment(tuple(mats)), matching_graph(n)).ok


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_mask_on_dense_fp(data):
    # dense residues up to 2^61 - 1, with polynomials in the first matrix so that some pairs commute
    p = data.draw(st.sampled_from([2, 3, 7, 251, 65521, 2**31 - 1, 2**61 - 1]))
    field = GF(p)
    r = data.draw(st.integers(min_value=1, max_value=6))
    residues = st.integers(min_value=0, max_value=p - 1)
    mats = [data.draw(square_matrix_of(field, r, residues)) for _ in range(data.draw(st.integers(1, 4)))]
    a = mats[0]
    for _ in range(data.draw(st.integers(0, 2))):
        c, d = data.draw(residues), data.draw(residues)
        mats.append(a @ a + a.scale(c) + identity(r, field).scale(d))
    _assert_mask_matches_commutators(mats)


def _tight_factors(k, delta):
    """(M, N) with M * N = 2^k + delta and M <= N <= 4M, or None when no such form is known."""
    if delta == 0:
        return 2 ** (k // 2), 2 ** (k - k // 2)
    if delta == -1 and k % 2 == 0 and k >= 2:
        return 2 ** (k // 2) - 1, 2 ** (k // 2) + 1
    if delta == 1 and k % 4 == 2 and k > 2:
        # Aurifeuille: 2^(4j+2) + 1 = (2^(2j+1) - 2^(j+1) + 1)(2^(2j+1) + 2^(j+1) + 1)
        j = (k - 2) // 4
        return 2 ** (2 * j + 1) - 2 ** (j + 1) + 1, 2 ** (2 * j + 1) + 2 ** (j + 1) + 1
    return None


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_mask_at_slot_width_boundary_over_q(delta):
    # Z has column 5 equal to M in rows 1..4 and a row 0 of 1-norm N with
    # entries at most M in columns 1..4, so (Z^2)[0][5] = N M is exactly the
    # bound the slot width is taken from, here 2^k - 1, 2^k or 2^k + 1, and it
    # sits in the last slot of a block; Z and -Z commute.  All entries are
    # divided by 7, which clearing the denominators undoes.
    r = 6
    tried = 0
    for k in range(1, 131):
        factors = _tight_factors(k, delta)
        if factors is None:
            continue
        big, norm = factors
        parts = [big] * (norm // big) + ([norm % big] if norm % big else [])
        x_rows = [[Fraction(big, 7) if j == 5 and 1 <= i <= 4 else 0 for j in range(r)] for i in range(r)]
        y_rows = [[Fraction(parts[j - 1], 7) if i == 0 and 1 <= j <= len(parts) else 0 for j in range(r)]
                  for i in range(r)]
        x, y = matrix_from_rows(QQ, x_rows), matrix_from_rows(QQ, y_rows)
        z = x + y
        assert max(abs(e) for e in (z @ z).entries) * 49 == 2**k + delta
        _assert_mask_matches_commutators([x, z, -z, y, z, -x])
        tried += 1
    assert tried >= 30


@pytest.mark.parametrize("delta", [-1, 0, 1])
def test_pairwise_at_slot_width_boundary_over_q(delta):
    # A and B share a row 0 of 1-norm N with entries at most M in columns 1..4,
    # and column 5 of rows 1..4 is -M in A and M in B, so
    # [A, B][0][5] = N M + N M.  N M is the bound the pairwise slot width is
    # taken from, here 2^k - 1, 2^k or 2^k + 1, and [A, B][0][5] sits in the
    # last slot of the first block.  All entries are divided by 7.
    r = 6
    tried = 0
    for k in range(1, 131):
        factors = _tight_factors(k, delta)
        if factors is None:
            continue
        big, norm = factors
        parts = [big] * (norm // big) + ([norm % big] if norm % big else [])
        a_rows, b_rows = [[0] * r for _ in range(r)], [[0] * r for _ in range(r)]
        for j, x in enumerate(parts, 1):
            a_rows[0][j] = b_rows[0][j] = Fraction(x, 7)
        for i in range(1, 5):
            a_rows[i][5], b_rows[i][5] = Fraction(-big, 7), Fraction(big, 7)
        a, b = matrix_from_rows(QQ, a_rows), matrix_from_rows(QQ, b_rows)
        if a.den != 7 or b.den != 7:
            continue  # 7 divides every entry: the stored integers are smaller than the bound
        stored = [[abs(x) for _, x in row] for m in (a, b) for row in m.nonzero_rows]
        assert max(map(max, filter(None, stored))) * max(map(sum, stored)) == 2**k + delta
        assert commutator(a, b).rows_list()[0][5] == Fraction(2 * (2**k + delta), 49)
        _assert_mask_matches_commutators([a, b, -a, -b])
        tried += 1
    assert tried >= 30


def test_pairwise_slot_width_leaves_no_bit_spare_over_q():
    # A = (2^j E_01 + E_02 - 2^j E_15) / 7 and B = (2^j E_01 + E_02 + 2^j E_15 - E_26) / 7
    # (j >= 1) have row 1-norms at most N = 2^j + 1 and entries at most L = 2^j, so the
    # slot width is bitlen(N L) + 1 = 2j + 2.  49 [A, B] = 2^(2j+1) E_05 - E_06:
    # in slots one bit narrower, 2^(2j+1) in slot 5 and -1 in slot 6 would cancel.
    r = 7
    for j in range(1, 65):
        a_rows, b_rows = [[0] * r for _ in range(r)], [[0] * r for _ in range(r)]
        a_rows[0][1] = b_rows[0][1] = Fraction(2**j, 7)
        a_rows[0][2] = b_rows[0][2] = Fraction(1, 7)
        a_rows[1][5], b_rows[1][5], b_rows[2][6] = Fraction(-(2**j), 7), Fraction(2**j, 7), Fraction(-1, 7)
        a, b = matrix_from_rows(QQ, a_rows), matrix_from_rows(QQ, b_rows)
        assert commutator(a, b).scale(49).rows_list()[0] == [0, 0, 0, 0, 0, 2 ** (2 * j + 1), -1]
        assert _commutator_slots([a, b], r, None) == (2 * j + 2, 0)
        _assert_mask_matches_commutators([a, b, -a, -b])


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_pairwise_at_slot_width_boundary_over_fp(data):
    # Row 0 of A and column r - 1 of A are residues p - 1, but for A[r-1][r-1] = y,
    # and B = A + (p - 1 - y) I, so (AB)[0][r-1] = r (p - 1)^2, the bound the
    # pairwise slot width is taken from, while A and B commute mod p.  C has
    # only a column r - 1 of p - 1, so AC reaches the bound too.
    p = 2**61 - 1
    field = GF(p)
    r = data.draw(st.integers(min_value=2, max_value=6))
    residues = st.sampled_from([0, 1, p - 2, p - 1]) | st.integers(min_value=0, max_value=p - 1)
    rows = [[p - 1] * r] + [[data.draw(residues) for _ in range(r - 1)] + [p - 1] for _ in range(r - 1)]
    y = rows[r - 1][r - 1] = data.draw(residues)
    a = matrix_from_rows(field, rows)
    b = a + identity(r, field).scale(p - 1 - y)
    c = matrix_from_rows(field, [[p - 1 if j == r - 1 else 0 for j in range(r)] for _ in range(r)])
    lifted = [matrix_from_rows(QQ, m.rows_list()) for m in (a, b, c)]
    assert (lifted[0] @ lifted[1]).rows_list()[0][r - 1] == r * (p - 1) ** 2
    assert (lifted[0] @ lifted[2]).rows_list()[0][r - 1] == r * (p - 1) ** 2
    _assert_mask_matches_commutators([a, b, c, b.transpose(), a @ c])


def test_dispatch_by_size(monkeypatch):
    taken = []
    for name in ("_pairwise", "_stacked"):
        path = getattr(commgraph, name)
        monkeypatch.setattr(commgraph, name, lambda *args, path=path, name=name: taken.append(name) or path(*args))
    rng = random.Random(5)
    f2, big = GF(2), GF(2**61 - 1)
    cases = [
        ([matrix_from_rows(f2, [[rng.randrange(2) for _ in range(5)] for _ in range(5)]) for _ in range(4)],
         "_pairwise"),  # a 4-vertex hint over F_2: m * m * r = 80
        (list(sharp_witness(3, 2, QQ).matrices), "_pairwise"),  # m * m * r = 144
        (list(sharp_witness(4, 2, QQ).matrices), "_stacked"),  # m * m * r = 320
        ([matrix_from_rows(big, [[rng.randrange(2**61 - 1) for _ in range(8)] for _ in range(8)]) for _ in range(2)],
         "_stacked"),  # m * m * r = 128, but 8 * 8 * width is over 2048 bits
    ]
    for mats, path in cases:
        taken.clear()
        _assert_mask_matches_commutators(mats)
        assert taken == [path]
    assert _canonical_slots(5, 5, 5, 2) is _canonical_slots(5, 5, 5, 2)


def _reference_shifted_rows(a):
    """The scalar shift with a full count of the diagonal: c is its first most common entry."""
    p = a.field.characteristic
    diagonal = []
    for i, row in enumerate(a.nonzero_rows):
        k = bisect.bisect_left(row, (i,))
        diagonal.append(row[k][1] if k < len(row) and row[k][0] == i else 0)
    c = Counter(diagonal).most_common(1)[0][0]
    shifted = {}
    for i, (row, x) in enumerate(zip(a.nonzero_rows, diagonal)):
        if x != c:
            row = shifted[i] = dict(row)
            row[i] = x - c if p is None else (x - c) % p
        elif not c:
            if row:
                shifted[i] = dict(row)
        elif len(row) > 1:
            row = shifted[i] = dict(row)
            del row[i]
    return shifted


@pytest.mark.parametrize("field", [QQ, GF(5)])
@pytest.mark.parametrize(
    "rows",
    [
        # the majority holds: c I plus entries in row 0
        [[3, 1, 4, 0], [0, 3, 0, 0], [0, 0, 3, 0], [0, 0, 0, 3]],
        # the last row's diagonal entry 2 is not the mode 1
        [[1, 0, 0, 0], [0, 1, 0, 0], [1, 0, 1, 0], [0, 0, 0, 2]],
        # the mode is 0, held by a majority of zero rows
        [[0, 1, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0], [2, 0, 0, 0, 0]],
        # the mode is 0, but only half of the rows are zero
        [[0, 1, 0, 0], [0, 0, 0, 0], [0, 0, 4, 0], [0, 0, 0, 0]],
        # 2 and 3 tie on the diagonal, 2 first
        [[2, 0, 0, 0], [0, 3, 0, 0], [0, 0, 2, 1], [0, 0, 0, 3]],
        # c I exactly
        [[4, 0, 0, 0], [0, 4, 0, 0], [0, 0, 4, 0], [0, 0, 0, 4]],
        # no majority: the mode 1 holds 4 of 5 diagonal entries, but only 2 rows equal e_i
        [[1, 2, 0, 0, 0], [0, 1, 0, 0, 0], [0, 0, 1, 0, 0], [0, 0, 3, 4, 0], [0, 0, 0, 1, 1]],
        # no diagonal entry at all
        [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    ],
)
def test_shift_majority_check(rows, field):
    a = matrix_from_rows(field, [[field.scalar(x) for x in row] for row in rows]).scale(field.scalar(Fraction(3, 2)))
    assert _shifted_rows(a) == _reference_shifted_rows(a)
    r = a.rows
    _assert_mask_matches_commutators([a, a.transpose(), a @ a, elementary_matrix(r, 1, r, field), identity(r, field)])


@settings(max_examples=200)
@given(st.data())
def test_shift_matches_full_count(data):
    field = data.draw(st.sampled_from([QQ, GF(3), GF(7)]))
    n = data.draw(st.integers(min_value=1, max_value=6))
    values = data.draw(st.lists(st.integers(min_value=0, max_value=2), min_size=n, max_size=n))
    entries = st.integers(min_value=0, max_value=2).map(field.scalar)
    off = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1), entries), max_size=n))
    rows = [[field.scalar(values[i]) if i == j else field.zero() for j in range(n)] for i in range(n)]
    for i, j, x in off:
        rows[i][j] = x
    a = matrix_from_rows(field, rows)
    assert _shifted_rows(a) == _reference_shifted_rows(a)


@settings(max_examples=60)
@given(st.data())
def test_violations_match_per_pair_loop(data):
    # oracle: every pair u < v in row-major order, from exact commutators and has_edge
    # up to 12 matrices of dimension up to 3, so that realizes takes either path
    field = data.draw(st.sampled_from([QQ, GF(3)]))
    count = data.draw(st.integers(min_value=1, max_value=12))
    n = data.draw(st.integers(min_value=1, max_value=3))
    mats = tuple(data.draw(square_matrix_of(field, n)) for _ in range(count))
    pairs = [(u, v) for u in range(1, count + 1) for v in range(u + 1, count + 1)]
    g = CommGraph.make(count, data.draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set())))
    expected = []
    for u, v in pairs:
        commutes = commutator(mats[u - 1], mats[v - 1]).is_zero()
        if g.has_edge(u, v) == commutes:
            expected.append((u, v, g.has_edge(u, v), commutes))
    got = realizes(Assignment(mats), g).violations
    assert [(s.u, s.v, s.edge, s.commutes) for s in got] == expected
    # the adjacency realizes reads: bit v - 1 of entry u - 1 for each edge uv, and no other bit
    assert g.neighbours() == [
        sum(1 << (v - 1) for v in range(1, count + 1) if g.has_edge(u, v)) for u in range(1, count + 1)
    ]
    assert all(type(x) is int for s in got for x in (s.u, s.v))
    assert all(type(x) is bool for s in got for x in (s.edge, s.commutes))


def test_realizes_n200_witness_in_bounded_memory():
    n = 200
    witness, graph = sharp_witness(n, 2, QQ), matching_graph(n)
    tracemalloc.start()
    try:
        check = realizes(witness, graph)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert check.ok
    assert peak < 300 * 2**20


@settings(max_examples=30)
@given(st.data())
def test_relabeling_invariance(data):
    field = data.draw(st.sampled_from([QQ, GF(3)]))
    count = data.draw(st.integers(min_value=2, max_value=4))
    n = data.draw(st.integers(min_value=1, max_value=3))
    mats = tuple(data.draw(square_matrix_of(field, n)) for _ in range(count))
    edges = data.draw(
        st.sets(
            st.tuples(
                st.integers(min_value=1, max_value=count),
                st.integers(min_value=1, max_value=count),
            ).filter(lambda e: e[0] < e[1]),
            max_size=count * (count - 1) // 2,
        )
    )
    g = CommGraph.make(count, edges)
    perm = data.draw(st.permutations(list(range(1, count + 1))))
    # relabel vertex u -> perm[u-1], carrying the matrices along
    relabeled_edges = [(perm[u - 1], perm[v - 1]) for u, v in edges]
    g2 = CommGraph.make(count, relabeled_edges)
    mats2 = [None] * count
    for u in range(1, count + 1):
        mats2[perm[u - 1] - 1] = mats[u - 1]
    assert realizes(Assignment(mats), g).ok == realizes(Assignment(tuple(mats2)), g2).ok


def test_conjugation_invariance_over_prime_field():
    rng = random.Random(7)
    field = GF(5)
    mats = (
        elementary_matrix(3, 1, 2, field),
        elementary_matrix(3, 2, 1, field),
        identity(3, field),
    )
    g = CommGraph.make(3, [(1, 2)])
    base = realizes(Assignment(mats), g)
    assert base.ok
    for _ in range(10):
        while True:
            cand = matrix_from_rows(
                field, [[rng.randrange(5) for _ in range(3)] for _ in range(3)]
            )
            if is_invertible(cand):
                break
        conj = tuple(inverse(cand) @ m @ cand for m in mats)
        assert realizes(Assignment(conj), g).ok


def test_graph_json_round_trip():
    g = CommGraph.make(4, [(2, 1), (3, 4)])
    doc = graph_to_json(g)
    assert doc == {"vertices": 4, "edges": [[1, 2], [3, 4]]}
    assert graph_from_json(doc) == g


def test_assignment_json_round_trip():
    a = Assignment((identity(2, QQ), matrix_from_rows(QQ, [[Fraction(1, 2), 0], [0, 1]])))
    doc = assignment_to_json(a)
    assert assignment_from_json(doc) == a


def test_bad_graph_json():
    from commrep.errors import SchemaError

    with pytest.raises(SchemaError):
        graph_from_json({"vertices": 2, "edges": [[1, 1]]})
    with pytest.raises(SchemaError):
        graph_from_json({"vertices": "two", "edges": []})
