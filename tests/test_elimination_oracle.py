"""The shared echelon routine against the elimination routines it replaced.

Every test requires equal results from the library and from the reference
implementations in ``reference_elimination``: rank, kernel, inverse and
invertibility over Q and F_p, spinning over F_2 and F_3, the composition
factors that Norton's test finds against those of the enumeration splitter,
and the classes that the ``invertible_only`` search mode sweeps.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_elimination as ref
from commrep.exactla import GF, QQ, _integer_dense_rows, _null_space, inverse, is_invertible, matrix_from_rows, rank
from commrep.modsplit import ModuleSpec, composition_factor_dims, spin
from commrep.search import _classes

from conftest import big_fractions, small_fractions

PRIME_FIELDS = [GF(2), GF(3), GF(5), GF(7), GF(101)]


@st.composite
def matrices(draw, field, entries=None, max_dim=5, square=False):
    """Matrices over ``field``, rectangular unless ``square``, with repeated rows."""
    if entries is None:
        entries = st.integers(min_value=0, max_value=field.characteristic - 1)
    rows = draw(st.integers(min_value=1, max_value=max_dim))
    cols = rows if square else draw(st.integers(min_value=1, max_value=max_dim))
    distinct = draw(st.lists(st.lists(entries, min_size=cols, max_size=cols), min_size=1, max_size=rows))
    picks = draw(st.lists(st.sampled_from(distinct), min_size=rows, max_size=rows))
    return matrix_from_rows(field, picks)


def _check_against_reference(a):
    assert rank(a) == ref.rank(a)
    assert _null_space(_integer_dense_rows(a), a.cols, a.field.characteristic) == ref.kernel_basis(a)
    assert is_invertible(a) == ref.is_invertible(a)
    if a.is_square:
        expected = ref.inverse_entries(a)
        if expected is None:
            with pytest.raises(ValueError):
                inverse(a)
        else:
            assert inverse(a).entries == expected


@settings(max_examples=80, deadline=None)
@given(matrices(QQ, small_fractions))
def test_elimination_matches_reference_over_q_small_fractions(a):
    _check_against_reference(a)


@settings(max_examples=40, deadline=None)
@given(matrices(QQ, big_fractions, max_dim=4))
def test_elimination_matches_reference_over_q_big_fractions(a):
    _check_against_reference(a)


@settings(max_examples=40, deadline=None)
@given(matrices(QQ, small_fractions, square=True))
def test_inverse_matches_reference_over_q_square(a):
    _check_against_reference(a)


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=lambda f: f.name())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_elimination_matches_reference_over_prime_fields(field, data):
    _check_against_reference(data.draw(matrices(field)))
    _check_against_reference(data.draw(matrices(field, square=True)))


@st.composite
def modules(draw, p):
    """Invertible generators over F_p with p^dim within the spin enumeration cap."""
    dim = draw(st.integers(min_value=1, max_value=4 if p == 2 else 3))
    field = GF(p)
    entries = st.integers(min_value=0, max_value=p - 1)
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        rows = draw(st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=dim, max_size=dim))
        g = matrix_from_rows(field, rows)
        if ref.is_invertible(g):
            gens.append(g)
    if not gens:
        gens.append(matrix_from_rows(field, [[int(i == j) for j in range(dim)] for i in range(dim)]))
    return ModuleSpec(field, dim, tuple(gens))


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_spin_matches_reference(p, data):
    spec = data.draw(modules(p))
    for vec in itertools.product(range(p), repeat=spec.dim):
        if any(vec):
            assert spin(vec, spec) == ref.spin(vec, spec)
    assert sorted(composition_factor_dims(spec).factor_dims) == ref.factor_dims(spec)


MAX_DIM = {2: 6, 3: 4, 5: 2, 7: 2}  # the largest dim with p^dim <= 100


def _companion(low, p):
    """Companion matrix of x^n + low[n-1] x^(n-1) + ... + low[0], as residue rows."""
    n = len(low)
    return [[int(i == j + 1) if j < n - 1 else -low[i] % p for j in range(n)] for i in range(n)]


def _irreducible_lows(n, p):
    """Low coefficients of the monic irreducible polynomials of degree n <= 3 (root test)."""
    lows = itertools.product(range(p), repeat=n)
    if n == 1:
        return [low for low in lows if low[0]]
    return [low for low in lows if all(sum(c * x**i for i, c in enumerate(low + (1,))) % p for x in range(p))]


@st.composite
def _invertible_rows(draw, n, p):
    rows = draw(st.lists(st.lists(st.integers(0, p - 1), min_size=n, max_size=n), min_size=n, max_size=n))
    if ref.is_invertible(matrix_from_rows(GF(p), rows)):
        return rows
    return [[int(i == j) for j in range(n)] for i in range(n)]


@st.composite
def planted_modules(draw, p):
    """Block-upper-triangular modules over F_p with p^dim <= 100.

    Each diagonal block is a field block (powers of one companion matrix of an
    irreducible polynomial, so F_4, F_8, F_9, ... blocks), a companion matrix
    on one generator beside random invertible blocks, identities, or a repeat
    of an earlier block.  Each block row is random or zero right of its
    diagonal block, so both direct sums and non-split extensions occur.
    """
    field = GF(p)
    count = draw(st.integers(1, 3))
    blocks, dim = [], 0
    while dim < MAX_DIM[p] and (not blocks or draw(st.booleans())):
        size = draw(st.integers(1, min(3, MAX_DIM[p] - dim)))
        repeats = [b for b in blocks if len(b[0]) == size]
        kind = draw(st.sampled_from(["field", "companion", "identity"] + ["repeat"] * bool(repeats)))
        if kind == "repeat":
            block = draw(st.sampled_from(repeats))
        elif kind == "identity":
            block = [[[int(i == j) for j in range(size)] for i in range(size)]] * count
        else:
            c = matrix_from_rows(field, _companion(draw(st.sampled_from(_irreducible_lows(size, p))), p))
            if kind == "field":
                powers = [c, c @ c, c @ c @ c]
                block = [draw(st.sampled_from(powers)).rows_list() for _ in range(count)]
            else:
                block = [draw(_invertible_rows(size, p)) for _ in range(count)]
                block[draw(st.integers(0, count - 1))] = c.rows_list()
        blocks.append(block)
        dim += size
    coupled = [draw(st.booleans()) for _ in blocks]
    gens = []
    for g in range(count):
        rows = [[0] * dim for _ in range(dim)]
        start = 0
        for block, couple in zip(blocks, coupled):
            size = len(block[g])
            for i in range(size):
                rows[start + i][start : start + size] = block[g][i]
                if couple:
                    rows[start + i][start + size :] = draw(
                        st.lists(st.integers(0, p - 1), min_size=dim - start - size, max_size=dim - start - size)
                    )
            start += size
        gens.append(matrix_from_rows(field, rows))
    return ModuleSpec(field, dim, tuple(gens))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_splitter_matches_enumeration(p, data):
    planted = data.draw(planted_modules(p))
    field = planted.field
    # the planted basis and up to three random ones: in most bases the kernel
    # vectors of a theta mix the summands of a direct sum
    changes = data.draw(st.lists(_invertible_rows(planted.dim, p), max_size=3))
    for rows in changes:
        change = matrix_from_rows(field, rows)
        _check_splitter(ModuleSpec(field, planted.dim, tuple(inverse(change) @ g @ change for g in planted.generators)))
    _check_splitter(planted)


def _check_splitter(spec):
    field = spec.field
    report = composition_factor_dims(spec)
    assert sorted(report.factor_dims) == ref.factor_dims(spec)
    # the flag: its columns are independent and every series prefix is invariant
    columns = [list(col) for col in zip(*report.flag_basis.rows_list())]
    assert ref.rank(matrix_from_rows(field, columns)) == spec.dim
    for end in report.series[1:-1]:
        images = [list(ref.matvec(g, col)) for g in spec.generators for col in columns[:end]]
        assert ref.rank(matrix_from_rows(field, columns[:end] + images)) == end
    # every factor is irreducible by enumeration
    flag_inv = inverse(report.flag_basis)
    conjugated = [(flag_inv @ g @ report.flag_basis).rows_list() for g in spec.generators]
    for lo, hi in zip(report.series, report.series[1:]):
        block = tuple(matrix_from_rows(field, [row[lo:hi] for row in c[lo:hi]]) for c in conjugated)
        assert ref.minimal_invariant_subspace(ModuleSpec(field, hi - lo, block)) is None


@pytest.mark.parametrize("r, p", [(1, 2), (1, 5), (2, 2), (2, 3), (2, 5), (3, 2)])
def test_invertible_candidates_match_reference(r, p):
    # a class is kept exactly when one of its members uA + cI is invertible, and its
    # reported member is the first invertible A + cI in c order
    classes = _classes(r, p)
    invertible = set(ref.invertible_candidates(r, p))
    for i in range(classes.count):
        a = classes.entries(i)
        shifts = [tuple((x + c * (k % (r + 1) == 0)) % p for k, x in enumerate(a)) for c in range(p)]
        members = {tuple(u * x % p for x in b) for b in shifts for u in range(1, p)}
        assert bool(classes.invertible >> i & 1) == bool(members & invertible)
        assert classes.invertible_member(i) == next((b for b in shifts if b in invertible), None)
