"""The shared echelon routine against the elimination routines it replaced.

Every test requires equal results from the library and from the reference
implementations in ``reference_elimination``: rank, kernel, inverse and
invertibility over Q and F_p, spinning over F_2 and F_3, and the classes
that the ``invertible_only`` search mode sweeps.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_elimination as ref
from commrep.exactla import GF, QQ, inverse, is_invertible, kernel_basis, matrix_from_rows, rank
from commrep.modsplit import ModuleSpec, minimal_invariant_subspace, spin
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
    assert kernel_basis(a) == ref.kernel_basis(a)
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
    assert minimal_invariant_subspace(spec) == ref.minimal_invariant_subspace(spec)


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
