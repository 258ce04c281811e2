"""Every Matrix operation against a dense pure-Python reference.

The reference keeps a matrix as a list of rows of canonical scalars and
computes each operation from its definition, entry by entry.  Inputs cover
Q with small and big fractions and GF(2), GF(5), GF(101), in rectangular
shapes with many zero entries.  Each result must match the reference in its
stored nonzero rows, integers over one denominator in lowest terms, in every
dense view, and in equality and hashing with the matrix the public
constructor builds from the reference's entries.

``exactla._products`` sums a product's terms in a dict per row, or on rows
packed into ints when the terms are many per output entry.  The tests of
products and commutators force each path in turn; fixed dense cases reach
the packed path unforced.  Both count which path ran.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commrep.exactla import (
    GF,
    QQ,
    Matrix,
    block_diagonal,
    commutator,
    elementary_matrix,
    identity,
    zeros,
)
from commrep.witness import sharp_witness

from conftest import big_fractions, kernel_path, small_fractions


def _residues(p):
    return st.integers(min_value=0, max_value=p - 1)


FIELDS = [
    (QQ, small_fractions),
    (QQ, big_fractions),
    (GF(2), _residues(2)),
    (GF(5), _residues(5)),
    (GF(101), _residues(101)),
]

dims = st.integers(min_value=1, max_value=4)


def _canon(field, x):
    return Fraction(x) if field.is_rationals else x % field.characteristic


@st.composite
def field_case(draw):
    field, values = draw(st.sampled_from(FIELDS))
    # half the entries zero on average, so rows of every density occur
    return field, st.one_of(st.just(0), values).map(lambda x: _canon(field, x))


def dense(draw, values, rows, cols):
    return [[draw(values) for _ in range(cols)] for _ in range(rows)]


def build(field, rows):
    return Matrix(field, len(rows), len(rows[0]), tuple(x for row in rows for x in row))


def assert_matches(m, field, rows):
    """``m`` holds exactly the dense reference ``rows``, in every view, as integers over one denominator."""
    r, c = len(rows), len(rows[0])
    assert (m.field, m.rows, m.cols) == (field, r, c)
    values = [x for row in m.nonzero_rows for _, x in row]
    assert type(m.den) is int and m.den >= 1
    assert all(type(x) is int for x in values)
    if field.is_rationals:
        assert math.gcd(m.den, *values) == 1
    else:
        assert m.den == 1
    assert tuple(tuple((j, Fraction(x, m.den)) for j, x in row) for row in m.nonzero_rows) == tuple(
        tuple((j, x) for j, x in enumerate(row) if x) for row in rows
    )
    flat = tuple(x for row in rows for x in row)
    scalar = Fraction if field.is_rationals else int
    assert all(type(x) is scalar for x in m.entries)
    assert m.entries == flat
    assert m.rows_list() == rows
    other = build(field, rows)
    assert m == other and hash(m) == hash(other)
    assert m.is_zero() == (not any(flat))


# -- the dense reference ------------------------------------------------------


def ref_combine(field, a, b, sign):
    return [[_canon(field, x + sign * y) for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def ref_scale(field, a, c):
    return [[_canon(field, x * c) for x in row] for row in a]


def ref_matmul(field, a, b):
    return [
        [_canon(field, sum(a[i][k] * b[k][j] for k in range(len(b)))) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def ref_transpose(a):
    return [list(col) for col in zip(*a)]


def ref_block_diagonal(field, blocks):
    size = sum(len(b) for b in blocks)
    out = [[_canon(field, 0)] * size for _ in range(size)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            out[off + i][off : off + len(row)] = row
        off += len(b)
    return out


def on_each_path(check):
    """``check()`` with every product forced onto each path of ``exactla._products`` in turn."""
    for path in ("dict", "packed"):
        with kernel_path(path) as calls:
            result = check()
        assert set(calls) == {path}
    return result


# -- tests --------------------------------------------------------------------


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_constructor_and_views(data):
    field, values = data.draw(field_case())
    rows = dense(data.draw, values, data.draw(dims), data.draw(dims))
    assert_matches(build(field, rows), field, rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_sum_difference_negation_scaling(data):
    field, values = data.draw(field_case())
    r, c = data.draw(dims), data.draw(dims)
    a_rows, b_rows = dense(data.draw, values, r, c), dense(data.draw, values, r, c)
    scalar = data.draw(values)
    a, b = build(field, a_rows), build(field, b_rows)
    assert_matches(a + b, field, ref_combine(field, a_rows, b_rows, 1))
    assert_matches(a - b, field, ref_combine(field, a_rows, b_rows, -1))
    assert_matches(-a, field, ref_scale(field, a_rows, -1))
    assert_matches(a.scale(scalar), field, ref_scale(field, a_rows, scalar))
    assert_matches(a - a, field, ref_scale(field, a_rows, 0))
    assert_matches(a + b - b, field, a_rows)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_product_and_transpose(data):
    field, values = data.draw(field_case())
    r, k, c = data.draw(dims), data.draw(dims), data.draw(dims)
    a_rows, b_rows = dense(data.draw, values, r, k), dense(data.draw, values, k, c)
    a, b = build(field, a_rows), build(field, b_rows)
    on_each_path(lambda: assert_matches(a @ b, field, ref_matmul(field, a_rows, b_rows)))
    assert_matches(a.transpose(), field, ref_transpose(a_rows))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_block_diagonal_and_commutator(data):
    field, values = data.draw(field_case())
    sizes = data.draw(st.lists(dims, min_size=1, max_size=3))
    blocks = [dense(data.draw, values, n, n) for n in sizes]
    assert_matches(
        block_diagonal([build(field, b) for b in blocks]), field, ref_block_diagonal(field, blocks)
    )
    n = sizes[0]
    a_rows, b_rows = blocks[0], dense(data.draw, values, n, n)
    expected = ref_combine(
        field, ref_matmul(field, a_rows, b_rows), ref_matmul(field, b_rows, a_rows), -1
    )
    a, b = build(field, a_rows), build(field, b_rows)
    on_each_path(lambda: assert_matches(commutator(a, b), field, expected))


# -- the shared product routine against the two-product commutator -----------


def oracle_commutator(a, b):
    """[a, b] from its definition, two products and a difference."""
    return (a @ b) - (b @ a)


def assert_products_match(field, a_rows, b_rows):
    """On each kernel path, a @ b matches the reference and [a, b] and [b, a] the oracle and the reference."""
    a, b = build(field, a_rows), build(field, b_rows)
    ab, ba = ref_matmul(field, a_rows, b_rows), ref_matmul(field, b_rows, a_rows)

    def check():
        assert_matches(a @ b, field, ab)
        forward, backward = commutator(a, b), commutator(b, a)
        assert_matches(forward, field, ref_combine(field, ab, ba, -1))
        assert_matches(backward, field, ref_combine(field, ba, ab, -1))
        assert forward == oracle_commutator(a, b) and backward == oracle_commutator(b, a)
        return forward

    return on_each_path(check)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_commutator_matches_the_two_product_oracle(data):
    field, values = data.draw(field_case())
    n = data.draw(dims)
    a_rows, b_rows = dense(data.draw, values, n, n), dense(data.draw, values, n, n)
    assert_products_match(field, a_rows, b_rows)
    assert assert_products_match(field, a_rows, a_rows).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commutator_of_a_polynomial_in_a_is_zero(data):
    # b = c0 I + c1 a + c2 a^2 commutes with a exactly, so every entry of ab - ba cancels
    field, values = data.draw(field_case())
    n = data.draw(dims)
    a_rows = dense(data.draw, values, n, n)
    c0, c1, c2 = (data.draw(values) for _ in range(3))
    square = ref_matmul(field, a_rows, a_rows)
    b_rows = [
        [_canon(field, (c0 if i == j else 0) + c1 * a_rows[i][j] + c2 * square[i][j]) for j in range(n)]
        for i in range(n)
    ]
    assert assert_products_match(field, a_rows, b_rows).is_zero()


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_commutator_of_scalar_plus_elementary_pairs(data):
    # [lam I + E_ij, mu I + E_kl] = [E_ij, E_kl] = (j == k) E_il - (l == i) E_kj
    field, values = data.draw(field_case())
    n = data.draw(dims)
    lam, mu = data.draw(values), data.draw(values)
    i, j, k, l = (data.draw(st.integers(min_value=0, max_value=n - 1)) for _ in range(4))
    zero, one = _canon(field, 0), _canon(field, 1)

    def shifted_unit(c, r, s):
        return [[_canon(field, (c if x == y else 0) + (1 if (x, y) == (r, s) else 0)) for y in range(n)]
                for x in range(n)]

    expected = [[zero] * n for _ in range(n)]
    if j == k:
        expected[i][l] = one
    if l == i:
        expected[k][j] = _canon(field, expected[k][j] - 1)
    result = assert_products_match(field, shifted_unit(lam, i, j), shifted_unit(mu, k, l))
    assert_matches(result, field, expected)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_products_whose_terms_cancel_entry_by_entry(data):
    # a has equal columns k and k', b has row k' = -(row k): every term a_ik b_kj meets its negative
    field, values = data.draw(field_case())
    n = data.draw(st.integers(min_value=1, max_value=2))
    col = [data.draw(values) for _ in range(2 * n)]
    row = [data.draw(values) for _ in range(2 * n)]
    a_rows = [[x] * 2 for x in col]
    b_rows = [row, [_canon(field, -y) for y in row]]

    def cancels():
        assert build(field, a_rows) @ build(field, b_rows) == zeros(2 * n, 2 * n, field)

    on_each_path(cancels)
    # padded to square, the same pair exercises the commutator's shared denominator
    pad = _canon(field, 0)
    a_sq = [r + [pad] * (2 * n - 2) for r in a_rows]
    b_sq = b_rows + [[pad] * (2 * n) for _ in range(2 * n - 2)]
    assert_products_match(field, a_sq, b_sq)


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5), GF(101)])
def test_explicit_zeros_equal_and_hash_like_arithmetic(field):
    zero, one = _canon(field, 0), _canon(field, 1)
    for r in (1, 2, 4):
        written = Matrix(field, r, r, tuple(one if i == j else zero for i in range(r) for j in range(r)))
        blank = Matrix(field, r, r, (zero,) * (r * r))
        for i, j in itertools.product(range(1, r + 1), repeat=2):
            e = elementary_matrix(r, i, j, field)
            made = identity(r, field) + e - e
            assert made == written and hash(made) == hash(written)
            assert e - e == blank and hash(e - e) == hash(blank) == hash(zeros(r, r, field))


# -- the packed path, reached unforced -------------------------------------------


def _dense_rows(field, rows, cols, seed):
    """Rows with every entry nonzero: over Q signed, some of 40 digits, over den up to 9."""
    rng = random.Random(seed)

    def draw():
        if field.is_prime_field:
            return rng.randint(1, field.characteristic - 1)
        return Fraction(rng.choice([-1, 1]) * rng.randint(1, 10 ** rng.choice([1, 3, 40])), rng.randint(1, 9))

    return [[draw() for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("field", [QQ, GF(2**61 - 1)], ids=["Q", "GF(2^61-1)"])
def test_dense_10x10_products_take_the_packed_path(field):
    a_rows, b_rows = _dense_rows(field, 10, 10, 1), _dense_rows(field, 10, 10, 2)
    a, b = build(field, a_rows), build(field, b_rows)
    if field.is_rationals:
        assert a.den > 1 and b.den > 1
        assert min(x for row in a.nonzero_rows for _, x in row) < 0
        assert max(abs(x) for row in a.nonzero_rows for _, x in row).bit_length() > 128
    ab, ba = ref_matmul(field, a_rows, b_rows), ref_matmul(field, b_rows, a_rows)
    with kernel_path() as calls:
        assert_matches(a @ b, field, ab)
        assert_matches(commutator(a, b), field, ref_combine(field, ab, ba, -1))
        assert commutator(a, a).is_zero()
    assert calls == {"packed": 3}


def test_dense_non_square_product_takes_the_packed_path():
    a_rows, b_rows = _dense_rows(QQ, 7, 9, 3), _dense_rows(QQ, 9, 5, 4)
    with kernel_path() as calls:
        assert_matches(build(QQ, a_rows) @ build(QQ, b_rows), QQ, ref_matmul(QQ, a_rows, b_rows))
    assert calls == {"packed": 1}


def test_products_with_few_terms_per_entry_take_the_dict_path():
    # the sharp witness has about one term per output entry, and a dense 10 x 10 factor times
    # one with half its rows empty has 5, though its inner dimension would allow 10
    n = 32
    mats = sharp_witness(n, 3, GF(37)).matrices
    a_rows, b_rows = _dense_rows(QQ, 10, 10, 5), _dense_rows(QQ, 5, 10, 6) + [[0] * 10] * 5
    with kernel_path() as calls:
        assert commutator(mats[0], mats[n]) == elementary_matrix(n + 1, 1, 2, GF(37)).scale(-3)
        assert_matches(build(QQ, a_rows) @ build(QQ, b_rows), QQ, ref_matmul(QQ, a_rows, b_rows))
    assert calls == {"dict": 2}


def test_commutator_entry_at_the_slot_bound():
    # entry (2, 1) of ab - ba is -6: |-6| = 2 * inner * max|a| * max|b|, the most a packed slot must hold
    a_rows = [[_canon(QQ, x) for x in row] for row in [[-1, 1, 1], [-1, 1, 1], [1, -1, 1]]]
    b_rows = [[_canon(QQ, x) for x in row] for row in [[1, 1, -1], [-1, -1, 1], [-1, 1, 1]]]
    assert assert_products_match(QQ, a_rows, b_rows).rows_list()[1][0] == -6
