"""Every Matrix operation against a dense pure-Python reference.

The reference keeps a matrix as a list of rows of canonical scalars and
computes each operation from its definition, entry by entry.  Inputs cover
Q with small and big fractions and GF(2), GF(5), GF(101), in rectangular
shapes with many zero entries.  Each result must match the reference in its
stored nonzero rows, in every dense view, and in equality and hashing with
the matrix the public constructor builds from the reference's entries.
"""

import itertools
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

from conftest import big_fractions, small_fractions


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
    """``m`` holds exactly the dense reference ``rows``, in every view."""
    r, c = len(rows), len(rows[0])
    assert (m.field, m.rows, m.cols) == (field, r, c)
    assert m.nonzero_rows == tuple(
        tuple((j, x) for j, x in enumerate(row) if x) for row in rows
    )
    flat = tuple(x for row in rows for x in row)
    scalar = Fraction if field.is_rationals else int
    assert all(type(x) is scalar for x in m.entries)
    assert m.entries == flat
    assert m.rows_list() == rows
    for i in range(r):
        assert m.row_values(i + 1) == tuple(rows[i])
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
    assert_matches(a @ b, field, ref_matmul(field, a_rows, b_rows))
    assert_matches(a.transpose(), field, ref_transpose(a_rows))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_vector_products(data):
    field, values = data.draw(field_case())
    r, c = data.draw(dims), data.draw(dims)
    rows = dense(data.draw, values, r, c)
    right = tuple(data.draw(values) for _ in range(c))
    left = tuple(data.draw(values) for _ in range(r))
    a = build(field, rows)
    assert a.apply(right) == tuple(ref_matmul(field, rows, [[x] for x in right])[i][0] for i in range(r))
    assert a.apply_left(left) == tuple(ref_matmul(field, [list(left)], rows)[0])


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
    assert_matches(commutator(build(field, a_rows), build(field, b_rows)), field, expected)


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
