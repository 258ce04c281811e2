"""The certificate Gram matrix against an independent dense reference.

The reference computes alpha^T (x_i x_j - x_j x_i) v entry by entry from
plain lists of rows, with no use of the package's products, vectors or
denominator clearing.  Inputs cover Q with small and big fractions, zeros
and negative entries, and GF(2), GF(5), GF(101); the certificates compared
come from fractional, negative and huge lambda and from dense conjugates,
whose vectors carry different denominators.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commrep.certificate import (
    _gram_entries,
    build_certificate,
    pairs_from_assignment,
    verify_certificate,
)
from commrep.commgraph import Assignment
from commrep.exactla import GF, QQ, _integer_vector, matrix_from_rows
from commrep.witness import sharp_witness

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


def _canon(field, x):
    return Fraction(x) if field.is_rationals else x % field.characteristic


def ref_matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def ref_apply(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def ref_gram(field, basis, v, alpha):
    """alpha([x_i, x_j] v) for every i, j, from the commutator itself."""
    out = []
    for x in basis:
        row = []
        for y in basis:
            xy, yx = ref_matmul(x, y), ref_matmul(y, x)
            bracket = [[s - t for s, t in zip(r1, r2)] for r1, r2 in zip(xy, yx)]
            row.append(_canon(field, sum(a * w for a, w in zip(alpha, ref_apply(bracket, v)))))
        out.append(row)
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_gram_entries_match_dense_reference(data):
    field, values = data.draw(st.sampled_from(FIELDS))
    # half the entries zero on average, so sparse and dense vectors both occur
    entries = st.one_of(st.just(0), values).map(lambda x: _canon(field, x))
    r = data.draw(st.integers(min_value=1, max_value=4))
    size = data.draw(st.integers(min_value=1, max_value=5))
    basis = [[[data.draw(entries) for _ in range(r)] for _ in range(r)] for _ in range(size)]
    v = tuple(data.draw(entries) for _ in range(r))
    alpha = tuple(data.draw(entries) for _ in range(r))
    mats = [matrix_from_rows(field, rows) for rows in basis]
    p = field.characteristic
    v_int, e = _integer_vector(v, p)
    alpha_int, f = _integer_vector(alpha, p)
    gram, images = _gram_entries(mats, v_int, alpha_int, e * f, field)
    expected = ref_gram(field, basis, v, alpha)
    assert gram.rows_list() == expected
    assert gram == matrix_from_rows(field, expected)  # the stored form is canonical too
    # R_i is x_i v times den_i e, as integers (residues over F_p)
    assert [[_canon(field, m.den * e * x) for x in ref_apply(b, v)] for m, b in zip(mats, basis)] == images
    assert all(type(x) is int for w in images for x in w)


def _dense_witness(n, lam, field):
    """Sharp witness rows conjugated by P = I + c u w^T with w.u = 0 (P^-1 = I - c u w^T)."""
    rng = random.Random(n)
    r = n + 1
    u = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r - 1)] + [1]
    w = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r - 1)]
    w.append(-sum(x * y for x, y in zip(u, w)))
    c = Fraction(rng.randint(2, 9), rng.randint(1, 4)) if field.is_rationals else rng.randint(2, 9)
    p_mat = [[int(i == j) + c * u[i] * w[j] for j in range(r)] for i in range(r)]
    p_inv = [[int(i == j) - c * u[i] * w[j] for j in range(r)] for i in range(r)]
    mats = [ref_matmul(ref_matmul(p_mat, m.rows_list()), p_inv)
            for m in sharp_witness(n, lam, field).matrices]
    return Assignment(tuple(matrix_from_rows(field, [[_canon(field, x) for x in row] for row in m])
                            for m in mats))


CASES = [
    ("sparse", 3, Fraction(7, 3), QQ),
    ("sparse", 4, Fraction(-5, 2), QQ),
    ("sparse", 3, Fraction(10**15 + 1, 7), QQ),
    ("dense", 2, Fraction(9, 4), QQ),
    ("dense", 3, Fraction(-3, 5), QQ),
    ("sparse", 3, 4, GF(11)),
    ("dense", 3, 5, GF(13)),
]


@pytest.mark.parametrize("shape,n,lam,field", CASES)
def test_certificate_gram_matches_dense_reference(shape, n, lam, field):
    assignment = (sharp_witness if shape == "sparse" else _dense_witness)(n, lam, field)
    pairs = pairs_from_assignment(assignment)
    cert = build_certificate(pairs)
    basis = [m.rows_list() for m in assignment.matrices]
    assert cert.gram.rows_list() == ref_gram(field, basis, cert.v, cert.alpha)
    assert verify_certificate(cert, pairs).ok
