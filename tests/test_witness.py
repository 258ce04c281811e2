"""Sharp witness construction: frozen formulas and realization properties."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commrep.commgraph import matching_graph, realizes
from commrep.errors import InvalidArgumentError
from commrep.exactla import (
    GF,
    QQ,
    commutator,
    elementary_matrix,
    identity,
    is_invertible,
    matrix_from_rows,
)
from commrep.witness import product_block_embedding, sharp_witness
from reference_elimination import rank as reference_rank

LAMBDAS = [Fraction(2), Fraction(-1), Fraction(1, 2)]


def test_sharp_witness_n1_lambda2_exact_matrices():
    w = sharp_witness(1, 2, QQ)
    a1, b1 = w.matrices
    assert a1 == matrix_from_rows(QQ, [[1, 1], [0, 1]])
    assert b1 == matrix_from_rows(QQ, [[1, 0], [0, -1]])


@settings(max_examples=30, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.sampled_from(LAMBDAS),
)
def test_pair_commutators_have_the_closed_form(n, lam):
    w = sharp_witness(n, lam, QQ)
    for i in range(1, n + 1):
        a_i, b_i = w.matrices[i - 1], w.matrices[n + i - 1]
        expected = elementary_matrix(n + 1, 1, i + 1, QQ).scale(-lam)
        assert commutator(a_i, b_i) == expected


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.sampled_from(LAMBDAS))
def test_cross_pair_commutators_vanish(n, lam):
    w = sharp_witness(n, lam, QQ)
    mats = w.matrices
    for i in range(2 * n):
        for j in range(i + 1, 2 * n):
            if j == n + i:  # the matched pair (a_{i+1}, b_{i+1})
                continue
            assert commutator(mats[i], mats[j]).is_zero()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=10), st.sampled_from(LAMBDAS))
def test_witness_realizes_matching_graph(n, lam):
    assert realizes(sharp_witness(n, lam, QQ), matching_graph(n)).ok


def test_witness_over_prime_fields():
    assert realizes(sharp_witness(2, 1, GF(2)), matching_graph(2)).ok
    assert realizes(sharp_witness(3, 4, GF(7)), matching_graph(3)).ok


def test_lambda_zero_rejected():
    # lambda is checked first, so (0, 0) gets the message of the CLI's --n 0 --lambda 0
    for n, lam, field, message in [
        (2, 0, QQ, "lambda must be nonzero in the chosen field"),
        (2, 5, GF(5), "lambda must be nonzero in the chosen field"),  # 5 = 0 mod 5
        (0, 0, QQ, "lambda must be nonzero in the chosen field"),
        (0, 2, QQ, "n must be at least 1"),
        (1, 0, QQ, "lambda must be nonzero in the chosen field"),
    ]:
        with pytest.raises(InvalidArgumentError) as info:  # also a ValueError
            sharp_witness(n, lam, field)
        assert str(info.value) == message


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.sampled_from(LAMBDAS))
def test_flattened_family_is_independent(n, lam):
    w = sharp_witness(n, lam, QQ)
    vectors = [identity(n + 1, QQ).entries] + [m.entries for m in w.matrices]
    assert reference_rank(matrix_from_rows(QQ, vectors)) == 2 * n + 1


def test_invertibility_iff_lambda_not_one():
    def invertible(n, lam, field):
        return all(is_invertible(m) for m in sharp_witness(n, lam, field).matrices)

    assert invertible(3, 2, QQ) is True
    assert invertible(3, 1, QQ) is False
    assert invertible(2, 1, GF(2)) is False
    # lambda = 1 still realizes the pattern even though b_i is singular
    assert realizes(sharp_witness(2, 1, GF(2)), matching_graph(2)).ok
    assert invertible(2, Fraction(1, 2), QQ) is True


# -- block embedding -----------------------------------------------------------


def _sl2_pair(field):
    return [
        matrix_from_rows(field, [[1, 1], [0, 1]]),
        matrix_from_rows(field, [[1, 0], [1, 1]]),
    ]


def test_two_factor_embedding_shapes_and_commutation():
    factors = [_sl2_pair(QQ), _sl2_pair(QQ)]
    images = product_block_embedding(factors)
    assert len(images) == 4
    assert all(m.rows == 4 for m in images)
    for g in images[:2]:
        for h in images[2:]:
            assert commutator(g, h).is_zero()


def test_single_factor_embedding_is_identity_map():
    gens = _sl2_pair(GF(3))
    assert product_block_embedding([gens]) == gens


def test_embedding_preserves_multiplication_tables():
    rng = random.Random(11)
    factors = [_sl2_pair(QQ) for _ in range(3)]
    images = product_block_embedding(factors)
    grouped = [images[0:2], images[2:4], images[4:6]]
    for slot in range(3):
        for _ in range(20):
            word = [rng.randrange(2) for _ in range(rng.randrange(1, 6))]
            small = identity(2, QQ)
            big = identity(6, QQ)
            for w in word:
                small = small @ factors[slot][w]
                big = big @ grouped[slot][w]
            # the embedded word is the word of the factor in slot's block,
            # identity elsewhere
            big, small = big.rows_list(), small.rows_list()
            for i in range(1, 7):
                for j in range(1, 7):
                    bi, bj = i - 2 * slot, j - 2 * slot
                    if 1 <= bi <= 2 and 1 <= bj <= 2:
                        assert big[i - 1][j - 1] == small[bi - 1][bj - 1]
                    else:
                        assert big[i - 1][j - 1] == (1 if i == j else 0)


def test_embedding_field_mismatch():
    non_square = matrix_from_rows(QQ, [[1, 0, 0], [0, 1, 0]])
    for factors in (
        [_sl2_pair(QQ), _sl2_pair(GF(2))],
        [_sl2_pair(QQ)[:1] + _sl2_pair(GF(2))[1:]],
        [_sl2_pair(QQ), [non_square]],
        [[non_square]],
        [_sl2_pair(QQ) + [identity(3, QQ)]],
    ):
        with pytest.raises(ValueError):
            product_block_embedding(factors)
