"""Exact linear algebra: frozen examples, oracle cross-checks, and properties."""

import enum
import itertools
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from commrep.exactla import (
    GF,
    QQ,
    FieldSpec,
    Matrix,
    _integer_dense_rows,
    _null_space,
    block_diagonal,
    commutator,
    dot,
    elementary_matrix,
    identity,
    inverse,
    is_invertible,
    matrix_from_json,
    matrix_from_rows,
    matrix_to_json,
    rank,
    scalar_from_json,
    span_rank,
    zeros,
)
from commrep.errors import InvalidArgumentError, SchemaError, is_prime

from conftest import big_fractions, matrix_pair, square_matrix
from reference_elimination import matvec, rank as reference_rank


def F(x):
    return Fraction(x)


# -- fields ------------------------------------------------------------------


def test_field_equality_and_names():
    assert QQ.characteristic is None and QQ.is_rationals
    assert GF(5).characteristic == 5 and GF(5).is_prime_field
    assert GF(5) != GF(7)
    assert QQ != GF(2)
    assert FieldSpec.from_name("Q") == QQ
    assert FieldSpec.from_name("Fp:13") == GF(13)
    assert FieldSpec.from_name("Fp:302231454903657293676533") == GF(302231454903657293676533)  # below 2^78
    assert GF(13).name() == "Fp:13"
    for bad in (None, 7, ["Q"], {"Fp": 2}, "Fp:4", "F2", "Fp:318665857834031151167461"):
        with pytest.raises(ValueError):
            FieldSpec.from_name(bad)


# 1373653 and 3215031751 are strong pseudoprimes to bases 2 and 3, and 2, 3, 5 and 7; 252601 = 41 * 61 * 101
# is a Carmichael number; none has a factor up to 37, so only the Miller-Rabin rounds refuse them
@pytest.mark.parametrize("bad", [1, 4, 6, 9, 100, -3, 1373653, 3215031751, 252601])
def test_nonprime_characteristic_rejected(bad):
    assert not is_prime(bad)
    with pytest.raises(ValueError):
        GF(bad)


def test_is_prime_matches_sympy_on_range():
    for n in range(-2, 500):
        assert is_prime(n) == sympy.isprime(n)


def test_scalar_coercion():
    assert QQ.scalar("3/6") == F("1/2")
    assert GF(7).scalar(-1) == 6
    assert GF(7).scalar(F("1/2")) == 4  # 2 * 4 = 8 = 1 mod 7
    with pytest.raises(ValueError):
        GF(3).scalar(F("1/3"))
    for field in (QQ, GF(5)):
        with pytest.raises(InvalidArgumentError, match="zero denominator"):  # a ValueError, and the CLI's code
            field.scalar("1/0")


class _Level(enum.IntEnum):
    HIGH = 7


def test_canonical_scalars_skip_coercion_and_others_keep_the_checks():
    half = F("1/2")
    assert QQ.scalar(half) is half
    assert QQ.scalar(3) == 3 and type(QQ.scalar(3)) is Fraction
    assert GF(5).scalar(7) == 2 and GF(5).scalar(-1) == 4
    assert type(GF(5).scalar(7)) is int
    with pytest.raises(ValueError):
        QQ.scalar(True)
    with pytest.raises(ValueError):
        GF(5).scalar(False)
    # an int subclass other than bool is coerced to the plain scalar it stands for
    assert QQ.scalar(_Level.HIGH) == 7 and type(QQ.scalar(_Level.HIGH)) is Fraction
    assert GF(5).scalar(_Level.HIGH) == 2 and type(GF(5).scalar(_Level.HIGH)) is int


@given(st.sampled_from([QQ, GF(2), GF(5), GF(97)]), st.data())
def test_field_axioms_on_sampled_triples(field, data):
    xs = st.integers(min_value=-30, max_value=30)
    a, b, c = (field.scalar(data.draw(xs)) for _ in range(3))
    assert field.add(field.add(a, b), c) == field.add(a, field.add(b, c))
    assert field.mul(field.mul(a, b), c) == field.mul(a, field.mul(b, c))
    assert field.mul(a, field.add(b, c)) == field.add(field.mul(a, b), field.mul(a, c))
    if b:
        inv = 1 / b if field.is_rationals else pow(b, -1, field.characteristic)
        assert field.mul(b, inv) == 1


# -- constructors and frozen examples -----------------------------------------


def test_identity_examples():
    assert identity(1, QQ).entries == (F(1),)
    i3 = identity(3, GF(2))
    assert [i3.rows_list()[k][k] for k in range(3)] == [1, 1, 1]
    assert sum(1 for e in i3.entries if e) == 3


@given(square_matrix())
def test_identity_law(a):
    e = identity(a.rows, a.field)
    assert e @ a == a
    assert a @ e == a


def test_elementary_matrix_examples():
    assert elementary_matrix(2, 1, 2, QQ) == matrix_from_rows(QQ, [[0, 1], [0, 0]])
    e22 = elementary_matrix(3, 2, 2, GF(3))
    assert e22.rows_list()[1][1] == 1
    assert sum(1 for e in e22.entries if e) == 1
    with pytest.raises(IndexError):
        elementary_matrix(2, 3, 1, QQ)


def test_elementary_product_rule_exhaustive():
    # oracle: E_{a,b} E_{c,d} = E_{a,d} if b == c else 0, checked for r <= 4
    for r in (2, 3, 4):
        for a, b, c, d in itertools.product(range(1, r + 1), repeat=4):
            prod = elementary_matrix(r, a, b, QQ) @ elementary_matrix(r, c, d, QQ)
            if b == c:
                assert prod == elementary_matrix(r, a, d, QQ)
            else:
                assert prod.is_zero()


def test_e12_e22_in_m3():
    e12, e22 = elementary_matrix(3, 1, 2, QQ), elementary_matrix(3, 2, 2, QQ)
    assert e12 @ e22 == e12


def test_commutator_examples():
    e12, e21 = elementary_matrix(2, 1, 2, QQ), elementary_matrix(2, 2, 1, QQ)
    expected = elementary_matrix(2, 1, 1, QQ) - elementary_matrix(2, 2, 2, QQ)
    assert commutator(e12, e21) == expected


@given(square_matrix())
def test_commutator_with_identity_and_self(a):
    assert commutator(a, identity(a.rows, a.field)).is_zero()
    assert commutator(a, a).is_zero()


@given(matrix_pair())
def test_commutator_antisymmetric(pair):
    a, b = pair
    assert commutator(a, b) == -commutator(b, a)


@given(matrix_pair(), st.integers(min_value=-9, max_value=9))
def test_commutator_bilinear(pair, c):
    a, b = pair
    cc = a.field.scalar(c)
    lhs = commutator(a.scale(cc), b)
    assert lhs == commutator(a, b).scale(cc)
    lhs2 = commutator(a + a.scale(cc), b)
    assert lhs2 == commutator(a, b) + commutator(a.scale(cc), b)


def test_commutator_mismatch_errors():
    with pytest.raises(ValueError):
        commutator(identity(2, QQ), identity(3, QQ))
    with pytest.raises(ValueError):
        commutator(identity(2, QQ), identity(2, GF(2)))


# -- rank / kernel against an independent oracle -------------------------------


def _sympy_of(a: Matrix):
    if a.field.is_rationals:
        return sympy.Matrix(a.rows_list())
    return sympy.Matrix(a.rows_list()), a.field.characteristic


def _sympy_rank(a: Matrix) -> int:
    if a.field.is_rationals:
        return sympy.Matrix(a.rows_list()).rank()
    p = a.field.characteristic
    return sympy.Matrix(a.rows_list()).rank(iszerofunc=lambda x: x % p == 0)


def test_rank_examples():
    assert rank(identity(4, QQ)) == 4
    assert rank(matrix_from_rows(QQ, [[1, 2], [2, 4]])) == 1
    assert rank(matrix_from_rows(GF(2), [[1, 1], [1, 1]])) == 1
    assert rank(zeros(3, 5, QQ)) == 0


@settings(max_examples=60)
@given(square_matrix(field=QQ, max_dim=5))
def test_rank_matches_sympy_over_q(a):
    assert rank(a) == _sympy_rank(a)


@settings(max_examples=60)
@given(square_matrix(max_dim=4))
def test_rank_transpose(a):
    assert rank(a) == rank(a.transpose())


@settings(max_examples=60)
@given(matrix_pair(max_dim=4))
def test_rank_product_bound(pair):
    a, b = pair
    assert rank(a @ b) <= min(rank(a), rank(b))


def _kernel(a):
    return _null_space(_integer_dense_rows(a), a.cols, a.field.characteristic)


def test_kernel_examples():
    assert _kernel(identity(2, QQ)) == []
    assert len(_kernel(zeros(2, 2, QQ))) == 2
    assert _kernel(matrix_from_rows(QQ, [[0, -2], [0, 0]])) == [(F(1), F(0))]


@settings(max_examples=80)
@given(square_matrix(max_dim=4))
def test_kernel_vectors_annihilate_and_are_independent(a):
    basis = _kernel(a)
    for v in basis:
        assert not any(matvec(a, v))
    if basis:
        assert reference_rank(matrix_from_rows(a.field, basis)) == len(basis)
    assert len(basis) == a.cols - reference_rank(a)


def test_dot_examples():
    assert dot([F("1/2"), 3], [4, F("1/3")], QQ) == 3 and type(dot([1], [3], QQ)) is Fraction
    assert dot([], [], QQ) == 0 and type(dot([], [], QQ)) is Fraction
    assert dot([3, 4], [5, 6], GF(7)) == 4 and type(dot([3], [5], GF(7))) is int
    with pytest.raises(ValueError, match="length mismatch"):
        dot([1], [1, 2], QQ)


def test_span_rank_examples():
    assert span_rank([(F(1), F(0)), (F(0), F(1))], QQ) == 2
    assert span_rank([(F(1), F(1)), (F(2), F(2))], QQ) == 1


def test_span_rank_coerces_its_entries_and_keeps_its_refusals():
    assert span_rank([[5, 10]], GF(5)) == 0
    assert span_rank([[1, 6], [3, 18]], GF(5)) == 1
    assert span_rank([[1, "1/2"], ["2", 1]], QQ) == 1
    assert span_rank([[1, "1/2"], [0, "-3"]], QQ) == 2
    with pytest.raises(ValueError, match="need at least one vector"):
        span_rank([], QQ)
    for field in (QQ, GF(5)):
        with pytest.raises(ValueError, match="ragged rows"):
            span_rank([[1, 2], [1]], field)
        with pytest.raises(ValueError, match="matrix dimensions must be positive"):
            span_rank([[], []], field)
    with pytest.raises(ValueError, match="cannot coerce"):
        span_rank([[1, True]], QQ)


@settings(max_examples=40)
@given(square_matrix(field=QQ, max_dim=4, entries=big_fractions))
def test_exact_associativity_with_large_numerators(a):
    b = a.transpose()
    c = a + b
    assert (a @ b) @ c == a @ (b @ c)


# -- block diagonal ------------------------------------------------------------


def test_block_diagonal_examples():
    two, three = matrix_from_rows(QQ, [[2]]), matrix_from_rows(QQ, [[3]])
    assert block_diagonal([two, three]) == matrix_from_rows(QQ, [[2, 0], [0, 3]])
    blocks = [identity(2, GF(3))] * 4
    assert block_diagonal(blocks) == identity(8, GF(3))


@given(matrix_pair(max_dim=3))
def test_disjoint_blocks_commute(pair):
    a, b = pair
    e = identity(a.rows, a.field)
    left = block_diagonal([a, e])
    right = block_diagonal([e, b])
    assert commutator(left, right).is_zero()


def test_block_diagonal_field_mismatch():
    with pytest.raises(ValueError):
        block_diagonal([identity(2, QQ), identity(2, GF(2))])


# -- inverse --------------------------------------------------------------------


@settings(max_examples=50)
@given(square_matrix(max_dim=4))
def test_inverse_round_trip(a):
    if is_invertible(a):
        assert a @ inverse(a) == identity(a.rows, a.field)
        assert inverse(a) @ a == identity(a.rows, a.field)
    else:
        with pytest.raises(ValueError):
            inverse(a)


# -- JSON ------------------------------------------------------------------------


@settings(max_examples=50)
@given(square_matrix(max_dim=3))
def test_matrix_json_round_trip(a):
    doc = matrix_to_json(a)
    assert matrix_from_json(doc) == a


def test_matrix_json_frozen_shape():
    a = matrix_from_rows(QQ, [[F("1/2"), -3]])
    assert matrix_to_json(a) == {
        "field": "Q",
        "rows": 1,
        "cols": 2,
        "entries": [["1", "2"], ["-3", "1"]],
    }
    b = matrix_from_rows(GF(5), [[7]])
    assert matrix_to_json(b) == {"field": "Fp:5", "rows": 1, "cols": 1, "entries": ["2"]}


def test_matrix_json_bad_documents():
    with pytest.raises(SchemaError):
        matrix_from_json({"field": "Q", "rows": 1, "cols": 2, "entries": [["1", "1"]]})
    with pytest.raises(SchemaError):
        matrix_from_json({"field": "Fp:4", "rows": 1, "cols": 1, "entries": ["0"]})
    with pytest.raises(SchemaError):
        matrix_from_json({"field": "Fp:5", "rows": 1, "cols": 1, "entries": ["7"]})


def test_scalar_json_accepts_only_decimal_strings():
    assert scalar_from_json(["-3", "4"], QQ) == F("-3/4")
    assert scalar_from_json("06", GF(7)) == 6
    bad = [
        ([" 1_000 ", "2"], QQ),
        (["+1", "2"], QQ),
        (["1", "\u0663"], QQ),  # Arabic-Indic three
        ("+2", GF(7)),
        ("\u0663", GF(7)),
        (" 3", GF(7)),
        ("3\n", GF(7)),
        ("1_0", GF(11)),
        ("0x3", GF(7)),
        ("\u00b2", GF(7)),  # superscript two
        ("", GF(7)),
        ("-", GF(7)),
    ]
    for obj, field in bad:
        with pytest.raises(SchemaError) as err:
            scalar_from_json(obj, field, "m.entries[0]")
        assert err.value.path == "m.entries[0]"


def test_matrix_json_reads_malformed_zeros_in_full():
    # only the canonical zero text skips coercion; other zero-like texts end schema at their path
    for field, entries in (("Fp:7", ["0", "00x"]), ("Fp:7", ["0", " 0"]), ("Q", [["0", "1"], ["0", "0"]]),
                           ("Q", [["0", "1"], ["0", "1", "1"]]), ("Q", [["0", "1"], "0"])):
        with pytest.raises(SchemaError) as err:
            matrix_from_json({"field": field, "rows": 1, "cols": 2, "entries": entries})
        assert err.value.path == "matrix.entries[1]"
    assert matrix_from_json({"field": "Q", "rows": 1, "cols": 2, "entries": [["0", "1"], ["0", "5"]]}).is_zero()
    assert matrix_from_json({"field": "Fp:7", "rows": 1, "cols": 2, "entries": ["0", "00"]}).is_zero()
