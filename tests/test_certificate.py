"""Certificates: grid-search oracle, hand-traced n=1 values, verifier checks."""

import itertools
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import commrep.certificate as certificate
from commrep.certificate import (
    ALL_REASONS,
    REASON_ALPHA_LENGTH,
    REASON_ALPHA_V_ZERO,
    REASON_ALPHA_ZV_ZERO,
    REASON_BOUND_EXCEEDS_DIM,
    REASON_BOUND_MISMATCH,
    REASON_FIELD_MISMATCH,
    REASON_GRAM_MISMATCH,
    REASON_GRAM_NOT_ALTERNATING,
    REASON_GRAM_RANK,
    REASON_IMAGE_RANK_LOW,
    REASON_IMAGE_RANK_MISMATCH,
    REASON_N_MISMATCH,
    REASON_R_MISMATCH,
    REASON_V_LENGTH,
    REASON_Z_MISMATCH,
    REASON_Z_ZERO,
    REASON_ZV_ZERO,
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    find_avoiding_vector,
    VerificationResult,
    pairs_from_assignment,
    verify_certificate,
)
from commrep.commgraph import Assignment
from commrep.errors import FieldTooSmallError, InvalidArgumentError, PatternViolationError
from commrep.exactla import (
    GF,
    QQ,
    commutator,
    identity,
    inverse,
    matrix_from_rows,
    zeros,
)
from commrep.witness import sharp_witness

from conftest import big_fractions, dense_conjugated_pairs, kernel_path, small_fractions
from reference_elimination import kernel_basis, matvec, rank as reference_rank


def F(x):
    return Fraction(x)


def _brute_force_avoiding(constraints, dim, field, c=None):
    # independent oracle: plain lexicographic enumeration of the whole grid {0..c}^dim,
    # with c = len(constraints) unless given
    c = len(constraints) if c is None else c
    digits = [field.scalar(d) for d in range(c + 1)]
    for cand in itertools.product(digits, repeat=dim):
        if any(cand) and all(any(matvec(m, cand)) for m in constraints):
            return cand
    return None


def test_avoiding_vector_hand_examples():
    m = matrix_from_rows(QQ, [[0, -2], [0, 0]])
    assert find_avoiding_vector([m], 2, QQ) == (F(0), F(1))
    assert find_avoiding_vector([identity(2, QQ)], 2, QQ) == (F(0), F(1))
    # over F_5 the row (1, 4) vanishes on (1, 1), although 1 + 4 is not 0 as an integer
    rows = [[1, 0]], [[0, 1]], [[1, 4]]
    assert find_avoiding_vector([matrix_from_rows(GF(5), r) for r in rows], 2, GF(5)) == (1, 2)
    # the row (1, -1/2) vanishes on (1, 2) only if its entries are scaled by one factor
    rows = [[1, 0]], [[0, 1]], [[1, Fraction(-1, 2)]], [[1, -1]]
    assert find_avoiding_vector([matrix_from_rows(QQ, r) for r in rows], 2, QQ) == (F(1), F(3))


def test_avoiding_vector_field_too_small():
    ms = [identity(2, GF(2))] * 3
    with pytest.raises(FieldTooSmallError):
        find_avoiding_vector(ms, 2, GF(2))


def test_avoiding_vector_rejects_zero_constraint():
    z = matrix_from_rows(QQ, [[0, 0], [0, 0]])
    with pytest.raises(ValueError):
        find_avoiding_vector([z], 2, QQ)


def _vanishing_row(row, g, field):
    """``row`` with its last entry on the support of ``g`` solved so that row . g = 0."""
    t = max(k for k, x in enumerate(g) if x)
    rest = sum(x * y for k, (x, y) in enumerate(zip(row, g)) if k != t)
    inv = 1 / g[t] if field.is_rationals else pow(g[t], -1, field.characteristic)
    return row[:t] + [field.scalar(-rest) * inv] + row[t + 1 :]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_avoiding_vector_matches_brute_force(data):
    field, values = data.draw(st.sampled_from(
        [(QQ, small_fractions), (QQ, big_fractions), (GF(5), None), (GF(7), None)]
    ))
    if values is None:
        values = st.integers(min_value=0, max_value=field.characteristic - 1)
    entries = st.one_of(st.just(0), values).map(field.scalar)
    dim = data.draw(st.integers(min_value=1, max_value=3))
    count = data.draw(st.integers(min_value=1, max_value=4))
    constraints = []
    for _ in range(count):
        # square constraints as in the search for v, 1 x dim rows as in the search for alpha
        height = data.draw(st.sampled_from([dim, 1]))
        rows = data.draw(
            st.lists(st.lists(entries, min_size=dim, max_size=dim), min_size=height, max_size=height)
        )
        # vanish on the grid vector the constraints so far would choose, so the descent
        # must move past it; over Q the solved entries carry new denominators, over F_p
        # the products wrap around p
        g = _brute_force_avoiding(constraints, dim, field, count)
        rows = [_vanishing_row(row, g, field) for row in rows]
        m = matrix_from_rows(field, rows)
        constraints.append(m if not m.is_zero() else identity(dim, field))
    got = find_avoiding_vector(constraints, dim, field)
    assert got == _brute_force_avoiding(constraints, dim, field)
    assert all(any(matvec(m, got)) for m in constraints)
    assert all(type(x) is type(field.zero()) for x in got)


def test_certificate_n1_trace():
    # fully hand-computed trace for the 1-pair witness with lambda = 2
    pairs = pairs_from_assignment(sharp_witness(1, 2, QQ))
    cert = build_certificate(pairs)
    assert cert.z[0] == matrix_from_rows(QQ, [[0, -2], [0, 0]])
    assert cert.v == (F(0), F(1))
    assert cert.alpha == (F(1), F(1))
    assert cert.gram == matrix_from_rows(QQ, [[0, -2], [2, 0]])
    assert cert.image_rank == 2
    assert cert.concluded_bound == 2
    assert verify_certificate(cert, pairs).ok


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_certificate_sharpness_small(n):
    pairs = pairs_from_assignment(sharp_witness(n, 2, QQ))
    cert = build_certificate(pairs)
    assert cert.concluded_bound == n + 1 == cert.r
    assert cert.image_rank == n + 1
    assert verify_certificate(cert, pairs).ok


def test_certificate_over_prime_field():
    pairs = pairs_from_assignment(sharp_witness(2, 3, GF(11)))
    cert = build_certificate(pairs)
    assert cert.concluded_bound == 3
    assert verify_certificate(cert, pairs).ok


def test_certificate_field_too_small():
    pairs = pairs_from_assignment(sharp_witness(2, 1, GF(5)))  # needs p > 5
    with pytest.raises(FieldTooSmallError):
        build_certificate(pairs)


def test_pattern_violation_on_identity_pair():
    eye = identity(2, QQ)
    with pytest.raises(PatternViolationError):
        build_certificate([(eye, eye)])


def test_gram_checkerboard_structure():
    n = 4
    pairs = pairs_from_assignment(sharp_witness(n, 2, QQ))
    cert = build_certificate(pairs)
    gram = cert.gram.rows_list()
    for i in range(1, n + 1):
        d = sum(a * x for a, x in zip(cert.alpha, matvec(cert.z[i - 1], cert.v)))
        assert gram[i - 1][n + i - 1] == d != 0
        assert gram[n + i - 1][i - 1] == -d
    for i in range(1, 2 * n + 1):
        for j in range(1, 2 * n + 1):
            if abs(i - j) != n:
                assert gram[i - 1][j - 1] == 0
    assert reference_rank(cert.gram) == 2 * n


def test_certificate_determinism():
    pairs = pairs_from_assignment(sharp_witness(3, 2, QQ))
    assert build_certificate(pairs) == build_certificate(pairs)


def test_independence_cross_check():
    for n in (1, 2, 4):
        w = sharp_witness(n, 2, QQ)
        pairs = pairs_from_assignment(w)
        build_certificate(pairs)
        flat = [identity(n + 1, QQ).entries] + [m.entries for m in w.matrices]
        assert reference_rank(matrix_from_rows(QQ, flat)) == 2 * n + 1


def test_soundness_direct_recomputation():
    # whenever the verifier accepts, the direct span computation gives >= n+1
    for n in (1, 2, 3):
        pairs = pairs_from_assignment(sharp_witness(n, 2, QQ))
        cert = build_certificate(pairs)
        assert verify_certificate(cert, pairs).ok
        vectors = [cert.v] + [matvec(m, cert.v) for pair in pairs for m in pair]
        assert reference_rank(matrix_from_rows(QQ, vectors)) >= n + 1
        assert cert.r >= n + 1


def test_isotropy_of_kernel_translate():
    # any X, Y in span{I, a_i, b_i} with Xv = Yv = 0 satisfy alpha([X,Y]v) = 0
    n = 3
    w = sharp_witness(n, 2, QQ)
    pairs = pairs_from_assignment(w)
    cert = build_certificate(pairs)
    basis = [identity(n + 1, QQ)] + list(w.matrices)
    # kernel of the coefficient map (c_0..c_2n) -> sum c_k B_k v
    columns = [matvec(m, cert.v) for m in basis]
    eval_matrix = matrix_from_rows(QQ, [list(col) for col in columns]).transpose()
    for coeffs_x in kernel_basis(eval_matrix):
        for coeffs_y in kernel_basis(eval_matrix):
            x = _combine(basis, coeffs_x)
            y = _combine(basis, coeffs_y)
            assert not any(matvec(x, cert.v))
            bracket = (x @ y) - (y @ x)
            assert sum(a * x for a, x in zip(cert.alpha, matvec(bracket, cert.v))) == 0


def _combine(basis, coeffs):
    acc = basis[0].scale(coeffs[0])
    for b, c in zip(basis[1:], coeffs[1:]):
        acc = acc + b.scale(c)
    return acc


# -- verifier rejections ---------------------------------------------------------


def _valid():
    pairs = pairs_from_assignment(sharp_witness(2, 2, QQ))
    return build_certificate(pairs), pairs


def _with(cert, **kw):
    from dataclasses import replace

    return replace(cert, **kw)


def test_verifier_rejects_zero_v():
    cert, pairs = _valid()
    bad = _with(cert, v=tuple(F(0) for _ in cert.v))
    res = verify_certificate(bad, pairs)
    assert not res.ok
    assert REASON_ALPHA_V_ZERO in res.reasons
    assert REASON_ZV_ZERO in res.reasons


def test_verifier_rejects_corrupted_gram_entry():
    cert, pairs = _valid()
    rows = cert.gram.rows_list()
    rows[0][1] += 1
    bad = _with(cert, gram=matrix_from_rows(QQ, rows))
    res = verify_certificate(bad, pairs)
    assert not res.ok
    assert REASON_GRAM_MISMATCH in res.reasons


def test_verifier_rejects_corrupted_z():
    cert, pairs = _valid()
    z = list(cert.z)
    z[0] = z[0] + identity(cert.r, QQ)
    res = verify_certificate(_with(cert, z=tuple(z)), pairs)
    assert not res.ok
    assert REASON_Z_MISMATCH in res.reasons


def test_verifier_rejects_wrong_image_rank_and_bound():
    cert, pairs = _valid()
    res = verify_certificate(_with(cert, image_rank=cert.image_rank + 1), pairs)
    assert not res.ok and REASON_IMAGE_RANK_MISMATCH in res.reasons
    res = verify_certificate(_with(cert, concluded_bound=cert.n + 2), pairs)
    assert not res.ok and REASON_BOUND_MISMATCH in res.reasons


def _commuting_first_pair(cert, pairs):
    eye = identity(cert.r, QQ)
    return cert, [(eye, eye)] + list(pairs[1:])


# one crafted certificate-and-pairs input per reason code, from the valid n = 2 certificate
_REASON_CASES = {
    REASON_N_MISMATCH: lambda c, p: (_with(c, n=c.n + 1), p),
    REASON_R_MISMATCH: lambda c, p: (_with(c, r=c.r + 1), p),
    REASON_FIELD_MISMATCH: lambda c, p: (_with(c, field=GF(5)), p),
    REASON_V_LENGTH: lambda c, p: (_with(c, v=c.v + (F(0),)), p),
    REASON_ALPHA_LENGTH: lambda c, p: (_with(c, alpha=c.alpha[:-1]), p),
    REASON_Z_ZERO: _commuting_first_pair,
    REASON_Z_MISMATCH: lambda c, p: (_with(c, z=(c.z[0] + identity(c.r, QQ),) + c.z[1:]), p),
    REASON_ZV_ZERO: lambda c, p: (_with(c, v=(F(0),) * len(c.v)), p),
    REASON_ALPHA_V_ZERO: lambda c, p: (_with(c, v=(F(0),) * len(c.v)), p),
    REASON_ALPHA_ZV_ZERO: lambda c, p: (_with(c, alpha=(F(0),) * len(c.alpha)), p),
    # the wrong-shape branch; a wrong entry is covered above
    REASON_GRAM_MISMATCH: lambda c, p: (_with(c, gram=identity(2 * c.n + 1, QQ)), p),
    REASON_GRAM_NOT_ALTERNATING: lambda c, p: (_with(c, gram=c.gram + identity(2 * c.n, QQ)), p),
    REASON_GRAM_RANK: lambda c, p: (_with(c, gram=zeros(2 * c.n, 2 * c.n, QQ)), p),
    REASON_IMAGE_RANK_MISMATCH: lambda c, p: (_with(c, image_rank=c.image_rank + 1), p),
    REASON_IMAGE_RANK_LOW: lambda c, p: (_with(c, v=(F(0),) * len(c.v)), p),
    REASON_BOUND_MISMATCH: lambda c, p: (_with(c, concluded_bound=c.n + 2), p),
    REASON_BOUND_EXCEEDS_DIM: lambda c, p: (_with(c, concluded_bound=c.r + 1), p),
}


@pytest.mark.parametrize("reason", ALL_REASONS)
def test_every_reason_code_can_be_produced(reason):
    # parametrized over ALL_REASONS, so a code without a crafted input fails here
    res = verify_certificate(*_REASON_CASES[reason](*_valid()))
    assert not res.ok
    assert reason in res.reasons
    assert set(res.reasons) <= set(ALL_REASONS)


# the JSON reader refuses the documents of these corruptions, so they are verified with z dropped in memory
_REFUSED_BY_THE_READER = {REASON_N_MISMATCH, REASON_FIELD_MISMATCH, REASON_GRAM_MISMATCH}


def _zv_zero_on_one_pair():
    """The conjugated F_7 witness with v in the kernel of z_1, so z_1 v vanishes and z_2 v does not."""
    pairs = _conjugated_pairs(7)
    cert = build_certificate(pairs)
    return _with(cert, v=_v_in_kernel_of_z1(cert)), pairs


@pytest.mark.parametrize("reason", [r for r in ALL_REASONS if r != REASON_Z_MISMATCH] + ["zv_zero_on_one_pair"])
def test_every_reason_tuple_is_the_same_without_a_carried_z(reason):
    # the in-memory certificate carries z and the one read back from JSON does not; the verifier takes
    # every z_i v from its images either way, so only z_mismatch, which compares a carried z, can drop out
    cert, pairs = _zv_zero_on_one_pair() if reason == "zv_zero_on_one_pair" else _REASON_CASES[reason](*_valid())
    carried = verify_certificate(cert, pairs)
    if reason in _REFUSED_BY_THE_READER:
        loaded = _with(cert, z=None)
    else:
        loaded = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert loaded == _with(cert, z=None)
    res = verify_certificate(loaded, pairs)
    assert res.reasons == tuple(r for r in carried.reasons if r != REASON_Z_MISMATCH)
    assert (REASON_ZV_ZERO if reason == "zv_zero_on_one_pair" else reason) in res.reasons


def test_no_pairs_and_an_odd_assignment_are_refused():
    cert, _ = _valid()
    assert verify_certificate(cert, []) == VerificationResult(False, (REASON_N_MISMATCH,))
    with pytest.raises(InvalidArgumentError, match="^assignment length must be even to form pairs$"):
        pairs_from_assignment(Assignment(sharp_witness(1, 2, QQ).matrices[:1]))


def _conjugated_pairs(p):
    """The n = 2 sharp witness over F_p conjugated by a unitriangular P, so each z_i row has two entries."""
    field = GF(p)
    conj = matrix_from_rows(field, [[1, 0, 0], [1, 1, 0], [1, 1, 1]])
    conj_inv = inverse(conj)
    pairs = pairs_from_assignment(sharp_witness(2, 3, field))
    return [(conj @ a @ conj_inv, conj @ b @ conj_inv) for a, b in pairs]


def _v_in_kernel_of_z1(cert):
    """A vector v with z_1 v = 0 mod p, though z_1 v has nonzero integer sums of residue products."""
    z1 = cert.z[0]
    return next(w for w in kernel_basis(z1) if any(x * w[j] for row in z1.nonzero_rows for j, x in row))


def test_verifier_reduces_zv_mod_p():
    # z_1 v is 0 mod p, though its sums of residue products are not 0 as integers
    pairs = _conjugated_pairs(7)
    cert = build_certificate(pairs)
    res = verify_certificate(_with(cert, v=_v_in_kernel_of_z1(cert)), pairs)
    assert not res.ok
    assert REASON_ZV_ZERO in res.reasons


def test_verifier_reduces_alpha_v_mod_p():
    # alpha . v = p v_l: 0 mod p, though not 0 as an integer
    p = 7
    pairs = pairs_from_assignment(sharp_witness(2, 3, GF(p)))
    cert = build_certificate(pairs)
    k, l = [i for i, x in enumerate(cert.v) if x][:2]
    alpha = [0] * cert.r
    alpha[k], alpha[l] = cert.v[l], p - cert.v[k]
    assert sum(a * x for a, x in zip(alpha, cert.v)) == p * cert.v[l]
    res = verify_certificate(_with(cert, alpha=tuple(alpha)), pairs)
    assert not res.ok
    assert REASON_ALPHA_V_ZERO in res.reasons


def test_verifier_accepts_json_round_trip():
    cert, pairs = _valid()
    doc = certificate_to_json(cert)
    loaded = certificate_from_json(doc)
    assert loaded.z is None
    assert verify_certificate(loaded, pairs).ok
    assert certificate_to_json(loaded) == doc


def test_verifier_rejects_pairs_over_another_field():
    # the verifier forms no commutator that would refuse mixed fields, so it checks every pair matrix
    cert, pairs = _valid()
    (a, b), rest = pairs[0], pairs[1:]
    mixed = [(a, matrix_from_rows(GF(5), b.rows_list()))] + rest
    assert verify_certificate(cert, mixed).reasons == (REASON_FIELD_MISMATCH,)


def _counted_commutators(monkeypatch):
    """A list that grows by one pair of matrices per commutator the verifier forms."""
    formed = []

    def counted(a, b):
        formed.append((a, b))
        return commutator(a, b)

    monkeypatch.setattr(certificate, "commutator", counted)
    return formed


def test_json_verifier_forms_no_commutator(monkeypatch):
    cert, pairs = _valid()
    loaded = certificate_from_json(certificate_to_json(cert))
    formed = _counted_commutators(monkeypatch)
    assert verify_certificate(loaded, pairs).ok
    assert formed == []
    assert verify_certificate(cert, pairs).ok  # a carried z is compared, so each z_i is formed
    assert len(formed) == cert.n


def test_json_verifier_reports_zv_zero_and_not_z_zero(monkeypatch):
    # z_1 != 0 and z_1 v = 0: z_1 v alone cannot show z_1 != 0, so z_1 is formed for that pair only
    pairs = _conjugated_pairs(7)
    cert = build_certificate(pairs)
    bad = _with(cert, v=_v_in_kernel_of_z1(cert), z=None)
    formed = _counted_commutators(monkeypatch)
    res = verify_certificate(bad, pairs)
    assert not res.ok
    assert REASON_ZV_ZERO in res.reasons and REASON_Z_ZERO not in res.reasons
    assert formed == [pairs[0]]
    assert res == verify_certificate(_with(bad, z=cert.z), pairs)


@pytest.mark.parametrize("field", [GF(19), QQ], ids=["GF(19)", "Q"])
def test_dense_certificate_is_the_same_on_both_kernel_paths(field):
    pairs = dense_conjugated_pairs(8, field)
    assert field.is_prime_field or pairs[0][0].den > 1
    with kernel_path() as calls:
        build_certificate(pairs)
    assert calls["packed"] > 0  # the dense commutators pack unforced
    outcomes = []
    for path in ("dict", "packed"):
        with kernel_path(path) as calls:
            cert = build_certificate(pairs)
            doc = certificate_to_json(cert)
            loaded = certificate_from_json(doc)
            verdicts = (verify_certificate(cert, pairs), verify_certificate(loaded, pairs))
        assert set(calls) == {path}
        outcomes.append((doc, verdicts))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][1] == (VerificationResult(True, ()),) * 2
