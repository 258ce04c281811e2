"""Machine-checkable lower-bound certificates for matching commutation patterns.

Given n pairs (a_i, b_i) of r x r matrices whose only non-vanishing pairwise
commutators are z_i = [a_i, b_i], the builder produces a certificate that
forces r >= n+1:

  * a vector v with z_i v != 0 for every i, found by a deterministic
    lexicographic grid search (entries in {0..n}) that is guaranteed to
    succeed because each kernel meets at most a 1/(n+1) fraction of the grid;
  * a linear form alpha with alpha(v) != 0 and alpha(z_i v) != 0, found the
    same way on the dual constraints;
  * the Gram matrix of the alternating form (x, y) -> alpha([x, y] v) on the
    basis (a_1..a_n, b_1..b_n), which is nonsingular by construction;
  * the dimension of span{v, a_1 v, .., b_n v}, which is at least n+1: the
    evaluation-at-v map on span{I, a_i, b_i} has isotropic translate
    kI + ker, so its kernel has dimension at most n out of 2n+1.

The verifier recomputes everything from the raw pairs and accepts only if
every invariant holds, so an accepted certificate yields r >= n+1 by direct
rank computation, independent of how it was built.  The proof needs only the
vectors z_i v, not the r x r commutators z_i, so the verifier takes each
z_i v from the images x_i v it computes for the Gram matrix and forms a
commutator only where it must (see ``verify_certificate``).

Over a prime field the grid argument needs p distinct digit values, hence
the p > 2n+1 precondition; scalar extension is deliberately not implemented
and small fields are refused instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple, Optional, Sequence

from .commgraph import Assignment, matching_graph, realizes
from .errors import FieldTooSmallError, InvalidArgumentError, PatternViolationError
from .errors import json_int, json_list, json_object
from .exactla import (
    FieldSpec,
    Matrix,
    _integer_vector,
    _json_rows,
    _nonzero_row,
    _reduced_form,
    _row_sums,
    commutator,
    field_from_json,
    rank,
    scalar_to_json,
    scalars_from_json,
)

# reason codes emitted by verify_certificate
REASON_N_MISMATCH = "n_mismatch"
REASON_R_MISMATCH = "r_mismatch"
REASON_FIELD_MISMATCH = "field_mismatch"
REASON_V_LENGTH = "v_length"
REASON_ALPHA_LENGTH = "alpha_length"
REASON_Z_ZERO = "z_zero"
REASON_Z_MISMATCH = "z_mismatch"
REASON_ZV_ZERO = "zv_zero"
REASON_ALPHA_V_ZERO = "alpha_v_zero"
REASON_ALPHA_ZV_ZERO = "alpha_zv_zero"
REASON_GRAM_MISMATCH = "gram_mismatch"
REASON_GRAM_NOT_ALTERNATING = "gram_not_alternating"
REASON_GRAM_RANK = "gram_rank_deficient"
REASON_IMAGE_RANK_MISMATCH = "image_rank_mismatch"
REASON_IMAGE_RANK_LOW = "image_rank_below_bound"
REASON_BOUND_MISMATCH = "bound_mismatch"
REASON_BOUND_EXCEEDS_DIM = "bound_exceeds_dimension"

ALL_REASONS = (
    REASON_N_MISMATCH,
    REASON_R_MISMATCH,
    REASON_FIELD_MISMATCH,
    REASON_V_LENGTH,
    REASON_ALPHA_LENGTH,
    REASON_Z_ZERO,
    REASON_Z_MISMATCH,
    REASON_ZV_ZERO,
    REASON_ALPHA_V_ZERO,
    REASON_ALPHA_ZV_ZERO,
    REASON_GRAM_MISMATCH,
    REASON_GRAM_NOT_ALTERNATING,
    REASON_GRAM_RANK,
    REASON_IMAGE_RANK_MISMATCH,
    REASON_IMAGE_RANK_LOW,
    REASON_BOUND_MISMATCH,
    REASON_BOUND_EXCEEDS_DIM,
)


@dataclass(frozen=True)
class LowerBoundCertificate:
    """Witness bundle concluding that the ambient dimension r is >= n+1.

    ``z`` is None for certificates read back from JSON; the verifier
    compares it only when it is carried.
    """

    field: FieldSpec
    n: int
    r: int
    v: tuple
    alpha: tuple
    z: Optional[tuple]  # of Matrix
    gram: Matrix
    image_rank: int
    concluded_bound: int


class VerificationResult(NamedTuple):
    ok: bool
    reasons: tuple

    def __bool__(self):
        return self.ok


def find_avoiding_vector(constraints: Sequence[Matrix], dim: int, field: FieldSpec) -> tuple:
    """Lexicographically first grid vector v with M v != 0 for every constraint.

    The grid is {0, 1, .., c}^dim with c = len(constraints).  A proper kernel
    meets at most a 1/(c+1) fraction of any digit line, so the union of the c
    kernels cannot cover the grid and the greedy digit-by-digit descent never
    needs to backtrack: a prefix is extendable iff no constraint vanishes
    identically on its subgrid, and every extendable prefix has an extendable
    child.  Over F_p the digits must be distinct field elements, hence the
    p > c precondition.

    The descent runs on the stored integers of each constraint, ``den``
    times it, which vanishes on the same vectors; over F_p the partial
    products are reduced mod p.  Only the chosen digits become field scalars.
    """
    if dim < 1:
        raise ValueError("dimension must be positive")
    c = len(constraints)
    p = field.characteristic
    if p is not None and p <= c:
        raise FieldTooSmallError(f"need p > {c} grid digits, got p = {p}")
    for k, m in enumerate(constraints):
        if m.cols != dim:
            raise ValueError(f"constraint {k} has {m.cols} columns, expected {dim}")
        if m.is_zero():
            raise ValueError(f"constraint {k} is the zero matrix")

    # last column (1-based) holding a nonzero entry, per constraint; rows are column-ordered
    last_nonzero = [max(row[-1][0] for row in m.nonzero_rows if row) + 1 for m in constraints]
    # columns[k][j]: the (row, stored integer) pairs of the nonzero entries of column j of constraint k
    columns = [m.transpose().nonzero_rows for m in constraints]

    # offsets[k]: den_k M_k times the chosen prefix padded with zeros
    offsets = [[0] * m.rows for m in constraints]
    chosen = []
    for col in range(1, dim + 1):
        for d in range(c + 1):
            trial = []
            ok = True
            for k in range(c):
                off = offsets[k]
                entries = columns[k][col - 1]
                if d and entries:
                    off = off.copy()
                    for i, x in entries:
                        y = off[i] + d * x
                        off[i] = y if p is None else y % p
                trial.append(off)
                if last_nonzero[k] <= col and not any(off):
                    ok = False
                    break
            if ok:
                offsets = trial
                chosen.append(d)
                break
        else:  # unreachable: the covering bound guarantees a digit
            raise AssertionError("grid descent found no extendable digit")
    return tuple(field.scalar(d) for d in chosen)


def _split_pairs(pairs) -> tuple:
    if not pairs:
        raise ValueError("need at least one pair")
    for k, pair in enumerate(pairs):
        if len(pair) != 2:
            raise ValueError(f"pair {k} is not a 2-tuple")
    return [a for a, _ in pairs], [b for _, b in pairs]


def _pairing(alpha_int, w, p) -> int:
    """alpha_int . w, reduced mod p over F_p: zero exactly when the form vanishes on w."""
    s = sum(map(mul, alpha_int, w))
    return s if p is None else s % p


def _gram_entries(basis, v_int, alpha_int, scale, field):
    """(gram, images): the Gram matrix alpha([x_i, x_j] v) and the integer images R_i.

    ``v_int`` and ``alpha_int`` are v and alpha times integers e and f, and
    ``scale`` is e f; over F_p they are the residues and every scale is 1.
    With X_i = den_i x_i the stored integers of x_i, the images are
    R_i = X_i v_int = den_i e x_i v and the forms are
    L_i = alpha_int^T X_i = den_i f alpha^T x_i, each read off the stored rows;
    over F_p each R_i is reduced mod p.  alpha([x, y] v) is
    (alpha^T x) . (y v) - (alpha^T y) . (x v), so entry (i, j) is
    (L_i . R_j - L_j . R_i) / (e f den_i den_j), and the Gram matrix is built
    from those integers over one common denominator, reduced mod p over F_p.
    The form is alternating as an identity, so each entry below the diagonal
    is the negated entry above it and the diagonal is zero.
    """
    p = field.characteristic
    images = [_row_sums(m.nonzero_rows, v_int, p) for m in basis]
    forms = []
    for m in basis:
        left = [0] * m.cols
        for a, row in zip(alpha_int, m.nonzero_rows):
            if a:
                for j, x in row:
                    left[j] += a * x
        forms.append(_nonzero_row(left))
    # cols[j][i] = L_i . R_j: the forms taken as the rows of one matrix, applied to R_j
    cols = [_row_sums(forms, image, None) for image in images]
    # entry (i, j) over den = e f lcm(den_i)^2 is the integer g (lcm / den_i) (lcm / den_j)
    lcm = math.lcm(*(m.den for m in basis))
    spread = [lcm // m.den for m in basis]
    size = len(basis)
    rows = [[] for _ in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            g = cols[j][i] - cols[i][j]
            g = g * spread[i] * spread[j] if p is None else g % p
            if g:
                rows[i].append((j, g))
                rows[j].append((i, -g if p is None else p - g))
    gram = Matrix._sparse(field, size, size, tuple(map(tuple, rows)), scale * lcm * lcm)
    return gram, images


def _commutator_image(a: Matrix, b: Matrix, image_a: list, image_b: list, p) -> list:
    """den_a den_b e z v for z = [a, b], from the images R_a = A v_int and R_b = B v_int.

    With A = den_a a and B = den_b b the stored integers and v_int = e v,
    A R_b - B R_a = den_a den_b e (ab - ba) v: two row sums, and no
    commutator.  Over F_p the entries are reduced mod p.
    """
    left, right = _row_sums(a.nonzero_rows, image_b, p), _row_sums(b.nonzero_rows, image_a, p)
    if p is None:
        return [x - y for x, y in zip(left, right)]
    return [(x - y) % p for x, y in zip(left, right)]


def build_certificate(pairs: Sequence) -> LowerBoundCertificate:
    """Construct the full certificate for pairs realizing the matching pattern."""
    a_list, b_list = _split_pairs(pairs)
    n = len(a_list)
    assignment = Assignment(tuple(a_list + b_list))
    field, r = assignment.field, assignment.dimension
    if field.is_prime_field and field.characteristic <= 2 * n + 1:
        raise FieldTooSmallError(
            f"certificate construction needs p > {2 * n + 1}, got p = {field.characteristic}"
        )

    check = realizes(assignment, matching_graph(n))
    if not check.ok:
        worst = check.violations[0]
        raise PatternViolationError(
            f"pairs do not realize the {n}-pair matching pattern; "
            f"first violating pair ({worst.u}, {worst.v})"
        )

    z = tuple(commutator(a, b) for a, b in zip(a_list, b_list))
    v = find_avoiding_vector(list(z), r, field)
    p = field.characteristic
    v_int, e = _integer_vector(v, p)
    # alpha must not vanish on v or on any z_i v; scaled rows vanish on the same forms
    dual = [v_int] + [_row_sums(zi.nonzero_rows, v_int, p) for zi in z]
    alpha = find_avoiding_vector([Matrix._sparse(field, 1, r, (_nonzero_row(w),)) for w in dual], r, field)
    alpha_int, f = _integer_vector(alpha, p)

    gram, images = _gram_entries(a_list + b_list, v_int, alpha_int, e * f, field)
    # v_int and each R_i are v and x_i v times nonzero integers, so they span the same space
    image_rank = len(_reduced_form([v_int] + images, r, p)[1])

    cert = LowerBoundCertificate(
        field=field,
        n=n,
        r=r,
        v=v,
        alpha=alpha,
        z=z,
        gram=gram,
        image_rank=image_rank,
        concluded_bound=n + 1,
    )
    # both hold for every matching-pattern input; a failure here is a bug
    assert rank(gram) == 2 * n, "gram matrix unexpectedly singular"
    assert image_rank >= n + 1, "image rank fell below the guaranteed bound"
    return cert


def verify_certificate(cert: LowerBoundCertificate, pairs: Sequence) -> VerificationResult:
    """Recompute every invariant from the raw pairs, and none from the builder's results.

    Each z_i v is taken from the images R_i = X_i v_int that
    ``_gram_entries`` returns with the Gram matrix, as A_i R_{b_i} - B_i R_{a_i}
    (see ``_commutator_image``), so no r x r commutator is needed to decide
    ``zv_zero`` and ``alpha_zv_zero``.  z_i is formed only to decide
    ``z_zero`` for a pair whose z_i v vanishes, since z_i v != 0 already
    shows z_i != 0, and for every pair when the certificate carries z (one
    built in memory), to compare it.

    The code is not independent of the builder: both call ``_gram_entries``,
    ``_row_sums``, ``_reduced_form`` and ``rank``, and ``commutator`` where
    the verifier forms one, so a fault in one of those would reach both sides.
    """
    reasons = []
    try:
        a_list, b_list = _split_pairs(pairs)
    except ValueError:
        return VerificationResult(False, (REASON_N_MISMATCH,))
    n = len(a_list)
    field, r = a_list[0].field, a_list[0].rows

    if cert.n != n:
        reasons.append(REASON_N_MISMATCH)
    if cert.field != field or any(m.field != field for m in a_list + b_list):
        reasons.append(REASON_FIELD_MISMATCH)
    if cert.r != r or any(
        (not m.is_square) or m.rows != r for m in a_list + b_list
    ):
        reasons.append(REASON_R_MISMATCH)
    if len(cert.v) != r:
        reasons.append(REASON_V_LENGTH)
    if len(cert.alpha) != r:
        reasons.append(REASON_ALPHA_LENGTH)
    if reasons:
        return VerificationResult(False, tuple(reasons))

    p = field.characteristic
    v_int, e = _integer_vector(cert.v, p)
    alpha_int, f = _integer_vector(cert.alpha, p)
    expected_gram, images = _gram_entries(a_list + b_list, v_int, alpha_int, e * f, field)
    zv = [_commutator_image(a, b, ra, rb, p) for a, b, ra, rb in zip(a_list, b_list, images, images[n:])]
    vanishing = [i for i, w in enumerate(zv) if not any(w)]
    z = {i: commutator(a_list[i], b_list[i]) for i in (vanishing if cert.z is None else range(n))}
    if any(z[i].is_zero() for i in vanishing):
        reasons.append(REASON_Z_ZERO)
    if cert.z is not None and (len(cert.z) != n or any(s != zi for s, zi in zip(cert.z, z.values()))):
        reasons.append(REASON_Z_MISMATCH)
    if vanishing:
        reasons.append(REASON_ZV_ZERO)
    if not _pairing(alpha_int, v_int, p):
        reasons.append(REASON_ALPHA_V_ZERO)
    if any(not _pairing(alpha_int, w, p) for w in zv):
        reasons.append(REASON_ALPHA_ZV_ZERO)

    if cert.gram.rows != 2 * n or cert.gram.cols != 2 * n or cert.gram.field != field:
        reasons.append(REASON_GRAM_MISMATCH)
    else:
        if cert.gram != expected_gram:
            reasons.append(REASON_GRAM_MISMATCH)
        gram = cert.gram
        # -G = G^T leaves a nonzero diagonal possible only in characteristic 2
        alternating = gram.transpose() == -gram and not any(
            j == i for i, row in enumerate(gram.nonzero_rows) for j, _ in row
        )
        if not alternating:
            reasons.append(REASON_GRAM_NOT_ALTERNATING)
        if rank(cert.gram) != 2 * n:
            reasons.append(REASON_GRAM_RANK)

    image_rank = len(_reduced_form([v_int] + images, r, p)[1])
    if cert.image_rank != image_rank:
        reasons.append(REASON_IMAGE_RANK_MISMATCH)
    if image_rank < n + 1:
        reasons.append(REASON_IMAGE_RANK_LOW)
    if cert.concluded_bound != n + 1:
        reasons.append(REASON_BOUND_MISMATCH)
    if cert.concluded_bound > r:
        reasons.append(REASON_BOUND_EXCEEDS_DIM)

    return VerificationResult(not reasons, tuple(reasons))


# -- JSON ----------------------------------------------------------------------

# Certificate schema: {"field":, "n":, "r":, "v":, "alpha":, "gram":,
#                      "image_rank":, "bound":}; the commutators are not
# serialized, the verifier recomputes each z_i v from the pairs.


def certificate_to_json(cert: LowerBoundCertificate) -> dict:
    f = cert.field
    return {
        "field": f.name(),
        "n": cert.n,
        "r": cert.r,
        "v": [scalar_to_json(x, f) for x in cert.v],
        "alpha": [scalar_to_json(x, f) for x in cert.alpha],
        "gram": _json_rows(cert.gram),
        "image_rank": cert.image_rank,
        "bound": cert.concluded_bound,
    }


def certificate_from_json(doc, path: str = "certificate") -> LowerBoundCertificate:
    json_object(doc, ("field", "n", "r", "v", "alpha", "gram", "image_rank", "bound"), "certificate", path)
    field = field_from_json(doc["field"], f"{path}.field")
    n = json_int(doc["n"], 1, f"{path}.n")
    r, image_rank, bound = (
        json_int(doc[key], 0, f"{path}.{key}") for key in ("r", "image_rank", "bound")
    )
    for key in ("v", "alpha"):  # the first fault reported: both shapes, then their scalars
        json_list(doc[key], f"{path}.{key}")
    v, alpha = (scalars_from_json(doc[key], field, f"{path}.{key}") for key in ("v", "alpha"))
    gram_rows = json_list(doc["gram"], f"{path}.gram", 2 * n)
    for i, row in enumerate(gram_rows):  # likewise every row's shape before any Gram scalar
        json_list(row, f"{path}.gram[{i}]", 2 * n)
    entries = [x for i, row in enumerate(gram_rows) for x in scalars_from_json(row, field, f"{path}.gram[{i}]")]
    gram = Matrix(field, 2 * n, 2 * n, entries)
    return LowerBoundCertificate(
        field=field,
        n=n,
        r=r,
        v=v,
        alpha=alpha,
        z=None,
        gram=gram,
        image_rank=image_rank,
        concluded_bound=bound,
    )


def pairs_from_assignment(assignment: Assignment) -> list:
    """Split an assignment (a_1..a_n, b_1..b_n) into pairs; an odd length raises ``InvalidArgumentError``."""
    m = len(assignment)
    if m % 2:
        raise InvalidArgumentError("assignment length must be even to form pairs")
    n = m // 2
    return [(assignment.matrices[i], assignment.matrices[n + i]) for i in range(n)]
