"""Module splitting: spins, composition series, the counting chain."""

import random
import time
from itertools import accumulate

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commrep import modsplit
from commrep.errors import GuardError
from commrep.exactla import GF, block_diagonal, identity, inverse, is_invertible, matrix_from_rows
from commrep.modsplit import (
    DIM_CAP,
    SPLIT_BUDGET,
    VERDICT_PRECONDITION_FAILED,
    VERDICT_SATISFIED,
    ModuleSpec,
    composition_factor_dims,
    counting_chain_check,
    is_triangularizable,
    report_to_json,
    spin,
)
from commrep.witness import product_block_embedding

F2 = GF(2)


def _s3_module():
    # permutation matrices for the 3-cycle (123) and the transposition (12)
    rot = matrix_from_rows(F2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
    swap = matrix_from_rows(F2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    return ModuleSpec(F2, 3, (rot, swap))


def _unipotent_module():
    return ModuleSpec(F2, 2, (matrix_from_rows(F2, [[1, 1], [0, 1]]),))


def _order3_module():
    return ModuleSpec(F2, 2, (matrix_from_rows(F2, [[0, 1], [1, 1]]),))


def test_module_spec_validation():
    with pytest.raises(ValueError):
        ModuleSpec(F2, 2, (matrix_from_rows(F2, [[1, 0], [1, 0]]),))  # singular
    from commrep.exactla import QQ

    with pytest.raises(ValueError):
        ModuleSpec(QQ, 2, (identity(2, QQ),))


def test_spin_examples():
    spec = _unipotent_module()
    assert spin((1, 0), spec) == ((1, 0),)
    assert spin((0, 1), spec) == ((1, 0), (0, 1))
    ident = ModuleSpec(F2, 3, (identity(3, F2),))
    assert spin((1, 1, 0), ident) == ((1, 1, 0),)
    with pytest.raises(ValueError):
        spin((0, 0), spec)


def test_spin_output_is_invariant_under_generators():
    spec = _s3_module()
    basis = spin((1, 0, 0), spec)
    span = set(basis)
    # closure: g . (basis vector) reduces to zero against the basis
    p = 2
    for g in spec.generators:
        for w in basis:
            img = [sum(x * y for x, y in zip(row, w)) % p for row in g.rows_list()]
            for row in basis:
                pc = next(j for j, x in enumerate(row) if x)
                if img[pc] % p:
                    img = [(x - img[pc] * y) % p for x, y in zip(img, row)]
            assert not any(img)
    assert span  # sanity


def _companion_f2(exponents, degree):
    """Companion matrix over F_2 of x^degree + sum of x^e for e in ``exponents``."""
    return matrix_from_rows(
        F2,
        [[int(i == j + 1) if j < degree - 1 else int(i in exponents) for j in range(degree)] for i in range(degree)],
    )


def test_minimal_invariant_subspace_examples():
    # the only invariant line of the S3 permutation module is spanned by (1, 1, 1)
    report = composition_factor_dims(_s3_module())
    assert sorted(report.factor_dims) == [1, 2]
    if report.factor_dims[0] == 1:
        assert report.flag_basis.transpose().rows_list()[0] == [1, 1, 1]
    assert composition_factor_dims(_order3_module()).factor_dims == (2,)
    ident = ModuleSpec(F2, 2, (identity(2, F2),))
    assert composition_factor_dims(ident).factor_dims == (1, 1)


def test_guard_refuses_large_enumeration(monkeypatch):
    over_cap = ModuleSpec(F2, DIM_CAP + 1, (identity(DIM_CAP + 1, F2),))
    # x^20 + x^3 + 1 is irreducible over F_2, so its companion matrix spans a field:
    # no theta before theta = 0 has a kernel, and V has 2^20 - 1 points to spin
    field_module = ModuleSpec(F2, 20, (_companion_f2({0, 3}, 20),))
    spins = []

    def counted_spin(vector, spec):
        spins.append(vector)
        return spin(vector, spec)

    monkeypatch.setattr(modsplit, "spin", counted_spin)
    for spec in (over_cap, field_module):
        spins.clear()
        start = time.process_time()
        with pytest.raises(GuardError):
            composition_factor_dims(spec)
        assert time.process_time() - start < 0.5
        assert len(spins) <= SPLIT_BUDGET  # the budget, not the host's speed, ends the split


def test_triangularizability_refuses_over_cap_before_any_kernel(monkeypatch):
    spec = ModuleSpec(F2, DIM_CAP + 1, (identity(DIM_CAP + 1, F2),))

    def no_kernel(*args):
        raise AssertionError("a kernel was computed")

    monkeypatch.setattr(modsplit, "_null_space", no_kernel)
    with pytest.raises(GuardError):
        is_triangularizable(spec)


def test_triangularizability_stops_at_a_plane_before_a_refused_field():
    # an F_4 plane, then the degree-20 field of the refusal above: the plane is the
    # first factor, so the answer is proven before the field's 2^20 - 1 points are spun
    spec = ModuleSpec(F2, 22, (block_diagonal([_companion_f2({0, 1}, 2), _companion_f2({0, 3}, 20)]),))
    with pytest.raises(GuardError):
        composition_factor_dims(spec)
    assert is_triangularizable(spec) is False


@st.composite
def _small_modules(draw):
    """Invertible generators over F_2 or F_3 in dimension at most 5.

    Either upper triangular ones conjugated by one change of basis, so the
    module is triangularizable, or products P L U of a permutation and
    random unitriangular and invertible triangular matrices.
    """
    p = draw(st.sampled_from([2, 3]))
    d = draw(st.integers(1, 5))
    field = GF(p)
    residue, unit = st.integers(0, p - 1), st.integers(1, p - 1)

    def triangular(diagonal, upper):
        return matrix_from_rows(
            field,
            [[draw(diagonal) if i == j else draw(residue) if (j > i) == upper else 0 for j in range(d)]
             for i in range(d)],
        )

    def invertible():
        perm = draw(st.permutations(range(d)))
        p_matrix = matrix_from_rows(field, [[int(j == perm[i]) for j in range(d)] for i in range(d)])
        return p_matrix @ triangular(st.just(1), False) @ triangular(unit, True)

    count = draw(st.integers(1, 3))
    if draw(st.booleans()):
        change = invertible()
        gens = tuple(inverse(change) @ triangular(unit, True) @ change for _ in range(count))
    else:
        gens = tuple(invertible() for _ in range(count))
    return ModuleSpec(field, d, gens)


@settings(max_examples=100, deadline=None)
@given(_small_modules())
def test_triangularizable_iff_every_factor_is_a_line(spec):
    try:
        report = composition_factor_dims(spec)
    except GuardError:
        return  # no full series to compare with
    assert is_triangularizable(spec) == all(d == 1 for d in report.factor_dims)


def test_composition_factors_s3():
    report = composition_factor_dims(_s3_module())
    assert sorted(report.factor_dims) == [1, 2]
    assert report.series == (0, *accumulate(report.factor_dims))
    assert report.base_field_only is True
    assert is_invertible(report.flag_basis)


def test_composition_factors_unipotent():
    report = composition_factor_dims(_unipotent_module())
    assert report.factor_dims == (1, 1)
    assert report.series == (0, 1, 2)
    assert is_triangularizable(_unipotent_module()) is True


def test_composition_factors_identities():
    spec = ModuleSpec(F2, 3, (identity(3, F2),))
    report = composition_factor_dims(spec)
    assert report.factor_dims == (1, 1, 1)


def test_flag_basis_exhibits_block_triangular_form():
    spec = _s3_module()
    report = composition_factor_dims(spec)
    flag_inv = inverse(report.flag_basis)
    for g in spec.generators:
        c = (flag_inv @ g @ report.flag_basis).rows_list()
        for start, end in zip(report.series, report.series[1:]):
            for i in range(end + 1, spec.dim + 1):
                for j in range(start + 1, end + 1):
                    assert c[i - 1][j - 1] == 0


def test_irreducible_module_not_triangularizable():
    assert is_triangularizable(_order3_module()) is False
    assert is_triangularizable(_s3_module()) is False
    assert is_triangularizable(ModuleSpec(F2, 2, (identity(2, F2),))) is True


def test_full_gl2_f2_not_triangularizable():
    # the swap and shear generate all of GL_2(F_2), which permutes the three
    # nonzero vectors transitively: no invariant line, one 2-dim factor
    swap = matrix_from_rows(F2, [[0, 1], [1, 0]])
    shear = matrix_from_rows(F2, [[1, 1], [0, 1]])
    spec = ModuleSpec(F2, 2, (swap, shear))
    assert composition_factor_dims(spec).factor_dims == (2,)
    assert is_triangularizable(spec) is False


def test_factor_dims_invariant_under_basis_change():
    rng = random.Random(23)
    spec = _s3_module()
    base = sorted(composition_factor_dims(spec).factor_dims)
    for _ in range(25):
        while True:
            cand = matrix_from_rows(
                F2, [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
            )
            if is_invertible(cand):
                break
        cand_inv = inverse(cand)
        conj = ModuleSpec(F2, 3, tuple(cand_inv @ g @ cand for g in spec.generators))
        assert sorted(composition_factor_dims(conj).factor_dims) == base


def test_field_blocks_are_irreducible():
    # F_4 and F_9 blocks: irreducible, but every theta with a kernel has a 2-dim one
    f3 = GF(3)
    f4 = ModuleSpec(F2, 2, (_companion_f2({0, 1}, 2),))
    f9 = ModuleSpec(f3, 2, (matrix_from_rows(f3, [[0, 2], [1, 0]]),))  # x^2 + 1
    assert composition_factor_dims(f4).factor_dims == (2,)
    assert composition_factor_dims(f9).factor_dims == (2,)
    assert composition_factor_dims(ModuleSpec(F2, 6, (_companion_f2({0, 1}, 6),))).factor_dims == (6,)


def test_direct_sum_splits_in_every_basis():
    # trivial + natural module of GL_2(F_2): theta = g - I kills a line in each summand,
    # and in some bases the first kernel vector, and the first of ker theta^T, lie in neither
    g = matrix_from_rows(F2, [[1, 0, 0], [0, 0, 1], [0, 1, 0]])
    h = matrix_from_rows(F2, [[1, 0, 0], [0, 0, 1], [0, 1, 1]])
    for entries in range(2**9):
        change = matrix_from_rows(F2, [[entries >> (3 * i + j) & 1 for j in range(3)] for i in range(3)])
        if is_invertible(change):
            spec = ModuleSpec(F2, 3, (inverse(change) @ g @ change, inverse(change) @ h @ change))
            assert sorted(composition_factor_dims(spec).factor_dims) == [1, 2]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_sl2_f5_power_splits_into_planes(n):
    # the block embedding of SL_2(F_5)^n, beyond the old p^dim <= 100 enumeration
    f5 = GF(5)
    sl2 = [matrix_from_rows(f5, [[1, 1], [0, 1]]), matrix_from_rows(f5, [[0, 4], [1, 0]])]
    spec = ModuleSpec(f5, 2 * n, tuple(product_block_embedding([sl2] * n)))
    start = time.process_time()
    report = composition_factor_dims(spec)
    assert time.process_time() - start < 1.0
    assert report.factor_dims == (2,) * n


def _module(p, generators):
    field = GF(p)
    return ModuleSpec(field, len(generators[0]), tuple(matrix_from_rows(field, g) for g in generators))


# planted block-upper-triangular modules, each conjugated by a fixed change of basis.  Both take
# both splitting branches of _submodule: the whole module splits on a spun submodule, and a
# 3-dimensional piece of it on an annihilator kernel; every other piece is irreducible.
_PLANTED_F2 = _module(2, [
    [[1, 0, 0, 1, 1], [1, 1, 0, 1, 1], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1], [0, 1, 0, 0, 1]],
    [[1, 0, 1, 1, 1], [1, 1, 1, 1, 1], [1, 1, 0, 0, 0], [1, 1, 0, 0, 1], [0, 1, 1, 0, 1]],
])
_PLANTED_F3 = _module(3, [
    [[1, 1, 2, 2], [1, 0, 0, 1], [1, 0, 0, 0], [1, 0, 2, 0]],
    [[0, 0, 2, 0], [2, 2, 1, 0], [1, 1, 0, 1], [2, 0, 1, 2]],
])


def _report_doc(p, factor_dims, series, flag_entries):
    d = series[-1]
    return {
        "factor_dims": factor_dims,
        "series": series,
        "flag_basis": {"field": f"Fp:{p}", "rows": d, "cols": d, "entries": [str(x) for x in flag_entries]},
        "base_field_only": True,
    }


@pytest.mark.parametrize(
    "spec, expected",
    [
        (_s3_module(), _report_doc(2, [1, 2], [0, 1, 3], [1, 0, 0, 1, 1, 0, 1, 0, 1])),
        (_PLANTED_F2, _report_doc(2, [2, 1, 2], [0, 2, 3, 5], [1, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0,
                                                               1, 1, 0, 1, 0, 1, 0, 0, 0, 1])),
        (_PLANTED_F3, _report_doc(3, [1, 2, 1], [0, 1, 3, 4], [1, 0, 0, 0, 1, 1, 0, 0, 1, 0, 1, 0, 0, 2, 0, 1])),
    ],
    ids=["s3", "planted-f2", "planted-f3"],
)
def test_split_output_is_pinned(spec, expected):
    # the flag basis, the series and the factor order, not only the multiset of dimensions
    assert report_to_json(composition_factor_dims(spec)) == expected


def test_non_invariant_submodule_fails_the_split_check(monkeypatch):
    # span{e_1} is not invariant: the 3-cycle moves e_1 to e_2
    def first_split_on_a_line(piece, budget, first, submodule=modsplit._submodule):
        return (((1, 0, 0),), first) if piece.dim == 3 else submodule(piece, budget, first)

    monkeypatch.setattr(modsplit, "_submodule", first_split_on_a_line)
    with pytest.raises(AssertionError, match="submodule basis failed to block-triangularize"):
        composition_factor_dims(_s3_module())


def _results(spec):
    """What the library says about ``spec``: the report (or a refusal) and triangularizability."""
    try:
        report = report_to_json(composition_factor_dims(spec))
    except GuardError:
        report = None
    try:
        return report, is_triangularizable(spec)
    except GuardError:
        return report, None


def _assert_resumed_walk_agrees(spec):
    resumed = _results(spec)
    submodule = modsplit._submodule
    with pytest.MonkeyPatch.context() as monkeypatch:
        # every piece walks the thetas from position 0, as if its parent had proven nothing
        monkeypatch.setattr(modsplit, "_submodule", lambda piece, budget, first: submodule(piece, budget, 0))
        restarted = _results(spec)
    # the resumed walk takes a subset of the restarted walk's kernels, so it refuses no more
    for mine, theirs in zip(resumed, restarted):
        assert mine == theirs or theirs is None


@pytest.mark.parametrize("spec", [_s3_module(), _PLANTED_F2, _PLANTED_F3], ids=["s3", "planted-f2", "planted-f3"])
def test_resumed_walk_matches_a_restarted_walk_on_pinned_modules(spec):
    _assert_resumed_walk_agrees(spec)


@settings(max_examples=100, deadline=None)
@given(_small_modules())
def test_resumed_walk_matches_a_restarted_walk(spec):
    _assert_resumed_walk_agrees(spec)


@pytest.mark.parametrize(
    "spec, kernels", [(_s3_module(), 4), (_PLANTED_F2, 10), (_PLANTED_F3, 8)], ids=["s3", "planted-f2", "planted-f3"]
)
def test_walk_skips_kernels_known_to_be_zero(monkeypatch, spec, kernels):
    # a piece resumes at the theta its parent split on, and no invertible word gets lambda = 0:
    # a walk that restarted every piece and took lambda = 0 everywhere took 7, 16 and 13 kernels
    invertible, lam = [], []
    submodule, thetas, null_space = modsplit._submodule, modsplit._thetas, modsplit._null_space

    def noted_submodule(piece, budget, first):
        gens = piece.generators
        invertible[:] = [g.rows_list() for g in gens] + [(g @ h).rows_list() for g in gens for h in gens]
        return submodule(piece, budget, first)

    def noted_thetas(piece, first):
        for at, theta in thetas(piece, first):
            lam[:] = [at % piece.field.characteristic]
            yield at, theta

    def counted_null_space(rows, width, p):
        rows = [list(row) for row in rows]
        assert lam != [0] or rows not in invertible, "a kernel was taken at lambda = 0 on an invertible word"
        calls.append(rows)
        return null_space(rows, width, p)

    monkeypatch.setattr(modsplit, "_submodule", noted_submodule)
    monkeypatch.setattr(modsplit, "_thetas", noted_thetas)
    monkeypatch.setattr(modsplit, "_null_space", counted_null_space)
    calls = []
    composition_factor_dims(spec)
    assert len(calls) == kernels


def test_pieces_do_not_rewalk_a_large_prime():
    # one bidiagonal generator over F_211 with eigenvalues 95..99: each piece resumes at the
    # eigenvalue its parent split on instead of taking the kernels of lambda = 1..94 again
    f211 = GF(211)
    g = matrix_from_rows(f211, [[95 + i if i == j else int(j == i + 1) for j in range(5)] for i in range(5)])
    report = composition_factor_dims(ModuleSpec(f211, 5, (g,)))
    assert report_to_json(report) == _report_doc(211, [1] * 5, [0, 1, 2, 3, 4, 5], identity(5, f211).entries)


def test_factors_out_of_order_fail_the_flag_check():
    spec = _s3_module()
    factors = list(modsplit._factor_chain(spec))
    assert [dim for dim, _ in factors] == [1, 2]
    with pytest.raises(AssertionError, match="flag basis is not block-upper-triangular"):
        modsplit._verified_report(spec, factors[::-1])


# -- counting chain ---------------------------------------------------------------


def test_chain_single_row_all_two():
    check = counting_chain_check([[2, 2]])
    assert check.verdict == VERDICT_SATISFIED
    assert (check.sum_products, check.sum_powers, check.sum_doubled, check.floor) == (
        4,
        4,
        4,
        4,
    )
    assert check.chain_holds


def test_chain_two_rows():
    check = counting_chain_check([[1, 2], [2, 1]])
    assert check.verdict == VERDICT_SATISFIED
    assert (check.sum_products, check.sum_powers, check.sum_doubled, check.floor) == (
        4,
        4,
        4,
        4,
    )


def test_chain_uncovered_column_fails_precondition():
    check = counting_chain_check([[1, 2]])
    assert check.verdict == VERDICT_PRECONDITION_FAILED
    assert check.failed_columns == (1,)


def test_chain_rejects_bad_entries():
    with pytest.raises(ValueError):
        counting_chain_check([[0, 2]])
    with pytest.raises(ValueError):
        counting_chain_check([[2, 2], [2]])


@settings(max_examples=100)
@given(
    st.lists(
        st.lists(st.integers(min_value=1, max_value=5), min_size=2, max_size=4),
        min_size=1,
        max_size=5,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1)
)
def test_chain_first_inequality_always_holds(rows):
    # sum of products dominates sum of 2^|S_j| whenever all entries are >= 1
    check = counting_chain_check(rows)
    assert check.sum_products >= check.sum_powers
    assert check.sum_powers >= check.sum_doubled
    if check.verdict == VERDICT_SATISFIED:
        assert check.chain_holds
