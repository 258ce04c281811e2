"""Module decomposition over prime fields by Norton's irreducibility test.

A module is given by invertible generator matrices acting on F_p^d.  Each
step of the composition series is a deterministic MeatAxe: Parker's, with
Norton's irreducibility test as in Holt and Rees, "Testing modules for
irreducibility" (1994).

* Walk a fixed list of algebra elements theta = w - lambda*I, where w runs
  over the generators, their pairwise sums, their products, and their
  products plus a generator, and lambda over F_p; the list ends with
  theta = 0.  Take the first theta with a nonzero kernel.  A generator and
  a product of two generators are invertible, so their lambda starts at 1.
* Spin every projective point of ker theta (first nonzero coefficient 1).
  A proper result is a submodule.
* Otherwise spin one vector u of ker theta^T under the transposed
  generators.  If that gives the whole space, the module is irreducible: a
  proper submodule U that misses ker theta has theta(U) = U inside
  im theta, so u and everything it spins to annihilate U.  If it gives a
  proper space W, the annihilator of W is a proper submodule.

Every kernel point is spun, not just one, and the list ends with theta = 0,
because a module can be irreducible without being absolutely irreducible:
with endomorphism field F_{p^e}, e > 1, no theta has a one-dimensional
kernel.  Two-dimensional modules over F_2 and F_3 often have an F_4 or F_9
endomorphism field, and a lone companion matrix of an irreducible
polynomial spans a field of its own.

A submodule splits the module into itself and the quotient, whose actions
are read off the submodule's reduced echelon basis, with no change of basis.
Both are split again, from an explicit stack, and the basis vectors of the
irreducible pieces, in order, form the flag basis.  Each piece resumes the
walk at the theta its parent split on.  The actions on a submodule and on a
quotient are algebra homomorphisms, so in a basis through the submodule
each theta of the parent is block triangular, with the same theta of the two
pieces on its diagonal.  Its determinant is the product of theirs, so a
theta with a zero kernel on the parent has a zero kernel on both pieces, and
a piece's walk meets the same first theta with a nonzero kernel as a walk
from the start.  A module above ``DIM_CAP``, or a module whose whole
chain of splits needs more than ``SPLIT_BUDGET`` kernels and spins, ends
with ``GuardError``, never with a verdict; thetas that are skipped are not
charged.

The MeatAxe works on residue rows: each theta is a list of dense rows, its
kernel comes from the one elimination routine of ``exactla``, and ``spin``
applies the generators' stored rows directly and stops once the span is the
whole space.  ``is_triangularizable`` walks the same chain of factors but
stops at the first factor of dimension above 1, so it can prove False on a
module whose full series would need more than ``SPLIT_BUDGET``.

Factors are computed over the base field only (a factor irreducible here
may split over an extension) and every report carries that marker.

``counting_chain_check`` is the arithmetic side of the dimension bound for
products of non-solvable groups: given the table of per-factor constituent
dimensions inside each composition factor, it checks that every factor goes
non-triangular somewhere and evaluates the chain

    sum_j prod_i dims[j][i]  >=  sum_j 2^|S_j|  >=  sum_j 2|S_j|  >=  2n,

with S_j the set of columns where row j has an entry >= 2.
"""

from __future__ import annotations

from bisect import bisect
from itertools import accumulate
from math import prod
from typing import NamedTuple, Sequence

from .errors import GuardError, SchemaError, json_int, json_list, json_object
from .exactla import (
    FieldSpec,
    Matrix,
    _insert_row,
    _integer_dense_rows,
    _nonzero_row,
    _null_space,
    _reduced_form,
    _row_sums,
    _Value,
    field_from_json,
    identity,
    inverse,
    is_invertible,
    matrix_from_json,
    matrix_to_json,
)

DIM_CAP = 32  # largest module dimension split
SPLIT_BUDGET = 300  # kernels of candidate thetas plus spins the splits of one module may make

VERDICT_SATISFIED = "satisfied"
VERDICT_PRECONDITION_FAILED = "precondition_failed"


class ModuleSpec(_Value):
    """Invertible generators acting on F_p^dim."""

    _fields = ("field", "dim", "generators")

    def __init__(self, field: FieldSpec, dim: int, generators: tuple):
        if not field.is_prime_field:
            raise ValueError("module splitting works over prime fields only")
        if dim < 1:
            raise ValueError("dimension must be positive")
        if not generators:
            raise ValueError("need at least one generator")
        for g in generators:
            if not isinstance(g, Matrix) or g.field != field:
                raise ValueError("generators must share the module's field")
            if not g.is_square or g.rows != dim:
                raise ValueError("generators must be square of the module dimension")
            if not is_invertible(g):
                raise ValueError("generators must be invertible")
        self.__dict__.update(field=field, dim=dim, generators=generators)


class CompositionReport(NamedTuple):
    factor_dims: tuple  # block sizes in series order; multiset is basis-independent
    series: tuple  # 0 = d_0 < d_1 < ... < d_s = dim
    flag_basis: Matrix  # columns are the new basis; conjugation is block-upper-triangular
    base_field_only: bool = True


def spin(vector: Sequence[int], spec: ModuleSpec) -> tuple:
    """Canonical RREF basis of the smallest invariant subspace containing ``vector``.

    A piece met while splitting is a ``ModuleSpec`` built by ``_make``: its
    generators are invertible generators acting on a submodule or quotient,
    or their transposes, so they are not checked again.  Each generator image
    is one ``_row_sums`` of the generator's stored residue rows.
    """
    p, dim = spec.field.characteristic, spec.dim
    vec = [x % p for x in vector]
    if len(vec) != dim:
        raise ValueError("vector length does not match the module dimension")
    if not any(vec):
        raise ValueError("seed vector must be nonzero")
    generator_rows = [g.nonzero_rows for g in spec.generators]
    basis, pivots = [], []
    queue = [_insert_row(basis, pivots, vec, p)]
    while queue and len(pivots) < dim:
        w = queue.pop()
        for rows in generator_rows:
            reduced = _insert_row(basis, pivots, _row_sums(rows, w, p), p)
            if reduced is not None:
                queue.append(reduced)
                if len(pivots) == dim:
                    break  # the whole space, whose RREF basis is the identity
    return tuple(tuple(row) for row in basis)


class _Budget:
    """Kernels and spins left to the whole chain of splits of one module; running out is a ``GuardError``."""

    def __init__(self):
        self.left = SPLIT_BUDGET

    def charge(self):
        if not self.left:
            raise GuardError(f"splitting needs more than {SPLIT_BUDGET} kernels and spins")
        self.left -= 1


def _words(gens: tuple, first: int):
    """(index, invertible, word) for each word from index ``first`` on.

    The words are the generators, their pairwise sums, their products, then
    products plus a generator; a generator and a product of two are
    invertible.  A word before ``first`` is not formed.
    """
    n, t = len(gens), 0
    for a in gens:
        if t >= first:
            yield t, True, a
        t += 1
    for i, a in enumerate(gens):
        for b in gens[i + 1 :]:
            if t >= first:
                yield t, False, a + b
            t += 1
    for a in gens:
        for b in gens:
            if t >= first:
                yield t, True, a @ b
            t += 1
    for a in gens:
        for b in gens:
            if t + n > first:
                ab = a @ b
                for c in gens:
                    if t >= first:
                        yield t, False, ab + c
                    t += 1
            else:
                t += n


def _thetas(spec: ModuleSpec, first: int):
    """(position, residue rows) of each theta = w - lambda*I from position ``first`` on, then of 0.

    Word t of ``_words`` with lambda is at position t*p + lambda, and theta = 0
    at the position after them all.  A repeated word gives the same thetas and
    is skipped, and an invertible word has no kernel at lambda = 0.
    """
    d, p, n = spec.dim, spec.field.characteristic, len(spec.generators)
    seen = set()
    for t, invertible, w in _words(spec.generators, first // p):
        if w in seen:
            continue
        seen.add(w)
        rows = list(_integer_dense_rows(w))
        for lam in range(max(first - t * p, int(invertible)), p):
            theta = [[(x - lam) % p if i == j else x for j, x in enumerate(row)] for i, row in enumerate(rows)]
            yield t * p + lam, theta
    yield (n + n * (n - 1) // 2 + n**2 + n**3) * p, [[0] * d for _ in range(d)]


def _points(kernel: list, p: int):
    """Every projective point of span(kernel): first nonzero coefficient 1, in a fixed order."""
    for lead, head in enumerate(kernel):
        tail = kernel[lead + 1 :]
        for n in range(p ** len(tail)):
            v = list(head)
            for b in tail:
                n, c = divmod(n, p)
                if c:
                    v = [(x + c * y) % p for x, y in zip(v, b)]
            yield v


def _submodule(spec: ModuleSpec, budget: _Budget, first: int) -> tuple:
    """(reduced echelon basis of a proper nonzero submodule, or None if ``spec`` is irreducible, theta position).

    The walk starts at theta position ``first``: every theta before it is
    known to have a zero kernel on ``spec``.  The position returned is that
    of the theta used, the first from ``first`` on with a nonzero kernel.
    """
    d, p = spec.dim, spec.field.characteristic
    if d == 1:
        return None, first
    for at, theta in _thetas(spec, first):  # the last theta, 0, has kernel V
        budget.charge()
        kernel = _null_space(theta, d, p)
        if kernel:
            break
    for v in _points(kernel, p):
        budget.charge()
        sub = spin(v, spec)
        if len(sub) < d:
            return sub, at
    # so a proper submodule misses ker theta, lies in im theta, and is annihilated by
    # ker theta^T and by everything a vector of it spins to under the transposes
    dual = ModuleSpec._make(field=spec.field, dim=d, generators=tuple(g.transpose() for g in spec.generators))
    budget.charge()
    annihilated = spin(_null_space(zip(*theta), d, p)[0], dual)
    if len(annihilated) == d:
        return None, at
    return _reduced_form(_null_space(annihilated, d, p), d, p)[0], at


def _rows(m: Matrix, rows: Sequence[int]) -> Matrix:
    """The rows ``rows`` of ``m``, in that order."""
    return Matrix._sparse(m.field, len(rows), m.cols, tuple(m.nonzero_rows[i] for i in rows))


def _check_dim_cap(dim: int) -> None:
    if dim > DIM_CAP:
        raise GuardError(f"module dimension {dim} exceeds the cap {DIM_CAP}")


def _factor_chain(spec: ModuleSpec):
    """The irreducible factors of ``spec`` in series order: (dimension, basis rows in spec's coordinates)."""
    _check_dim_cap(spec.dim)
    field, d = spec.field, spec.dim
    budget = _Budget()
    # each piece is a module, its basis vectors as rows in the coordinates of spec, and the
    # position of the first theta whose kernel on it may be nonzero
    stack = [(spec, identity(d, field), 0)]
    while stack:
        piece, vectors, first = stack.pop()
        sub, split_at = _submodule(piece, budget, first)
        if sub is None:
            yield piece.dim, vectors.nonzero_rows
            continue
        k, basis = piece.dim, tuple(_nonzero_row(row) for row in sub)
        pivots = [row[0][0] for row in basis]  # the first nonzero entry of each reduced row
        w, free = len(basis), [j for j in range(k) if j not in pivots]
        b = Matrix._sparse(field, w, k, basis)
        bt = b.transpose()
        images = [g @ bt for g in piece.generators]  # x in the submodule is sum_i x[pivots[i]] basis[i]
        actions = tuple(_rows(image, pivots) for image in images)
        assert all(m == bt @ u for m, u in zip(images, actions)), "submodule basis failed to block-triangularize"
        # the quotient is spanned by the unit vectors at the free columns F and acts by
        # g[F, F] - B^T[F, :] g[P, F]; one pass over g's rows keeps its columns F
        free_bt, column = _rows(bt, free), {j: n for n, j in enumerate(free)}
        quotient_actions = []
        for g in piece.generators:
            kept = tuple(tuple((column[j], x) for j, x in row if j in column) for row in g.nonzero_rows)
            g_free = Matrix._sparse(field, k, k - w, kept)
            quotient_actions.append(_rows(g_free, free) - free_bt @ _rows(g_free, pivots))
        submodule = ModuleSpec._make(field=field, dim=w, generators=actions)
        quotient = ModuleSpec._make(field=field, dim=k - w, generators=tuple(quotient_actions))
        # a theta with a zero kernel on the piece has one on both parts, so both resume at split_at
        stack.append((quotient, _rows(vectors, free), split_at))
        stack.append((submodule, b @ vectors, split_at))


def _verified_report(spec: ModuleSpec, factors: list) -> CompositionReport:
    """The report on the factors of the whole chain, its flag basis verified by conjugation."""
    dims = tuple(dim for dim, _ in factors)
    series = tuple(accumulate(dims, initial=0))
    flag_rows = tuple(row for _, rows in factors for row in rows)
    flag = Matrix._sparse(spec.field, spec.dim, spec.dim, flag_rows).transpose()
    flag_inv = inverse(flag)
    for g in spec.generators:
        c = flag_inv @ g @ flag
        # bisect(series, k) numbers the block holding 0-based index k
        assert all(
            bisect(series, i) <= bisect(series, j)
            for i, row in enumerate(c.nonzero_rows)
            for j, _ in row
        ), "flag basis is not block-upper-triangular"
    return CompositionReport(factor_dims=dims, series=series, flag_basis=flag)


def composition_factor_dims(spec: ModuleSpec) -> CompositionReport:
    """Full composition series with an explicit flag basis, verified by conjugation."""
    return _verified_report(spec, list(_factor_chain(spec)))


def is_triangularizable(spec: ModuleSpec) -> bool:
    """True iff every composition factor over the base field is one-dimensional.

    Stops at the first factor of dimension above 1; a True answer builds and
    verifies the flag basis as ``composition_factor_dims`` does.
    """
    factors = []
    for factor in _factor_chain(spec):
        if factor[0] > 1:
            return False
        factors.append(factor)
    _verified_report(spec, factors)
    return True


class CountCheck(NamedTuple):
    verdict: str
    failed_columns: tuple  # columns whose entries are all 1 (1-based)
    s_sets: tuple  # per row: columns with entry >= 2 (1-based)
    sum_products: int
    sum_powers: int
    sum_doubled: int
    floor: int  # 2n
    chain_holds: bool


def counting_chain_check(dims: Sequence[Sequence[int]]) -> CountCheck:
    """Check the product/power-sum chain on a t x n table of factor dimensions."""
    if not dims or not dims[0]:
        raise ValueError("table must be nonempty")
    n = len(dims[0])
    for row in dims:
        if len(row) != n:
            raise ValueError("table must be rectangular")
        for x in row:
            if isinstance(x, bool) or not isinstance(x, int) or x < 1:
                raise ValueError(f"entries must be positive integers, got {x!r}")
    s_sets = tuple(
        tuple(i + 1 for i, d in enumerate(row) if d >= 2) for row in dims
    )
    covered = set().union(*(set(s) for s in s_sets))
    failed = tuple(i for i in range(1, n + 1) if i not in covered)
    sum_products = sum(prod(row) for row in dims)
    sum_powers = sum(2 ** len(s) for s in s_sets)
    sum_doubled = sum(2 * len(s) for s in s_sets)
    floor = 2 * n
    chain_holds = sum_products >= sum_powers >= sum_doubled >= floor
    verdict = VERDICT_PRECONDITION_FAILED if failed else VERDICT_SATISFIED
    if verdict == VERDICT_SATISFIED:
        assert chain_holds, "chain must hold when every column is covered"
    return CountCheck(
        verdict=verdict,
        failed_columns=failed,
        s_sets=s_sets,
        sum_products=sum_products,
        sum_powers=sum_powers,
        sum_doubled=sum_doubled,
        floor=floor,
        chain_holds=chain_holds,
    )


# -- JSON -----------------------------------------------------------------------


def module_from_json(doc, path: str = "module") -> ModuleSpec:
    json_object(doc, ("field", "dim", "generators"), "module", path)
    field = field_from_json(doc["field"], f"{path}.field")
    dim = json_int(doc["dim"], 1, f"{path}.dim")
    gens = json_list(doc["generators"], f"{path}.generators", minimum=1)
    matrices = tuple(
        matrix_from_json(g, f"{path}.generators[{k}]") for k, g in enumerate(gens)
    )
    try:
        return ModuleSpec(field, dim, matrices)
    except ValueError as e:
        raise SchemaError(str(e), path) from None


def report_to_json(report: CompositionReport) -> dict:
    return {
        "factor_dims": list(report.factor_dims),
        "series": list(report.series),
        "flag_basis": matrix_to_json(report.flag_basis),
        "base_field_only": report.base_field_only,
    }


def count_check_to_json(check: CountCheck) -> dict:
    return {
        "verdict": check.verdict,
        "failed_columns": list(check.failed_columns),
        "s_sets": [list(s) for s in check.s_sets],
        "chain": {
            "sum_products": check.sum_products,
            "sum_powers": check.sum_powers,
            "sum_doubled": check.sum_doubled,
            "floor": check.floor,
        },
        "chain_holds": check.chain_holds,
    }


def dims_from_json(doc, path: str = "dims") -> list:
    json_object(doc, ("dims",), "dims table", path)
    table = json_list(doc["dims"], f"{path}.dims", minimum=1)
    width = None  # every row as long as the first
    for k, row in enumerate(table):
        json_list(row, f"{path}.dims[{k}]", length=width, minimum=1)
        width = len(row)
        for i, x in enumerate(row):
            json_int(x, 1, f"{path}.dims[{k}][{i}]")
    return table
