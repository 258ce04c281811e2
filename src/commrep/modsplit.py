"""Desk-scale module decomposition over small prime fields.

A module is given by invertible generator matrices acting on F_p^d.  The
composition series is found by spinning: the smallest invariant subspace
containing a vector is computed by closing it under the generators, every
minimal submodule is cyclic, and enumerating all nonzero seed vectors is
affordable at the guarded sizes (p^d <= 100, e.g. d <= 6 over F_2 and
d <= 4 over F_3).  Quotients are read off the lower-right blocks after a
change of basis that extends the submodule basis, which yields the full
flag basis for free.

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

import itertools
from bisect import bisect
from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

from .errors import GuardError, SchemaError, json_int, json_list, json_object
from .exactla import (
    FieldSpec,
    Matrix,
    _insert_row,
    block_diagonal,
    field_from_json,
    identity,
    inverse,
    is_invertible,
    matrix_from_json,
    matrix_from_rows,
    matrix_to_json,
)

SPIN_ENUM_CAP = 100  # largest p^dim whose vectors we enumerate (2^6, 3^4 fit)

VERDICT_SATISFIED = "satisfied"
VERDICT_PRECONDITION_FAILED = "precondition_failed"


@dataclass(frozen=True)
class ModuleSpec:
    """Invertible generators acting on F_p^dim."""

    field: FieldSpec
    dim: int
    generators: tuple

    def __post_init__(self):
        if not self.field.is_prime_field:
            raise ValueError("module splitting works over prime fields only")
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if not self.generators:
            raise ValueError("need at least one generator")
        for g in self.generators:
            if not isinstance(g, Matrix) or g.field != self.field:
                raise ValueError("generators must share the module's field")
            if not g.is_square or g.rows != self.dim:
                raise ValueError("generators must be square of the module dimension")
            if not is_invertible(g):
                raise ValueError("generators must be invertible")


@dataclass(frozen=True)
class CompositionReport:
    factor_dims: tuple  # block sizes in series order; multiset is basis-independent
    series: tuple  # 0 = d_0 < d_1 < ... < d_s = dim
    flag_basis: Matrix  # columns are the new basis; conjugation is block-upper-triangular
    base_field_only: bool = True


def _guard(spec: ModuleSpec):
    if spec.field.characteristic**spec.dim > SPIN_ENUM_CAP:
        raise GuardError(
            f"p^dim = {spec.field.characteristic}^{spec.dim} exceeds the "
            f"enumeration cap {SPIN_ENUM_CAP}"
        )


def spin(vector: Sequence[int], spec: ModuleSpec) -> tuple:
    """Canonical RREF basis of the smallest invariant subspace containing ``vector``."""
    p = spec.field.characteristic
    vec = [x % p for x in vector]
    if len(vec) != spec.dim:
        raise ValueError("vector length does not match the module dimension")
    if not any(vec):
        raise ValueError("seed vector must be nonzero")
    basis, pivots = [], []
    queue = [_insert_row(basis, pivots, vec, p)]
    while queue:
        w = queue.pop()
        for g in spec.generators:
            reduced = _insert_row(basis, pivots, g.apply(tuple(w)), p)
            if reduced is not None:
                queue.append(reduced)
    return tuple(tuple(row) for row in basis)


def minimal_invariant_subspace(spec: ModuleSpec) -> Optional[tuple]:
    """Proper nonzero invariant subspace of least dimension, or None if irreducible.

    Spins every nonzero vector (minimal submodules are cyclic) and returns
    the least result under (dimension, lexicographic basis) order.
    """
    _guard(spec)
    p = spec.field.characteristic
    best = None
    for vec in itertools.product(range(p), repeat=spec.dim):
        if not any(vec):
            continue
        basis = spin(vec, spec)
        if len(basis) < spec.dim:
            key = (len(basis), basis)
            if best is None or key < best:
                best = key
    return None if best is None else best[1]


def _factor_chain(spec: ModuleSpec):
    sub = minimal_invariant_subspace(spec)
    if sub is None:
        return (spec.dim,), (0, spec.dim), identity(spec.dim, spec.field)
    w = len(sub)
    pivots = [next(j for j, x in enumerate(row) if x) for row in sub]
    complement = [j for j in range(spec.dim) if j not in pivots]
    columns = [list(row) for row in sub] + [
        [1 if i == j else 0 for i in range(spec.dim)] for j in complement
    ]
    basis = matrix_from_rows(spec.field, columns).transpose()
    basis_inv = inverse(basis)
    conjugated = [basis_inv @ g @ basis for g in spec.generators]
    for c in conjugated:  # invariance shows up as a zero lower-left block
        assert all(
            j >= w for row in c.nonzero_rows[w:] for j, _ in row
        ), "submodule basis failed to block-triangularize"
    quotient = ModuleSpec(
        spec.field,
        spec.dim - w,
        tuple(
            matrix_from_rows(spec.field, [row[w:] for row in c.rows_list()[w:]])
            for c in conjugated
        ),
    )
    q_dims, q_series, q_flag = _factor_chain(quotient)
    flag = basis @ block_diagonal([identity(w, spec.field), q_flag])
    return (w,) + q_dims, (0,) + tuple(w + s for s in q_series), flag


def composition_factor_dims(spec: ModuleSpec) -> CompositionReport:
    """Full composition series with an explicit flag basis, verified by conjugation."""
    _guard(spec)
    dims, series, flag = _factor_chain(spec)
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


def is_triangularizable(spec: ModuleSpec) -> bool:
    """True iff every composition factor over the base field is one-dimensional."""
    report = composition_factor_dims(spec)
    return all(d == 1 for d in report.factor_dims)


@dataclass(frozen=True)
class CountCheck:
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
    for k, row in enumerate(table):
        json_list(row, f"{path}.dims[{k}]", minimum=1)
    return table
