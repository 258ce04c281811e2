"""Reference elimination routines that the library's shared echelon routine replaced.

Each function here is an independent implementation of one job that
``commrep.exactla._insert_row`` now does for every caller: Bareiss
fraction-free echelon form over Q, plain Gaussian elimination over F_p,
Gauss-Jordan inversion, triangular invertibility of a flat entry tuple, and
the RREF-insertion spin over F_p.  The spin also drives the enumeration
splitter that ``commrep.modsplit`` replaced with Norton's test: the least
submodule found by spinning every nonzero vector, and the composition factor
dimensions read off by quotienting by it, both for p^dim <= 100.  The
differential tests in ``test_elimination_oracle.py`` require the library to
agree with them.  Matrix-vector products (``matvec``) and null spaces
(``kernel_basis``) are computed here from the dense rows, not with the
library's integer row sums or its elimination, so the tests of ``spin``, the
splitter's flag and the certificate's constraints that use them share no
arithmetic with the code they check.
"""

import itertools
import math
from fractions import Fraction

from commrep.exactla import matrix_from_rows
from commrep.modsplit import ModuleSpec


def matvec(a, vec):
    """A v from the dense rows of ``a``, as field scalars (reduced mod p over F_p)."""
    p = a.field.characteristic
    sums = [sum(x * y for x, y in zip(row, vec)) for row in a.rows_list()]
    return tuple(sums if p is None else (s % p for s in sums))


def integer_rows(a):
    """Rows as integer lists; over Q each row is scaled by its denominator lcm."""
    out = []
    for i in range(a.rows):
        row = a.entries[i * a.cols : (i + 1) * a.cols]
        if a.field.is_rationals:
            m = math.lcm(*(x.denominator for x in row))
            out.append([int(x * m) for x in row])
        else:
            out.append(list(row))
    return out


def bareiss_echelon(m):
    """Fraction-free echelon form of integer rows, in place; (pivots, rows)."""
    if not m:
        return [], m
    nrows, ncols = len(m), len(m[0])
    pivots = []
    prev = 1
    pr = 0
    for pc in range(ncols):
        pivot_row = next((i for i in range(pr, nrows) if m[i][pc]), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        piv = m[pr][pc]
        for i in range(pr + 1, nrows):
            mi = m[i]
            head = mi[pc]
            if head:
                mp = m[pr]
                for j in range(pc + 1, ncols):
                    mi[j] = (piv * mi[j] - head * mp[j]) // prev
                mi[pc] = 0
            elif prev != piv:
                for j in range(pc + 1, ncols):
                    mi[j] = piv * mi[j] // prev
        prev = piv
        pivots.append((pr, pc))
        pr += 1
        if pr == nrows:
            break
    return pivots, m


def modp_echelon(m, p):
    """Row echelon form mod p, in place; (pivots, rows)."""
    if not m:
        return [], m
    nrows, ncols = len(m), len(m[0])
    pivots = []
    pr = 0
    for pc in range(ncols):
        pivot_row = next((i for i in range(pr, nrows) if m[i][pc] % p), None)
        if pivot_row is None:
            continue
        m[pr], m[pivot_row] = m[pivot_row], m[pr]
        inv = pow(m[pr][pc], -1, p)
        m[pr] = [x * inv % p for x in m[pr]]
        for i in range(pr + 1, nrows):
            head = m[i][pc] % p
            if head:
                m[i] = [(x - head * y) % p for x, y in zip(m[i], m[pr])]
        pivots.append((pr, pc))
        pr += 1
        if pr == nrows:
            break
    return pivots, m


def echelon(a):
    if a.field.is_rationals:
        return bareiss_echelon(integer_rows(a))
    return modp_echelon(integer_rows(a), a.field.characteristic)


def rank(a):
    return len(echelon(a)[0])


def is_invertible(a):
    return a.is_square and rank(a) == a.rows


def kernel_basis(a):
    """One null-space vector per free column, by back-substitution on the echelon form."""
    field = a.field
    pivots, m = echelon(a)
    pivot_cols = [pc for _, pc in pivots]
    basis = []
    for fc in (j for j in range(a.cols) if j not in pivot_cols):
        x = [field.zero()] * a.cols
        x[fc] = field.scalar(1)
        for pr, pc in reversed(pivots):
            row = m[pr]
            s = sum(row[j] * x[j] for j in range(pc + 1, a.cols))
            if field.is_rationals:
                x[pc] = Fraction(-s, row[pc])
            else:
                p = field.characteristic
                x[pc] = (-s) * pow(row[pc], -1, p) % p
        basis.append(tuple(x))
    return basis


def inverse_entries(a):
    """Row-major entries of the inverse by Gauss-Jordan, or None if singular."""
    n, dense = a.rows, a.rows_list()
    if a.field.is_rationals:
        m = [dense[i] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        div = lambda x, y: x / y  # noqa: E731
        norm = lambda x: x  # noqa: E731
    else:
        p = a.field.characteristic
        m = [dense[i] + [int(i == j) for j in range(n)] for i in range(n)]
        div = lambda x, y: x * pow(y, -1, p) % p  # noqa: E731
        norm = lambda x: x % p  # noqa: E731
    for col in range(n):
        piv = next((i for i in range(col, n) if norm(m[i][col])), None)
        if piv is None:
            return None
        m[col], m[piv] = m[piv], m[col]
        inv_p = div(1, m[col][col])
        m[col] = [norm(x * inv_p) for x in m[col]]
        for i in range(n):
            if i != col and norm(m[i][col]):
                head = m[i][col]
                m[i] = [norm(x - head * y) for x, y in zip(m[i], m[col])]
    return tuple(x for row in m for x in row[n:])


def tuple_invertible(entries, r, p):
    """Invertibility of an r x r row-major residue tuple by forward elimination."""
    m = [list(entries[i * r : (i + 1) * r]) for i in range(r)]
    for col in range(r):
        piv = next((i for i in range(col, r) if m[i][col] % p), None)
        if piv is None:
            return False
        m[col], m[piv] = m[piv], m[col]
        inv = pow(m[col][col], -1, p)
        for i in range(col + 1, r):
            head = m[i][col] % p
            if head:
                m[i] = [(x - head * inv * y) % p for x, y in zip(m[i], m[col])]
    return True


def invertible_candidates(r, p):
    return [c for c in itertools.product(range(p), repeat=r * r) if tuple_invertible(c, r, p)]


def rref_insert(basis, pivots, vec, p):
    """Reduce ``vec`` against an RREF basis mod p; insert it if independent."""
    v = list(vec)
    for row, pc in zip(basis, pivots):
        head = v[pc] % p
        if head:
            v = [(x - head * y) % p for x, y in zip(v, row)]
    pc = next((j for j, x in enumerate(v) if x % p), None)
    if pc is None:
        return None
    inv = pow(v[pc], -1, p)
    v = [x * inv % p for x in v]
    for k, row in enumerate(basis):
        head = row[pc] % p
        if head:
            basis[k] = [(x - head * y) % p for x, y in zip(row, v)]
    at = next((k for k, q in enumerate(pivots) if q > pc), len(pivots))
    basis.insert(at, v)
    pivots.insert(at, pc)
    return v


def spin(vector, spec):
    """Canonical RREF basis of the smallest invariant subspace containing ``vector``."""
    p = spec.field.characteristic
    basis, pivots = [], []
    queue = [rref_insert(basis, pivots, [x % p for x in vector], p)]
    while queue:
        w = queue.pop()
        for g in spec.generators:
            reduced = rref_insert(basis, pivots, matvec(g, w), p)
            if reduced is not None:
                queue.append(reduced)
    return tuple(tuple(row) for row in basis)


def minimal_invariant_subspace(spec):
    """Least proper nonzero invariant subspace under (dimension, basis) order, or None."""
    p = spec.field.characteristic
    best = None
    for vec in itertools.product(range(p), repeat=spec.dim):
        if any(vec):
            basis = spin(vec, spec)
            if len(basis) < spec.dim and (best is None or (len(basis), basis) < best):
                best = (len(basis), basis)
    return None if best is None else best[1]


def quotient_generators(spec, sub):
    """Generators on V/U as residue rows, for an RREF basis ``sub`` of the submodule U.

    The quotient's coordinates are the non-pivot coordinates of a vector
    reduced against ``sub``; the images of the non-pivot unit vectors give
    the columns.
    """
    p = spec.field.characteristic
    pivots = [next(j for j, x in enumerate(row) if x) for row in sub]
    free = [j for j in range(spec.dim) if j not in pivots]
    out = []
    for g in spec.generators:
        columns = []
        for c in free:
            img = list(matvec(g, [int(i == c) for i in range(spec.dim)]))
            for row, pc in zip(sub, pivots):
                head = img[pc]
                if head:
                    img = [(x - head * y) % p for x, y in zip(img, row)]
            columns.append([img[j] for j in free])
        out.append([list(r) for r in zip(*columns)])
    return out


def factor_dims(spec):
    """Sorted composition factor dimensions: split off least submodules one by one."""
    dims = []
    while True:
        sub = minimal_invariant_subspace(spec)
        if sub is None:
            return sorted(dims + [spec.dim])
        dims.append(len(sub))
        gens = quotient_generators(spec, sub)
        spec = ModuleSpec(spec.field, len(gens[0]), tuple(matrix_from_rows(spec.field, g) for g in gens))
