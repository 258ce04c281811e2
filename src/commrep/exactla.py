"""Exact linear algebra over the rationals and over prime fields.

Scalars are plain Python values: ``fractions.Fraction`` over Q (always in
lowest terms with positive denominator) and canonical residues in ``[0, p)``
over F_p.  A :class:`FieldSpec` tags every matrix and performs coercion and
scalar arithmetic.  There is no floating point anywhere; every result is
exact.  ``FieldSpec`` and ``Matrix``, like ``CommGraph``, ``Assignment`` and
``ModuleSpec`` in ``commgraph`` and ``modsplit``, are values on one base,
``_Value``: equal, hashed and printed by their fields, which cannot be
assigned.

A :class:`Matrix` stores only its nonzero entries, row by row, which suits
the matrices this package computes with: the sharp witness in dimension n+1
has O(n) nonzeros, not (n+1)^2.  Sums, products and transposes do Python
work on nonzero entries only; dense row-major views are built on request.

The stored entries are integers over one positive denominator ``den``:
over F_p residues in [0, p) with ``den`` = 1, and over Q integer numerators
over the lcm of the entries' denominators, with no factor common to ``den``
and every numerator.  So every kernel (products, elimination, and in
``commgraph`` and ``certificate`` the commutation check, the grid descent,
the certificate's vectors and its Gram matrix) runs on the stored ints, and
the JSON writers write each entry from its stored int and ``den``.  A
``Fraction`` is formed only where a field scalar is returned: by the dense
views, null-space vectors over Q and scalar coercion.  Products and
commutators share one integer pass, ``_products``: a commutator [a, b]
accumulates ab - ba row by row, over the one denominator both products share.
The pass sums few terms per output entry (sparse or small factors) in a dict
per row, and many (dense factors) on rows packed into one int each, with one
multiply-add per stored entry.

Indices in the public API are 1-based, matching the usual E_{i,j} notation
for elementary matrices; storage is 0-based internally.

All elimination goes through one routine, ``_insert_row``, which reduces an
integer row against a reduced row-echelon basis and inserts it if it is
independent.  Over Q the rows are cleared of denominators and kept primitive
with a positive pivot, so no fractions arise and basis entries stay bounded
by minors of the input; over F_p they are residues with pivot 1.  Rank, kernel,
inverse and invertibility read their answers off that reduced form; one
null-space routine, ``_null_space``, serves the centralizers of ``search``
and the residue rows of ``modsplit``'s Norton thetas, and module spinning
(``modsplit.spin``) grows one basis with ``_insert_row`` row by row.
"""

from __future__ import annotations

import bisect
import math
import operator
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import (
    InvalidArgumentError,
    SchemaError,
    _decimal,
    field_characteristic,
    json_int,
    json_list,
    json_object,
    prime_characteristic,
)

ScalarValue = Union[Fraction, int]

# shared immutable constants, so dense views and vectors allocate no new zeros
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


class _Value:
    """Base of the value classes: equal, hashed and printed by the fields named in ``_fields``.

    ``__init__`` of a subclass validates and stores the fields in ``__dict__``;
    ``_make`` stores them unchecked.  An instance is equal only to an instance
    of its own class, and its fields cannot be assigned or deleted.
    """

    _fields: tuple = ()

    def __init_subclass__(cls):
        cls._key = operator.attrgetter(*cls._fields)  # the field values; one field's value alone

    @classmethod
    def _make(cls, **fields):
        """An instance with the given fields, without the checks of ``__init__``."""
        value = cls.__new__(cls)
        value.__dict__.update(fields)
        return value

    def __eq__(self, other):
        if other is self:
            return True
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) == self._key(other)

    def __ne__(self, other):  # defined, not inherited: object.__ne__ calls __eq__ through a slot wrapper
        if other is self:
            return False
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key(self) != self._key(other)

    def __hash__(self):
        return hash(self._key(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class FieldSpec(_Value):
    """An exact base field: the rationals (characteristic None), or integers modulo a prime."""

    _fields = ("characteristic",)

    def __init__(self, characteristic: Optional[int]):
        self.__dict__["characteristic"] = prime_characteristic(characteristic)

    @property
    def is_rationals(self) -> bool:
        return self.characteristic is None

    @property
    def is_prime_field(self) -> bool:
        return self.characteristic is not None

    def name(self) -> str:
        return "Q" if self.is_rationals else f"Fp:{self.characteristic}"

    @staticmethod
    def from_name(name: str) -> "FieldSpec":
        p = field_characteristic(name)
        return QQ if p is None else FieldSpec._make(characteristic=p)

    # -- scalar arithmetic ------------------------------------------------

    def zero(self) -> ScalarValue:
        return _Q_ZERO if self.is_rationals else 0

    def scalar(self, x) -> ScalarValue:
        """Coerce ``x`` (int, Fraction, or "a" or "a/b" decimal string) to a canonical scalar."""
        # an exact int, or over Q an exact Fraction, is canonical once reduced; bool and other subclasses
        # take the checks below
        if type(x) is int:
            return Fraction(x) if self.characteristic is None else x % self.characteristic
        if type(x) is Fraction and self.characteristic is None:
            return x
        if isinstance(x, str):
            num, slash, den = x.partition("/")
            a, b = _decimal(num), _decimal(den) if slash else 1
            if a is None or b is None or b < 0:
                raise InvalidArgumentError(f"expected a or a/b in decimal digits with b > 0, got {x!r}")
            if not b:
                raise InvalidArgumentError(f"zero denominator in {x!r}")
            x = Fraction(a, b)
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InvalidArgumentError(f"cannot coerce {x!r} to a {self.name()} scalar")
        if self.is_rationals:
            return Fraction(x)
        p = self.characteristic
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise InvalidArgumentError(f"denominator of {x} is not invertible mod {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return x % p

    def add(self, a, b):
        return a + b if self.is_rationals else (a + b) % self.characteristic

    def mul(self, a, b):
        return a * b if self.is_rationals else (a * b) % self.characteristic


QQ = FieldSpec(None)


def GF(p: int) -> FieldSpec:
    return FieldSpec(p)


def dot(u: Sequence[ScalarValue], v: Sequence[ScalarValue], field: FieldSpec) -> ScalarValue:
    if len(u) != len(v):
        raise ValueError("dot: length mismatch")
    return field.scalar(sum(a * b for a, b in zip(u, v)))


def _nonzero_row(values) -> tuple:
    """The (column, value) pairs of the nonzero entries of a dense row."""
    return tuple((j, x) for j, x in enumerate(values) if x)


def _integer_vector(vec: Sequence, p: Optional[int]) -> tuple:
    """(ints, e): a vector of field scalars as integers over one scale e.

    Over Q e is the lcm of the denominators and ints is e times the vector;
    over F_p ints are the residues and e is 1.
    """
    if p is not None:
        return [x % p for x in vec], 1
    e = math.lcm(*(x.denominator for x in vec))
    return [x.numerator * (e // x.denominator) for x in vec], e


def _row_sums(nonzero_rows: tuple, vec: Sequence[int], p: Optional[int]) -> list:
    """The products of stored integer rows with an integer vector, reduced mod p over F_p."""
    sums = []
    for row in nonzero_rows:
        s = 0
        for j, x in row:
            s += x * vec[j]
        sums.append(s if p is None else s % p)
    return sums


def _scaled(nonzero_rows: tuple, s: int) -> tuple:
    """Nonzero rows with every value times ``s``."""
    if s == 1:
        return nonzero_rows
    return tuple(tuple((j, s * x) for j, x in row) for row in nonzero_rows)


def _sorted_row(acc: dict, p: Optional[int]) -> tuple:
    """Column-ordered nonzero pairs of a {column: value} row, reduced mod p over F_p."""
    out = []
    for j in sorted(acc):
        x = acc[j] if p is None else acc[j] % p
        if x:
            out.append((j, x))
    return tuple(out)


class Matrix(_Value):
    """Matrix with value semantics; entries share the matrix's field.

    Only the nonzero entries are stored: for each row, the (column, value)
    pairs in increasing column order, with 0-based columns, where each value
    is an integer and the entry is value / ``den``.  Over F_p the values are
    residues and ``den`` is 1; over Q ``den`` is the lcm of the entries'
    denominators, so no factor is common to it and every value.  That form
    is canonical, so equality and hashing compare matrices by value.  The
    dense views ``entries`` and ``rows_list`` hold field scalars and are
    rebuilt on every call.
    """

    _fields = ("field", "rows", "cols", "den", "nonzero_rows")

    def __init__(self, field: FieldSpec, rows: int, cols: int, entries: Sequence[ScalarValue]):
        """Matrix from its row-major entries, canonical scalars of ``field``."""
        if rows < 1 or cols < 1:
            raise ValueError("matrix dimensions must be positive")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        nonzero = tuple(_nonzero_row(entries[i * cols : (i + 1) * cols]) for i in range(rows))
        den = 1
        if field.is_rationals:
            # an entry with the most factors q of den has a numerator prime to q, so nothing divides out
            den = math.lcm(*(x.denominator for row in nonzero for _, x in row))
            nonzero = tuple(tuple((j, x.numerator * (den // x.denominator)) for j, x in r) for r in nonzero)
        self.__dict__.update(field=field, rows=rows, cols=cols, nonzero_rows=nonzero, den=den)

    @classmethod
    def _sparse(cls, field: FieldSpec, rows: int, cols: int, nonzero_rows: tuple, den: int = 1) -> "Matrix":
        """Matrix from integer nonzero rows over ``den``, dividing out any factor common to all of them."""
        if den != 1:
            g = math.gcd(den, *(x for row in nonzero_rows for _, x in row))
            if g != 1:
                den //= g
                nonzero_rows = tuple(tuple((j, x // g) for j, x in row) for row in nonzero_rows)
        return cls._make(field=field, rows=rows, cols=cols, nonzero_rows=nonzero_rows, den=den)

    # -- shape / access ---------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def _dense_row(self, row: tuple) -> list:
        """A stored row as field scalars, zeros included."""
        out = [self.field.zero()] * self.cols
        den = None if self.field.is_prime_field else self.den
        for j, x in row:
            out[j] = x if den is None else Fraction(x, den)
        return out

    @property
    def entries(self) -> tuple:
        """Row-major tuple of every entry, zeros included."""
        out = []
        for row in self.nonzero_rows:
            out += self._dense_row(row)
        return tuple(out)

    def rows_list(self) -> list:
        return [self._dense_row(row) for row in self.nonzero_rows]

    def is_zero(self) -> bool:
        return not any(self.nonzero_rows)

    # -- arithmetic -------------------------------------------------------

    def _combine(self, other: "Matrix", sub: bool) -> "Matrix":
        if self.field != other.field:
            raise ValueError("field mismatch")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("dimension mismatch")
        p = self.field.characteristic
        arows, brows, den = self.nonzero_rows, other.nonzero_rows, self.den
        if other.den != den:  # over Q only: bring both over the lcm of the denominators
            den = math.lcm(self.den, other.den)
            arows, brows = _scaled(arows, den // self.den), _scaled(brows, den // other.den)
        out = []
        for arow, brow in zip(arows, brows):
            if not brow:
                out.append(arow)
                continue
            acc = dict(arow)
            for j, b in brow:
                a = acc.get(j, 0)
                acc[j] = a - b if sub else a + b
            out.append(_sorted_row(acc, p))
        return Matrix._sparse(self.field, self.rows, self.cols, tuple(out), den)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub=False)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub=True)

    def __neg__(self) -> "Matrix":
        return self.scale(-1)

    def scale(self, c) -> "Matrix":
        f = self.field
        c = f.scalar(c)
        if not c:
            return zeros(self.rows, self.cols, f)
        p = f.characteristic
        # c is a unit, so every product stays nonzero
        if p is None:
            out = _scaled(self.nonzero_rows, c.numerator)
            return Matrix._sparse(f, self.rows, self.cols, out, self.den * c.denominator)
        out = tuple(tuple((j, x * c % p) for j, x in row) for row in self.nonzero_rows)
        return Matrix._sparse(f, self.rows, self.cols, out)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        """Product over the nonzero entries, by ``_products``."""
        if self.field != other.field:
            raise ValueError("field mismatch")
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        return _products(self, other, commute=False)

    def transpose(self) -> "Matrix":
        buckets = [[] for _ in range(self.cols)]
        for i, row in enumerate(self.nonzero_rows):
            for j, x in row:
                buckets[j].append((i, x))
        return Matrix._sparse(self.field, self.cols, self.rows, tuple(tuple(b) for b in buckets), self.den)


# -- constructors ----------------------------------------------------------


def matrix_from_rows(field: FieldSpec, rows: Sequence[Sequence]) -> Matrix:
    """Build a matrix from row sequences, coercing every entry."""
    if not rows:
        raise ValueError("need at least one row")
    width = len(rows[0])
    ent = []
    for row in rows:
        if len(row) != width:
            raise ValueError("ragged rows")
        ent.extend(field.scalar(x) for x in row)
    return Matrix(field, len(rows), width, tuple(ent))


def zeros(rows: int, cols: int, field: FieldSpec) -> Matrix:
    return Matrix._sparse(field, rows, cols, ((),) * rows)


def identity(r: int, field: FieldSpec) -> Matrix:
    if r < 1:
        raise ValueError("dimension must be positive")
    return Matrix._sparse(field, r, r, tuple(((i, 1),) for i in range(r)))


def elementary_matrix(r: int, i: int, j: int, field: FieldSpec) -> Matrix:
    """E_{i,j}: single 1 at 1-based position (i, j), zeros elsewhere."""
    if r < 1:
        raise ValueError("dimension must be positive")
    if not (1 <= i <= r and 1 <= j <= r):
        raise IndexError(f"({i},{j}) outside 1..{r}")
    return Matrix._sparse(field, r, r, tuple(((j - 1, 1),) if k == i - 1 else () for k in range(r)))


def block_diagonal(blocks: Sequence[Matrix]) -> Matrix:
    if not blocks:
        raise ValueError("need at least one block")
    field = blocks[0].field
    for b in blocks:
        if b.field != field:
            raise ValueError("field mismatch")
        if not b.is_square:
            raise ValueError("blocks must be square")
    den = math.lcm(*(b.den for b in blocks))
    out = []
    off = 0
    for b in blocks:
        out.extend(tuple((off + j, x) for j, x in row) for row in _scaled(b.nonzero_rows, den // b.den))
        off += b.rows
    return Matrix._sparse(field, off, off, tuple(out), den)


def commutator(a: Matrix, b: Matrix) -> Matrix:
    """[a, b] = ab - ba for square matrices of equal size and field."""
    if a.field != b.field:
        raise ValueError("field mismatch")
    if not (a.is_square and b.is_square and a.rows == b.rows):
        raise ValueError("dimension mismatch")
    return _products(a, b, commute=True)


# _products packs rows into ints once its term count exceeds this many terms per output entry
_PACK_RATIO = 8


def _products(a: Matrix, b: Matrix, commute: bool) -> Matrix:
    """ab, or ab - ba when ``commute``, in one pass over the stored integers.

    Both products share one denominator, the product of the factors' ``den``.
    The terms a_ik b_kj (and b_ik a_kj when commuting) are summed one of two
    ways, chosen by their count (``_many_terms``): term by term into a dict per row, by
    ``_dict_products``, when each output entry gets few of them (sparse
    factors, or a small inner dimension), or on packed rows, by
    ``_packed_products``, when they number more than ``_PACK_RATIO`` per
    output entry.  Over F_p each output entry is reduced mod p once.
    """
    p = a.field.characteristic
    arows, brows = a.nonzero_rows, b.nonzero_rows
    if _many_terms(a, b, commute):
        out = _packed_products(arows, brows, a.cols, b.cols, commute, p)
    else:
        out = _dict_products(arows, brows, commute, p)
    return Matrix._sparse(a.field, a.rows, b.cols, tuple(out), a.den * b.den)


def _many_terms(a: Matrix, b: Matrix, commute: bool) -> bool:
    """Whether ab (and ba when commuting) has more than ``_PACK_RATIO`` terms per output entry.

    A term is a product a_ik b_kj of two stored entries.  There are at most
    rows * inner * cols of them, so a small inner dimension is settled before
    the exact count.
    """
    if (1 + commute) * a.cols <= _PACK_RATIO:
        return False
    arows, brows = a.nonzero_rows, b.nonzero_rows
    limit = _PACK_RATIO * a.rows * b.cols
    alen, blen = [*map(len, arows)], [*map(len, brows)]
    terms = sum(blen[k] for row in arows for k, _ in row)
    if commute:
        terms += sum(alen[k] for row in brows for k, _ in row)
    return terms > limit


def _dict_products(arows: tuple, brows: tuple, commute: bool, p: Optional[int]) -> list:
    """The nonzero rows of ab (less ba when commuting), each summed term by term in one dict."""
    out = []
    for i, arow in enumerate(arows):
        acc = {}
        for k, x in arow:
            for j, y in brows[k]:
                if j in acc:
                    acc[j] += x * y
                else:
                    acc[j] = x * y
        if commute:
            for k, y in brows[i]:
                for j, x in arows[k]:
                    if j in acc:
                        acc[j] -= y * x
                    else:
                        acc[j] = -y * x
        out.append(_sorted_row(acc, p))
    return out


def _packed_products(arows: tuple, brows: tuple, inner: int, cols: int, commute: bool, p: Optional[int]) -> list:
    """The nonzero rows of ab (less ba when commuting), each built as one int.

    Each row of b (and of a when commuting) is packed into one int with a
    slot of ``width`` bits per column, entry b_kj at bit j * width; an entry
    may be negative, which the packed int absorbs as a borrow from the slots
    above.  Row i of ab is then sum_k a_ik B_k, one multiply-add per stored
    a_ik, less sum_k b_ik A_k when commuting.  Every output entry c has
    |c| <= 2 * inner * max|a| * max|b| < 2^(width-1), so adding 2^(width-1)
    to every slot, by one precomputed bias, makes each slot the plain digit
    c + 2^(width-1), read with a shift and a mask.
    """
    top = max((abs(x) for row in arows for _, x in row), default=0)
    top *= max((abs(y) for row in brows for _, y in row), default=0)
    width = (2 * inner * top).bit_length() + 1
    half, mask = 1 << width - 1, (1 << width) - 1
    bias = half * (((1 << width * cols) - 1) // mask)
    packed_b = [sum(y << j * width for j, y in row) for row in brows]
    packed_a = [sum(x << j * width for j, x in row) for row in arows] if commute else None
    out = []
    for i, arow in enumerate(arows):
        s = bias
        for k, x in arow:
            s += x * packed_b[k]
        if commute:
            for k, y in brows[i]:
                s -= y * packed_a[k]
        row = []
        for j in range(cols):
            x = (s >> j * width & mask) - half
            if p is not None:
                x %= p
            if x:
                row.append((j, x))
        out.append(tuple(row))
    return out


# -- elimination -----------------------------------------------------------


def _insert_row(basis: list, pivots: list, row: Sequence[int], p: Optional[int]):
    """Reduce an integer row against a reduced row-echelon basis; insert it if independent.

    ``basis`` is ordered by the pivot columns listed in ``pivots`` and is zero
    in every other row's pivot column.  Over F_p (``p`` prime) rows are
    residues in [0, p) with pivot 1.  Over Q (``p`` None) rows are primitive
    integer vectors with a positive pivot, combined without fractions.
    Returns the inserted row, or None when ``row`` lies in the span.
    """
    v = row
    if p is None:
        # every pivot divides the pivot-minor determinant, so this scale stays small
        scale = math.lcm(*(w[pc] for w, pc in zip(basis, pivots) if v[pc]))
        if scale > 1:
            v = [scale * x for x in v]
    for w, pc in zip(basis, pivots):
        head = v[pc]
        if head:
            if p is None:
                t = head // w[pc]
                v = [x - t * y for x, y in zip(v, w)]
            else:
                v = [(x - head * y) % p for x, y in zip(v, w)]
    pc = next((j for j, x in enumerate(v) if x), None)
    if pc is None:
        return None
    lead = v[pc]
    if p is None:
        g = math.gcd(*v) if lead > 0 else -math.gcd(*v)
        if g != 1:
            v = [x // g for x in v]
    elif lead != 1:
        inv = pow(lead, -1, p)
        v = [x * inv % p for x in v]
    lead = v[pc]
    for k, w in enumerate(basis):
        head = w[pc]
        if head:
            if p is None:
                g = math.gcd(head, lead)
                s, t = lead // g, head // g
                w = [s * x - t * y for x, y in zip(w, v)]
                g = math.gcd(*w)
                basis[k] = [x // g for x in w] if g > 1 else w
            else:
                basis[k] = [(x - head * y) % p for x, y in zip(w, v)]
    at = bisect.bisect(pivots, pc)
    basis.insert(at, v)
    pivots.insert(at, pc)
    return v


def _reduced_form(rows: Sequence[list], width: int, p: Optional[int]) -> tuple:
    """(basis, pivots): the reduced row-echelon form of the span of ``rows``."""
    basis, pivots = [], []
    for row in rows:
        if len(pivots) == width:
            break  # full rank: every further row lies in the span
        _insert_row(basis, pivots, row, p)
    return basis, pivots


def _integer_dense_rows(a: Matrix):
    """The stored integer rows of ``a``, zeros included: den A, with the rank and null space of A."""
    for row in a.nonzero_rows:
        v = [0] * a.cols
        for j, x in row:
            v[j] = x
        yield v


def rank(a: Matrix) -> int:
    """Exact rank over the matrix's field."""
    return len(_reduced_form(_integer_dense_rows(a), a.cols, a.field.characteristic)[1])


def _null_space(rows, width: int, p: Optional[int]) -> list:
    """Basis of the right null space {v : Av = 0} of the matrix A with integer rows ``rows``.

    The rows are integers over Q and residues over F_p, and the basis
    vectors are field scalar tuples; it is empty iff A has rank ``width``.
    One basis vector per free column, with a 1 in that coordinate and 0 in
    every other free coordinate.
    """
    basis, pivots = _reduced_form(rows, width, p)
    zero, one = (_Q_ZERO, _Q_ONE) if p is None else (0, 1)
    pivot_set = set(pivots)
    out = []
    for fc in range(width):
        if fc in pivot_set:
            continue
        x = [zero] * width
        x[fc] = one
        for row, pc in zip(basis, pivots):
            if row[fc]:
                x[pc] = Fraction(-row[fc], row[pc]) if p is None else p - row[fc]
        out.append(tuple(x))
    return out


def span_rank(vectors: Sequence[Sequence[ScalarValue]], field: FieldSpec) -> int:
    """Dimension of the span of equal-length vectors over ``field``."""
    if not vectors:
        raise ValueError("need at least one vector")
    return rank(matrix_from_rows(field, vectors))


def is_invertible(a: Matrix) -> bool:
    return a.is_square and rank(a) == a.rows


def inverse(a: Matrix) -> Matrix:
    """Inverse of a square matrix: the right half of the reduced form of den [A | I]."""
    if not a.is_square:
        raise ValueError("inverse of a non-square matrix")
    field = a.field
    n, den = a.rows, a.den
    rows = (v + [den if j == i else 0 for j in range(n)] for i, v in enumerate(_integer_dense_rows(a)))
    basis, pivots = _reduced_form(rows, 2 * n, field.characteristic)
    if pivots[-1] >= n:  # [A | I] has rank n, so a pivot right of A means A is singular
        raise ValueError("matrix is not invertible")
    if field.is_prime_field:  # every pivot is 1
        return Matrix._sparse(field, n, n, tuple(_nonzero_row(row[n:]) for row in basis))
    # row i has its pivot row[i] in column i, so row i of the inverse is row[n:] / row[i]
    den = math.lcm(*(row[i] for i, row in enumerate(basis)))
    out = tuple(_nonzero_row([x * (den // row[i]) for x in row[n:]]) for i, row in enumerate(basis))
    return Matrix._sparse(field, n, n, out, den)


# -- JSON interchange -------------------------------------------------------

# Matrix schema: {"field": "Q"|"Fp:<p>", "rows": r, "cols": c,
#                 "entries": [["num","den"],...] | ["residue",...]}
# with all numbers as decimal strings (arbitrary precision).


def scalar_to_json(x: ScalarValue, field: FieldSpec):
    if field.is_rationals:
        return [str(x.numerator), str(x.denominator)]
    return str(x)


def scalar_from_json(obj, field: FieldSpec, path: str = "scalar") -> ScalarValue:
    if field.is_rationals:
        if not (isinstance(obj, list) and len(obj) == 2 and all(isinstance(s, str) for s in obj)):
            raise SchemaError('rational scalar must be ["num","den"]', path)
        num, den = _decimal(obj[0]), _decimal(obj[1])
        if num is None or den is None:
            raise SchemaError(f"non-integer rational parts {obj!r}", path)
        if den <= 0:
            raise SchemaError("denominator must be positive", path)
        return Fraction(num, den)
    if not isinstance(obj, str):
        raise SchemaError("prime-field scalar must be a decimal string", path)
    val = _decimal(obj)
    if val is None:
        raise SchemaError(f"non-integer residue {obj!r}", path)
    p = field.characteristic
    if not 0 <= val < p:
        raise SchemaError(f"residue {val} outside [0, {p})", path)
    return val


def _json_rows(a: Matrix) -> list:
    """The entries of ``a`` as JSON scalars, row by row, written from the stored integers.

    Every zero entry is one shared canonical zero text, so a caller that edits
    the result in place copies it first.  A nonzero value x over ``den`` is
    written in lowest terms after one gcd over Q, and as ``str(x)`` over F_p.
    """
    zero = scalar_to_json(a.field.zero(), a.field)
    den = None if a.field.is_prime_field else a.den
    out = []
    for row in a.nonzero_rows:
        dense = [zero] * a.cols
        for j, x in row:
            if den is None:
                dense[j] = str(x)
            else:
                g = math.gcd(x, den)
                dense[j] = [str(x // g), str(den // g)]
        out.append(dense)
    return out


def matrix_to_json(a: Matrix) -> dict:
    return {
        "field": a.field.name(),
        "rows": a.rows,
        "cols": a.cols,
        "entries": [x for row in _json_rows(a) for x in row],
    }


def scalars_from_json(values, field: FieldSpec, path: str, length=None) -> tuple:
    """A JSON array of ``length`` scalars (any length when None), read by ``scalar_from_json``.

    The canonical zero text, ``"0"`` over F_p and ``["0","1"]`` over Q, is read
    without coercion; any other text, a malformed zero included, takes the full check.
    """
    json_list(values, path, length)
    zero, zero_text = field.zero(), scalar_to_json(field.zero(), field)
    return tuple(
        zero if x == zero_text else scalar_from_json(x, field, f"{path}[{k}]") for k, x in enumerate(values)
    )


def field_from_json(name, path: str) -> FieldSpec:
    try:
        return FieldSpec.from_name(name)
    except ValueError as e:
        raise SchemaError(str(e), path) from None


def matrix_from_json(doc, path: str = "matrix") -> Matrix:
    json_object(doc, ("field", "rows", "cols", "entries"), "matrix", path)
    field = field_from_json(doc["field"], f"{path}.field")
    rows = json_int(doc["rows"], 1, f"{path}.rows")
    cols = json_int(doc["cols"], 1, f"{path}.cols")
    entries = scalars_from_json(doc["entries"], field, f"{path}.entries", rows * cols)
    return Matrix(field, rows, cols, entries)
