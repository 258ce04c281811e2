"""Sharp constructions: the (n+1)-dimensional matching-pattern witness and
the block-diagonal embedding of direct products.

The witness assigns, in M_{n+1}(k) with a unit lambda:

    a_i = I + E_{1,i+1}        b_i = I - lambda * E_{i+1,i+1}

Every commutator [a_i, b_i] equals -lambda * E_{1,i+1}, and all cross-pair
commutators vanish, so (a_1..a_n, b_1..b_n) realizes the n-pair matching
graph in dimension n+1, one more than the number of pairs, which is the
least possible (see the certificate module).
"""

from __future__ import annotations

from typing import Sequence

from .commgraph import Assignment
from .errors import InvalidArgumentError
from .exactla import (
    FieldSpec,
    Matrix,
    block_diagonal,
    elementary_matrix,
    identity,
)


def sharp_witness(n: int, lam, field: FieldSpec) -> Assignment:
    """Matching-graph witness in dimension n+1, ordered (a_1..a_n, b_1..b_n)."""
    lam = field.scalar(lam)
    if not lam:
        raise InvalidArgumentError("lambda must be nonzero in the chosen field")
    if n < 1:
        raise InvalidArgumentError("n must be at least 1")
    r = n + 1
    eye = identity(r, field)
    a = [eye + elementary_matrix(r, 1, i + 1, field) for i in range(1, n + 1)]
    b = [eye - elementary_matrix(r, i + 1, i + 1, field).scale(lam) for i in range(1, n + 1)]
    return Assignment(tuple(a + b))


def product_block_embedding(factors: Sequence[Sequence[Matrix]]) -> list:
    """Embed generator lists of n factors into one block-diagonal algebra.

    Generator g of factor i maps to diag(I_{d_1}, ..., g, ..., I_{d_n}) with
    g in slot i; the output dimension is the sum of the factor dimensions and
    images of distinct factors commute.  Returns the images as a flat list,
    factor by factor in input order.
    """
    if not factors or any(not gens for gens in factors):
        raise ValueError("each factor needs at least one generator")
    for gens in factors:
        if len({(g.field, g.rows) for g in gens}) > 1:
            raise ValueError("generators of one factor must share a field and a dimension")
    field = factors[0][0].field
    dims = [gens[0].rows for gens in factors]
    images = []
    for slot, gens in enumerate(factors):
        for g in gens:
            blocks = [
                g if k == slot else identity(dims[k], field) for k in range(len(factors))
            ]
            images.append(block_diagonal(blocks))
    return images
