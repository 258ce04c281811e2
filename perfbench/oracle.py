"""Independent answers the benchmark scores the program against.

Everything here is plain Python over ``int`` and ``Fraction``: dense
matrices are lists of rows, and no function calls into ``commrep``.  The
benchmark uses it to build inputs and to check outputs, so a bug shared by
the program's kernels cannot make a wrong answer look right.

Known answers used by the checks:

* the sharp witness a_i = I + E_{1,i+1}, b_i = I - lam E_{i+1,i+1} has
  dimension n+1 and [a_i, b_j] != 0 exactly when i = j;
* the matching bound: n disjoint pairs need dimension n+1;
* dimension 1 realizes exactly the edgeless graphs, and dimension 2
  realizes exactly the graphs whose non-isolated vertices form a complete
  multipartite graph with at most p^2+p+1 parts (two non-scalar 2x2
  matrices commute iff they generate the same algebra k[A]); every other
  graph on four vertices needs dimension 3 over F_2, so K4 is realizable
  at r = 2 over F_2 and P4 is not at r = 2 over any field;
* a module built block-upper-triangular from irreducible diagonal blocks
  has exactly those block sizes as composition factors (Jordan-Hoelder).
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def reduce(x, p):
    """Canonical scalar: a Fraction over Q (p is None), a residue over F_p."""
    if p is None:
        return Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator * pow(x.denominator, -1, p) % p
    return x % p


# -- dense arithmetic -----------------------------------------------------------


def identity(r):
    return [[int(i == j) for j in range(r)] for i in range(r)]


def matmul(a, b, p=None):
    bt = list(zip(*b))
    out = []
    for row in a:
        nz = [(k, x) for k, x in enumerate(row) if x]
        out_row = []
        for col in bt:
            s = sum(x * col[k] for k, x in nz)
            out_row.append(s % p if p is not None else s)
        out.append(out_row)
    return out


def commutes(a, b, p=None):
    ab, ba = matmul(a, b, p), matmul(b, a, p)
    return ab == ba


def rank(rows, p=None):
    """Rank by Gaussian elimination over Q (Fraction) or F_p."""
    m = [[reduce(x, p) for x in row] for row in rows]
    if not m:
        return 0
    ncols = len(m[0])
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c] if p is None else pow(m[r][c], -1, p)
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                f = f * inv
                if p is None:
                    m[i] = [x - f * y for x, y in zip(m[i], m[r])]
                else:
                    m[i] = [(x - f * y) % p for x, y in zip(m[i], m[r])]
        r += 1
        if r == len(m):
            break
    return r


def apply(a, v, p=None):
    out = [sum(x * y for x, y in zip(row, v)) for row in a]
    return [reduce(x, p) for x in out] if p is not None else out


def apply_left(v, a, p=None):
    out = [sum(v[i] * a[i][j] for i in range(len(a))) for j in range(len(a[0]))]
    return [reduce(x, p) for x in out] if p is not None else out


def dot(u, v, p=None):
    s = sum(x * y for x, y in zip(u, v))
    return s % p if p is not None else s


# -- witnesses and their transforms -----------------------------------------


def sharp_witness(n, lam, p=None):
    """(a_1..a_n, b_1..b_n) as dense rows in dimension n+1."""
    lam = reduce(lam, p)
    r = n + 1
    a, b = [], []
    for i in range(1, n + 1):
        m = identity(r)
        m[0][i] = 1
        a.append(m)
        m = identity(r)
        m[i][i] = reduce(1 - lam, p)
        b.append(m)
    return a + b


def unimodular_pair(r, rng, scale):
    """(P, P^-1) with P = I + c u v^T and v.u = 0, so P^-1 = I - c u v^T.

    u and v are dense small-integer vectors and c is near ``scale``, so a
    conjugate P W P^-1 is dense with entries that grow like c^2.
    """
    u = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r - 1)] + [1]
    v = [rng.choice([-3, -2, -1, 1, 2, 3]) for _ in range(r - 1)]
    v.append(-sum(x * y for x, y in zip(u, v)))
    c = scale + rng.randrange(scale // 4 + 1)
    p_mat = [[int(i == j) + c * u[i] * v[j] for j in range(r)] for i in range(r)]
    p_inv = [[int(i == j) - c * u[i] * v[j] for j in range(r)] for i in range(r)]
    return p_mat, p_inv


def conjugate(mats, p_mat, p_inv, p=None):
    return [matmul(matmul(p_mat, m, p), p_inv, p) for m in mats]


def derangement(n, rng):
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        if all(perm[i] != i for i in range(n)):
            return perm


def permuted_violations(n, perm):
    """Violations of the matching graph when vertex n+i carries b_{perm[i]}.

    a_i and b_j fail to commute exactly when i = j, so each edge (i, n+i)
    commutes and each non-edge (i, n+perm^-1(i)) does not.  Items are
    (u, v, edge, commutes) with 1-based u < v.
    """
    out = {(i + 1, n + i + 1, True, True) for i in range(n)}
    for slot, j in enumerate(perm):
        out.add((j + 1, n + slot + 1, False, False))
    return out


# -- lower-bound certificates ---------------------------------------------------


def certificate_problems(pairs, v, alpha, gram, image_rank, p=None):
    """Reasons a certificate fails its invariants, recomputed from dense pairs."""
    problems = []
    basis = [a for a, _ in pairs] + [b for _, b in pairs]
    n = len(pairs)
    for a, b in pairs:
        z = [[x - y for x, y in zip(r1, r2)] for r1, r2 in zip(matmul(a, b, p), matmul(b, a, p))]
        if p is not None:
            z = [[x % p for x in row] for row in z]
        zv = apply(z, v, p)
        if not any(zv):
            problems.append("zv_zero")
        elif not dot(alpha, zv, p):
            problems.append("alpha_zv_zero")
    if not dot(alpha, v, p):
        problems.append("alpha_v_zero")
    xv = [apply(x, v, p) for x in basis]
    ax = [apply_left(alpha, x, p) for x in basis]
    expected = [
        [reduce(dot(ax[i], xv[j]) - dot(ax[j], xv[i]), p) for j in range(2 * n)]
        for i in range(2 * n)
    ]
    if [[reduce(x, p) for x in row] for row in gram] != expected:
        problems.append("gram_mismatch")
    if rank(expected, p) != 2 * n:
        problems.append("gram_rank_deficient")
    img = rank([list(v)] + xv, p)
    if img != image_rank:
        problems.append("image_rank_mismatch")
    if img < n + 1:
        problems.append("image_rank_below_bound")
    return problems


def needs_bigint(flat_matrices, r, p=None):
    """True when integer-scaled entries pass the 64-bit product guard.

    Each matrix (a flat entry sequence) is scaled by the lcm of its
    denominators; a commutator entry is then bounded by r * M^2 with M the
    largest scaled entry.
    """
    if p is not None:
        biggest = p - 1
    else:
        biggest = 0
        for entries in flat_matrices:
            nonzero = [Fraction(x) for x in entries if x]
            if nonzero:
                d = math.lcm(*(x.denominator for x in nonzero))
                biggest = max(biggest, max(abs(x.numerator * (d // x.denominator)) for x in nonzero))
    return r * biggest * biggest >= 2**62


# -- graphs -----------------------------------------------------------------------


def min_dim_upto_two(vertex_count, edges, p):
    """Minimal realization dimension if it is 1 or 2, else None (it is >= 3)."""
    if not edges:
        return 1
    adj = {v: set() for v in range(1, vertex_count + 1)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    core = [v for v in adj if adj[v]]
    # complete multipartite: non-adjacent core vertices have equal neighbourhoods
    parts = {frozenset(adj[v]) for v in core}
    for u, v in itertools.combinations(core, 2):
        if v not in adj[u] and adj[u] != adj[v]:
            return None
    return 2 if len(parts) <= p * p + p + 1 else None


def min_dim_four_vertices_f2(edges):
    """Minimal dimension over F_2 of a graph on four vertices (1, 2 or 3)."""
    known = min_dim_upto_two(4, edges, 2)
    return 3 if known is None else known


def realizes(mats, vertex_count, edges, p=None):
    es = {(min(u, v), max(u, v)) for u, v in edges}
    for u, v in itertools.combinations(range(1, vertex_count + 1), 2):
        if commutes(mats[u - 1], mats[v - 1], p) == ((u, v) in es):
            return False
    return True


def generic_witness(vertex_count, edges):
    """Integer rows realizing any graph on m vertices in dimension m+1."""
    m = vertex_count
    es = {(min(u, v), max(u, v)) for u, v in edges}
    mats = []
    for v in range(1, m + 1):
        acc = [[0] * (m + 1) for _ in range(m + 1)]
        acc[0][v] = 1
        for u in range(1, v):
            if (u, v) in es:
                acc[u][v] = 1
        mats.append(acc)
    return mats


def is_perfect_matching(vertex_count, edges):
    deg = [0] * (vertex_count + 1)
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return all(d == 1 for d in deg[1:])


# -- modules ------------------------------------------------------------------------


def _poly_roots(coeffs, p):
    return [x for x in range(p) if sum(c * pow(x, k, p) for k, c in enumerate(coeffs)) % p == 0]


def irreducible_companions(deg, p):
    """Companion matrices of the monic irreducible polynomials of degree 1..3."""
    if deg == 1:
        return [[[c]] for c in range(1, p)]
    if deg > 3:
        raise ValueError("root test decides irreducibility only up to degree 3")
    out = []
    for low in itertools.product(range(p), repeat=deg):
        coeffs = list(low) + [1]
        if low[0] and not _poly_roots(coeffs, p):
            comp = [[0] * deg for _ in range(deg)]
            for i in range(1, deg):
                comp[i][i - 1] = 1
            for i in range(deg):
                comp[i][deg - 1] = (-low[i]) % p
            out.append(comp)
    return out


def random_invertible(d, p, rng):
    while True:
        m = [[rng.randrange(p) for _ in range(d)] for _ in range(d)]
        if rank(m, p) == d:
            return m


def planted_generators(blocks, p, count, rng):
    """Block-upper-triangular invertible generators with irreducible diagonal blocks.

    One generator acts on every diagonal block by a companion matrix of an
    irreducible polynomial, so each block is an irreducible factor.
    """
    d = sum(blocks)
    starts = list(itertools.accumulate([0] + list(blocks)))
    carrier = rng.randrange(count)
    gens = []
    for g in range(count):
        m = [[0] * d for _ in range(d)]
        for bi, size in enumerate(blocks):
            s = starts[bi]
            if g == carrier:
                diag = rng.choice(irreducible_companions(size, p))
            else:
                diag = random_invertible(size, p, rng)
            for i in range(size):
                for j in range(size):
                    m[s + i][s + j] = diag[i][j]
                for j in range(s + size, d):
                    m[s + i][j] = rng.randrange(p)
        gens.append(m)
    return gens


def flag_problems(flag_cols, series, gens, p):
    """Check that the flag basis is invertible and each series prefix is invariant."""
    d = len(flag_cols)
    problems = []
    if rank(flag_cols, p) != d:
        problems.append("flag_singular")
    for end in series[1:-1]:
        prefix = flag_cols[:end]
        for g in gens:
            images = [apply(g, col, p) for col in prefix]
            if rank(prefix + images, p) != end:
                problems.append("flag_not_invariant")
                return problems
    return problems


def counting_chain(table):
    """(verdict, sum_products, sum_powers, sum_doubled, floor) computed directly."""
    n = len(table[0])
    s_sets = [[i for i, x in enumerate(row) if x >= 2] for row in table]
    covered = set(itertools.chain.from_iterable(s_sets))
    verdict = "satisfied" if len(covered) == n else "precondition_failed"
    products = 0
    for row in table:
        acc = 1
        for x in row:
            acc *= x
        products += acc
    return (
        verdict,
        products,
        sum(2 ** len(s) for s in s_sets),
        sum(2 * len(s) for s in s_sets),
        2 * n,
    )
