"""Shared strategies and helpers for the test suite."""

import contextlib
import math
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import strategies as st

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import commrep.exactla as exactla  # noqa: E402
from commrep.certificate import pairs_from_assignment  # noqa: E402
from commrep.exactla import GF, QQ, identity, matrix_from_rows  # noqa: E402
from commrep.witness import sharp_witness  # noqa: E402


def run_cli(*args):
    """Run ``python -m commrep`` with ``src`` first on PYTHONPATH; its output is decoded with no newline translation."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-m", "commrep", *args], capture_output=True, env=env)
    res.stdout, res.stderr = res.stdout.decode(), res.stderr.decode()
    return res

small_fractions = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=6
)

big_fractions = st.builds(
    Fraction,
    st.integers(min_value=-(10**18), max_value=10**18),
    st.integers(min_value=1, max_value=10**12),
)

fields = st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7), GF(101)])


@st.composite
def square_matrix(draw, field=None, min_dim=1, max_dim=4, entries=None):
    f = draw(fields) if field is None else field
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    return draw(square_matrix_of(f, n, entries=entries))


@st.composite
def square_matrix_of(draw, field, n, entries=None):
    if entries is None:
        if field.is_rationals:
            entries = small_fractions
        else:
            entries = st.integers(min_value=0, max_value=field.characteristic - 1)
    rows = draw(
        st.lists(
            st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n
        )
    )
    return matrix_from_rows(field, rows)


@st.composite
def matrix_pair(draw, min_dim=1, max_dim=4):
    f = draw(fields)
    n = draw(st.integers(min_value=min_dim, max_value=max_dim))
    a = draw(square_matrix_of(f, n))
    b = draw(square_matrix_of(f, n))
    return a, b


# _PACK_RATIO values that send every product and commutator down one path of exactla._products
_FORCED_RATIO = {"dict": math.inf, "packed": -1}


@contextlib.contextmanager
def kernel_path(path="auto"):
    """Count the calls of each ``exactla._products`` path, "dict" and "packed", in a Counter.

    ``path`` "dict" or "packed" forces every product onto that path by
    setting ``exactla._PACK_RATIO``; "auto" leaves the choice to the kernel.
    """
    calls = Counter()

    def counted(name, original):
        def wrapper(*args):
            calls[name] += 1
            return original(*args)

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        if path != "auto":
            mp.setattr(exactla, "_PACK_RATIO", _FORCED_RATIO[path])
        for name in ("dict", "packed"):
            attr = f"_{name}_products"
            mp.setattr(exactla, attr, counted(name, getattr(exactla, attr)))
        yield calls


def dense_conjugated_pairs(n, field):
    """The sharp witness conjugated by P = I + c u w^T, w.u = 0, so P^-1 = I - c u w^T and each x_i is dense."""
    r = n + 1
    u = [(-1) ** i * (i % 3 + 1) for i in range(r - 1)] + [1]
    w = [i % 4 + 1 for i in range(r - 1)]
    w.append(-sum(x * y for x, y in zip(u, w)))
    c = Fraction(5, 2) if field.is_rationals else 5
    conj = matrix_from_rows(field, [[int(i == j) + c * u[i] * w[j] for j in range(r)] for i in range(r)])
    conj_inv = matrix_from_rows(field, [[int(i == j) - c * u[i] * w[j] for j in range(r)] for i in range(r)])
    assert conj @ conj_inv == identity(r, field)
    pairs = pairs_from_assignment(sharp_witness(n, 3, field))
    return [(conj @ a @ conj_inv, conj @ b @ conj_inv) for a, b in pairs]
