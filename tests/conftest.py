"""Shared strategies and helpers for the test suite."""

import contextlib
import math
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
from commrep.exactla import GF, QQ, matrix_from_rows  # noqa: E402

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
