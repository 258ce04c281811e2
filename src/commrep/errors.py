"""Exception hierarchy shared by every module, with stable CLI exit codes,
and the checks every JSON document reader shares.

Exit code contract: 0 success, 1 internal/parse error, 2 domain refusal
(``FieldTooSmallError``, ``PatternViolationError``, ``GuardError``,
``InvalidHintError``, and ``InvalidArgumentError``, which is also a
``ValueError``), 3 budget exceeded (a search status, not an exception).

Every reader of an input document (``*_from_json``) checks its shape with
``json_object``, ``json_list`` and ``json_int`` and raises only
``SchemaError``, whose message starts with the JSON path of the first fault.
Every decimal string, in a document or on the command line, is read by
``_decimal``, and every field name by ``field_characteristic``, the one check
of a field name: it accepts "Q" and "Fp:<p>" for a prime p below 2^78.
"""

from __future__ import annotations


class CommrepError(Exception):
    """Base class; subclasses pin a machine-readable code and exit code."""

    code = "internal"
    exit_code = 1


class SchemaError(CommrepError):
    """Malformed or out-of-contract JSON input; message names the offending path."""

    code = "schema"
    exit_code = 1

    def __init__(self, message, path=""):
        self.path = path
        super().__init__(f"{path}: {message}" if path else message)


def json_object(doc, keys, what: str, path: str) -> dict:
    """A JSON object holding every key in ``keys``; missing keys are reported in that order."""
    if not isinstance(doc, dict):
        raise SchemaError(f"{what} must be an object", path)
    for key in keys:
        if key not in doc:
            raise SchemaError(f"missing key {key!r}", path)
    return doc


def json_list(value, path: str, length=None, minimum: int = 0) -> list:
    """A JSON array of exactly ``length`` items, or else of at least ``minimum``."""
    if not isinstance(value, list):
        raise SchemaError("expected an array", path)
    if length is not None and len(value) != length:
        raise SchemaError(f"expected an array of {length} items, got {len(value)}", path)
    if len(value) < minimum:
        raise SchemaError(f"expected an array of at least {minimum} items, got {len(value)}", path)
    return value


def json_int(value, minimum: int, path: str) -> int:
    """An integer field of a JSON document, at least ``minimum``.

    JSON ``true`` and ``false`` load as Python bools, which are ints; they
    are refused here like any other non-integer.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SchemaError(f"expected an integer >= {minimum}, got {value!r}", path)
    return value


def _decimal(text: str) -> int | None:
    """The integer a decimal string spells (ASCII digits, optional leading '-'), or None."""
    digits = text[1:] if text[:1] == "-" else text
    if not (digits.isascii() and digits.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than int() converts
        return None


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# the least strong pseudoprime to all of _MR_BASES is 318665857834031151167461 > 2^78
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases", Math. Comp. 2017)
_CHARACTERISTIC_BITS = 78


def is_prime(n: int) -> bool:
    """Miller-Rabin on the bases 2..37: exact below the pseudoprime above, so for every n < 2^78."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_characteristic(p):
    """``p`` if it is None (the rationals) or a prime int below 2^78; ValueError otherwise."""
    if isinstance(p, int) and p >= 1 << _CHARACTERISTIC_BITS:
        raise ValueError(f"characteristic must be below 2^{_CHARACTERISTIC_BITS}, got {p}")
    if p is not None and not (isinstance(p, int) and is_prime(p)):
        raise ValueError(f"characteristic must be a prime >= 2, got {p!r}")
    return p


def field_characteristic(name) -> int | None:
    """The characteristic a field name spells: None for "Q", p for "Fp:<p>".

    Any other name, and a p that ``prime_characteristic`` refuses, raises
    ValueError.  The CLI checks ``--field`` with it before it imports any
    library module.
    """
    if name == "Q":
        return None
    if isinstance(name, str) and name.startswith("Fp:"):
        p = _decimal(name[3:])
        if p is None or name[3] in "-0":
            raise ValueError(f"bad field name {name!r}")
        return prime_characteristic(p)
    raise ValueError(f"bad field name {name!r} (expected 'Q' or 'Fp:<prime>')")


class FieldTooSmallError(CommrepError):
    """The prime field has too few elements for the requested construction."""

    code = "field_too_small"
    exit_code = 2


class PatternViolationError(CommrepError):
    """Input matrices do not realize the required commutation pattern."""

    code = "pattern_violation"
    exit_code = 2


class GuardError(CommrepError):
    """A feasibility guard refused the computation (enumeration too large)."""

    code = "guard_violation"
    exit_code = 2


class InvalidHintError(CommrepError):
    """A search hint of the wrong size or field, singular under ``invertible_only``, or no realization."""

    code = "invalid_hint"
    exit_code = 2


class InvalidArgumentError(CommrepError, ValueError):
    """An argument outside the routine's domain, such as an assignment of the wrong length."""

    code = "invalid_argument"
    exit_code = 2
