"""Exception hierarchy shared by every module, with stable CLI exit codes.

Exit code contract: 0 success, 1 internal/parse error, 2 domain refusal,
3 budget exceeded (budget exhaustion is reported via search status, not an
exception; the CLI maps it to 3).
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


def json_int(value, minimum: int, path: str) -> int:
    """An integer field of a JSON document, at least ``minimum``.

    JSON ``true`` and ``false`` load as Python bools, which are ints; they
    are refused here like any other non-integer.
    """
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise SchemaError(f"expected an integer >= {minimum}, got {value!r}", path)
    return value


class FieldTooSmallError(CommrepError):
    """The prime field has too few elements for the requested construction."""

    code = "field_too_small"
    exit_code = 2


class PatternViolationError(CommrepError):
    """Input matrices do not realize the required commutation pattern."""

    code = "pattern_violation"
    exit_code = 2

    def __init__(self, message, violations=()):
        self.violations = tuple(violations)
        super().__init__(message)


class GuardError(CommrepError):
    """A feasibility guard refused the computation (enumeration too large)."""

    code = "guard_violation"
    exit_code = 2


class InvalidHintError(CommrepError):
    """A supplied search hint does not realize the graph."""

    code = "invalid_hint"
    exit_code = 2
