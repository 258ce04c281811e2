"""The value types: equality, hashing and ``repr`` by value, read-only fields, validation messages.

``FieldSpec``, ``Matrix``, ``CommGraph``, ``Assignment`` and ``ModuleSpec``
validate in ``__init__`` and take equality, hashing, ``repr`` and read-only
fields from one base, ``exactla._Value``; the result records are
``NamedTuple``s, so they are also tuples.
"""

import pytest

from commrep.certificate import VerificationResult
from commrep.commgraph import Assignment, CommGraph, PairStatus, RealizationCheck
from commrep.exactla import GF, QQ, FieldSpec, Matrix, _Value, matrix_from_rows
from commrep.modsplit import CompositionReport, CountCheck, ModuleSpec
from commrep.search import ExistsOutcome, SearchReport

F2, F3 = GF(2), GF(3)


def _one(field=F2):
    return Matrix(field, 1, 1, (1,))


def _graph():
    return CommGraph(3, frozenset({(1, 2)}))


# class -> (constructor arguments, arguments of an unequal instance, a field name);
# the arguments are built afresh on every call, so equal instances share no objects
PLAIN = {
    FieldSpec: (lambda: (5,), lambda: (7,), "characteristic"),
    Matrix: (lambda: (F2, 1, 2, (1, 0)), lambda: (F2, 1, 2, (0, 1)), "nonzero_rows"),
    CommGraph: (lambda: (3, frozenset({(1, 2)})), lambda: (3, frozenset({(2, 3)})), "edges"),
    Assignment: (lambda: ((_one(), _one()),), lambda: ((_one(F3),),), "matrices"),
    ModuleSpec: (lambda: (F2, 1, (_one(),)), lambda: (F3, 1, (_one(F3),)), "generators"),
}

# class -> every field, each named by repr
FIELDS = {
    FieldSpec: ("characteristic",),
    Matrix: ("field", "rows", "cols", "nonzero_rows", "den"),
    CommGraph: ("vertex_count", "edges"),
    Assignment: ("matrices",),
    ModuleSpec: ("field", "dim", "generators"),
}

RECORDS = {
    PairStatus: (lambda: (1, 2, True, True), lambda: (1, 2, True, False), "commutes"),
    RealizationCheck: (lambda: (True, ()), lambda: (False, (PairStatus(1, 2, True, True),)), "ok"),
    VerificationResult: (lambda: (True, ()), lambda: (False, ("z_zero",)), "reasons"),
    ExistsOutcome: (lambda: ("none", None, 3), lambda: ("none", None, 4), "nodes"),
    SearchReport: (
        lambda: (_graph(), F2, "all", 2, 100, "exact", 2, 2, None, ((1, "exhaustive"),), None, 5),
        lambda: (_graph(), F2, "all", 2, 100, "exact", 2, 2, None, ((1, "exhaustive"),), None, 6),
        "nodes_explored",
    ),
    CompositionReport: (
        lambda: ((1,), (0, 1), _one(), True),
        lambda: ((1,), (0, 1), _one(), False),
        "flag_basis",
    ),
    CountCheck: (
        lambda: ("satisfied", (), ((1,),), 2, 2, 2, 2, True),
        lambda: ("satisfied", (), ((1,),), 2, 2, 2, 2, False),
        "verdict",
    ),
}

ALL = {**PLAIN, **RECORDS}


def _ids(classes):
    return [cls.__name__ for cls in classes]


@pytest.mark.parametrize("cls", ALL, ids=_ids(ALL))
def test_equal_and_hashed_by_value(cls):
    args, other, _ = ALL[cls]
    a, b = cls(*args()), cls(*args())
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != cls(*other())


@pytest.mark.parametrize("cls", PLAIN, ids=_ids(PLAIN))
def test_a_value_equals_itself_without_reading_its_fields(cls, monkeypatch):
    args, _, _ = PLAIN[cls]
    value, twin = cls(*args()), cls(*args())

    def unread(_):
        raise AssertionError("the field key was read")

    monkeypatch.setattr(cls, "_key", unread)
    assert value == value and not value != value
    monkeypatch.undo()
    assert twin is not value
    assert not value != twin and not twin != value


@pytest.mark.parametrize("cls", PLAIN, ids=_ids(PLAIN))
def test_not_equal_is_the_base_s_own_and_passes_not_implemented_through(cls, monkeypatch):
    # object.__ne__ would call __eq__ through a slot wrapper on every !=
    assert cls.__ne__ is _Value.__ne__ and "__ne__" in _Value.__dict__
    args, other, _ = PLAIN[cls]
    value, twin, unequal = cls(*args()), cls(*args()), cls(*other())
    subclass_value = type("Other" + cls.__name__, (cls,), {})(*args())
    assert (value.__ne__(twin), value.__ne__(unequal)) == (False, True)
    assert value.__ne__(object()) is NotImplemented and value.__ne__(subclass_value) is NotImplemented
    assert value != 5 and value != subclass_value

    def unread(_):
        raise AssertionError("the field key was read")

    monkeypatch.setattr(cls, "_key", unread)
    assert value.__ne__(value) is False


@pytest.mark.parametrize("cls", PLAIN, ids=_ids(PLAIN))
def test_another_class_with_equal_fields_is_not_equal(cls):
    args, _, _ = PLAIN[cls]
    other_class = type("Other" + cls.__name__, (cls,), {})
    assert cls(*args()) != other_class(*args())
    assert other_class(*args()) != cls(*args())


@pytest.mark.parametrize("cls", PLAIN, ids=_ids(PLAIN))
def test_repr_names_the_class_and_every_field(cls):
    args, _, _ = PLAIN[cls]
    value = cls(*args())
    text = repr(value)
    assert text.startswith(cls.__name__ + "(") and text.endswith(")")
    for name in FIELDS[cls]:
        assert f"{name}={getattr(value, name)!r}" in text
    assert text.count("=") == sum(repr(getattr(value, name)).count("=") + 1 for name in FIELDS[cls])


@pytest.mark.parametrize("cls", PLAIN, ids=_ids(PLAIN))
def test_make_builds_an_equal_value(cls):
    args, _, _ = PLAIN[cls]
    value = cls(*args())
    assert cls._make(**{name: getattr(value, name) for name in FIELDS[cls]}) == value


def test_make_skips_the_checks():
    singular = matrix_from_rows(F2, [[1, 0], [1, 0]])
    assert ModuleSpec._make(field=F2, dim=2, generators=(singular,)).generators == (singular,)


@pytest.mark.parametrize("cls", RECORDS, ids=_ids(RECORDS))
def test_records_are_tuples(cls):
    args, _, _ = RECORDS[cls]
    record = cls(*args())
    assert isinstance(record, tuple)
    assert record == args()
    assert tuple(record) == args()


@pytest.mark.parametrize("cls", ALL, ids=_ids(ALL))
def test_fields_cannot_be_assigned_or_deleted(cls):
    args, _, field = ALL[cls]
    value = cls(*args())
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert value == cls(*args())


@pytest.mark.parametrize("name", ["field", "rows", "cols", "nonzero_rows", "den"])
def test_matrix_fields_cannot_be_assigned_or_deleted(name):
    value = matrix_from_rows(QQ, [["1/2", 1], [0, 3]])
    current = getattr(value, name)
    with pytest.raises(AttributeError):
        setattr(value, name, current)
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert value == matrix_from_rows(QQ, [["1/2", 1], [0, 3]])


def test_record_defaults_and_truth():
    assert CompositionReport((1,), (0, 1), _one()).base_field_only is True
    assert bool(VerificationResult(True, ())) is True
    assert bool(VerificationResult(False, ("z_zero",))) is False


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FieldSpec(4), "characteristic must be a prime >= 2, got 4"),
        (lambda: FieldSpec("5"), "characteristic must be a prime >= 2, got '5'"),
        # a strong pseudoprime to the Miller-Rabin bases 2..37, and a Mersenne prime
        (lambda: FieldSpec(318665857834031151167461),
         "characteristic must be below 2^78, got 318665857834031151167461"),
        (lambda: FieldSpec(2**89 - 1), "characteristic must be below 2^78, got 618970019642690137449562111"),
        (lambda: CommGraph(2, frozenset({(1, 1)})), "self-loop at 1"),
        (lambda: CommGraph(2, frozenset({(1, 3)})), "edge (1, 3) outside 1..2"),
        (lambda: Assignment(()), "assignment must be nonempty"),
        (lambda: Assignment((_one(), _one(F3))), "uniform dimension and field required"),
        (lambda: ModuleSpec(F2, 2, (matrix_from_rows(F2, [[1, 0], [1, 0]]),)), "generators must be invertible"),
    ],
    ids=["field-not-prime", "field-not-int", "field-pseudoprime-above-bound", "field-prime-above-bound",
         "graph-self-loop", "graph-edge-outside", "assignment-empty", "assignment-mixed-fields",
         "module-singular-generator"],
)
def test_validation_messages(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message
