"""The input contract under mutation: a malformed document ends as a typed error.

Valid documents of every kind are mutated at one node: replaced by a value of
the wrong type, a bool, a non-string field name, an empty or short list, a
huge or negative size, a random JSON value, or deleted.  Each reader must
return or raise ``SchemaError``; each CLI subcommand that reads the document
must end with its documented exit code and never with ``internal``.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from commrep import cli
from commrep.certificate import (
    build_certificate,
    certificate_from_json,
    certificate_to_json,
    pairs_from_assignment,
)
from commrep.commgraph import (
    assignment_from_json,
    assignment_to_json,
    graph_from_json,
    graph_to_json,
    matching_graph,
)
from commrep.errors import CommrepError, SchemaError
from commrep.exactla import GF, QQ, matrix_from_json
from commrep.modsplit import dims_from_json, module_from_json
from commrep.witness import sharp_witness

DELETE = object()
_BAD = [None, True, False, 0, -1, 2, 10**9, -10**9, 10**30, 1.5, "", "x", "Fp:4", "1/0",
        [], [0], ["1", "0"], ["1"], [True], {}, {"field": 7}, 7, ["Q"]]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)
_MUTATION = st.sampled_from(_BAD) | _JSON | st.just(DELETE)


def _perm(rows):
    return {"field": "Fp:2", "rows": 3, "cols": 3, "entries": [str(x) for row in rows for x in row]}


def _valid(field):
    pairs = sharp_witness(2, 2, field)
    return {
        "input": assignment_to_json(pairs),
        "cert": certificate_to_json(build_certificate(pairs_from_assignment(pairs))),
        "graph": graph_to_json(matching_graph(2)),
        "module": {"field": "Fp:2", "dim": 3, "generators": [
            _perm([[0, 0, 1], [1, 0, 0], [0, 1, 0]]), _perm([[0, 1, 0], [1, 0, 0], [0, 0, 1]])]},
        "dims": {"dims": [[1, 2], [2, 1]]},
    }


_VALID = {"Q": _valid(QQ), "F7": _valid(GF(7))}
_COMMANDS = {
    "input": [["verify-graph", "--input", "{input}", "--graph", "{graph}"],
              ["verify-cert", "--cert", "{cert}", "--input", "{input}"]],
    "graph": [["verify-graph", "--input", "{input}", "--graph", "{graph}"],
              ["search", "--graph", "{graph}", "--field", "Fp:2", "--rmax", "2", "--budget", "500"]],
    "cert": [["verify-cert", "--cert", "{cert}", "--input", "{input}"]],
    "module": [["split", "--module", "{module}"]],
    "dims": [["count-check", "--dims", "{dims}"]],
}
# (reader, the file the document goes into, the field of the other files); a
# matrix goes in as the first matrix of the assignment
_KINDS = {
    "matrix-Q": (matrix_from_json, "input", "Q"),
    "matrix-F7": (matrix_from_json, "input", "F7"),
    "assignment-Q": (assignment_from_json, "input", "Q"),
    "assignment-F7": (assignment_from_json, "input", "F7"),
    "certificate-Q": (certificate_from_json, "cert", "Q"),
    "certificate-F7": (certificate_from_json, "cert", "F7"),
    "graph": (graph_from_json, "graph", "Q"),
    "module": (module_from_json, "module", "Q"),
    "dims": (dims_from_json, "dims", "Q"),
}


def _exit_codes(cls=CommrepError):
    codes = {cls.code: cls.exit_code}
    for sub in cls.__subclasses__():
        codes.update(_exit_codes(sub))
    return codes


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))  # unshared, unlike a deep copy: the writers share one zero text
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _document(kind):
    files = _VALID[_KINDS[kind][2]]
    return files["input"]["matrices"][0] if kind.startswith("matrix") else files[_KINDS[kind][1]]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """The valid files of each field, as ``{field: {role: path}}``, and the directory."""
    root = tmp_path_factory.mktemp("fuzz")
    names = {}
    for field, files in _VALID.items():
        names[field] = {role: _write(root / f"{field}-{role}.json", doc) for role, doc in files.items()}
    return root, names


def _write(path, doc):
    with open(path, "w") as fh:
        json.dump(doc, fh)
    return str(path)


@pytest.mark.parametrize("kind", sorted(_KINDS))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_mutated_documents_end_in_typed_errors(fuzz_dir, kind, data):
    reader, role, field = _KINDS[kind]
    valid = _document(kind)
    paths = list(_paths(valid))
    named = [p for p in paths if not p or isinstance(p[-1], str)]  # the root and object members
    path = data.draw(st.sampled_from(named) | st.sampled_from(paths), label="path")
    value = data.draw(_MUTATION if path else _MUTATION.filter(lambda v: v is not DELETE), label="value")
    doc = _mutate(valid, path, value)
    try:
        reader(doc)
    except SchemaError:
        pass

    root, valid_names = fuzz_dir
    if kind.startswith("matrix"):
        doc = {"matrices": [doc] + _VALID[field]["input"]["matrices"][1:]}
    names = dict(valid_names[field], **{role: _write(root / "mutated.json", doc)})
    for command in _COMMANDS[role]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([arg.format(**names) for arg in command])
        result = json.loads(out.getvalue())
        if "error" in result:
            assert result["error"]["code"] != "internal", (command[0], result)
            assert code == _exit_codes()[result["error"]["code"]], (command[0], result)
        else:
            assert code == (3 if result.get("status") == "exhausted_budget" else 0), (command[0], result)
