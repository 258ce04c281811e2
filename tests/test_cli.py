"""CLI contract: schemas, exit codes, round-trips, determinism."""

import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from commrep.certificate import build_certificate
from commrep.cli import WITNESS_N_CAP
from commrep.commgraph import Assignment, CommGraph, assignment_to_json
from commrep.exactla import GF, QQ, FieldSpec
from commrep.modsplit import DIM_CAP
from commrep.search import NONE, exists_realization
from conftest import dense_conjugated_pairs, kernel_path, run_cli

SRC = str(Path(__file__).resolve().parent.parent / "src")


def payload(result):
    return json.loads(result.stdout)


@pytest.fixture()
def workdir(tmp_path):
    return tmp_path


def _write(workdir, name, doc):
    path = workdir / name
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    return str(path)


def test_witness_n1_lambda2(workdir):
    res = run_cli("witness", "--n", "1", "--lambda", "2", "--field", "Q")
    assert res.returncode == 0
    doc = payload(res)
    a1, b1 = doc["matrices"]
    assert a1["entries"] == [["1", "1"], ["1", "1"], ["0", "1"], ["1", "1"]]
    assert b1["entries"] == [["1", "1"], ["0", "1"], ["0", "1"], ["-1", "1"]]
    assert doc["ordering"] == "a_1..a_n,b_1..b_n"


def test_witness_rejects_zero_lambda():
    res = run_cli("witness", "--n", "2", "--lambda", "0", "--field", "Q")
    assert res.returncode == 2
    assert payload(res)["error"]["code"] == "invalid_argument"


def test_bad_field_name_is_usage_error():
    # composite; a strong pseudoprime to bases 2..37; and 41 * 61 * 101, a Carmichael number with no factor up to 37
    for field in ("Fp:4", "Fp:318665857834031151167461", "Fp:252601"):
        res = run_cli("witness", "--n", "1", "--lambda", "2", "--field", field)
        assert res.returncode == 1
        assert payload(res)["error"]["code"] == "usage"


def test_unknown_subcommand_exits_one():
    res = run_cli("frobnicate")
    assert res.returncode == 1


def test_certify_round_trip(workdir):
    wit = run_cli("witness", "--n", "2", "--lambda", "2", "--field", "Q")
    pairs_file = workdir / "w2.json"
    pairs_file.write_text(wit.stdout)
    cert_res = run_cli("certify", "--input", str(pairs_file))
    assert cert_res.returncode == 0
    cert = payload(cert_res)
    assert cert["bound"] == 3 and cert["r"] == 3
    cert_file = workdir / "c2.json"
    cert_file.write_text(cert_res.stdout)
    ver = run_cli("verify-cert", "--cert", str(cert_file), "--input", str(pairs_file))
    assert ver.returncode == 0
    assert payload(ver) == {"reasons": [], "valid": True}


def test_certify_single_pair_bound_two(workdir):
    wit = run_cli("witness", "--n", "1", "--lambda", "2", "--field", "Q")
    pairs_file = workdir / "w1.json"
    pairs_file.write_text(wit.stdout)
    res = run_cli("certify", "--input", str(pairs_file))
    assert res.returncode == 0
    cert = payload(res)
    assert cert["bound"] == 2
    assert cert["v"] == [["0", "1"], ["1", "1"]]
    assert cert["alpha"] == [["1", "1"], ["1", "1"]]


def test_certify_pattern_violation_exits_two(workdir):
    eye = {"field": "Q", "rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "1"], ["0", "1"], ["1", "1"]]}
    pairs_file = _write(workdir, "bad.json", {"matrices": [eye, eye]})
    res = run_cli("certify", "--input", pairs_file)
    assert res.returncode == 2
    assert payload(res)["error"]["code"] == "pattern_violation"


def test_certify_malformed_json_exits_one(workdir):
    path = workdir / "broken.json"
    path.write_text("{not json")
    res = run_cli("certify", "--input", str(path))
    assert res.returncode == 1
    assert "broken.json" in payload(res)["error"]["message"]


def test_verify_graph(workdir):
    wit = run_cli("witness", "--n", "2", "--lambda", "2", "--field", "Q")
    asg = _write(workdir, "w.json", payload(wit))
    graph = _write(workdir, "g.json", {"vertices": 4, "edges": [[1, 3], [2, 4]]})
    res = run_cli("verify-graph", "--input", asg, "--graph", graph)
    assert res.returncode == 0
    assert payload(res) == {"realizes": True, "violations": []}
    wrong = _write(workdir, "g2.json", {"vertices": 4, "edges": [[1, 2]]})
    res2 = run_cli("verify-graph", "--input", asg, "--graph", wrong)
    assert res2.returncode == 0
    doc = payload(res2)
    assert doc["realizes"] is False and doc["violations"]


def test_search_matching_one(workdir):
    graph = _write(workdir, "m1.json", {"vertices": 2, "edges": [[1, 2]]})
    res = run_cli(
        "search", "--graph", graph, "--field", "Fp:2", "--rmax", "3",
        "--mode", "all", "--budget", "10000000",
    )
    assert res.returncode == 0
    doc = payload(res)
    assert doc["status"] == "exact"
    assert doc["lower"] == doc["upper"] == 2
    assert doc["excluded"] == [[1, "analytic"]] and doc["analytic_lower"] == 2
    # the analytic level is charged no node: the level-2 sweep alone takes 3
    assert doc["nodes_explored"] == 3
    # and a sweep of the analytic level confirms it
    assert exists_realization(CommGraph.make(2, [(1, 2)]), GF(2), 1).status == NONE
    # the emitted witness is accepted by verify-graph
    wfile = _write(workdir, "w.json", doc["witness"])
    ver = run_cli("verify-graph", "--input", wfile, "--graph", graph)
    assert payload(ver)["realizes"] is True


def test_search_budget_exhaustion_exit_code(workdir):
    graph = _write(workdir, "m1.json", {"vertices": 2, "edges": [[1, 2]]})
    # level 1 is excluded analytically, and the level-2 sweep needs 3 nodes
    res = run_cli(
        "search", "--graph", graph, "--field", "Fp:2", "--rmax", "2",
        "--budget", "2",
    )
    assert res.returncode == 3
    doc = payload(res)
    assert (doc["status"], doc["lower"], doc["nodes_explored"]) == ("exhausted_budget", 2, 2)
    res = run_cli("search", "--graph", graph, "--field", "Fp:2", "--rmax", "2", "--budget", "3")
    assert res.returncode == 0
    assert (payload(res)["status"], payload(res)["nodes_explored"]) == ("exact", 3)
    # a zero budget is accepted, and exhausted on P4
    p4 = _write(workdir, "p4.json", {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4]]})
    res = run_cli("search", "--graph", p4, "--field", "Fp:2", "--rmax", "3", "--budget", "0")
    assert res.returncode == 3
    assert payload(res)["status"] == "exhausted_budget"


def test_search_invalid_hint_exits_two(workdir):
    graph = _write(workdir, "m1.json", {"vertices": 2, "edges": [[1, 2]]})
    zero = {"field": "Fp:2", "rows": 1, "cols": 1, "entries": ["0"]}
    hint = _write(workdir, "h.json", {"matrices": [zero, zero]})
    res = run_cli("search", "--graph", graph, "--field", "Fp:2", "--rmax", "2", "--hint", hint)
    assert res.returncode == 2
    assert payload(res)["error"]["code"] == "invalid_hint"


def test_search_invertible_only_refuses_a_singular_hint(workdir):
    witness = payload(run_cli("witness", "--n", "2", "--lambda", "1", "--field", "Fp:2"))
    hint = _write(workdir, "w2f2.json", witness)
    graph = _write(workdir, "m2.json", {"vertices": 4, "edges": [[1, 3], [2, 4]]})
    res = run_cli("search", "--graph", graph, "--field", "Fp:2", "--rmax", "4", "--mode", "invertible_only",
                  "--budget", "10000000", "--hint", hint)
    assert res.returncode == 2
    assert payload(res)["error"] == {
        "code": "invalid_hint", "message": "hint matrix 3 is singular; invertible_only needs invertible matrices"}


@pytest.mark.parametrize(
    "option, value, least", [("--rmax", "0", 1), ("--jobs", "0", 1), ("--budget", "-1", 0)]
)
def test_search_refusal_names_the_failing_option(workdir, option, value, least):
    graph = _write(workdir, "p4.json", {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4]]})
    args = {"--rmax": "3", "--jobs": "1", "--budget": "1000", option: value}
    res = run_cli("search", "--graph", graph, "--field", "Fp:2", *[x for kv in args.items() for x in kv])
    assert res.returncode == 2
    error = payload(res)["error"]
    assert error["code"] == "invalid_argument"
    assert error["message"] == f"{option} must be at least {least}"


def test_split_s3_module(workdir):
    def perm(rows):
        return {
            "field": "Fp:2",
            "rows": 3,
            "cols": 3,
            "entries": [str(x) for row in rows for x in row],
        }

    module = _write(
        workdir,
        "m.json",
        {
            "field": "Fp:2",
            "dim": 3,
            "generators": [
                perm([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                perm([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
            ],
        },
    )
    res = run_cli("split", "--module", module)
    assert res.returncode == 0
    doc = payload(res)
    assert sorted(doc["factor_dims"]) == [1, 2]
    assert doc["base_field_only"] is True


def test_split_guard_exits_two(workdir):
    # a dimension above the cap, with an invertible and with a singular generator (refused
    # before the generator is ranked), and the companion matrix of x^20 + x^3 + 1 over F_2,
    # whose field of 2^20 elements has more points than the split budget allows
    def module(dim, rows):
        entries = [str(x) for row in rows for x in row]
        return {"field": "Fp:2", "dim": dim, "generators": [{"field": "Fp:2", "rows": dim, "cols": dim, "entries": entries}]}

    eye = [[int(i == j) for j in range(DIM_CAP + 1)] for i in range(DIM_CAP + 1)]
    singular = [[0] * (DIM_CAP + 1) for _ in range(DIM_CAP + 1)]
    companion = [[int(i == j + 1) if j < 19 else int(i in (0, 3)) for j in range(20)] for i in range(20)]
    for dim, rows in ((DIM_CAP + 1, eye), (DIM_CAP + 1, singular), (20, companion)):
        res = run_cli("split", "--module", _write(workdir, "m.json", module(dim, rows)))
        assert res.returncode == 2
        assert payload(res)["error"]["code"] == "guard_violation"


def test_count_check(workdir):
    good = _write(workdir, "d.json", {"dims": [[1, 2], [2, 1]]})
    res = run_cli("count-check", "--dims", good)
    assert res.returncode == 0
    doc = payload(res)
    assert doc["verdict"] == "satisfied"
    assert doc["chain"] == {
        "floor": 4,
        "sum_doubled": 4,
        "sum_powers": 4,
        "sum_products": 4,
    }
    bad = _write(workdir, "d2.json", {"dims": [[1, 2]]})
    res2 = run_cli("count-check", "--dims", bad)
    assert payload(res2)["verdict"] == "precondition_failed"
    assert payload(res2)["failed_columns"] == [1]
    nonpos = _write(workdir, "d3.json", {"dims": [[0, 2]]})
    res3 = run_cli("count-check", "--dims", nonpos)
    assert res3.returncode == 1
    assert payload(res3)["error"]["message"].startswith(f"{nonpos}.dims[0][0]: ")


_ONE = {"field": "Q", "rows": 1, "cols": 1, "entries": [["1", "1"]]}
_TWO = {"field": "Q", "rows": 2, "cols": 2, "entries": [["1", "1"], ["0", "1"], ["0", "1"], ["1", "1"]]}
_CERT = {"field": "Q", "n": 1, "r": 2, "v": [["0", "1"], ["1", "1"]], "alpha": [["1", "1"], ["1", "1"]],
         "gram": [[["0", "1"], ["2", "1"]], [["-2", "1"], ["0", "1"]]], "image_rank": 2, "bound": 2}


@pytest.mark.parametrize(
    "command, files, exit_code, code, message",
    [
        (["verify-cert", "--cert", "{a}", "--input", "{b}"],
         [dict(_CERT, n=0, gram=[]), {"matrices": [_ONE, _ONE]}], 1, "schema", None),
        (["verify-cert", "--cert", "{a}", "--input", "{b}"],
         [dict(_CERT, image_rank=True), {"matrices": [_ONE, _ONE]}], 1, "schema", None),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [dict(_ONE, rows=True)]}, {"vertices": 1, "edges": []}], 1, "schema", None),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [_ONE, _ONE]}, {"vertices": True, "edges": []}], 1, "schema", None),
        (["count-check", "--dims", "{a}"], [{"dims": [[True, 2]]}], 1, "schema", None),
        (["count-check", "--dims", "{a}"], [{"dims": [[1, 2], [2]]}], 1, "schema", None),
        (["count-check", "--dims", "{a}"], [{"dims": [[1, "2"], [2, 1]]}], 1, "schema", None),
        (["witness", "--n", "2", "--lambda", "1/0", "--field", "Q"], [], 2, "invalid_argument", None),
        (["witness", "--n", "2", "--lambda", "1/0", "--field", "Fp:5"], [], 2, "invalid_argument", None),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [b"[" * 200_000, {"vertices": 2, "edges": []}], 1, "schema", None),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [b"\xff{", {"vertices": 2, "edges": []}], 1, "schema", None),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [_ONE]}, b'{"vertices": 1' + b"0" * 5000 + b', "edges": []}'], 1, "schema", None),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [dict(_ONE, field=7)]}, {"vertices": 1, "edges": []}], 1, "schema", None),
        (["split", "--module", "{a}"],
         [{"field": ["Fp:2"], "dim": 1, "generators": [dict(_ONE, field="Fp:2", entries=["1"])]}], 1, "schema", None),
        (["verify-cert", "--cert", "{a}", "--input", "{b}"],
         [dict(_CERT, field=None), {"matrices": [_ONE, _ONE]}], 1, "schema", None),
        (["search", "--graph", "{a}", "--field", "Fp:2", "--rmax", "1"],
         [{"vertices": 10**9, "edges": []}], 2, "guard_violation", None),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [_ONE] * 3}, {"vertices": 10**9, "edges": []}], 2, "invalid_argument",
         "assignment has 3 matrices for 1000000000 vertices"),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [dict(_ONE, entries=[[" 1_000 ", "+2"]])]}, {"vertices": 1, "edges": []}], 1, "schema", None),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [dict(_ONE, field="Fp:318665857834031151167461", entries=["1"])]},
          {"vertices": 1, "edges": []}], 1, "schema", None),
        (["certify", "--input", "{a}"], [{"matrices": [_ONE] * 3}], 2, "invalid_argument",
         "assignment length must be even to form pairs"),
        (["verify-cert", "--cert", "{a}", "--input", "{b}"], [_CERT, {"matrices": [_ONE] * 3}], 2,
         "invalid_argument", "assignment length must be even to form pairs"),
        (["witness", "--n", "0", "--lambda", "2", "--field", "Q"], [], 2, "invalid_argument",
         "--n must be at least 1"),
        ([], [], 1, "usage", "missing subcommand (see --help)"),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": []}, {"vertices": 1, "edges": []}], 1, "schema", "{a}.matrices: "),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [_ONE, _TWO]}, {"vertices": 2, "edges": []}], 1, "schema",
         "{a}.matrices: uniform dimension and field required"),
        (["verify-graph", "--input", "{a}", "--graph", "{b}"],
         [{"matrices": [dict(_ONE, cols=2, entries=[["1", "1"], ["0", "1"]])]}, {"vertices": 1, "edges": []}],
         1, "schema", "{a}.matrices: assignments hold square matrices"),
        (["split", "--module", "{a}"],
         [{"field": "Fp:2", "dim": 1, "generators": [dict(_ONE, field="Fp:2", entries=["0"])]}], 1, "schema",
         "{a}: generators must be invertible"),
        (["search", "--graph", "{a}", "--field", "Fp:2", "--rmax", "2", "--hint", "{b}"],
         [{"vertices": 2, "edges": [[1, 2]]}, {"matrices": [dict(_ONE, field="Fp:2", entries=["1"])] * 3}], 2,
         "invalid_hint", "hint assigns 3 matrices to 2 vertices"),
        (["witness", "--n", "9" * 5000, "--lambda", "2", "--field", "Q"], [], 1, "usage", None),
    ],
    ids=["cert-n-zero", "cert-image-rank-true", "matrix-rows-true", "graph-vertices-true", "dims-entry-true",
         "dims-rows-ragged", "dims-entry-string",
         "lambda-zero-denominator-q", "lambda-zero-denominator-fp", "nesting-too-deep", "not-utf8",
         "number-too-long", "matrix-field-not-string", "module-field-not-string", "cert-field-not-string",
         "search-vertices-above-cap", "verify-graph-billion-vertices", "scalar-not-decimal",
         "matrix-field-pseudoprime", "certify-odd-assignment", "verify-cert-odd-assignment", "witness-n-zero",
         "no-subcommand", "assignment-empty", "assignment-mixed-sizes", "assignment-not-square",
         "split-singular-generator", "search-hint-too-long", "witness-n-too-many-digits"],
)
def test_json_booleans_and_empty_certificate_are_typed_errors(workdir, command, files, exit_code, code, message):
    # ``message``, where given, is the start of the expected message, with {a} and {b} the files' paths
    paths = {name: _write(workdir, f"{name}.json", doc) for name, doc in zip("ab", files)}
    res = run_cli(*(arg.format(**paths) for arg in command))
    assert res.returncode == exit_code
    error = payload(res)["error"]
    assert error["code"] == code
    if code == "schema":  # the message starts with the file and the JSON path of the first fault
        assert error["message"].startswith(tuple(paths.values()))
    if message is not None:
        assert error["message"].startswith(message.format(**paths))


@pytest.mark.parametrize("field", ["Fp:\u0663", "Fp:0003"], ids=["arabic-indic-digit", "leading-zeros"])
def test_field_name_takes_ascii_digits_with_no_leading_zero(field):
    res = run_cli("witness", "--n", "1", "--lambda", "2", "--field", field)
    assert res.returncode == 1
    assert payload(res)["error"]["code"] == "usage"


def test_matrix_field_with_a_leading_zero_is_a_schema_error(workdir):
    a = _write(workdir, "a.json", {"matrices": [dict(_ONE, field="Fp:03", entries=["1"])]})
    b = _write(workdir, "b.json", {"vertices": 1, "edges": []})
    res = run_cli("verify-graph", "--input", a, "--graph", b)
    assert res.returncode == 1
    error = payload(res)["error"]
    assert error["code"] == "schema"
    assert error["message"].startswith(f"{a}.matrices[0].field: ")


_WITNESS = ["witness", "--n", "2", "--field", "Q", "--lambda"]
_SEARCH = ["search", "--graph", "g.json", "--field", "Fp:2", "--rmax", "2"]


@pytest.mark.parametrize(
    "argv, exit_code, code",
    [
        ([*_WITNESS, "1e0"], 2, "invalid_argument"),
        ([*_WITNESS, "1.5"], 2, "invalid_argument"),
        ([*_WITNESS, " \u0662 "], 2, "invalid_argument"),
        ([*_WITNESS, "1_0"], 2, "invalid_argument"),
        ([*_WITNESS, "1/-2"], 2, "invalid_argument"),
        (["witness", "--n", "\u0662", "--lambda", "2", "--field", "Q"], 1, "usage"),
        (["witness", "--n", " 1_0", "--lambda", "2", "--field", "Q"], 1, "usage"),
        (["search", "--graph", "g.json", "--field", "Fp:2", "--rmax", "\u0662"], 1, "usage"),
        ([*_SEARCH, "--budget", "10_000"], 1, "usage"),
        ([*_SEARCH, "--jobs", "+1"], 1, "usage"),
    ],
    ids=["lambda-exponent", "lambda-decimal-point", "lambda-spaced-non-ascii", "lambda-underscore",
         "lambda-negative-denominator", "n-non-ascii", "n-spaced-underscore", "rmax-non-ascii",
         "budget-underscore", "jobs-plus-sign"],
)
def test_cli_numbers_follow_the_json_number_rule(argv, exit_code, code):
    # --lambda takes "a" or "a/b" and an integer option "a", in ASCII decimal digits;
    # the search refusals end before any file is read
    res = run_cli(*argv)
    assert res.returncode == exit_code
    assert payload(res)["error"]["code"] == code


@pytest.mark.parametrize("field, lam, lam_text", [("Q", ["-1", "2"], '"lambda":["-1","2"]'),
                                                  ("Fp:7", "3", '"lambda":"3"')])
def test_negative_fraction_lambda_in_the_equals_form(field, lam, lam_text):
    # argparse reads a separate "-1/2" as an option, so a negative fraction needs --lambda=-1/2
    res = run_cli("witness", "--n", "1", "--lambda=-1/2", "--field", field)
    assert res.returncode == 0
    assert payload(res)["lambda"] == lam
    assert lam_text in res.stdout


def test_selftest_passes():
    res = run_cli("selftest")
    assert res.returncode == 0
    doc = payload(res)
    assert doc["selftest"] == "pass"
    assert all(c["ok"] for c in doc["checks"])
    assert "split_sl2_f5_squared" in {c["name"] for c in doc["checks"]}


# Outputs pinned byte for byte; a change to any of them is a change of the JSON contract
_CERT_F11 = (
    '{"alpha":["1","0","0","0","1"],"bound":5,"field":"Fp:11","gram":[["0","0","0","0","8","0","0","0"],'
    '["0","0","0","0","0","8","0","0"],["0","0","0","0","0","0","8","0"],["0","0","0","0","0","0","0","8"],'
    '["3","0","0","0","0","0","0","0"],["0","3","0","0","0","0","0","0"],["0","0","3","0","0","0","0","0"],'
    '["0","0","0","3","0","0","0","0"]],"image_rank":5,"n":4,"r":5,"v":["0","1","1","1","1"]}\n'
)

_CERT_Q = (
    '{"alpha":[["1","1"],["0","1"],["0","1"],["1","1"]],'
    '"bound":4,"field":"Q","gram":[[["0","1"],["0","1"],["0","1"],["1","2"],["0","1"],["0","1"]],'
    '[["0","1"],["0","1"],["0","1"],["0","1"],["1","2"],["0","1"]],'
    '[["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["1","2"]],'
    '[["-1","2"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"]],'
    '[["0","1"],["-1","2"],["0","1"],["0","1"],["0","1"],["0","1"]],'
    '[["0","1"],["0","1"],["-1","2"],["0","1"],["0","1"],["0","1"]]],'
    '"image_rank":4,"n":3,"r":4,"v":[["0","1"],["1","1"],["1","1"],["1","1"]]}\n'
)

_CERT_DENSE_F13 = (
    '{"alpha":["0","0","0","0","0","1"],"bound":6,"field":"Fp:13","gram":[["0","0","0","0","0","2","0","0","0","0"],'
    '["0","0","0","0","0","0","10","0","0","0"],["0","0","0","0","0","0","0","1","0","0"],'
    '["0","0","0","0","0","0","0","0","11","0"],["0","0","0","0","0","0","0","0","0","10"],'
    '["11","0","0","0","0","0","0","0","0","0"],["0","3","0","0","0","0","0","0","0","0"],'
    '["0","0","12","0","0","0","0","0","0","0"],["0","0","0","2","0","0","0","0","0","0"],'
    '["0","0","0","0","3","0","0","0","0","0"]],"image_rank":6,"n":5,"r":6,"v":["0","0","0","0","0","1"]}\n'
)

_CERT_DENSE_Q = (
    '{"alpha":[["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["1","1"]],'
    '"bound":6,"field":"Q","gram":['
    '[["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["150","1"],["0","1"],["0","1"],["0","1"],["0","1"]],'
    '[["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["-225","1"],["0","1"],["0","1"],["0","1"]],'
    '[["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["75","1"],["0","1"],["0","1"]],'
    '[["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["-150","1"],["0","1"]],'
    '[["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["-165","2"]],'
    '[["-150","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"]],'
    '[["0","1"],["225","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"]],'
    '[["0","1"],["0","1"],["-75","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"]],'
    '[["0","1"],["0","1"],["0","1"],["150","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"]],'
    '[["0","1"],["0","1"],["0","1"],["0","1"],["165","2"],["0","1"],["0","1"],["0","1"],["0","1"],["0","1"]]],'
    '"image_rank":6,"n":5,"r":6,"v":[["0","1"],["0","1"],["0","1"],["0","1"],["0","1"],["1","1"]]}\n'
)

_REALIZED = '{"realizes":true,"violations":[]}\n'

_CROSSED_64 = (
    '{"realizes":false,"violations":[{"commutes":false,"edge":false,"u":1,"v":65},'
    '{"commutes":true,"edge":true,"u":1,"v":66}]}\n'
)

_P4_ON_H4 = (
    '{"realizes":false,"violations":[{"commutes":true,"edge":true,"u":1,"v":2},'
    '{"commutes":false,"edge":false,"u":1,"v":3},{"commutes":true,"edge":true,"u":2,"v":3},'
    '{"commutes":false,"edge":false,"u":2,"v":4},{"commutes":true,"edge":true,"u":3,"v":4}]}\n'
)

_W64 = ["witness", "--n", "64", "--lambda", "3", "--field", "Q"]
_H4 = {"matrices": [{"field": "Fp:2", "rows": 3, "cols": 3, "entries": list(entries)}
                    for entries in ("110010001", "101010001", "000010000", "000000001")]}


@pytest.mark.parametrize(
    "source, graph, expected",
    [
        (["witness", "--n", "4", "--lambda", "3", "--field", "Fp:11"], None, _CERT_F11),
        (["witness", "--n", "3", "--lambda=-1/2", "--field", "Q"], None, _CERT_Q),
        (GF(13), None, _CERT_DENSE_F13),
        (QQ, None, _CERT_DENSE_Q),
        (_W64, {"vertices": 128, "edges": [[i, 64 + i] for i in range(1, 65)]}, _REALIZED),
        (_W64, {"vertices": 128, "edges": [[1, 66]] + [[i, 64 + i] for i in range(2, 65)]}, _CROSSED_64),
        (_H4, {"vertices": 4, "edges": [[1, 3], [2, 4]]}, _REALIZED),
        (_H4, {"vertices": 4, "edges": [[1, 2], [2, 3], [3, 4]]}, _P4_ON_H4),
    ],
    ids=["certify-fp11", "certify-q", "certify-dense-fp13", "certify-dense-q", "verify-graph-64-matching",
         "verify-graph-64-crossed", "verify-graph-hint-m2", "verify-graph-hint-p4"],
)
def test_outputs_are_pinned(workdir, source, graph, expected):
    # source is a witness call, a field for the dense n = 5 witness, or an assignment document;
    # with no graph it is certified and the certificate verified, else verify-graph checks it against the graph
    if isinstance(source, list):
        res = run_cli(*source)
        assert res.returncode == 0
        source = res.stdout.encode()
    elif isinstance(source, FieldSpec):
        pairs = dense_conjugated_pairs(5, source)
        with kernel_path() as calls:
            build_certificate(pairs)
        assert calls["packed"] > 0  # the dense commutators take the packed product path
        a_list, b_list = zip(*pairs)
        source = assignment_to_json(Assignment(a_list + b_list))
    pairs_file = _write(workdir, "input.json", source)
    if graph is None:
        res = run_cli("certify", "--input", pairs_file)
        assert (res.returncode, res.stdout) == (0, expected)
        cert_file = _write(workdir, "cert.json", res.stdout.encode())
        res = run_cli("verify-cert", "--cert", cert_file, "--input", pairs_file)
        assert (res.returncode, res.stdout) == (0, '{"reasons":[],"valid":true}\n')
    else:
        res = run_cli("verify-graph", "--input", pairs_file, "--graph", _write(workdir, "graph.json", graph))
        assert (res.returncode, res.stdout) == (0, expected)


def _readme_cli_lines():
    """The commands of the README's CLI block, continuation lines joined, comments dropped."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.replace("\\\n", " ").splitlines() if line.strip()]
    return [line for line in lines if not line.startswith("#")]


def test_readme_cli_block_runs(workdir):
    lines = _readme_cli_lines()
    assert {line.split()[1] for line in lines if line.startswith("commrep ")} == {
        "witness", "verify-graph", "certify", "verify-cert", "search", "split", "count-check", "selftest"
    }
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    for line in lines:
        if line.startswith("commrep "):
            line = f"{shlex.quote(sys.executable)} -m {line}"
        res = subprocess.run(line, shell=True, cwd=workdir, capture_output=True, text=True, env=env)
        assert res.returncode == 0, (line, res.stdout, res.stderr)


def test_emitted_json_is_canonical(workdir):
    # reserializing any emitted document with sorted keys reproduces the bytes
    res = run_cli("witness", "--n", "3", "--lambda", "1/2", "--field", "Q")
    doc = json.loads(res.stdout)
    assert json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n" == res.stdout


def _modules_after(*statements):
    """The names in ``sys.modules`` after running ``statements`` in a fresh interpreter."""
    code = "\n".join([
        *statements,
        "import json, sys",
        "print(json.dumps(sorted(sys.modules)))",
    ])
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert res.returncode == 0, res.stderr
    return set(json.loads(res.stdout.splitlines()[-1]))


def _commrep_modules_after(*statements):
    """The ``commrep`` modules loaded after running ``statements`` in a fresh interpreter."""
    return {m for m in _modules_after(*statements) if m.split(".")[0] == "commrep"}


def test_importing_the_package_or_the_cli_loads_no_library_module():
    assert _commrep_modules_after("import commrep") == {"commrep"}
    loaded = _modules_after("import commrep.cli")
    assert {m for m in loaded if m.split(".")[0] == "commrep"} == {"commrep", "commrep.cli", "commrep.errors"}
    assert not {m.split(".")[0] for m in loaded} & {"numpy", "scipy"}


def test_every_module_imports_and_selftest_passes_with_no_site_packages():
    # -I -S: no site-packages and no PYTHON* variables, so only the standard library and src can be imported;
    # -B: the run writes no bytecode into src
    code = "\n".join([
        f"import sys; sys.path.insert(0, {SRC!r})",
        "import commrep.certificate, commrep.commgraph, commrep.errors, commrep.exactla, commrep.modsplit",
        "import commrep.search, commrep.witness",
        "from commrep.cli import main",
        "sys.exit(main(['selftest']))",
    ])
    res = subprocess.run([sys.executable, "-I", "-S", "-B", "-c", code], capture_output=True, text=True)
    assert res.returncode == 0, (res.stdout, res.stderr)
    assert json.loads(res.stdout)["selftest"] == "pass"


def test_witness_call_loads_no_certificate_search_or_modsplit():
    loaded = _commrep_modules_after(
        "from commrep.cli import main",
        "assert main(['witness', '--n', '2', '--lambda', '2', '--field', 'Q']) == 0",
    )
    assert "commrep.witness" in loaded
    assert not loaded & {"commrep.certificate", "commrep.search", "commrep.modsplit"}


def test_witness_above_the_cap_is_refused_before_loading_graph_code():
    argv = ["witness", "--n", str(WITNESS_N_CAP + 1), "--lambda", "2", "--field", "Q"]
    res = run_cli(*argv)
    assert res.returncode == 2
    error = payload(res)["error"]
    assert error == {"code": "guard_violation", "message": f"--n {WITNESS_N_CAP + 1} exceeds the cap {WITNESS_N_CAP}"}
    loaded = _commrep_modules_after("from commrep.cli import main", f"assert main({argv!r}) == 2")
    assert not loaded & {"commrep.commgraph", "commrep.witness"}


@pytest.mark.parametrize(
    "command, doc",
    [
        (["count-check", "--dims"], {"dims": [[1, 2], [2, 1]]}),
        (["split", "--module"], {"field": "Fp:2", "dim": 1, "generators": [
            {"field": "Fp:2", "rows": 1, "cols": 1, "entries": ["1"]}]}),
    ],
    ids=["count-check", "split"],
)
def test_modsplit_calls_load_no_graph_code(workdir, command, doc):
    argv = [*command, _write(workdir, "doc.json", doc)]
    loaded = _commrep_modules_after("from commrep.cli import main", f"assert main({argv!r}) == 0")
    assert "commrep.modsplit" in loaded
    assert not loaded & {"commrep.commgraph", "commrep.certificate", "commrep.search", "commrep.witness"}


_GOOD_CALLS = {
    "witness": (["witness", "--n", "2", "--lambda", "2", "--field", "Q"], {}),
    "verify-graph": (["verify-graph", "--input", "{a}", "--graph", "{b}"],
                     {"a": {"matrices": [_ONE, _ONE]}, "b": {"vertices": 2, "edges": []}}),
    "search": (["search", "--graph", "{a}", "--field", "Fp:2", "--rmax", "2"],
               {"a": {"vertices": 2, "edges": [[1, 2]]}}),
    "split": (["split", "--module", "{a}"], {"a": {"field": "Fp:2", "dim": 1, "generators": [
        {"field": "Fp:2", "rows": 1, "cols": 1, "entries": ["1"]}]}}),
    "count-check": (["count-check", "--dims", "{a}"], {"a": {"dims": [[1, 2], [2, 1]]}}),
}


@pytest.mark.parametrize("name", sorted(_GOOD_CALLS))
def test_calls_without_certificates_import_no_dataclasses(workdir, name):
    command, docs = _GOOD_CALLS[name]
    paths = {key: _write(workdir, f"{key}.json", doc) for key, doc in docs.items()}
    argv = [arg.format(**paths) for arg in command]
    loaded = _modules_after("from commrep.cli import main", f"assert main({argv!r}) == 0")
    assert not loaded & {"dataclasses", "inspect"}


@pytest.mark.parametrize(
    "command, files",
    [
        (["verify-graph", "--input", "{a}", "--graph", "{b}"], {"a": b"{not json", "b": {"vertices": 1, "edges": []}}),
        (["count-check", "--dims", "{missing}"], {}),
        (["split", "--module", "{a}"], {"a": b"{not json"}),
        (["search", "--graph", "{a}", "--field", "Fp:2", "--rmax", "2"], {"a": b'{"vertices": 2,'}),
    ],
    ids=["verify-graph-bad-json", "count-check-missing-file", "split-bad-json", "search-bad-graph"],
)
def test_a_call_refused_on_its_first_document_loads_no_library_module(workdir, command, files):
    paths = {key: _write(workdir, f"{key}.json", doc) for key, doc in files.items()}
    paths["missing"] = str(workdir / "missing.json")
    argv = [arg.format(**paths) for arg in command]
    res = run_cli(*argv)
    assert res.returncode == 1
    error = payload(res)["error"]
    assert error["code"] == "schema"
    assert error["message"].startswith(f"{argv[2]}: ")  # the first document's path
    loaded = _commrep_modules_after("from commrep.cli import main", f"assert main({argv!r}) == 1")
    assert loaded == {"commrep", "commrep.cli", "commrep.errors"}


def test_verify_graph_reports_a_bad_input_before_a_missing_graph(workdir):
    a = _write(workdir, "a.json", {"matrices": 5})
    res = run_cli("verify-graph", "--input", a, "--graph", str(workdir / "missing.json"))
    assert res.returncode == 1
    error = payload(res)["error"]
    assert error["code"] == "schema"
    assert error["message"].startswith(f"{a}.matrices: ")


def test_search_over_q_reports_a_malformed_graph_first(workdir):
    g = _write(workdir, "g.json", {"vertices": 2})
    res = run_cli("search", "--graph", g, "--field", "Q", "--rmax", "2")
    assert res.returncode == 1
    assert payload(res)["error"]["code"] == "schema"


def test_search_reports_a_non_prime_field_before_reading_the_graph(workdir):
    res = run_cli("search", "--graph", str(workdir / "missing.json"), "--field", "Fp:4", "--rmax", "2")
    assert res.returncode == 1
    assert payload(res)["error"] == {"code": "usage", "message": "characteristic must be a prime >= 2, got 4"}


def test_witness_reports_a_zero_lambda_before_a_zero_n():
    res = run_cli("witness", "--n", "0", "--lambda", "0", "--field", "Q")
    assert res.returncode == 2
    assert payload(res)["error"] == {"code": "invalid_argument",
                                     "message": "lambda must be nonzero in the chosen field"}
