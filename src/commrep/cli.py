"""``commrep``: one JSON document on stdout per invocation, stable exit codes.

Exit codes: 0 success, 1 internal/parse error, 2 domain refusal
(pattern violation, field too small, guard violation, invalid hint),
3 search budget exceeded.  Diagnostics go to stderr and are not part of
the machine contract.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import (
    CommrepError,
    GuardError,
    InvalidArgumentError,
    SchemaError,
    _decimal,
    field_characteristic,
    json_int,
    json_object,
)

# Each handler reads its first input document, then imports what it runs, so a
# call loads only the modules its subcommand needs and a call refused on its
# first document loads none; importing this module loads only ``errors``.

WITNESS_N_CAP = 64  # refuse larger witnesses: the output holds 2n(n + 1)^2 entries


class UsageError(CommrepError):
    code = "usage"
    exit_code = 1


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _field_arg(text: str) -> str:
    """A field name that ``FieldSpec.from_name`` accepts, checked without importing ``exactla``."""
    try:
        field_characteristic(text)
    except ValueError as e:
        raise UsageError(str(e)) from None
    return text


def _int_arg(text: str) -> int:
    value = _decimal(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _load_json(pathname: str):
    try:
        return json.loads(Path(pathname).read_text())
    except OSError as e:
        raise SchemaError(str(e), pathname) from None
    except (ValueError, RecursionError) as e:  # bad syntax or UTF-8, too many digits, too deep
        raise SchemaError(f"invalid JSON: {e}", pathname) from None


def _emit(payload) -> None:
    sys.stdout.write(json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n")


# -- subcommand handlers -----------------------------------------------------


def cmd_witness(ns):
    from .exactla import FieldSpec, scalar_to_json

    field = FieldSpec.from_name(ns.field)
    lam = field.scalar(ns.lam)
    # sharp_witness makes both checks too; they are made here to refuse before commgraph and witness load
    if not lam:
        raise InvalidArgumentError("lambda must be nonzero in the chosen field")
    if ns.n < 1:
        raise InvalidArgumentError("--n must be at least 1")
    if ns.n > WITNESS_N_CAP:
        raise GuardError(f"--n {ns.n} exceeds the cap {WITNESS_N_CAP}")
    from .commgraph import assignment_to_json
    from .witness import sharp_witness

    assignment = sharp_witness(ns.n, lam, field)
    payload = assignment_to_json(
        assignment,
        **{
            "n": ns.n,
            "ordering": "a_1..a_n,b_1..b_n",
            "lambda": scalar_to_json(lam, field),
        },
    )
    return payload, 0


def cmd_verify_graph(ns):
    doc = _load_json(ns.input)
    from .commgraph import assignment_from_json, graph_from_json, realizes

    assignment = assignment_from_json(doc, ns.input)
    graph = graph_from_json(_load_json(ns.graph), ns.graph)
    check = realizes(assignment, graph)
    payload = {
        "realizes": check.ok,
        "violations": [
            {"u": s.u, "v": s.v, "edge": s.edge, "commutes": s.commutes}
            for s in check.violations
        ],
    }
    return payload, 0


def cmd_certify(ns):
    doc = _load_json(ns.input)
    from .certificate import build_certificate, certificate_to_json, pairs_from_assignment
    from .commgraph import assignment_from_json

    assignment = assignment_from_json(doc, ns.input)
    pairs = pairs_from_assignment(assignment)
    cert = build_certificate(pairs)
    return certificate_to_json(cert), 0


def cmd_verify_cert(ns):
    doc = _load_json(ns.cert)
    from .certificate import certificate_from_json, pairs_from_assignment, verify_certificate
    from .commgraph import assignment_from_json

    cert = certificate_from_json(doc, ns.cert)
    assignment = assignment_from_json(_load_json(ns.input), ns.input)
    pairs = pairs_from_assignment(assignment)
    result = verify_certificate(cert, pairs)
    return {"valid": result.ok, "reasons": list(result.reasons)}, 0


def cmd_search(ns):
    doc = _load_json(ns.graph)
    from .commgraph import assignment_from_json, graph_from_json
    from .exactla import FieldSpec

    graph = graph_from_json(doc, ns.graph)
    hint = None
    if ns.hint:
        hint = assignment_from_json(_load_json(ns.hint), ns.hint)
    field = FieldSpec.from_name(ns.field)
    if field.is_rationals:
        raise InvalidArgumentError("search needs a finite field, e.g. --field Fp:2")
    for option, value, least in (("--rmax", ns.rmax, 1), ("--budget", ns.budget, 0), ("--jobs", ns.jobs, 1)):
        if value < least:
            raise InvalidArgumentError(f"{option} must be at least {least}")
    from .search import STATUS_EXHAUSTED, min_realization_dim, report_to_json

    report = min_realization_dim(
        graph,
        field,
        r_max=ns.rmax,
        mode=ns.mode,
        budget=ns.budget,
        hint=hint,
    )
    code = 3 if report.status == STATUS_EXHAUSTED else 0
    return report_to_json(report), code


def cmd_split(ns):
    doc = _load_json(ns.module)
    from .modsplit import _check_dim_cap, composition_factor_dims, module_from_json, report_to_json

    # refuse a module above the cap before its generators are read and ranked
    json_object(doc, ("field", "dim", "generators"), "module", ns.module)
    _check_dim_cap(json_int(doc["dim"], 1, f"{ns.module}.dim"))
    spec = module_from_json(doc, ns.module)
    report = composition_factor_dims(spec)
    return report_to_json(report), 0


def cmd_count_check(ns):
    doc = _load_json(ns.dims)
    from .modsplit import count_check_to_json, counting_chain_check, dims_from_json

    # dims_from_json returns only tables that counting_chain_check accepts
    table = dims_from_json(doc, ns.dims)
    return count_check_to_json(counting_chain_check(table)), 0


def cmd_selftest(ns):
    from .certificate import (
        build_certificate,
        certificate_from_json,
        certificate_to_json,
        pairs_from_assignment,
        verify_certificate,
    )
    from .commgraph import assignment_from_json, assignment_to_json, matching_graph, realizes
    from .exactla import GF, QQ, matrix_from_rows
    from .modsplit import ModuleSpec, composition_factor_dims
    from .search import min_realization_dim
    from .witness import product_block_embedding, sharp_witness

    checks = []

    def record(name, fn):
        try:
            fn()
            checks.append({"name": name, "ok": True})
        except Exception as e:  # noqa: BLE001 - selftest reports, never raises
            checks.append({"name": name, "ok": False, "detail": f"{type(e).__name__}: {e}"})

    def witness_round_trips():
        for n in range(1, 11):
            w = sharp_witness(n, 2, QQ)
            doc = assignment_to_json(w)
            back = assignment_from_json(json.loads(json.dumps(doc)))
            assert back == w
            assert realizes(back, matching_graph(n)).ok

    def certificate_trace():
        from fractions import Fraction

        pairs = pairs_from_assignment(sharp_witness(1, 2, QQ))
        cert = build_certificate(pairs)
        assert cert.v == (Fraction(0), Fraction(1))
        assert cert.alpha == (Fraction(1), Fraction(1))
        assert cert.image_rank == 2 and cert.concluded_bound == 2
        assert verify_certificate(cert, pairs).ok
        reloaded = certificate_from_json(json.loads(json.dumps(certificate_to_json(cert))))
        assert verify_certificate(reloaded, pairs).ok

    def matching_two_search():
        hint = sharp_witness(2, 1, GF(2))
        report = min_realization_dim(
            matching_graph(2), GF(2), r_max=3, hint=hint, budget=10**8
        )
        assert report.status == "exact"
        assert report.lower == report.upper == 3

    def split_sl2_f5_squared():
        # the block embedding of SL_2(F_5) x SL_2(F_5) has two 2-dimensional factors
        f5 = GF(5)
        sl2 = [matrix_from_rows(f5, [[1, 1], [0, 1]]), matrix_from_rows(f5, [[0, 4], [1, 0]])]
        spec = ModuleSpec(f5, 4, tuple(product_block_embedding([sl2, sl2])))
        assert composition_factor_dims(spec).factor_dims == (2, 2)

    record("witness_round_trips_n_1_to_10", witness_round_trips)
    record("certificate_trace_n1", certificate_trace)
    record("matching_two_search_exact_3", matching_two_search)
    record("split_sl2_f5_squared", split_sl2_f5_squared)

    ok = all(c["ok"] for c in checks)
    return {"selftest": "pass" if ok else "fail", "checks": checks}, 0 if ok else 1


# -- parser ---------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="commrep", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="subcommand")

    w = sub.add_parser("witness", help="emit the sharp matching-pattern witness")
    w.add_argument("--n", type=_int_arg, required=True, help="number of pairs")
    w.add_argument("--lambda", dest="lam", required=True,
                   help="nonzero scalar a or a/b in ASCII decimal digits, b > 0, e.g. 2 or 1/2; "
                        "a negative fraction needs the = form, --lambda=-1/2")
    w.add_argument("--field", type=_field_arg, required=True,
                   help="Q or Fp:<prime>, the prime in ASCII digits with no leading zero")
    w.set_defaults(handler=cmd_witness)

    vg = sub.add_parser("verify-graph", help="check whether an assignment realizes a graph")
    vg.add_argument("--input", required=True, help="assignment JSON file")
    vg.add_argument("--graph", required=True, help="graph JSON file")
    vg.set_defaults(handler=cmd_verify_graph)

    ce = sub.add_parser("certify", help="build a dimension lower-bound certificate")
    ce.add_argument("--input", required=True, help="assignment JSON (a_1..a_n,b_1..b_n)")
    ce.set_defaults(handler=cmd_certify)

    vc = sub.add_parser("verify-cert", help="verify a certificate against its pairs")
    vc.add_argument("--cert", required=True, help="certificate JSON file")
    vc.add_argument("--input", required=True, help="assignment JSON file")
    vc.set_defaults(handler=cmd_verify_cert)

    se = sub.add_parser("search", help="bracket the minimal realization dimension")
    se.add_argument("--graph", required=True, help="graph JSON file")
    se.add_argument("--field", type=_field_arg, required=True, help="Fp:<prime>")
    se.add_argument("--rmax", type=_int_arg, required=True, help="largest dimension to try")
    se.add_argument("--mode", choices=["all", "invertible_only"], default="all")
    se.add_argument("--budget", type=_int_arg, default=10**8, help="constraint-check node limit")
    se.add_argument("--hint", default=None, help="assignment JSON giving an upper bound")
    se.add_argument("--jobs", type=_int_arg, default=1, help="accepted for compatibility; changes nothing")
    se.set_defaults(handler=cmd_search)

    sp = sub.add_parser("split", help="composition factors of a matrix module")
    sp.add_argument("--module", required=True, help="module JSON file")
    sp.set_defaults(handler=cmd_split)

    cc = sub.add_parser("count-check", help="check the factor-dimension counting chain")
    cc.add_argument("--dims", required=True, help="JSON file with a 'dims' table")
    cc.set_defaults(handler=cmd_count_check)

    st = sub.add_parser("selftest", help="run the built-in deterministic checks")
    st.set_defaults(handler=cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        if not getattr(ns, "handler", None):
            raise UsageError("missing subcommand (see --help)")
        payload, code = ns.handler(ns)
    except CommrepError as e:
        _emit({"error": {"code": e.code, "message": str(e)}})
        print(f"error: {e}", file=sys.stderr)
        return e.exit_code
    except Exception as e:  # noqa: BLE001 - keep the one-JSON-document contract
        import traceback

        _emit({"error": {"code": "internal", "message": f"{type(e).__name__}: {e}"}})
        traceback.print_exc()
        return 1
    _emit(payload)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
