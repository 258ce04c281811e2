"""The four closed-loop workloads: seeded inputs, tasks and their checks.

A workload's constructor is its set-up: it generates the inputs from the
seed with the benchmark's own code (``oracle``) and builds the program
objects the tasks reuse.  ``tasks()`` returns the fixed task set of one
pass, in order.  Each task has a ``run`` callable, the only code that is
timed, and a ``check`` that scores its output without calling into
``commrep`` (so checks may run while the tracer is installed).

``check`` returns ``(ok, decided, fingerprint)``.  The harness runs the full
check on a label's first output and afterwards only compares fingerprints,
which also catches output that changes between repeats.

Program functions are always looked up as module attributes at call time
(``cg.realizes``), so the tracer's wrappers see the benchmark's own calls.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable

import oracle

import commrep.certificate as ce
import commrep.cli as cli
import commrep.commgraph as cg
import commrep.exactla as la
import commrep.modsplit as ms
import commrep.search as se
import commrep.witness as wi


@dataclass
class Task:
    label: str
    run: Callable
    check: Callable
    key: str = ""  # outputs sharing a key must be byte-identical; defaults to the label


def _primes_between(lo, hi):
    return [q for q in range(max(lo, 2), hi) if all(q % d for d in range(2, int(q**0.5) + 1))]


def _field(p):
    return la.QQ if p is None else la.GF(p)


def _scalar_from_doc(x, p):
    return Fraction(int(x[0]), int(x[1])) if p is None else int(x)


def _rows_of(matrix):
    c = matrix.cols
    return [list(matrix.entries[i * c:(i + 1) * c]) for i in range(matrix.rows)]


def _flat(rows, p):
    return tuple(oracle.reduce(x, p) for row in rows for x in row)


def _matrix_doc(rows, p):
    """Matrix JSON in the documented schema, written without the program."""
    if p is None:
        entries = [[str(Fraction(x).numerator), str(Fraction(x).denominator)] for row in rows for x in row]
        name = "Q"
    else:
        entries = [str(x % p) for row in rows for x in row]
        name = f"Fp:{p}"
    return {"field": name, "rows": len(rows), "cols": len(rows[0]), "entries": entries}


def _interleave(tasks):
    """Spread every kind of task over the pass, in one order for every seed.

    Slow spells of the host then fall on all kinds of task alike, and runs
    with different seeds differ in their inputs only, not in task order.
    """
    random.Random(0).shuffle(tasks)


def _check_certificate_doc(doc, dense_pairs, n, p):
    """Oracle check of a certificate JSON document; returns problem list."""
    problems = []
    if doc.get("bound") != n + 1 or doc.get("n") != n or doc.get("r") != n + 1:
        problems.append("bound_not_n_plus_1")
    v = [_scalar_from_doc(x, p) for x in doc["v"]]
    alpha = [_scalar_from_doc(x, p) for x in doc["alpha"]]
    gram = [[_scalar_from_doc(x, p) for x in row] for row in doc["gram"]]
    return problems + oracle.certificate_problems(dense_pairs, v, alpha, gram, doc["image_rank"], p)


# -- certify-chain ---------------------------------------------------------------

CERTIFY_SIZES = {
    "full": dict(q_sparse=[8, 16, 24], fp_sparse=[8, 16, 24, 32], q_dense=[4, 8, 12],
                 fp_dense=[8, 16], huge=[4, 8, 12], bulk=100, corrupted_pairs=[4, 5, 6]),
    "tiny": dict(q_sparse=[2], fp_sparse=[3], q_dense=[2], fp_dense=[2], huge=[2],
                 bulk=4, corrupted_pairs=[1]),
}


def _corrupt(cert, family, rng):
    """A seeded corrupted copy of ``cert``: (certificate, must-have reason, allowed reasons)."""
    f = cert.field
    p = f.characteristic if f.is_prime_field else None

    def delta():
        return Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2])) if p is None else rng.randrange(1, p)

    if family == "gram":
        rows = cert.gram.rows_list()
        i, j = rng.randrange(2 * cert.n), rng.randrange(2 * cert.n)
        rows[i][j] = f.add(rows[i][j], f.scalar(delta()))
        return (replace(cert, gram=la.matrix_from_rows(f, rows)), "gram_mismatch",
                {"gram_mismatch", "gram_not_alternating", "gram_rank_deficient"})
    if family == "v_scale":
        # every pairing entry scales by a unit != 1, so the stored gram cannot match
        c = rng.choice([Fraction(2), Fraction(3), Fraction(-1)]) if p is None else rng.randrange(2, p)
        return (replace(cert, v=tuple(f.mul(x, f.scalar(c)) for x in cert.v)),
                "gram_mismatch", {"gram_mismatch"})
    if family == "z":
        i = rng.randrange(cert.n)
        a, b = rng.randrange(1, cert.r + 1), rng.randrange(1, cert.r + 1)
        zs = list(cert.z)
        zs[i] = zs[i] + la.elementary_matrix(cert.r, a, b, f).scale(delta())
        return replace(cert, z=tuple(zs)), "z_mismatch", {"z_mismatch"}
    if family == "image_rank":
        return (replace(cert, image_rank=cert.image_rank + rng.choice([-2, -1, 1, 2, 5])),
                "image_rank_mismatch", {"image_rank_mismatch"})
    if family == "bound":
        return (replace(cert, concluded_bound=cert.concluded_bound + rng.choice([-1, 1, 2])),
                "bound_mismatch", {"bound_mismatch", "bound_exceeds_dimension"})
    if family == "n":
        return replace(cert, n=cert.n + rng.choice([1, 2, 3])), "n_mismatch", {"n_mismatch"}
    if family == "r":
        return replace(cert, r=cert.r + rng.choice([-1, 1, 2])), "r_mismatch", {"r_mismatch"}
    raise ValueError(family)


CORRUPTIONS = ("gram", "v_scale", "z", "image_rank", "bound", "n", "r")


class CertifyChain:
    """witness -> realizes -> build certificate -> JSON round trip -> verify."""

    name = "certify-chain"

    def __init__(self, seed, size="full"):
        rng = random.Random(seed)
        sz = CERTIFY_SIZES[size]
        self.stats = {"reject_ok": 0, "reject_total": 0}
        self._tasks = []

        for n in sz["q_sparse"]:
            lam = Fraction(rng.randint(2, 9), rng.randint(1, 4))
            self._add_sparse(f"q-sparse-{n}", n, lam, None)
        for n in sz["fp_sparse"]:
            p = rng.choice(_primes_between(2 * n + 2, 2 * n + 200))
            self._add_sparse(f"fp-sparse-{n}", n, rng.randrange(2, p), p)
        for n in sz["huge"]:
            num = 10**12 + rng.randrange(1, 10**6)
            num += 1 if num % 7 == 0 else 0
            self._add_sparse(f"q-huge-{n}", n, Fraction(num, 7), None)
        for label, sizes, p_of in (("q-dense", sz["q_dense"], lambda n: None),
                                   ("fp-dense", sz["fp_dense"],
                                    lambda n: rng.choice(_primes_between(2 * n + 2, 2 * n + 200)))):
            for n in sizes:
                p = p_of(n)
                lam = Fraction(rng.randint(2, 9), rng.randint(1, 3)) if p is None else rng.randrange(2, p)
                p_mat, p_inv = oracle.unimodular_pair(n + 1, rng, 30)
                rows = oracle.conjugate(oracle.sharp_witness(n, lam, p), p_mat, p_inv, p)
                self._add_dense(f"{label}-{n}", n, rows, p)

        n = sz["bulk"]
        lam = rng.randint(2, 9)
        bulk = wi.sharp_witness(n, lam, la.QQ)
        perm = oracle.derangement(n, rng)
        mats = bulk.matrices
        swapped = cg.Assignment(mats[:n] + tuple(mats[n + j] for j in perm))
        graph = cg.matching_graph(n)
        self._tasks.append(Task(f"bulk-realizes-{n}", lambda: cg.realizes(bulk, graph),
                                self._violation_check(set())))
        self._tasks.append(Task(f"bulk-violations-{n}", lambda: cg.realizes(swapped, graph),
                                self._violation_check(oracle.permuted_violations(n, perm))))

        # every corruption family on every base certificate: many verify calls of
        # a few milliseconds, so the median task sits in a dense cluster of costs
        for n in sz["corrupted_pairs"]:
            for field in (la.QQ, la.GF(rng.choice(_primes_between(2 * n + 2, 2 * n + 60)))):
                pairs = ce.pairs_from_assignment(wi.sharp_witness(n, rng.randint(2, 5), field))
                cert = ce.build_certificate(pairs)
                for family in CORRUPTIONS:
                    bad, must, allowed = _corrupt(cert, family, rng)
                    self._tasks.append(Task(
                        f"reject-{family}-{field.name()}-n{n}",
                        lambda bad=bad, pairs=pairs: ce.verify_certificate(bad, pairs),
                        self._reject_check(must, allowed),
                    ))
        _interleave(self._tasks)

    # -- task builders

    def _add_sparse(self, label, n, lam, p):
        field = _field(p)
        dense = oracle.sharp_witness(n, lam, p)
        graph = cg.matching_graph(n)

        def run():
            return self._chain(wi.sharp_witness(n, lam, field), graph)

        expected = [_flat(m, p) for m in dense]
        self._tasks.append(Task(label, run, self._chain_check(n, dense, p, expected)))

    def _add_dense(self, label, n, rows, p):
        field = _field(p)
        graph = cg.matching_graph(n)

        def run():
            mats = tuple(la.matrix_from_rows(field, m) for m in rows)
            return self._chain(cg.Assignment(mats), graph)

        self._tasks.append(Task(label, run, self._chain_check(n, rows, p, None)))

    @staticmethod
    def _chain(assignment, graph):
        check = cg.realizes(assignment, graph)
        pairs = ce.pairs_from_assignment(assignment)
        cert = ce.build_certificate(pairs)
        doc = json.loads(json.dumps(ce.certificate_to_json(cert)))
        back = ce.certificate_from_json(doc)
        result = ce.verify_certificate(back, pairs)
        return assignment, check, doc, result

    @staticmethod
    def _chain_check(n, dense, p, expected_entries):
        n_pairs = len(dense) // 2
        dense_pairs = [(dense[i], dense[n_pairs + i]) for i in range(n_pairs)]

        def check(out, full):
            assignment, realized, doc, result = out
            fingerprint = (json.dumps(doc, sort_keys=True), realized.ok, result.ok, result.reasons)
            if not full:
                return True, True, fingerprint
            ok = (
                assignment.dimension == n + 1
                and realized.ok
                and result.ok
                and (expected_entries is None
                     or [m.entries for m in assignment.matrices] == expected_entries)
                and not _check_certificate_doc(doc, dense_pairs, n, p)
            )
            return ok, True, fingerprint

        return check

    @staticmethod
    def _violation_check(expected):
        def check(out, full):
            got = {(s.u, s.v, s.edge, s.commutes) for s in out.violations}
            ok = got == expected and out.ok == (not expected)
            return ok, True, tuple(sorted(got))

        return check

    def _reject_check(self, must, allowed):
        def check(out, full):
            reasons = set(out.reasons)
            ok = (not out.ok) and must in reasons and reasons <= allowed
            self.stats["reject_total"] += 1
            self.stats["reject_ok"] += ok
            return ok, True, tuple(out.reasons)

        return check

    def tasks(self):
        return self._tasks


# -- search-sweep ------------------------------------------------------------------

SEARCH_SIZES = {
    # (p, r, mode) of the levels swept for the 2-pair matching and for every labelling of P4
    "full": dict(survey_vertices=4, m2_levels=[(3, 2, "all"), (3, 2, "invertible_only")], p4_level=(2, 2, "all")),
    "tiny": dict(survey_vertices=3, m2_levels=[(2, 1, "all")], p4_level=(2, 1, "invertible_only")),
}

P4_EDGES = ((1, 2), (2, 3), (3, 4))


class SearchSweep:
    """The small-graph survey over F_2 plus whole exhaustive levels."""

    name = "search-sweep"

    def __init__(self, seed, size="full"):
        rng = random.Random(seed)
        sz = SEARCH_SIZES[size]
        self.stats = {}
        self._tasks = []
        m = sz["survey_vertices"]
        pairs = list(itertools.combinations(range(1, m + 1), 2))
        graphs = [[pairs[i] for i in range(len(pairs)) if bits >> i & 1] for bits in range(2 ** len(pairs))]
        f2 = la.GF(2)
        for edges in graphs:
            graph = cg.CommGraph.make(m, edges)
            rows = _survey_hint(m, edges)
            p_mat, p_inv = oracle.unimodular_pair(len(rows[0]), rng, 1)  # seeded conjugate, same cost
            rows = oracle.conjugate(rows, p_mat, p_inv, 2)
            hint = cg.Assignment(tuple(la.matrix_from_rows(f2, r) for r in rows))
            label = "survey-" + ("-".join(f"{u}{v}" for u, v in sorted(edges)) or "empty")
            self._tasks.append(Task(
                label,
                lambda graph=graph, hint=hint, m=m: se.min_realization_dim(
                    graph, f2, r_max=m + 1, budget=5 * 10**7, hint=hint),
                self._survey_check(m, edges),
            ))
        for p, r, mode in sz["m2_levels"]:
            self._add_level(f"level-m2-f{p}-r{r}-{mode}", [(1, 3), (2, 4)], p, r, mode)
        # every labelling of P4: the verdict may not depend on it
        labellings = sorted({tuple(sorted((min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))
                                          for u, v in P4_EDGES))
                             for perm in itertools.permutations(range(1, 5))})
        p, r, mode = sz["p4_level"]
        for edges in labellings:
            tag = "-".join(f"{u}{v}" for u, v in edges)
            self._add_level(f"level-p4-{tag}-f{p}-r{r}-{mode}", list(edges), p, r, mode)
        _interleave(self._tasks)

    def _add_level(self, label, edges, p, r, mode):
        graph = cg.CommGraph.make(4, edges)
        self._tasks.append(Task(
            label,
            lambda: se.exists_realization(graph, la.GF(p), r, mode=mode, budget=10**8),
            self._level_check(label, r, edges, p),
        ))

    @staticmethod
    def _survey_check(m, edges):
        known = oracle.min_dim_upto_two(m, edges, 2)
        if known is None:
            if m != 4:
                raise ValueError("the survey knows its answers only up to four vertices")
            known = oracle.min_dim_four_vertices_f2(edges)

        def check(report, full):
            witness = report.witness
            fingerprint = (report.status, report.lower, report.upper, report.excluded, report.nodes_explored,
                           None if witness is None else tuple(mat.entries for mat in witness.matrices))
            decided = report.status == "exact"
            if not full:
                return True, decided, fingerprint
            ok = (
                witness is not None
                and report.lower <= known <= report.upper
                and (not decided or report.lower == known)
                and oracle.realizes([_rows_of(mat) for mat in witness.matrices], m, edges, 2)
            )
            return ok, decided, fingerprint

        return check

    def _level_check(self, label, r, edges, p):
        # r = 1 realizes only edgeless graphs; r = 2 neither M2 nor P4
        known = oracle.min_dim_upto_two(4, edges, p)
        expect = "found" if known is not None and known <= r else "none"
        if known is None and r > 2:
            raise ValueError("no known answer for this level")

        def check(outcome, full):
            self.stats[label] = outcome.nodes
            ok = outcome.status == expect
            if ok and full and outcome.witness is not None:
                ok = oracle.realizes([_rows_of(mat) for mat in outcome.witness.matrices], 4, edges, p)
            return ok, outcome.status in ("found", "none"), (outcome.status, outcome.nodes)

        return check

    def tasks(self):
        return self._tasks


def _survey_hint(m, edges):
    """Upper-bound witness rows over F_2, as the survey script builds them."""
    if not edges:
        return [[[0]] for _ in range(m)]
    if oracle.is_perfect_matching(m, edges):
        n = m // 2
        canonical = oracle.sharp_witness(n, 1, 2)
        mats = [None] * m
        for i, (u, v) in enumerate(sorted(edges)):
            mats[u - 1] = canonical[i]
            mats[v - 1] = canonical[n + i]
        return mats
    return oracle.generic_witness(m, edges)


# -- module-split -------------------------------------------------------------------

MODULE_SHAPES = {
    # (p, planted block sizes, copies per pass)
    "full": [(2, (1, 1, 1), 8), (2, (2, 1), 8), (2, (3,), 8), (2, (1, 2, 1), 8),
             (2, (2, 2), 8), (2, (3, 1), 8), (2, (2, 3), 8), (2, (1, 1, 2, 1), 8),
             (2, (3, 3), 8), (2, (2, 2, 2), 8), (2, (1, 2, 3), 8),
             (3, (1, 1), 8), (3, (2,), 8), (3, (1, 2), 8), (3, (3,), 8),
             (3, (2, 2), 8), (3, (1, 3), 8), (3, (1, 1, 2), 8)],
    "tiny": [(2, (1, 2), 1), (3, (2,), 1)],
}


class ModuleSplit:
    """Composition factors, triangularizability and the counting chain."""

    name = "module-split"

    def __init__(self, seed, size="full"):
        rng = random.Random(seed)
        self.stats = {}
        self._tasks = []
        for p, blocks, copies in MODULE_SHAPES[size]:
            for k in range(copies):
                gens = oracle.planted_generators(blocks, p, rng.choice([2, 3]), rng)
                field = la.GF(p)
                spec = ms.ModuleSpec(field, sum(blocks), tuple(la.matrix_from_rows(field, g) for g in gens))
                label = f"module-f{p}-{'.'.join(map(str, blocks))}-{k}"
                self._tasks.append(Task(label, lambda spec=spec: self._split(spec),
                                        self._check(blocks, gens, p)))
        _interleave(self._tasks)

    @staticmethod
    def _split(spec):
        report = ms.composition_factor_dims(spec)
        tri = ms.is_triangularizable(spec)
        table = [list(report.factor_dims)]
        return report, tri, table, ms.counting_chain_check(table)

    @staticmethod
    def _check(blocks, gens, p):
        def check(out, full):
            report, tri, table, chain = out
            flag = report.flag_basis
            fingerprint = (report.factor_dims, report.series, flag.entries, tri, chain.verdict,
                           chain.sum_products, chain.sum_powers, chain.sum_doubled, chain.floor)
            if not full:
                return True, True, fingerprint
            columns = [list(col) for col in zip(*_rows_of(flag))]
            series = list(itertools.accumulate([0] + list(report.factor_dims)))
            ok = (
                sorted(report.factor_dims) == sorted(blocks)
                and list(report.series) == series
                and not oracle.flag_problems(columns, series, gens, p)
                and tri == all(b == 1 for b in blocks)
                and fingerprint[4:] == oracle.counting_chain(table)
            )
            return ok, True, fingerprint

        return check

    def tasks(self):
        return self._tasks


# -- cli-calls ----------------------------------------------------------------------

SUBCOMMANDS = ("witness", "verify-graph", "certify", "verify-cert", "search", "split",
               "count-check", "selftest")


class CliCalls:
    """Real ``python -m commrep`` calls, one at a time, following the README flow.

    With ``in_process`` the same argument lists go through ``cli.main`` in
    this process instead, which the traced run uses.
    """

    name = "cli-calls"

    def __init__(self, seed, size, workdir, env):
        rng = random.Random(seed)
        self.stats = {}
        self.dir = Path(workdir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.env = env
        self.in_process = False
        n = 3 if size == "full" else 1
        lam = rng.randint(2, 9)
        witness_rows = oracle.sharp_witness(n, lam)
        self._write("w.json", {"matrices": [_matrix_doc(m, None) for m in witness_rows]})
        self._write("m.json", {"vertices": 2 * n, "edges": [[i, n + i] for i in range(1, n + 1)]})
        self._write("m2.json", {"vertices": 4, "edges": [[1, 3], [2, 4]]})
        self._write("h2.json", {"matrices": [_matrix_doc(m, 2) for m in oracle.sharp_witness(2, 1, 2)]})
        self._write("w3.json", {"matrices": [_matrix_doc(m, 3) for m in oracle.sharp_witness(2, 1, 3)]})
        blocks = rng.choice([(2, 1, 1), (1, 3), (2, 2), (1, 1, 2)])
        gens = oracle.planted_generators(blocks, 2, 2, rng)
        self._write("s.json", {"field": "Fp:2", "dim": sum(blocks),
                               "generators": [_matrix_doc(g, 2) for g in gens]})
        table = [[rng.randint(1, 3) for _ in range(4)] for _ in range(3)]
        self._write("d.json", {"dims": table})
        (self.dir / "bad.json").write_text("{not json")
        dense_pairs = [(witness_rows[i], witness_rows[n + i]) for i in range(n)]
        f = lambda name: str(self.dir / name)  # noqa: E731
        search = ["search", "--graph", f("m2.json"), "--field", "Fp:2", "--rmax", "3", "--mode", "all",
                  "--budget", "10000000", "--hint", f("h2.json")]
        self.calls = [
            ("witness", ["witness", "--n", str(n), "--lambda", str(lam), "--field", "Q"],
             self._witness_check(witness_rows, n)),
            ("verify-graph", ["verify-graph", "--input", f("w.json"), "--graph", f("m.json")],
             self._equals_check({"realizes": True, "violations": []})),
            ("certify", ["certify", "--input", f("w.json")], self._certify_check(dense_pairs, n)),
            ("verify-cert", ["verify-cert", "--cert", f("c.json"), "--input", f("w.json")],
             self._equals_check({"valid": True, "reasons": []})),
            ("search", search + ["--jobs", "1"], self._search_check()),
            ("search-jobs2", search + ["--jobs", "2"], self._search_check()),
            ("split", ["split", "--module", f("s.json")], self._split_check(blocks, gens)),
            ("count-check", ["count-check", "--dims", f("d.json")], self._count_check(table)),
            ("selftest", ["selftest"], self._selftest_check()),
            ("bad-json", ["verify-graph", "--input", f("bad.json"), "--graph", f("m.json")],
             self._error_check(1, "schema")),
            ("search-over-q", search[:4] + ["Q"] + search[5:], self._error_check(2, "invalid_argument")),
            ("certify-small-field", ["certify", "--input", f("w3.json")], self._error_check(2, "field_too_small")),
            ("witness-zero-lambda", ["witness", "--n", "2", "--lambda", "0", "--field", "Q"],
             self._error_check(2, "invalid_argument")),
        ]

    def _write(self, name, doc):
        (self.dir / name).write_text(json.dumps(doc))

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def call(self, argv):
        """(exit code, stdout bytes) of one CLI invocation."""
        if self.in_process:
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, out.getvalue().encode()
        proc = subprocess.run([sys.executable, "-m", "commrep"] + argv, env=self.env,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, timeout=120)
        return proc.returncode, proc.stdout

    def tasks(self):
        return [Task(label, lambda argv=argv: self.call(argv), self._parsed(label, check),
                     "search" if label == "search-jobs2" else label)
                for label, argv, check in self.calls]

    def _parsed(self, label, check):
        """Adapt a check on (exit code, document) to the harness; stdout is the fingerprint."""
        def wrapped(out, full):
            code, stdout = out
            if label == "certify" and code == 0:
                (self.dir / "c.json").write_bytes(stdout)
            if not full:
                return True, True, stdout
            try:
                doc = json.loads(stdout)
            except ValueError:
                return False, True, stdout
            return check(code, doc), True, stdout

        return wrapped

    @staticmethod
    def _equals_check(expected):
        return lambda code, doc: code == 0 and doc == expected

    @staticmethod
    def _error_check(exit_code, error_code):
        return lambda code, doc: code == exit_code and doc.get("error", {}).get("code") == error_code

    @staticmethod
    def _witness_check(rows, n):
        expected = [[[str(Fraction(x).numerator), str(Fraction(x).denominator)] for r in m for x in r]
                    for m in rows]
        return lambda code, doc: (code == 0 and doc["n"] == n
                                  and [m["entries"] for m in doc["matrices"]] == expected
                                  and all(m["rows"] == n + 1 for m in doc["matrices"]))

    @staticmethod
    def _certify_check(dense_pairs, n):
        return lambda code, doc: code == 0 and not _check_certificate_doc(doc, dense_pairs, n, None)

    @staticmethod
    def _search_check():
        def check(code, doc):
            if code != 0 or doc["status"] != "exact" or doc["lower"] != 3 or doc["upper"] != 3:
                return False
            mats = [[[int(x) for x in m["entries"][i * m["cols"]:(i + 1) * m["cols"]]] for i in range(m["rows"])]
                    for m in doc["witness"]["matrices"]]
            return oracle.realizes(mats, 4, [(1, 3), (2, 4)], 2)

        return check

    @staticmethod
    def _split_check(blocks, gens):
        def check(code, doc):
            if code != 0 or sorted(doc["factor_dims"]) != sorted(blocks):
                return False
            flag = doc["flag_basis"]
            d = flag["rows"]
            rows = [[int(x) for x in flag["entries"][i * d:(i + 1) * d]] for i in range(d)]
            columns = [list(c) for c in zip(*rows)]
            return not oracle.flag_problems(columns, doc["series"], gens, 2)

        return check

    @staticmethod
    def _count_check(table):
        verdict, products, powers, doubled, floor = oracle.counting_chain(table)
        return lambda code, doc: (code == 0 and doc["verdict"] == verdict
                                  and doc["chain"] == {"sum_products": products, "sum_powers": powers,
                                                       "sum_doubled": doubled, "floor": floor})

    @staticmethod
    def _selftest_check():
        return lambda code, doc: code == 0 and doc["selftest"] == "pass"


WORKLOADS = {w.name: w for w in (CertifyChain, SearchSweep, ModuleSplit, CliCalls)}
