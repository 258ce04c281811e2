"""Acceptance suite: one test per criterion, stated tolerances pinned.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines and timings.
"""

import contextlib
import json
import random
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from math import prod
from pathlib import Path

from commrep.certificate import (
    REASON_ALPHA_V_ZERO,
    REASON_ALPHA_ZV_ZERO,
    REASON_BOUND_EXCEEDS_DIM,
    REASON_BOUND_MISMATCH,
    REASON_GRAM_MISMATCH,
    REASON_GRAM_NOT_ALTERNATING,
    REASON_GRAM_RANK,
    REASON_IMAGE_RANK_LOW,
    REASON_IMAGE_RANK_MISMATCH,
    REASON_N_MISMATCH,
    REASON_R_MISMATCH,
    REASON_Z_MISMATCH,
    REASON_ZV_ZERO,
    build_certificate,
    pairs_from_assignment,
    verify_certificate,
)
from commrep.commgraph import matching_graph, realizes
from commrep.exactla import (
    GF,
    QQ,
    commutator,
    elementary_matrix,
    identity,
    inverse,
    is_invertible,
    matrix_from_rows,
)
from commrep.modsplit import (
    ModuleSpec,
    composition_factor_dims,
    counting_chain_check,
    is_triangularizable,
)
from commrep.search import NONE, exists_realization, min_realization_dim
from commrep.witness import product_block_embedding, sharp_witness
from conftest import run_cli
from reference_elimination import rank as reference_rank

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@contextlib.contextmanager
def criterion(num, name, limit=None):
    t0 = time.perf_counter()
    ok = False
    try:
        yield
        elapsed = time.perf_counter() - t0
        if limit is not None and elapsed >= limit:
            raise AssertionError(
                f"criterion {num} took {elapsed:.2f}s, limit {limit}s"
            )
        ok = True
    finally:
        elapsed = time.perf_counter() - t0
        verdict = "PASS" if ok else "FAIL"
        print(f"ACCEPTANCE {num} [{name}]: {verdict} ({elapsed:.2f}s)")


def test_criterion_1_sharp_witness_validity():
    with criterion(1, "sharp witness validity n<=50", limit=10.0):
        for lam in (Fraction(2), Fraction(-1), Fraction(1, 2)):
            for n in range(1, 51):
                w = sharp_witness(n, lam, QQ)
                assert realizes(w, matching_graph(n)).ok
                for i in range(1, n + 1):
                    expected = elementary_matrix(n + 1, 1, i + 1, QQ).scale(-lam)
                    got = commutator(w.matrices[i - 1], w.matrices[n + i - 1])
                    assert got == expected  # entry-exact


def test_criterion_2_certificate_sharpness():
    with criterion(2, "certificate sharpness n<=20"):
        for n in range(1, 21):
            w = sharp_witness(n, 2, QQ)
            pairs = pairs_from_assignment(w)
            cert = build_certificate(pairs)
            assert cert.concluded_bound == n + 1 == cert.r
            assert verify_certificate(cert, pairs).ok
            flat = [identity(n + 1, QQ).entries] + [m.entries for m in w.matrices]
            assert reference_rank(matrix_from_rows(QQ, flat)) == 2 * n + 1


def _corruption_schemas():
    def delta(field, rng):
        if field.is_rationals:
            return Fraction(rng.choice([1, 2, 3, 5]), rng.choice([1, 2])) * rng.choice([1, -1])
        return rng.randrange(1, field.characteristic)

    def times(vec, c, field):
        p = field.characteristic
        return tuple(x * c if p is None else x * c % p for x in vec)

    def unit_not_one(field, rng):
        if field.is_rationals:
            return rng.choice([Fraction(2), Fraction(3), Fraction(-1), Fraction(1, 2)])
        return rng.randrange(2, field.characteristic)

    def corrupt_z(cert, rng):
        i = rng.randrange(cert.n)
        a = rng.randrange(1, cert.r + 1)
        b = rng.randrange(1, cert.r + 1)
        bump = elementary_matrix(cert.r, a, b, cert.field).scale(delta(cert.field, rng))
        z = list(cert.z)
        z[i] = z[i] + bump
        return replace(cert, z=tuple(z)), REASON_Z_MISMATCH, {REASON_Z_MISMATCH}

    def corrupt_gram(cert, rng):
        rows = cert.gram.rows_list()
        i = rng.randrange(2 * cert.n)
        j = rng.randrange(2 * cert.n)
        rows[i][j] += delta(cert.field, rng)  # matrix_from_rows reduces the sum mod p
        return (
            replace(cert, gram=matrix_from_rows(cert.field, rows)),
            REASON_GRAM_MISMATCH,
            {REASON_GRAM_MISMATCH, REASON_GRAM_NOT_ALTERNATING, REASON_GRAM_RANK},
        )

    def corrupt_image_rank(cert, rng):
        return (
            replace(cert, image_rank=cert.image_rank + rng.choice([-2, -1, 1, 2, 5])),
            REASON_IMAGE_RANK_MISMATCH,
            {REASON_IMAGE_RANK_MISMATCH},
        )

    def corrupt_bound(cert, rng):
        return (
            replace(cert, concluded_bound=cert.concluded_bound + rng.choice([-1, 1, 2])),
            REASON_BOUND_MISMATCH,
            {REASON_BOUND_MISMATCH, REASON_BOUND_EXCEEDS_DIM},
        )

    def corrupt_n(cert, rng):
        return (
            replace(cert, n=cert.n + rng.choice([1, 2, 3])),
            REASON_N_MISMATCH,
            {REASON_N_MISMATCH},
        )

    def corrupt_r(cert, rng):
        return (
            replace(cert, r=cert.r + rng.choice([-1, 1, 2])),
            REASON_R_MISMATCH,
            {REASON_R_MISMATCH},
        )

    def corrupt_v_zero(cert, rng):
        zero = cert.field.zero()
        return (
            replace(cert, v=tuple(zero for _ in cert.v)),
            REASON_ALPHA_V_ZERO,
            {
                REASON_ALPHA_V_ZERO,
                REASON_ALPHA_ZV_ZERO,
                REASON_ZV_ZERO,
                REASON_GRAM_MISMATCH,
                REASON_IMAGE_RANK_MISMATCH,
                REASON_IMAGE_RANK_LOW,
            },
        )

    def corrupt_v_scale(cert, rng):
        # the recomputed pairing entries all scale by a unit != 1, so the
        # stored gram (nonzero on the checkerboard) can no longer match
        c = unit_not_one(cert.field, rng)
        v = times(cert.v, c, cert.field)
        return replace(cert, v=v), REASON_GRAM_MISMATCH, {REASON_GRAM_MISMATCH}

    def corrupt_alpha_zero(cert, rng):
        zero = cert.field.zero()
        return (
            replace(cert, alpha=tuple(zero for _ in cert.alpha)),
            REASON_ALPHA_V_ZERO,
            {REASON_ALPHA_V_ZERO, REASON_ALPHA_ZV_ZERO, REASON_GRAM_MISMATCH},
        )

    def corrupt_alpha_scale(cert, rng):
        c = unit_not_one(cert.field, rng)
        alpha = times(cert.alpha, c, cert.field)
        return replace(cert, alpha=alpha), REASON_GRAM_MISMATCH, {REASON_GRAM_MISMATCH}

    return [
        corrupt_z,
        corrupt_gram,
        corrupt_image_rank,
        corrupt_bound,
        corrupt_n,
        corrupt_r,
        corrupt_v_zero,
        corrupt_v_scale,
        corrupt_alpha_zero,
        corrupt_alpha_scale,
    ]


def test_criterion_3_certificate_soundness_fuzzing():
    with criterion(3, "1000 corrupted certificates rejected", limit=30.0):
        instances = []
        for n, lam, field in [
            (1, 2, QQ),
            (2, 2, QQ),
            (3, -1, QQ),
            (1, 3, GF(11)),
            (2, 5, GF(13)),
        ]:
            pairs = pairs_from_assignment(sharp_witness(n, lam, field))
            cert = build_certificate(pairs)
            assert verify_certificate(cert, pairs).ok
            instances.append((cert, pairs))

        schemas = _corruption_schemas()
        rng = random.Random(20260808)
        used = set()
        for _ in range(1000):
            cert, pairs = instances[rng.randrange(len(instances))]
            schema = schemas[rng.randrange(len(schemas))]
            used.add(schema.__name__)
            corrupted, must_have, allowed = schema(cert, rng)
            result = verify_certificate(corrupted, pairs)
            assert not result.ok
            reasons = set(result.reasons)
            assert must_have in reasons, (schema.__name__, result.reasons)
            assert reasons <= allowed, (schema.__name__, result.reasons)
        assert len(used) == len(schemas)  # every corruption family exercised


def test_criterion_4_search_matches_analytic_bound():
    with criterion(4, "oracle agreement at desk scale", limit=120.0):
        budget = 10**8
        r1 = min_realization_dim(matching_graph(1), GF(2), r_max=3, budget=budget)
        assert r1.status == "exact"
        assert r1.lower == r1.upper == 2
        assert dict(r1.excluded)[1] == "analytic"
        assert r1.analytic_lower == 2
        assert exists_realization(matching_graph(1), GF(2), 1, budget=budget).status == NONE

        hint = sharp_witness(2, 1, GF(2))
        r2 = min_realization_dim(
            matching_graph(2), GF(2), r_max=3, budget=budget, hint=hint
        )
        assert r2.status == "exact"
        assert r2.lower == r2.upper == 3
        excluded = dict(r2.excluded)
        assert excluded[1] == "analytic" and excluded[2] == "analytic"
        assert r2.analytic_lower == 3
        for r in (1, 2):  # exhaustion matches the analytic bound
            assert exists_realization(matching_graph(2), GF(2), r, budget=budget).status == NONE
        assert r2.nodes_explored <= budget


def test_criterion_5_block_embedding_sharpness_shape():
    with criterion(5, "block embedding of 3 factors", limit=5.0):
        gens = [
            matrix_from_rows(QQ, [[1, 1], [0, 1]]),
            matrix_from_rows(QQ, [[1, 0], [1, 1]]),
        ]
        factors = [gens, gens, gens]
        images = product_block_embedding(factors)
        assert len(images) == 6 and all(m.rows == 6 for m in images)
        grouped = [images[0:2], images[2:4], images[4:6]]
        for s1 in range(3):
            for s2 in range(s1 + 1, 3):
                for g in grouped[s1]:
                    for h in grouped[s2]:
                        assert commutator(g, h).is_zero()

        rng = random.Random(5)
        eye2, eye6 = identity(2, QQ), identity(6, QQ)
        for _ in range(100):
            slot = rng.randrange(3)
            word = [rng.randrange(2) for _ in range(rng.randrange(1, 8))]
            small, big = eye2, eye6
            for g in word:
                small = small @ factors[slot][g]
                big = big @ grouped[slot][g]
            big, small = big.rows_list(), small.rows_list()
            for i in range(1, 7):
                for j in range(1, 7):
                    bi, bj = i - 2 * slot, j - 2 * slot
                    if 1 <= bi <= 2 and 1 <= bj <= 2:
                        assert big[i - 1][j - 1] == small[bi - 1][bj - 1]
                    else:
                        assert big[i - 1][j - 1] == (1 if i == j else 0)


def test_criterion_6_composition_machinery():
    with criterion(6, "composition factors and triangularizability", limit=30.0):
        f2 = GF(2)
        rot = matrix_from_rows(f2, [[0, 0, 1], [1, 0, 0], [0, 1, 0]])
        swap = matrix_from_rows(f2, [[0, 1, 0], [1, 0, 0], [0, 0, 1]])
        s3 = ModuleSpec(f2, 3, (rot, swap))
        report = composition_factor_dims(s3)
        assert sorted(report.factor_dims) == [1, 2]
        flag_inv = inverse(report.flag_basis)
        for g in s3.generators:
            c = (flag_inv @ g @ report.flag_basis).rows_list()
            for start, end in zip(report.series, report.series[1:]):
                for i in range(end + 1, 4):
                    for j in range(start + 1, end + 1):
                        assert c[i - 1][j - 1] == 0
        assert is_triangularizable(s3) is False

        unipotent = ModuleSpec(f2, 2, (matrix_from_rows(f2, [[1, 1], [0, 1]]),))
        assert composition_factor_dims(unipotent).factor_dims == (1, 1)
        assert is_triangularizable(unipotent) is True

        rng = random.Random(6)
        for _ in range(50):
            while True:
                cand = matrix_from_rows(
                    f2, [[rng.randrange(2) for _ in range(3)] for _ in range(3)]
                )
                if is_invertible(cand):
                    break
            cand_inv = inverse(cand)
            conj = ModuleSpec(f2, 3, tuple(cand_inv @ g @ cand for g in s3.generators))
            assert sorted(composition_factor_dims(conj).factor_dims) == [1, 2]


def test_criterion_7_counting_chain():
    with criterion(7, "counting chain on random tables", limit=5.0):
        rng = random.Random(7)
        for _ in range(200):
            t = rng.randrange(1, 6)
            n = rng.randrange(1, 6)
            table = [[rng.randrange(1, 5) for _ in range(n)] for _ in range(t)]
            for col in range(n):  # make the table valid: cover every column
                row = rng.randrange(t)
                table[row][col] = max(2, table[row][col])
            check = counting_chain_check(table)
            assert check.verdict == "satisfied"
            # oracle: recompute the chain values directly from the table
            s_sizes = [sum(1 for d in row if d >= 2) for row in table]
            assert check.sum_products == sum(prod(row) for row in table)
            assert check.sum_powers == sum(2**s for s in s_sizes)
            assert check.sum_doubled == sum(2 * s for s in s_sizes)
            assert check.floor == 2 * n
            assert (
                check.sum_products
                >= check.sum_powers
                >= check.sum_doubled
                >= check.floor
            )
            assert check.chain_holds

        for _ in range(100):  # any all-ones column must be flagged
            t = rng.randrange(1, 6)
            n = rng.randrange(2, 6)
            table = [[rng.randrange(1, 5) for _ in range(n)] for _ in range(t)]
            for col in range(n):
                row = rng.randrange(t)
                table[row][col] = max(2, table[row][col])
            dead = rng.randrange(n)
            for row in table:
                row[dead] = 1
            check = counting_chain_check(table)
            assert check.verdict == "precondition_failed"
            assert dead + 1 in check.failed_columns


def test_criterion_8_byte_identical_output(tmp_path):
    with criterion(8, "deterministic CLI output"):
        graph2 = tmp_path / "m2.json"
        graph2.write_text(json.dumps({"vertices": 4, "edges": [[1, 3], [2, 4]]}))

        wit = run_cli("witness", "--n", "2", "--lambda", "2", "--field", "Q")
        assert wit.returncode == 0
        pairs_file = tmp_path / "w2.json"
        pairs_file.write_text(wit.stdout)

        cert = run_cli("certify", "--input", str(pairs_file))
        assert cert.returncode == 0
        cert_file = tmp_path / "c2.json"
        cert_file.write_text(cert.stdout)

        hint = run_cli("witness", "--n", "2", "--lambda", "1", "--field", "Fp:2")
        hint_file = tmp_path / "h2.json"
        hint_file.write_text(hint.stdout)

        module_file = tmp_path / "s3.json"
        perm = lambda rows: {  # noqa: E731
            "field": "Fp:2",
            "rows": 3,
            "cols": 3,
            "entries": [str(x) for row in rows for x in row],
        }
        module_file.write_text(
            json.dumps(
                {
                    "field": "Fp:2",
                    "dim": 3,
                    "generators": [
                        perm([[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
                        perm([[0, 1, 0], [1, 0, 0], [0, 0, 1]]),
                    ],
                }
            )
        )
        dims_file = tmp_path / "dims.json"
        dims_file.write_text(json.dumps({"dims": [[1, 2], [2, 1]]}))

        search_args = [
            "search", "--graph", str(graph2), "--field", "Fp:2", "--rmax", "3",
            "--mode", "all", "--budget", "10000000", "--hint", str(hint_file),
        ]
        invocations = [
            ["witness", "--n", "3", "--lambda", "1/2", "--field", "Q"],
            ["verify-graph", "--input", str(pairs_file), "--graph", str(graph2)],
            ["certify", "--input", str(pairs_file)],
            ["verify-cert", "--cert", str(cert_file), "--input", str(pairs_file)],
            search_args,
            search_args + ["--jobs", "4"],
            ["split", "--module", str(module_file)],
            ["count-check", "--dims", str(dims_file)],
            ["selftest"],
        ]
        outputs = {}
        for args in invocations:
            first = run_cli(*args)
            second = run_cli(*args)
            assert first.returncode == second.returncode
            assert first.stdout == second.stdout, f"nondeterministic: {args[0]}"
            # canonical form: reserializing the parsed document gives the bytes back
            doc = json.loads(first.stdout)
            canon = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            assert canon == first.stdout
            outputs[tuple(args)] = first

        seq = outputs[tuple(search_args)]
        par = outputs[tuple(search_args + ["--jobs", "4"])]
        assert seq.stdout == par.stdout  # report carries no thread-dependent fields
        report = json.loads(par.stdout)
        assert report["status"] == "exact"
        assert report["lower"] == report["upper"] == 3


def test_tiny_output_digests_are_pinned():
    # a changed output of any benchmark workload changes its digest, even where every oracle check passes
    argv = [sys.executable, str(SCRIPTS / "output_digests.py"), "--seeds", "1", "--size", "tiny"]
    res = subprocess.run(argv, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout == (SCRIPTS / "output_digests_tiny.txt").read_text()
