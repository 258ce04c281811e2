#!/usr/bin/env python3
"""Digest the outputs of the benchmark workloads, to show that a change keeps them.

For certify-chain, search-sweep and module-split it builds each workload of
``perfbench/workloads.py`` for a seed and size, runs every task once in
order, checks each output with the workload's oracle check and hashes each
task's label with its fingerprint.  For cli-calls it runs the workload's
``python -m commrep`` calls one at a time from a new temporary directory,
which it removes afterwards, and hashes each call's label, exit code and
stdout bytes.  The ``bad-json`` error message names that directory, so the
directory's path is replaced by ``<workdir>`` in stdout before hashing.  It
prints one sha256 per workload and seed and exits 1 if any oracle check
fails or a workload cannot be built.

Digests are comparable only between commits with the same ``perfbench/``:
the workloads and their fingerprints come from there.
``scripts/output_digests_tiny.txt`` holds the output of
``--seeds 1 --size tiny``, which the test
``tests/test_acceptance.py::test_tiny_output_digests_are_pinned`` compares against.

Usage: python3 scripts/output_digests.py [--seeds 1 2 3] [--size full|tiny]
"""

import argparse
import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402


def _build(name, seed, size):
    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliCalls:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        workdir = tempfile.mkdtemp(prefix="commrep-output-digests-")
        try:
            return cls(seed, size, workdir, env)
        except BaseException:
            shutil.rmtree(workdir)
            raise
    return cls(seed, size)


def _digest(workload):
    """(sha256 of every task's label and output, labels whose oracle check failed)."""
    digest, failed = hashlib.sha256(), []
    cli = isinstance(workload, workloads.CliCalls)
    for task in workload.tasks():
        try:
            out = task.run()
        except Exception as e:  # noqa: BLE001 - a raising task is a failed task
            ok, record = False, f"raised {type(e).__name__}: {e}"
        else:
            ok, _, fingerprint = task.check(out, True)  # cli-calls: certify's check writes c.json for verify-cert
            record = (out[0], out[1].replace(str(workload.dir).encode(), b"<workdir>")) if cli else fingerprint
        if not ok:
            failed.append(task.label)
        digest.update(repr((task.label, record)).encode())
    return digest.hexdigest(), failed


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    bad = False
    for name in workloads.WORKLOADS:
        for seed in args.seeds:
            where = f"{name} seed {seed} {args.size}"
            try:
                workload = _build(name, seed, args.size)
            except Exception as e:  # noqa: BLE001 - a workload that cannot be built has no digest
                print(f"{where}: not built: {type(e).__name__}: {e}")
                bad = True
                continue
            try:
                digest, failed = _digest(workload)
            finally:
                if hasattr(workload, "close"):
                    workload.close()
            print(f"{where}: {digest}")
            if failed:
                print(f"{where}: oracle check failed: {', '.join(failed)}", file=sys.stderr)
                bad = True
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
