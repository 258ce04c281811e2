#!/usr/bin/env python3
"""Smoke check of the benchmark itself, at tiny sizes.

Runs every workload untraced and traced with ``--size tiny`` and asserts
that each run is correct and prints exactly the metric names, with the
units, that BENCHMARK.json declares: ``end_to_end`` untraced, ``per_layer``
traced.  Then checks that the benchmark refuses to run, with a non-zero
exit and no result line, in a directory holding only BENCHMARK.json and
the benchmark's own files.

    python3 perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for spec in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, spec["name"], trace)
            where = f"{spec['name']} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{where}: exit {proc.returncode}: {proc.stderr.strip()[-400:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            declared = {m["name"]: m["unit"] for m in bench[key]}
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: incorrect run: {proc.stderr.strip()[-400:]}")
            if printed != declared:
                missing = sorted(set(declared) - set(printed))
                extra = sorted(set(printed) - set(declared))
                wrong = sorted(k for k in set(declared) & set(printed) if declared[k] != printed[k])
                problems.append(f"{where}: missing {missing}, undeclared {extra}, unit differs {wrong}")
            if not all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()):
                problems.append(f"{where}: non-numeric metric value")
            print(f"ok {where}: {len(printed)} metrics", flush=True)

    bare = ROOT / ".perfbench_tmp" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = run(bare, bench["workloads"][0]["name"], 0)
        if proc.returncode == 0 or proc.stdout.strip():
            problems.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout.strip()[:200]!r}")
        else:
            print(f"ok bare directory refused with exit {proc.returncode}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for p in problems:
        print(f"FAIL {p}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
