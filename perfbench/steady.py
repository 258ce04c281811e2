#!/usr/bin/env python3
"""Steadiness mode: repeat one workload over several seeds and report spread.

Runs ``perfbench/run.py`` once per seed, untraced, and prints for each
end-to-end metric the median, the quartiles (``statistics.quantiles`` with
n=4), and the spread (q3 - q1) / median next to the bound BENCHMARK.json
fixes.  A spread above a third of the bound is flagged, except for
``setup_s``, whose bound limits only the drift of its median.

    python3 perfbench/steady.py --workload search-sweep --runs 10 --first-seed 1
    python3 perfbench/steady.py --workload cli-calls --runs 5 --out spread.json

``--out`` keeps every run's metrics, so two sets can be compared later with
``--compare a.json b.json``: each metric's second median may not be worse
than the first by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def declared():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_once(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"seed {seed}: incorrect result\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def summarize(runs, bench):
    rows = []
    for spec in bench["end_to_end"]:
        values = [r[spec["name"]] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        limit = spec["bound"] / 3
        flag = "" if spec["name"] == "setup_s" or spread <= limit else "  <-- above bound/3"
        rows.append(f"{spec['name']:>14} median {med:.6g} {spec['unit']}  q1 {q1:.6g}  q3 {q3:.6g}  "
                    f"spread {spread:.4f}  bound {spec['bound']}{flag}")
    return rows


def compare(first, second, bench):
    failures = []
    for spec in bench["end_to_end"]:
        name = spec["name"]
        a = statistics.median(r[name] for r in first)
        b = statistics.median(r[name] for r in second)
        worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
        mark = "" if worse <= spec["bound"] else "  <-- worse than bound"
        print(f"{name:>14} first {a:.6g}  second {b:.6g}  worse by {worse:+.4f}  bound {spec['bound']}{mark}")
        if mark:
            failures.append(name)
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="defaults to run_seconds in BENCHMARK.json")
    ap.add_argument("--out", help="write every run's metrics here as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    args = ap.parse_args()
    bench = declared()
    if args.compare:
        first, second = (json.loads(Path(p).read_text())["runs"] for p in args.compare)
        return 1 if compare(first, second, bench) else 0
    if not args.workload:
        ap.error("--workload is required unless --compare is given")
    seconds = args.seconds or bench["run_seconds"]
    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, seconds))
        print(f"seed {seed}: " + " ".join(f"{k}={v:.6g}" for k, v in runs[-1].items()), flush=True)
    for row in summarize(runs, bench):
        print(row)
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "runs": runs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
