#!/usr/bin/env python3
"""Record a baseline: every workload untraced and traced at one seed.

Writes the end-to-end and per-layer metrics of each workload, the tracing
overhead, and the machine (Python, numpy and scipy versions, core count,
CPU model) to a JSON file, and prints every metric by name with its unit.
It also pulls from the spans the figures the ROADMAP re-anchor table gives,
so the two can be compared.

    python3 perfbench/record.py --seed 1 --out perfbench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} --trace {trace}: exit {proc.returncode}\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), [line[2:] for line in lines[:-1] if line.startswith("# ")]


def top_level_spans(workload, seed, name):
    """Durations of the spans called ``name`` that no other span encloses."""
    out = []
    with open(ROOT / ".perfbench_out" / f"spans-{workload}-seed{seed}.jsonl") as fh:
        next(fh)
        for line in fh:
            span_name, start, end, parent = json.loads(line)
            if span_name == name and parent == -1:
                out.append(end - start)
    return out


def machine():
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), "")
    except OSError:
        pass
    versions = subprocess.run(
        [sys.executable, "-c", "import numpy, scipy; print(numpy.__version__, scipy.__version__)"],
        stdout=subprocess.PIPE, text=True, check=True,
    ).stdout.split()
    return {"python": platform.python_version(), "numpy": versions[0], "scipy": versions[1],
            "cores": os.cpu_count(), "cpu": cpu, "platform": platform.platform()}


def roadmap_figures(seed, results):
    """Figures comparable to the ROADMAP re-anchor table, from this baseline's spans.

    Tasks run in a seeded order, so levels and calls are picked by size: the
    matching_graph(2)/F_3/r=2 level is the longest exists_realization span
    and the n=100 bulk check the longest top-level realizes span.
    """
    layers = {w: {k: v["value"] for k, v in r["per_layer"].items()} for w, r in results.items()}
    return {
        "selftest_subprocess_s": layers["cli-calls"]["cli.selftest.wall_s"],
        "fresh_import_commrep_cli_s": layers["cli-calls"]["cli.import_s"],
        "m2_f3_r2_nodes": layers["search-sweep"]["search.m2_f3_r2.nodes"],
        "m2_f3_r2_level_s": max(top_level_spans("search-sweep", seed, "search.exists_realization")),
        "survey_64_graphs_s": sum(top_level_spans("search-sweep", seed, "search.min_realization_dim")),
        "survey_exhausted_budget_of_64": layers["search-sweep"]["search.levels_refused"],
        "slowest_build_certificate_s": max(top_level_spans("certify-chain", seed, "certificate.build_certificate")),
        "slowest_verify_certificate_s": max(top_level_spans("certify-chain", seed, "certificate.verify_certificate")),
        "bulk_realizes_n100_s": max(top_level_spans("certify-chain", seed, "commgraph.realizes")),
        "bulk_realizes_alloc_peak_mb": layers["certify-chain"]["commgraph.alloc_peak_mb"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", default=str(HERE / "baseline.json"))
    args = ap.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    results = {}
    for spec in bench["workloads"]:
        name = spec["name"]
        untraced, info = run(name, args.seed, seconds, 0)
        traced, trace_info = run(name, args.seed, seconds, 1)
        results[name] = {
            "correct": untraced["correct"] and traced["correct"],
            "end_to_end": untraced["metrics"],
            "per_layer": traced["metrics"],
            "notes": info + trace_info,
        }
        for kind in ("end_to_end", "per_layer"):
            for k, v in results[name][kind].items():
                print(f"{name:14} {k:42} {v['value']:.6g} {v['unit']}")
    doc = {
        "seed": args.seed,
        "run_seconds": seconds,
        "machine": machine(),
        "workloads": results,
        "roadmap_figures": roadmap_figures(args.seed, results),
    }
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc["roadmap_figures"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
