#!/usr/bin/env python3
"""commrep benchmark: four seeded closed-loop workloads, checked against an oracle.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload certify-chain --seed 1 --seconds 20 --trace 0

Workloads (see BENCHMARK.json for why each was chosen): ``certify-chain``,
``search-sweep``, ``module-split`` and ``cli-calls``.  Every workload is a
closed loop: one client runs one task at a time in this process (or, for
``cli-calls``, in one ``python -m commrep`` child at a time).  A run
repeats the workload's fixed task set in passes until ``--seconds`` is
used up, with at least three passes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics:

* ``setup_s``: median over five fresh interpreters of the time from spawn to
  the first task: imports plus building the program objects from the inputs
  (for ``cli-calls``, a fresh ``import commrep.cli``);
* ``wall_ref``: time of one pass of the fixed task set, as the sum over tasks
  of each task's median time across passes;
* ``task_p50_ref`` and ``task_tail_ref``: the median task time, and the task
  time at the highest whole percentile that leaves at least ten tasks beyond
  it in the fewest tasks a run makes;
* ``peak_rss_mb``: peak resident set of this process (for ``cli-calls``,
  of its largest child);
* ``ok_share``: tasks that neither raised nor returned a wrong answer or
  exit code, as a share of tasks attempted (1 - failed share);
* ``decided_share``: tasks that ended in a definite verdict, as a share of
  tasks attempted.

The three ``_ref`` times are in units of a reference loop (a fixed ~2 ms of
pure-Python work) timed before every task of the run, divided by its median:
a shared host whose speed drifts by a fifth over minutes moves both alike, so
the ratio is what stays steady from run to run.  The same times in seconds,
the percentile used and the sample count are printed above the result.

With ``--trace 1`` the run makes a warm-up, an untraced and a traced pass,
then a probe of the eight CLI subcommands, and reports the per-layer
metrics (see ``layers.json`` for what each should move) plus the tracing
overhead.  Spans are written to ``.perfbench_out/`` in the checkout.

Exit code 2, with no result line, when the checkout has no ``src/commrep``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
TMP = ROOT / ".perfbench_tmp"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

SETUP_REPEATS = 5
MIN_PASSES = 3
HARD_STOP_S = 120  # stop starting passes here whatever --seconds says; runs must end within 180 s
IMPORT_REPEATS = 3
REFERENCE_ITERATIONS = 20000  # about 2 ms of interpreter work


def child_env():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({v: "1" for v in THREAD_VARS})
    return env


def percentile(values, q):
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(samples):
    """Highest whole percentile with at least ten of ``samples`` beyond it."""
    return max(50, math.floor(100 * (1 - 10 / samples)))


# -- workloads and passes ------------------------------------------------------------


def make_workload(name, seed, size):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliCalls:
        return cls(seed, size, TMP / f"{os.getpid()}-{seed}", child_env())
    return cls(seed, size)


def reference_seconds():
    """Time of a fixed pure-Python loop, the yardstick of host speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(REFERENCE_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


def run_pass(tasks, verified, log, reference=None):
    """Run each task once, timing only ``run``; returns (times, failed, decided).

    With a ``reference`` list, the reference loop is timed before each task
    and appended to it.
    """
    times, failed, decided = [], 0, 0
    clock = time.perf_counter
    for task in tasks:
        if reference is not None:
            reference.append(reference_seconds())
        t0 = clock()
        try:
            out = task.run()
        except Exception as e:  # noqa: BLE001 - a raising task is a failed task
            times.append(clock() - t0)
            failed += 1
            log.append(f"{task.label}: raised {type(e).__name__}: {e}")
            continue
        times.append(clock() - t0)
        key = task.key or task.label
        try:
            if key in verified:
                ok, dec, fp = task.check(out, False)
                ok = ok and fp == verified[key]
            else:
                ok, dec, fp = task.check(out, True)
                if ok:
                    verified[key] = fp
        except Exception as e:  # noqa: BLE001 - a malformed output is a wrong answer
            ok, dec = False, False
            log.append(f"{task.label}: check raised {type(e).__name__}: {e}")
        if not ok:
            failed += 1
            log.append(f"{task.label}: wrong answer")
        decided += bool(ok and dec)
    return times, failed, decided


def spawn_seconds(cmd, expect):
    """Seconds from spawning ``cmd`` until it prints ``expect``; EOF (exit) matches ""."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, env=child_env(), stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != expect:
        raise RuntimeError(f"{' '.join(cmd[1:])} exited with {code}")
    return elapsed


IMPORT_CLI = [sys.executable, "-c", "import commrep.cli"]


def measure_setup(name, seed, size):
    if name == "cli-calls":
        cmd, expect = IMPORT_CLI, ""
    else:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed),
               "--size", size, "--setup-only"]
        expect = "ready"
    return statistics.median(spawn_seconds(cmd, expect) for _ in range(SETUP_REPEATS))


def measured_run(wl, seconds, log):
    tasks = wl.tasks()
    verified, reference = {}, []
    start = time.perf_counter()
    passes, spans = [], []
    while True:
        p0 = time.perf_counter()
        passes.append(run_pass(tasks, verified, log, reference))
        spans.append(time.perf_counter() - p0)
        elapsed = time.perf_counter() - start
        if elapsed >= HARD_STOP_S:
            break
        if len(passes) >= MIN_PASSES and elapsed + statistics.median(spans) > seconds:
            break
    times = [t for p in passes for t in p[0]]
    attempted = len(times)
    failed = sum(p[1] for p in passes)
    decided = sum(p[2] for p in passes)
    q = tail_percentile(len(tasks) * MIN_PASSES)
    wall = sum(statistics.median(per_task) for per_task in zip(*(p[0] for p in passes)))
    p50, tail = percentile(times, 50), percentile(times, q)
    ref = statistics.median(reference)
    who = resource.RUSAGE_CHILDREN if wl.name == "cli-calls" else resource.RUSAGE_SELF
    metrics = {
        "wall_ref": (wall / ref, "ref"),
        "task_p50_ref": (p50 / ref, "ref"),
        "task_tail_ref": (tail / ref, "ref"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
        "ok_share": ((attempted - failed) / attempted, "ratio"),
        "decided_share": (decided / attempted, "ratio"),
    }
    pass_walls = sorted(sum(p[0]) for p in passes)
    info = [f"{len(passes)} passes of {len(tasks)} tasks; pass walls (s) min {pass_walls[0]:.3f}, "
            f"median {statistics.median(pass_walls):.3f}, max {pass_walls[-1]:.3f}",
            f"wall_s {wall:.4f}, task_p50_s {p50:.6f}, task_tail_s {tail:.6f} "
            f"(p{q} of {attempted} task times); reference loop {ref * 1e3:.4f} ms, median of {len(reference)}"]
    return metrics, attempted, failed, info


# -- traced run ------------------------------------------------------------------------


class LayerCounts:
    """Counts taken at layer boundaries while the tracer is installed."""

    def __init__(self):
        self.realizes_inputs = []
        self.pairs_checked = 0
        self.nodes = 0
        self.levels_swept = 0
        self.levels_refused = 0
        self._budget_frames = []

    def realizes(self, fn, args, kwargs):
        assignment = args[0] if args else kwargs["assignment"]
        graph = args[1] if len(args) > 1 else kwargs["graph"]
        m = len(assignment)
        self.pairs_checked += m * (m - 1) // 2
        self.realizes_inputs.append((assignment, graph))
        return fn(*args, **kwargs)

    def exists_realization(self, fn, args, kwargs):
        outcome = fn(*args, **kwargs)
        self.nodes += outcome.nodes
        if outcome.status in ("none", "found"):
            self.levels_swept += 1
        else:
            self.levels_refused += 1
            if self._budget_frames:
                self._budget_frames[-1] += 1
        return outcome

    def min_realization_dim(self, fn, args, kwargs):
        self._budget_frames.append(0)
        try:
            report = fn(*args, **kwargs)
        finally:
            stopped_in_sweep = self._budget_frames.pop()
        if report.status == "exhausted_budget" and not stopped_in_sweep:
            self.levels_refused += 1  # refused before sweeping the level
        return report

    def bigint_share(self):
        import oracle

        if not self.realizes_inputs:
            return 0.0
        verdicts = {}
        for a, _ in self.realizes_inputs:
            if id(a) not in verdicts:
                f = a.field
                p = f.characteristic if f.is_prime_field else None
                verdicts[id(a)] = oracle.needs_bigint([m.entries for m in a.matrices], a.dimension, p)
        return sum(verdicts[id(a)] for a, _ in self.realizes_inputs) / len(self.realizes_inputs)

    def alloc_peak_mb(self):
        """Largest tracemalloc peak over a replay of each distinct realizes input.

        The replay runs after the traced pass, with the tracer removed, so
        tracemalloc's own cost stays out of the realizes span times.
        """
        import commrep.commgraph as cg

        peak, seen = 0, set()
        for a, g in self.realizes_inputs:
            if (id(a), id(g)) in seen:
                continue
            seen.add((id(a), id(g)))
            tracemalloc.start()
            try:
                cg.realizes(a, g)
                peak = max(peak, tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        return peak / 2**20


def trace_targets(counts):
    import commrep.certificate as ce
    import commrep.cli as cli
    import commrep.commgraph as cg
    import commrep.exactla as la
    import commrep.modsplit as ms
    import commrep.search as se
    import commrep.witness as wi

    return [
        (la, "dot", "exactla.dot", None),
        (la, "rank", "exactla.rank", None),
        (la, "span_rank", "exactla.span_rank", None),
        (la, "commutator", "exactla.commutator", None),
        (la, "inverse", "exactla.inverse", None),
        (la.Matrix, "__matmul__", "exactla.matmul", None),
        (la, "matrix_to_json", "exactla.json", None),
        (la, "matrix_from_json", "exactla.json", None),
        (la, "scalar_to_json", "exactla.json", None),
        (la, "scalar_from_json", "exactla.json", None),
        (cg, "realizes", "commgraph.realizes", counts.realizes),
        (wi, "sharp_witness", "witness.sharp_witness", None),
        (ce, "build_certificate", "certificate.build_certificate", None),
        (ce, "verify_certificate", "certificate.verify_certificate", None),
        (ce, "find_avoiding_vector", "certificate.find_avoiding_vector", None),
        (se, "min_realization_dim", "search.min_realization_dim", counts.min_realization_dim),
        (se, "exists_realization", "search.exists_realization", counts.exists_realization),
        (ms, "spin", "modsplit.spin", None),
        (ms, "composition_factor_dims", "modsplit.composition_factor_dims", None),
        (ms, "counting_chain_check", "modsplit.counting_chain_check", None),
        (cli, "main", "cli.main", None),
    ]


def traced_run(wl, name, seed, size, log):
    """A warm-up, an untraced and a traced pass, then the CLI probe; returns per-layer metrics.

    The probe runs the eight subcommands in this process under the tracer
    (for cli-calls the traced pass already does), then once each as real
    subprocesses for their wall times.
    """
    import workloads
    from tracer import Tracer

    own_cli = name == "cli-calls"
    probe = wl if own_cli else make_workload("cli-calls", seed, size)
    probe_tasks = [t for t in probe.tasks() if t.label in workloads.SUBCOMMANDS]
    probe_verified = {}
    counts, tracer = LayerCounts(), Tracer()
    try:
        probe.in_process = True
        tasks = wl.tasks()
        verified = {}
        warmup = run_pass(tasks, verified, log)  # first calls and full checks stay out of the overhead
        untraced = run_pass(tasks, verified, log)
        tracer.install(trace_targets(counts))
        try:
            traced = run_pass(tasks, verified, log)
            passes = [warmup, untraced, traced]
            if not own_cli:
                passes.append(run_pass(probe_tasks, probe_verified, log))
        finally:
            tracer.uninstall()
        probe.in_process = False
        walls = run_pass(probe_tasks, probe_verified, log)
        passes.append(walls)
        import_s = statistics.median(spawn_seconds(IMPORT_CLI, "") for _ in range(IMPORT_REPEATS))
    finally:
        if not own_cli:
            probe.close()

    agg = tracer.self_times()
    calls = lambda n: agg.get(n, (0, 0.0))[0]  # noqa: E731
    own = lambda n: agg.get(n, (0, 0.0))[1]  # noqa: E731
    m = {}
    for op in ("dot", "rank", "span_rank", "commutator", "inverse", "matmul", "json"):
        m[f"exactla.{op}.calls"] = (calls(f"exactla.{op}"), "count")
        m[f"exactla.{op}.self_s"] = (own(f"exactla.{op}"), "s")
    m["commgraph.realizes.calls"] = (calls("commgraph.realizes"), "count")
    m["commgraph.realizes.self_s"] = (own("commgraph.realizes"), "s")
    m["commgraph.pairs_checked"] = (counts.pairs_checked, "count")
    m["commgraph.bigint_share"] = (counts.bigint_share(), "ratio")
    m["commgraph.alloc_peak_mb"] = (counts.alloc_peak_mb(), "MB")
    m["witness.sharp_witness.calls"] = (calls("witness.sharp_witness"), "count")
    m["witness.sharp_witness.self_s"] = (own("witness.sharp_witness"), "s")
    for fn in ("build_certificate", "verify_certificate", "find_avoiding_vector"):
        m[f"certificate.{fn}.calls"] = (calls(f"certificate.{fn}"), "count")
        m[f"certificate.{fn}.self_s"] = (own(f"certificate.{fn}"), "s")
    stats = wl.stats
    rejects = stats.get("reject_total", 0)
    m["certificate.reject_ok_share"] = (stats["reject_ok"] / rejects if rejects else 0.0, "ratio")
    exists_s = own("search.exists_realization")
    m["search.nodes"] = (counts.nodes, "count")
    m["search.nodes_per_s"] = (counts.nodes / exists_s if exists_s else 0.0, "1/s")
    m["search.min_realization_dim.self_s"] = (own("search.min_realization_dim"), "s")
    m["search.exists_realization.self_s"] = (exists_s, "s")
    m["search.levels_swept"] = (counts.levels_swept, "count")
    m["search.levels_refused"] = (counts.levels_refused, "count")
    levels = counts.levels_swept + counts.levels_refused
    m["search.decided_ratio"] = (counts.levels_swept / levels if levels else 0.0, "ratio")
    m["search.m2_f3_r2.nodes"] = (stats.get("level-m2-f3-r2-all", 0), "count")
    m["modsplit.spin.calls"] = (calls("modsplit.spin"), "count")
    m["modsplit.spin.self_s"] = (own("modsplit.spin"), "s")
    m["modsplit.composition_factor_dims.self_s"] = (own("modsplit.composition_factor_dims"), "s")
    m["modsplit.counting_chain_check.self_s"] = (own("modsplit.counting_chain_check"), "s")
    m["cli.import_s"] = (import_s, "s")
    for task, t in zip(probe_tasks, walls[0]):
        m[f"cli.{task.label}.wall_s"] = (t, "s")
    m["cli.main.self_s"] = (own("cli.main"), "s")
    untraced_wall, traced_wall = sum(untraced[0]), sum(traced[0])
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")

    spans_path = OUT / f"spans-{name}-seed{seed}.jsonl"
    tracer.write(spans_path)
    attempted = sum(len(p[0]) for p in passes)
    failed = sum(p[1] for p in passes)
    info = [f"untraced pass {untraced_wall:.3f} s, traced pass {traced_wall:.3f} s, "
            f"{len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}"]
    return m, attempted, failed, info


# -- entry point -------------------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True,
                    choices=["certify-chain", "search-sweep", "module-split", "cli-calls"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "tiny"], default="full",
                    help="tiny shrinks every input, for the smoke check")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (SRC / "commrep" / "__init__.py").is_file():
        print(f"perfbench: no commrep package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update({v: "1" for v in THREAD_VARS})  # before numpy loads
    sys.path.insert(0, str(SRC))
    import commrep

    if Path(commrep.__file__).resolve().parent != SRC / "commrep":
        print(f"perfbench: commrep imported from {commrep.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.setup_only:
        wl = make_workload(args.workload, args.seed, args.size)
        if args.workload == "cli-calls":
            wl.close()
        print("ready", flush=True)
        return 0

    setup_s = None if args.trace else measure_setup(args.workload, args.seed, args.size)
    wl = make_workload(args.workload, args.seed, args.size)
    log = []
    try:
        if args.trace:
            metrics, attempted, failed, info = traced_run(wl, args.workload, args.seed, args.size, log)
        else:
            metrics, attempted, failed, info = measured_run(wl, args.seconds, log)
            metrics = {"setup_s": (setup_s, "s"), **metrics}
    finally:
        if args.workload == "cli-calls":
            wl.close()
    for line in log:
        print(f"FAILED {line}", file=sys.stderr)
    for line in info:
        print(f"# {line}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
