#!/usr/bin/env python3
"""equilab benchmark: verdict latency and sweep throughput on four workloads.

Usage (from the repository root):

    python3 bench/run.py --workload gallery --seed 1 --seconds 15 --trace 0

Workloads (see bench/README.md): gallery, harness, corpus, recognize.  Each is
a closed loop with one client in this process and no threads.  The program is
imported from src/ next to this directory; nothing is installed.

A set-up imports equilab afresh and makes the inputs from --seed.  A run
times SETUPS_PER_BATCH set-ups before the first pass and as many after each
pass, and reports the median as setup_s.  It runs a fixed number of passes
over the workload's operation list: --seconds divided by the workload's
SECONDS_PER_PASS, at least one.  Fixing the pass count fixes the work, so
attempted/failed counts and the tail rank repeat between runs.  Every output is checked right after its operation,
outside the timed region, and then released; pass_s is therefore the sum of
the timed operation intervals of a pass.  The gallery workload also runs a
bounded-time probe once per run, outside the passes and the latency metrics.

--trace 0 prints the end-to-end metrics.  --trace 1 runs half as many passes
and each operation twice in a row, once untraced and once traced (in
alternating order); it prints the per-layer metrics of the traced runs, the
tracing overhead (traced minus untraced operation time per pass), and writes
every span to .bench_build/equilab-bench/.  The last line of standard output
is the JSON result; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path
from time import perf_counter

from tracing import MODULES, Tracer
from workloads import FAILED, OK, WRONG, WORKLOADS, probe_check
from reference import PROBE

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "equilab-bench"

# --seconds buys one pass per this many seconds.  At 15 s this gives 4, 3, 1
# and 2 passes, about 15 s of measured work at the seed commit (pass times on
# a 2-core shared VM, Python 3.11.7: gallery 5.4 s, harness 5 s, corpus 13 s,
# recognize 7 s).  Gallery gets one pass more, so that its tail (the 11th
# largest of 80 samples) falls inside the group of ~1 s operations instead of
# on the edge between two operations.
SECONDS_PER_PASS = {"gallery": 3.75, "harness": 5.0, "corpus": 13.0, "recognize": 7.0}
# set-ups timed before the first pass, and again after every untraced pass:
# the VM's speed shifts by up to 1.5x over a second or two, so the samples of
# setup_s are spread over the whole run
SETUPS_PER_BATCH = 3
PROBE_DEADLINE_S = 3.0
TAIL_BEYOND = 10
# no new pass starts after this many seconds, so that a run of a much slower
# program still ends within 180 s
PASS_CUTOFF_S = 90.0

END_TO_END = {
    "setup_s": "s", "pass_s": "s", "op_p50_ms": "ms", "op_tail_ms": "ms",
    "graphs_per_s": "1/s", "peak_rss_mb": "MB",
}
# functions whose calls and self time the traced run reports
LAYER_FUNCTIONS = (
    "simplex.lp_optimize",
    "exactla.solve_exact", "exactla.nullspace",
    "equicert.verify_weighting", "equicert.decide_equi_exact", "equicert.strong_check",
    "equicert.solve_unit_system", "equicert.forced_value", "equicert.star_system",
    "equicert.stable_system",
    "corpus.connected_triangle_free_graphs",
    "matching.extend_to_perfect_internal", "matching.is_k_internally_extendable",
    "matching.matching_covering",
    "graphs.parse_edge_list", "graphs.make_graph", "graphs.components",
    "graphs.induced_subgraph", "graphs.enumerate_maximal_stable_sets",
    "graphs.enumerate_maximal_cliques", "graphs.edge_index", "graphs.find_edge",
    "recognizers.recognize_equistarable_forest",
    "recognizers.recognize_equistarable_bipartite",
    "recognizers.component_classification", "recognizers.crosscheck_table1",
    "recognizers.triangle_condition", "recognizers.general_partition",
    "recognizers.is_p5_constrained",
    "transforms.co_line", "transforms.line_graph", "transforms.complement",
    "cli.main", "cli.cmd_analyze",
)
LAYER_COUNTERS = {
    "graphs.bk_nodes": "count",
    "simplex.lp_calls_in_strong_check": "count",
    "simplex.lp_calls_per_strong_check": "ratio",
    "equicert.verify_weighting.yes_calls": "count",
    "equicert.verify_weighting.calls_per_yes": "ratio",
    "equicert.max_ground_size": "count",
    "trace.pass_s": "s",
    "trace.untraced_pass_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
    "trace.unattributed_s": "s",
    "trace.unattributed_share": "share",
    "trace.attribution_error_s": "s",
    "trace.spans_per_pass": "count",
    "analyze_s": "s",
    "analyze_strong_s": "s",
}


def per_layer_units() -> dict:
    units = {}
    for mod in MODULES:
        units[f"{mod}.self_s"] = "s"
        units[f"{mod}.share"] = "share"
    for fn in LAYER_FUNCTIONS:
        units[f"{fn}.calls"] = "count"
        units[f"{fn}.self_s"] = "s"
    units.update(LAYER_COUNTERS)
    return units


def _equilab_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "equilab" or n.startswith("equilab.")}


def import_equilab():
    """Import every equilab module afresh (the package's import cost is part
    of set-up) and return them as one namespace."""
    for name in _equilab_modules():
        del sys.modules[name]
    eq = types.SimpleNamespace()
    for name in ("common",) + MODULES:
        setattr(eq, name, importlib.import_module(f"equilab.{name}"))
    if Path(eq.common.__file__).resolve().parent != SRC / "equilab":
        raise ImportError(f"equilab imported from {eq.common.__file__}, not from {SRC}")
    return eq


def outcome(op, index, result, seen):
    """Check one output.  An output that reads the same as the one already
    checked for this operation in this run reuses that status."""
    if isinstance(result, BaseException):
        return FAILED, f"exception {type(result).__name__}: {result}"
    context, output = result
    key = repr(output)
    if index in seen and seen[index][0] == key:
        return seen[index][1]
    status = op.check(context, output)
    seen[index] = (key, status)
    return status


def run_probe(eq):
    """`analyze gallery:cycle(60)` in one child process under a deadline."""
    cmd = [sys.executable, "-m", "equilab.cli", "analyze", f"gallery:{PROBE[0]}"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=ROOT,
                              timeout=PROBE_DEADLINE_S)
    except subprocess.TimeoutExpired:  # run() kills the child and waits for it
        return FAILED, f"still running after {PROBE_DEADLINE_S:g} s"
    return probe_check(eq, proc.returncode, proc.stdout)


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND samples beyond it:
    (value, percentile, samples); the maximum when there are too few."""
    lat = sorted(latencies)
    n = len(lat)
    if n > TAIL_BEYOND:
        return lat[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n
    return lat[-1], 100.0, n


def set_up(args, workdir, setups):
    """Time SETUPS_PER_BATCH set-ups and return the last one's modules,
    operations and notes."""
    for _ in range(SETUPS_PER_BATCH):
        notes = set()
        t0 = perf_counter()
        eq = import_equilab()
        ops = WORKLOADS[args.workload](eq, args.seed, workdir, notes)
        setups.append(perf_counter() - t0)
    return eq, ops, notes


def resample_set_up(args, workdir, setups) -> None:
    """Time more set-ups between passes, then put back the modules that the
    operations use, so that imports inside the library resolve to them."""
    kept = _equilab_modules()
    set_up(args, workdir, setups)
    for name in _equilab_modules():
        del sys.modules[name]
    sys.modules.update(kept)


def run(args, workdir) -> int:
    setups = []
    eq, ops, notes = set_up(args, workdir, setups)

    passes = max(1, round(args.seconds / SECONDS_PER_PASS[args.workload]))
    tracer = Tracer(eq) if args.trace else None
    if tracer:  # every operation runs twice per traced pass
        passes = max(1, passes // 2)
    print(f"workload {args.workload}, seed {args.seed}: {passes} passes of {len(ops)} "
          f"operations, trace {'on: each operation untraced and traced' if tracer else 'off'}")

    def execute(op, op_id, traced):
        if traced:
            tracer.install()
            tracer.begin_op(op_id)
        t0 = perf_counter()
        try:
            result = op.run()
        except (Exception, SystemExit) as exc:
            result = exc
        t1 = perf_counter()
        if traced:
            tracer.end_op(t0, t1)
            tracer.uninstall()
        return result, t1 - t0

    seen = {}
    tally = {OK: 0, FAILED: 0, WRONG: 0}
    problems = {}
    latencies = []
    by_kind = []            # per pass: operation kind -> untraced seconds
    graphs = 0
    pass_s, traced_pass_s = [], []
    started = perf_counter()
    for p in range(passes):
        if p and perf_counter() - started > PASS_CUTOFF_S:
            print(f"stopped after {p} passes: {PASS_CUTOFF_S:g} s cutoff")
            break
        gc.collect()
        kinds = {}
        traced_s = 0.0
        for i, op in enumerate(ops):
            # alternate which run goes first, so warm caches favour neither
            for traced in ((False, True) if i % 2 == 0 else (True, False)) if tracer else (False,):
                result, dt = execute(op, len(ops) * p + i, traced)
                # checked and released before the next operation runs, so
                # at most one output is alive at a time
                status, detail = outcome(op, i, result, seen)
                del result
                tally[status] += 1
                if status != OK:
                    problems[op.label] = (status, detail)
                if traced:
                    traced_s += dt
                    continue
                latencies.append(dt)
                graphs += op.graphs
                kinds[op.kind] = kinds.get(op.kind, 0.0) + dt
        by_kind.append(kinds)
        pass_s.append(sum(kinds.values()))
        if tracer:
            traced_pass_s.append(traced_s)
        else:
            resample_set_up(args, workdir, setups)

    if args.workload == "gallery":
        status, detail = run_probe(eq)
        tally[status] += 1
        if status != OK:
            problems[f"probe analyze gallery:{PROBE[0]}"] = (status, detail)

    attempted = sum(tally.values())
    failed = tally[FAILED] + tally[WRONG]
    print(f"operations: {attempted} attempted, {failed} failed "
          f"(failed_share {failed}/{attempted} = {failed / attempted:.4f}), "
          f"{tally[WRONG]} wrong")
    for label, (status, detail) in sorted(problems.items()):
        print(f"  {status}: {label}: {detail}")
    for note in sorted(notes):
        print(f"  note: {note}")

    kind_medians = {k: statistics.median(d.get(k, 0.0) for d in by_kind)
                    for k in sorted({k for d in by_kind for k in d})}
    if tracer:
        metrics = layer_metrics(args, tracer, pass_s, traced_pass_s, kind_medians)
    else:
        metrics = end_to_end_metrics(setups, pass_s, latencies, graphs, kind_medians)
    units = END_TO_END if not tracer else per_layer_units()
    result = {
        "correct": tally[WRONG] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def end_to_end_metrics(setups, pass_s, latencies, graphs, kind_medians):
    tail_value, pct, n = tail(latencies)
    print(f"setup_s {statistics.median(setups):.4f} (median of {len(setups)}: "
          + ", ".join(f"{s:.4f}" for s in setups) + ")")
    print(f"pass_s {statistics.median(pass_s):.4f} (passes: "
          + ", ".join(f"{s:.3f}" for s in pass_s) + ")")
    print(f"op_p50_ms {statistics.median(latencies) * 1e3:.3f}, op_tail_ms {tail_value * 1e3:.3f} "
          f"= p{pct:.1f} of {n} operation samples")
    print("seconds per pass by operation kind (median): "
          + ", ".join(f"{k}_s {v:.4f}" for k, v in kind_medians.items()))
    return {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_s),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": tail_value * 1e3,
        "graphs_per_s": graphs / sum(pass_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def layer_metrics(args, tracer, pass_s, traced_pass_s, kind_medians):
    s = tracer.summary()
    t = len(traced_pass_s)
    base = s["root_s"]  # traced operation time, the base of every share
    metrics = {}
    for mod in MODULES:
        own = s["modules"].get(mod, 0.0)
        metrics[f"{mod}.self_s"] = own / t
        metrics[f"{mod}.share"] = own / base
    for fn in LAYER_FUNCTIONS:
        metrics[f"{fn}.calls"] = s["calls"].get(fn, 0) / t
        metrics[f"{fn}.self_s"] = s["self_s"].get(fn, 0.0) / t
    strong_calls = s["calls"].get("equicert.strong_check", 0)
    verify_calls = s["calls"].get("equicert.verify_weighting", 0)
    untraced, traced = statistics.median(pass_s), statistics.median(traced_pass_s)
    metrics.update({
        "graphs.bk_nodes": s["bk_nodes"] / t,
        "simplex.lp_calls_in_strong_check": s["strong_lp_calls"] / t,
        "simplex.lp_calls_per_strong_check": s["strong_lp_calls"] / strong_calls if strong_calls else 0.0,
        "equicert.verify_weighting.yes_calls": s["verify_yes"] / t,
        "equicert.verify_weighting.calls_per_yes": verify_calls / s["verify_yes"] if s["verify_yes"] else 0.0,
        "equicert.max_ground_size": s["max_ground"],
        "trace.pass_s": traced,
        "trace.untraced_pass_s": untraced,
        "trace.overhead_s": traced - untraced,
        "trace.overhead_share": (traced - untraced) / untraced,
        "trace.unattributed_s": s["unattributed_s"] / t,
        "trace.unattributed_share": s["unattributed_s"] / base,
        "trace.attribution_error_s": s["attribution_error_s"],
        "trace.spans_per_pass": (s["spans"]) / t,
        "analyze_s": kind_medians.get("analyze", 0.0),
        "analyze_strong_s": kind_medians.get("analyze_strong", 0.0),
    })
    for key, value in metrics.items():
        if isinstance(value, float) and value.is_integer() and not key.endswith(("_s", "share")):
            metrics[key] = int(value)

    print(f"traced pass {traced:.4f} s vs untraced {untraced:.4f} s: overhead "
          f"{traced - untraced:+.4f} s ({(traced - untraced) / untraced:+.1%} of untraced)")
    print(f"per traced pass ({t} traced): {s['spans'] / t:.0f} spans; unattributed "
          f"{s['unattributed_s'] / t:.4f} s ({s['unattributed_s'] / base:.2%} of {base / t:.4f} s "
          f"operation time); largest |layer self sum - root| {s['attribution_error_s']:.2e} s")
    print("module self time per pass (share of traced operation time):")
    for mod in sorted(MODULES, key=lambda m: -s["modules"].get(m, 0.0)):
        own = s["modules"].get(mod, 0.0)
        print(f"  {mod:12} {own / t:9.4f} s  {own / base:7.2%}")
    print("top functions by self time per pass:")
    top = sorted(s["self_s"].items(), key=lambda kv: -kv[1])[:15]
    for name, own in top:
        print(f"  {name:48} {own / t:9.4f} s  {s['calls'].get(name, 0) / t:10.0f} calls")
    path = WORK / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
    tracer.write(path)
    print(f"spans written to {path.relative_to(ROOT)}")
    return metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "equilab" / "__init__.py").is_file():
        print(f"error: no equilab sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workdir = WORK / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
