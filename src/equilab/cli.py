"""Command-line front end: the property panel (`recognizers.panel`),
certificates, gallery graphs, and the cross-check harness.

Verbs: analyze | certify | gallery | crosscheck.  Graph inputs are edge-list
files, '-' for standard input, or 'gallery:<descriptor>'.  Exit codes:
0 success, 2 input error, 3 budget exhaustion (analyze: any verdict unknown).
"""

from __future__ import annotations

import argparse
import json
import random
import sys

from . import __version__
from .common import BudgetExhausted, GraphError, Verdict, make_budget
from .corpus import connected_triangle_free_graphs, random_connected_triangle_free
from .equicert import (
    EmptyPolytope,
    ForcedValueCertificate,
    NotForced,
    OffendingSubset,
    SetSystem,
    StrictPositivityFailure,
    StrongWitness,
    UnitSystemInfeasible,
    WeightFunction,
    certificate_to_json,
    forced_value,
    rational_to_json,
    solve_unit_system,
    stable_system,
    star_system,
)
from .graphs import (
    Bipartition,
    bipartition,
    component_count,
    find_edge_by_name,
    format_edge_list,
    generate,
    is_triangle_free,
    parse_edge_list,
)
from .matching import Matching
from .recognizers import (
    ComponentClassification,
    FivePath,
    PartitionFailure,
    StrongCliqueMap,
    TriangleConditionFailure,
    crosscheck_table1,
    general_partition,
    panel,
    triangle_condition,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _load_graph(source: str):
    if source.startswith("gallery:"):
        return generate(source[len("gallery:"):])
    if source == "-":
        return parse_edge_list(sys.stdin.read())
    with open(source, encoding="utf-8") as fh:
        return parse_edge_list(fh.read())


# ---------------------------------------------------------------------------
# witness serialization

def _witness_json(g, w, system: SetSystem | None = None):
    if w is None:
        return None
    if isinstance(w, WeightFunction):
        return {"type": "weighting",
                "weights": [rational_to_json(q) for q in w.weights]}
    if isinstance(w, ForcedValueCertificate):
        return certificate_to_json(system, w)
    if isinstance(w, UnitSystemInfeasible):
        return {"type": "infeasible_unit_system",
                "combination": [rational_to_json(q) for q in w.combination]}
    if isinstance(w, StrictPositivityFailure):
        return {"type": "strict_positivity_failure",
                "max_min_weight": rational_to_json(w.max_min_weight)}
    if isinstance(w, EmptyPolytope):
        return {"type": "empty_polytope"}
    if isinstance(w, StrongWitness):
        return {"type": "constant_subset",
                "target": [system.element_names[i] for i in w.target],
                "gamma": rational_to_json(w.gamma)}
    if isinstance(w, NotForced):
        return {"type": "not_forced",
                "target": [system.element_names[i] for i in w.target],
                "kernel_direction": [rational_to_json(q) for q in w.kernel_direction]}
    if isinstance(w, OffendingSubset):
        return {"type": "offending_subset",
                "elements": [system.element_names[i] for i in w.elements],
                "value": rational_to_json(w.value),
                "in_family": w.in_family}
    if isinstance(w, FivePath):
        return {"type": "five_path",
                "vertices": [g.labels[v] for v in w.vertices]}
    if isinstance(w, Matching):
        return {"type": "matching",
                "edges": sorted(g.edge_name(e) for e in w.edge_ids)}
    if isinstance(w, ComponentClassification):
        return {"type": "classification",
                "components": [
                    {"kind": t.kind, "vertices": [g.labels[v] for v in t.vertices]}
                    for t in w.tags
                ]}
    if isinstance(w, TriangleConditionFailure):
        return {"type": "triangle_condition_failure",
                "stable_set": [g.labels[v] for v in w.stable_set],
                "edge": [g.labels[w.edge[0]], g.labels[w.edge[1]]]}
    if isinstance(w, StrongCliqueMap):
        return {"type": "strong_clique_map",
                "cliques": [[g.labels[v] for v in c] for c in w.clique_of_edge]}
    if isinstance(w, PartitionFailure):
        return {"type": "partition_failure",
                "edge": [g.labels[w.edge[0]], g.labels[w.edge[1]]]}
    if isinstance(w, dict):
        return {"type": "note", "note": json.loads(json.dumps(w, default=str))}
    return {"type": "note", "note": str(w)}


def _verdict_json(g, v: Verdict, system: SetSystem | None = None):
    if isinstance(v.witness, BudgetExhausted):
        return {"value": v.value, "note": str(v.witness)}
    return {"value": v.value, "witness": _witness_json(g, v.witness, system)}


# ---------------------------------------------------------------------------
# analyze

def cmd_analyze(args) -> int:
    """Print the property panel of g and, with --with-co-line, the triangle
    condition and general partition of co-line(g)."""
    try:
        g = _load_graph(args.input)
        if g.n == 0:
            raise GraphError("empty graph")
    except (GraphError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    budget = make_budget(args.budget)
    report = {
        "schema": 1,
        "tool_version": __version__,
        "budget": args.budget,
        "graph": {
            "n": g.n,
            "m": g.m,
            "bipartite": isinstance(bipartition(g), Bipartition),
            "triangle_free": is_triangle_free(g)[0],
            "components": component_count(g),
        },
        "properties": {},
    }
    props = report["properties"]
    verdicts, star, col, stab = panel(g, budget, args.strong, args.with_co_line)
    for key, v in verdicts.items():
        graph, system = (col, stab) if key.endswith("equistable") else (g, star)
        props[key] = _verdict_json(graph, v, system)
        if key == "p5_constrained" and star is None:
            for prefix in ("", "strongly_") if args.strong else ("",):
                props[prefix + "equistarable"] = {"value": "undefined",
                                                  "note": "isolated vertex"}
    if col is not None:
        props["triangle_condition"] = _verdict_json(col, triangle_condition(col, budget))
        props["general_partition"] = _verdict_json(col, general_partition(col, budget))
    elif args.with_co_line:
        props["co_line"] = {"value": "undefined", "note": "no edges"}

    _emit(report, args)
    return EXIT_BUDGET if any(v["value"] == "unknown" for v in props.values()) else EXIT_OK


def _emit(report: dict, args) -> None:
    if args.text:
        _emit_text(report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))


def _emit_text(report: dict, indent: str = "") -> None:
    for key, val in report.items():
        if isinstance(val, dict):
            if "value" in val and not isinstance(val["value"], dict):
                print(f"{indent}{key}: {val['value']}")
            else:
                print(f"{indent}{key}:")
                _emit_text(val, indent + "  ")
        else:
            print(f"{indent}{key}: {val}")


# ---------------------------------------------------------------------------
# certify

def _resolve_targets(g, tokens, budget):
    """Interpret targets as edge names (star system) or vertex labels
    (stable-set system, enumerated within `budget`).  An edge name that
    spells two edges is an error."""
    eids = [find_edge_by_name(g, t, missing_ok=True) for t in tokens]
    if None not in eids:
        return star_system(g), tuple(eids)
    pos = {lab: i for i, lab in enumerate(g.labels)}
    missing = [t for t in tokens if t not in pos]
    if missing:
        raise GraphError(f"unknown labels: {', '.join(missing)}")
    return stable_system(g, budget), tuple(pos[t] for t in tokens)


def cmd_certify(args) -> int:
    try:
        g = _load_graph(args.input)
        tokens = [t.strip() for t in args.target.split(",") if t.strip()]
        if not tokens:
            raise GraphError("empty target")
        system, target = _resolve_targets(g, tokens, make_budget(args.budget))
        res = solve_unit_system(system)
        if not isinstance(res, UnitSystemInfeasible):
            res = forced_value(system, target, res)
    except BudgetExhausted as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (GraphError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    key = ("certificate" if isinstance(res, ForcedValueCertificate)
           else "not_forced" if isinstance(res, NotForced) else "infeasible_unit_system")
    out = {"schema": 1, "tool_version": __version__, key: _witness_json(g, res, system)}
    print(json.dumps(out, indent=2, sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# gallery

def cmd_gallery(args) -> int:
    try:
        g = generate(args.descriptor)
    except GraphError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    text = format_edge_list(g)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# crosscheck

def cmd_crosscheck(args) -> int:
    if args.max_n > 7:
        print("input error: exhaustive mode capped at 7 vertices", file=sys.stderr)
        return EXIT_INPUT
    graphs = connected_triangle_free_graphs(args.max_n)
    rng = random.Random(args.seed)
    for _ in range(args.samples):
        graphs.append(random_connected_triangle_free(rng.randint(7, 9), 0.25, rng))
    budget = make_budget(args.budget)
    row_counts: dict[str, dict[str, int]] = {}
    violations = []
    checked = 0
    for idx, g in enumerate(graphs):
        try:
            rep = crosscheck_table1(g, budget)
        except BudgetExhausted:
            continue
        checked += 1
        for row, outcome in rep.rows.items():
            key = f"{outcome.left.value}/{outcome.right.value}"
            row_counts.setdefault(row, {}).setdefault(key, 0)
            row_counts[row][key] += 1
        for v in rep.violations:
            violations.append({"graph_index": idx, "n": g.n, "m": g.m,
                               "violation": v})
    report = {
        "schema": 1,
        "tool_version": __version__,
        "seed": args.seed,
        "max_n": args.max_n,
        "samples": args.samples,
        "graphs_checked": checked,
        "rows": {k: dict(sorted(v.items())) for k, v in sorted(row_counts.items())},
        "violations": violations,
    }
    _emit(report, args)
    return EXIT_BUDGET if checked < len(graphs) else EXIT_OK


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="equilab",
                                description="weighted star/stable-set structure toolkit")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp):
        sp.add_argument("--json", dest="text", action="store_false", default=False)
        sp.add_argument("--text", dest="text", action="store_true")
        sp.add_argument("--budget", type=int, default=None)

    a = sub.add_parser("analyze", help="run the property panel on a graph")
    a.add_argument("input", help="edge-list file, '-', or gallery:<descriptor>")
    common(a)
    a.add_argument("--with-co-line", action="store_true")
    a.add_argument("--strong", action="store_true")
    a.set_defaults(func=cmd_analyze)

    c = sub.add_parser("certify", help="forced-value certificate for a target subset")
    c.add_argument("input")
    c.add_argument("--target", required=True,
                   help="comma-separated edge names or vertex labels")
    c.add_argument("--budget", type=int, default=None)
    c.set_defaults(func=cmd_certify)

    gal = sub.add_parser("gallery", help="write a gallery graph as an edge list")
    gal.add_argument("descriptor")
    gal.add_argument("-o", "--output", default=None)
    gal.set_defaults(func=cmd_gallery)

    x = sub.add_parser("crosscheck", help="run the paired-property harness")
    x.add_argument("--max-n", type=int, default=6)
    x.add_argument("--samples", type=int, default=0)
    x.add_argument("--seed", type=int, default=0)
    common(x)
    x.set_defaults(func=cmd_crosscheck)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
